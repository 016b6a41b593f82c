"""Per-type validation functions applied to rearmed candidate matches.

Validation runs after rearming, so none of these functions need to know
about defang transformations. A value must be ASCII. Checksummed types
(bitcoin, iban) do real arithmetic; lookup types (fqdn, url, email) consult
the TLD snapshot; cve, regkey, googleAdsense and googleAnalytics have no
check beyond ASCII; md5, sha1, sha256, sha512, ethereum and monero have
the shapes of their run bodies, ``patterns.RUN_BODIES``; everything else is
structural, on the shapes of ``patterns`` and ``normalize``. Two accept
more than their expressions: IBAN check digits are ``\\d``, and ssdeep
blocks have any length. An IBAN's country BBAN expression is compiled the
first time that country is checked.
"""
from __future__ import annotations

import functools
import hashlib
import ipaddress
import re
from pathlib import Path
from typing import Callable

from .errors import DATA, read_lines
from .normalize import URL_HOST, URL_SCHEME
from .patterns import B58_ALPHABET, HEX, LABEL, ONION_NAME, RUN_BODIES, SSDEEP_CHAR, TLD
from .types import IndicatorType

_T = IndicatorType


def load_tlds(path: str | Path) -> frozenset[str]:
    """Load a TLD snapshot: one TLD per line, lowercased; '#' comments allowed."""
    return frozenset(line.strip().lower() for _, line in read_lines(path))


DEFAULT_TLDS: frozenset[str] = load_tlds(DATA / "tlds.txt")


# ---------------------------------------------------------------------------
# base58check (bitcoin P2PKH / P2SH)

_B58_INDEX = {c: i for i, c in enumerate(B58_ALPHABET)}


def base58check_decode(value: str) -> bytes | None:
    """Decode a base58check string; None if the alphabet or checksum is wrong."""
    if not value:
        return None
    acc = 0
    for char in value:
        idx = _B58_INDEX.get(char)
        if idx is None:
            return None
        acc = acc * 58 + idx
    body = acc.to_bytes((acc.bit_length() + 7) // 8, "big")
    # Each leading "1" (digit 0) is one leading zero byte.
    decoded = b"\x00" * (len(value) - len(value.lstrip("1"))) + body
    if len(decoded) < 5:
        return None
    payload, checksum = decoded[:-4], decoded[-4:]
    digest = hashlib.sha256(hashlib.sha256(payload).digest()).digest()
    if digest[:4] != checksum:
        return None
    return payload


def is_valid_bitcoin(value: str) -> bool:
    """P2PKH/P2SH address: 25 decoded bytes, version 0x00 or 0x05, checksum holds."""
    payload = base58check_decode(value)
    return payload is not None and len(payload) == 21 and payload[0] in (0x00, 0x05)


# ---------------------------------------------------------------------------
# IBAN (ISO 13616 mod-97 plus country-specific BBAN structure)

#: Registry BBAN layouts as run-length segments: n = digits, a = uppercase
#: letters, c = alphanumeric. The total IBAN length is 4 + segment sum.
IBAN_STRUCTURES: dict[str, str] = {
    "AD": "8n12c", "AE": "19n", "AL": "8n16c", "AT": "16n", "AZ": "4a20c",
    "BA": "16n", "BE": "12n", "BG": "4a6n8c", "BH": "4a14c", "BR": "23n1a1c",
    "BY": "4c4n16c", "CH": "5n12c", "CR": "18n", "CY": "8n16c", "CZ": "20n",
    "DE": "18n", "DK": "14n", "DO": "4c20n", "EE": "16n", "EG": "25n",
    "ES": "20n", "FI": "14n", "FO": "14n", "FR": "10n11c2n", "GB": "4a14n",
    "GE": "2a16n", "GI": "4a15c", "GL": "14n", "GR": "7n16c", "GT": "24c",
    "HR": "17n", "HU": "24n", "IE": "4a14n", "IL": "19n", "IQ": "4a15n",
    "IS": "22n", "IT": "1a10n12c", "JO": "4a4n18c", "KW": "4a22c",
    "KZ": "3n13c", "LB": "4n20c", "LC": "4a24c", "LI": "5n12c", "LT": "16n",
    "LU": "3n13c", "LV": "4a13c", "MC": "10n11c2n", "MD": "20c", "ME": "18n",
    "MK": "3n10c2n", "MR": "23n", "MT": "4a5n18c", "MU": "4a19n3a",
    "NL": "4a10n", "NO": "11n", "PK": "4a16c", "PL": "24n", "PS": "4a21c",
    "PT": "21n", "QA": "4a21c", "RO": "4a16c", "RS": "18n", "SA": "2n18c",
    "SC": "4a20n3a", "SE": "20n", "SI": "15n", "SK": "20n", "SM": "1a10n12c",
    "ST": "21n", "SV": "4a20n", "TL": "19n", "TN": "20n", "TR": "6n16c",
    "UA": "6n19c", "VA": "18n", "VG": "4a16n", "XK": "16n",
}

_SEGMENT_CLASS = {"n": "[0-9]", "a": "[A-Z]", "c": "[A-Za-z0-9]"}
_SEGMENT_RE = re.compile(r"(\d+)([nac])")


@functools.cache
def _bban_pattern(country: str) -> re.Pattern[str] | None:
    """The BBAN expression of a country code, compiled the first time the
    country is checked; None for a country without an IBAN structure."""
    structure = IBAN_STRUCTURES.get(country)
    if structure is None:
        return None
    parts = (f"{_SEGMENT_CLASS[kind]}{{{count}}}" for count, kind in _SEGMENT_RE.findall(structure))
    return re.compile("".join(parts) + r"\Z")


_IBAN_SHAPE = re.compile(r"[A-Z]{2}\d{2}[A-Z0-9]{11,30}\Z")
#: Each IBAN character as the decimal digits of its base-36 value.
_IBAN_DIGITS = str.maketrans({c: str(int(c, 36)) for c in "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"})


def is_valid_iban(value: str) -> bool:
    """Country BBAN structure holds and the rearranged value is 1 mod 97."""
    if not _IBAN_SHAPE.match(value):
        return False
    bban_pattern = _bban_pattern(value[:2])
    if bban_pattern is None or not bban_pattern.match(value[4:]):
        return False
    rearranged = value[4:] + value[:4]
    # Other decimal digits, which the shape's \d lets through, are left as
    # they are: int reads them as the digits they stand for.
    number = int(rearranged.translate(_IBAN_DIGITS))
    return number % 97 == 1


# ---------------------------------------------------------------------------
# network types

MAX_FQDN_LENGTH = 253
_LABEL_RE = re.compile(rf"{LABEL}\Z")
_TLD_RE = re.compile(rf"{TLD}\Z")


def is_valid_fqdn(value: str, tlds: frozenset[str] = DEFAULT_TLDS) -> bool:
    """Final label is in the TLD snapshot and total length <= 253 characters."""
    if not value or len(value) > MAX_FQDN_LENGTH:
        return False
    labels = value.split(".")
    if len(labels) < 2:
        return False
    if not all(_LABEL_RE.match(lbl) for lbl in labels[:-1]):
        return False
    tld = labels[-1]
    return bool(_TLD_RE.match(tld)) and tld.lower() in tlds


def is_valid_ip4(value: str) -> bool:
    parts = value.split(".")
    if len(parts) != 4:
        return False
    for part in parts:
        if not part.isdecimal() or len(part) > 3 or int(part) > 255:
            return False
    return True


def is_valid_ip4cidr(value: str) -> bool:
    address, _, prefix = value.partition("/")
    if not prefix.isdecimal() or int(prefix) > 32:
        return False
    return is_valid_ip4(address)


def is_valid_ip6(value: str) -> bool:
    try:
        ipaddress.IPv6Address(value)
    except ValueError:
        return False
    return True


_URL_SPLIT = re.compile(rf"{URL_SCHEME}(?P<host>{URL_HOST})(?::(?P<port>\d+))?(?:[/?#]|\Z)")


def is_valid_url(value: str, tlds: frozenset[str] = DEFAULT_TLDS) -> bool:
    """Scheme present and the host is a valid domain, IPv4, or bracketed IPv6."""
    m = _URL_SPLIT.match(value)
    if not m:
        return False
    host = m.group("host")
    port = m.group("port")
    if port is not None and int(port) > 65535:
        return False
    if not host:
        return False
    if host.startswith("["):
        return is_valid_ip6(host[1:-1])
    if re.fullmatch(r"[\d.]+", host):
        return is_valid_ip4(host)
    return is_valid_fqdn(host, tlds)


def is_valid_email(value: str, tlds: frozenset[str] = DEFAULT_TLDS) -> bool:
    local, sep, domain = value.rpartition("@")
    if not sep or not local or len(local) > 64 or "@" in local:
        return False
    if local.startswith(".") or local.endswith(".") or ".." in local:
        return False
    return is_valid_fqdn(domain, tlds)


def is_valid_asn(value: str) -> bool:
    digits = re.sub(r"(?i)\Aasn?", "", value)
    return digits.isdecimal() and int(digits) <= 0xFFFFFFFF


_MAC_RE = re.compile(rf"{HEX}{{2}}([:-])(?:{HEX}{{2}}\1){{4}}{HEX}{{2}}\Z")


def is_valid_mac(value: str) -> bool:
    """Six hex octets with one consistent separator (':' or '-')."""
    return _MAC_RE.match(value) is not None


# ---------------------------------------------------------------------------
# remaining structural checks

_SSDEEP_RE = re.compile(rf"\d{{1,18}}:{SSDEEP_CHAR}+:{SSDEEP_CHAR}+\Z")
_ONION_RE = re.compile(rf"{ONION_NAME}\.onion\Z")

#: The check of every type on a rearmed ASCII value, except the lookup
#: types. A run type without a checksum fullmatches its run body; str.isascii
#: marks a type with no other check.
_VALIDATORS: dict[IndicatorType, Callable[[str], object]] = {
    t: re.compile(RUN_BODIES[t]).fullmatch
    for t in (_T.MD5, _T.SHA1, _T.SHA256, _T.SHA512, _T.ETHEREUM, _T.MONERO)
} | {
    _T.IP4: is_valid_ip4,
    _T.IP4CIDR: is_valid_ip4cidr,
    _T.IP6: is_valid_ip6,
    _T.SSDEEP: _SSDEEP_RE.match,
    _T.CVE: str.isascii,
    _T.ASN: is_valid_asn,
    _T.BITCOIN: is_valid_bitcoin,
    _T.ONION_ADDRESS: _ONION_RE.match,
    _T.IBAN: is_valid_iban,
    _T.MAC_ADDRESS: is_valid_mac,
    _T.REGKEY: str.isascii,
    _T.GOOGLE_ADSENSE: str.isascii,
    _T.GOOGLE_ANALYTICS: str.isascii,
}
#: The checks that also consult the TLD snapshot.
_LOOKUP_VALIDATORS: dict[IndicatorType, Callable[[str, frozenset[str]], bool]] = {
    _T.FQDN: is_valid_fqdn,
    _T.URL: is_valid_url,
    _T.EMAIL: is_valid_email,
}


def validator(type: IndicatorType, tlds: frozenset[str] = DEFAULT_TLDS) -> Callable[[str], bool]:
    """The validation of ``type`` against ``tlds``: true iff a rearmed
    candidate is ASCII and passes the type's check."""
    lookup = _LOOKUP_VALIDATORS.get(type)
    if lookup is not None:
        return lambda rearmed: rearmed.isascii() and lookup(rearmed, tlds)
    check = _VALIDATORS[type]
    return lambda rearmed: rearmed.isascii() and bool(check(rearmed))


def validate(type: IndicatorType, rearmed: str, tlds: frozenset[str] = DEFAULT_TLDS) -> bool:
    """True iff the rearmed candidate is ASCII and passes the type's check."""
    return validator(type, tlds)(rearmed)
