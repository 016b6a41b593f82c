"""Per-type validation functions applied to rearmed candidate matches.

Validation runs after rearming, so none of these functions need to know
about defang transformations. Checksummed types (bitcoin, iban) do real
arithmetic; lookup types (fqdn, url, email) consult the pinned TLD
snapshot; everything else is structural.
"""
from __future__ import annotations

import hashlib
import ipaddress
import re
from pathlib import Path
from typing import Callable

from .errors import DATA, read_lines
from .types import IndicatorType

_T = IndicatorType


def load_tlds(path: str | Path) -> frozenset[str]:
    """Load a TLD snapshot: one TLD per line, lowercased; '#' comments allowed."""
    return frozenset(line.strip().lower() for _, line in read_lines(path))


DEFAULT_TLDS: frozenset[str] = load_tlds(DATA / "tlds.txt")


# ---------------------------------------------------------------------------
# base58check (bitcoin P2PKH / P2SH)

_B58_ALPHABET = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"
_B58_INDEX = {c: i for i, c in enumerate(_B58_ALPHABET)}


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
    pad = 0
    for char in value:
        if char != "1":
            break
        pad += 1
    decoded = b"\x00" * pad + body
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


def _compile_bban(structure: str) -> re.Pattern[str]:
    parts = []
    for count, kind in _SEGMENT_RE.findall(structure):
        parts.append(f"{_SEGMENT_CLASS[kind]}{{{count}}}")
    return re.compile("".join(parts) + r"\Z")


_BBAN_PATTERNS = {cc: _compile_bban(s) for cc, s in IBAN_STRUCTURES.items()}

IBAN_LENGTHS: dict[str, int] = {
    cc: 4 + sum(int(count) for count, _ in _SEGMENT_RE.findall(structure))
    for cc, structure in IBAN_STRUCTURES.items()
}

_IBAN_SHAPE = re.compile(r"[A-Z]{2}\d{2}[A-Z0-9]{11,30}\Z")


def is_valid_iban(value: str) -> bool:
    """Country BBAN structure holds and the rearranged value is 1 mod 97."""
    if not _IBAN_SHAPE.match(value):
        return False
    bban_pattern = _BBAN_PATTERNS.get(value[:2])
    if bban_pattern is None or not bban_pattern.match(value[4:]):
        return False
    rearranged = value[4:] + value[:4]
    number = int("".join(str(int(c, 36)) for c in rearranged))
    return number % 97 == 1


# ---------------------------------------------------------------------------
# network types

MAX_FQDN_LENGTH = 253
_LABEL_RE = re.compile(r"[A-Za-z0-9_]([A-Za-z0-9_-]{0,61}[A-Za-z0-9_])?\Z")
_TLD_RE = re.compile(r"(?:[A-Za-z]{2,63}|xn--[A-Za-z0-9-]{1,59})\Z", re.IGNORECASE)


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
        if not part.isdigit() or len(part) > 3 or int(part) > 255:
            return False
    return True


def is_valid_ip4cidr(value: str) -> bool:
    address, _, prefix = value.partition("/")
    if not prefix.isdigit() or int(prefix) > 32:
        return False
    return is_valid_ip4(address)


def is_valid_ip6(value: str) -> bool:
    try:
        ipaddress.IPv6Address(value)
    except ValueError:
        return False
    return True


_URL_SPLIT = re.compile(
    r"(?P<scheme>[A-Za-z][A-Za-z0-9+.-]*)://(?P<host>\[[^\]]*\]|[^/?#:\s]*)"
    r"(?::(?P<port>\d+))?(?:[/?#]|\Z)"
)


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
    return digits.isdigit() and int(digits) <= 0xFFFFFFFF


def is_valid_mac(value: str) -> bool:
    """Six hex octets with one consistent separator (':' or '-')."""
    sep = value[2] if len(value) > 2 else ""
    if sep not in (":", "-"):
        return False
    parts = value.split(sep)
    return len(parts) == 6 and all(
        len(p) == 2 and all(c in "0123456789abcdefABCDEF" for c in p) for p in parts
    )


# ---------------------------------------------------------------------------
# remaining structural checks

_HEX_RE = re.compile(r"[0-9a-fA-F]*\Z")
_SSDEEP_RE = re.compile(r"\d{1,18}:[A-Za-z0-9/+]+:[A-Za-z0-9/+]+\Z")
_ETHEREUM_RE = re.compile(r"0x[0-9a-fA-F]{40}\Z")
_MONERO_RE = re.compile(r"[48][1-9A-HJ-NP-Za-km-z]{94}\Z")
_ONION_RE = re.compile(r"(?:[a-z2-7]{16}|[a-z2-7]{56})\.onion\Z")

#: The validation function of every type, called with the rearmed value
#: and the TLD snapshot.
_VALIDATORS = {
    _T.IP4: lambda v, tlds: is_valid_ip4(v),
    _T.IP4CIDR: lambda v, tlds: is_valid_ip4cidr(v),
    _T.IP6: lambda v, tlds: is_valid_ip6(v),
    _T.FQDN: is_valid_fqdn,
    _T.URL: is_valid_url,
    _T.EMAIL: is_valid_email,
    _T.MD5: lambda v, tlds: len(v) == 32 and _HEX_RE.match(v),
    _T.SHA1: lambda v, tlds: len(v) == 40 and _HEX_RE.match(v),
    _T.SHA256: lambda v, tlds: len(v) == 64 and _HEX_RE.match(v),
    _T.SHA512: lambda v, tlds: len(v) == 128 and _HEX_RE.match(v),
    _T.SSDEEP: lambda v, tlds: _SSDEEP_RE.match(v),
    _T.CVE: lambda v, tlds: True,
    _T.ASN: lambda v, tlds: is_valid_asn(v),
    _T.BITCOIN: lambda v, tlds: is_valid_bitcoin(v),
    _T.ETHEREUM: lambda v, tlds: _ETHEREUM_RE.match(v),
    _T.MONERO: lambda v, tlds: _MONERO_RE.match(v),
    _T.ONION_ADDRESS: lambda v, tlds: _ONION_RE.match(v),
    _T.IBAN: lambda v, tlds: is_valid_iban(v),
    _T.MAC_ADDRESS: lambda v, tlds: is_valid_mac(v),
    _T.REGKEY: lambda v, tlds: True,
    _T.GOOGLE_ADSENSE: lambda v, tlds: True,
    _T.GOOGLE_ANALYTICS: lambda v, tlds: True,
}


def validator(
    type: IndicatorType, tlds: frozenset[str] = DEFAULT_TLDS
) -> Callable[[str], bool]:
    """The validation of ``type`` against ``tlds``: true iff a rearmed
    candidate is ASCII and passes the type's validation function."""
    check = _VALIDATORS[type]
    return lambda rearmed: rearmed.isascii() and bool(check(rearmed, tlds))


def validate(
    type: IndicatorType, rearmed: str, tlds: frozenset[str] = DEFAULT_TLDS
) -> bool:
    """True iff the rearmed candidate is ASCII and passes the type's
    validation function."""
    return validator(type, tlds)(rearmed)
