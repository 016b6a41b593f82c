import ipaddress
import random
import re
from typing import Callable

import pytest
from hypothesis import example, given, settings, strategies as st

from iockit.filtering import indicator_host
from iockit.normalize import normalize
from iockit.patterns import RUN_LENGTHS
from iockit.types import Indicator, IndicatorType
from iockit.validators import (
    _IBAN_SHAPE,
    _bban_pattern,
    DEFAULT_TLDS,
    IBAN_STRUCTURES,
    base58check_decode,
    is_valid_asn,
    is_valid_bitcoin,
    is_valid_email,
    is_valid_fqdn,
    is_valid_iban,
    is_valid_ip4,
    is_valid_ip4cidr,
    is_valid_ip6,
    is_valid_mac,
    is_valid_url,
    load_tlds,
    validate,
)

from conftest import B58_ALPHABET, b58check_encode, mod97_stream

T = IndicatorType

# Frozen vector, confirmed by the independent oracle in test_oracle_agreement.
GENESIS_ADDR = "1A1zP1eP5QGefi2DMPTfTL5SLmv7DivfNa"
# Standard ISO 13616 example; mod97_stream(rearranged) == 1 checked below.
GB_IBAN = "GB82WEST12345698765432"


def test_oracle_agreement():
    # The test-side encoder and package-side decoder must agree before any
    # expected value below means anything.
    payload = bytes([0x00]) + bytes(range(20))
    encoded = b58check_encode(payload)
    assert base58check_decode(encoded) == payload
    assert mod97_stream(GB_IBAN[4:] + GB_IBAN[:4]) == 1


def test_bitcoin_known_vectors():
    assert validate(T.BITCOIN, GENESIS_ADDR) is True
    assert validate(T.BITCOIN, GENESIS_ADDR[:-1] + "b") is False


def test_bitcoin_version_bytes():
    rng = random.Random(5)
    body = bytes(rng.getrandbits(8) for _ in range(20))
    assert is_valid_bitcoin(b58check_encode(bytes([0x00]) + body))
    assert is_valid_bitcoin(b58check_encode(bytes([0x05]) + body))
    # Valid checksum but foreign version byte (e.g. testnet) is rejected.
    assert not is_valid_bitcoin(b58check_encode(bytes([0x6F]) + body))


def test_bitcoin_mutation_resistance():
    rng = random.Random(99)
    survivors = 0
    for _ in range(300):
        pos = rng.randrange(len(GENESIS_ADDR))
        repl = rng.choice(B58_ALPHABET)
        if repl == GENESIS_ADDR[pos]:
            continue
        mutated = GENESIS_ADDR[:pos] + repl + GENESIS_ADDR[pos + 1 :]
        survivors += is_valid_bitcoin(mutated)
    assert survivors == 0


def test_iban_known_vectors():
    assert validate(T.IBAN, GB_IBAN) is True
    assert validate(T.IBAN, GB_IBAN[:-1] + "3") is False
    # Right shape and checksum arithmetic, unknown country code.
    assert validate(T.IBAN, "ZZ82WEST12345698765432") is False
    # Known country, wrong length.
    assert validate(T.IBAN, "GB82WEST1234569876543") is False


def test_iban_every_single_char_mutation_fails():
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    for pos in range(len(GB_IBAN)):
        for repl in alphabet:
            if repl == GB_IBAN[pos]:
                continue
            mutated = GB_IBAN[:pos] + repl + GB_IBAN[pos + 1 :]
            assert not is_valid_iban(mutated), mutated


def reference_is_valid_iban(value):
    """is_valid_iban as written before it translated the characters at
    once: ``int(c, 36)`` per character."""
    if not _IBAN_SHAPE.match(value):
        return False
    bban_pattern = _bban_pattern(value[:2])
    if bban_pattern is None or not bban_pattern.match(value[4:]):
        return False
    rearranged = value[4:] + value[:4]
    return int("".join(str(int(c, 36)) for c in rearranged)) % 97 == 1


def test_iban_accepts_what_the_per_character_reference_does(forge, rng):
    # Generated values, and each mutated at one position to a letter, a
    # digit, a lowercase letter, another script's digit or punctuation.
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789az\u0668\uff12\u0967-. "
    values = [forge.value(T.IBAN) for _ in range(300)] + [GB_IBAN, "GB\u0668\u0662WEST12345698765432"]
    mutated = []
    for value in values:
        for _ in range(20):
            pos = rng.randrange(len(value))
            mutated.append(value[:pos] + rng.choice(alphabet) + value[pos + 1 :])
        mutated += [value[:-1], value + "0", value[2:4] + value[:2] + value[4:]]
    accepted = 0
    for value in values + mutated:
        expected = reference_is_valid_iban(value)
        assert is_valid_iban(value) is expected, value
        accepted += expected
    assert accepted > len(values)


def test_fqdn_tld_lookup():
    assert validate(T.FQDN, "server.example.com") is True
    assert validate(T.FQDN, "server.invalidtldzz") is False
    assert validate(T.FQDN, "example.xn--p1ai") is True
    assert validate(T.FQDN, "single") is False
    # 253 characters is the longest accepted name; 254 is rejected.
    long_253 = ".".join(["b" * 63, "a" * 63, "a" * 60, "a" * 60, "com"])
    assert len(long_253) == 253
    assert validate(T.FQDN, long_253) is True
    long_254 = ".".join(["b" * 63, "a" * 63, "a" * 61, "a" * 60, "com"])
    assert len(long_254) == 254
    assert validate(T.FQDN, long_254) is False


def test_load_tlds(tmp_path):
    snapshot = tmp_path / "tlds.txt"
    snapshot.write_text("# comment\ncom\nNET\n\n")
    tlds = load_tlds(snapshot)
    assert tlds == frozenset({"com", "net"})
    assert is_valid_fqdn("a.com", tlds)
    assert not is_valid_fqdn("a.org", tlds)


@pytest.mark.parametrize(
    "ind_type,value,expected",
    [
        (T.IP4, "255.255.255.255", True),
        (T.IP4, "256.1.1.1", False),
        (T.IP4, "1.2.3", False),
        (T.IP4CIDR, "10.0.0.0/8", True),
        (T.IP4CIDR, "10.0.0.0/33", False),
        (T.IP4CIDR, "10.0.0.999/8", False),
        (T.IP6, "2001:db8::1", True),
        (T.IP6, "12:34:56", False),
        (T.IP6, "::ffff:1.2.3.4", True),
        (T.URL, "http://example.com/a?b=c", True),
        (T.URL, "http://example.invalidtldzz/", False),
        (T.URL, "http://1.2.3.4:8080/x", True),
        (T.URL, "http://1.2.3.999/x", False),
        (T.URL, "http://example.com:99999/", False),
        (T.URL, "http://[2001:db8::1]/x", True),
        (T.EMAIL, "user@example.com", True),
        (T.EMAIL, "user@bad.invalidtldzz", False),
        (T.EMAIL, ".user@example.com", False),
        (T.ASN, "AS4294967295", True),
        (T.ASN, "AS4294967296", False),
        (T.ASN, "asn123", True),
        (T.MAC_ADDRESS, "00:1A:2B:3C:4D:5E", True),
        (T.MAC_ADDRESS, "00-1A-2B-3C-4D-5E", True),
        (T.MAC_ADDRESS, "00:1A-2B:3C:4D:5E", False),
        (T.SSDEEP, "3072:abcDEF12/+abc:defGHI34", True),
        (T.SSDEEP, "abc:def:ghi", False),
        (T.MD5, "d41d8cd98f00b204e9800998ecf8427e", True),
        (T.MD5, "d41d8cd98f00b204e9800998ecf8427", False),
        (T.SHA1, "a" * 40, True),
        (T.SHA256, "a" * 64, True),
        (T.SHA512, "a" * 128, True),
        (T.ETHEREUM, "0x" + "a" * 40, True),
        (T.ETHEREUM, "0x" + "a" * 39, False),
        (T.MONERO, "4" + "A" * 94, True),
        (T.MONERO, "4" + "A" * 93, False),
        (T.ONION_ADDRESS, "a" * 16 + ".onion", True),
        (T.ONION_ADDRESS, "a" * 56 + ".onion", True),
        (T.ONION_ADDRESS, "a" * 20 + ".onion", False),
        (T.CVE, "CVE-2021-44228", True),
        (T.REGKEY, "HKLM\\Software\\Run", True),
        (T.GOOGLE_ADSENSE, "pub-1234567890123456", True),
        (T.GOOGLE_ANALYTICS, "UA-123456-1", True),
    ],
)
def test_validate_dispatch(ind_type, value, expected):
    assert validate(ind_type, value) is expected


def test_generated_values_all_validate(forge):
    for ind_type in IndicatorType:
        for _ in range(20):
            value = forge.value(ind_type)
            assert validate(ind_type, value), (ind_type, value)


def test_iban_lengths_sane():
    # Each registry layout's IBAN length (4 + its segments) is one the iban
    # expression can match.
    lengths = {
        country: 4 + sum(map(int, re.findall(r"\d+", structure)))
        for country, structure in IBAN_STRUCTURES.items()
    }
    assert lengths["GB"] == 22
    assert all(n in RUN_LENGTHS[T.IBAN] for n in lengths.values()), lengths


def test_default_tlds_loaded():
    assert "com" in DEFAULT_TLDS and "onion" not in DEFAULT_TLDS
    assert len(DEFAULT_TLDS) > 500


# The shapes as validators, filtering and normalize each spelled their own
# before they shared the pieces of patterns and normalize, kept unchanged as
# the reference of test_shared_shapes_match_frozen_spellings and of the
# validator table below.
_FROZEN_LABEL_RE = re.compile(r"[A-Za-z0-9_]([A-Za-z0-9_-]{0,61}[A-Za-z0-9_])?\Z")
_FROZEN_TLD_RE = re.compile(r"(?:[A-Za-z]{2,63}|xn--[A-Za-z0-9-]{1,59})\Z", re.IGNORECASE)
_FROZEN_URL_SPLIT = re.compile(
    r"(?P<scheme>[A-Za-z][A-Za-z0-9+.-]*)://(?P<host>\[[^\]]*\]|[^/?#:\s]*)"
    r"(?::(?P<port>\d+))?(?:[/?#]|\Z)"
)
_FROZEN_URL_HOST = re.compile(
    r"\A[A-Za-z][A-Za-z0-9+.-]*://(?:[^/?#@\s]*@)?(?P<host>\[[^\]]*\]|[^/?#:\s]*)"
)
_FROZEN_URL_SCHEME = re.compile(r"\A[A-Za-z][A-Za-z0-9+.-]*://")


def frozen_is_valid_fqdn(value, tlds=DEFAULT_TLDS):
    if not value or len(value) > 253:
        return False
    labels = value.split(".")
    if len(labels) < 2:
        return False
    if not all(_FROZEN_LABEL_RE.match(lbl) for lbl in labels[:-1]):
        return False
    tld = labels[-1]
    return bool(_FROZEN_TLD_RE.match(tld)) and tld.lower() in tlds


def frozen_is_valid_url(value, tlds=DEFAULT_TLDS):
    m = _FROZEN_URL_SPLIT.match(value)
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
    return frozen_is_valid_fqdn(host, tlds)


def frozen_is_valid_email(value, tlds=DEFAULT_TLDS):
    local, sep, domain = value.rpartition("@")
    if not sep or not local or len(local) > 64 or "@" in local:
        return False
    if local.startswith(".") or local.endswith(".") or ".." in local:
        return False
    return frozen_is_valid_fqdn(domain, tlds)


def frozen_is_valid_mac(value):
    sep = value[2] if len(value) > 2 else ""
    if sep not in (":", "-"):
        return False
    parts = value.split(sep)
    return len(parts) == 6 and all(
        len(p) == 2 and all(c in "0123456789abcdefABCDEF" for c in p) for p in parts
    )


def frozen_url_host(value):
    """filtering.indicator_host of a url indicator."""
    m = _FROZEN_URL_HOST.match(value)
    if m and m.group("host") and not m.group("host").startswith("["):
        return m.group("host").lower().rstrip(".")
    return None


def frozen_normalize_url(value):
    return value if _FROZEN_URL_SCHEME.match(value) else "http://" + value


# The validator table as written when each check took the TLD snapshot,
# kept unchanged as the reference of test_validate_matches_reference_table.
_HEX_RE = re.compile(r"[0-9a-fA-F]*\Z")
_SSDEEP_RE = re.compile(r"\d{1,18}:[A-Za-z0-9/+]+:[A-Za-z0-9/+]+\Z")
_ETHEREUM_RE = re.compile(r"0x[0-9a-fA-F]{40}\Z")
_MONERO_RE = re.compile(r"[48][1-9A-HJ-NP-Za-km-z]{94}\Z")
_ONION_RE = re.compile(r"(?:[a-z2-7]{16}|[a-z2-7]{56})\.onion\Z")

_T = IndicatorType

_VALIDATORS = {
    _T.IP4: lambda v, tlds: is_valid_ip4(v),
    _T.IP4CIDR: lambda v, tlds: is_valid_ip4cidr(v),
    _T.IP6: lambda v, tlds: is_valid_ip6(v),
    _T.FQDN: frozen_is_valid_fqdn,
    _T.URL: frozen_is_valid_url,
    _T.EMAIL: frozen_is_valid_email,
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
    _T.MAC_ADDRESS: lambda v, tlds: frozen_is_valid_mac(v),
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


#: Characters a mutation draws from: the structural ones of every type, and
#: another script's digit, a fullwidth digit and a non-ASCII letter.
_MUTATION_ALPHABETS = (
    "0123456789abcdefxyzABCDEFXYZ",
    ".:-/@_\\+x [] \u0668\uff12\u00e9",
    "\u0668\uff12\u00e9",
)


def _mutated(rng, value):
    """``value`` with one to three characters replaced, inserted or deleted."""
    chars = list(value)
    for _ in range(rng.randint(1, 3)):
        alphabet = rng.choice(_MUTATION_ALPHABETS)
        pos = rng.randrange(len(chars) + 1)
        edit = rng.randrange(3)
        if edit == 0 and pos < len(chars):
            chars[pos] = rng.choice(alphabet)
        elif edit == 1 and pos < len(chars):
            del chars[pos]
        else:
            chars.insert(pos, rng.choice(alphabet))
    return "".join(chars)


def test_validate_matches_reference_table(forge, rng):
    # Every type judges the generated values of every type, their case
    # forms and their mutations exactly as the reference table does, under
    # the default TLDs and a custom set.
    values = {""}
    for ind_type in IndicatorType:
        for _ in range(25):
            value = forge.value(ind_type)
            values |= {value, value.upper(), value.lower()}
            values.update(_mutated(rng, value) for _ in range(8))
    values |= {"a.zz", "x.onion", "http://x.zz/", "u@x.zz", "CVE-2021-44228\u0668"}
    custom = frozenset({"com", "net", "zz", "onion"})
    accepted = rejected = 0
    for tlds in (DEFAULT_TLDS, custom):
        for ind_type in IndicatorType:
            reference = validator(ind_type, tlds)
            for value in values:
                expected = reference(value)
                assert validate(ind_type, value, tlds) is expected, (ind_type, value, tlds is custom)
                accepted += expected
                rejected += not expected
    assert accepted > 2 * 25 * len(IndicatorType) and rejected > accepted


#: ASCII characters a URL, domain or MAC mutation draws from: every
#: separator of the three grammars, whitespace, and characters no class
#: of theirs holds.
_ASCII_MUTATIONS = "aZx09fF.-_:/?#@[]+% \t\n!"


def _ascii_variants(rng, value):
    """``value`` mutated, and as a URL with user information, an IP host or
    another scheme."""
    out = {value, value.upper(), value.lower()}
    for _ in range(10):
        chars = list(value)
        for _ in range(rng.randint(1, 3)):
            pos = rng.randrange(len(chars) + 1)
            if pos < len(chars) and rng.random() < 0.5:
                chars[pos] = rng.choice(_ASCII_MUTATIONS)
            else:
                chars.insert(pos, rng.choice(_ASCII_MUTATIONS))
        out.add("".join(chars))
    scheme, sep, rest = value.partition("://")
    if sep:
        out |= {f"{scheme}://u:p@{rest}", f"{scheme}://@{rest}", f"FTP+x.y-z://{rest}", f"1x://{rest}"}
        out |= {f"{scheme}://1.2.3.4:8080/{rest}", f"{scheme}://[::1]/{rest}", f"{scheme}://[::1"}
    return out


def test_shared_shapes_match_frozen_spellings(forge, rng):
    # On ASCII values the checks and host lookups built on the shared
    # pieces judge as the spellings they replace did.
    seeds = ["", "a.b", "x-.com", "-x.com", "_x.com", "a..com", "a.XN--P1AI", "a.Xn--p1ai",
             "a" * 63 + ".com", "a" * 64 + ".com", "http://", "http:///x", "HTTP://[::1]:80",
             "mailto:u@a.com", "http://a.com:99999", "00:11:22:33:44:55\n", "00:11:22:33:44:5"]
    for ind_type in (T.FQDN, T.URL, T.EMAIL, T.MAC_ADDRESS, T.ONION_ADDRESS, T.SSDEEP):
        seeds += [forge.value(ind_type) for _ in range(40)]
    values = set().union(*(_ascii_variants(rng, seed) for seed in seeds if seed)) | set(seeds)
    custom = frozenset({"com", "zz", "xn--p1ai"})
    accepted = 0
    for value in sorted(values):
        assert value.isascii()
        for tlds in (DEFAULT_TLDS, custom):
            for check, frozen in (
                (is_valid_fqdn, frozen_is_valid_fqdn),
                (is_valid_url, frozen_is_valid_url),
                (is_valid_email, frozen_is_valid_email),
            ):
                expected = frozen(value, tlds)
                assert check(value, tlds) is expected, (check.__name__, value)
                accepted += expected
        assert is_valid_mac(value) is frozen_is_valid_mac(value), value
        assert validate(T.ONION_ADDRESS, value) is bool(_ONION_RE.match(value)), value
        assert validate(T.SSDEEP, value) is bool(_SSDEEP_RE.match(value)), value
        assert indicator_host(Indicator(T.URL, value)) == frozen_url_host(value), value
        assert normalize(T.URL, value) == frozen_normalize_url(value), value
    assert accepted > len(seeds)


def test_tld_check_holds_no_case_folded_letter():
    # The TLD check was compiled case-insensitively, under which [A-Za-z]
    # also matches the Kelvin sign (U+212A), and "\u212ay".lower() is the
    # snapshot's "ky". No expression matches that name, and now neither
    # does the check. validate() rejects it either way: it is not ASCII.
    assert frozen_is_valid_fqdn("evil.\u212ay") is True
    assert is_valid_fqdn("evil.\u212ay") is False
    assert is_valid_fqdn("evil.ky") is True
    assert validate(T.FQDN, "evil.\u212ay") is False


@pytest.mark.parametrize(
    "check, value",
    [
        (is_valid_ip4, "1.1.1.\u00b2"),
        (is_valid_ip4cidr, "1.1.1.1/\u00b2"),
        (is_valid_ip4cidr, "1.\u00b2.1.1/8"),
        (is_valid_asn, "AS\u00b2"),
    ],
)
def test_non_decimal_digit_rejected(check, value):
    # '\u00b2' (superscript two) is a digit to str.isdigit but not to int.
    assert check(value) is False


def test_other_scripts_decimal_digits_accepted_by_direct_calls():
    # int reads any decimal digit; validate() rejects non-ASCII first.
    assert is_valid_ip4("1.1.1.\u0668") is True
    assert is_valid_ip4cidr("1.1.1.1/\u0663\u0662") is True
    assert is_valid_asn("AS\u0661\u0662") is True
    assert validate(T.IP4, "1.1.1.\u0668") is False


# -- ip6 against ipaddress ------------------------------------------------------


def ipaddress_accepts(value):
    """The oracle of is_valid_ip6: what the standard library parses."""
    try:
        ipaddress.IPv6Address(value)
    except ValueError:
        return False
    return True


#: Groups, valid or not: up to five hex digits, either case, and another
#: script's digit.
_IP6_GROUPS = ("0", "1", "ab", "FfFf", "0000", "12345", "g", "٣", "１")
#: Dotted-quad tails: valid ones, and leading zeros, octets over 255, three
#: or five octets and another script's digit.
_IP6_QUADS = (
    "1.2.3.4", "0.0.0.0", "255.255.255.255", "01.2.3.4", "1.2.3.00", "256.1.1.1",
    "1.2.3", "1.2.3.4.5", "1.٣.3.4", "1.2.3.４", "1..3.4",
)
_IP6_SCOPES = ("", "%s", "%eth0", "%", "%a%b", "%1/2", "%\n", "%٣")


def _ip6_forms(groups, tail):
    """``groups`` joined by colons, and with ``::`` in every place; each
    with ``tail`` as the last part."""
    parts = [*groups, tail] if tail else list(groups)
    yield ":".join(parts)
    for i in range(len(parts) + 1):
        yield ":".join(parts[:i]) + "::" + ":".join(parts[i:])


def test_ip6_accepts_what_ipaddress_does_with_double_colon_anywhere(rng):
    # Up to nine groups, or fewer and a dotted quad, with ``::`` in every
    # place or none, under each scope; and each of those mutated.
    values = {
        form + scope
        for n in range(10)
        for tail in ("", *_IP6_QUADS)
        for form in _ip6_forms(["1a"] * n, tail)
        for scope in _IP6_SCOPES
    }
    values |= {_mutated(rng, value) for value in sorted(values) for _ in range(3)}
    accepted = 0
    for value in values:
        expected = ipaddress_accepts(value)
        assert is_valid_ip6(value) is expected, value
        accepted += expected
    assert 500 < accepted < len(values)


_ip6_parts = st.lists(st.sampled_from(_IP6_GROUPS) | st.text("0123456789abcdefABCDEF", max_size=5),
                      min_size=0, max_size=10)


@st.composite
def ip6_shaped(draw):
    """An IPv6-shaped value: 7, 8 or 9 groups or any count up to ten, an
    optional dotted-quad tail, ``::`` in any place or none, and a scope;
    then one to three characters replaced, inserted or deleted."""
    groups = draw(st.sampled_from([["1"] * 7, ["1"] * 8, ["1"] * 9]) | _ip6_parts)
    groups = [draw(st.sampled_from(_IP6_GROUPS)) if draw(st.booleans()) else g for g in groups]
    tail = draw(st.sampled_from(("",) + _IP6_QUADS))
    value = draw(st.sampled_from(list(_ip6_forms(groups, tail)))) + draw(st.sampled_from(_IP6_SCOPES))
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(value)))
        edit = draw(st.sampled_from("rid"))
        char = draw(st.sampled_from("0:.%/af9Fx ٣１"))
        if edit == "r":
            value = value[:pos] + char + value[pos + 1 :]
        elif edit == "i":
            value = value[:pos] + char + value[pos:]
        else:
            value = value[:pos] + value[pos + 1 :]
    return value


@settings(max_examples=500, deadline=None)
@given(value=ip6_shaped())
@example(value="1:2:3:4:5:6:7::8")
@example(value="1::2:3:4:5:6:7:8")
@example(value="::1:2:3:4:5:1.2.3.4")
@example(value="1::2:3:4:5:6:1.2.3.4")
@example(value="::ffff:1.2.3.4%eth0")
@example(value="fe80::1%1/2")
def test_ip6_accepts_what_ipaddress_does(value):
    assert is_valid_ip6(value) is ipaddress_accepts(value)
    assert validate(T.IP6, value) is (value.isascii() and ipaddress_accepts(value))


#: Characters a domain, URL or email drawn below is made of: every separator
#: of the three grammars, label characters, and characters none holds.
_ADDRESS_CHARS = "aZ09_-.:/?#@[]%xn" + "\t "
_address_parts = st.sampled_from(
    ("http://", "ftp://", "HTTP://", "u@", "u:p@", "[::1]", "1.2.3.4", "xn--p1ai", "Xn--", "com",
     "COM", "zz", ":80", ":99999", "/x", "?q", "#f", ".", "..", "a" * 63, "a" * 64, "-", "b-")
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_address_parts | st.text(_ADDRESS_CHARS, max_size=6), max_size=12).map("".join))
@example("a." * 126 + "com")
@example("a." * 125 + "aaa.com")
def test_fqdn_url_email_accept_what_the_frozen_spellings_do(value):
    for tlds in (DEFAULT_TLDS, frozenset({"com", "zz", "xn--p1ai"})):
        assert is_valid_fqdn(value, tlds) is frozen_is_valid_fqdn(value, tlds), value
        assert is_valid_url(value, tlds) is frozen_is_valid_url(value, tlds), value
        assert is_valid_email(value, tlds) is frozen_is_valid_email(value, tlds), value
