import random

import pytest

from iockit.types import IndicatorType
from iockit.validators import (
    _IBAN_SHAPE,
    _bban_pattern,
    DEFAULT_TLDS,
    IBAN_LENGTHS,
    base58check_decode,
    is_valid_bitcoin,
    is_valid_fqdn,
    is_valid_iban,
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
    assert IBAN_LENGTHS["GB"] == 22
    assert all(15 <= n <= 34 for n in IBAN_LENGTHS.values())


def test_default_tlds_loaded():
    assert "com" in DEFAULT_TLDS and "onion" not in DEFAULT_TLDS
    assert len(DEFAULT_TLDS) > 500
