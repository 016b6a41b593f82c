"""Shared fixtures: independent checksum oracles and armed-value generators.

The oracles here are deliberately written against the algorithms, not the
package code: the base58check ENCODER mirrors the package's DECODER, and the
mod-97 check runs digit-by-digit instead of through one big integer. Expected
values asserted in the tests are produced by these, never by the code under
test.
"""
from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import strategies as st

from iockit.defang import defang
from iockit.types import IndicatorType

T = IndicatorType

B58_ALPHABET = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"
BASE64_CHARS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789/+"
HEX = "0123456789abcdef"

#: TLDs guaranteed present in the shipped snapshot.
KNOWN_TLDS = (
    "com", "net", "org", "info", "biz", "io", "co", "uk", "de", "fr",
    "jp", "br", "ru", "in", "cn", "es", "it", "nl", "se", "xyz",
)

WORDS = (
    "report", "observed", "campaign", "actor", "dropper", "payload",
    "beacon", "infra", "sample", "telemetry", "pivot", "sinkhole",
    "staging", "loader", "persistence", "sighting", "cluster", "victim",
    "registrar", "takedown", "phishing", "lure", "implant", "exfil",
)


def sha256d(data: bytes) -> bytes:
    return hashlib.sha256(hashlib.sha256(data).digest()).digest()


def b58check_encode(payload: bytes) -> str:
    """Independent base58check encoder (payload includes the version byte)."""
    data = payload + sha256d(payload)[:4]
    n = int.from_bytes(data, "big")
    digits = ""
    while n:
        n, r = divmod(n, 58)
        digits = B58_ALPHABET[r] + digits
    pad = len(data) - len(data.lstrip(b"\x00"))
    return "1" * pad + digits


def mod97_stream(text: str) -> int:
    """ISO 13616 remainder computed digit-by-digit (A=10 .. Z=35)."""
    remainder = 0
    for ch in text:
        expanded = ch if ch.isdigit() else str(ord(ch.upper()) - 55)
        for digit in expanded:
            remainder = (remainder * 10 + int(digit)) % 97
    return remainder


# Country -> BBAN segments; kept local to the tests on purpose.
IBAN_TEST_STRUCTURES = {
    "GB": ((4, "a"), (14, "n")),
    "DE": ((18, "n"),),
    "FR": ((10, "n"), (11, "c"), (2, "n")),
    "ES": ((20, "n"),),
    "NL": ((4, "a"), (10, "n")),
    "BE": ((12, "n"),),
}
_SEGMENT_ALPHABETS = {
    "n": "0123456789",
    "a": "ABCDEFGHIJKLMNOPQRSTUVWXYZ",
    "c": "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789",
}


def make_iban(rng: random.Random, country: str | None = None) -> str:
    country = country or rng.choice(list(IBAN_TEST_STRUCTURES))
    bban = "".join(
        rng.choice(_SEGMENT_ALPHABETS[kind])
        for count, kind in IBAN_TEST_STRUCTURES[country]
        for _ in range(count)
    )
    check = 98 - mod97_stream(bban + country + "00")
    return f"{country}{check:02d}{bban}"


class ValueForge:
    """Generates random armed values that the extractor should accept."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def _label(self, min_len=2, max_len=10) -> str:
        rng = self.rng
        n = rng.randint(min_len, max_len)
        chars = "abcdefghijklmnopqrstuvwxyz0123456789"
        body = "".join(rng.choice(chars) for _ in range(n))
        return rng.choice("abcdefghijklmnopqrstuvwxyz") + body[1:]

    def fqdn(self) -> str:
        labels = [self._label() for _ in range(self.rng.randint(1, 3))]
        return ".".join(labels + [self.rng.choice(KNOWN_TLDS)])

    def ip4(self) -> str:
        return ".".join(str(self.rng.randint(0, 255)) for _ in range(4))

    def ip4cidr(self) -> str:
        return f"{self.ip4()}/{self.rng.randint(0, 32)}"

    def ip6(self) -> str:
        import ipaddress

        return ipaddress.IPv6Address(self.rng.getrandbits(128)).compressed

    def url(self, scheme: str | None = None) -> str:
        rng = self.rng
        scheme = scheme or rng.choice(("http", "https"))
        port = f":{rng.randint(1, 65535)}" if rng.random() < 0.2 else ""
        segments = "/".join(self._label(2, 8) for _ in range(rng.randint(0, 3)))
        path = f"/{segments}" if segments else ""
        if rng.random() < 0.3:
            path += f"?{self._label(1, 4)}={self._label(1, 6)}"
        return f"{scheme}://{self.fqdn()}{port}{path}"

    def email(self) -> str:
        rng = self.rng
        local = self._label(1, 8)
        if rng.random() < 0.4:
            local += "." + self._label(1, 6)
        return f"{local}@{self.fqdn()}"

    def _hex(self, n: int) -> str:
        return "".join(self.rng.choice(HEX) for _ in range(n))

    def md5(self) -> str:
        return self._hex(32)

    def sha1(self) -> str:
        return self._hex(40)

    def sha256(self) -> str:
        return self._hex(64)

    def sha512(self) -> str:
        return self._hex(128)

    def ssdeep(self) -> str:
        rng = self.rng
        blocksize = 3 * (2 ** rng.randint(0, 12))
        chunk1 = "".join(rng.choice(BASE64_CHARS) for _ in range(rng.randint(12, 40)))
        chunk2 = "".join(rng.choice(BASE64_CHARS) for _ in range(rng.randint(6, 20)))
        return f"{blocksize}:{chunk1}:{chunk2}"

    def cve(self) -> str:
        return f"CVE-{self.rng.randint(1999, 2026)}-{self.rng.randint(1000, 9999999)}"

    def asn(self) -> str:
        return f"AS{self.rng.randint(1, 4294967295)}"

    def bitcoin(self) -> str:
        version = self.rng.choice((0x00, 0x05))
        body = bytes(self.rng.getrandbits(8) for _ in range(20))
        return b58check_encode(bytes([version]) + body)

    def ethereum(self) -> str:
        return "0x" + self._hex(40)

    def monero(self) -> str:
        return "4" + "".join(self.rng.choice(B58_ALPHABET) for _ in range(94))

    def onionAddress(self) -> str:
        n = self.rng.choice((16, 56))
        return "".join(self.rng.choice("abcdefghijklmnopqrstuvwxyz234567") for _ in range(n)) + ".onion"

    def iban(self) -> str:
        return make_iban(self.rng)

    def macAddress(self) -> str:
        sep = self.rng.choice(":-")
        return sep.join(self._hex(2).upper() for _ in range(6))

    def regkey(self) -> str:
        rng = self.rng
        hive = rng.choice(("HKLM", "HKCU", "HKEY_LOCAL_MACHINE", "HKEY_CURRENT_USER"))
        parts = rng.sample(
            ("Software", "Microsoft", "Windows", "CurrentVersion", "Run",
             "Services", "Parameters", "Winlogon", "Policies", "Explorer"),
            rng.randint(2, 4),
        )
        return hive + "\\" + "\\".join(parts)

    def googleAdsense(self) -> str:
        prefix = "ca-pub-" if self.rng.random() < 0.5 else "pub-"
        return prefix + "".join(self.rng.choice("0123456789") for _ in range(16))

    def googleAnalytics(self) -> str:
        tail = f"-{self.rng.randint(1, 99)}" if self.rng.random() < 0.7 else ""
        return f"UA-{self.rng.randint(1000, 9999999)}{tail}"

    def value(self, ind_type: IndicatorType) -> str:
        return getattr(self, ind_type.value)()


#: Defang rules each type's generator output always carries material for.
PLANT_RULES = {
    T.IP4: ("bracket_dot", "paren_dot", "bracket_dot_word", "paren_dot_word"),
    T.FQDN: ("bracket_dot", "paren_dot", "bracket_dot_word", "paren_dot_word"),
    T.EMAIL: (
        "bracket_dot", "paren_dot", "bracket_dot_word", "paren_dot_word",
        "at_brackets", "at_parens", "at_underscores",
    ),
    T.URL: ("bracket_dot", "paren_dot", "bracket_colon_slashes"),
}


def plant_text(rng: random.Random, planted: list[tuple[IndicatorType, str]]) -> str:
    """Interleave armed/defanged indicator strings with filler prose."""
    pieces = []
    for ind_type, rendered in planted:
        pieces.extend(rng.choices(WORDS, k=rng.randint(1, 4)))
        pieces.append(rendered)
    pieces.extend(rng.choices(WORDS, k=2))
    return " ".join(pieces)


def render(rng: random.Random, ind_type: IndicatorType, value: str) -> str:
    """Sometimes defang a plantable value; returns what goes into the text."""
    rules = PLANT_RULES.get(ind_type)
    if rules and rng.random() < 0.4:
        chosen = [rng.choice(rules)]
        return defang(value, ind_type, chosen)
    return value


def brute_force_vote(profiles, outputs, docs):
    """Independent majority-vote reimplementation: walks every
    (doc, indicator, tool) triple with plain loops.

    Returns ({(tool, type): [tp, fp, fn, tn]}, {type: positives}).
    """
    produced = {}
    for out in outputs:
        produced[(out.tool, out.doc_id)] = set() if out.error else set(out.indicators)
    tallies: dict = {}
    positives: dict = {}

    def tally(tool, ind_type, slot):
        cell = tallies.setdefault((tool, ind_type), [0, 0, 0, 0])
        cell[slot] += 1

    for doc in docs:
        universe = set()
        for p in profiles:
            universe |= produced.get((p.name, doc), set())
        for indicator in universe:
            found, missed = [], []
            for p in profiles:
                if indicator in produced.get((p.name, doc), set()):
                    found.append(p.name)
                elif indicator.type in p.supported_types:
                    missed.append(p.name)
            if len(found) > len(missed):
                positives[indicator.type] = positives.get(indicator.type, 0) + 1
                for name in found:
                    tally(name, indicator.type, 0)
                for name in missed:
                    tally(name, indicator.type, 2)
            elif len(missed) > len(found):
                for name in found:
                    tally(name, indicator.type, 1)
                for name in missed:
                    tally(name, indicator.type, 3)
    return tallies, positives


def random_vote_instance(rng: random.Random):
    """A random small comparison: <=8 tools (as many as the paper compares),
    <=10 docs, <=20 indicators/doc, random supported-type sets, occasional
    crashes and off-profile reports."""
    from iockit.harness import ToolOutput, ToolProfile
    from iockit.types import Indicator

    type_pool = [T.IP4, T.FQDN, T.MD5, T.URL, T.ASN, T.EMAIL]
    profiles = [
        ToolProfile(
            f"t{i}",
            frozenset(rng.sample(type_pool, rng.randint(1, len(type_pool)))),
        )
        for i in range(rng.randint(1, 8))
    ]
    docs = [f"d{i}" for i in range(rng.randint(1, 10))]
    outputs = []
    for doc in docs:
        pool = [
            Indicator(rng.choice(type_pool), f"v{rng.randint(0, 30)}")
            for _ in range(rng.randint(0, 20))
        ]
        for p in profiles:
            if rng.random() < 0.1:
                continue  # no record: the tool found nothing here
            if rng.random() < 0.05:
                outputs.append(ToolOutput(p.name, doc, frozenset(), error=True))
                continue
            chosen = {
                i
                for i in pool
                if (i.type in p.supported_types or rng.random() < 0.05)
                and rng.random() < 0.6
            }
            outputs.append(ToolOutput(p.name, doc, frozenset(chosen)))
    return profiles, outputs, docs


@pytest.fixture(scope="session")
def planted_corpus():
    """200 documents of planted values, some defanged, covering every type."""
    rng = random.Random(0x5CA9)
    forge = ValueForge(rng)
    types = list(T)
    docs = []
    for i in range(200):
        wanted = types[(3 * i) % len(types):][:3] + rng.choices(types, k=rng.randint(2, 6))
        docs.append(plant_text(rng, [(t, render(rng, t, forge.value(t))) for t in wanted]))
    return docs


_HEX_DIGITS = "0123456789abcdefABCDEF"
_ALNUM = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
#: Anchor literals and their near misses, the code points IGNORECASE equates
#: with k and s, other digits, a dotted capital I (two characters when
#: lowered) and a full-width stop; overlapping at-forms, and runs as long as
#: an anchor's reach.
_ANCHOR_PIECES = (
    ":", "/", "@", "-", "_at_", "[at]", "(at)", "0x", "HK", "hk", ".", ",",
    "CVE-", "UA-", "pub-", "ca-pub-", "\u212a", "\u017f", "\u0130", "\u0663", "\u3002",
    " ", "\\", "LM", "http", "onion", ".onion", "//", "[:]//",
    "[.]", "(.)", "[dot]", "(dot)", "_at_at_", "x.y", "a" * 63, "a" * 64, "[dot]" * 64,
)
#: One whole value of each anchored type, and of the run types with bodies
#: other than hex.
_ANCHORED_VALUES = (
    "CVE-2021-44228", "cve-2021-4422", "UA-4422107-1", "pub-1234567890123456",
    "HKLM\\Run", "H\u212aCU\\Run", "0A:1b:2C:3d:4E:5f", "0a-1b-2c-3d-4e-5f",
    "10.0.0.0/8", "fe80::1", "3072:AXGBicFlgVNh:AXGHsN", "ops@crew.net",
    "ops[at]crew(.)net", "hxxp[:]//bad[.]io/x", "expyuzz4wqqyqhjn.onion",
    "1.2.3.4", "9[.]9[.]9[.]9", "GB82WEST12345698765432", "1BoatSLRHtKNngkdXEeobR76b53LETtpyT",
)
#: Hex runs around each hex type's length, and alphanumeric runs around the
#: run pass's shortest and longest.
_hex_runs = st.sampled_from((16, 31, 32, 33, 40, 41, 64, 128, 129)).flatmap(
    lambda n: st.text(_HEX_DIGITS, min_size=n, max_size=n)
)
_alnum_runs = st.sampled_from((14, 15, 34, 35, 128, 129)).flatmap(
    lambda n: st.text(_ALNUM, min_size=n, max_size=n)
)
#: Non-ASCII neighbours of a run, each one character of the text: letters
#: and digits that Unicode classes take, the code points IGNORECASE equates
#: with ASCII letters, both ends of the Latin-1 range, a lone surrogate and
#: an astral character. Together they make str of all three widths.
NON_ASCII_NEIGHBOURS = (
    "\u00e9", "\u0663", "\uff12", "\u0130", "\u017f", "\u212a", "\u0080", "\u00ff",
    "\udc80", "\U0001f600",
)
#: Pieces of text shaped to probe the scan plan: anchor literals and near
#: misses, anchored values, hex and alphanumeric runs, and the non-ASCII
#: neighbours.
PLAN_SHAPED_PIECES = (
    st.sampled_from(_ANCHOR_PIECES)
    | st.sampled_from(NON_ASCII_NEIGHBOURS)
    | st.sampled_from(_ANCHORED_VALUES)
    | st.text(_HEX_DIGITS, max_size=6)
    | _hex_runs
    | _alnum_runs
)
plan_shaped = st.lists(PLAN_SHAPED_PIECES, max_size=30).map("".join)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture
def forge(rng) -> ValueForge:
    return ValueForge(rng)
