"""The built-in expressions: their spelling rules, checked against the
guard-first spellings they replaced, and the Python floor those rules need."""
import re
import sys
import tomllib
from pathlib import Path
from re import _constants as sre, _parser

from hypothesis import example, given, settings, strategies as st

from iockit.patterns import HEX_RUN, default_entries
from iockit.types import IndicatorType

from conftest import GATE_SHAPED_PIECES

T = IndicatorType

# -- oracle: the guard-first spellings -----------------------------------------
# Each expression as it was written before its guard moved after its first
# character. The current spellings must find exactly the same matches.

_DOT = r"(?:\.|\[\.\]|\(\.\)|\[dot\]|\(dot\))"
_AT = r"(?:@|\[at\]|\(at\)|_at_)"
_SCHEME = r"(?:h(?:tt|xx)ps?|ftps?)"
_SEP = r"(?::|\[:\])//"
_PLAIN_SCHEME = r"(?:https?|ftps?)"
_LABEL = r"[A-Za-z0-9_](?:[A-Za-z0-9_-]{0,61}[A-Za-z0-9_])?"
_TLD = r"(?:[A-Za-z]{2,63}|[Xx][Nn]--[A-Za-z0-9-]{1,59})"
_HEX_GUARD_L = r"(?<![A-Za-z0-9])"
_HEX_GUARD_R = r"(?![A-Za-z0-9])"
_B58 = r"[1-9A-HJ-NP-Za-km-z]"
_URL_PATH_CHAR = r"[\x00-\x08\x0e-\x1b!#-&(-;=?-_a-~\x7f]"
_REGKEY_HIVE = (
    r"(?:HKEY_(?:LOCAL_MACHINE|CURRENT_USER|CLASSES_ROOT|USERS|"
    r"CURRENT_CONFIG|PERFORMANCE_DATA)|HKLM|HKCU|HKCR|HKU|HKCC)"
)
_REGKEY_SEGMENT = r"[A-Za-z0-9_.\-{}()@~#$%^&+=!']{1,128}"

GUARD_FIRST_HEX_RUN = rf"{_HEX_GUARD_L}(?:0x)?[0-9a-fA-F]{{32,128}}{_HEX_GUARD_R}"


def guard_first_sources(dot, at, scheme, sep):
    domain_body = rf"(?:{_LABEL}{dot}){{1,126}}{_TLD}"
    local = rf"(?:[A-Za-z0-9!#$%&'*+/=?^_`{{|}}~\-]|{dot}){{1,64}}"
    host = rf"(?:[A-Za-z0-9_\-]{{1,63}}(?:{dot}[A-Za-z0-9_\-]{{1,63}}){{0,126}}|\[[0-9A-Fa-f:.]{{2,45}}\])"
    return {
        T.IP4: rf"(?<![\w.\])])\d{{1,3}}(?:{dot}\d{{1,3}}){{3}}(?!\w)(?!{dot}\d)",
        T.IP4CIDR: r"(?<![\w.\])])\d{1,3}(?:\.\d{1,3}){3}/\d{1,2}(?!\w)",
        T.IP6: (
            r"(?<![\w:.])(?:[0-9A-Fa-f]{0,4}:){2,7}"
            r"(?:[0-9A-Fa-f]{1,4}|(?:\d{1,3}\.){3}\d{1,3})?(?![\w:])(?!\.\d)"
        ),
        T.FQDN: rf"(?<![\w.\-\])]){domain_body}(?!\w)",
        T.URL: rf"(?<![\w.\-@]){scheme}{sep}{host}(?::\d{{1,5}})?(?:[/?#]{_URL_PATH_CHAR}*)?",
        T.EMAIL: rf"(?<![A-Za-z0-9!#$%&'*+/=?^_`{{|}}~.\-]){local}{at}{domain_body}(?!\w)",
        T.MD5: rf"{_HEX_GUARD_L}[0-9a-fA-F]{{32}}{_HEX_GUARD_R}",
        T.SHA1: rf"{_HEX_GUARD_L}[0-9a-fA-F]{{40}}{_HEX_GUARD_R}",
        T.SHA256: rf"{_HEX_GUARD_L}[0-9a-fA-F]{{64}}{_HEX_GUARD_R}",
        T.SHA512: rf"{_HEX_GUARD_L}[0-9a-fA-F]{{128}}{_HEX_GUARD_R}",
        T.SSDEEP: (
            r"(?<![A-Za-z0-9:/+])\d{1,18}:[A-Za-z0-9/+]{6,}:[A-Za-z0-9/+]{6,}"
            r"(?![A-Za-z0-9:/+])"
        ),
        T.CVE: r"(?<![\w-])(?i:CVE)-\d{4}-\d{4,7}(?![\w-])",
        T.ASN: r"(?<![\w-])(?i:ASN?)\d{1,10}(?![\w-])",
        T.BITCOIN: rf"{_HEX_GUARD_L}[13]{_B58}{{25,34}}{_HEX_GUARD_R}",
        T.ETHEREUM: rf"{_HEX_GUARD_L}0x[0-9a-fA-F]{{40}}{_HEX_GUARD_R}",
        T.MONERO: rf"{_HEX_GUARD_L}[48]{_B58}{{94}}{_HEX_GUARD_R}",
        T.ONION_ADDRESS: (
            r"(?<![A-Za-z0-9.\-])[a-z2-7]{16}(?:[a-z2-7]{40})?\.onion(?![A-Za-z0-9\-])"
        ),
        T.IBAN: rf"{_HEX_GUARD_L}[A-Z]{{2}}\d{{2}}[A-Z0-9]{{11,30}}{_HEX_GUARD_R}",
        T.MAC_ADDRESS: (
            r"(?<![A-Za-z0-9:])(?:[0-9A-Fa-f]{2}[:-]){5}[0-9A-Fa-f]{2}(?![A-Za-z0-9:-])"
        ),
        T.REGKEY: rf"(?i:{_REGKEY_HIVE})(?:\\{_REGKEY_SEGMENT}){{1,64}}",
        T.GOOGLE_ADSENSE: r"(?<![\w-])(?i:(?:ca-)?pub-)\d{16}(?![\w-])",
        T.GOOGLE_ANALYTICS: r"(?<![\w-])(?i:UA)-\d{4,10}(?:-\d{1,4})?(?![\w-])",
    }


def _pairs():
    """(name, guard-first expression, current expression), both variants."""
    oracle = {
        True: guard_first_sources(_DOT, _AT, _SCHEME, _SEP),
        False: guard_first_sources(r"\.", "@", _PLAIN_SCHEME, "://"),
    }
    pairs = [("HEX_RUN", GUARD_FIRST_HEX_RUN, HEX_RUN)]
    for defanged, old in oracle.items():
        for entry in default_entries(defanged=defanged):
            name = f"{entry.type.value}{'' if defanged else '/plain'}"
            pairs.append((name, old[entry.type], entry.expression))
    return [(name, re.compile(old), re.compile(new)) for name, old, new in pairs]


PAIRS = _pairs()


def _assert_same_matches(text):
    for name, old, new in PAIRS:
        expected = [(m.start(), m.group()) for m in old.finditer(text)]
        assert [(m.start(), m.group()) for m in new.finditer(text)] == expected, name


def test_oracle_covers_every_type_in_both_variants():
    assert len(PAIRS) == 1 + 2 * len(T)
    # The oracle differs from what it checks everywhere but in the
    # expressions whose guard stays first.
    same = {name for name, old, new in PAIRS if old.pattern == new.pattern}
    assert same == {"onionAddress", "onionAddress/plain"}


def test_same_matches_on_planted_corpus(planted_corpus):
    for text in planted_corpus:
        _assert_same_matches(text)


_LABEL_CHARS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-"
#: Pieces on the edges of the new spellings: a first character and what
#: stands before it, digit runs beside dot forms, labels at the 63-char
#: limit, scheme and adsense prefixes, and the code points IGNORECASE
#: equates with s and k.
_EDGE_PIECES = (
    ".", "[.]", "(.)", "[dot]", "(dot)", "[", "(", "]", ")", "_at_", "@",
    "ca-pub-", "CA-PUB-", "pub-", "ca-", "AS", "as", "asn", "ASN", "Asn",
    "UA-", "ua-", "CVE-", "cVe-", "http", "https", "hxxp", "ftp", "ftps",
    "f", "h", "://", "[:]//", "::", ":", "0x", "0X", "HKEY_USERS\\x", "hkcc\\y",
    "htps", "fttp", "fxxps", "cub-", "pa-pub-", "x", "1x",
    "\u017f", "\u212a", "\n", "\t", " ", "-", "_", "٣",
    "1.2.3.4", "10.0.0.1/24", "AS15169", "GB82WEST12345698765432",
    "1BoatSLRHtKNngkdXEeobR76b53LETtpyT", "http://a.io/x", "ftp[:]//b[.]io",
    "fe80::1:2", "::ffff:1.2.3.4", "0a:1b:2c:3d:4e:5f", "1536:abcdef:ghijkl",
)
#: Values one letter off a match: each is a match under a spelling that
#: drops one of the first letter's lookbehinds, or takes one letter less.
_NEAR_MISSES = (
    "htps://a.io", "fttp://b.io", "fxxp[:]//c[.]io", "cub-1234567890123456",
    "pa-pub-1234567890123456", "1x" + "a" * 32, "G82WEST12345698765432",
)
_digit_runs = st.text("0123456789", min_size=1, max_size=4)
_labels = st.sampled_from((1, 62, 63, 64)).flatmap(
    lambda n: st.text(_LABEL_CHARS, min_size=n, max_size=n)
)
_labels_ending_in_dash = st.text(_LABEL_CHARS, min_size=1, max_size=63).map(lambda s: s + "-")
spelling_shaped = st.lists(
    GATE_SHAPED_PIECES
    | st.sampled_from(_EDGE_PIECES)
    | st.sampled_from(_NEAR_MISSES)
    | _digit_runs
    | _labels
    | _labels_ending_in_dash,
    max_size=30,
).map("".join)


@settings(max_examples=400, deadline=None)
@given(text=spelling_shaped)
@example(text="AS15169 at offset 0")
@example(text="1.2.3.4")
@example(text="1[.]22(.)333[dot]4444.5")
@example(text="ca-pub-1234567890123456 pub-1234567890123456")
@example(text="hxxps[:]//a[.]io ftp://b.io")
@example(text="d41d8cd98f00b204e9800998ecf8427e")
@example(text="0x" + "a" * 40)
@example(text="::1 a::b")
@example(text="(" + "a" * 63 + ".com [" + "b" * 64 + ".com " + "c" * 62 + "-.com")
@example(text="\u017fn1 A\u212a1 \u212aey")
@example(text=" ".join(_NEAR_MISSES))
def test_same_matches_on_spelling_shaped_text(text):
    _assert_same_matches(text)


# -- structure ---------------------------------------------------------------

#: Types whose guard stays first: their first class holds most of prose.
GUARD_FIRST = {T.FQDN, T.EMAIL, T.ONION_ADDRESS}


def _starts_with_a_charset(expression):
    """True when the first element is one the engine tests start positions
    against: a character class, a literal, or an alternation of literals."""
    op, av = _parser.parse(expression).data[0]
    if op is sre.BRANCH:
        return all(alt.data and alt.data[0][0] is sre.LITERAL for alt in av[1])
    return op in (sre.IN, sre.LITERAL)


def test_expressions_start_with_a_character_class():
    assert _starts_with_a_charset(HEX_RUN)
    for defanged in (True, False):
        entries = default_entries(defanged=defanged)
        others = {e.type for e in entries if not _starts_with_a_charset(e.expression)}
        assert others == GUARD_FIRST, defanged


def test_no_expression_can_match_empty():
    # Each type is one pass whose matches are apart, which an empty match
    # starting where a longer one does would break.
    assert _parser.parse(HEX_RUN).getwidth()[0] > 0
    for defanged in (True, False):
        for e in default_entries(defanged=defanged):
            assert _parser.parse(e.expression).getwidth()[0] > 0, (e.type, defanged)


#: Each first-letter class and the case-insensitive letters it replaced.
_LETTER_CLASSES = {
    "[Aa]": "(?i:a)",
    "[Cc]": "(?i:c)",
    "[CcPp]": "(?i:[cp])",
    "[Hh]": "(?i:h)",
    "[Uu]": "(?i:u)",
}


def test_first_letter_classes_accept_what_ignorecase_did():
    firsts = {e.expression[: e.expression.find("]") + 1] for e in default_entries()}
    assert firsts >= set(_LETTER_CLASSES)
    every_code_point = "".join(map(chr, range(sys.maxunicode + 1)))
    for letter_class, ignorecase in _LETTER_CLASSES.items():
        assert set(re.findall(letter_class, every_code_point)) == set(
            re.findall(ignorecase, every_code_point)
        ), letter_class


def test_python_floor_supports_possessive_quantifiers():
    # The built-in labels and the HTML tokenizer use possessive quantifiers,
    # which Python 3.10's re rejects.
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    floor = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["requires-python"]
    match = re.fullmatch(r">=\s*(\d+)\.(\d+)", floor)
    assert match, floor
    assert (int(match[1]), int(match[2])) >= (3, 11)
