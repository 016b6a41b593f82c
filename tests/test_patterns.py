"""The built-in expressions: their spelling rules, checked against an
independent guard-first oracle, and the Python floor those rules need."""
import re
import sys
import tomllib
from pathlib import Path
from re import _compiler, _constants as sre, _parser

import pytest
from hypothesis import example, given, settings, strategies as st

from iockit.defang import DEFAULT_RULES
from iockit.patterns import _VARIANTS, ANCHORS, FOLD, RUN, RUN_BODIES, RUN_LENGTHS, default_entries
from iockit.types import IndicatorType

from conftest import PLAN_SHAPED_PIECES

T = IndicatorType

# -- oracle: the guard-first spellings -----------------------------------------
# Each expression written plainly, guard first, with no shared pieces: the
# reference for the spellings that differ from it (fqdn and email's
# possessive labels, macAddress's grouping, the hex and base58 classes,
# regkey's grouping, the asn and googleAdsense heads). The built-in
# spellings must find exactly the same matches.

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
        # ASCII check digits, which the run pass needs, as the expression has.
        T.IBAN: rf"{_HEX_GUARD_L}[A-Z]{{2}}[0-9]{{2}}[A-Z0-9]{{11,30}}{_HEX_GUARD_R}",
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
    pairs = []
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
    assert len(PAIRS) == 2 * len(T)
    # The oracle is spelled as what it checks everywhere but in the
    # expressions that share a piece or spell a class another way.
    same = {name for name, old, new in PAIRS if old.pattern == new.pattern}
    assert same == {
        f"{t.value}{variant}"
        for t in (T.IP4, T.IP4CIDR, T.IP6, T.URL, T.SSDEEP, T.CVE, T.ONION_ADDRESS, T.IBAN,
                  T.GOOGLE_ANALYTICS)
        for variant in ("", "/plain")
    }


def test_same_matches_on_planted_corpus(planted_corpus):
    for text in planted_corpus:
        _assert_same_matches(text)


_LABEL_CHARS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-"
#: Pieces on the edges of the built-in spellings: a first character and what
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
#: joins a scheme or adsense prefix to the wrong first letter, or takes one
#: letter less.
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
    PLAN_SHAPED_PIECES
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

def _starts_with_its_guard(expression):
    """True when the first element is a negative lookbehind."""
    op, av = _parser.parse(expression).data[0]
    return op is sre.ASSERT_NOT and av[0] == -1


def test_expressions_and_starts_begin_with_their_guard():
    # Guards first: only regkey, which has no guard, starts with what it
    # matches.
    for defanged in (True, False):
        for e in default_entries(defanged=defanged):
            assert _starts_with_its_guard(e.expression) == (e.type != T.REGKEY), (e.type, defanged)
        for t, anchor in ANCHORS[defanged].items():
            assert _starts_with_its_guard(anchor.start) == (t != T.REGKEY), (t, defanged)


def test_no_expression_can_match_empty():
    # Each type is one pass whose matches are apart, which an empty match
    # starting where a longer one does would break. The run pass reads a
    # folded copy of the text, so its expression is bytes.
    assert isinstance(RUN, bytes)
    assert _parser.parse(RUN).getwidth()[0] > 0
    for defanged in (True, False):
        for e in default_entries(defanged=defanged):
            assert _parser.parse(e.expression).getwidth()[0] > 0, (e.type, defanged)


def test_every_type_is_anchored_or_run():
    # The scan plan has two kinds of pass: each type, in both variants, has
    # an anchor or a run body, never both.
    for defanged in (True, False):
        assert not ANCHORS[defanged].keys() & RUN_BODIES.keys(), defanged
        assert ANCHORS[defanged].keys() | RUN_BODIES.keys() == set(T), defanged


def test_every_anchor_reach_is_the_longest_start():
    # ``start`` spans a match's start to its anchor, and the window before
    # an anchor is ``reach`` long: a shorter reach would lose matches.
    for defanged in (True, False):
        for t, anchor in ANCHORS[defanged].items():
            assert anchor.reach == _parser.parse(anchor.start).getwidth()[1], (t, defanged)


#: Types whose window start is found backwards: those whose windows are
#: long and whose start can hold at nearly every character of prose.
FOUND_BACKWARDS = {T.FQDN, T.EMAIL}
#: Characters a match holds before its anchor, for the types found backwards.
_RUN_CHARS = {T.FQDN: "a_-9", T.EMAIL: "a+.9"}
#: Each type's anchor as text, by variant.
_ANCHOR_FORMS = {
    defanged: {T.FQDN: [dot + "x" for dot in dots], T.EMAIL: list(ats)}
    for defanged, (dots, ats, _, _) in _VARIANTS.items()
}


def _backward_texts(t, defanged):
    """Texts for a type found backwards: every code point, between run
    characters and so just before a run, in blocks short enough to lie in
    one window; every defang form, alone, in runs and around an anchor; runs
    on both sides of the reach; and the hostile email inputs of the time
    budget."""
    forms, run = _ANCHOR_FORMS[defanged][t], _RUN_CHARS[t]
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    block = ANCHORS[defanged][t].reach // 3 - 1
    yield "".join(
        f"{run[0]}{(run[1] + run[2]).join(every[i : i + block])}{run[3]}{forms[i // block % len(forms)]} "
        for i in range(0, len(every), block)
    )
    rules = [rule.pattern for rule in DEFAULT_RULES]
    yield "".join(f"{a}{run}{b}{run}{form} " for a in rules for b in rules for form in forms)
    yield "".join(f"{a}{run[0] * n}{form}{b}" for a in rules + [" ", ""] for b in rules
                  for n in (1, 15, 16, 55, 56, 57, 62, 63, 64, 65) for form in forms)
    yield "".join(f"{a}{rule * n}{run[0]}{form} " for a in "(]) .a" for rule in rules
                  for n in (1, 63, 64, 65) for form in forms)
    yield ("[dot]a" * 53 + "@") * 8 + ("a[dot]" * 53 + "[at]") * 8


@pytest.mark.parametrize("defanged", [True, False])
@pytest.mark.parametrize("t", sorted(FOUND_BACKWARDS))
def test_backward_start_is_that_of_the_whole_window(t, defanged):
    # Moving the window's start up to the run found backwards leaves the
    # first start that ``start`` finds before each anchor where it was.
    anchor = ANCHORS[defanged][t]
    back, start = re.compile(anchor.back).match, re.compile(anchor.start)
    anchors = [re.compile(e) for _, e in anchor.expressions]
    checked = 0
    for text in _backward_texts(t, defanged):
        found = sorted(m.start() for e in anchors for m in e.finditer(text))
        checked += len(found)
        for previous, a in zip([0, *found], found):
            for s in {max(0, a - anchor.reach), max(previous, a - anchor.reach)}:
                expected = start.search(text, s, a)
                got = start.search(text, a - back(text[s:a][::-1]).end(), a)
                assert (got and got.start()) == (expected and expected.start()), (
                    t, defanged, text[max(0, a - anchor.reach - 5) : a + 5])
    assert checked > sys.maxunicode // anchor.reach * 3


def test_only_fqdn_and_email_are_found_backwards():
    for defanged in (True, False):
        assert {t for t, anchor in ANCHORS[defanged].items() if anchor.back} == FOUND_BACKWARDS


def test_every_anchor_and_the_run_pass_start_with_a_literal_or_class():
    # The engine skips ahead to a leading literal; a leading class or
    # alternation has it test every character against a set, and a leading
    # assertion enters the matcher at every position. So each anchor
    # expression starts with its own literal, and the run pass with the
    # fold of the character before a run and of the shortest run after it,
    # which the engine searches for as one literal prefix. The literal kept
    # beside each anchor expression, which gates its search, is that
    # leading literal: a text without it holds no match of the expression.
    every_form = _VARIANTS[True][0] + _VARIANTS[True][1]
    text = "".join(f" {form}1" for form in every_form)
    for defanged, (dots, ats, _, _) in _VARIANTS.items():
        for t, anchor in ANCHORS[defanged].items():
            firsts = []
            for literal, expression in anchor.expressions:
                op, first = _parser.parse(expression)[0]
                assert op is sre.LITERAL, (t, defanged, expression)
                assert literal == chr(first), (t, defanged, expression)
                firsts.append(first)
            assert len(set(firsts)) == len(firsts), (t, defanged)
        # Together the expressions find each dot or at form and nothing else.
        for t, forms in ((T.FQDN, dots), (T.IP4, dots), (T.EMAIL, ats)):
            found = sorted(
                m.start() for _, e in ANCHORS[defanged][t].expressions
                for m in re.finditer(e, text)
            )
            assert found == sorted(text.index(f" {form}1") + 1 for form in forms), (t, defanged)
    prefix = bytes(_compiler._get_literal_prefix(_parser.parse(RUN), 0)[0])
    shortest = min(r.start for r in RUN_LENGTHS.values())
    assert len(prefix) >= 1 + shortest
    assert prefix[: 1 + shortest] == b" ".translate(FOLD) + b"0".translate(FOLD) * shortest


def test_fold_marks_exactly_the_ascii_alphanumerics():
    # The run pass's fold maps the 62 characters of [A-Za-z0-9] to one byte
    # and every other byte to another, so a run of the folded text is a run
    # of [A-Za-z0-9] in the text.
    alnum = b"0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
    run_byte = FOLD[alnum[0]]
    assert len(FOLD) == 256
    assert bytes(i for i in range(256) if FOLD[i] == run_byte) == alnum
    assert len(set(FOLD)) == 2


def test_python_floor_supports_possessive_quantifiers():
    # The built-in labels and the HTML tokenizer use possessive quantifiers,
    # which Python 3.10's re rejects.
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    floor = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["requires-python"]
    match = re.fullmatch(r">=\s*(\d+)\.(\d+)", floor)
    assert match, floor
    assert (int(match[1]), int(match[2])) >= (3, 11)
