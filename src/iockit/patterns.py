"""Default regex catalog, one defang-broadened expression per indicator type.

Each shape is spelled once, here: ``validators`` builds its checks on
``HEX``, ``LABEL``, ``TLD``, ``B58_ALPHABET``, ``ONION_NAME``,
``SSDEEP_CHAR`` and ``RUN_BODIES``. URL syntax is ``normalize``'s.

Every expression follows the same discipline so matching stays linear on
adversarial input under a backtracking engine:

* repetition is always bounded (labels <= 63 chars, <= 126 labels, ...);
* a cheap negative lookbehind on the character before a match guards its
  start, so interior positions of a long token fail in O(1);
* alternations never overlap with their following element;
* the first element is a character class or a literal, and the guard
  comes after it: ``C(?<!G.)R`` for ``(?<!G)CR``,
  which is the same because ``C`` never matches a newline. The engine then
  tests each start position against ``C`` in C code instead of entering
  the matcher there, which it cannot do for an expression that starts with
  a lookbehind. A ``(?i:...)`` first letter is spelled as a class
  (``[Aa]``), as the engine does not take a case-insensitive prefix.
  fqdn, email and onionAddress keep their guard first: their first class
  holds nearly every character of prose (``[a-z2-7]`` most of it), so the
  test would skip almost nothing and cost more than it saves. The DNS
  labels of fqdn and email are possessive instead; no dot form starts
  with a label character, so a label is always a maximal run and giving
  characters back never leads to a match.

Nested unbounded quantifiers and lookbehind-heavy forms are avoided; the
test suite enforces a time budget on adversarial inputs for every entry.
The URL backslash obfuscation is deliberately unsupported. The dot and at
forms are those of ``defang.DEFAULT_RULES``, the table that also rearms
matches; the URL scheme and separator forms are written out here, as they
combine with each other (``hxxps[:]//``).

The extractor builds its scan plan from the tables below, keyed by type
(``ANCHORS`` by variant first). Each type is one of two kinds of pass,
and every kind finds exactly the matches of one ``finditer`` per type:

* anchored (``ANCHORS``): a type whose every match holds a literal (its
  anchor) that begins at most ``reach`` characters after the match starts
  is tried only near its anchors: an at-form after an email's local part,
  a dot form after an fqdn's first label or an ip4's first number, the
  ``-`` before the digits of cve, googleAnalytics and googleAdsense, the
  S of an asn's ``AS`` or ``ASN``, the first ``\\`` of a regkey,
  ``.onion``, the ``/`` of an ip4cidr, the ``//`` of a url, the first
  colon of an ssdeep, the first separator of a macAddress and the second
  colon of an ip6. An anchor expression accepts at least what its type's
  expression accepts there, with the same Unicode classes (``\\d``, and
  U+017F for ``(?i:s)``), and is searched in the text itself: a lowered
  copy can differ in length (``'İ'.lower()`` is two characters). A type
  has one anchor expression per first character of its forms, which starts
  with that literal, consumes only it and looks ahead for the rest of each
  form that starts with it (``\\[(?=\\.\\]X|dot\\]X)``), so the ``finditer``
  passes together report every anchor, overlapping ones too (``_at_at_``),
  and none twice; the extractor walks them in text order. ``re`` skips
  ahead to a leading literal in C, where a leading alternation or class
  would have it test every character.
  For each anchor after the last match, the extractor tries the expression
  at the positions in the ``reach`` before it that no earlier window tried
  and where ``start`` holds: the guard, then only what a match can hold
  before the anchor, so most windows try one position. Every ``start`` is
  bounded, and ``reach`` is its longest match. The first hit is
  the match ``finditer`` would return, since a match starting earlier
  would hold an earlier anchor. Windows never overlap, so the scan stays
  linear however dense the anchors are.
* run (``RUN_BODIES``): each match of md5, sha1, sha256, sha512, ethereum,
  bitcoin, monero and iban is one maximal run of ``[A-Za-z0-9]`` that the
  type's body fullmatches. One ``RUN`` pass finds the runs, and each goes
  to every run type held whose body it fullmatches: a run can be both md5
  and bitcoin, or both md5 and iban. ``RUN`` starts with the class of the
  character before a run, where a leading guard would enter the matcher
  at every position; ``RUN_AT_START`` finds a run that starts the text.
"""
from __future__ import annotations

import re
from typing import NamedTuple

from .defang import DEFAULT_RULES
from .types import IndicatorType

_T = IndicatorType


def _forms(armed: str) -> tuple[str, ...]:
    """``armed``, then each defang rule pattern that rearms to it, in table order."""
    return (armed, *(rule.pattern for rule in DEFAULT_RULES if rule.replacement == armed))


# Armed-or-defanged separators, as literal forms. The plain variants are
# used when defang support is disabled. The table's dot forms must not start
# with a label character nor hold an at-form's first character (see the
# possessive labels and ``_anchors``).
_DOTS = _forms(".")
_PLAIN_DOTS = _DOTS[:1]
_ATS = _forms("@")
_PLAIN_ATS = _ATS[:1]
# A scheme after its first letter, which the URL expression matches as [hf],
# and the forms of the colon between a scheme and its ``//``.
_SCHEME = r"(?:(?<=h)(?:tt|xx)ps?|(?<=f)tps?)"
_PLAIN_SCHEME = r"(?:(?<=h)ttps?|(?<=f)tps?)"
_COLONS = (":", "[:]")
_PLAIN_COLONS = _COLONS[:1]

_LABEL_START = "[A-Za-z0-9_]"
_LABEL_CHAR = "[A-Za-z0-9_-]"
LABEL = rf"{_LABEL_START}{_LABEL_CHAR}{{0,62}}+(?<!-)"
#: What may not precede a match: the guards of fqdn and email.
_FQDN_GUARD = r"[\w.\-\])]"
_EMAIL_GUARD = r"[A-Za-z0-9!#$%&'*+/=?^_`{|}~.\-]"
_LOCAL_CHAR = r"[A-Za-z0-9!#$%&'*+/=?^_`{|}~\-]"
#: Most units (characters or dot forms) in an email local part.
_LOCAL_UNITS = 64
TLD = r"(?:[A-Za-z]{2,63}|[Xx][Nn]--[A-Za-z0-9-]{1,59})"
HEX = "[0-9A-Fa-f]"
# An alphanumeric run's left guard, placed after its first character.
_RUN_GUARD_L = r"(?<![A-Za-z0-9].)"
_RUN_GUARD_R = r"(?![A-Za-z0-9])"
#: The base58 digits in value order.
B58_ALPHABET = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"
_B58 = f"[{B58_ALPHABET}]"
# A URL path character: ASCII, but not whitespace or any of <>"'`. Spelled
# as ranges, as a negated class excluding \x80-\U0010ffff takes ten times
# longer to compile and matches slower.
_URL_PATH_CHAR = r"[\x00-\x08\x0e-\x1b!#-&(-;=?-_a-~\x7f]"

# What the expressions of the anchored types match before their anchors.
_IP4_HEAD = r"\d(?<![\w.\])].)\d{0,2}"
_IP4CIDR_HEAD = rf"{_IP4_HEAD}(?:\.\d{{1,3}}){{3}}"
_SSDEEP_HEAD = r"\d(?<![A-Za-z0-9:/+].)\d{0,17}"
SSDEEP_CHAR = "[A-Za-z0-9/+]"
_CVE_HEAD = r"[Cc](?<![\w-].)(?i:VE)"
_ANALYTICS_HEAD = r"[Uu](?<![\w-].)(?i:A)"
ONION_NAME = "[a-z2-7]{16}(?:[a-z2-7]{40})?"
_ONION_HEAD = rf"(?<![A-Za-z0-9.\-]){ONION_NAME}"
_MAC_HEAD = rf"{HEX}(?<![A-Za-z0-9:].){HEX}"
_REGKEY_HIVE = (
    r"[Hh](?i:KEY_(?:LOCAL_MACHINE|CURRENT_USER|CLASSES_ROOT|USERS|"
    r"CURRENT_CONFIG|PERFORMANCE_DATA)|KLM|KCU|KCR|KU|KCC)"
)
_REGKEY_CHAR = r"[A-Za-z0-9_.\-{}()@~#$%^&+=!']"

#: The body of each run type, as (class, fewest, most) pieces: each match
#: of the type's expression is a maximal run of [A-Za-z0-9] that is the
#: pieces in order.
_RUN_PIECES: dict[IndicatorType, tuple[tuple[str, int, int], ...]] = {
    _T.MD5: ((HEX, 32, 32),),
    _T.SHA1: ((HEX, 40, 40),),
    _T.SHA256: ((HEX, 64, 64),),
    _T.SHA512: ((HEX, 128, 128),),
    _T.BITCOIN: (("[13]", 1, 1), (_B58, 25, 34)),
    _T.ETHEREUM: (("0", 1, 1), ("x", 1, 1), (HEX, 40, 40)),
    _T.MONERO: (("[48]", 1, 1), (_B58, 94, 94)),
    _T.IBAN: (("[A-Z]", 2, 2), ("[0-9]", 2, 2), ("[A-Z0-9]", 11, 30)),
}


def _spell(pieces) -> str:
    """The expression of ``(class, fewest, most)`` pieces."""
    out = ""
    for cls, fewest, most in pieces:
        if most == 1:
            out += cls
        elif most:
            out += cls + (f"{{{most}}}" if fewest == most else f"{{{fewest},{most}}}")
    return out


def _run_expression(pieces) -> str:
    """A run type's expression: its first character, the left guard, the
    rest of its body and the right guard."""
    (cls, fewest, most), *rest = pieces
    return f"{cls}{_RUN_GUARD_L}{_spell([(cls, fewest - 1, most - 1), *rest])}{_RUN_GUARD_R}"


def _either(forms: tuple[str, ...]) -> str:
    """An expression matching any one of the literal ``forms``."""
    escaped = "|".join(map(re.escape, forms))
    return escaped if len(forms) == 1 else f"(?:{escaped})"


def _sources(
    dots: tuple[str, ...], ats: tuple[str, ...], scheme: str, colons: tuple[str, ...]
) -> dict[IndicatorType, str]:
    dot, at = _either(dots), _either(ats)
    domain_body = rf"(?:{LABEL}{dot}){{1,126}}{TLD}"
    local = rf"(?:{_LOCAL_CHAR}|{dot}){{1,{_LOCAL_UNITS}}}"
    host = rf"(?:[A-Za-z0-9_\-]{{1,63}}(?:{dot}[A-Za-z0-9_\-]{{1,63}}){{0,126}}|\[[0-9A-Fa-f:.]{{2,45}}\])"
    return {
        _T.IP4: rf"{_IP4_HEAD}(?:{dot}\d{{1,3}}){{3}}(?!\w)(?!{dot}\d)",
        _T.IP4CIDR: rf"{_IP4CIDR_HEAD}/\d{{1,2}}(?!\w)",
        _T.IP6: (
            rf"[0-9A-Fa-f:](?<![\w:.].)(?:(?<=:)|(?<={HEX}){HEX}{{0,3}}:)"
            rf"(?:{HEX}{{0,4}}:){{1,6}}"
            rf"(?:{HEX}{{1,4}}|(?:\d{{1,3}}\.){{3}}\d{{1,3}})?(?![\w:])(?!\.\d)"
        ),
        _T.FQDN: rf"(?<!{_FQDN_GUARD}){domain_body}(?!\w)",
        _T.URL: (
            rf"[hf](?<![\w.\-@].){scheme}{_either(colons)}//{host}(?::\d{{1,5}})?"
            rf"(?:[/?#]{_URL_PATH_CHAR}*)?"
        ),
        _T.EMAIL: (
            rf"(?<!{_EMAIL_GUARD}){local}{at}{domain_body}(?!\w)"
        ),
        **{t: _run_expression(pieces) for t, pieces in _RUN_PIECES.items()},
        _T.SSDEEP: (
            rf"{_SSDEEP_HEAD}:{SSDEEP_CHAR}{{6,}}:{SSDEEP_CHAR}{{6,}}"
            r"(?![A-Za-z0-9:/+])"
        ),
        _T.CVE: rf"{_CVE_HEAD}-\d{{4}}-\d{{4,7}}(?![\w-])",
        _T.ASN: r"[Aa](?<![\w-].)(?i:SN?)\d{1,10}(?![\w-])",
        _T.ONION_ADDRESS: rf"{_ONION_HEAD}\.onion(?![A-Za-z0-9\-])",
        _T.MAC_ADDRESS: (
            rf"{_MAC_HEAD}[:-](?:{HEX}{{2}}[:-]){{4}}{HEX}{{2}}(?![A-Za-z0-9:-])"
        ),
        _T.REGKEY: rf"{_REGKEY_HIVE}(?:\\{_REGKEY_CHAR}{{1,128}}){{1,64}}",
        _T.GOOGLE_ADSENSE: r"[CcPp](?<![\w-].)(?i:(?<=c)a-pub-|(?<=p)ub-)\d{16}(?![\w-])",
        _T.GOOGLE_ANALYTICS: rf"{_ANALYTICS_HEAD}-\d{{4,10}}(?:-\d{{1,4}})?(?![\w-])",
    }


class PatternEntry(NamedTuple):
    """A catalog entry: indicator type and regex source."""

    type: IndicatorType
    expression: str


#: The forms each variant matches, by whether it is defang-broadened.
_VARIANTS = {
    True: (_DOTS, _ATS, _SCHEME, _COLONS),
    False: (_PLAIN_DOTS, _PLAIN_ATS, _PLAIN_SCHEME, _PLAIN_COLONS),
}


def default_entries(defanged: bool = True) -> list[PatternEntry]:
    """The built-in catalog in type-name order, broadened for defang
    transformations by default."""
    sources = _sources(*_VARIANTS[defanged])
    return [PatternEntry(t, sources[t]) for t in sorted(sources)]


#: The body of each run type, fullmatched by what its expression matches.
RUN_BODIES: dict[IndicatorType, str] = {t: _spell(p) for t, p in _RUN_PIECES.items()}

#: The length of the runs each run type's body can fullmatch.
RUN_LENGTHS: dict[IndicatorType, range] = {
    t: range(sum(fewest for _, fewest, _ in p), sum(most for _, _, most in p) + 1)
    for t, p in _RUN_PIECES.items()
}

#: A run of [A-Za-z0-9] as long as some run type's body, as group 1, that
#: ends a maximal run: searched at position 0 for a run that starts the text.
RUN_AT_START = (
    rf"([A-Za-z0-9]{{{min(r.start for r in RUN_LENGTHS.values())},"
    rf"{max(r.stop for r in RUN_LENGTHS.values()) - 1}}}+){_RUN_GUARD_R}"
)
#: The run pass: every other maximal run of [A-Za-z0-9] as long as some run
#: type's body, as group 1, entered at the character before it.
RUN = rf"[^A-Za-z0-9]{RUN_AT_START}"


class Anchor(NamedTuple):
    """Where the matches of an expression can start. Each match holds an
    occurrence of one of ``expressions`` (an anchor) that begins at least
    one and at most ``reach`` characters after the match starts. Each of
    ``expressions`` starts with its own literal, so no two report the same
    position. ``start`` is searched in the text cut at an anchor
    (``endpos``): it matches where every match holding that anchor, or a
    later one, starts in the ``reach`` before it."""

    expressions: tuple[str, ...]
    reach: int
    start: str


def _occurrences(forms: tuple[str, ...], then: str = "") -> tuple[str, ...]:
    """Expressions whose ``finditer`` passes together report where each of
    the literal ``forms``, followed by ``then``, occurs, overlapping
    occurrences too: one per distinct first character, which it consumes,
    looking ahead for the rest of every form that starts with it."""
    rests: dict[str, list[str]] = {}
    for form in forms:
        rests.setdefault(form[0], []).append(re.escape(form[1:]) + then)
    return tuple(
        re.escape(first) + (f"(?={'|'.join(after)})" if any(after) else "")
        for first, after in rests.items()
    )


def _anchors(
    dots: tuple[str, ...], ats: tuple[str, ...], scheme: str, colons: tuple[str, ...]
) -> dict[IndicatorType, Anchor]:
    # An fqdn's first dot form comes after its first label, and a label
    # character follows it. An email's at-form comes after its local part,
    # and no dot form holds an at-form's first character, so the text from
    # a match's start to any anchor inside its local part is whole units.
    # The other anchors come after a head that holds none of them.
    return {
        _T.FQDN: Anchor(
            _occurrences(dots, _LABEL_START),
            63,
            rf"{_LABEL_START}(?<!{_FQDN_GUARD}.){_LABEL_CHAR}{{0,62}}+\Z",
        ),
        _T.EMAIL: Anchor(
            _occurrences(ats),
            _LOCAL_UNITS * max(map(len, dots)),
            rf"(?<!{_EMAIL_GUARD})(?:{_LOCAL_CHAR}|{_either(dots)}){{1,{_LOCAL_UNITS}}}+\Z",
        ),
        _T.IP4: Anchor(_occurrences(dots, r"\d"), 3, rf"{_IP4_HEAD}\Z"),
        _T.IP4CIDR: Anchor(_occurrences(("/",), r"\d"), 15, rf"{_IP4CIDR_HEAD}\Z"),
        # Every ip6 match holds two colons with at most four hex digits
        # between them; the anchor is the second. Only hex digits and a
        # colon come before the first pair's second colon, at most 9 in.
        _T.IP6: Anchor(
            (":(?:" + "|".join(rf"(?<=:{HEX}{{{n}}}.)" for n in range(5)) + ")",),
            9,
            rf"[0-9A-Fa-f:](?<![\w:.].)(?:{HEX}{{0,3}}:)?{HEX}{{0,4}}\Z",
        ),
        _T.URL: Anchor(
            _occurrences(("//",)),
            len("hxxps") + max(map(len, colons)),
            rf"[hf](?<![\w.\-@].){scheme}{_either(colons)}\Z",
        ),
        _T.SSDEEP: Anchor(_occurrences((":",), f"{SSDEEP_CHAR}{{6}}"), 18, rf"{_SSDEEP_HEAD}\Z"),
        _T.CVE: Anchor(_occurrences(("-",), r"\d{4}-\d"), 3, rf"{_CVE_HEAD}\Z"),
        # The S of AS or ASN: U+017F is the one other code point that
        # (?i:s) matches.
        _T.ASN: Anchor(_occurrences(("S", "s", "\u017f"), r"[Nn]?\d"), 1, r"[Aa](?<![\w-].)\Z"),
        _T.GOOGLE_ADSENSE: Anchor(
            _occurrences(("-",), r"\d{16}"),
            len("ca-pub"),
            r"[CcPp](?<![\w-].)(?i:(?<=c)a-pub|(?<=p)ub)\Z",
        ),
        _T.GOOGLE_ANALYTICS: Anchor(_occurrences(("-",), r"\d{4}"), 2, rf"{_ANALYTICS_HEAD}\Z"),
        _T.ONION_ADDRESS: Anchor(_occurrences((".onion",)), 56, rf"{_ONION_HEAD}\Z"),
        _T.MAC_ADDRESS: Anchor(
            _occurrences((":", "-"), f"{HEX}{{2}}[:-]"), 2, rf"{_MAC_HEAD}\Z"
        ),
        _T.REGKEY: Anchor(
            _occurrences(("\\",), _REGKEY_CHAR),
            len("HKEY_PERFORMANCE_DATA"),
            rf"{_REGKEY_HIVE}\Z",
        ),
    }


#: Variant (defanged or not) -> type -> the anchor of its matches.
ANCHORS: dict[bool, dict[IndicatorType, Anchor]] = {
    defanged: _anchors(*forms) for defanged, forms in _VARIANTS.items()
}
