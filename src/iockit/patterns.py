"""Default regex catalog, one defang-broadened expression per indicator type.

Each shape is spelled once, here: ``validators`` builds its checks on
``HEX``, ``LABEL``, ``TLD``, ``B58_ALPHABET``, ``ONION_NAME``,
``SSDEEP_CHAR`` and ``RUN_BODIES``. URL syntax is ``normalize``'s.

Every expression follows the same discipline so matching stays linear on
adversarial input under a backtracking engine:

* repetition is always bounded (labels <= 63 chars, <= 126 labels, ...);
* guards come first: every expression but regkey's starts with a cheap
  negative lookbehind on the character before a match, so interior
  positions of a long token fail in O(1), and then spells what the type
  matches (``(?<![\\w-])(?i:CVE)-...``). No expression is scanned over a
  whole text (see the scan plan below), so none is spelled to let the
  engine skip start positions;
* alternations never overlap with their following element;
* the DNS labels of fqdn and email are possessive; no dot form starts
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
  would have it test every character. Each anchor expression is kept with
  its literal and searched only in a text that holds it: a one-character
  ``in`` test is a ``memchr``, while a ``finditer`` that finds nothing
  still reads the whole text. A longer literal would gate less cheaply,
  as an absent needle of several characters costs a full search.
  For each anchor after the last match, the extractor tries the expression
  at the positions in the ``reach`` before it that no earlier window tried
  and where ``start`` holds: the guard, then only what a match can hold
  before the anchor, so most windows try one position. Every ``start`` is
  bounded, and ``reach`` is its longest match. The first hit is
  the match ``finditer`` would return, since a match starting earlier
  would hold an earlier anchor. Windows never overlap, so the scan stays
  linear however dense the anchors are.
  fqdn and email, whose windows are long and whose ``start`` can hold at
  nearly every character of prose, find the window's start backwards
  (``back``): one ``match`` of the reversed form of what a match holds
  before its anchor, over the reversed window, gives the run of whole
  units that ends at the anchor, and ``start`` is searched from the
  run's first character instead of at every position of the reach. Every
  start lies inside that run, and the backward split of the run is forced,
  as no dot form ends in a local-part or label character.
* run (``RUN_BODIES``): each match of md5, sha1, sha256, sha512, ethereum,
  bitcoin, monero and iban is one maximal run of ``[A-Za-z0-9]`` that the
  type's body fullmatches. One ``RUN`` pass finds the runs, and each goes
  to every run type held whose body it fullmatches: a run can be both md5
  and bitcoin, or both md5 and iban. ``RUN`` is a bytes expression,
  searched in a folded copy of the text: a space, then
  ``text.encode("ascii", "replace")`` (one byte per character, ``?`` for
  each non-ASCII one), translated through ``FOLD``, which maps
  ``[A-Za-z0-9]`` to one byte and every other byte to another. ``RUN``
  starts with the other byte and the run byte written out as often as the
  shortest run is long: a literal prefix that ``re`` searches for in C,
  where a leading class or guard would enter the matcher at nearly every
  character of prose.
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
# A URL scheme, and the forms of the colon between a scheme and its ``//``.
_SCHEME = r"(?:h(?:tt|xx)ps?|ftps?)"
_PLAIN_SCHEME = r"(?:https?|ftps?)"
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
#: The base58 digits in value order.
B58_ALPHABET = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"
_B58 = f"[{B58_ALPHABET}]"
# A URL path character: ASCII, but not whitespace or any of <>"'`. Spelled
# as ranges, as a negated class excluding \x80-\U0010ffff takes ten times
# longer to compile and matches slower.
_URL_PATH_CHAR = r"[\x00-\x08\x0e-\x1b!#-&(-;=?-_a-~\x7f]"

# What the expressions of the anchored types match before their anchors.
_IP4_HEAD = r"(?<![\w.\])])\d{1,3}"
_IP4CIDR_HEAD = rf"{_IP4_HEAD}(?:\.\d{{1,3}}){{3}}"
_SSDEEP_HEAD = r"(?<![A-Za-z0-9:/+])\d{1,18}"
SSDEEP_CHAR = "[A-Za-z0-9/+]"
_CVE_HEAD = r"(?<![\w-])(?i:CVE)"
_ASN_HEAD = r"(?<![\w-])(?i:A)"
_ADSENSE_HEAD = r"(?<![\w-])(?i:(?:ca-)?pub)"
_ANALYTICS_HEAD = r"(?<![\w-])(?i:UA)"
ONION_NAME = "[a-z2-7]{16}(?:[a-z2-7]{40})?"
_ONION_HEAD = rf"(?<![A-Za-z0-9.\-]){ONION_NAME}"
_MAC_HEAD = rf"(?<![A-Za-z0-9:]){HEX}{{2}}"
_REGKEY_HIVE = (
    r"(?i:HKEY_(?:LOCAL_MACHINE|CURRENT_USER|CLASSES_ROOT|USERS|"
    r"CURRENT_CONFIG|PERFORMANCE_DATA)|HKLM|HKCU|HKCR|HKU|HKCC)"
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
        else:
            out += cls + (f"{{{most}}}" if fewest == most else f"{{{fewest},{most}}}")
    return out


#: The body of each run type, fullmatched by what its expression matches.
RUN_BODIES: dict[IndicatorType, str] = {t: _spell(p) for t, p in _RUN_PIECES.items()}

#: The length of the runs each run type's body can fullmatch.
RUN_LENGTHS: dict[IndicatorType, range] = {
    t: range(sum(fewest for _, fewest, _ in p), sum(most for _, _, most in p) + 1)
    for t, p in _RUN_PIECES.items()
}


def _either(forms: tuple[str, ...]) -> str:
    """An expression matching any one of the literal ``forms``."""
    escaped = "|".join(map(re.escape, forms))
    return escaped if len(forms) == 1 else f"(?:{escaped})"


def _url_head(scheme: str, colons: tuple[str, ...]) -> str:
    """What a URL matches before its ``//``: the guard, a scheme and a colon form."""
    return rf"(?<![\w.\-@]){scheme}{_either(colons)}"


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
            rf"(?<![\w:.])(?:{HEX}{{0,4}}:){{2,7}}"
            rf"(?:{HEX}{{1,4}}|(?:\d{{1,3}}\.){{3}}\d{{1,3}})?(?![\w:])(?!\.\d)"
        ),
        _T.FQDN: rf"(?<!{_FQDN_GUARD}){domain_body}(?!\w)",
        _T.URL: (
            rf"{_url_head(scheme, colons)}//{host}(?::\d{{1,5}})?"
            rf"(?:[/?#]{_URL_PATH_CHAR}*)?"
        ),
        _T.EMAIL: (
            rf"(?<!{_EMAIL_GUARD}){local}{at}{domain_body}(?!\w)"
        ),
        **{t: rf"(?<![A-Za-z0-9]){body}(?![A-Za-z0-9])" for t, body in RUN_BODIES.items()},
        _T.SSDEEP: (
            rf"{_SSDEEP_HEAD}:{SSDEEP_CHAR}{{6,}}:{SSDEEP_CHAR}{{6,}}"
            r"(?![A-Za-z0-9:/+])"
        ),
        _T.CVE: rf"{_CVE_HEAD}-\d{{4}}-\d{{4,7}}(?![\w-])",
        _T.ASN: rf"{_ASN_HEAD}(?i:SN?)\d{{1,10}}(?![\w-])",
        _T.ONION_ADDRESS: rf"{_ONION_HEAD}\.onion(?![A-Za-z0-9\-])",
        _T.MAC_ADDRESS: (
            rf"{_MAC_HEAD}[:-](?:{HEX}{{2}}[:-]){{4}}{HEX}{{2}}(?![A-Za-z0-9:-])"
        ),
        _T.REGKEY: rf"{_REGKEY_HIVE}(?:\\{_REGKEY_CHAR}{{1,128}}){{1,64}}",
        _T.GOOGLE_ADSENSE: rf"{_ADSENSE_HEAD}-\d{{16}}(?![\w-])",
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


# What a folded text holds for each character of [A-Za-z0-9], and for every
# other character.
_RUN_BYTE = b"a"
_OTHER_BYTE = b" "
#: The fold of the run pass, a ``bytes.translate`` table: each ASCII letter
#: and digit (``bytes.isalnum`` is ASCII only) to one byte, every other
#: byte to another. Over ``text.encode("ascii", "replace")``, which writes
#: one ``?`` for each non-ASCII code point, it gives one byte per character.
FOLD = b"".join(_RUN_BYTE if bytes((i,)).isalnum() else _OTHER_BYTE for i in range(256))
_SHORTEST_RUN = min(r.start for r in RUN_LENGTHS.values())
_LONGEST_RUN = max(r.stop for r in RUN_LENGTHS.values()) - 1
#: The run pass, over the fold of a space and a text: every maximal run of
#: [A-Za-z0-9] as long as some run type's body, with the character before
#: it. The shortest run is written out, so the expression starts with a
#: literal that ``re`` searches for in C.
RUN = (
    _OTHER_BYTE + _RUN_BYTE * _SHORTEST_RUN
    + b"%s{0,%d}+(?!%s)" % (_RUN_BYTE, _LONGEST_RUN - _SHORTEST_RUN, _RUN_BYTE)
)


class Anchor(NamedTuple):
    """Where the matches of an expression can start. Each match holds an
    occurrence of one of ``expressions`` (an anchor) that begins at least
    one and at most ``reach`` characters after the match starts. Each of
    ``expressions`` is a pair ``(literal, expression)``: the expression
    starts with its own one-character literal, so no two report the same
    position, and is searched only in a text that holds that literal.
    ``start`` is searched in the text cut at an anchor
    (``endpos``): it matches where every match holding that anchor, or a
    later one, starts in the ``reach`` before it. ``back``, where not None,
    matches the reversed text before an anchor up to the earliest of those
    starts, or further: the reversed form of what a match can hold before
    its anchor, as whole units."""

    expressions: tuple[tuple[str, str], ...]
    reach: int
    start: str
    back: str | None = None


def _occurrences(forms: tuple[str, ...], then: str = "") -> tuple[tuple[str, str], ...]:
    """Expressions whose ``finditer`` passes together report where each of
    the literal ``forms``, followed by ``then``, occurs, overlapping
    occurrences too: one per distinct first character, which it consumes,
    looking ahead for the rest of every form that starts with it. Each is
    paired with that character, as ``Anchor.expressions`` are."""
    rests: dict[str, list[str]] = {}
    for form in forms:
        rests.setdefault(form[0], []).append(re.escape(form[1:]) + then)
    return tuple(
        (first, re.escape(first) + (f"(?={'|'.join(after)})" if any(after) else ""))
        for first, after in rests.items()
    )


def _anchors(
    dots: tuple[str, ...], ats: tuple[str, ...], scheme: str, colons: tuple[str, ...]
) -> dict[IndicatorType, Anchor]:
    # An fqdn's first dot form comes after its first label, and a label
    # character follows it. An email's at-form comes after its local part,
    # and no dot form holds an at-form's first character, so the text from
    # a match's start to any anchor inside its local part is whole units.
    # Read backwards, those units split one way only: no dot form ends in a
    # local-part or label character. The other anchors come after a head
    # that holds none of them.
    return {
        _T.FQDN: Anchor(
            _occurrences(dots, _LABEL_START),
            63,
            rf"(?<!{_FQDN_GUARD}){_LABEL_START}{_LABEL_CHAR}{{0,62}}+\Z",
            rf"{_LABEL_CHAR}{{0,63}}+",
        ),
        _T.EMAIL: Anchor(
            _occurrences(ats),
            _LOCAL_UNITS * max(map(len, dots)),
            rf"(?<!{_EMAIL_GUARD})(?:{_LOCAL_CHAR}|{_either(dots)}){{1,{_LOCAL_UNITS}}}+\Z",
            rf"(?:{_LOCAL_CHAR}|{_either(tuple(dot[::-1] for dot in dots))}){{0,{_LOCAL_UNITS}}}+",
        ),
        _T.IP4: Anchor(_occurrences(dots, r"\d"), 3, rf"{_IP4_HEAD}\Z"),
        _T.IP4CIDR: Anchor(_occurrences(("/",), r"\d"), 15, rf"{_IP4CIDR_HEAD}\Z"),
        # Every ip6 match holds two colons with at most four hex digits
        # between them; the anchor is the second. Only hex digits and a
        # colon come before the first pair's second colon, at most 9 in.
        _T.IP6: Anchor(
            ((":", ":(?:" + "|".join(rf"(?<=:{HEX}{{{n}}}.)" for n in range(5)) + ")"),),
            9,
            rf"(?<![\w:.]){HEX}{{0,4}}:{HEX}{{0,4}}\Z",
        ),
        _T.URL: Anchor(
            _occurrences(("//",)),
            len("hxxps") + max(map(len, colons)),
            rf"{_url_head(scheme, colons)}\Z",
        ),
        _T.SSDEEP: Anchor(_occurrences((":",), f"{SSDEEP_CHAR}{{6}}"), 18, rf"{_SSDEEP_HEAD}\Z"),
        _T.CVE: Anchor(_occurrences(("-",), r"\d{4}-\d"), 3, rf"{_CVE_HEAD}\Z"),
        # The S of AS or ASN: U+017F is the one other code point that
        # (?i:s) matches.
        _T.ASN: Anchor(_occurrences(("S", "s", "\u017f"), r"[Nn]?\d"), 1, rf"{_ASN_HEAD}\Z"),
        _T.GOOGLE_ADSENSE: Anchor(
            _occurrences(("-",), r"\d{16}"),
            len("ca-pub"),
            rf"{_ADSENSE_HEAD}\Z",
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
