"""Default regex catalog, one defang-broadened expression per indicator type.

Every expression follows the same discipline so matching stays linear on
adversarial input under a backtracking engine:

* repetition is always bounded (labels <= 63 chars, <= 126 labels, ...);
* a cheap negative lookbehind on the character before a match guards its
  start, so interior positions of a long token fail in O(1);
* alternations never overlap with their following element;
* the first element is a character class, a literal, or an alternation of
  literals, and the guard comes after it: ``C(?<!G.)R`` for ``(?<!G)CR``,
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

The extractor skips work that cannot match. The tables below are keyed by
expression source, so a catalog file that repeats a built-in expression
gets the same treatment, and any other expression runs as written:

* ``GATES``: a gate is a set of lowercase literals such that the lowered
  text of every match of the expression contains one of them. The pass
  runs only when one of them occurs in ``text.lower()``. So a gate letter
  inside ``(?i:...)`` may only be one that IGNORECASE equates with code
  points that lower to it: ``k`` qualifies (U+212A, the Kelvin sign, lowers
  to ``k``), ``i`` and ``s`` do not (U+0131 and U+017F).
* ``HEX_RUNS``: the guarded fixed-length hex expressions. When an
  extractor holds two or more of their shapes, they share one ``HEX_RUN``
  pass; a match goes to the type whose ``(prefix, digits)`` it has, and is
  dropped when no type held by the extractor has that shape.
* ``ANCHORS``: fqdn and email, which have no useful gate, are tried only
  near their anchors. Every match holds an anchor that begins at most
  ``reach`` characters after the match starts: an at-form after an email's
  local part (64 units of up to 5 characters, so 320, or 64 without
  defang forms), a dot form and a label character after an fqdn's first
  label (63). The anchor expression consumes only a form's first character
  and looks ahead for the rest, so ``finditer`` reports every anchor,
  overlapping ones too (``_at_at_``). For each anchor after the last
  match, the extractor tries the expression at the positions in the
  ``reach`` before it that no earlier window tried and where ``start``
  holds: the guard, then only what a match can hold before the anchor (a
  label for fqdn, local-part units for email) up to the anchor, so most
  windows try one position. The first hit is the match ``finditer`` would
  return, since a match starting earlier would hold an earlier anchor.
  Windows never overlap, so the scan stays linear however dense the
  anchors are.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

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
# A scheme after its first letter, which the URL expression matches as [hf].
_SCHEME = r"(?:(?<=h)(?:tt|xx)ps?|(?<=f)tps?)"
_PLAIN_SCHEME = r"(?:(?<=h)ttps?|(?<=f)tps?)"
_SEP = r"(?::|\[:\])//"
_PLAIN_SEP = "://"

_LABEL_START = "[A-Za-z0-9_]"
_LABEL_CHAR = "[A-Za-z0-9_-]"
_LABEL = rf"{_LABEL_START}{_LABEL_CHAR}{{0,62}}+(?<!-)"
#: What may not precede a match: the guards of fqdn and email.
_FQDN_GUARD = r"[\w.\-\])]"
_EMAIL_GUARD = r"[A-Za-z0-9!#$%&'*+/=?^_`{|}~.\-]"
_LOCAL_CHAR = r"[A-Za-z0-9!#$%&'*+/=?^_`{|}~\-]"
#: Most units (characters or dot forms) in an email local part.
_LOCAL_UNITS = 64
_TLD = r"(?:[A-Za-z]{2,63}|[Xx][Nn]--[A-Za-z0-9-]{1,59})"
# The left guard, placed after the first character of a match.
_HEX_GUARD_L = r"(?<![A-Za-z0-9].)"
_HEX_GUARD_R = r"(?![A-Za-z0-9])"
_B58 = r"[1-9A-HJ-NP-Za-km-z]"
# A URL path character: ASCII, but not whitespace or any of <>"'`. Spelled
# as ranges, as a negated class excluding \x80-\U0010ffff takes ten times
# longer to compile and matches slower.
_URL_PATH_CHAR = r"[\x00-\x08\x0e-\x1b!#-&(-;=?-_a-~\x7f]"

_REGKEY_HIVE = (
    r"[Hh](?i:KEY_(?:LOCAL_MACHINE|CURRENT_USER|CLASSES_ROOT|USERS|"
    r"CURRENT_CONFIG|PERFORMANCE_DATA)|KLM|KCU|KCR|KU|KCC)"
)
_REGKEY_SEGMENT = r"[A-Za-z0-9_.\-{}()@~#$%^&+=!']{1,128}"


def _either(forms: tuple[str, ...]) -> str:
    """An expression matching any one of the literal ``forms``."""
    escaped = "|".join(map(re.escape, forms))
    return escaped if len(forms) == 1 else f"(?:{escaped})"


def _sources(
    dots: tuple[str, ...], ats: tuple[str, ...], scheme: str, sep: str
) -> dict[IndicatorType, str]:
    dot, at = _either(dots), _either(ats)
    domain_body = rf"(?:{_LABEL}{dot}){{1,126}}{_TLD}"
    local = rf"(?:{_LOCAL_CHAR}|{dot}){{1,{_LOCAL_UNITS}}}"
    host = rf"(?:[A-Za-z0-9_\-]{{1,63}}(?:{dot}[A-Za-z0-9_\-]{{1,63}}){{0,126}}|\[[0-9A-Fa-f:.]{{2,45}}\])"
    return {
        _T.IP4: (
            rf"\d(?<![\w.\])].)\d{{0,2}}(?:{dot}\d{{1,3}}){{3}}(?!\w)(?!{dot}\d)"
        ),
        _T.IP4CIDR: r"\d(?<![\w.\])].)\d{0,2}(?:\.\d{1,3}){3}/\d{1,2}(?!\w)",
        _T.IP6: (
            r"[0-9A-Fa-f:](?<![\w:.].)(?:(?<=:)|(?<=[0-9A-Fa-f])[0-9A-Fa-f]{0,3}:)"
            r"(?:[0-9A-Fa-f]{0,4}:){1,6}"
            r"(?:[0-9A-Fa-f]{1,4}|(?:\d{1,3}\.){3}\d{1,3})?(?![\w:])(?!\.\d)"
        ),
        _T.FQDN: rf"(?<!{_FQDN_GUARD}){domain_body}(?!\w)",
        _T.URL: (
            rf"[hf](?<![\w.\-@].){scheme}{sep}{host}(?::\d{{1,5}})?(?:[/?#]{_URL_PATH_CHAR}*)?"
        ),
        _T.EMAIL: (
            rf"(?<!{_EMAIL_GUARD}){local}{at}{domain_body}(?!\w)"
        ),
        _T.MD5: rf"[0-9a-fA-F]{_HEX_GUARD_L}[0-9a-fA-F]{{31}}{_HEX_GUARD_R}",
        _T.SHA1: rf"[0-9a-fA-F]{_HEX_GUARD_L}[0-9a-fA-F]{{39}}{_HEX_GUARD_R}",
        _T.SHA256: rf"[0-9a-fA-F]{_HEX_GUARD_L}[0-9a-fA-F]{{63}}{_HEX_GUARD_R}",
        _T.SHA512: rf"[0-9a-fA-F]{_HEX_GUARD_L}[0-9a-fA-F]{{127}}{_HEX_GUARD_R}",
        _T.SSDEEP: (
            r"\d(?<![A-Za-z0-9:/+].)\d{0,17}:[A-Za-z0-9/+]{6,}:[A-Za-z0-9/+]{6,}"
            r"(?![A-Za-z0-9:/+])"
        ),
        _T.CVE: r"[Cc](?<![\w-].)(?i:VE)-\d{4}-\d{4,7}(?![\w-])",
        _T.ASN: r"[Aa](?<![\w-].)(?i:SN?)\d{1,10}(?![\w-])",
        _T.BITCOIN: rf"[13]{_HEX_GUARD_L}{_B58}{{25,34}}{_HEX_GUARD_R}",
        _T.ETHEREUM: rf"0{_HEX_GUARD_L}x[0-9a-fA-F]{{40}}{_HEX_GUARD_R}",
        _T.MONERO: rf"[48]{_HEX_GUARD_L}{_B58}{{94}}{_HEX_GUARD_R}",
        _T.ONION_ADDRESS: (
            r"(?<![A-Za-z0-9.\-])[a-z2-7]{16}(?:[a-z2-7]{40})?\.onion"
            r"(?![A-Za-z0-9\-])"
        ),
        _T.IBAN: rf"[A-Z]{_HEX_GUARD_L}[A-Z]\d{{2}}[A-Z0-9]{{11,30}}{_HEX_GUARD_R}",
        _T.MAC_ADDRESS: (
            r"[0-9A-Fa-f](?<![A-Za-z0-9:].)[0-9A-Fa-f][:-](?:[0-9A-Fa-f]{2}[:-]){4}"
            r"[0-9A-Fa-f]{2}(?![A-Za-z0-9:-])"
        ),
        _T.REGKEY: rf"{_REGKEY_HIVE}(?:\\{_REGKEY_SEGMENT}){{1,64}}",
        _T.GOOGLE_ADSENSE: r"[CcPp](?<![\w-].)(?i:(?<=c)a-pub-|(?<=p)ub-)\d{16}(?![\w-])",
        _T.GOOGLE_ANALYTICS: r"[Uu](?<![\w-].)(?i:A)-\d{4,10}(?:-\d{1,4})?(?![\w-])",
    }


@dataclass(frozen=True)
class PatternEntry:
    """A catalog entry: indicator type, regex source, iteration priority."""

    type: IndicatorType
    expression: str
    priority: int


_DEFANGED = (_DOTS, _ATS, _SCHEME, _SEP)
_PLAIN = (_PLAIN_DOTS, _PLAIN_ATS, _PLAIN_SCHEME, _PLAIN_SEP)


def default_entries(defanged: bool = True) -> list[PatternEntry]:
    """The built-in catalog, broadened for defang transformations by default."""
    sources = _sources(*(_DEFANGED if defanged else _PLAIN))
    return [
        PatternEntry(t, sources[t], priority)
        for priority, t in enumerate(sorted(sources, key=lambda t: t.value))
    ]


#: Gate literals of the built-in expressions, by type. Types left out
#: (ip4, asn, iban, bitcoin, monero) have no literal every match holds;
#: fqdn and email have anchors instead.
_GATE_LITERALS: dict[IndicatorType, tuple[str, ...]] = {
    _T.CVE: ("cve-",),
    _T.GOOGLE_ANALYTICS: ("ua-",),
    _T.GOOGLE_ADSENSE: ("pub-",),
    _T.REGKEY: ("hk",),
    _T.ONION_ADDRESS: (".onion",),
    _T.IP6: (":",),
    _T.SSDEEP: (":",),
    _T.MAC_ADDRESS: (":", "-"),
    _T.IP4CIDR: ("/",),
    _T.URL: ("//",),
}

#: The (prefix, hex digits) shape of each fixed-length hex type.
_HEX_SHAPES: dict[IndicatorType, tuple[str, int]] = {
    _T.MD5: ("", 32),
    _T.SHA1: ("", 40),
    _T.SHA256: ("", 64),
    _T.SHA512: ("", 128),
    _T.ETHEREUM: ("0x", 40),
}

#: One pass that finds every match of the ``HEX_RUNS`` expressions: a guarded
#: run of 32-128 hex digits, ``0x``-prefixed or not.
HEX_RUN = (
    rf"[0-9a-fA-F]{_HEX_GUARD_L}(?:(?<=0)x[0-9a-fA-F]{{32,128}}|[0-9a-fA-F]{{31,127}})"
    rf"{_HEX_GUARD_R}"
)


@dataclass(frozen=True)
class Anchor:
    """Where the matches of an expression can start. Each match holds an
    occurrence of ``expression`` (an anchor) that begins at most ``reach``
    characters after the match starts. ``start`` is searched in the text cut
    at an anchor (``endpos``): it matches where every match holding that
    anchor, or a later one, starts in the ``reach`` before it."""

    expression: str
    reach: int
    start: str


def _occurrences(forms: tuple[str, ...], then: str = "") -> str:
    """An expression whose ``finditer`` reports where each of the literal
    ``forms``, followed by ``then``, occurs, overlapping occurrences too: it
    consumes a form's first character and looks ahead for the rest."""
    return "|".join(
        re.escape(form[0]) + (f"(?={re.escape(form[1:])}{then})" if form[1:] or then else "")
        for form in forms
    )


def _anchors(
    dots: tuple[str, ...], ats: tuple[str, ...], scheme: str, sep: str
) -> dict[IndicatorType, Anchor]:
    # An fqdn's first dot form comes after its first label, and a label
    # character follows it. An email's at-form comes after its local part,
    # and no dot form holds an at-form's first character, so the text from
    # a match's start to any anchor inside its local part is whole units.
    return {
        _T.FQDN: Anchor(
            _occurrences(dots, _LABEL_START),
            63,
            rf"{_LABEL_START}(?<!{_FQDN_GUARD}.){_LABEL_CHAR}*+\Z",
        ),
        _T.EMAIL: Anchor(
            _occurrences(ats),
            _LOCAL_UNITS * max(map(len, dots)),
            rf"(?<!{_EMAIL_GUARD})(?:{_LOCAL_CHAR}|{_either(dots)})++\Z",
        ),
    }


def _by_source(by_type: dict) -> dict:
    """``by_type`` keyed by each type's expression source, in both variants."""
    return {
        source: by_type[t]
        for variant in (_DEFANGED, _PLAIN)
        for t, source in _sources(*variant).items()
        if t in by_type
    }


#: Expression source -> gate literals.
GATES: dict[str, tuple[str, ...]] = _by_source(_GATE_LITERALS)
#: Expression source -> the (prefix, hex digits) shape of its matches.
HEX_RUNS: dict[str, tuple[str, int]] = _by_source(_HEX_SHAPES)
#: Expression source -> the anchor of its matches.
ANCHORS: dict[str, Anchor] = {
    _sources(*variant)[t]: anchor
    for variant in (_DEFANGED, _PLAIN)
    for t, anchor in _anchors(*variant).items()
}
