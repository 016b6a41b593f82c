"""Default regex catalog, one defang-broadened expression per indicator type.

Every expression follows the same discipline so matching stays linear on
adversarial input under a backtracking engine:

* repetition is always bounded (labels <= 63 chars, <= 126 labels, ...);
* a cheap one-character negative lookbehind guards the start, so interior
  positions of a long token fail in O(1);
* alternations never overlap with their following element.

Nested unbounded quantifiers and lookbehind-heavy forms are avoided; the
test suite enforces a time budget on adversarial inputs for every entry.
The URL backslash obfuscation is deliberately unsupported.

The extractor skips passes that cannot match. Both tables below are keyed
by expression source, so a catalog file that repeats a built-in expression
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
"""
from __future__ import annotations

from dataclasses import dataclass

from .types import IndicatorType

_T = IndicatorType

# Armed-or-defanged separators. The plain variants are used when defang
# support is disabled.
_DOT = r"(?:\.|\[\.\]|\(\.\)|\[dot\]|\(dot\))"
_PLAIN_DOT = r"\."
_AT = r"(?:@|\[at\]|\(at\)|_at_)"
_PLAIN_AT = "@"
_SCHEME = r"(?:h(?:tt|xx)ps?|ftps?)"
_PLAIN_SCHEME = r"(?:https?|ftps?)"
_SEP = r"(?::|\[:\])//"
_PLAIN_SEP = "://"

_LABEL = r"[A-Za-z0-9_](?:[A-Za-z0-9_-]{0,61}[A-Za-z0-9_])?"
_TLD = r"(?:[A-Za-z]{2,63}|[Xx][Nn]--[A-Za-z0-9-]{1,59})"
_HEX_GUARD_L = r"(?<![A-Za-z0-9])"
_HEX_GUARD_R = r"(?![A-Za-z0-9])"
_B58 = r"[1-9A-HJ-NP-Za-km-z]"
# A URL path character: ASCII, but not whitespace or any of <>"'`. Spelled
# as ranges, as a negated class excluding \x80-\U0010ffff takes ten times
# longer to compile and matches slower.
_URL_PATH_CHAR = r"[\x00-\x08\x0e-\x1b!#-&(-;=?-_a-~\x7f]"

_REGKEY_HIVE = (
    r"(?:HKEY_(?:LOCAL_MACHINE|CURRENT_USER|CLASSES_ROOT|USERS|"
    r"CURRENT_CONFIG|PERFORMANCE_DATA)|HKLM|HKCU|HKCR|HKU|HKCC)"
)
_REGKEY_SEGMENT = r"[A-Za-z0-9_.\-{}()@~#$%^&+=!']{1,128}"


def _sources(dot: str, at: str, scheme: str, sep: str) -> dict[IndicatorType, str]:
    domain_body = rf"(?:{_LABEL}{dot}){{1,126}}{_TLD}"
    local = rf"(?:[A-Za-z0-9!#$%&'*+/=?^_`{{|}}~\-]|{dot}){{1,64}}"
    host = rf"(?:[A-Za-z0-9_\-]{{1,63}}(?:{dot}[A-Za-z0-9_\-]{{1,63}}){{0,126}}|\[[0-9A-Fa-f:.]{{2,45}}\])"
    return {
        _T.IP4: (
            rf"(?<![\w.\])])\d{{1,3}}(?:{dot}\d{{1,3}}){{3}}(?!\w)(?!{dot}\d)"
        ),
        _T.IP4CIDR: r"(?<![\w.\])])\d{1,3}(?:\.\d{1,3}){3}/\d{1,2}(?!\w)",
        _T.IP6: (
            r"(?<![\w:.])(?:[0-9A-Fa-f]{0,4}:){2,7}"
            r"(?:[0-9A-Fa-f]{1,4}|(?:\d{1,3}\.){3}\d{1,3})?(?![\w:])(?!\.\d)"
        ),
        _T.FQDN: rf"(?<![\w.\-\])]){domain_body}(?!\w)",
        _T.URL: (
            rf"(?<![\w.\-@]){scheme}{sep}{host}(?::\d{{1,5}})?(?:[/?#]{_URL_PATH_CHAR}*)?"
        ),
        _T.EMAIL: (
            rf"(?<![A-Za-z0-9!#$%&'*+/=?^_`{{|}}~.\-]){local}{at}{domain_body}(?!\w)"
        ),
        _T.MD5: rf"{_HEX_GUARD_L}[0-9a-fA-F]{{32}}{_HEX_GUARD_R}",
        _T.SHA1: rf"{_HEX_GUARD_L}[0-9a-fA-F]{{40}}{_HEX_GUARD_R}",
        _T.SHA256: rf"{_HEX_GUARD_L}[0-9a-fA-F]{{64}}{_HEX_GUARD_R}",
        _T.SHA512: rf"{_HEX_GUARD_L}[0-9a-fA-F]{{128}}{_HEX_GUARD_R}",
        _T.SSDEEP: (
            r"(?<![A-Za-z0-9:/+])\d{1,18}:[A-Za-z0-9/+]{6,}:[A-Za-z0-9/+]{6,}"
            r"(?![A-Za-z0-9:/+])"
        ),
        _T.CVE: r"(?<![\w-])(?i:CVE)-\d{4}-\d{4,7}(?![\w-])",
        _T.ASN: r"(?<![\w-])(?i:ASN?)\d{1,10}(?![\w-])",
        _T.BITCOIN: rf"{_HEX_GUARD_L}[13]{_B58}{{25,34}}{_HEX_GUARD_R}",
        _T.ETHEREUM: rf"{_HEX_GUARD_L}0x[0-9a-fA-F]{{40}}{_HEX_GUARD_R}",
        _T.MONERO: rf"{_HEX_GUARD_L}[48]{_B58}{{94}}{_HEX_GUARD_R}",
        _T.ONION_ADDRESS: (
            r"(?<![A-Za-z0-9.\-])[a-z2-7]{16}(?:[a-z2-7]{40})?\.onion"
            r"(?![A-Za-z0-9\-])"
        ),
        _T.IBAN: rf"{_HEX_GUARD_L}[A-Z]{{2}}\d{{2}}[A-Z0-9]{{11,30}}{_HEX_GUARD_R}",
        _T.MAC_ADDRESS: (
            r"(?<![A-Za-z0-9:])(?:[0-9A-Fa-f]{2}[:-]){5}[0-9A-Fa-f]{2}"
            r"(?![A-Za-z0-9:-])"
        ),
        _T.REGKEY: rf"(?i:{_REGKEY_HIVE})(?:\\{_REGKEY_SEGMENT}){{1,64}}",
        _T.GOOGLE_ADSENSE: r"(?<![\w-])(?i:(?:ca-)?pub-)\d{16}(?![\w-])",
        _T.GOOGLE_ANALYTICS: r"(?<![\w-])(?i:UA)-\d{4,10}(?:-\d{1,4})?(?![\w-])",
    }


@dataclass(frozen=True)
class PatternEntry:
    """A catalog entry: indicator type, regex source, iteration priority."""

    type: IndicatorType
    expression: str
    priority: int


_DEFANGED = (_DOT, _AT, _SCHEME, _SEP)
_PLAIN = (_PLAIN_DOT, _PLAIN_AT, _PLAIN_SCHEME, _PLAIN_SEP)


def default_entries(defanged: bool = True) -> list[PatternEntry]:
    """The built-in catalog, broadened for defang transformations by default."""
    sources = _sources(*(_DEFANGED if defanged else _PLAIN))
    return [
        PatternEntry(t, sources[t], priority)
        for priority, t in enumerate(sorted(sources, key=lambda t: t.value))
    ]


#: Gate literals of the built-in expressions, by type. Types left out
#: (ip4, fqdn, asn, iban, bitcoin, monero) have no literal every match holds.
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
    _T.EMAIL: ("@", "[at]", "(at)", "_at_"),
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
HEX_RUN = rf"{_HEX_GUARD_L}(?:0x)?[0-9a-fA-F]{{32,128}}{_HEX_GUARD_R}"


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
