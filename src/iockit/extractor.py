"""Match-and-validate extraction engine with raw and deduplicated APIs."""
from __future__ import annotations

import functools
import re
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

from .defang import REARMERS
from .errors import DATA, MalformedLineError, read_lines
from .normalize import normalize
from .patterns import ANCHORS, GATES, HEX_RUN, HEX_SHAPES, PatternEntry, default_entries
from .types import Indicator, IndicatorType, RawMatch
from .validators import DEFAULT_TLDS, load_tlds, validator

#: Types whose matches may pick up trailing prose punctuation that is
#: stripped before rearming (span is shrunk accordingly, never grown).
_TRIMMED_TYPES = frozenset({IndicatorType.URL, IndicatorType.REGKEY})
_TRIM_PLAIN = ".,;:!?'\"`"
_TRIM_CLOSERS = {")": "(", "]": "[", "}": "{", ">": "<"}


def _trim_trailing(raw: str) -> str:
    while raw:
        ch = raw[-1]
        if ch in _TRIM_PLAIN:
            raw = raw[:-1]
        elif ch in _TRIM_CLOSERS and raw.count(_TRIM_CLOSERS[ch]) < raw.count(ch):
            raw = raw[:-1]
        else:
            break
    return raw


def _hex_shape(raw: str) -> tuple[str, int]:
    """The (prefix, hex digits) shape of a ``HEX_RUN`` match."""
    prefix = raw[:2] if raw.startswith("0x") else ""
    return prefix, len(raw) - len(prefix)


def _anchored(
    pattern: re.Pattern[str], anchor: re.Pattern[str], reach: int, start: re.Pattern[str],
    text: str,
) -> Iterator[re.Match[str]]:
    """``pattern.finditer(text)``, where every match holds an ``anchor``
    match at most ``reach`` characters after its start, and ``start`` finds
    where matches can begin before an anchor (see ``patterns.Anchor``).

    For each anchor after the last match, ``pattern`` is tried where
    ``start`` matches in the ``reach`` before it that no earlier window
    tried, in order; the first hit is the match ``finditer`` would return
    next.
    """
    pos = tried = 0
    for found in anchor.finditer(text):
        a = found.start()
        if a <= pos:
            continue
        s = max(pos, a - reach, tried)
        while (candidate := start.search(text, s, a)) is not None:
            m = pattern.match(text, candidate.start())
            if m is None:
                s = candidate.start() + 1
            else:
                yield m
                s = pos = m.end()
        tried = a


class _Kind(NamedTuple):
    """What the candidate loop needs of one type, looked up once."""

    type: IndicatorType
    name: str
    trim: bool
    rearm: Callable[[str], str]
    valid: Callable[[str], bool] | None


class Extractor:
    """Immutable extraction handle; safe to share across workers.

    Holds the built-in expressions of its types (``patterns.default_entries``,
    defang-broadened unless ``defanged`` is false) and the TLD snapshot used
    by lookup validators; matches are rearmed with ``defang.DEFAULT_RULES``
    and validated unless ``validation`` is false. It is pickled as the
    arguments that build it.

    Each type is one pass of the scan plan (see ``patterns``): a type with
    an anchor is tried only near its anchors, one with a gate runs only on
    text holding a gate literal, and the fixed-length hex types share one
    ``HEX_RUN`` pass when the extractor holds two or more of them. Results
    are those of one ``finditer`` pass per type.
    """

    def __init__(
        self,
        types: Iterable[IndicatorType] = frozenset(IndicatorType),
        tlds: frozenset[str] = DEFAULT_TLDS,
        validation: bool = True,
        defanged: bool = True,
    ):
        wanted = frozenset(types)
        self._entries = tuple(e for e in default_entries(defanged) if e.type in wanted)
        self._types = frozenset(e.type for e in self._entries)
        self._tlds = frozenset(tlds)
        self._validation = validation
        self._defanged = defanged
        anchors = ANCHORS[defanged]
        # One hex shape alone runs its own expression, which is cheaper.
        shared = len(self._types & HEX_SHAPES.keys()) > 1
        # (pattern, gate literals, compiled anchor or None, kind) of each
        # pass that runs on its own.
        passes = []
        # Shape of a HEX_RUN match -> its kind, for the types sharing it.
        self._hex_kinds: dict[tuple[str, int], _Kind] = {}
        for entry in self._entries:
            t = entry.type
            kind = _Kind(
                t, t.value, t in _TRIMMED_TYPES, REARMERS[t],
                validator(t, self._tlds) if validation else None,
            )
            if shared and t in HEX_SHAPES:
                self._hex_kinds[HEX_SHAPES[t]] = kind
                continue
            anchor = anchors.get(t)
            if anchor is not None:
                anchor = (re.compile(anchor.expression), anchor.reach, re.compile(anchor.start))
            passes.append((re.compile(entry.expression), GATES.get(t, ()), anchor, kind))
        self._passes = tuple(passes)
        self._hex_run = re.compile(HEX_RUN) if self._hex_kinds else None

    def __reduce__(self):
        # The kinds hold closures, which do not pickle.
        return type(self), (self._types, self._tlds, self._validation, self._defanged)

    @classmethod
    def default(cls, validation: bool = True, defanged: bool = True) -> "Extractor":
        """Built-in catalog over all supported types.

        ``defanged=False`` drops the defang broadening from the patterns
        (the extractor then only sees armed indicators); ``validation=False``
        skips the per-type validation functions.
        """
        return cls(validation=validation, defanged=defanged)

    @property
    def types(self) -> frozenset[IndicatorType]:
        return self._types

    @property
    def entries(self) -> tuple[PatternEntry, ...]:
        return self._entries

    @property
    def tlds(self) -> frozenset[str]:
        return self._tlds

    def restrict(self, types: Iterable[IndicatorType]) -> "Extractor":
        """A new handle extracting only the given subset of types."""
        return Extractor(self._types & set(types), self._tlds, self._validation, self._defanged)

    def extract_raw(self, text: str) -> list[RawMatch]:
        """Every validated match, duplicates included, ordered by (start, type).

        Validation runs on the rearmed value. Within one type matches never
        overlap (each type is one pass); across types overlaps are all
        reported, e.g. a URL and the domain embedded in it.
        """
        rows = []
        for kind, kept in self._accepted(text):
            name, ind_type = kind.name, kind.type
            rows += [(start, name, raw, rearmed, ind_type) for start, raw, rearmed in kept]
        # No two matches of one type share a start, so sorting whole rows
        # orders them by (start, type name) alone.
        rows.sort()
        return [RawMatch(ind_type, start, raw, rearmed) for start, _, raw, rearmed, ind_type in rows]

    def extract(self, text: str) -> list[Indicator]:
        """Deduplicated projection of extract_raw by (type, normalized value),
        ordered by type name then value.

        Skips what extract_raw builds only to deduplicate: no RawMatch is
        made and matches are not put in text order; each type's normalized
        values go into one set, sorted once.
        """
        out: list[Indicator] = []
        for kind, kept in sorted(self._accepted(text), key=lambda found: found[0].name):
            ind_type = kind.type
            values = sorted({normalize(ind_type, rearmed) for _, _, rearmed in kept})
            out.extend(Indicator(ind_type, value) for value in values)
        return out

    def _accepted(self, text: str) -> Iterator[tuple[_Kind, list[tuple[int, str, str]]]]:
        """Each type found in ``text`` as its kind and its accepted
        candidates, ``(start, raw, rearmed)`` in text order: trimmed (URL,
        regkey), rearmed, and validated unless validation is off."""
        for kind, matches in self._scan(text):
            trim, rearm, valid = kind.trim, kind.rearm, kind.valid
            accepted = []
            for m in matches:
                raw = m.group()
                if trim and not (raw := _trim_trailing(raw)):
                    continue
                rearmed = rearm(raw)
                if valid is None or valid(rearmed):
                    accepted.append((m.start(), raw, rearmed))
            if accepted:
                yield kind, accepted

    def _scan(self, text: str) -> Iterator[tuple[_Kind, Iterable[re.Match[str]]]]:
        """Each type's pass over ``text`` as its kind and its pattern
        matches, in text order and non-overlapping: one ``finditer``, one
        anchored pass, or the type's share of the ``HEX_RUN`` pass."""
        lowered = text.lower()
        for pattern, gate, anchor, kind in self._passes:
            if anchor is not None:
                yield kind, _anchored(pattern, *anchor, text)
            elif not gate or any(literal in lowered for literal in gate):
                yield kind, pattern.finditer(text)
        if self._hex_run is not None:
            shares: dict[str, tuple[_Kind, list[re.Match[str]]]] = {}
            for m in self._hex_run.finditer(text):
                kind = self._hex_kinds.get(_hex_shape(m.group(0)))
                if kind is not None:
                    shares.setdefault(kind.name, (kind, []))[1].append(m)
            yield from shares.values()


def load_catalog(pattern_file: str | Path, tld_file: str | Path) -> Extractor:
    """An extractor of the types listed in a ``type<TAB>regex`` file, each
    line the built-in defang-broadened entry of its type, with the TLD
    snapshot of ``tld_file``.

    Nothing in the package calls it: it is kept, with ``data/patterns.tsv``
    and the two path functions below, only while the benchmark's set-up
    probe calls it to time building an extractor.
    """
    built_in = {(e.type, e.expression) for e in default_entries()}
    types = set()
    for line_no, line in read_lines(pattern_file):
        type_name, sep, expression = line.partition("\t")
        if not sep or not expression.strip():
            message = f"expected 'type<TAB>regex', got {line!r}"
            raise MalformedLineError(pattern_file, line_no, message)
        try:
            ind_type = IndicatorType(type_name.strip())
        except ValueError:
            message = f"unknown indicator type {type_name.strip()!r}"
            raise MalformedLineError(pattern_file, line_no, message) from None
        if (ind_type, expression) not in built_in:
            message = f"not the built-in {ind_type.value} expression"
            raise MalformedLineError(pattern_file, line_no, message)
        types.add(ind_type)
    return Extractor(types, tlds=load_tlds(tld_file))


def default_catalog_path() -> Path:
    return DATA / "patterns.tsv"


def default_tld_path() -> Path:
    return DATA / "tlds.txt"


def extract_raw(text: str) -> list[RawMatch]:
    """extract_raw with the default catalog."""
    return _default().extract_raw(text)


def extract(text: str) -> list[Indicator]:
    """extract with the default catalog."""
    return _default().extract(text)


@functools.cache
def _default() -> Extractor:
    return Extractor.default()
