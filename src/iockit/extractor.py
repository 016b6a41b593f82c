"""Match-and-validate extraction engine with raw and deduplicated APIs."""
from __future__ import annotations

import functools
import re
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

from .defang import REARMERS
from .errors import DATA, MalformedLineError, read_lines
from .normalize import normalize
from .patterns import (
    ANCHORS, RUN, RUN_AT_START, RUN_BODIES, RUN_LENGTHS, PatternEntry, default_entries,
)
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


def _anchored(
    pattern: re.Pattern[str], anchors: tuple[re.Pattern[str], ...], reach: int,
    start: re.Pattern[str], text: str,
) -> Iterator[tuple[int, str]]:
    """``pattern.finditer(text)`` as ``(start, string)`` pairs, where every
    match holds a match of one of ``anchors`` at most ``reach`` characters
    after its start, and ``start`` finds where matches can begin before an
    anchor (see ``patterns.Anchor``).

    The anchors of all ``anchors`` are walked in text order. For each after
    the last match, ``pattern`` is tried where ``start`` matches in the
    ``reach`` before it that no earlier window tried, in order; the first
    hit is the match ``finditer`` would return next.
    """
    pos = tried = 0
    for a in sorted([found.start() for anchor in anchors for found in anchor.finditer(text)]):
        if a <= pos:
            continue
        s = max(pos, a - reach, tried)
        while (candidate := start.search(text, s, a)) is not None:
            m = pattern.match(text, candidate.start())
            if m is None:
                s = candidate.start() + 1
            else:
                yield m.start(), m.group()
                s = pos = m.end()
        tried = a


class _Kind(NamedTuple):
    """What the candidate loop needs of one type, looked up once."""

    type: IndicatorType
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

    Each type is one pass of the scan plan (see ``patterns``): a run type
    has its share of one pass over alphanumeric runs, and every other type
    is tried only near its anchors. Results are those of one ``finditer``
    pass per type.
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
        # The arguments of ``_anchored`` but the text, then the kind, of each
        # anchored pass.
        passes = []
        # Run length -> (body fullmatch, kind) of each run type held that a
        # run of that length can be.
        self._run_kinds: dict[int, tuple[tuple[Callable[[str], object], _Kind], ...]] = {}
        for entry in self._entries:
            t = entry.type
            kind = _Kind(
                t, t in _TRIMMED_TYPES, REARMERS[t],
                validator(t, self._tlds) if validation else None,
            )
            if t in RUN_BODIES:
                share = (re.compile(RUN_BODIES[t]).fullmatch, kind)
                for n in RUN_LENGTHS[t]:
                    self._run_kinds[n] = (*self._run_kinds.get(n, ()), share)
                continue
            anchor = anchors[t]
            passes.append((
                re.compile(entry.expression), tuple(map(re.compile, anchor.expressions)),
                anchor.reach, re.compile(anchor.start), kind,
            ))
        self._passes = tuple(passes)
        self._run = (re.compile(RUN_AT_START), re.compile(RUN)) if self._run_kinds else None

    def __reduce__(self):
        # The kinds hold closures, which do not pickle.
        return type(self), (self._types, self._tlds, self._validation, self._defanged)

    @classmethod
    def default(cls, validation: bool = True, defanged: bool = True) -> "Extractor":
        """``Extractor(validation=validation, defanged=defanged)``: the
        built-in catalog over all supported types.

        Nothing in the package calls it: it is kept only while the
        benchmark (``perfbench``) calls it, as ``load_catalog`` is.
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
            ind_type = kind.type
            rows += [(start, ind_type, raw, rearmed) for start, raw, rearmed in kept]
        # No two matches of one type share a start, so sorting whole rows
        # orders them by (start, type) alone.
        rows.sort()
        return [RawMatch(ind_type, start, raw, rearmed) for start, ind_type, raw, rearmed in rows]

    def extract(self, text: str) -> list[Indicator]:
        """Deduplicated projection of extract_raw by (type, normalized value),
        ordered by type name then value.

        Skips what extract_raw builds only to deduplicate: no RawMatch is
        made and matches are not put in text order; each type's normalized
        values go into one set, sorted once.
        """
        out: list[Indicator] = []
        for kind, kept in sorted(self._accepted(text), key=lambda found: found[0].type):
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
            for start, raw in matches:
                if trim and not (raw := _trim_trailing(raw)):
                    continue
                rearmed = rearm(raw)
                if valid is None or valid(rearmed):
                    accepted.append((start, raw, rearmed))
            if accepted:
                yield kind, accepted

    def _scan(self, text: str) -> Iterator[tuple[_Kind, Iterable[tuple[int, str]]]]:
        """Each type's pass over ``text`` as its kind and its pattern
        matches as ``(start, string)``, in text order and non-overlapping:
        one anchored pass, or the type's share of the run pass."""
        for *scan, kind in self._passes:
            yield kind, _anchored(*scan, text)
        if self._run is not None:
            at_start, run = self._run
            run_kinds = self._run_kinds
            shares: dict[IndicatorType, tuple[_Kind, list[tuple[int, str]]]] = {}
            runs: Iterable[re.Match[str]] = run.finditer(text)
            if (first := at_start.match(text)) is not None:
                runs = (first, *runs)
            for m in runs:
                found = m.group(1)
                for fullmatch, kind in run_kinds.get(len(found), ()):
                    if fullmatch(found):
                        shares.setdefault(kind.type, (kind, []))[1].append((m.start(1), found))
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
            message = f"not the built-in {ind_type} expression"
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
    return Extractor()
