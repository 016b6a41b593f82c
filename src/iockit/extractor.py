"""Match-and-validate extraction engine with raw and deduplicated APIs."""
from __future__ import annotations

import functools
import re
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

from .defang import REARMERS
from .errors import DATA, MalformedLineError, read_lines
from .normalize import NORMALIZERS
from .patterns import (
    ANCHORS, FOLD, RUN, RUN_BODIES, RUN_LENGTHS, PatternEntry, default_entries,
)
from .types import Indicator, IndicatorType, RawMatch
from .validators import DEFAULT_TLD_PATH, DEFAULT_TLDS, load_tlds, validator

#: Types whose matches may pick up trailing prose punctuation that is
#: stripped before rearming (span is shrunk accordingly, never grown).
_TRIMMED_TYPES = frozenset({IndicatorType.URL, IndicatorType.REGKEY})
_TRIM_PLAIN = ".,;:!?'\"`"
_TRIM_CLOSERS = {")": "(", "]": "[", "}": "{", ">": "<"}
_SECOND = itemgetter(1)


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
    pattern: re.Pattern[str], anchors: list[int], reach: int,
    back: Callable[[str], re.Match[str]] | None, start: re.Pattern[str], text: str,
) -> Iterator[tuple[int, str]]:
    """``pattern.finditer(text)`` as ``(start, string)`` pairs, where every
    match holds one of ``anchors``, the sorted positions of the type's
    anchors in ``text``, at most ``reach`` characters after its start, and
    ``start`` finds where matches can begin before an anchor (see
    ``patterns.Anchor``).

    For each anchor after the last match, ``pattern`` is tried where
    ``start`` matches in the ``reach`` before it that no earlier window
    tried, in order; the first hit is the match ``finditer`` would return
    next. ``back``, where given, first moves the window's start up to the
    run that ``start`` can match, read backwards from the anchor.
    """
    pos = tried = 0
    for a in anchors:
        if a <= pos:
            continue
        s = max(pos, a - reach, tried)
        if back is not None:
            s = a - back(text[s:a][::-1]).end()
        while (candidate := start.search(text, s, a)) is not None:
            m = pattern.match(text, candidate.start())
            if m is None:
                s = candidate.start() + 1
            else:
                yield m.start(), m.group()
                s = pos = m.end()
        tried = a


class _Kind(NamedTuple):
    """What the candidate loop needs of one type, looked up once:
    ``valid`` is None without validation, ``normalize`` for the identity."""

    type: IndicatorType
    trim: bool
    rearm: Callable[[str], str]
    valid: Callable[[str], bool] | None
    normalize: Callable[[str], str] | None


def _accepted(kind: _Kind, raws: set[str]) -> dict[str, str]:
    """The accepted ones of ``raws``, distinct candidates of one type, each
    mapped to its rearmed value: rearmed, and validated unless validation
    is off."""
    rearm, valid = kind.rearm, kind.valid
    if valid is None:
        return dict(zip(raws, map(rearm, raws)))
    return {raw: rearmed for raw in raws if valid(rearmed := rearm(raw))}


class Extractor:
    """Immutable extraction handle; safe to share across workers.

    Holds the built-in expressions of its types (``patterns.default_entries``,
    defang-broadened unless ``defanged`` is false) and the TLD snapshot used
    by lookup validators; matches are rearmed with ``defang.DEFAULT_RULES``
    and validated unless ``validation`` is false. It is pickled as the
    arguments that build it.

    Each type is one pass of the scan plan (see ``patterns``): a run type
    has its share of one pass over alphanumeric runs, a literal search over
    a copy of the text folded to one byte per character (``patterns.FOLD``),
    and every other type is tried only near its anchors, each anchor
    expression searched only in a text that holds its literal. Results are
    those of one ``finditer`` pass per type.
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
        # The expression, the ``(literal, expression)`` pairs of its anchors,
        # the other arguments of ``_anchored`` but the text, then the kind,
        # of each anchored pass.
        passes = []
        # Run length -> (body fullmatch, kind) of each run type held that a
        # run of that length can be.
        self._run_kinds: dict[int, tuple[tuple[Callable[[str], object], _Kind], ...]] = {}
        for entry in self._entries:
            t = entry.type
            kind = _Kind(
                t, t in _TRIMMED_TYPES, REARMERS[t],
                validator(t, self._tlds) if validation else None, NORMALIZERS[t],
            )
            if t in RUN_BODIES:
                share = (re.compile(RUN_BODIES[t]).fullmatch, kind)
                for n in RUN_LENGTHS[t]:
                    self._run_kinds[n] = (*self._run_kinds.get(n, ()), share)
                continue
            anchor = anchors[t]
            passes.append((
                re.compile(entry.expression),
                tuple((literal, re.compile(e)) for literal, e in anchor.expressions),
                anchor.reach, anchor.back and re.compile(anchor.back).match,
                re.compile(anchor.start), kind,
            ))
        self._passes = tuple(passes)
        self._run = re.compile(RUN) if self._run_kinds else None

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

        Validation runs on the rearmed value, once per distinct candidate of
        a type. Within one type matches never overlap (each type is one
        pass); across types overlaps are all reported, e.g. a URL and the
        domain embedded in it.
        """
        rows = []
        for kind, matches in self._candidates(text):
            if not (matches := list(matches)):
                continue
            accepted = _accepted(kind, set(map(_SECOND, matches)))
            ind_type = kind.type
            rows += [
                (start, ind_type, raw, accepted[raw]) for start, raw in matches if raw in accepted
            ]
        # No two matches of one type share a start, so sorting whole rows
        # orders them by (start, type) alone.
        rows.sort()
        return [RawMatch(ind_type, start, raw, rearmed) for start, ind_type, raw, rearmed in rows]

    def extract(self, text: str) -> list[Indicator]:
        """Deduplicated projection of extract_raw by (type, normalized value),
        ordered by type name then value.

        Skips what extract_raw builds only to deduplicate: no RawMatch is
        made and matches are not put in text order. Each distinct candidate
        of a type is rearmed, validated and normalized once, and each type's
        values are sorted once.
        """
        found = []
        for kind, matches in self._candidates(text):
            if not (raws := set(map(_SECOND, matches))):
                continue
            values = _accepted(kind, raws).values()
            if kind.normalize is not None:
                values = map(kind.normalize, values)
            if values := sorted(set(values)):
                found.append((kind.type, values))
        # Each type is one kind, so sorting the pairs orders them by type alone.
        found.sort()
        return [Indicator(ind_type, value) for ind_type, values in found for value in values]

    def _candidates(self, text: str) -> Iterator[tuple[_Kind, Iterable[tuple[int, str]]]]:
        """``_scan``'s matches as candidates ``(start, raw)``: trimmed where
        the type trims (URL, regkey), and dropped when nothing is left."""
        for kind, matches in self._scan(text):
            if kind.trim:
                matches = [
                    (start, raw) for start, found in matches if (raw := _trim_trailing(found))
                ]
            yield kind, matches

    def _scan(self, text: str) -> Iterator[tuple[_Kind, Iterable[tuple[int, str]]]]:
        """Each type's pass over ``text`` as its kind and its pattern
        matches as ``(start, string)``, in text order and non-overlapping:
        one anchored pass, or the type's share of the run pass. A pass that
        finds no anchor, or no run, is left out: it has no match."""
        for pattern, anchors, *window, kind in self._passes:
            # An anchor expression is searched only in a text that holds its
            # leading literal, which a ``memchr`` finds.
            if found := [
                m.start() for literal, anchor in anchors if literal in text
                for m in anchor.finditer(text)
            ]:
                found.sort()
                yield kind, _anchored(pattern, found, *window, text)
        if self._run is not None:
            run_kinds = self._run_kinds
            shares: dict[IndicatorType, tuple[_Kind, list[tuple[int, str]]]] = {}
            # A space before the text folds to the byte before a run that
            # starts it, so each match starts where its run does in the text
            # and ends one character past it.
            for m in self._run.finditer((b" " + text.encode("ascii", "replace")).translate(FOLD)):
                start, end = m.span()
                found = text[start:end - 1]
                for fullmatch, kind in run_kinds.get(len(found), ()):
                    if fullmatch(found):
                        shares.setdefault(kind.type, (kind, []))[1].append((start, found))
            yield from shares.values()


def load_catalog(pattern_file: str | Path, tld_file: str | Path) -> Extractor:
    """An extractor of the types named in ``pattern_file``, one canonical
    type name per line, each with its built-in defang-broadened expression,
    and the TLD snapshot of ``tld_file``.

    Nothing in the package calls it: it is kept, with ``data/patterns.tsv``
    and the two path functions below, only while the benchmark's set-up
    probe calls it to time building an extractor.
    """
    types = set()
    for line_no, line in read_lines(pattern_file):
        try:
            types.add(IndicatorType(line.strip()))
        except ValueError:
            message = f"unknown indicator type {line.strip()!r}"
            raise MalformedLineError(pattern_file, line_no, message) from None
    return Extractor(types, tlds=load_tlds(tld_file))


def default_catalog_path() -> Path:
    return DATA / "patterns.tsv"


def default_tld_path() -> Path:
    return DEFAULT_TLD_PATH


def extract_raw(text: str) -> list[RawMatch]:
    """extract_raw with the default catalog."""
    return _default().extract_raw(text)


def extract(text: str) -> list[Indicator]:
    """extract with the default catalog."""
    return _default().extract(text)


@functools.cache
def _default() -> Extractor:
    return Extractor()
