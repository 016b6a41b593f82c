"""Match-and-validate extraction engine with raw and deduplicated APIs."""
from __future__ import annotations

import functools
import re
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .defang import REARMERS
from .errors import DATA, MalformedLineError, read_lines
from .normalize import normalize
from .patterns import ANCHORS, GATES, HEX_RUN, HEX_RUNS, PatternEntry, default_entries
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

    Holds the compiled pattern catalog and the TLD snapshot used by lookup
    validators; matches are rearmed with ``defang.DEFAULT_RULES``. It is
    pickled as the arguments that build it.

    The catalog is compiled into a scan plan (see ``patterns``): each entry
    whose expression has an anchor is tried only near its anchors, each
    one with a gate runs only on text holding a gate literal, and the
    built-in fixed-length hex expressions share one ``HEX_RUN`` pass when
    they have two or more shapes. Every other entry runs as written.
    Results are those of one ``finditer`` pass per entry.
    """

    def __init__(
        self,
        entries: Sequence[PatternEntry],
        tlds: frozenset[str] = DEFAULT_TLDS,
        validation: bool = True,
    ):
        self._entries = tuple(sorted(entries, key=lambda e: e.priority))
        self._tlds = frozenset(tlds)
        self._validation = validation
        kinds = {
            t: _Kind(
                t, t.value, t in _TRIMMED_TYPES, REARMERS[t],
                validator(t, self._tlds) if validation else None,
            )
            for t in {entry.type for entry in self._entries}
        }
        # (pattern, gate literals, compiled anchor or None, kind) of each
        # pass that runs on its own.
        passes = []
        # Shape of a HEX_RUN match -> its kind, for the entries sharing it.
        # One shape alone runs its own expression, which is cheaper.
        self._hex_kinds: dict[tuple[str, int], _Kind] = {}
        shared = len({HEX_RUNS.get(e.expression) for e in self._entries} - {None}) > 1
        for entry in self._entries:
            shape = HEX_RUNS.get(entry.expression)
            if shared and shape is not None and shape not in self._hex_kinds:
                self._hex_kinds[shape] = kinds[entry.type]
            else:
                gate = GATES.get(entry.expression, ())
                anchor = ANCHORS.get(entry.expression)
                if anchor is not None:
                    anchor = (re.compile(anchor.expression), anchor.reach, re.compile(anchor.start))
                passes.append((re.compile(entry.expression), gate, anchor, kinds[entry.type]))
        self._passes = tuple(passes)
        self._hex_run = re.compile(HEX_RUN) if self._hex_kinds else None
        # Names of the types held by two or more passes: only their matches
        # can overlap.
        held = [p[3].name for p in passes] + [k.name for k in self._hex_kinds.values()]
        self._shared_types = frozenset(name for name in held if held.count(name) > 1)

    def __reduce__(self):
        # The kinds hold closures, which do not pickle.
        return type(self), (self._entries, self._tlds, self._validation)

    @classmethod
    def default(cls, validation: bool = True, defanged: bool = True) -> "Extractor":
        """Built-in catalog over all supported types.

        ``defanged=False`` drops the defang broadening from the patterns
        (the extractor then only sees armed indicators); ``validation=False``
        skips the per-type validation functions.
        """
        return cls(default_entries(defanged=defanged), validation=validation)

    @property
    def types(self) -> frozenset[IndicatorType]:
        return frozenset(entry.type for entry in self._entries)

    @property
    def entries(self) -> tuple[PatternEntry, ...]:
        return self._entries

    @property
    def tlds(self) -> frozenset[str]:
        return self._tlds

    def restrict(self, types: Iterable[IndicatorType]) -> "Extractor":
        """A new handle extracting only the given subset of types."""
        wanted = set(types)
        kept = [e for e in self._entries if e.type in wanted]
        return Extractor(kept, self._tlds, self._validation)

    def extract_raw(self, text: str) -> list[RawMatch]:
        """Every validated match, duplicates included, ordered by (start, type).

        Validation runs on the rearmed value. Within one type matches never
        overlap (leftmost-longest wins); across types overlaps are all
        reported, e.g. a URL and the domain embedded in it. Skips the
        overlap drop for a type held by one pass, which has no overlaps.
        """
        rows = []
        for kind, kept in self._kept(text):
            name, ind_type = kind.name, kind.type
            rows += [(start, name, raw, rearmed, ind_type) for start, raw, rearmed in kept]
        # Two kept matches of one type share a start only when both are
        # empty, and then their rows are equal: sorting whole rows orders
        # them by (start, type name) alone.
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
        for kind, kept in sorted(self._kept(text), key=lambda found: found[0].name):
            ind_type = kind.type
            values = sorted({normalize(ind_type, rearmed) for _, _, rearmed in kept})
            out.extend(Indicator(ind_type, value) for value in values)
        return out

    def _kept(self, text: str) -> list[tuple[_Kind, list[tuple[int, str, str]]]]:
        """Each type found in ``text`` with its accepted ``(start, raw,
        rearmed)``, same-type overlaps dropped."""
        found: dict[str, tuple[_Kind, list[tuple[int, str, str]]]] = {}
        for kind, accepted in self._accepted(text):
            if kind.name in found:
                found[kind.name][1].extend(accepted)
            elif accepted:
                found[kind.name] = (kind, accepted)
        # One pass's matches are in order and apart, and trimming only
        # shrinks them, so the drop would remove nothing, unless an empty
        # match starts where a longer one does (an expression that can match
        # empty, from a catalog file).
        return [
            (kind, _drop_same_type_overlaps(accepted))
            if kind.name in self._shared_types or not all(raw for _, raw, _ in accepted)
            else (kind, accepted)
            for kind, accepted in found.values()
        ]

    def _accepted(self, text: str) -> Iterator[tuple[_Kind, list[tuple[int, str, str]]]]:
        """Each pass over ``text`` as its kind and its accepted candidates,
        ``(start, raw, rearmed)`` in text order: trimmed (URL, regkey),
        rearmed, and validated unless validation is off."""
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
            yield kind, accepted

    def _scan(self, text: str) -> Iterator[tuple[_Kind, Iterable[re.Match[str]]]]:
        """Each pass over ``text`` as its kind and its pattern matches, in
        text order and non-overlapping: one ``finditer``, one anchored pass,
        or one type's share of the ``HEX_RUN`` pass."""
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


def _drop_same_type_overlaps(
    matches: list[tuple[int, str, str]]
) -> list[tuple[int, str, str]]:
    """Keep leftmost-longest ``(start, raw, rearmed)``; needed when one type
    has several patterns."""
    matches = sorted(matches, key=lambda m: (m[0], -len(m[1])))
    kept = []
    last_end = -1
    for m in matches:
        if m[0] >= last_end:
            kept.append(m)
            last_end = m[0] + len(m[1])
    return kept


def load_catalog(pattern_file: str | Path, tld_file: str | Path) -> Extractor:
    """Build a reusable extractor from a pattern catalog of ``type<TAB>regex``
    lines and a TLD snapshot."""
    entries: list[PatternEntry] = []
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
        try:
            re.compile(expression)
        except (re.error, OverflowError, RecursionError) as exc:
            raise MalformedLineError(pattern_file, line_no, f"bad regex: {exc}") from None
        entries.append(PatternEntry(ind_type, expression, line_no))
    return Extractor(entries, tlds=load_tlds(tld_file))


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
