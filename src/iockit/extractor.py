"""Match-and-validate extraction engine with raw and deduplicated APIs."""
from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .defang import DEFAULT_CATALOG, DefangCatalog
from .errors import DATA, MalformedLineError, read_lines
from .normalize import normalize
from .patterns import ANCHORS, GATES, HEX_RUN, HEX_RUNS, PatternEntry, default_entries
from .types import Indicator, IndicatorType, RawMatch
from .validators import DEFAULT_TLDS, load_tlds, validate

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


class Extractor:
    """Immutable extraction handle; safe to share across workers.

    Holds the compiled pattern catalog, the TLD snapshot used by lookup
    validators, and the defang rule catalog used to rearm matches.

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
        defang_catalog: DefangCatalog = DEFAULT_CATALOG,
        validation: bool = True,
    ):
        self._entries = tuple(sorted(entries, key=lambda e: e.priority))
        # (pattern, gate literals, compiled anchor or None, type) of each
        # pass that runs on its own.
        passes = []
        # Shape of a HEX_RUN match -> its type, for the entries sharing it.
        # One shape alone runs its own expression, which is cheaper.
        self._hex_types: dict[tuple[str, int], IndicatorType] = {}
        shared = len({HEX_RUNS.get(e.expression) for e in self._entries} - {None}) > 1
        for entry in self._entries:
            shape = HEX_RUNS.get(entry.expression)
            if shared and shape is not None and shape not in self._hex_types:
                self._hex_types[shape] = entry.type
            else:
                gate = GATES.get(entry.expression, ())
                anchor = ANCHORS.get(entry.expression)
                if anchor is not None:
                    anchor = (re.compile(anchor.expression), anchor.reach, re.compile(anchor.start))
                passes.append((re.compile(entry.expression), gate, anchor, entry.type))
        self._passes = tuple(passes)
        self._hex_run = re.compile(HEX_RUN) if self._hex_types else None
        self._tlds = frozenset(tlds)
        self._defang = defang_catalog
        self._validation = validation

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
        return Extractor(kept, self._tlds, self._defang, self._validation)

    def extract_raw(self, text: str) -> list[RawMatch]:
        """Every validated match, duplicates included, ordered by (start, type).

        Validation runs on the rearmed value. Within one type matches never
        overlap (leftmost-longest wins); across types overlaps are all
        reported, e.g. a URL and the domain embedded in it.
        """
        per_type: dict[IndicatorType, list[RawMatch]] = {}
        for ind_type, m in self._scan(text):
            raw = m.group(0)
            if ind_type in _TRIMMED_TYPES:
                raw = _trim_trailing(raw)
                if not raw:
                    continue
            rearmed = self._defang.rearm(raw, ind_type)
            if self._validation and not validate(ind_type, rearmed, self._tlds):
                continue
            per_type.setdefault(ind_type, []).append(
                RawMatch(ind_type, m.start(), raw, rearmed)
            )
        results: list[RawMatch] = []
        for matches in per_type.values():
            results.extend(_drop_same_type_overlaps(matches))
        results.sort(key=lambda r: (r.start, r.type.value))
        return results

    def _scan(self, text: str) -> Iterator[tuple[IndicatorType, re.Match[str]]]:
        """Every pattern match in ``text`` with its type, pass by pass."""
        lowered = text.lower()
        for pattern, gate, anchor, ind_type in self._passes:
            if anchor is not None:
                matches = _anchored(pattern, *anchor, text)
            elif gate and not any(literal in lowered for literal in gate):
                continue
            else:
                matches = pattern.finditer(text)
            for m in matches:
                yield ind_type, m
        if self._hex_run is not None:
            for m in self._hex_run.finditer(text):
                ind_type = self._hex_types.get(_hex_shape(m.group(0)))
                if ind_type is not None:
                    yield ind_type, m

    def extract(self, text: str) -> list[Indicator]:
        """Deduplicated projection of extract_raw by (type, normalized value),
        ordered by type name then value."""
        seen: set[tuple[IndicatorType, str]] = set()
        out: list[Indicator] = []
        for match in self.extract_raw(text):
            value = normalize(match.type, match.rearmed)
            key = (match.type, value)
            if key not in seen:
                seen.add(key)
                out.append(Indicator(match.type, value))
        out.sort(key=Indicator.sort_key)
        return out


def _drop_same_type_overlaps(matches: list[RawMatch]) -> list[RawMatch]:
    """Keep leftmost-longest matches; needed when one type has several patterns."""
    matches = sorted(matches, key=lambda r: (r.start, -len(r.raw)))
    kept: list[RawMatch] = []
    last_end = -1
    for m in matches:
        if m.start >= last_end:
            kept.append(m)
            last_end = m.end
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


_DEFAULT_INSTANCE: Extractor | None = None


def _default() -> Extractor:
    global _DEFAULT_INSTANCE
    if _DEFAULT_INSTANCE is None:
        _DEFAULT_INSTANCE = Extractor.default()
    return _DEFAULT_INSTANCE
