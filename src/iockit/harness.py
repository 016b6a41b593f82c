"""Majority-vote accuracy comparison of indicator-extraction tools.

For every document and every indicator reported by at least one tool, the
tools that reported it form the found set, whatever their profiles say,
and the tools whose profiles support its type but did not report it form
the missed set. The larger set is assumed correct: the found tools earn
TPs and the missed tools FNs when found outnumbers missed, FPs and TNs
when missed outnumbers found. Exact ties are skipped. A tool that crashed
on a document contributes an empty found set and therefore lands in the
missed set for every indicator of the types it supports.
"""
from __future__ import annotations

import csv
import io
import json
from collections import Counter, defaultdict
from operator import attrgetter
from typing import NamedTuple, Sequence

from .errors import DuplicateOutputError, UnknownToolError
from .types import Indicator, IndicatorType

_VALUE = attrgetter("value")


class ToolProfile(NamedTuple):
    """A tool's name and the set of indicator types it can extract."""

    name: str
    supported_types: frozenset[IndicatorType]

    def supports(self, type: IndicatorType) -> bool:
        return type in self.supported_types


class ToolOutput(NamedTuple):
    """Deduplicated, normalized indicators one tool extracted from one doc.

    ``error=True`` marks a crash: the tool produced no usable output for
    the document and is treated exactly like an empty extraction.
    """

    tool: str
    doc_id: str
    indicators: frozenset[Indicator] = frozenset()
    error: bool = False


class Counts:
    """One (tool, type) cell's tallies; mutable, compared by value."""

    __slots__ = ("tp", "fp", "fn", "tn")

    def __init__(self, tp: int = 0, fp: int = 0, fn: int = 0, tn: int = 0):
        self.tp, self.fp, self.fn, self.tn = tp, fp, fn, tn

    def __eq__(self, other) -> bool:
        if not isinstance(other, Counts):
            return NotImplemented
        return (self.tp, self.fp, self.fn, self.tn) == (other.tp, other.fp, other.fn, other.tn)

    def __repr__(self) -> str:
        return f"Counts(tp={self.tp}, fp={self.fp}, fn={self.fn}, tn={self.tn})"

    def add(self, other: "Counts") -> None:
        self.tp += other.tp
        self.fp += other.fp
        self.fn += other.fn
        self.tn += other.tn


class AccuracyCounters:
    """Per (tool, type) tallies plus the per-type majority-positive counts
    (the "Count" column of the per-type report)."""

    def __init__(self):
        self.cells: dict[tuple[str, IndicatorType], Counts] = defaultdict(Counts)
        self.positives: Counter = Counter()

    def cell(self, tool: str, type: IndicatorType) -> Counts:
        return self.cells[(tool, type)]

    def total_increments(self) -> int:
        return sum(c.tp + c.fp + c.fn + c.tn for c in self.cells.values())


def compare(
    profiles: Sequence[ToolProfile],
    outputs: Sequence[ToolOutput],
    docs: Sequence[str],
) -> AccuracyCounters:
    """Run the majority vote over every (document, indicator) pair.

    Outputs must already be normalized. A missing (tool, doc) output means
    the tool found nothing there; outputs for documents absent from
    ``docs`` are ignored. The result is independent of the order of
    ``profiles``, ``docs`` and ``outputs``.
    """
    by_name = {p.name: p for p in profiles}
    if len(by_name) != len(profiles):
        raise ValueError("duplicate tool profile names")
    per_doc: dict[str, dict[str, frozenset[Indicator]]] = defaultdict(dict)
    for output in outputs:
        if output.tool not in by_name:
            raise UnknownToolError(f"no profile for tool {output.tool!r}")
        doc_outputs = per_doc[output.doc_id]
        if output.tool in doc_outputs:
            raise DuplicateOutputError(output.tool, output.doc_id)
        doc_outputs[output.tool] = frozenset() if output.error else output.indicators

    # Each profile is one bit of a tool mask, in profile order; a vote is
    # decided by its type and the mask of the tools that found it, so each
    # distinct (type, found mask) is tallied once, times its count.
    names = [p.name for p in profiles]
    bit = {name: 1 << i for i, name in enumerate(names)}
    supported_mask = {
        t: sum(bit[p.name] for p in profiles if p.supports(t)) for t in IndicatorType
    }
    votes: Counter = Counter()
    for doc_id in docs:
        found_by: dict[Indicator, int] = {}
        for tool, indicators in per_doc.get(doc_id, {}).items():
            tool_bit = bit[tool]
            for indicator in indicators:
                found_by[indicator] = found_by.get(indicator, 0) | tool_bit
        votes.update(zip(map(attrgetter("type"), found_by), found_by.values()))

    def tools(mask: int) -> list[str]:
        return [name for i, name in enumerate(names) if mask >> i & 1]

    counters = AccuracyCounters()
    for (ind_type, found_mask), count in votes.items():
        found = tools(found_mask)
        missed = tools(supported_mask[ind_type] & ~found_mask)
        if len(found) > len(missed):
            counters.positives[ind_type] += count
            for tool in found:
                counters.cell(tool, ind_type).tp += count
            for tool in missed:
                counters.cell(tool, ind_type).fn += count
        elif len(missed) > len(found):
            for tool in found:
                counters.cell(tool, ind_type).fp += count
            for tool in missed:
                counters.cell(tool, ind_type).tn += count
        # equal sizes: no majority, skip
    return counters


def _cell_metrics(counts: Counts) -> dict:
    tp, fp, fn = counts.tp, counts.fp, counts.fn
    precision = tp / (tp + fp) if tp + fp else None
    recall = tp / (tp + fn) if tp + fn else None
    if precision is None or recall is None:
        f1 = None
    elif precision + recall == 0:
        f1 = 0.0
    else:
        f1 = 2 * precision * recall / (precision + recall)
    return {
        "tp": tp,
        "fp": fp,
        "fn": fn,
        "tn": counts.tn,
        "precision": precision,
        "recall": recall,
        "f1": f1,
    }


def metrics(
    counters: AccuracyCounters,
    profiles: Sequence[ToolProfile] | None = None,
) -> dict[str, dict]:
    """Per (tool, type) and per-tool overall precision/recall/F1.

    Cells with an undefined ratio report None. The overall row sums the
    tool's counters over the types it supports (all recorded types when no
    profiles are given).
    """
    supported = {p.name: p.supported_types for p in profiles or ()}
    by_tool: dict[str, dict[IndicatorType, Counts]] = {tool: {} for tool in supported}
    for (tool, ind_type), counts in counters.cells.items():
        by_tool.setdefault(tool, {})[ind_type] = counts
    report: dict[str, dict] = {}
    for tool in sorted(by_tool):
        cells = by_tool[tool]
        overall = Counts()
        for ind_type, counts in cells.items():
            if tool not in supported or ind_type in supported[tool]:
                overall.add(counts)
        report[tool] = {
            "types": {t.value: _cell_metrics(cells[t]) for t in sorted(cells, key=_VALUE)},
            "overall": _cell_metrics(overall),
        }
    return report


def build_report(
    counters: AccuracyCounters,
    profiles: Sequence[ToolProfile],
    min_tool_support: int = 1,
) -> dict:
    """JSON-ready report keyed by tool, with per-type and overall cells.

    ``min_tool_support`` drops indicator types supported by fewer tools
    from the report; at 2, single-tool types (where a majority vote is
    meaningless) disappear.
    """
    visible = sorted(
        (t for t in IndicatorType if sum(p.supports(t) for p in profiles) >= min_tool_support),
        key=_VALUE,
    )
    shown = AccuracyCounters()
    shown.cells.update(cell for cell in counters.cells.items() if cell[0][1] in visible)
    return {
        "tools": metrics(shown, profiles),
        "type_counts": {t.value: counters.positives.get(t, 0) for t in visible},
    }


def render_csv(report: dict) -> str:
    """CSV table mirroring the per-type comparison layout: one row per
    indicator type plus an overall row, P/R/F1 columns per tool."""
    tools = sorted(report["tools"])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["indicator", "count"]
    for tool in tools:
        header += [f"{tool}_precision", f"{tool}_recall", f"{tool}_f1"]
    writer.writerow(header)

    def fmt(value: float | None) -> str:
        return "-" if value is None else f"{value:.2f}"

    for type_name, count in report["type_counts"].items():
        row = [type_name, count]
        for tool in tools:
            cell = report["tools"][tool]["types"].get(type_name)
            if cell is None:
                row += ["-", "-", "-"]
            else:
                row += [fmt(cell["precision"]), fmt(cell["recall"]), fmt(cell["f1"])]
        writer.writerow(row)
    row = ["ALL", sum(report["type_counts"].values())]
    for tool in tools:
        overall = report["tools"][tool]["overall"]
        row += [fmt(overall["precision"]), fmt(overall["recall"]), fmt(overall["f1"])]
    writer.writerow(row)
    return buf.getvalue()


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)
