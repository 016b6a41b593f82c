"""Traced run of the pipeline benchmark: per-layer metrics.

Spans are recorded here, around calls into the package's public functions;
the package itself is not instrumented. A span has a name, a start, an end,
the span that caused it and a request id (a document id, or "pipeline" for
corpus-wide calls). Spans stay in memory and are written to
``.perfbench/trace-<workload>-<seed>.jsonl`` when the run ends. A span's self
time is its duration minus the time its child spans cover.

Each cycle runs the four CLI commands untraced (their wall times give the
``cli.*`` residuals), one traced library pass over every layer, and the plain
library pass with spans and without, which gives the tracing overhead. Values
are medians over cycles.
"""
from __future__ import annotations

import contextlib
import gc
import json
import re
import statistics
import time
from collections import Counter

_NO_SPAN = contextlib.nullcontext()


class Tracer:
    """In-memory span recorder; ``spans`` rows are [name, rid, parent, start_ns, end_ns]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, rid: str):
        record = [name, rid, self._stack[-1] if self._stack else -1, time.perf_counter_ns(), 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[4] = time.perf_counter_ns()
            self._stack.pop()

    def self_seconds(self, first: int = 0) -> Counter:
        """Self time in seconds per span name, over spans recorded from index ``first``."""
        covered = Counter()
        for name, rid, parent, start, end in self.spans[first:]:
            if parent >= 0:
                covered[parent] += end - start
        out = Counter()
        for i, (name, rid, parent, start, end) in enumerate(self.spans[first:], first):
            out[name] += (end - start - covered[i]) / 1e9
        return out

    def dump(self, path) -> None:
        keys = ("name", "rid", "parent", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.spans:
                fh.write(json.dumps(dict(zip(keys, row))) + "\n")


def _no_span(name: str, rid: str):
    return _NO_SPAN


def library_pass(records, extractor, span) -> None:
    """What ``iockit extract`` does per document, through the public API;
    run with ``Tracer.span`` or with ``_no_span`` to price the spans."""
    from iockit.corpus import extract_text

    for record in records:
        rid = record.doc_id[:16]
        with span("doc", rid):
            with span("corpus.read", rid):
                text = record.read_text()
            if record.format == "html":
                with span("corpus.extract_text", rid):
                    text = extract_text(text)
            with span("extractor.extract", rid):
                extractor.extract(text)


def _load_tool_outputs(p):
    """ToolOutput objects from the generated tool files (set-up, not timed)."""
    from iockit import harness
    from iockit.normalize import normalize
    from iockit.types import Indicator, IndicatorType, normalize_type_name

    sets: dict = {}
    errored = set()
    for path in sorted(p.tools.glob("*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            obj = json.loads(line)
            key = (obj["tool"], obj["doc_id"])
            found = sets.setdefault(key, set())
            if obj.get("error"):
                errored.add(key)
                continue
            t = normalize_type_name(obj["type"])
            found.add(Indicator(t, normalize(t, obj["value"])))
    outputs = [harness.ToolOutput(tool, doc, frozenset(inds), error=(tool, doc) in errored)
               for (tool, doc), inds in sorted(sets.items())]
    profiles = [harness.ToolProfile(name, frozenset(IndicatorType(t) for t in types))
                for name, types in json.loads(p.profiles.read_text(encoding="utf-8")).items()]
    return outputs, profiles


def measure(p, seconds: float) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json."""
    from iockit import Extractor, corpus, filtering, harness
    from iockit.corpus import extract_text
    from iockit.types import Indicator, IndicatorType

    extractor = Extractor.default()
    scanners = [(entry.type.value, re.compile(entry.expression)) for entry in extractor.entries]
    per_type = {t.value: extractor.restrict([t]) for t in IndicatorType}
    outputs, profiles = _load_tool_outputs(p)
    docs = sorted({o.doc_id for o in outputs})
    tracer = Tracer()
    samples: dict[str, list[float]] = {}
    counts: dict[str, float] = {}
    first: dict[str, str] = {}

    def sample(name: str, value: float) -> None:
        samples.setdefault(name, []).append(value)

    def cycle(i: int) -> None:
        probes = p.cold_starts()
        cold = {k: statistics.median(probe[k] for probe in probes)
                for k in ("cli.import.s", "extractor.build.s", "filtering.load_tranco.s")}
        for name, value in cold.items():
            sample(name, value)
        # Untraced commands: wall times for the residuals and the jobs speedup.
        walls = {}
        walls["extract"], _ = p.extract(1)
        if i == 0:
            p.check_extract()
        walls["jobs2"], _ = p.extract(2)
        walls["filter"], _, hits = p.filter()
        p.check_filter_hits(hits)
        walls["compare"], _ = p.compare()
        if i == 0:
            first.update(p.output_hashes())
        p.check_repeat(first)
        sample("cli.jobs1.wall_s", walls["extract"])
        sample("cli.jobs2.wall_s", walls["jobs2"])

        # Traced pass over every layer.
        gc.collect()
        mark = len(tracer.spans)
        span = tracer.span
        with span("corpus.load_manifest", "pipeline"):
            records = corpus.load_manifest(p.corpus.manifest)
        found = {}
        candidates, hit_scans, html_chars, text_chars = Counter(), 0, 0, 0
        for record in records:
            rid = record.doc_id[:16]
            with span("doc", rid):
                with span("corpus.read", rid):
                    text = record.read_text()
                if record.format == "html":
                    html_chars += len(text)
                    with span("corpus.extract_text", rid):
                        text = extract_text(text)
                    text_chars += len(text)
                with span("extractor.extract", rid):
                    found[record.doc_id] = extractor.extract(text)
                with span("extractor.extract_raw", rid):
                    extractor.extract_raw(text)
                with span("extractor.scan", rid):
                    for t, compiled in scanners:
                        n = sum(1 for _ in compiled.finditer(text))
                        candidates[t] += n
                        hit_scans += n > 0
                for t, restricted in per_type.items():
                    with span(f"extractor.type.{t}", rid):
                        restricted.extract_raw(text)
        stats = filtering.CorpusStats()
        for record in records:
            with span("filtering.add_document", record.doc_id[:16]):
                stats.add_document(record.origins, found[record.doc_id])
        with span("filtering.build_blocklist", "pipeline"):
            blocklist = filtering.build_blocklist(stats, p.tranco)
        rule_hits = Counter()
        for record in records:
            with span("filtering.blocking_rule", record.doc_id[:16]):
                for indicator in sorted(found[record.doc_id], key=Indicator.sort_key):
                    rule_hits[filtering.blocking_rule(indicator, blocklist)] += 1
        with span("harness.compare", "pipeline"):
            counters = harness.compare(profiles, outputs, docs)
        with span("harness.build_report", "pipeline"):
            report = harness.build_report(counters, profiles)
        with span("harness.render_csv", "pipeline"):
            harness.render_csv(report)

        own = tracer.self_seconds(mark)
        for name in ("corpus.load_manifest", "corpus.extract_text", "extractor.extract",
                     "extractor.scan", "filtering.add_document", "filtering.build_blocklist",
                     "filtering.blocking_rule", "harness.compare", "harness.build_report",
                     "harness.render_csv"):
            sample(f"{name}.s", float(own[name]))
        for t in per_type:
            sample(f"extractor.type.{t}.s", own[f"extractor.type.{t}"])
        sample("extractor.postscan.s", own["extractor.extract_raw"] - own["extractor.scan"])
        sample("extractor.dedup.s", own["extractor.extract"] - own["extractor.extract_raw"])
        sample("cli.extract.other.s", walls["extract"] - cold["cli.import.s"] - cold["extractor.build.s"]
               - own["corpus.load_manifest"]
               - own["corpus.extract_text"] - own["extractor.extract"])
        sample("cli.filter.other.s", walls["filter"] - cold["cli.import.s"] - own["corpus.load_manifest"]
               - own["filtering.add_document"] - own["filtering.build_blocklist"]
               - own["filtering.blocking_rule"])
        sample("cli.compare.other.s", walls["compare"] - cold["cli.import.s"] - own["harness.compare"]
               - own["harness.build_report"] - own["harness.render_csv"])

        if i == 0:
            counts["corpus.bytes_hashed"] = sum(r.path.stat().st_size for r in records)
            counts["corpus.html_text_ratio"] = text_chars / html_chars if html_chars else 0.0
            counts["extractor.scan_hit_ratio"] = hit_scans / (len(records) * len(scanners))
            for t in per_type:
                counts[f"extractor.candidates.{t}"] = candidates[t]
                counts[f"extractor.emitted.{t}"] = sum(
                    ind.type.value == t for inds in found.values() for ind in inds)
            for rule in filtering.RULE_NAMES:
                counts[f"filtering.hits.{rule}"] = rule_hits[rule]
                planted = p.corpus.planted_hits.get(rule, 0)
                p.gate.check(rule_hits[rule] >= planted,
                             f"blocking_rule {rule} fired {rule_hits[rule]} times, planted {planted}")
            for name in ("origin_domains", "frequent_per_origin", "popular_domains", "ubiquitous"):
                counts[f"filtering.blocklist.{name}.size"] = len(getattr(blocklist, name))
            counts["harness.increments"] = counters.total_increments()

        # The plain library pass with and without spans, document by document
        # in alternating order, so a change in machine speed hits both alike.
        gc.collect()
        timed = {"spans": 0.0, "plain": 0.0}
        spans = {"spans": Tracer().span, "plain": _no_span}
        for k, record in enumerate(records):
            for mode in (("spans", "plain") if k % 2 else ("plain", "spans")):
                t0 = time.perf_counter()
                library_pass([record], extractor, spans[mode])
                timed[mode] += time.perf_counter() - t0
        sample("trace.pass_spans.s", timed["spans"])
        sample("trace.pass_plain.s", timed["plain"])

    cycles = p.run_cycles(seconds, cycle)
    tracer.dump(p.work.parent / f"trace-{p.workload}-{p.seed}.jsonl")
    p.info(cycles=cycles, outputs=first, spans=len(tracer.spans))
    jobs1 = p.mb * cycles / sum(samples.pop("cli.jobs1.wall_s"))
    jobs2 = p.mb * cycles / sum(samples.pop("cli.jobs2.wall_s"))
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics.update(counts)
    metrics["cli.jobs2.base_jobs1_mb_s"], metrics["cli.jobs2.base_jobs2_mb_s"] = jobs1, jobs2
    metrics["cli.jobs2.speedup"] = jobs2 / jobs1
    metrics["trace.overhead_ratio"] = metrics["trace.pass_spans.s"] / metrics["trace.pass_plain.s"] - 1
    return metrics
