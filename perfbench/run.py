"""Pipeline benchmark: ``iockit extract`` -> ``filter`` -> ``compare`` on a
seeded synthetic corpus, with a correctness gate on every output.

    python3 perfbench/run.py --workload reports-sparse --seed 1 --seconds 40 --trace 0

Run it from the repository root; the package is imported from ``src/``.
The load is one closed-loop client: each command starts after the previous
one exits. A cycle starts two cold-start probes, runs ``extract --jobs 1``,
``extract --jobs 2``, ``filter`` and ``compare`` as child processes, then one
library pass of ``Extractor.extract`` over every document; cycles repeat for
``--seconds``. ``--trace 1`` runs the separate traced cycle of ``tracing.py``
and reports per-layer metrics instead.

The benchmark and every single-process command run on one CPU; ``extract
--jobs 2`` gets all of them. End-to-end times are scaled to a reference host
speed by short calibration loops timed on either side of each step, since the
shared host's own speed drifts by more than the bounds (see hostspeed.py);
the info line before the result gives the unscaled values.
Metric names and units come from ``BENCHMARK.json``. The last stdout line is
the JSON result; earlier lines record input and output hashes.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpora  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402

#: Cold starts measured in each cycle, so that they spread over the run.
PROBES_PER_CYCLE = 2
#: The CPUs the benchmark may use. Everything but ``extract --jobs 2`` runs
#: on the first of them, the CPU the host-speed probes measure.
ALL_CPUS = os.sched_getaffinity(0)
#: Library calls timed between two host-speed probes, in seconds.
LIBRARY_CHUNK_S = 0.1
#: Each cycle repeats a short command until it has run this long, so that
#: commands of a fraction of a second get as many samples as the longer ones.
COMMAND_MIN_S = 1.0
#: A command still running after this long is killed (and fails the run).
COMMAND_TIMEOUT_S = 150
#: The iockit configurations compared with each other and the two synthetic tools.
EXTRACTOR_TOOLS = {
    "iockit": {},
    "iockit-nodefang": {"defanged": False},
    "iockit-novalid": {"validation": False},
}


def sha256_file(path: Path) -> str:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return "missing"


class Gate:
    """Counts operations attempted and failed, and keeps the failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(what)
        return ok


class Pipeline:
    """One workload's inputs on disk and the CLI commands run over them."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.src = root / "src"
        self.work = root / ".perfbench" / f"{workload}-{seed}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.out = self.work / "out"
        self.out.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=str(self.src))
        self.tranco = self.src / "iockit" / "data" / "tranco_snapshot.csv"
        self.gate = Gate()
        self.corpus = corpora.build(workload, seed, self.work / "corpus", self.src)
        self.mb = self.corpus.nbytes / 1e6

    # -- inputs --------------------------------------------------------------

    def load_texts(self) -> list[str]:
        """Each document's text as the CLI extracts from it (HTML converted)."""
        from iockit.corpus import extract_text

        texts = []
        for _doc_id, path, _origin, fmt in self.corpus.docs:
            text = path.read_bytes().decode("utf-8", errors="replace")
            texts.append(extract_text(text) if fmt == "html" else text)
        return texts

    def write_tools(self, texts: list[str]) -> None:
        """Tool outputs and profiles for ``compare`` (set-up, not timed).

        The "iockit" tool's lines double as the library reference that the
        CLI's extract output must equal byte for byte.
        """
        from iockit import Extractor, IndicatorType

        self.tools = self.work / "tools"
        self.tools.mkdir()
        doc_ids = [d for d, *_ in self.corpus.docs]
        lines_by_tool = {}
        for name, options in EXTRACTOR_TOOLS.items():
            extractor = Extractor.default(**options)
            lines_by_tool[name] = [
                json.dumps({"tool": name, "doc_id": doc_id, "type": ind.type.value, "value": ind.value})
                for doc_id, text in zip(doc_ids, texts)
                for ind in extractor.extract(text)
            ]
        self.reference = "".join(
            json.dumps({"doc_id": o["doc_id"], "type": o["type"], "value": o["value"]}) + "\n"
            for o in map(json.loads, lines_by_tool["iockit"])
        ).encode()
        lines_by_tool.update(corpora.synthetic_lines(self.corpus, self.seed))
        digest = hashlib.sha256()
        for name, lines in lines_by_tool.items():
            data = "".join(line + "\n" for line in lines).encode()
            (self.tools / f"{name}.jsonl").write_bytes(data)
            digest.update(f"{name}\0{hashlib.sha256(data).hexdigest()}\0".encode())
        profiles = {name: [t.value for t in IndicatorType] for name in EXTRACTOR_TOOLS}
        profiles.update(corpora.synthetic_profiles())
        self.profiles = self.work / "profiles.json"
        self.profiles.write_text(json.dumps(profiles, sort_keys=True), encoding="utf-8")
        digest.update(self.profiles.read_bytes())
        self.tools_sha256 = digest.hexdigest()
        self.tool_lines = sum(len(lines) for lines in lines_by_tool.values())

    def probe(self) -> dict:
        """One cold start in a fresh interpreter (see probe_setup.py)."""
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe_setup.py")],
            env=self.env, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S,
        )
        if not self.gate.check(proc.returncode == 0, f"setup probe exit {proc.returncode}: {proc.stderr[-300:]}"):
            return {}
        probe = json.loads(proc.stdout.splitlines()[-1])
        self.gate.check(Path(probe["module"]).resolve().is_relative_to(self.src.resolve()),
                        f"iockit imported from {probe['module']}, not from src/")
        return probe

    def cold_starts(self) -> list[dict]:
        """This cycle's cold starts that succeeded."""
        return [probe for probe in (self.probe() for _ in range(PROBES_PER_CYCLE)) if probe]

    # -- commands ------------------------------------------------------------

    def cli(self, name: str, *args: str, cpus: str = "-") -> tuple[float, float, str]:
        """Run one ``iockit`` command as a child process through spawn.py,
        on ``cpus`` (default: the benchmark's own); returns wall seconds,
        the child's peak RSS in MB, and its stderr."""
        err_path = self.out / f"{name}.err"
        proc = subprocess.run(
            [sys.executable, str(HERE / "spawn.py"), str(err_path), str(COMMAND_TIMEOUT_S), cpus,
             sys.executable, "-m", "iockit.cli", *args],
            cwd=self.work, env=self.env, capture_output=True, text=True,
        )
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        result = json.loads(proc.stdout)
        code = result["returncode"]
        self.gate.check(code == 0, f"{name} exit {code}: {stderr[-300:]}")
        return result["wall_s"], result["peak_rss_mb"], stderr

    def extract(self, jobs: int) -> tuple[float, float]:
        out = self.out / f"extract-j{jobs}.jsonl"
        # A pool of ``jobs`` workers gets all the CPUs the benchmark was given.
        cpus = ",".join(map(str, sorted(ALL_CPUS))) if jobs > 1 else "-"
        wall, rss, _ = self.cli(f"extract-j{jobs}", "extract", "--manifest", str(self.corpus.manifest),
                                "--out", str(out), "--jobs", str(jobs), cpus=cpus)
        return wall, rss

    def filter(self) -> tuple[float, float, dict[str, int]]:
        wall, rss, stderr = self.cli(
            "filter", "filter", "--indicators", str(self.out / "extract-j1.jsonl"),
            "--manifest", str(self.corpus.manifest), "--tranco", str(self.tranco),
            "--out", str(self.out / "iocs.jsonl"), "--generic-out", str(self.out / "generic.jsonl"))
        summary = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        counts = dict(field.split("=", 1) for field in summary.split() if "=" in field)
        return wall, rss, {k: int(v) for k, v in counts.items() if v.isdigit()}

    def compare(self) -> tuple[float, float]:
        wall, rss, _ = self.cli(
            "compare", "compare", "--outputs-dir", str(self.tools), "--profiles", str(self.profiles),
            "--out", str(self.out / "report.json"), "--csv", str(self.out / "report.csv"))
        return wall, rss

    # -- correctness gate ----------------------------------------------------

    def check_extract(self) -> None:
        """The CLI's extract output equals the library's, finds every planted
        indicator and emits no planted decoy."""
        gate = self.gate
        out = self.out / "extract-j1.jsonl"
        data = out.read_bytes() if out.is_file() else b""
        gate.check(data == self.reference, "extract --jobs 1 output differs from Extractor.extract")
        emitted = {(o["doc_id"], o["type"], o["value"]) for o in map(json.loads, data.splitlines())}
        missing = self.corpus.truth - emitted
        gate.check(not missing, f"{len(missing)} planted indicators not found, e.g. {sorted(missing)[:2]}")
        leaked = self.corpus.decoys & emitted
        gate.check(not leaked, f"{len(leaked)} planted decoys emitted, e.g. {sorted(leaked)[:2]}")
        self.indicator_lines = len(emitted)

    def check_filter_hits(self, hits: dict[str, int]) -> None:
        for rule, planted in self.corpus.planted_hits.items():
            self.gate.check(hits.get(rule, 0) >= planted,
                            f"filter rule {rule} fired {hits.get(rule, 0)} times, planted {planted}")

    def output_hashes(self) -> dict[str, str]:
        return {name: sha256_file(self.out / name) for name in (
            "extract-j1.jsonl", "extract-j2.jsonl", "iocs.jsonl", "generic.jsonl",
            "report.json", "report.csv")}

    def check_repeat(self, first: dict[str, str]) -> None:
        """Every output of this cycle hashes the same as in the first cycle,
        and ``--jobs 2`` wrote exactly what ``--jobs 1`` wrote."""
        now = self.output_hashes()
        self.gate.check(now["extract-j1.jsonl"] == now["extract-j2.jsonl"],
                        "extract --jobs 2 output differs from --jobs 1")
        for name, digest in now.items():
            self.gate.check(digest == first[name], f"{name} changed between cycles")

    def run_cycles(self, seconds: float, cycle) -> int:
        """Call ``cycle(i)`` once, then again while a cycle as long as the
        last one still ends within ``seconds``; returns the cycle count."""
        start = time.perf_counter()
        i, last = 0, 0.0
        while i == 0 or time.perf_counter() - start + last <= seconds:
            t0 = time.perf_counter()
            cycle(i)
            last = time.perf_counter() - t0
            i += 1
        return i

    def info(self, **extra) -> None:
        """A stdout line recording the inputs, so runs can show they were identical."""
        print("perfbench " + json.dumps({
            "workload": self.workload, "seed": self.seed, "docs": len(self.corpus.docs),
            "corpus_bytes": self.corpus.nbytes, "corpus_sha256": self.corpus.sha256,
            "tools_sha256": self.tools_sha256, "tool_lines": self.tool_lines, **extra,
        }, sort_keys=True), flush=True)


def measure(p: Pipeline, texts: list[str], seconds: float) -> dict[str, float]:
    """The end-to-end metrics, tracing off.

    Throughputs are work completed per second: the work of one invocation
    of a command over the median wall time of its invocations. Times, memory
    and per-document latencies are medians (p95 for the tail) over every
    sample of the run.
    Every time is scaled to the reference host speed by the calibration
    probes on either side of its step (see hostspeed.py).
    """
    from iockit import Extractor

    extractor = Extractor.default()
    speed = HostSpeed()
    rss: dict[str, list[float]] = {"extract_peak_rss_mb": [], "filter_peak_rss_mb": [],
                                   "compare_peak_rss_mb": []}
    # Every time twice: scaled to the reference host, and as measured.
    scaled_times, unscaled_times = ({"extract_mb_s": [], "extract_jobs2_mb_s": [], "filter_ind_s": [],
                                     "compare_lines_s": [], "setup_s": [], "doc_ms": []}
                                    for _ in range(2))
    first: dict[str, str] = {}

    def record(name: str, seconds: float, factor: float) -> None:
        scaled_times[name].append(seconds * factor)
        unscaled_times[name].append(seconds)

    def bracketed(step, *args, cpus=()):
        """Run ``step`` between two host-speed probes on ``cpus``; returns
        its result and the scale factor."""
        before = speed.probe(cpus)
        result = step(*args)
        return result, speed.factor(before, speed.probe(cpus))

    def command(name: str, step, *args, cpus=()):
        """Run a command until it has run COMMAND_MIN_S in this cycle; returns its last result."""
        spent = 0.0
        while spent < COMMAND_MIN_S:
            result, factor = bracketed(step, *args, cpus=cpus)
            record(name, result[0], factor)
            spent += result[0]
        return result

    def cycle(i: int) -> None:
        for _ in range(PROBES_PER_CYCLE):
            probe, factor = bracketed(p.probe)
            if probe:
                record("setup_s", probe["setup_s"], factor)
        _, mb = command("extract_mb_s", p.extract, 1)
        rss["extract_peak_rss_mb"].append(mb)
        if i == 0:
            p.check_extract()
        command("extract_jobs2_mb_s", p.extract, 2, cpus=ALL_CPUS)
        _, mb, hits = command("filter_ind_s", p.filter)
        rss["filter_peak_rss_mb"].append(mb)
        p.check_filter_hits(hits)
        _, mb = command("compare_lines_s", p.compare)
        rss["compare_peak_rss_mb"].append(mb)
        if i == 0:
            first.update(p.output_hashes())
        p.check_repeat(first)
        gc.collect()
        # Probe the host about every LIBRARY_CHUNK_S of library calls; each
        # call is scaled by the probes on either side of its chunk.
        before, chunk = speed.probe(), []
        for k, text in enumerate(texts):
            t0 = time.perf_counter()
            extractor.extract(text)
            chunk.append(time.perf_counter() - t0)
            p.gate.attempted += 1
            if sum(chunk) >= LIBRARY_CHUNK_S or k == len(texts) - 1:
                after = speed.probe()
                for seconds in chunk:
                    record("doc_ms", seconds * 1e3, speed.factor(before, after))
                before, chunk = after, []

    cycles = p.run_cycles(seconds, cycle)
    work = {"extract_mb_s": p.mb, "extract_jobs2_mb_s": p.mb,
            "filter_ind_s": p.indicator_lines, "compare_lines_s": p.tool_lines}

    def summary(times: dict[str, list[float]]) -> dict[str, float]:
        out = {name: work[name] / statistics.median(times[name]) for name in work}
        out["setup_s"] = statistics.median(times["setup_s"])
        out["extract_doc_p50_ms"] = statistics.median(times["doc_ms"])
        out["extract_doc_p95_ms"] = statistics.quantiles(times["doc_ms"], n=20)[-1]
        return out

    p.info(cycles=cycles, outputs=first, host_loop_s=speed.median(), unscaled=summary(unscaled_times))
    metrics = summary(scaled_times)
    metrics.update({name: statistics.median(values) for name, values in rss.items()})
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpora.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "iockit" / "cli.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print("perfbench: run from the repository root (needs src/iockit and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(root / "src"))

    os.sched_setaffinity(0, {min(ALL_CPUS)})
    started = time.perf_counter()
    p = Pipeline(root, args.workload, args.seed)
    try:
        texts = p.load_texts()
        p.write_tools(texts)
        p.probe()  # the first start may also write bytecode caches
        # Set-up objects are long-lived; keep the collector from re-scanning
        # them during timed library calls, as it would not in the CLI.
        gc.collect()
        gc.freeze()
        p.info(prep_s=time.perf_counter() - started)
        if args.trace:
            import tracing

            metrics = tracing.measure(p, args.seconds)
            wanted = spec["per_layer"]
        else:
            metrics = measure(p, texts, args.seconds)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(p.work, ignore_errors=True)
    gate = p.gate
    metrics["ok_ratio"] = 1 - gate.failed / max(1, gate.attempted)
    for reason in gate.reasons:
        print(f"perfbench: FAILED {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
