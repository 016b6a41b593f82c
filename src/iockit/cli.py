"""Command-line front end: extract indicators from a corpus, build and
apply the dynamic-blocklist filter, and compare tool outputs.

Data goes to stdout (or --out) as JSON lines; diagnostics go to stderr.
Exit codes: 0 success, 1 per-item errors (documents or input lines
skipped, processing continued), 2 unusable inputs or an output file that
cannot be opened. Commands raise IockitError or OSError for the latter;
``main`` alone reports them and returns 2.

Each command imports the modules only it runs, when it runs: extract the
extractor and its validators, filter the blocklist, compare the vote and
its report.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import marshal
import math
import os
import sys
from collections import Counter, defaultdict
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn

from . import corpus
from .errors import (
    HashMismatchError, IockitError, MalformedLineError, OutputFileError, UnknownTypeError,
)
from .normalize import normalize
from .types import Indicator, IndicatorType, normalize_type_name

if TYPE_CHECKING:
    from . import harness
    from .extractor import Extractor


def _err(message: str) -> None:
    print(f"iockit: {message}", file=sys.stderr)


def _stdout(stack: contextlib.ExitStack):
    """sys.stdout, or a buffered stream on its file, flushed at every line,
    when its bytes go there unbuffered (``python -u``, PYTHONUNBUFFERED): an
    unbuffered write that a reader closing the pipe cuts short is dropped
    without an error, and a buffered one's flush completes or raises."""
    if not isinstance(getattr(sys.stdout, "buffer", None), io.RawIOBase):
        return sys.stdout
    return stack.enter_context(open(
        sys.stdout.fileno(), "w", encoding=sys.stdout.encoding, errors=sys.stdout.errors,
        buffering=1, closefd=False,
    ))


@contextlib.contextmanager
def _open_outputs(*paths):
    """A stream to write for each path, stdout for None or '-' (left open).
    Every file is opened before any is truncated: when one cannot be
    opened, OutputFileError is raised, the others keep their content, and
    those this call created are removed."""
    with contextlib.ExitStack() as stack:
        stdout = None
        streams, created = [], []
        for path in paths:
            if path in (None, "-"):
                stdout = stdout or _stdout(stack)
                streams.append(stdout)
                continue
            existed = os.path.lexists(path)
            try:
                streams.append(stack.enter_context(open(path, "a", encoding="utf-8")))
            except OSError as exc:
                stack.close()
                for new in created:
                    Path(new).unlink(missing_ok=True)
                raise OutputFileError(path, exc.strerror) from None
            if not existed:
                created.append(path)
        for stream in streams:
            # Only a regular file is emptied: truncating /dev/null fails.
            if stream is not stdout and os.path.isfile(stream.fileno()):
                stream.truncate(0)
        yield streams


def _load_manifest(path) -> tuple[list[corpus.DocumentRecord], bool]:
    """The manifest's loadable documents, and whether any failed (each is reported)."""
    records, errors = corpus.load_manifest(path, strict=False)
    for exc in errors:
        _err(str(exc))
    return records, bool(errors)


#: The scanner of ``json.loads``: ``(value, end)`` for the JSON value that
#: starts at an index of a str; StopIteration or ValueError where none does.
_scan = json.decoder.JSONDecoder().scan_once
#: The whitespace JSON allows around a value.
_JSON_SPACE = " \t\n\r"
#: The fault of JSON nested deeper than the recursion limit.
_TOO_DEEP = "bad JSON: nested too deeply"


def _json_object(line: bytes) -> dict | None:
    """The JSON object of one line, exactly as ``json.loads`` reads it, or
    None for a line that ``str.isspace`` calls blank; ValueError says why
    it is neither. The scanner alone reads the decoded line stripped of
    JSON whitespace, as ``json.loads`` does; ``json.loads`` runs only to
    name the fault of a line that holds no object."""
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError:
        raise ValueError("not UTF-8") from None
    body = text.strip(_JSON_SPACE)
    try:
        try:
            value, end = _scan(body, 0)
            if end == len(body) and isinstance(value, dict):
                return value
        except (StopIteration, ValueError):
            pass
        if text.isspace():
            return None
        json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad JSON: {exc.msg} at column {exc.colno}") from None
    except RecursionError:
        raise ValueError(_TOO_DEEP) from None
    raise ValueError("not a JSON object")


class _IndicatorLines:
    """Indicator records read from JSON-lines files ('-' is stdin) one line
    at a time, as ``(tool, doc_id, indicator)``: the doc id lowercased, the
    type name and value normalized, ``tool`` None when the line has none.
    A line whose ``error`` value is truthy marks a tool crash on that
    document and gives ``indicator`` None.

    Every line needs string ``keys``, and string ``type`` and ``value``
    unless it is an error line. A line that is not UTF-8, does not parse or
    lacks these is reported as ``path:line: reason``, skipped and counted
    in ``malformed``. An unknown type name is warned about once and its lines
    are skipped; that is not an error.

    With ``shared``, each distinct (type name, value) pair is converted
    once per iteration, and its lines share one Indicator.
    """

    def __init__(self, paths, keys: tuple[str, ...], shared: bool = False):
        self.paths = paths
        self.keys = keys
        self.indicator_keys = keys + ("type", "value")
        self.shared = shared
        self.malformed = 0
        self._types: dict[str, IndicatorType | None] = {}

    def __iter__(self):
        indicator = functools.cache(self._indicator) if self.shared else self._indicator
        for path in self.paths:
            source = contextlib.nullcontext(sys.stdin.buffer) if path == "-" else open(path, "rb")
            with source as stream:
                for line_no, line in enumerate(stream, 1):
                    try:
                        obj = _json_object(line)
                        if obj is None:
                            continue
                        error = self._check(obj)
                    except ValueError as exc:
                        _err(f"{path}:{line_no}: {exc}")
                        self.malformed += 1
                        continue
                    tool, doc_id = obj.get("tool"), obj["doc_id"].lower()
                    if error:
                        yield tool, doc_id, None
                        continue
                    found = indicator(obj["type"], obj["value"])
                    if found is not None:
                        yield tool, doc_id, found

    def _check(self, obj: dict) -> bool:
        """Whether a line's object is an error line; ValueError says what
        it lacks."""
        error = obj.get("error")
        for key in self.keys if error else self.indicator_keys:
            if not isinstance(obj.get(key), str):
                if key not in obj:
                    raise ValueError(f"missing key {key!r}")
                raise ValueError(f"{key!r} is not a string")
        return bool(error)

    def _indicator(self, name: str, value: str) -> Indicator | None:
        """The normalized Indicator, or None for an unknown type name."""
        if name not in self._types:
            try:
                self._types[name] = normalize_type_name(name)
            except UnknownTypeError:
                self._types[name] = None
                _err(f"skipping unsupported indicator type {name!r}")
        ind_type = self._types[name]
        if ind_type is None:
            return None
        return Indicator(ind_type, normalize(ind_type, value))


def _build_extractor(args) -> Extractor:
    from .extractor import Extractor
    from .validators import DEFAULT_TLDS, load_tlds

    if args.types is None:
        types = IndicatorType
    else:
        types = map(normalize_type_name, args.types.split(","))
    return Extractor(types, load_tlds(args.tld_file) if args.tld_file else DEFAULT_TLDS)


def _extract_lines(
    extractor: Extractor, raw: bool, record: corpus.DocumentRecord
) -> tuple[bool, str]:
    """One document from its bytes to its output lines: ``(True, output)``,
    or ``(False, message)`` for whatever error stopped it. The message, not
    the exception, is returned, so that a forked worker sends back the same
    pair through its pipe: marshal writes strings, not exceptions."""
    try:
        text = record.read_text()
        if record.format == "html":
            text = corpus.extract_text(text)
        found = extractor.extract_raw(text) if raw else extractor.extract(text)
        return True, "".join(_json_lines(record.doc_id, found, raw))
    except HashMismatchError as exc:
        return False, str(exc)
    except OSError as exc:
        return False, f"{record.doc_id}: {exc}"
    except Exception as exc:
        # A fault on one document stops that document, not the run.
        return False, f"{record.doc_id}: {type(exc).__name__}: {exc}"


def _forked(extract, records: list, jobs: int):
    """Each result of ``map(extract, records)``, in order, from ``jobs``
    processes: record i is extracted in process i mod ``jobs``, which is
    this one for 0 and a forked child otherwise, so one job starts no
    process and opens no pipe. A child writes each result to its own pipe
    as soon as it is done, so it can run several records ahead of this
    process. Closing the generator closes every pipe, which stops a child
    at its next write, and then reaps every child. A child that stops
    before its last record is IockitError."""
    children: list[tuple[int, io.BufferedReader]] = []
    stopped = None
    try:
        for first in range(1, jobs):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                unread = [read_end, *(stream.fileno() for _, stream in children)]
                _work(extract, records[first::jobs], write_end, unread)
            # A later child must not hold this write end, or this child's
            # death would never read as the end of its pipe.
            os.close(write_end)
            children.append((pid, open(read_end, "rb")))
        for index, record in enumerate(records):
            if index % jobs == 0:
                yield extract(record)
                continue
            pid, stream = children[index % jobs - 1]
            try:
                result = marshal.load(stream)
            except EOFError:
                stopped = pid
                break
            yield result
    finally:
        for _, stream in children:
            stream.close()
        statuses = {pid: os.waitpid(pid, 0)[1] for pid, _ in children}
    if stopped is not None:
        code = os.waitstatus_to_exitcode(statuses[stopped])
        how = f"exit status {code}" if code >= 0 else f"signal {-code}"
        raise IockitError(f"extract worker {stopped} stopped ({how})")


def _work(extract, records: list, write_end: int, unread: list[int]) -> NoReturn:
    """A forked child's whole run: ``extract`` each record and write the
    result to ``write_end`` with marshal, flushed record by record. Every
    path ends in ``os._exit``: the child never returns into its caller's
    frames, and never flushes a buffer it inherited. It first closes the
    read ends in ``unread``, its own pipe's and earlier children's, so that
    when this process closes a pipe the child's next write fails."""
    code = 1
    try:
        for fd in unread:
            os.close(fd)
        with open(write_end, "wb") as out:
            for record in records:
                marshal.dump(extract(record), out)
                out.flush()
        code = 0
    finally:
        os._exit(code)


#: The C string escaper of ``json.dumps`` (``ensure_ascii``), quotes included.
_quote = json.encoder.encode_basestring_ascii


def _json_lines(doc_id: str, found, raw: bool = False):
    """The output line of each Indicator of one document, or with ``raw``
    of each RawMatch: exactly what ``json.dumps`` writes for
    ``{"doc_id", "type", "value"}``, plus ``"start"`` and ``"raw"`` with
    ``raw`` (the value is then the rearmed one), and a newline."""
    head = f'{{"doc_id": {_quote(doc_id)}, "type": '
    if raw:
        return (
            f'{head}{_quote(m.type)}, "value": {_quote(m.rearmed)}, '
            f'"start": {m.start}, "raw": {_quote(m.raw)}}}\n'
            for m in found
        )
    return (f'{head}{_quote(i.type)}, "value": {_quote(i.value)}}}\n' for i in found)


def cmd_extract(args) -> int:
    extractor = _build_extractor(args)
    records, failed = _load_manifest(args.manifest)
    extract = functools.partial(_extract_lines, extractor, args.raw)
    # No more processes than documents, and only this one without os.fork.
    jobs = max(1, min(args.jobs, len(records))) if hasattr(os, "fork") else 1
    with (
        _open_outputs(args.out) as (out,),
        # A run that stops early (the reader closed stdout) reaps its children.
        contextlib.closing(_forked(extract, records, jobs)) as results,
    ):
        for ok, text in results:
            if ok:
                out.write(text)
            else:
                _err(text)
                failed = True
    return 1 if failed else 0


def cmd_filter(args) -> int:
    from . import filtering

    records, failed = _load_manifest(args.manifest)
    known = {record.doc_id for record in records}
    by_doc: dict[str, set[Indicator]] = defaultdict(set)
    reader = _IndicatorLines([args.indicators], ("doc_id",))
    for _tool, doc_id, indicator in reader:
        if doc_id not in known:
            _err(f"indicator references unknown doc {doc_id}; skipped")
            failed = True
        elif indicator is not None:
            by_doc[doc_id].add(indicator)

    stats = filtering.CorpusStats()
    for record in records:
        stats.add_document(record.origins, by_doc.get(record.doc_id, set()))
    # A threshold not given on the command line takes build_blocklist's default.
    thresholds = {
        name: getattr(args, name)
        for name in ("min_origin_docs", "doc_freq_threshold")
        if hasattr(args, name)
    }
    blocklist = filtering.build_blocklist(stats, args.tranco, **thresholds)

    # Counts by blocking rule; None counts the IOCs.
    rule_counts: Counter = Counter()
    generic_paths = [args.generic_out] if args.generic_out else []
    with _open_outputs(args.out, *generic_paths) as (ioc_out, *generic_out):
        for record in records:
            indicators = sorted(by_doc.get(record.doc_id, set()))
            for indicator, line in zip(indicators, _json_lines(record.doc_id, indicators)):
                rule = filtering.blocking_rule(indicator, blocklist)
                rule_counts[rule] += 1
                for stream in (ioc_out,) if rule is None else generic_out:
                    stream.write(line)
    total, iocs = rule_counts.total(), rule_counts[None]
    summary = f"total={total} iocs={iocs} generic={total - iocs} " + " ".join(
        f"{name}={rule_counts[name]}" for name in filtering.RULE_NAMES
    )
    print(summary, file=sys.stderr)
    return 1 if failed or reader.malformed else 0


def _load_tool_outputs(directory: Path) -> tuple[list[harness.ToolOutput], int]:
    """ToolOutput objects grouped by (tool, doc) from every *.jsonl/*.json
    file in the directory, and the number of malformed lines skipped."""
    from . import harness

    paths = sorted(
        p for p in directory.iterdir() if p.suffix in (".jsonl", ".json") and p.is_file()
    )
    reader = _IndicatorLines(paths, ("tool", "doc_id"), shared=True)
    indicator_sets: dict[tuple[str, str], set[Indicator]] = defaultdict(set)
    errored: set[tuple[str, str]] = set()
    for tool, doc_id, indicator in reader:
        found = indicator_sets[(tool, doc_id)]
        if indicator is None:
            errored.add((tool, doc_id))
        else:
            found.add(indicator)
    outputs = [
        harness.ToolOutput(
            tool, doc_id, frozenset(indicators), error=(tool, doc_id) in errored
        )
        for (tool, doc_id), indicators in sorted(indicator_sets.items())
    ]
    return outputs, reader.malformed


def _load_profiles(path: str) -> list[harness.ToolProfile]:
    """Tool profiles from a JSON object mapping each tool name to a list of
    type names; IockitError names the file when it is not one."""
    from . import harness

    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError:
        raise IockitError(f"{path}: not UTF-8") from None
    except json.JSONDecodeError as exc:
        message = f"bad JSON: {exc.msg} at column {exc.colno}"
        raise MalformedLineError(path, exc.lineno, message) from None
    except RecursionError:
        raise IockitError(f"{path}: {_TOO_DEEP}") from None
    if not isinstance(data, dict) or not all(
        isinstance(names, list) and all(isinstance(name, str) for name in names)
        for names in data.values()
    ):
        raise IockitError(f"{path}: expected an object of lists of type names")
    try:
        return [
            harness.ToolProfile(name, frozenset(map(normalize_type_name, names)))
            for name, names in data.items()
        ]
    except UnknownTypeError as exc:
        raise IockitError(f"{path}: {exc}") from None


def cmd_compare(args) -> int:
    from . import harness

    directory = Path(args.outputs_dir)
    if not directory.is_dir():
        raise IockitError(f"{directory}: not a directory")
    outputs, malformed = _load_tool_outputs(directory)
    profiles = _load_profiles(args.profiles)
    tools_seen = {o.tool for o in outputs}
    if len(tools_seen) < 2:
        raise IockitError(
            f"{directory}: need outputs from at least 2 tools, found {len(tools_seen)}"
        )
    missing = tools_seen - {p.name for p in profiles}
    if missing:
        raise IockitError(f"{args.profiles}: no profile for tools: {', '.join(sorted(missing))}")
    if args.min_tool_support > len(profiles):
        # Every type would be hidden from the report.
        raise IockitError(
            f"{args.profiles}: --min-tool-support {args.min_tool_support} is more than "
            f"the {len(profiles)} profiled tools"
        )
    docs = sorted({o.doc_id for o in outputs})
    counters = harness.compare(profiles, outputs, docs)
    report = harness.build_report(counters, profiles, min_tool_support=args.min_tool_support)
    csv_paths = [args.csv] if args.csv else []
    with _open_outputs(args.out, *csv_paths) as (out, *csv):
        print(harness.report_to_json(report), file=out)
        for stream in csv:
            stream.write(harness.render_csv(report))
    return 1 if malformed else 0


def _non_negative_float(text: str) -> float:
    """A finite float of at least 0; argparse reports anything else as a usage error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"not a non-negative number: {text!r}")
    return value


def _positive_int(text: str) -> int:
    """An integer of at least 1; argparse reports anything else as a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iockit",
        description="Extract, filter, and compare threat-intelligence indicators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_extract = sub.add_parser("extract", help="extract indicators from a corpus")
    p_extract.add_argument("--manifest", required=True, help="corpus manifest (TSV)")
    p_extract.add_argument("--tld-file", help="TLD snapshot file (default: built-in)")
    p_extract.add_argument("--types", help="comma-separated type subset to extract")
    p_extract.add_argument(
        "--raw", action="store_true", help="raw API: include offsets and raw values"
    )
    p_extract.add_argument("--out", help="output file (default: stdout)")
    p_extract.add_argument(
        "--jobs", type=_positive_int, default=1, help="processes to extract in, this one included"
    )
    p_extract.set_defaults(func=cmd_extract)

    p_filter = sub.add_parser("filter", help="split indicators into IOCs and generic")
    p_filter.add_argument(
        "--indicators", default="-", help="JSON-lines indicators (default: stdin)"
    )
    p_filter.add_argument("--manifest", required=True, help="corpus manifest (TSV)")
    p_filter.add_argument("--tranco", required=True, help="popularity snapshot (rank,domain CSV)")
    p_filter.add_argument(
        "--min-origin-docs",
        type=_positive_int,
        default=argparse.SUPPRESS,
        help="per-origin document threshold for rule 2 (default: 20)",
    )
    p_filter.add_argument(
        "--doc-freq-threshold",
        type=_non_negative_float,
        default=argparse.SUPPRESS,
        help="document-frequency threshold for rule 4 (default: 0.90)",
    )
    p_filter.add_argument("--out", help="IOC output file (default: stdout)")
    p_filter.add_argument(
        "--generic-out", help="generic-indicator output file (default: not written)"
    )
    p_filter.set_defaults(func=cmd_filter)

    p_compare = sub.add_parser("compare", help="majority-vote tool comparison")
    p_compare.add_argument(
        "--outputs-dir", required=True, help="directory of per-tool JSON-lines files"
    )
    p_compare.add_argument(
        "--profiles", required=True, help="JSON file: tool name -> supported types"
    )
    p_compare.add_argument(
        "--min-tool-support",
        type=_positive_int,
        default=1,
        help="hide types supported by fewer tools from the report (at most the profiled tools)",
    )
    p_compare.add_argument("--out", help="JSON report file (default: stdout)")
    p_compare.add_argument("--csv", help="also write a CSV table to this path")
    p_compare.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (`iockit extract ... | head -1`).
        # Point stdout at devnull so the interpreter's final flush is quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except (IockitError, OSError) as exc:
        located = isinstance(exc, OSError) and exc.filename is not None
        _err(f"{exc.filename}: {exc.strerror}" if located else str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
