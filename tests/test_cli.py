import hashlib
import json
import os
import re
import signal

import pytest
from hypothesis import given, strategies as st

from iockit import cli, corpus, filtering
from iockit.cli import main
from iockit.extractor import Extractor
from iockit.types import Indicator, IndicatorType, RawMatch

T = IndicatorType


def add_doc(directory, name, content, origin="rss:feed.example.com", fmt="text"):
    (directory / name).write_text(content, encoding="utf-8")
    doc_id = hashlib.sha256(content.encode()).hexdigest()
    return f"{doc_id}\t{name}\t{origin}\t{fmt}"


@pytest.fixture
def corpus_dir(tmp_path):
    rows = [
        add_doc(tmp_path, "a.txt", "c2 9[.]9[.]9[.]9 and hxxp://bad.example-c2.net/x plus "
                                   "d41d8cd98f00b204e9800998ecf8427e"),
        add_doc(tmp_path, "b.txt", "lan host 192.168.1.1 only"),
        add_doc(tmp_path, "c.html", "<p>see evil.example-c2.net</p><script>x='1.2.3.4'</script>",
                fmt="html"),
    ]
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("\n".join(rows) + "\n")
    return tmp_path


def _timed_out(signum, frame):
    raise TimeoutError("the run took over 60 s")


def run(capsys, *argv):
    # A run that waits on a lost worker fails (as exit 2) instead of hanging.
    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(60)
    try:
        code = main(list(argv))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    # No run leaves a child process behind, whatever its --jobs and its end.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def jlines(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def md5_corpus(directory, docs=20):
    """A manifest of ``docs`` documents of 250 md5s each: about 20 KiB of
    output per document, so that a few documents fill a 64 KiB pipe."""
    rows = []
    for doc in range(docs):
        hashes = (hashlib.md5(f"{doc}.{i}".encode()).hexdigest() for i in range(250))
        rows.append(add_doc(directory, f"{doc}.txt", " ".join(hashes)))
    manifest = directory / "manifest.tsv"
    manifest.write_text("\n".join(rows) + "\n")
    return manifest, rows


class FailingExtractor(Extractor):
    """An extractor that fails on every document holding "boom"."""

    def extract(self, text):
        if "boom" in text:
            raise ValueError("boom in the extractor")
        return super().extract(text)


class TestExtractCommand:
    def test_default_deduplicated_output(self, corpus_dir, capsys):
        code, out, err = run(capsys, "extract", "--manifest", str(corpus_dir / "manifest.tsv"))
        assert code == 0
        rows = jlines(out)
        assert {"doc_id", "type", "value"} == set(rows[0])
        values = {(r["type"], r["value"]) for r in rows}
        assert ("ip4", "9.9.9.9") in values
        assert ("url", "http://bad.example-c2.net/x") in values
        assert ("fqdn", "evil.example-c2.net") in values
        assert ("ip4", "1.2.3.4") not in values  # script content is invisible

    def test_raw_mode_offsets(self, corpus_dir, capsys):
        code, out, _ = run(
            capsys, "extract", "--manifest", str(corpus_dir / "manifest.tsv"), "--raw"
        )
        assert code == 0
        rows = jlines(out)
        assert all({"start", "raw"} <= set(r) for r in rows)
        by_doc = {}
        for record in corpus.load_manifest(corpus_dir / "manifest.tsv"):
            text = record.read_text()
            by_doc[record.doc_id] = corpus.extract_text(text) if record.format == "html" else text
        for r in rows:
            text = by_doc[r["doc_id"]]
            assert text[r["start"] : r["start"] + len(r["raw"])] == r["raw"]

    def test_types_subset(self, corpus_dir, capsys):
        code, out, _ = run(
            capsys, "extract", "--manifest", str(corpus_dir / "manifest.tsv"),
            "--types", "md5,sha256",
        )
        assert code == 0
        assert {r["type"] for r in jlines(out)} == {"md5"}

    def test_matches_library(self, corpus_dir, capsys):
        code, out, _ = run(capsys, "extract", "--manifest", str(corpus_dir / "manifest.tsv"))
        assert code == 0
        expected = []
        ex = Extractor.default()
        for record in corpus.load_manifest(corpus_dir / "manifest.tsv"):
            text = record.read_text()
            if record.format == "html":
                text = corpus.extract_text(text)
            for ind in ex.extract(text):
                expected.append(
                    json.dumps({"doc_id": record.doc_id, "type": ind.type.value, "value": ind.value})
                )
        assert out.splitlines() == expected

    def test_deterministic(self, corpus_dir, capsys):
        _, first, _ = run(capsys, "extract", "--manifest", str(corpus_dir / "manifest.tsv"))
        _, second, _ = run(capsys, "extract", "--manifest", str(corpus_dir / "manifest.tsv"))
        assert first == second

    def test_parallel_equals_serial(self, corpus_dir, capsys):
        _, serial, _ = run(capsys, "extract", "--manifest", str(corpus_dir / "manifest.tsv"))
        _, parallel, _ = run(
            capsys, "extract", "--manifest", str(corpus_dir / "manifest.tsv"), "--jobs", "2"
        )
        assert serial == parallel

    def test_raw_lines_from_workers_are_the_serial_bytes(self, corpus_dir, capsys):
        rows = (corpus_dir / "manifest.tsv").read_text().splitlines()
        rows.append(add_doc(corpus_dir, "d.txt", "mail a[at]evil[.]example.com from 10[.]0.0[.]1 "
                                                 "via hxxps://evil[.]example.com/a"))
        manifest = corpus_dir / "four.tsv"
        manifest.write_text("\n".join(rows) + "\n")
        outs = []
        for jobs in ("1", "2"):
            outs.append(corpus_dir / f"raw-{jobs}.jsonl")
            argv = ["extract", "--manifest", str(manifest), "--raw", "--jobs", jobs]
            assert run(capsys, *argv, "--out", str(outs[-1])) == (0, "", "")
        serial = outs[0].read_bytes()
        assert b'"raw": "a[at]evil[.]example.com"' in serial and b'"type": "md5"' in serial
        assert outs[1].read_bytes() == serial

    def test_jobs_start_at_most_one_worker_per_document(self, corpus_dir, capsys, monkeypatch):
        # This process extracts a share itself: --jobs N forks N - 1
        # children, and no more than there are other documents.
        forks = []
        fork = os.fork

        def recording_fork():
            forks.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", recording_fork)
        manifest = corpus_dir / "manifest.tsv"
        _, serial, _ = run(capsys, "extract", "--manifest", str(manifest))
        assert run(capsys, "extract", "--manifest", str(manifest), "--jobs", "64")[:2] == (0, serial)
        assert forks == [os.getpid()] * 2
        # One document runs in this process.
        first = corpus_dir / "first.tsv"
        first.write_text(manifest.read_text().splitlines()[0] + "\n")
        assert run(capsys, "extract", "--manifest", str(first), "--jobs", "64")[0] == 0
        assert len(forks) == 2

    def test_jobs_run_serially_without_fork(self, corpus_dir, capsys, monkeypatch):
        manifest = str(corpus_dir / "manifest.tsv")
        serial = run(capsys, "extract", "--manifest", manifest)
        monkeypatch.delattr(os, "fork")
        assert run(capsys, "extract", "--manifest", manifest, "--jobs", "3") == serial
        assert serial[0] == 0

    def test_workers_ahead_by_more_than_a_pipe_give_the_serial_output(self, tmp_path, capsys):
        # Each worker's output is several pipe buffers; it writes them while
        # this process extracts its own share. A missing document and one
        # whose hash does not match are reported in their places.
        manifest, rows = md5_corpus(tmp_path)
        (tmp_path / "7.txt").write_text("edited")
        rows.insert(11, f"{'0' * 64}\tmissing.txt\trss:x\ttext")
        manifest.write_text("\n".join(rows) + "\n")
        serial = run(capsys, "extract", "--manifest", str(manifest))
        assert serial[0] == 1 and len(serial[2].splitlines()) == 2
        assert len(serial[1]) > 3 * 3 * (1 << 16)
        assert run(capsys, "extract", "--manifest", str(manifest), "--jobs", "3") == serial

    @pytest.mark.parametrize(
        "stop, how",
        [(lambda: os._exit(3), "exit status 3"),
         (lambda: os.kill(os.getpid(), signal.SIGKILL), f"signal {int(signal.SIGKILL)}")],
    )
    def test_worker_that_stops_ends_the_run_at_its_document(
        self, tmp_path, capsys, monkeypatch, stop, how
    ):
        manifest, rows = md5_corpus(tmp_path, docs=8)
        before = tmp_path / "before.tsv"
        before.write_text("\n".join(rows[:4]) + "\n")
        _, serial_before, _ = run(capsys, "extract", "--manifest", str(before))
        this = os.getpid()
        extract_lines = cli._extract_lines

        def stop_in_a_child(extractor, raw, record):
            # Document 4 runs in the first child of --jobs 3.
            if record.path.name == "4.txt" and os.getpid() != this:
                stop()
            return extract_lines(extractor, raw, record)

        monkeypatch.setattr(cli, "_extract_lines", stop_in_a_child)
        code, out, err = run(capsys, "extract", "--manifest", str(manifest), "--jobs", "3")
        assert code == 2
        assert re.fullmatch(rf"iockit: extract worker [1-9][0-9]* stopped \({how}\)\n", err)
        assert out == serial_before

    def test_missing_manifest_exit_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "extract", "--manifest", str(tmp_path / "nope.tsv"))
        assert code == 2 and "missing file" in err

    def test_catalog_option_is_a_usage_error(self, corpus_dir, capsys):
        # The extractor is the built-in catalog; no file replaces it.
        catalog = corpus_dir / "patterns.tsv"
        catalog.write_text("md5\t[0-9a-f]{32}\n")
        with pytest.raises(SystemExit) as exit_:
            main([
                "extract", "--manifest", str(corpus_dir / "manifest.tsv"),
                "--catalog", str(catalog),
            ])
        assert exit_.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: iockit")
        assert err.endswith(f"error: unrecognized arguments: --catalog {catalog}\n")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_doc_error_continues_exit_1(self, corpus_dir, capsys, jobs):
        manifest = corpus_dir / "broken.tsv"
        good = add_doc(corpus_dir, "ok.txt", "ip 8.8.8.8 here")
        manifest.write_text(f"{'0' * 64}\tmissing.txt\trss:x\ttext\n{good}\n")
        code, out, err = run(capsys, "extract", "--manifest", str(manifest), "--jobs", jobs)
        assert code == 1
        assert any(r["value"] == "8.8.8.8" for r in jlines(out))
        assert "missing" in err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_unparseable_marked_section_does_not_stop_the_run(self, tmp_path, capsys, jobs):
        manifest = tmp_path / "manifest.tsv"
        rows = [
            add_doc(tmp_path, "bad.html", "<p>c2 8.8.4.4</p><![ x", fmt="html"),
            add_doc(tmp_path, "ok.txt", "ip 8.8.8.8 here"),
        ]
        manifest.write_text("\n".join(rows) + "\n")
        code, out, _ = run(capsys, "extract", "--manifest", str(manifest), "--jobs", jobs)
        assert code == 0
        assert {r["value"] for r in jlines(out)} == {"8.8.4.4", "8.8.8.8"}

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_unexpected_error_reported_as_the_documents(self, tmp_path, capsys, monkeypatch, jobs):
        manifest = tmp_path / "manifest.tsv"
        rows = [
            add_doc(tmp_path, "ok.txt", "ip 8.8.8.8 here"),
            add_doc(tmp_path, "bad.txt", "boom 8.8.4.4"),
            add_doc(tmp_path, "also-ok.txt", "ip 1.1.1.1 here"),
        ]
        manifest.write_text("\n".join(rows) + "\n")
        monkeypatch.setattr(cli, "_build_extractor", lambda args: FailingExtractor())
        code, out, err = run(capsys, "extract", "--manifest", str(manifest), "--jobs", jobs)
        assert code == 1
        bad_id = rows[1].split("\t")[0]
        assert err == f"iockit: {bad_id}: ValueError: boom in the extractor\n"
        assert [r["value"] for r in jlines(out)] == ["8.8.8.8", "1.1.1.1"]

    def test_unreadable_doc_is_returned_not_raised(self, tmp_path):
        # A document that vanishes after the manifest loads must not stop
        # the map over the remaining documents, in a worker or in-process.
        gone = corpus.DocumentRecord("0" * 64, tmp_path / "gone.txt", ("rss:x",), "text")
        ok, message = cli._extract_lines(Extractor.default(), False, gone)
        assert not ok
        assert message.startswith(f"{'0' * 64}: [Errno 2] No such file or directory")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_document_edited_after_load_is_not_extracted(
        self, corpus_dir, capsys, monkeypatch, jobs
    ):
        # The hash is checked on the bytes that are extracted, not on an
        # earlier read: edit a document between loading and reading.
        manifest = corpus_dir / "manifest.tsv"
        with manifest.open("a") as fh:
            fh.write("not a manifest line\n")
        load = corpus.load_manifest

        def load_then_edit(path, strict=True):
            loaded = load(path, strict)
            (corpus_dir / "a.txt").write_text("edited: c2 7.7.7.7")
            return loaded

        monkeypatch.setattr(corpus, "load_manifest", load_then_edit)
        [edited] = [r for r in load(manifest, False)[0] if r.path.name == "a.txt"]
        code, out, err = run(capsys, "extract", "--manifest", str(manifest), "--jobs", jobs)
        assert code == 1
        assert err.splitlines() == [
            f"iockit: {manifest}:4: expected 4 tab-separated fields, got 1",
            f"iockit: content of {edited.path} does not hash to {edited.doc_id}",
        ]
        rows = jlines(out)
        assert rows and edited.doc_id not in {r["doc_id"] for r in rows}
        assert "7.7.7.7" not in out

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_reader_closing_stdout_early_ends_the_run_quietly(self, tmp_path, jobs):
        # The run writes about ten pipe buffers (64 KiB each) over 20
        # documents; the reader takes one line and closes the pipe.
        import subprocess
        import sys

        manifest, _ = md5_corpus(tmp_path)
        argv = [sys.executable, "-m", "iockit.cli", "extract", "--manifest", str(manifest)]
        with subprocess.Popen(
            argv + ["--jobs", jobs], stdout=subprocess.PIPE, stderr=subprocess.PIPE
        ) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        assert json.loads(first)["type"] == "md5"
        assert err == b""
        assert proc.returncode == 1

    def test_reader_closing_unbuffered_stdout_early_ends_the_run_quietly(self, tmp_path):
        # Unbuffered, stdout is written straight to the pipe; a write that
        # the closed pipe cuts short must still fail the run. One document
        # of 5,000 md5s is one large write.
        import os
        import subprocess
        import sys

        hashes = (hashlib.md5(str(i).encode()).hexdigest() for i in range(5000))
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text(add_doc(tmp_path, "big.txt", " ".join(hashes)) + "\n")
        argv = [sys.executable, "-m", "iockit.cli", "extract", "--manifest", str(manifest)]
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        with subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        ) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        assert json.loads(first)["type"] == "md5"
        assert err == b""
        assert proc.returncode == 1

    def test_unbuffered_stdout_streams_each_document(self, tmp_path, monkeypatch):
        # Unbuffered, each document's lines reach the reader when they are
        # written, not when the run ends: look at the pipe as each document
        # is read.
        import io
        import os
        import sys

        hashes = [hashlib.md5(str(doc).encode()).hexdigest() for doc in range(3)]
        rows = [add_doc(tmp_path, f"{doc}.txt", h) for doc, h in enumerate(hashes)]
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("\n".join(rows) + "\n")
        read_end, write_end = os.pipe()
        os.set_blocking(read_end, False)
        unbuffered = io.TextIOWrapper(io.FileIO(write_end, "w"), write_through=True)
        monkeypatch.setattr(sys, "stdout", unbuffered)
        extract_lines = cli._extract_lines
        arrived = []

        def look_then_extract(extractor, raw, record):
            try:
                arrived.append(os.read(read_end, 1 << 16))
            except BlockingIOError:
                arrived.append(b"")
            return extract_lines(extractor, raw, record)

        monkeypatch.setattr(cli, "_extract_lines", look_then_extract)
        try:
            assert main(["extract", "--manifest", str(manifest), "--jobs", "1"]) == 0
            unbuffered.close()
            arrived.append(os.read(read_end, 1 << 16))
        finally:
            unbuffered.close()
            os.close(read_end)
        assert arrived[0] == b""
        assert [json.loads(chunk)["value"] for chunk in arrived[1:]] == hashes

    def test_out_file(self, corpus_dir, capsys):
        target = corpus_dir / "out.jsonl"
        code, out, _ = run(
            capsys, "extract", "--manifest", str(corpus_dir / "manifest.tsv"),
            "--out", str(target),
        )
        assert code == 0 and out == ""
        assert jlines(target.read_text())


@pytest.fixture
def tranco_file(tmp_path):
    path = tmp_path / "tranco.csv"
    path.write_text("1,google.com\n2,facebook.com\n")
    return path


class TestFilterCommand:
    def test_private_ip_rule_counts(self, tmp_path, tranco_file, capsys):
        row = add_doc(tmp_path, "d.txt", "only 192.168.1.1 here", origin="rss:noname")
        # A second indicator-free document keeps the address below the
        # ubiquity threshold, so only the private-address rule can fire.
        other = add_doc(tmp_path, "e.txt", "empty of indicators", origin="rss:noname")
        manifest = tmp_path / "m.tsv"
        manifest.write_text(row + "\n" + other + "\n")
        indicators = tmp_path / "ind.jsonl"
        doc_id = row.split("\t")[0]
        indicators.write_text(
            json.dumps({"doc_id": doc_id, "type": "ip4", "value": "192.168.1.1"}) + "\n"
        )
        generic_path = tmp_path / "generic.jsonl"
        code, out, err = run(
            capsys, "filter", "--indicators", str(indicators), "--manifest", str(manifest),
            "--tranco", str(tranco_file), "--generic-out", str(generic_path),
        )
        assert code == 0
        assert out == ""  # no IOCs survive
        assert len(jlines(generic_path.read_text())) == 1
        assert "total=1 iocs=0 generic=1" in err
        assert "private_ip=1" in err

    def test_empty_indicators(self, tmp_path, tranco_file, capsys):
        row = add_doc(tmp_path, "d.txt", "nothing to see")
        manifest = tmp_path / "m.tsv"
        manifest.write_text(row + "\n")
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        generic_path = tmp_path / "generic.jsonl"
        code, out, err = run(
            capsys, "filter", "--indicators", str(empty), "--manifest", str(manifest),
            "--tranco", str(tranco_file), "--generic-out", str(generic_path),
        )
        assert code == 0 and out == ""
        assert generic_path.read_text() == ""
        assert "total=0 iocs=0 generic=0" in err

    def test_first_rule_attribution_single_count(self, tmp_path, capsys):
        # vendor.example.com triggers both the origin rule and the
        # popularity rule; it must be counted once, under the origin rule.
        tranco = tmp_path / "tranco.csv"
        tranco.write_text("1,example.com\n")
        row = add_doc(tmp_path, "d.txt", "ref example.com", origin="rss:example.com")
        manifest = tmp_path / "m.tsv"
        manifest.write_text(row + "\n")
        doc_id = row.split("\t")[0]
        indicators = tmp_path / "ind.jsonl"
        indicators.write_text(
            json.dumps({"doc_id": doc_id, "type": "fqdn", "value": "example.com"}) + "\n"
        )
        generic_path = tmp_path / "generic.jsonl"
        code, _, err = run(
            capsys, "filter", "--indicators", str(indicators), "--manifest", str(manifest),
            "--tranco", str(tranco), "--generic-out", str(generic_path),
        )
        assert code == 0
        assert "generic=1" in err
        assert "origin_domain=1" in err and "popular_domain=0" in err

    def test_pipeline_matches_library(self, corpus_dir, tranco_file, tmp_path, capsys):
        manifest = corpus_dir / "manifest.tsv"
        extracted = tmp_path / "extracted.jsonl"
        code, _, _ = run(capsys, "extract", "--manifest", str(manifest), "--out", str(extracted))
        assert code == 0
        generic_path = tmp_path / "generic.jsonl"
        code, out, _ = run(
            capsys, "filter", "--indicators", str(extracted), "--manifest", str(manifest),
            "--tranco", str(tranco_file), "--generic-out", str(generic_path),
        )
        assert code == 0

        # Library-level reference over the same inputs.
        records = corpus.load_manifest(manifest)
        ex = Extractor.default()
        by_doc = {}
        stats = filtering.CorpusStats()
        for record in records:
            text = record.read_text()
            if record.format == "html":
                text = corpus.extract_text(text)
            by_doc[record.doc_id] = ex.extract(text)
            stats.add_document(record.origins, by_doc[record.doc_id])
        blocklist = filtering.build_blocklist(stats, tranco_file)
        expected_iocs = []
        for record in records:
            iocs, _ = filtering.apply_filter(
                sorted(by_doc[record.doc_id], key=Indicator.sort_key), blocklist
            )
            for ind in iocs:
                expected_iocs.append(
                    json.dumps({"doc_id": record.doc_id, "type": ind.type.value, "value": ind.value})
                )
        assert out.splitlines() == expected_iocs

    def test_lines_are_what_json_dumps_writes(self, corpus_dir, tranco_file, tmp_path, capsys):
        doc_id = corpus.load_manifest(corpus_dir / "manifest.tsv")[0].doc_id
        values = ['CVE-"q"', "CVE-\\b", "CVE-\x00\x1f\x7f", "CVE-\u2028", "CVE-\u00e9\U0001f600",
                  "CVE-\ud800"]
        indicators = tmp_path / "indicators.jsonl"
        indicators.write_text("".join(
            json.dumps({"doc_id": doc_id, "type": "cve", "value": v}) + "\n" for v in values
        ))
        code, out, _ = run(
            capsys, "filter", "--indicators", str(indicators),
            "--manifest", str(corpus_dir / "manifest.tsv"), "--tranco", str(tranco_file),
        )
        assert code == 0
        assert out == "".join(
            json.dumps({"doc_id": doc_id, "type": "cve", "value": v}) + "\n" for v in sorted(values)
        )

    def test_shell_pipe_reads_stdin(self, corpus_dir, tranco_file, tmp_path):
        # extract | filter through a real pipe must equal the file-based run.
        import subprocess
        import sys

        manifest = corpus_dir / "manifest.tsv"
        generic_a = tmp_path / "ga.jsonl"
        generic_b = tmp_path / "gb.jsonl"
        cli = f"{sys.executable} -m iockit.cli"
        piped = subprocess.run(
            f"{cli} extract --manifest {manifest} | {cli} filter "
            f"--manifest {manifest} --tranco {tranco_file} --generic-out {generic_a}",
            shell=True, capture_output=True, text=True,
        )
        assert piped.returncode == 0, piped.stderr
        extracted = tmp_path / "staged.jsonl"
        staged_extract = subprocess.run(
            f"{cli} extract --manifest {manifest} --out {extracted}",
            shell=True, capture_output=True, text=True,
        )
        assert staged_extract.returncode == 0
        staged = subprocess.run(
            f"{cli} filter --indicators {extracted} --manifest {manifest} "
            f"--tranco {tranco_file} --generic-out {generic_b}",
            shell=True, capture_output=True, text=True,
        )
        assert staged.returncode == 0
        assert piped.stdout == staged.stdout
        assert generic_a.read_text() == generic_b.read_text()

    def test_bad_tranco_exit_2(self, tmp_path, capsys):
        row = add_doc(tmp_path, "d.txt", "x")
        manifest = tmp_path / "m.tsv"
        manifest.write_text(row + "\n")
        empty = tmp_path / "e.jsonl"
        empty.write_text("")
        code, _, err = run(
            capsys, "filter", "--indicators", str(empty), "--manifest", str(manifest),
            "--tranco", str(tmp_path / "missing.csv"),
        )
        assert code == 2


    def filter_one_doc(self, tmp_path, tranco_file, capsys, indicator_lines, manifest_rows=()):
        """Run filter over a document with 8.8.8.8, plus the given lines.
        An indicator-free second document keeps 8.8.8.8 an IOC."""
        row = add_doc(tmp_path, "d.txt", "ip 8.8.8.8 here", origin="rss:noname")
        other = add_doc(tmp_path, "e.txt", "empty of indicators", origin="rss:noname")
        doc_id = row.split("\t")[0]
        manifest = tmp_path / "m.tsv"
        manifest.write_text("\n".join([*manifest_rows, row, other]) + "\n")
        indicators = tmp_path / "ind.jsonl"
        good = json.dumps({"doc_id": doc_id, "type": "ip4", "value": "8.8.8.8"})
        # A lone surrogate in a line stands for a byte that is not UTF-8.
        text = "\n".join([*indicator_lines, good]) + "\n"
        indicators.write_bytes(text.encode("utf-8", "surrogateescape"))
        return run(
            capsys, "filter", "--indicators", str(indicators), "--manifest", str(manifest),
            "--tranco", str(tranco_file), "--generic-out", str(tmp_path / "generic.jsonl"),
        )

    def test_missing_document_continues_exit_1(self, tmp_path, tranco_file, capsys):
        code, out, err = self.filter_one_doc(
            tmp_path, tranco_file, capsys, [],
            manifest_rows=[f"{'0' * 64}\tmoved.txt\trss:x\ttext"],
        )
        assert code == 1
        assert [r["value"] for r in jlines(out)] == ["8.8.8.8"]
        assert "moved.txt" in err
        assert err.splitlines()[-1].startswith("total=1 iocs=1 generic=0")

    def test_edited_document_is_classified(self, tmp_path, tranco_file, capsys):
        # filter needs only origins from the manifest, so it does not re-hash
        # the documents: one edited after hashing is still classified.
        rows = [
            add_doc(tmp_path, "d.txt", "ip 8.8.8.8 here", origin="rss:noname"),
            add_doc(tmp_path, "e.txt", "empty of indicators", origin="rss:noname"),
        ]
        (tmp_path / "d.txt").write_text("edited after hashing", encoding="utf-8")
        manifest = tmp_path / "m.tsv"
        manifest.write_text("\n".join(rows) + "\n")
        indicators = tmp_path / "ind.jsonl"
        doc_id = rows[0].split("\t")[0]
        indicators.write_text(json.dumps({"doc_id": doc_id, "type": "ip4", "value": "8.8.8.8"}))
        code, out, err = run(
            capsys, "filter", "--indicators", str(indicators), "--manifest", str(manifest),
            "--tranco", str(tranco_file), "--generic-out", str(tmp_path / "generic.jsonl"),
        )
        assert code == 0, err
        assert [r["value"] for r in jlines(out)] == ["8.8.8.8"]
        assert err.splitlines()[-1].startswith("total=1 iocs=1 generic=0")

    def test_unknown_doc_id_is_an_error(self, tmp_path, tranco_file, capsys):
        stray = json.dumps({"doc_id": "F" * 64, "type": "ip4", "value": "1.1.1.1"})
        code, out, err = self.filter_one_doc(tmp_path, tranco_file, capsys, [stray])
        assert code == 1
        assert [r["value"] for r in jlines(out)] == ["8.8.8.8"]
        assert f"unknown doc {'f' * 64}" in err

    @pytest.mark.parametrize(
        "line,reason",
        [
            ("{bad", "bad JSON"),
            ("[1, 2]", "not a JSON object"),
            ('{"doc_id": "x", "value": "1.1.1.1"}', "missing key 'type'"),
            ('{"type": "ip4", "value": "1.1.1.1"}', "missing key 'doc_id'"),
            ('{"doc_id": "x", "type": "ip4", "value": 7}', "'value' is not a string"),
        ],
    )
    def test_malformed_line_reported_with_location(
        self, tmp_path, tranco_file, capsys, line, reason
    ):
        code, out, err = self.filter_one_doc(tmp_path, tranco_file, capsys, ["", line])
        assert code == 1
        assert [r["value"] for r in jlines(out)] == ["8.8.8.8"]
        assert f"{tmp_path / 'ind.jsonl'}:2: {reason}" in err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith("total=1 iocs=1 generic=0")

    def test_non_utf8_line_reported_and_skipped(self, tmp_path, tranco_file, capsys):
        code, out, err = self.filter_one_doc(tmp_path, tranco_file, capsys, ["\udcff"])
        assert code == 1
        assert [r["value"] for r in jlines(out)] == ["8.8.8.8"]
        assert f"iockit: {tmp_path / 'ind.jsonl'}:1: not UTF-8\n" in err
        assert err.splitlines()[-1].startswith("total=1 iocs=1 generic=0")

    def test_non_utf8_stdin_line_reported_and_skipped(
        self, tmp_path, tranco_file, monkeypatch, capsys
    ):
        import io

        row = add_doc(tmp_path, "d.txt", "ip 8.8.8.8 here", origin="rss:noname")
        other = add_doc(tmp_path, "e.txt", "empty of indicators", origin="rss:noname")
        manifest = tmp_path / "m.tsv"
        manifest.write_text(row + "\n" + other + "\n")
        good = json.dumps({"doc_id": row.split("\t")[0], "type": "ip4", "value": "8.8.8.8"})
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe\n" + good.encode()))
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run(
            capsys, "filter", "--manifest", str(manifest), "--tranco", str(tranco_file)
        )
        assert code == 1
        assert [r["value"] for r in jlines(out)] == ["8.8.8.8"]
        first, summary = err.splitlines()
        assert first == "iockit: -:1: not UTF-8"
        assert summary.startswith("total=1 iocs=1 generic=0")

    def test_generic_lines_not_written_without_generic_out(
        self, tmp_path, tranco_file, monkeypatch, capsys
    ):
        row = add_doc(tmp_path, "d.txt", "only 192.168.1.1 here", origin="rss:noname")
        other = add_doc(tmp_path, "e.txt", "empty of indicators", origin="rss:noname")
        manifest = tmp_path / "m.tsv"
        manifest.write_text(row + "\n" + other + "\n")
        indicators = tmp_path / "ind.jsonl"
        indicators.write_text(
            json.dumps({"doc_id": row.split("\t")[0], "type": "ip4", "value": "192.168.1.1"})
        )
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.iterdir())
        code, out, err = run(
            capsys, "filter", "--indicators", str(indicators), "--manifest", str(manifest),
            "--tranco", str(tranco_file),
        )
        assert code == 0 and out == ""
        assert sorted(tmp_path.iterdir()) == before
        assert "total=1 iocs=0 generic=1" in err and "private_ip=1" in err

    def test_malformed_stdin_line_named_dash(self, tmp_path, tranco_file, monkeypatch, capsys):
        import io

        row = add_doc(tmp_path, "d.txt", "nothing")
        manifest = tmp_path / "m.tsv"
        manifest.write_text(row + "\n")
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"{bad\n")))
        code, _, err = run(
            capsys, "filter", "--manifest", str(manifest), "--tranco", str(tranco_file),
            "--generic-out", str(tmp_path / "generic.jsonl"),
        )
        assert code == 1
        assert "iockit: -:1: bad JSON" in err

    def test_unknown_type_is_not_an_error(self, tmp_path, tranco_file, capsys):
        odd = json.dumps({"doc_id": "x", "type": "filename", "value": "a.exe"})
        code, out, err = self.filter_one_doc(tmp_path, tranco_file, capsys, [odd, odd])
        assert code == 0
        assert err.count("'filename'") == 1


def tool_line(tool, doc, type_, value):
    return json.dumps({"tool": tool, "doc_id": doc, "type": type_, "value": value})


class TestCompareCommand:
    def write_outputs(self, directory, per_tool):
        directory.mkdir(exist_ok=True)
        for tool, lines in per_tool.items():
            (directory / f"{tool}.jsonl").write_text("\n".join(lines) + "\n" if lines else "")

    def write_profiles(self, path, mapping):
        path.write_text(json.dumps(mapping))

    def test_identical_tools_all_tp(self, tmp_path, capsys):
        out_dir = tmp_path / "outputs"
        self.write_outputs(out_dir, {
            "alpha": [tool_line("alpha", "d1", "ip4", "9.9.9.9")],
            "beta": [tool_line("beta", "d1", "ipv4", "9.9.9.9")],
        })
        profiles = tmp_path / "profiles.json"
        self.write_profiles(profiles, {"alpha": ["ip4"], "beta": ["ipv4addr"]})
        code, out, _ = run(
            capsys, "compare", "--outputs-dir", str(out_dir), "--profiles", str(profiles)
        )
        assert code == 0
        report = json.loads(out)
        for tool in ("alpha", "beta"):
            assert report["tools"][tool]["types"]["ip4"]["tp"] == 1
            assert report["tools"][tool]["overall"]["f1"] == 1.0

    def test_three_found_two_missed(self, tmp_path, capsys):
        out_dir = tmp_path / "outputs"
        per_tool = {f"t{i}": [tool_line(f"t{i}", "d1", "ip4", "9.9.9.9")] for i in range(3)}
        per_tool["t3"] = []
        per_tool["t4"] = []
        self.write_outputs(out_dir, per_tool)
        profiles = tmp_path / "profiles.json"
        self.write_profiles(profiles, {f"t{i}": ["ip4"] for i in range(5)})
        code, out, _ = run(
            capsys, "compare", "--outputs-dir", str(out_dir), "--profiles", str(profiles)
        )
        assert code == 0
        report = json.loads(out)
        assert report["tools"]["t0"]["types"]["ip4"]["tp"] == 1
        assert report["tools"]["t3"]["types"]["ip4"]["fn"] == 1
        assert report["type_counts"]["ip4"] == 1

    def test_single_tool_exit_2(self, tmp_path, capsys):
        out_dir = tmp_path / "outputs"
        self.write_outputs(out_dir, {"solo": [tool_line("solo", "d1", "ip4", "1.1.1.1")]})
        profiles = tmp_path / "profiles.json"
        self.write_profiles(profiles, {"solo": ["ip4"]})
        code, _, err = run(
            capsys, "compare", "--outputs-dir", str(out_dir), "--profiles", str(profiles)
        )
        assert code == 2 and "at least 2" in err

    def test_missing_profile_exit_2(self, tmp_path, capsys):
        out_dir = tmp_path / "outputs"
        self.write_outputs(out_dir, {
            "a": [tool_line("a", "d1", "ip4", "1.1.1.1")],
            "b": [tool_line("b", "d1", "ip4", "1.1.1.1")],
        })
        profiles = tmp_path / "profiles.json"
        self.write_profiles(profiles, {"a": ["ip4"]})
        code, _, err = run(
            capsys, "compare", "--outputs-dir", str(out_dir), "--profiles", str(profiles)
        )
        assert code == 2 and "b" in err

    def test_error_marker_counts_as_missed(self, tmp_path, capsys):
        out_dir = tmp_path / "outputs"
        self.write_outputs(out_dir, {
            "a": [tool_line("a", "d1", "ip4", "9.9.9.9")],
            "b": [tool_line("b", "d1", "ip4", "9.9.9.9")],
            "c": [json.dumps({"tool": "c", "doc_id": "d1", "error": "crash"})],
        })
        profiles = tmp_path / "profiles.json"
        self.write_profiles(profiles, {t: ["ip4"] for t in "abc"})
        code, out, _ = run(
            capsys, "compare", "--outputs-dir", str(out_dir), "--profiles", str(profiles)
        )
        assert code == 0
        report = json.loads(out)
        assert report["tools"]["c"]["types"]["ip4"]["fn"] == 1

    def test_value_normalization_on_load(self, tmp_path, capsys):
        out_dir = tmp_path / "outputs"
        self.write_outputs(out_dir, {
            "a": [tool_line("a", "d1", "fqdn", "Example.COM"),
                  tool_line("a", "d1", "asn", "asn1234"),
                  tool_line("a", "d1", "url", "evil.example/p")],
            "b": [tool_line("b", "d1", "domain", "example.com"),
                  tool_line("b", "d1", "as", "AS1234"),
                  tool_line("b", "d1", "uri", "http://evil.example/p")],
        })
        profiles = tmp_path / "profiles.json"
        self.write_profiles(profiles, {"a": ["fqdn", "asn", "url"], "b": ["fqdn", "asn", "url"]})
        code, out, _ = run(
            capsys, "compare", "--outputs-dir", str(out_dir), "--profiles", str(profiles)
        )
        assert code == 0
        report = json.loads(out)
        for tool in ("a", "b"):
            overall = report["tools"][tool]["overall"]
            assert overall["tp"] == 3 and overall["fp"] == 0

    def test_csv_written(self, tmp_path, capsys):
        out_dir = tmp_path / "outputs"
        self.write_outputs(out_dir, {
            "a": [tool_line("a", "d1", "ip4", "1.1.1.1")],
            "b": [tool_line("b", "d1", "ip4", "1.1.1.1")],
        })
        profiles = tmp_path / "profiles.json"
        self.write_profiles(profiles, {"a": ["ip4"], "b": ["ip4"]})
        csv_path = tmp_path / "table.csv"
        code, _, _ = run(
            capsys, "compare", "--outputs-dir", str(out_dir), "--profiles", str(profiles),
            "--csv", str(csv_path),
        )
        assert code == 0
        content = csv_path.read_text()
        assert content.startswith("indicator,count")
        assert "ALL," in content

    def test_non_utf8_line_reported_and_skipped(self, tmp_path, capsys):
        out_dir = tmp_path / "outputs"
        self.write_outputs(out_dir, {
            "a": [tool_line("a", "d1", "ip4", "1.1.1.1")],
            "b": [tool_line("b", "d1", "ip4", "1.1.1.1")],
        })
        with open(out_dir / "a.jsonl", "ab") as stream:
            stream.write(b'{"tool": "a", "doc_id": "d1", "type": "ip4", "value": "\xff"}\n')
        profiles = tmp_path / "profiles.json"
        self.write_profiles(profiles, {"a": ["ip4"], "b": ["ip4"]})
        code, out, err = run(
            capsys, "compare", "--outputs-dir", str(out_dir), "--profiles", str(profiles)
        )
        assert code == 1
        assert err == f"iockit: {out_dir / 'a.jsonl'}:2: not UTF-8\n"
        assert json.loads(out)["tools"]["a"]["types"]["ip4"]["tp"] == 1

    def test_unknown_types_skipped_with_warning(self, tmp_path, capsys):
        out_dir = tmp_path / "outputs"
        self.write_outputs(out_dir, {
            "a": [tool_line("a", "d1", "filename", "x.exe"),
                  tool_line("a", "d1", "ip4", "1.1.1.1")],
            "b": [tool_line("b", "d1", "ip4", "1.1.1.1")],
        })
        profiles = tmp_path / "profiles.json"
        self.write_profiles(profiles, {"a": ["ip4"], "b": ["ip4"]})
        code, out, err = run(
            capsys, "compare", "--outputs-dir", str(out_dir), "--profiles", str(profiles)
        )
        assert code == 0
        assert "filename" in err
        report = json.loads(out)
        assert set(report["type_counts"]) == {"ip4"}

    @pytest.mark.parametrize(
        "line,reason",
        [
            ("{bad", "bad JSON"),
            ('"text"', "not a JSON object"),
            (json.dumps({"tool": "a", "doc_id": "d1"}), "missing key 'type'"),
            (json.dumps({"doc_id": "d1", "error": "crash"}), "missing key 'tool'"),
            # A falsy error value makes an indicator line, which needs a type.
            (json.dumps({"tool": "a", "doc_id": "d1", "error": ""}), "missing key 'type'"),
            (json.dumps({"tool": "a", "doc_id": 1, "type": "ip4", "value": "1.1.1.1"}),
             "'doc_id' is not a string"),
        ],
    )
    def test_malformed_line_reported_with_location(self, tmp_path, capsys, line, reason):
        out_dir = tmp_path / "outputs"
        self.write_outputs(out_dir, {
            "a": [tool_line("a", "d1", "ip4", "1.1.1.1"), line],
            "b": [tool_line("b", "d1", "ip4", "1.1.1.1")],
        })
        profiles = tmp_path / "profiles.json"
        self.write_profiles(profiles, {"a": ["ip4"], "b": ["ip4"]})
        code, out, err = run(
            capsys, "compare", "--outputs-dir", str(out_dir), "--profiles", str(profiles)
        )
        assert code == 1
        assert f"{out_dir / 'a.jsonl'}:2: {reason}" in err
        report = json.loads(out)
        assert report["tools"]["a"]["types"]["ip4"]["tp"] == 1


def _argv_writing_to(command, directory, tranco_file, target):
    """A run of ``command`` on a well-formed input whose output file is ``target``."""
    manifest = str(directory / "manifest.tsv")
    if command == "extract":
        return ["extract", "--manifest", manifest, "--out", str(target)]
    if command == "filter":
        empty = directory / "empty.jsonl"
        empty.write_text("")
        return ["filter", "--indicators", str(empty), "--manifest", manifest,
                "--tranco", str(tranco_file), "--generic-out", str(target)]
    outputs = directory / "outputs"
    TestCompareCommand().write_outputs(outputs, {
        "a": [tool_line("a", "d1", "ip4", "1.1.1.1")],
        "b": [tool_line("b", "d1", "ip4", "1.1.1.1")],
    })
    profiles = directory / "profiles.json"
    profiles.write_text(json.dumps({"a": ["ip4"], "b": ["ip4"]}))
    return ["compare", "--outputs-dir", str(outputs), "--profiles", str(profiles),
            "--csv", str(target)]


@pytest.mark.parametrize("command", ["extract", "filter", "compare"])
def test_unopenable_output_path_exit_2(corpus_dir, tranco_file, capsys, command):
    target = corpus_dir / "no-such-dir" / "out"
    code, _, err = run(capsys, *_argv_writing_to(command, corpus_dir, tranco_file, target))
    assert code == 2
    assert err == f"iockit: {target}: No such file or directory\n"


@pytest.mark.parametrize("command", ["extract", "filter", "compare"])
def test_output_to_dev_null(corpus_dir, tranco_file, capsys, command):
    # A character device is written to, never truncated.
    code, _, err = run(capsys, *_argv_writing_to(command, corpus_dir, tranco_file, os.devnull))
    assert code == 0, err


def test_filter_unopenable_generic_out_leaves_out_untouched(corpus_dir, tranco_file, capsys):
    target = corpus_dir / "no-such-dir" / "out"
    kept = corpus_dir / "iocs.jsonl"
    kept.write_text("kept\n")
    argv = _argv_writing_to("filter", corpus_dir, tranco_file, target) + ["--out", str(kept)]
    code, _, _ = run(capsys, *argv)
    assert code == 2
    assert kept.read_text() == "kept\n"


@pytest.mark.parametrize("report", ["stdout", "new file"])
def test_compare_unopenable_csv_writes_no_report(corpus_dir, tranco_file, capsys, report):
    target = corpus_dir / "no-such-dir" / "out"
    argv = _argv_writing_to("compare", corpus_dir, tranco_file, target)
    report_path = corpus_dir / "report.json"
    if report == "new file":
        argv += ["--out", str(report_path)]
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert not report_path.exists()


#: Inputs a command cannot use, each given to it in place of a good one:
#: name -> (command, option, file content, exit code, end of the message).
UNUSABLE_INPUTS = {
    "manifest not UTF-8": ("extract", "--manifest", b"# docs\n\xff\n", 2, ":2: not UTF-8"),
    "tld file not UTF-8": ("extract", "--tld-file", b"com\nn\xc3t\n", 2, ":2: not UTF-8"),
    "bad tranco line": (
        "filter", "--tranco", b"1,good.com\nnot-a-rank,x.com\n", 2, ":2: expected 'rank,domain'"),
    "tranco rank not ASCII": (
        "filter", "--tranco", "\u00b2,example.com\n".encode(), 2, ":1: expected 'rank,domain'"),
    "profiles bad JSON": ("compare", "--profiles", b'{"a":\n [', 2, ":2: bad JSON"),
    "profiles not UTF-8": ("compare", "--profiles", b'{"a": ["\xff"]}', 2, ": not UTF-8"),
    "profiles a list": ("compare", "--profiles", b'["ip4"]', 2, ": expected an object"),
    "profiles a number": ("compare", "--profiles", b'{"a": 3}', 2, ": expected an object"),
    "profiles a string": ("compare", "--profiles", b'{"a": "ip4"}', 2, ": expected an object"),
    "profiles unknown type": (
        "compare", "--profiles", b'{"a": ["yara"]}', 2, ": unsupported indicator type: 'yara'"),
    "manifest bad line": ("extract", "--manifest", None, 1, ":4: expected 4 tab-separated"),
}


@pytest.mark.parametrize("case", UNUSABLE_INPUTS)
def test_unusable_input_is_reported_with_its_path(corpus_dir, tranco_file, capsys, case):
    command, option, content, expected_code, message_end = UNUSABLE_INPUTS[case]
    bad = corpus_dir / "bad-input"
    if content is None:  # a good manifest with one malformed line at the end
        content = (corpus_dir / "manifest.tsv").read_bytes() + b"only one field\n"
    bad.write_bytes(content)
    argv = _argv_writing_to(command, corpus_dir, tranco_file, corpus_dir / "out")
    code, out, err = run(capsys, *argv, option, str(bad))
    assert code == expected_code
    assert out == ""
    assert len(err.splitlines()) == 1, err
    assert err.startswith(f"iockit: {bad}{message_end}"), err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "x"])
def test_doc_freq_threshold_must_be_finite(corpus_dir, tranco_file, capsys, value):
    argv = _argv_writing_to("filter", corpus_dir, tranco_file, corpus_dir / "out")
    with pytest.raises(SystemExit) as exit_:
        main([*argv, f"--doc-freq-threshold={value}"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: iockit filter")
    assert err.endswith(f"error: argument --doc-freq-threshold: not a finite number: {value!r}\n")


def test_filter_help_names_the_blocklist_defaults(capsys):
    # The parser leaves the thresholds unset, so build_blocklist's defaults
    # apply; its help must name the same values.
    with pytest.raises(SystemExit):
        main(["filter", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"rule 2 (default: {filtering.DEFAULT_MIN_ORIGIN_DOCS})" in help_text
    assert f"rule 4 (default: {filtering.DEFAULT_DOC_FREQ_THRESHOLD:.2f})" in help_text


@pytest.mark.parametrize("value", ["0", "-2", "x"])
def test_jobs_must_be_positive(corpus_dir, capsys, value):
    with pytest.raises(SystemExit) as exit_:
        main(["extract", "--manifest", str(corpus_dir / "manifest.tsv"), f"--jobs={value}"])
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: iockit extract")
    assert err.endswith(f"error: argument --jobs: not a positive integer: {value!r}\n")


#: Strings that JSON must escape or that json.dumps writes as ASCII escapes:
#: quotes, backslashes, control characters, U+2028, non-ASCII, lone surrogates.
_JSON_HOSTILE = st.text(st.one_of(
    st.characters(),
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x80\u2028\u2029\u00e9\ud800\udbff\udc00\udfff\U0001f600'),
))


@given(
    doc_id=_JSON_HOSTILE,
    rows=st.lists(st.tuples(
        st.sampled_from(IndicatorType), _JSON_HOSTILE, st.integers(min_value=0), _JSON_HOSTILE,
    ), max_size=4),
)
def test_output_lines_are_what_json_dumps_writes(doc_id, rows):
    # extract's lines with and without --raw; filter's lines are the former.
    indicators = [Indicator(t, value) for t, value, _, _ in rows]
    assert list(cli._json_lines(doc_id, indicators)) == [
        json.dumps({"doc_id": doc_id, "type": i.type.value, "value": i.value}) + "\n"
        for i in indicators
    ]
    matches = [RawMatch(t, start, raw, value) for t, value, start, raw in rows]
    assert list(cli._json_lines(doc_id, matches, raw=True)) == [
        json.dumps({"doc_id": doc_id, "type": m.type.value, "value": m.rearmed,
                    "start": m.start, "raw": m.raw}) + "\n"
        for m in matches
    ]


def _reference_lines(data: bytes, path: str, keys: tuple[str, ...]):
    """What the per-line reader that ``json.loads`` each line read from
    ``data``: its records, its stderr lines and its malformed count."""
    import io

    from iockit.errors import UnknownTypeError
    from iockit.normalize import normalize
    from iockit.types import normalize_type_name

    records, messages, types = [], [], {}

    def parse(line: bytes):
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError("not UTF-8") from None
        if text.isspace():
            return None
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad JSON: {exc.msg} at column {exc.colno}") from None
        if not isinstance(obj, dict):
            raise ValueError("not a JSON object")
        error = obj.get("error")
        for key in keys if error else keys + ("type", "value"):
            if not isinstance(obj.get(key), str):
                if key not in obj:
                    raise ValueError(f"missing key {key!r}")
                raise ValueError(f"{key!r} is not a string")
        tool, doc_id = obj.get("tool"), obj["doc_id"].lower()
        if error:
            return tool, doc_id, None
        name = obj["type"]
        if name not in types:
            try:
                types[name] = normalize_type_name(name)
            except UnknownTypeError:
                types[name] = None
                messages.append(f"iockit: skipping unsupported indicator type {name!r}")
        if types[name] is None:
            return None
        return tool, doc_id, Indicator(types[name], normalize(types[name], obj["value"]))

    malformed = 0
    # Lines end at b"\n" only, as a binary file's iteration ends them.
    for line_no, line in enumerate(io.BytesIO(data), 1):
        try:
            record = parse(line)
        except ValueError as exc:
            messages.append(f"iockit: {path}:{line_no}: {exc}")
            malformed += 1
            continue
        if record is not None:
            records.append(record)
    return records, messages, malformed


_GOOD = {"tool": "a", "doc_id": "D1", "type": "ip4", "value": "1.1.1.1"}
_READER_LINES = [
    json.dumps(_GOOD),
    # whitespace around the object, and line endings
    "  \t" + json.dumps(_GOOD) + " \t ",
    json.dumps(_GOOD) + "\r",
    "\r" + json.dumps(_GOOD),
    "\x0c" + json.dumps(_GOOD),
    "\xa0" + json.dumps(_GOOD),
    json.dumps(_GOOD) + "\xa0",
    json.dumps(_GOOD) + "\x1c",
    # lines blank to str.isspace, JSON whitespace or not
    "", "   ", "\t\r", "\x1c", "\x85", "\xa0", "\u2028 \x0b",
    # a byte order mark after line 1 (_BOM_DATA has one on line 1)
    "\ufeff" + json.dumps(_GOOD),
    # trailing data after the object
    json.dumps(_GOOD) + " x",
    json.dumps(_GOOD) + json.dumps(_GOOD),
    json.dumps(_GOOD) + ",",
    json.dumps(_GOOD) + "]",
    json.dumps(_GOOD)[:-1],
    "{bad", "{}", "[]",
    # non-object JSON
    "[1, 2]", '"text"', "42", "null", "true", "NaN", "-Infinity",
    # NaN and Infinity values
    '{"tool": "a", "doc_id": "d2", "type": "ip4", "value": NaN}',
    '{"tool": "a", "doc_id": "d2", "type": "ip4", "value": "2.2.2.2", "n": Infinity}',
    '{"tool": "a", "doc_id": "d2", "error": NaN}',
    '{"tool": "a", "doc_id": "d2", "error": -Infinity, "type": 1}',
    # duplicate keys: the last one counts
    '{"tool": "a", "doc_id": "d3", "type": 7, "type": "fqdn", "value": "X.example.com"}',
    '{"tool": "a", "doc_id": "d3", "type": "fqdn", "value": "x.example.com", "value": 7}',
    '{"tool": "a", "doc_id": "d3", "error": "x", "error": ""}',
    # nested values
    '{"tool": "a", "doc_id": "d4", "type": "md5", "value": "' + "A" * 32 + '", '
    '"extra": {"k": [1, {"m": null}, [[]]]}}',
    '{"tool": "a", "doc_id": "d4", "type": "md5", "value": ["' + "a" * 32 + '"]}',
    '{"tool": ["a"], "doc_id": "d4", "type": "md5", "value": "' + "a" * 32 + '"}',
    '{"tool": "a", "doc_id": {"id": "d4"}, "error": "crash"}',
    # \u escapes, surrogates included
    '{"tool": "\\u0061", "doc_id": "\\u0044\\u0035", "type": "\\u0069p4", "value": "5.5.5.\\u0035"}',
    '{"tool": "a", "doc_id": "d5", "type": "url", "value": "http://x.example/\\ud800\\udc00"}',
    '{"tool": "a", "doc_id": "d5", "type": "url", "value": "example.com/\\udfff"}',
    '{"tool": "a", "doc_id": "d5", "type": "url", "value": "a\\u0000b"}',
    '{"tool": "a", "doc_id": "d5", "type": "url", "value": "a\tb"}',
    # error lines: a truthy error needs no type or value, a falsy one does
    '{"tool": "a", "doc_id": "D6", "error": "timeout"}',
    '{"tool": "a", "doc_id": "d6", "error": 1}',
    '{"tool": "a", "doc_id": "d6", "error": true, "type": 5, "value": null}',
    '{"tool": "a", "doc_id": "d6", "error": [0]}',
    '{"tool": "a", "doc_id": "d6", "error": {"x": 0}}',
    '{"tool": "a", "doc_id": "d6", "error": ""}',
    '{"tool": "a", "doc_id": "d6", "error": false}',
    '{"tool": "a", "doc_id": "d6", "error": null}',
    '{"tool": "a", "doc_id": "d6", "error": 0}',
    '{"tool": "a", "doc_id": "d6", "error": 0.0}',
    '{"tool": "a", "doc_id": "d6", "error": []}',
    '{"tool": "a", "doc_id": "d6", "error": {}}',
    '{"tool": "a", "doc_id": "d6", "error": "", "type": "asn", "value": "asn 13335"}',
    '{"tool": "a", "doc_id": "d6", "error": false, "type": "cve", "value": "cve-2021-44228"}',
    # lines without a tool, or with one that is not a string
    '{"doc_id": "d7", "type": "ip4", "value": "7.7.7.7"}',
    '{"tool": 7, "doc_id": "d7", "type": "ip4", "value": "7.7.7.7"}',
    '{"doc_id": "d7", "error": "crash"}',
    # unknown types: each is warned about once
    '{"tool": "a", "doc_id": "d8", "type": "filename", "value": "a.exe"}',
    '{"tool": "b", "doc_id": "d8", "type": "filename", "value": "b.exe"}',
    '{"tool": "a", "doc_id": "d8", "type": "", "value": "x"}',
    # the same indicator from another tool, under an alias and another case
    '{"tool": "b", "doc_id": "d1", "type": "IPv4", "value": "1.1.1.1"}',
    '{"tool": "b", "doc_id": "d4", "type": "md5", "value": "' + "a" * 32 + '"}',
]
# Then invalid UTF-8, alone and inside a value, and a last line with no newline.
_READER_DATA = ("\n".join(_READER_LINES).encode() + b"\n\xff\xfe\n{\"doc_id\": \"\xc3\"}\n"
                + "\u00e9".encode() + b"\n" + json.dumps(_GOOD).encode())
_BOM_DATA = b"\xef\xbb\xbf" + (json.dumps(_GOOD) + "\r\n").encode() * 2


@pytest.mark.parametrize("keys", [("doc_id",), ("tool", "doc_id")], ids=["filter", "compare"])
@pytest.mark.parametrize("stdin", [False, True], ids=["file", "stdin"])
@pytest.mark.parametrize("data", [_READER_DATA, _BOM_DATA], ids=["cases", "bom"])
def test_reader_reads_what_json_loads_reads(tmp_path, capsys, monkeypatch, keys, stdin, data):
    import io

    if stdin:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        path = "-"
    else:
        path = str(tmp_path / "lines.jsonl")
        (tmp_path / "lines.jsonl").write_bytes(data)
    reader = cli._IndicatorLines([path], keys, shared=len(keys) > 1)
    records = list(reader)
    err = capsys.readouterr().err
    expected, messages, malformed = _reference_lines(data, path, keys)
    assert records == expected
    assert err.splitlines() == messages
    assert reader.malformed == malformed


@pytest.mark.parametrize("shared", [False, True])
def test_shared_reader_converts_each_pair_once(tmp_path, shared):
    path = tmp_path / "lines.jsonl"
    path.write_text("".join(
        tool_line(tool, "d1", name, "1.1.1.1") + "\n"
        for tool, name in (("a", "ip4"), ("b", "ip4"), ("a", "IPv4"))
    ))
    (_, _, first), (_, _, second), (_, _, alias) = cli._IndicatorLines(
        [str(path)], ("tool", "doc_id"), shared=shared
    )
    assert first == second == alias == Indicator(T.IP4, "1.1.1.1")
    # Only the same type name and value share one object.
    assert (first is second) is shared
    assert first is not alias


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _JSON_HOSTILE,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_JSON_HOSTILE, inner, max_size=3),
    max_leaves=6,
)


@given(
    fields=st.lists(st.tuples(
        st.sampled_from(["tool", "doc_id", "type", "value", "error", "x"]),
        st.one_of(st.sampled_from(["a", "ip4", "MD5", "domain", "asn", "", "D"]), _JSON_VALUES),
    ), max_size=6),
    before=st.text(" \t\r\x0c\xa0\x85\x1c\ufeff", max_size=2),
    after=st.text(" \t\r\x0c\xa0\x85\x1c,}]x", max_size=2),
    escape=st.booleans(),
)
def test_reader_reads_random_lines_as_json_loads_does(fields, before, after, escape):
    # The object's text, with whitespace or junk before and after it.
    import contextlib
    import io
    import tempfile

    body = "{" + ", ".join(
        f"{json.dumps(key)}: {json.dumps(value, ensure_ascii=escape)}" for key, value in fields
    ) + "}"
    data = (before + body + after).encode("utf-8", "surrogatepass") + b"\n"
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "lines.jsonl")
        with open(path, "wb") as stream:
            stream.write(data)
        for keys in (("doc_id",), ("tool", "doc_id")):
            err = io.StringIO()
            reader = cli._IndicatorLines([path], keys, shared=len(keys) > 1)
            with contextlib.redirect_stderr(err):
                records = list(reader)
            expected, messages, malformed = _reference_lines(data, path, keys)
            assert records == expected
            assert err.getvalue().splitlines() == messages
            assert reader.malformed == malformed


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path, planted_corpus):
    # Set and dict order must not leak into any output: each command runs in
    # a fresh interpreter under two hash seeds, and every byte it writes,
    # its exit code included, must be the same.
    import subprocess
    import sys

    from iockit.errors import DATA

    # Each document also names its origin's domain, a popular domain and a
    # private address, so that the filter's rules fire.
    texts = [
        f"{text}\nfeed{i % 4}.example.com google.com 10.0.0.{i % 4}"
        for i, text in enumerate(planted_corpus[:100])
    ]
    rows = [
        add_doc(tmp_path, f"d{i}.txt", text, origin=f"rss:feed{i % 4}.example.com")
        for i, text in enumerate(texts)
    ]
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("\n".join(rows) + "\n")
    # Three tools' outputs for compare, each tool one extractor.
    tools = tmp_path / "tools"
    tools.mkdir()
    extractors = {
        "full": Extractor(), "plain": Extractor(defanged=False), "loose": Extractor(validation=False)
    }
    for tool, extractor in extractors.items():
        with open(tools / f"{tool}.jsonl", "w", encoding="utf-8") as out:
            for row, text in zip(rows, texts):
                for ind in extractor.extract(text):
                    line = {"tool": tool, "doc_id": row.split("\t")[0], "type": ind.type.value,
                            "value": ind.value}
                    out.write(json.dumps(line) + "\n")
    names = [t.value for t in T]
    profiles = tmp_path / "profiles.json"
    profiles.write_text(json.dumps({"full": names, "plain": names, "loose": names[::2]}))

    def outputs(seed):
        out = tmp_path / f"seed{seed}"
        out.mkdir()
        commands = [
            ["extract", "--manifest", str(manifest), "--out", str(out / "extract.jsonl")],
            ["extract", "--manifest", str(manifest), "--raw"],
            ["filter", "--indicators", str(out / "extract.jsonl"), "--manifest", str(manifest),
             "--tranco", str(DATA / "tranco_snapshot.csv"), "--min-origin-docs", "5",
             "--out", str(out / "iocs.jsonl"), "--generic-out", str(out / "generic.jsonl")],
            ["compare", "--outputs-dir", str(tools), "--profiles", str(profiles),
             "--csv", str(out / "table.csv")],
        ]
        runs = []
        for argv in commands:
            done = subprocess.run(
                [sys.executable, "-m", "iockit.cli", *argv], capture_output=True, timeout=120,
                env={**os.environ, "PYTHONHASHSEED": str(seed)},
            )
            runs.append((done.returncode, done.stdout, done.stderr))
        files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        return runs, files

    first, second = outputs(0), outputs(1)
    assert first == second
    runs, files = first
    assert [code for code, _, _ in runs] == [0, 0, 0, 0]
    assert [bool(stdout) for _, stdout, _ in runs] == [False, True, False, True]
    assert all(files.values()) and files.keys() == {
        "extract.jsonl", "iocs.jsonl", "generic.jsonl", "table.csv"}
