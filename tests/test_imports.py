"""What a cold start imports: each check runs in a fresh interpreter, started
without ``site`` so that nothing but iockit decides what is loaded."""
import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import iockit

#: The directory iockit is imported from, put on the fresh interpreter's path.
_SRC = str(Path(iockit.__file__).resolve().parents[1])

#: Modules ``iockit extract`` does not run: a fresh ``import iockit.cli``
#: must load none of them.
NOT_AT_START = (
    "dataclasses", "inspect", "html.parser", "fractions", "csv",
    "iockit.filtering", "iockit.harness",
)


def fresh(code: str):
    """The JSON that ``code`` prints, run in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": _SRC}
    done = subprocess.run(
        [sys.executable, "-S", "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_benchmark_setup_probe_runs_against_src():
    # The probe loads data/patterns.tsv, whose every line must name a
    # type, so a file with any other line fails it.
    probe = Path(__file__).resolve().parents[1] / "perfbench" / "probe_setup.py"
    done = subprocess.run(
        [sys.executable, "-S", str(probe)], env={**os.environ, "PYTHONPATH": _SRC},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    timings = json.loads(done.stdout.splitlines()[-1])
    assert {"setup_s", "cli.import.s", "extractor.build.s", "filtering.load_tranco.s"} <= set(
        timings
    )
    assert Path(timings["module"]).resolve().is_relative_to(_SRC)


def test_cli_import_loads_no_module_a_command_may_not_run():
    loaded = fresh("""
        import json, sys
        import iockit.cli
        print(json.dumps(sorted(sys.modules)))
    """)
    assert [name for name in NOT_AT_START if name in loaded] == []


def test_package_import_loads_no_submodule():
    loaded = fresh("""
        import json, sys
        import iockit
        print(json.dumps([name for name in sys.modules if name.startswith("iockit.")]))
    """)
    assert loaded == []


def run_fresh(argv):
    """The exit code of ``cli.main(argv)`` in a fresh interpreter, and the
    modules it loaded that a bare interpreter does not hold."""
    bare = fresh("""
        import json, sys
        print(json.dumps(sorted(sys.modules)))
    """)
    code, loaded = fresh(f"""
        import json, sys
        from iockit import cli
        code = cli.main({argv!r})
        print(json.dumps([code, sorted(sys.modules)]))
    """)
    return code, set(loaded) - set(bare)


@pytest.fixture
def one_doc(tmp_path):
    """A manifest of one URL document, its indicator line and a popularity file."""
    (tmp_path / "a.txt").write_text("c2 198.51.100.7 at http://u@evil.example.com/x")
    doc_id = hashlib.sha256((tmp_path / "a.txt").read_bytes()).hexdigest()
    (tmp_path / "manifest.tsv").write_text(f"{doc_id}\ta.txt\trss:feed.example.com\ttext\n")
    line = {"doc_id": doc_id, "type": "url", "value": "http://u@evil.example.com/x"}
    (tmp_path / "found.jsonl").write_text(json.dumps(line) + "\n")
    (tmp_path / "tranco.csv").write_text("1,example.org\n")
    return tmp_path


def test_filter_loads_no_extractor_module(one_doc):
    # The filter reads URL syntax from normalize, which every command loads.
    # It compares document frequencies in integers, without fractions.
    argv = ["filter", "--indicators", str(one_doc / "found.jsonl"), "--manifest",
            str(one_doc / "manifest.tsv"), "--tranco", str(one_doc / "tranco.csv"),
            "--out", str(one_doc / "iocs.jsonl")]
    code, loaded = run_fresh(argv)
    assert code == 0 and "iockit.filtering" in loaded
    not_run = ("iockit.defang", "iockit.extractor", "iockit.patterns", "iockit.validators",
               "fractions", "decimal")
    assert [name for name in not_run if name in loaded] == []


def test_extract_imports_no_ipaddress(one_doc):
    # One expression checks ip6; ``ipaddress`` is left to the tests as its
    # oracle. Before Python 3.13 ``pathlib`` loads ``ipaddress`` through
    # ``urllib.parse``, so the fresh interpreter loads ``pathlib`` first and
    # then makes every later ``import ipaddress`` fail.
    (one_doc / "a.txt").write_text("c2 2001:db8::7 and ::ffff:198.51.100.7 at http://[::1]/x")
    doc_id = hashlib.sha256((one_doc / "a.txt").read_bytes()).hexdigest()
    (one_doc / "manifest.tsv").write_text(f"{doc_id}\ta.txt\trss:feed.example.com\ttext\n")
    argv = ["extract", "--manifest", str(one_doc / "manifest.tsv"), "--out", str(one_doc / "out.jsonl")]
    code = fresh(f"""
        import json, pathlib, sys
        sys.modules["ipaddress"] = None
        from iockit import cli
        print(json.dumps(cli.main({argv!r})))
    """)
    assert code == 0
    assert (one_doc / "out.jsonl").read_text().count('"ip6"') == 3


def test_ip6_expression_compiles_for_the_first_ip6():
    # Building an extractor compiles no ip6 expression, and neither does a
    # text without an ip6 candidate: a run that finds none never pays for it.
    compiled = fresh("""
        import json
        from iockit import Extractor, validators
        extractor, counts = Extractor(), []
        for text in ("", "mail ops@evil.org", "c2 2001:db8::7"):
            extractor.extract(text)
            counts.append(validators._ip6_match.cache_info().currsize)
        print(json.dumps(counts))
    """)
    assert compiled == [0, 0, 1]


def test_parallel_extract_loads_no_process_pool(one_doc):
    # --jobs forks its own workers.
    (one_doc / "b.txt").write_text("c2 198.51.100.7 again")
    doc_id = hashlib.sha256((one_doc / "b.txt").read_bytes()).hexdigest()
    manifest = one_doc / "manifest.tsv"
    with manifest.open("a") as fh:
        fh.write(f"{doc_id}\tb.txt\trss:feed.example.com\ttext\n")
    argv = ["extract", "--manifest", str(manifest), "--jobs", "2",
            "--out", str(one_doc / "out.jsonl")]
    code, loaded = run_fresh(argv)
    assert code == 0 and "iockit.extractor" in loaded
    assert (one_doc / "out.jsonl").read_text().count('"198.51.100.7"') == 2
    assert [name for name in loaded if name.startswith(("concurrent", "multiprocessing"))] == []


@pytest.mark.parametrize(
    "html, parsed",
    [("<p>in the <b>subset</b></p>", False), ("<p>outside<![CDATA[x]]></p>", True)],
)
def test_html_parser_loaded_only_on_fallback(html, parsed):
    loaded = fresh(f"""
        import json, sys
        from iockit.corpus import extract_text
        extract_text({html!r})
        print(json.dumps("html.parser" in sys.modules))
    """)
    assert loaded is parsed


def test_every_export_resolves():
    resolved = fresh("""
        import json
        import iockit
        from iockit import Extractor
        names = {name: type(getattr(iockit, name)).__name__ for name in iockit.__all__}
        star = {}
        exec("from iockit import *", star)
        print(json.dumps({
            "names": names,
            "star": sorted(name for name in star if not name.startswith("__")),
            "star_types": {name: type(star[name]).__name__ for name in iockit.__all__},
        }))
    """)
    assert sorted(resolved["names"]) == sorted(iockit.__all__)
    assert resolved["star"] == sorted(iockit.__all__)
    # Importing a submodule binds its name in the package; ``defang`` and
    # ``normalize`` stay the exported functions all the same.
    assert resolved["names"]["defang"] == resolved["names"]["normalize"] == "function"
    assert resolved["star_types"] == resolved["names"]


def test_exports_are_the_modules_objects():
    from iockit import corpus, defang, extractor, harness, normalize

    for name in iockit.__all__:
        assert getattr(iockit, name) is getattr(sys.modules[f"iockit.{iockit._EXPORTS[name]}"], name)
    assert corpus is sys.modules["iockit.corpus"]
    assert defang is sys.modules["iockit.defang"].defang
    assert normalize is sys.modules["iockit.normalize"].normalize
    assert extractor.Extractor is iockit.Extractor and harness.compare is iockit.compare


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        iockit.nope  # noqa: B018
    assert not hasattr(iockit, "load_catalog")
