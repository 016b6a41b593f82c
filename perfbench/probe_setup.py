"""Cold-start probe, run in a fresh interpreter by run.py.

Times what every CLI invocation pays before it touches its input: importing
``iockit.cli``, building the default extractor the way the CLI builds it,
and loading the shipped popularity snapshot. Prints one JSON object.

    PYTHONPATH=src python3 perfbench/probe_setup.py
"""
import json
import time

t0 = time.perf_counter()
from iockit import cli  # noqa: E402
t1 = time.perf_counter()
from iockit import filtering  # noqa: E402
from iockit.extractor import default_catalog_path, default_tld_path, load_catalog  # noqa: E402

load_catalog(default_catalog_path(), default_tld_path())
t2 = time.perf_counter()
filtering.load_tranco(default_catalog_path().with_name("tranco_snapshot.csv"))
t3 = time.perf_counter()
print(json.dumps({
    "module": cli.__file__,
    "cli.import.s": t1 - t0,
    "extractor.build.s": t2 - t1,
    "filtering.load_tranco.s": t3 - t2,
    "setup_s": t3 - t0,
}))
