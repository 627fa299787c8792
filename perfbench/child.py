"""`ladder-fpp validate quick` in a fresh interpreter, with spans.

The traced stand-in for `python -m ladder_fpp validate quick`: it times the
cold import of the CLI, runs `validate quick` with the layers wrapped, then
calls `run_quick_checks()` a second time with warm memos.  Prints one JSON
object: exit code, CLI output, cold-start figures and the spans.

    PYTHONPATH=src python3 perfbench/child.py
"""

import io
import json
import sys
import time
from contextlib import redirect_stdout

from tracing import Tracer

t0 = time.perf_counter()
import ladder_fpp.cli  # noqa: E402

import_s = time.perf_counter() - t0

tracer = Tracer()
tracer.install()
out = io.StringIO()
with redirect_stdout(out):
    rc = ladder_fpp.cli.main(["validate", "quick"])
ladder_fpp.checks.run_quick_checks()
tracer.uninstall()

spans = tracer.spans
runs = [i for i, s in enumerate(spans) if s[0] == "checks.run_quick_checks"]
root = []  # index of the run_quick_checks span each span sits in
for i, (name, _, _, parent, _) in enumerate(spans):
    root.append(i if name == "checks.run_quick_checks" else (root[parent] if parent >= 0 else -1))


def cold_ms(name):
    return 1e3 * sum(s[2] - s[1] for i, s in enumerate(spans) if s[0] == name and root[i] == runs[0])


json.dump({
    "rc": rc,
    "stdout": out.getvalue(),
    "import_s": import_s,
    "quick_cold_s": spans[runs[0]][2] - spans[runs[0]][1],
    "quick_warm_s": spans[runs[1]][2] - spans[runs[1]][1],
    "upsilon_ms": cold_ms("bessel.upsilon"),
    "seq_ms": cold_ms("chain.seq"),
    "spans": spans,
}, sys.stdout)
