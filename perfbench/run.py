#!/usr/bin/env python3
"""Benchmark runner for ladder-fpp (standard library only).

    python3 perfbench/run.py --workload exact --seed 1 --seconds 15 --trace 0

Runs from the root of a checkout: the package is taken from ./src, never
from an installed copy.  It times the set-up (a fresh interpreter importing
ladder_fpp and building the workload's inputs) several times, then runs the
workload in one worker process (worker.py) and prints one JSON line:
correct, attempted, failed and the metrics -- the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The full result, with the
failed checks if any, is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 7
DEADLINE_S = 170  # the whole run, set-up included


def run_group(cmd, timeout, **kwargs):
    """Run cmd in its own process group; on timeout kill the group and wait."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def main() -> int:
    ap = argparse.ArgumentParser(description="ladder-fpp benchmark")
    ap.add_argument("--workload", choices=("exact", "front_chain", "percolation"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.perf_counter()

    if not (ROOT / "src" / "ladder_fpp" / "__init__.py").is_file():
        print(f"run.py: no ladder_fpp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    worker = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed)]

    setup = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        rc, _ = run_group(worker + ["--setup-only"], 60, env=env)
        setup.append(time.perf_counter() - t0)
        if rc != 0:
            return rc

    budget = DEADLINE_S - (time.perf_counter() - started)
    rc, out = run_group(worker + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                        budget, env=env, stdout=subprocess.PIPE, text=True)
    if rc != 0:
        return rc
    full = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        full["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    (HERE / "out").mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (HERE / "out" / name).write_text(json.dumps(full, indent=1) + "\n")
    for problem in full["problems"]:
        print("check failed:", problem, file=sys.stderr)
    print(json.dumps({k: full[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
