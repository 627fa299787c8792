"""What a fresh interpreter loads: the exact commands start without numpy,
the command line still loads every module the benchmark's tracer wraps, and
numpy, once used, is a plain module global."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ladder_fpp
from test_trace_targets import trace_targets

SRC = str(Path(ladder_fpp.__file__).resolve().parents[1])


def fresh(code: str, *argv: str) -> list[str]:
    """The stdout lines of `code`, run with `argv` in a new interpreter."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


# `python -m ladder_fpp ARGS`, then the numpy modules it loaded
RUN_CLI = """
import runpy, sys
try:
    runpy.run_module("ladder_fpp", run_name="__main__")
finally:
    print(sorted(m for m in sys.modules if m.partition(".")[0] == "numpy"))
"""


@pytest.mark.parametrize("argv", [["validate", "quick"], ["exact"], ["sequences", "--n-max", "5"]],
                         ids=["validate_quick", "exact", "sequences"])
def test_exact_commands_load_no_numpy(argv):
    lines = fresh(RUN_CLI, *argv)
    assert len(lines) > 1 and lines[-1] == "[]", lines[-1]


def test_cli_loads_every_traced_module():
    lines = fresh("import sys, ladder_fpp.cli\nprint(*sorted(sys.modules))")
    loaded = set(lines[0].split())
    assert {f"ladder_fpp.{m}" for m, _, _ in trace_targets()} <= loaded


def test_numpy_rebound_after_first_use():
    # the chain's walk tables too are built by the first run, not on import
    lines = fresh("import numpy\n"
                  "from ladder_fpp import simulate\n"
                  "print(simulate._walk_tables.cache_info().currsize)\n"
                  "simulate.simulate_front_chain(simulate.SimConfig(seed=1, mode='front_chain', "
                  "t_max=10.0))\n"
                  "print(simulate.np is numpy, simulate._walk_tables.cache_info().currsize)")
    assert lines == ["0", "True 1"]
