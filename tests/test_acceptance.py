"""Acceptance suite: one test per criterion, each asserting on the check of
the `checks` registry that `validate full` runs, plus the bounds only this
suite sets (wall times, and the standard error of criterion 6).

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
check.  Monte Carlo criteria use fixed seeds and 4-sigma tolerances; their
runs (the H=1e5 percolation replicates from both starts and the t_max=1e6
chain trajectory) are built once per session by `checks.monte_carlo_runs`
on up to two processes, whose wall time the criterion-6 bound covers.
"""

import os
import time

import pytest

from ladder_fpp import checks

SEED = 7


@pytest.fixture
def report(capsys):
    def report(num, name, ok, detail):
        with capsys.disabled():
            print(f"{'PASS' if ok else 'FAIL'}  criterion {num} ({name}): {detail}")
        assert ok, detail

    return report


@pytest.fixture(scope="session")
def mc_timed():
    t0 = time.perf_counter()
    runs = checks.monte_carlo_runs(SEED, jobs=min(2, os.cpu_count() or 1))
    return runs, time.perf_counter() - t0


@pytest.fixture
def mc(mc_timed):
    return mc_timed[0]


def test_criterion_1_exact_constants(report):
    t0 = time.perf_counter()
    name, ok, detail = checks.check_exact_constants()
    elapsed = time.perf_counter() - t0
    report(1, name, ok and elapsed < 0.1, f"{detail}, in {elapsed * 1e3:.1f} ms")


def test_criterion_2_sequence_tables(report):
    report(2, *checks.check_sequence_tables())


def test_criterion_3_two_route_identity(report):
    t0 = time.perf_counter()
    results = [checks.check_two_route_sequences(), checks.check_sequence_recursions()]
    elapsed = time.perf_counter() - t0
    for name, ok, detail in results:
        report(3, name, ok and elapsed < 1.0, f"{detail} (both checks in {elapsed:.2f} s)")


def test_criterion_4_truncated_solve(report):
    report(4, *checks.check_truncated_solve())


def test_criterion_5_upsilon_and_wronskian(report):
    report(5, *checks.check_upsilon_wronskian())


def test_criterion_6_mc_time_constant(report, mc_timed):
    mc, build_s = mc_timed
    name, ok, detail = checks.check_mc_time_constant(mc)
    report(6, name, ok and mc.both.std_err < 1e-3 and build_s < 60.0,
           f"{detail}; all shared runs built in {build_s:.1f} s")


def test_criterion_7_initial_condition_invariance(report, mc):
    report(7, *checks.check_mc_initial_invariance(mc))


def test_criterion_8_occupation_measure(report, mc):
    report(8, *checks.check_mc_occupation(mc))


def test_criterion_9_residual_times(report, mc):
    report(9, *checks.check_mc_residual(mc))


def test_cross_engine_rate_agreement(report, mc):
    report("6b", *checks.check_mc_cross_engine(mc))


def test_criterion_10_gamma_reconciliation(report):
    report(10, *checks.check_gamma())
    report(10, *checks.check_residual_series())
