"""One benchmark workload in one process, single-threaded.

Runs whole rounds of the workload's operations until --seconds have passed
(and at least MIN_ROUNDS), timing each call into ladder_fpp from outside.
Between the steps of a round it runs probe steps: the other workloads'
operations at a small size, so that every metric has a value on every
workload.  Probe steps take PROBE_SHARE of the focus time, interleaved so
that their samples spread over the whole run; they are not counted as
attempted operations and are outside run_s.  Then it checks the outputs
against the independent references, and makes each check reject a
deliberately wrong output.  Prints one JSON object as its last line.

With --trace 1, odd rounds and the probe steps inside them run with spans
around the layer calls (see tracing.py) and the per-layer metrics are
reported instead.

run.py starts this with PYTHONPATH pointing at the checkout's src/.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

import ladder_fpp  # noqa: E402
from ladder_fpp import chain, cli, constants, simulate  # noqa: E402

import references as ref  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOADS = ("exact", "front_chain", "percolation")
MIN_ROUNDS = 3
PROBE_SHARE = 0.5  # probe time per second of focus time
ALPHA = 1e-6  # false-alarm budget of all Monte Carlo tests in one run
BURN_IN = 100.0
TOL_CHOICES = (1e-8, 3e-9, 1e-9, 3e-10, 1e-10, 3e-11, 1e-11, 3e-12, 1e-12)
HEADLINE_REPS = 10  # headline_constants calls per tolerance in one warm block
TRUNCATION_K = 25
OCCUPATION_STATES = 5  # occupation checked for states 0..4
RATE_STATES = 4  # transition rates q(s, s') checked for s = 0..3

# Round sizes: "focus" when the workload is the one run, "probe" when it only
# supplies the other workloads' metrics.
SIZES = {
    "exact": {
        "focus": {"blocks": 3, "validate": 2, "rows": 1500, "tables": 1},
        "probe": {"blocks": 1, "validate": 2, "rows": 500, "tables": 2},
    },
    "front_chain": {
        "focus": {"t_max": 1e6, "samples": 10_000, "dump_t_max": 5e4, "reps": 1},
        "probe": {"t_max": 3e4, "samples": 300, "dump_t_max": 1e4, "reps": 2},
    },
    "percolation": {
        "focus": {"height": 100_000, "replicates": 2, "records": 3},
        "probe": {"height": 20_000, "replicates": 1, "records": 3},
    },
}


def build_inputs(workload: str, seed: int) -> dict:
    """Everything a workload's rounds take, made from the seed alone."""
    rng = random.Random(f"{workload}:{seed}")
    inp = {"base": (seed % 10 ** 9) * 1000}
    if workload == "exact":
        inp["tols"] = sorted(rng.sample(TOL_CHOICES, 4), reverse=True)
        inp["ns"] = sorted(rng.sample(range(41), 8))
    return inp


class Sink:
    """A stdout stand-in that counts characters (ASCII here, so bytes)."""

    def __init__(self, keep: bool):
        self.n = 0
        self.parts = [] if keep else None

    def write(self, s):
        self.n += len(s)
        if self.parts is not None:
            self.parts.append(s)
        return len(s)

    def flush(self):
        pass

    def text(self) -> str:
        return "".join(self.parts)


class Bench:
    def __init__(self, tracer: Tracer, dump_path: Path):
        self.tracer = tracer
        self.dump_path = dump_path
        self.samples: dict[str, list[float]] = {}
        self.payloads: dict[str, list] = {}
        self.problems: list[str] = []
        self.attempted = self.failed = 0
        self.counting = True
        self.round_time = 0.0
        self.table_head = None  # first reference rows of the checked table
        self.child_spans: list = []

    def op(self, fn, *args, **kwargs):
        """One timed operation; returns (result, seconds)."""
        if self.counting:
            self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            if self.counting:
                self.round_time += dt
        return out, dt

    def sample(self, name: str, value: float):
        self.samples.setdefault(name, []).append(value)

    def keep(self, name: str, value):
        if self.counting:
            self.payloads.setdefault(name, []).append(value)

    def part(self, name: str):
        return self.tracer.span("part." + name)


# ---------------------------------------------------------------------------
# exact: closed forms, fresh `validate quick`, the sequences table.


def headline_block(b: Bench, tols, ns):
    out = {"headline": {}, "pi": {}, "direct": {}}
    for tol in tols:
        for _ in range(HEADLINE_REPS):
            out["headline"][tol], dt = b.op(constants.headline_constants, tol)
            b.sample("headline_call_s", dt)
        for n in ns:
            out["pi"][n, tol], _ = b.op(chain.pi, n, tol)
        out["direct"][tol], _ = b.op(constants.avg_residual_time_direct, tol)
    out["fd"], _ = b.op(chain.front_distribution, TRUNCATION_K)
    out["ts"], _ = b.op(chain.stationary_truncated_solve, TRUNCATION_K)
    b.keep("headline", out)


def validate_fresh(b: Bench):
    traced = b.tracer.active
    cmd = [sys.executable, str(HERE / "child.py")] if traced else [
        sys.executable, "-m", "ladder_fpp", "validate", "quick"]
    proc, dt = b.op(subprocess.run, cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    b.sample("validate_quick_s", dt)
    rc, stdout = proc.returncode, proc.stdout
    if traced and rc == 0:
        res = json.loads(proc.stdout)
        rc, stdout = res["rc"], res["stdout"]
        for key in ("import_s", "quick_cold_s", "quick_warm_s", "upsilon_ms", "seq_ms"):
            b.sample("child." + key, res[key])
        b.child_spans.append(res["spans"])
    b.problems += ref.check_validate_output(rc, stdout, proc.stderr)


def sequences(b: Bench, n_max: int, focus: bool):
    spent = 0.0
    for fmt in ("csv", "json"):
        if fmt == "json":
            yield
        sink = Sink(keep=False)
        with (b.part("sequences"), b.tracer.span("cli.sequences_" + fmt) as counts,
              redirect_stdout(sink)):
            rc, dt = b.op(cli.main, ["sequences", "--n-max", str(n_max), "--format", fmt])
        counts["bytes"] = sink.n
        spent += dt
        if rc != 0:
            b.problems.append(f"sequences --format {fmt} exited {rc}")
        if focus:
            b.keep("table_bytes_" + fmt, sink.n)
    b.sample("sequence_rows_per_s", 2 * n_max / spent)


def check_table_output(b: Bench, n_max: int) -> list[str]:
    """Runs both formats once more, outside the timed part, and checks every row.

    Keeping the timed rounds' text would inflate peak_rss_mb; the timed
    tables must have the checked table's exact size instead.
    """
    rows = ref.table_rows(n_max)
    b.table_head = rows[:30]
    problems = []
    for fmt in ("csv", "json"):
        sink = Sink(keep=True)
        with redirect_stdout(sink):
            cli.main(["sequences", "--n-max", str(n_max), "--format", fmt])
        problems += [f"{fmt}: {p}" for p in ref.check_table(*ref.parse_table(fmt, sink.text()), rows)]
        if set(b.payloads["table_bytes_" + fmt]) != {sink.n}:
            problems.append(f"sequences --format {fmt}: timed tables are not {sink.n} bytes")
    return problems


def known_failure(b: Bench):
    """avg_residual_time(1e-13): its built-in cross-check asks J_0 for 3e-17."""
    try:
        out, _ = b.op(constants.avg_residual_time, 1e-13)
    except ValueError:
        b.failed += 1
        return
    b.keep("t_1e13", out)


# A round is a generator: it yields between its steps, outside any part span,
# and the main loop runs probe steps there.


def exact_round(b: Bench, inp, size, seed_r, focus):
    for _ in range(size["blocks"]):
        with b.part("headline"):
            headline_block(b, inp["tols"], inp["ns"])
        yield
    for _ in range(size["validate"]):
        with b.part("validate"):
            validate_fresh(b)
        yield
    for _ in range(size["tables"]):
        yield from sequences(b, size["rows"], focus)
        yield
    if focus:
        with b.part("known_failure"):
            known_failure(b)


# ---------------------------------------------------------------------------
# front_chain: Gillespie, the estimators, the trajectory dump.


def chain_part(b: Bench, seed_r, t_max, n_samples):
    cfg = simulate.SimConfig(seed=seed_r, mode="front_chain", t_max=t_max, burn_in=BURN_IN)
    rng = random.Random(f"residual:{seed_r}")
    times = np.array([BURN_IN + (t_max - BURN_IN - 50.0) * rng.random() for _ in range(n_samples)])
    with b.part("chain"):
        traj, t_sim = b.op(simulate.simulate_front_chain, cfg)
    b.sample("chain_events_per_s", traj.n_events / t_sim)
    # the estimators are cheap beside the chain, so each trajectory gets two
    # passes: two estimators_s samples per round
    for _ in range(2):
        yield
        with b.part("chain"):
            occ, t1 = b.op(simulate.empirical_front_distribution, traj, BURN_IN)
            rate, t2 = b.op(simulate.height_rate_estimate, traj, BURN_IN)
            (resid, excluded), t3 = b.op(simulate.empirical_residual_time, traj, times)
        b.sample("estimators_s", t1 + t2 + t3)
    if excluded:
        b.problems.append(f"residual sampling excluded {excluded} times inside the window")
    b.keep("chain", {"occ": [_triple(e) for e in occ[:OCCUPATION_STATES]],
                     "rate": _triple(rate), "resid": _triple(resid)})


def _triple(est):
    return est.mean, est.std_err, est.n_samples


def dump_part(b: Bench, seed_r, t_max):
    sink = Sink(keep=True)
    argv = ["simulate", "--mode", "front", "--t-max", repr(t_max), "--seed", str(seed_r),
            "--format", "json", "--dump-trajectory", str(b.dump_path)]
    with redirect_stdout(sink):
        rc, dt = b.op(cli.main, argv)
    if rc != 0:
        b.problems.append(f"simulate --dump-trajectory exited {rc}")
        return
    rows = json.loads(sink.text())["records"][0]["metadata"]["events"] + 1
    b.sample("dump_rows_per_s", rows / dt)
    with open(b.dump_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        head = list(itertools.islice(reader, 200))
        problems, n = ref.check_dump_rows(itertools.chain(head, reader))
    if header != ["t", "state", "height"] or n != rows:
        b.problems.append(f"dump: header {header!r}, {n} rows for {rows - 1} events")
    b.problems += problems
    b.keep("dump_head", head)


def front_round(b: Bench, inp, size, seed_r, focus):
    for _ in range(size["reps"]):
        yield from chain_part(b, seed_r, size["t_max"], size["samples"])
        yield
        with b.part("dump"):
            dump_part(b, seed_r, size["dump_t_max"])
        yield


# ---------------------------------------------------------------------------
# percolation: lazy Dijkstra replicates, front reconstruction.


def reconstruct_part(b: Bench, record):
    path, t1 = b.op(simulate.front_of_fpp, record)
    (counts, exposure), t2 = b.op(simulate.front_transition_stats, path)
    b.sample("reconstruct_vertices_per_s", int(record.settled.sum()) / (t1 + t2))
    b.keep("rates", (counts, exposure[:RATE_STATES].tolist()))


def percolation_round(b: Bench, inp, size, seed_r, focus):
    """fpp_time_constant from both starts (focus only), then more replicates of
    the both-nodes run through simulate_fpp_ladder, keeping their records.

    The records take replicate indices after fpp_time_constant's, so every
    Dijkstra run adds one T_H/H value to the test against tau.
    """
    height, reps = size["height"], size["replicates"]
    both = simulate.SimConfig(seed=2 * seed_r, mode="fpp_dijkstra", target_height=height,
                              replicates=reps)
    passages = []
    if focus:
        with b.part("fpp"):
            (_, v_both), _ = b.op(simulate.fpp_time_constant, both, jobs=1)
        yield
        single = dataclasses.replace(both, seed=2 * seed_r + 1, initial="single_node")
        with b.part("fpp"):
            (_, v_single), _ = b.op(simulate.fpp_time_constant, single, jobs=1)
        yield
        b.keep("fpp", (v_both.tolist(), v_single.tolist()))
    for i in range(reps, reps + size["records"]):
        with b.part("fpp"):
            record, t_rec = b.op(simulate.simulate_fpp_ladder, both, i)
        b.sample("fpp_vertices_per_s", int(record.settled.sum()) / t_rec)
        passages.append(record.passage_time() / height)
        yield
        with b.part("reconstruct"):
            reconstruct_part(b, record)
        if focus and "record" not in b.payloads:
            b.payloads["record"] = record
        yield
    b.keep("records", passages)


ROUNDS = {"exact": exact_round, "front_chain": front_round, "percolation": percolation_round}


def probe_steps(b: Bench, workload: str, inputs):
    """Endless probe steps of one workload: its rounds at probe size, seeds B + 900 + k."""
    for k in itertools.count():
        yield from ROUNDS[workload](b, inputs, SIZES[workload]["probe"], inputs["base"] + 900 + k,
                                    False)


# ---------------------------------------------------------------------------
# Checks after the timed part, and the checks' self-tests.


def check_exact(b: Bench, ex: ref.Exact) -> list[str]:
    p = check_table_output(b, SIZES["exact"]["focus"]["rows"])
    if ref.balance_coefficients(10) != list(zip(ref.TABLE1_A, ref.TABLE1_B)):
        p.append("reference: balance equations disagree with Table 1")
    if [(int(r[1]), int(r[2])) for r in b.table_head[:10]] != list(zip(ref.TABLE1_A, ref.TABLE1_B)):
        p.append("reference: recurrence disagrees with Table 1")
    for blk in b.payloads["headline"]:
        for tol, h in blk["headline"].items():
            p += ref.check_bounded(f"pi0({tol:g})", h.pi0, ex.pi[0], tol, ex)
            p += ref.check_bounded(f"tau({tol:g})", h.tau, ex.tau, tol, ex)
            p += ref.check_bounded(f"T({tol:g})", h.T_resid, ex.T, tol, ex)
        for (n, tol), v in blk["pi"].items():
            p += ref.check_bounded(f"pi({n}, {tol:g})", v, ex.pi[n], tol, ex)
        for tol, v in blk["direct"].items():
            p += ref.check_bounded(f"avg_residual_time_direct({tol:g})", v, ex.T, tol, ex)
        fd, ts = blk["fd"], blk["ts"]
        p += ref.check_distribution("front_distribution(25)", fd.probs, fd.tail_bound, 1e-13, ex,
                                    sum_tol=(TRUNCATION_K + 1) * 1e-13)
        p += ref.check_distribution("stationary_truncated_solve(25)", ts.probs, ts.tail_bound,
                                    1e-10, ex)
    for out in b.payloads.get("t_1e13", []):
        p += ref.check_bounded("avg_residual_time(1e-13)", out, ex.T, 1e-13, ex)
    return p


# Self-tests return (what was made wrong, the problems its check found).


def self_test_exact(b: Bench, ex: ref.Exact):
    head = b.table_head
    wrong = [list(r) for r in head]
    wrong[7][1] = str(int(wrong[7][1]) + 1)
    tau = next(iter(b.payloads["headline"][0]["headline"].values())).tau
    return [
        ("table entry off by one", ref.check_table(ref.TABLE_HEADER, wrong, head)),
        ("tau shifted by 1%", ref.check_bounded(
            "tau", ladder_fpp.BoundedReal(tau.value * 1.01, tau.err), ex.tau, 1.0, ex)),
        ("BoundedReal whose err excludes the reference", ref.check_bounded(
            "tau", ladder_fpp.BoundedReal(tau.value + 1e-9, 1e-10), ex.tau, 1.0, ex)),
    ]


def front_checks(rounds, ex: ref.Exact, inv_tau_scale=1.0) -> list[str]:
    alpha = ALPHA / (OCCUPATION_STATES + 2)
    p = []
    for s in range(OCCUPATION_STATES):
        m, se, df = ref.pooled([r["occ"][s] for r in rounds])
        p += ref.t_test(f"occupation of state {s}", m, se, float(ex.pi[s]), df, alpha)
    m, se, df = ref.pooled([r["rate"] for r in rounds])
    p += ref.t_test("height rate 1/tau", m * inv_tau_scale, se, float(1 / ex.tau), df, alpha)
    m, se, df = ref.pooled([r["resid"] for r in rounds])
    p += ref.t_test("mean residual time", m, se, float(ex.T), df, alpha)
    return p


def self_test_front(b: Bench, ex: ref.Exact):
    wrong = [list(r) for r in b.payloads["dump_head"][0]]
    wrong[50][1] = str(int(wrong[49][1]) + 2)
    return [
        ("tau shifted by 1%", front_checks(b.payloads["chain"], ex, inv_tau_scale=1 / 1.01)),
        ("dump row with a forbidden jump", ref.check_dump_rows(wrong)[0]),
    ]


def percolation_checks(b: Bench, ex: ref.Exact, tau_scale=1.0) -> list[str]:
    alpha = ALPHA / (2 + sum(s + 1 for s in range(RATE_STATES)))
    both = [v for vb, _ in b.payloads["fpp"] for v in vb] + [
        v for vr in b.payloads["records"] for v in vr]
    single = [v for _, vs in b.payloads["fpp"] for v in vs]
    m, se, df = ref.mean_se(both + single)
    p = ref.t_test("T_H/H", m * tau_scale, se * tau_scale, float(ex.tau), df, alpha)
    p += ref.welch_test("both_nodes vs single_node T_H/H", both, single, alpha)
    counts, exposure = {}, [0.0] * RATE_STATES
    for c, e in b.payloads["rates"]:
        for s in range(RATE_STATES):
            exposure[s] += e[s]
            for t, k in c.get(s, {}).items():
                counts[s, t] = counts.get((s, t), 0) + k
    for s in range(RATE_STATES):
        targets = set(range(s + 2)) | {t for (s2, t) in counts if s2 == s}
        for t in sorted(targets - {s}):
            p += ref.rate_test(s, t, counts.get((s, t), 0), exposure[s], alpha)
    return p


def self_test_percolation(b: Bench, ex: ref.Exact):
    rec = b.payloads["record"]
    times = rec.infection_times.copy()
    x = rec.target_height // 2
    times[0, x] = np.nextafter(times[0, x], np.inf)
    return [
        ("tau shifted by 1%", percolation_checks(b, ex, tau_scale=1.01)),
        ("one Dijkstra time perturbed", ref.dijkstra_mismatches(
            dataclasses.replace(rec, infection_times=times))),
    ]


def check_outputs(b: Bench, workload: str) -> list[str]:
    ex = ref.Exact()
    if workload == "exact":
        problems, tests = check_exact(b, ex), self_test_exact(b, ex)
    elif workload == "front_chain":
        problems, tests = front_checks(b.payloads["chain"], ex), self_test_front(b, ex)
    else:
        problems = percolation_checks(b, ex) + ref.dijkstra_mismatches(b.payloads["record"])
        tests = self_test_percolation(b, ex)
    problems += [f"self-test: the check accepted a {what}" for what, found in tests if not found]
    return problems


# ---------------------------------------------------------------------------
# Metrics.

END_TO_END = {
    "run_s": "s", "peak_rss_mb": "MB", "headline_per_s": "calls/s", "validate_quick_s": "s",
    "sequence_rows_per_s": "rows/s", "chain_events_per_s": "events/s", "estimators_s": "s",
    "dump_rows_per_s": "rows/s", "fpp_vertices_per_s": "vertices/s",
    "reconstruct_vertices_per_s": "vertices/s",
}

# per-layer metric: (unit, part, span, what to take the median of: the
# duration times this scale, or the named count)
PER_LAYER = {
    "bessel.bessel_j_us": ("us", "headline", "bessel.bessel_j", 1e6),
    "chain.pi_us": ("us", "headline", "chain.pi", 1e6),
    "chain.front_distribution_ms": ("ms", "headline", "chain.front_distribution", 1e3),
    "chain.truncated_solve_ms": ("ms", "headline", "chain.stationary_truncated_solve", 1e3),
    "constants.time_constant_us": ("us", "headline", "constants.time_constant", 1e6),
    "constants.avg_residual_time_ms": ("ms", "headline", "constants.avg_residual_time", 1e3),
    "constants.avg_residual_time_direct_ms": (
        "ms", "headline", "constants.avg_residual_time_direct", 1e3),
    "cli.sequences_csv_s": ("s", "sequences", "cli.sequences_csv", 1.0),
    "cli.sequences_json_s": ("s", "sequences", "cli.sequences_json", 1.0),
    "cli.dump_s": ("s", "dump", "cli._dump_trajectory", 1.0),
    "cli.dump_bytes": ("bytes", "dump", "cli._dump_trajectory", "bytes"),
    "simulate.gillespie_s": ("s", "chain", "simulate.simulate_front_chain", 1.0),
    "simulate.gillespie_events": ("count", "chain", "simulate.simulate_front_chain", "events"),
    "simulate.occupation_ms": ("ms", "chain", "simulate.empirical_front_distribution", 1e3),
    "simulate.height_rate_ms": ("ms", "chain", "simulate.height_rate_estimate", 1e3),
    "simulate.residual_ms": ("ms", "chain", "simulate.empirical_residual_time", 1e3),
    "simulate.dijkstra_s": ("s", "fpp", "simulate.simulate_fpp_ladder", 1.0),
    "simulate.settled_vertices": ("count", "fpp", "simulate.simulate_fpp_ladder", "settled"),
    "simulate.edges_sampled": ("count", "fpp", "simulate.simulate_fpp_ladder", "edges"),
    "simulate.fpp_record_bytes": ("bytes", "fpp", "simulate.simulate_fpp_ladder", "bytes"),
    "simulate.front_of_fpp_s": ("s", "reconstruct", "simulate.front_of_fpp", 1.0),
    "simulate.front_jumps": ("count", "reconstruct", "simulate.front_of_fpp", "jumps"),
    "simulate.transition_stats_s": ("s", "reconstruct", "simulate.front_transition_stats", 1.0),
}
CHILD = {
    "bessel.upsilon_ms": ("ms", "child.upsilon_ms"),
    "chain.seq_ms": ("ms", "child.seq_ms"),
    "checks.quick_cold_s": ("s", "child.quick_cold_s"),
    "checks.quick_warm_s": ("s", "child.quick_warm_s"),
    "cli.import_s": ("s", "child.import_s"),
}


def per_layer_metrics(b: Bench, round_times) -> dict:
    spans, parts = b.tracer.spans, b.tracer.parts()
    metrics = {}

    def select(part, name):
        return [s for s, pt in zip(spans, parts) if pt == "part." + part and s[0] == name]

    for metric, (unit, part, name, what) in PER_LAYER.items():
        sel = select(part, name)
        vals = [(s[2] - s[1]) * what if isinstance(what, float) else s[4][what] for s in sel]
        metrics[metric] = (statistics.median(vals), unit)
    fpp = select("fpp", "simulate.simulate_fpp_ladder")
    metrics["simulate.settled_useful_ratio"] = (
        statistics.fmean(s[4]["useful"] / s[4]["settled"] for s in fpp), "ratio")
    table = select("sequences", "cli.sequences_csv") + select("sequences", "cli.sequences_json")
    metrics["cli.table_bytes"] = (2 * statistics.fmean(s[4]["bytes"] for s in table), "bytes")
    for metric, (unit, key) in CHILD.items():
        metrics[metric] = (statistics.fmean(b.samples[key]), unit)
    metrics["trace.overhead_s"] = (
        statistics.median(round_times[True]) - statistics.median(round_times[False]), "s")
    return metrics


def slow_quantile(values, unit: str) -> float:
    """90th percentile of a time, 10th percentile of a rate.

    A shared virtual machine switches between a slow state and states up to
    1.7 times faster, within a run and from one run to the next, and the
    share of each differs from run to run.  The median moves with that
    share; the slow end of a run's samples tracks the level of the slow
    state, which shows up in nearly every run, so it repeats across runs
    best.  A more extreme quantile would pick up the rare lone slow call
    (see README.md, "Noise").
    """
    q = statistics.quantiles(values, n=10, method="inclusive")
    return q[-1] if unit == "s" else q[0]


def end_to_end_metrics(b: Bench, round_times, peak_rss_mb) -> dict:
    metrics = {}
    for name, unit in END_TO_END.items():
        if name == "run_s":
            value = slow_quantile(round_times[False], unit)
        elif name == "peak_rss_mb":
            value = peak_rss_mb
        elif name == "headline_per_s":
            value = 1.0 / slow_quantile(b.samples["headline_call_s"], "s")
        else:
            value = slow_quantile(b.samples[name], unit)
        metrics[name] = (value, unit)
    return metrics


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import the package, build the inputs and exit")
    args = ap.parse_args(argv)
    if not Path(ladder_fpp.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"ladder_fpp imported from {ladder_fpp.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    inputs = build_inputs(args.workload, args.seed)
    if args.setup_only:
        return 0

    OUT.mkdir(exist_ok=True)
    tracer = Tracer()
    b = Bench(tracer, OUT / f"dump-{os.getpid()}.csv")
    round_fn = ROUNDS[args.workload]
    focus = SIZES[args.workload]["focus"]
    round_times = {False: [], True: []}
    probes = [probe_steps(b, w, build_inputs(w, args.seed)) for w in WORKLOADS if w != args.workload]
    try:
        start = time.perf_counter()
        r = 0
        focus_s = probe_s = 0.0
        while r < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
            traced = bool(args.trace) and r % 2 == 1
            if traced:
                tracer.install()
            b.round_time = 0.0
            t0 = time.perf_counter()
            for _ in round_fn(b, inputs, focus, inputs["base"] + r, True):
                focus_s += time.perf_counter() - t0
                # probe steps, taking turns between the other workloads
                b.counting = False
                while probe_s < PROBE_SHARE * focus_s:
                    t1 = time.perf_counter()
                    next(probes[0])
                    probes.append(probes.pop(0))
                    probe_s += time.perf_counter() - t1
                b.counting = True
                t0 = time.perf_counter()
            round_times[traced].append(b.round_time)
            tracer.uninstall()
            r += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        b.dump_path.unlink(missing_ok=True)

    problems = b.problems + check_outputs(b, args.workload)
    if args.trace:
        metrics = per_layer_metrics(b, round_times)
        with open(OUT / f"trace-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump({"spans": tracer.spans, "child_spans": b.child_spans}, fh)
    else:
        metrics = end_to_end_metrics(b, round_times, peak_rss_mb)
    print(json.dumps({
        "correct": not problems,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "rounds": len(round_times[False]) + len(round_times[True]),
        "round_times": round_times[False],
        "samples": b.samples,
        "problems": list(dict.fromkeys(problems)),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
