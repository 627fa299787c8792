"""Command-line front end: exact constants, sequence tables, Monte Carlo
simulation, and cross-route validation.

Subcommands
-----------
exact      closed-form constants with rigorous error bounds
sequences  table of a_n, b_n, their difference sequences, and Upsilon columns
simulate   Gillespie front chain or lazy-Dijkstra percolation (seeded)
validate   run the cross-route checks; nonzero exit on any failure

Exit codes: 0 success, 2 usage error, 1 validation failure.  Output formats:
plain (12 significant digits with an explicit +- column), json, csv.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field

from . import chain, checks, constants, simulate
from ._deferred import DeferredNumpy

np = DeferredNumpy(globals())

__all__ = ["main", "entry", "OutputRecord"]


@dataclass
class OutputRecord:
    quantity: str
    value: float | int | str
    err_or_se: float
    method: str  # closed_form | truncated_solve | monte_carlo
    metadata: dict = field(default_factory=dict)


def _fmt12(x) -> str:
    return f"{x:.12g}" if isinstance(x, float) else str(x)


def emit_records(records: list[OutputRecord], fmt: str) -> None:
    out = sys.stdout
    if fmt == "json":
        json.dump({"records": [asdict(r) for r in records]}, out, indent=2)
        out.write("\n")
    elif fmt == "csv":
        w = csv.writer(out)
        w.writerow(["quantity", "value", "err_or_se", "method", "metadata"])
        for r in records:
            w.writerow([r.quantity, repr(r.value) if isinstance(r.value, float) else r.value,
                        repr(r.err_or_se), r.method, json.dumps(r.metadata, sort_keys=True)])
    else:
        for r in records:
            meta = " ".join(f"{k}={v}" for k, v in r.metadata.items())
            out.write(
                f"{r.quantity:<14} {_fmt12(r.value):>18} ± {r.err_or_se:<12.6g} "
                f"[{r.method}]{('  ' + meta) if meta else ''}\n"
            )


# ---------------------------------------------------------------------------
# exact


def cmd_exact(args) -> int:
    which = [w.strip() for w in args.which.split(",") if w.strip()]
    valid = {"pi0", "tau", "T", "pi_n"}
    bad = set(which) - valid
    if bad:
        raise UsageError(f"unknown quantities: {sorted(bad)} (choose from {sorted(valid)})")
    tol = args.tol
    records = []
    meta = {"tol": tol}
    single = {"pi0": chain.pi0, "tau": constants.time_constant, "T": constants.avg_residual_time}
    for w in which:
        if w == "pi_n":
            items = [(f"pi_{n}", functools.partial(chain.pi, n)) for n in range(args.n_max + 1)]
        else:
            items = [(w, single[w])]
        for name, compute in items:
            try:
                v = compute(tol)
            except ValueError as exc:  # tol below the double-precision floor
                raise UsageError(
                    f"--tol {tol:g} is below the double-precision floor of {name}; "
                    f"use --tol {_tol_floor(compute):g} or more"
                ) from exc
            records.append(OutputRecord(name, v.value, v.err, "closed_form", meta))
    emit_records(records, args.format)
    return 0


def _tol_floor(compute) -> float:
    """The smallest tolerance on the 1-2-5 grid from 1e-16 that `compute` reaches."""
    for tol in (m * 10.0 ** e for e in range(-16, -10) for m in (1, 2, 5)):
        try:
            compute(tol)
            return tol
        except ValueError:
            pass
    return 1e-10  # the default --tol, which every quantity reaches


# ---------------------------------------------------------------------------
# sequences


SEQ_TABLE_HEADER = ["n", "a_n", "b_n", "A_n", "B_n", "Ups(n+2,0)", "2Ups(n+2,3)+Ups(n+2,0)"]


def cmd_sequences(args) -> int:
    n_max = args.n_max
    header, out, rows = SEQ_TABLE_HEADER, sys.stdout, chain.sequence_rows(n_max)
    # Rows are streamed and joined by hand (str(Decimal) is linear; no data
    # field needs csv quoting).  A line and its terminator go out apart: a
    # concatenated copy, once freed, fragments the heap of a caller keeping the text.
    if args.format == "json":
        out.write('{"columns": %s, "rows": [\n' % json.dumps(header))
        for r in rows:
            out.write("[")
            out.write(", ".join("null" if v is None else str(v) for v in r))
            out.write("],\n" if r[0] < n_max else "]\n")
        out.write("]}\n")
    elif args.format == "csv":
        csv.writer(out).writerow(header)
        for r in rows:
            out.write(",".join("" if v is None else str(v) for v in r))
            out.write("\r\n")
    elif n_max <= 200:  # pretty-printed: size the columns in a first pass
        rows = list(rows)
        # a missing entry is as wide as "None", as it always has been
        widths = [max(len(h), *(len(str(r[i])) for r in rows)) for i, h in enumerate(header)]
        print("  ".join(h.rjust(w) for h, w in zip(header, widths)))
        for r in rows:
            print("  ".join(("" if v is None else str(v)).rjust(w) for v, w in zip(r, widths)))
    else:  # wide entries: stream space-separated rows
        print(" ".join(header))
        for r in rows:
            print(" ".join("" if v is None else str(v) for v in r))
    return 0


# ---------------------------------------------------------------------------
# simulate


_DUMP_BLOCK = 1 << 12  # trajectory events turned into Python objects and text at a time


def _dump_trajectory(traj: simulate.ChainTrajectory, path: str) -> None:
    """CSV t,state,height: the state and height in force from time t onward.

    Rows go out `_DUMP_BLOCK` events at a time, as the csv module wrote
    them (repr() of each time, \\r\\n line ends); the height is carried
    from block to block.
    """
    n = traj.n_events
    row = "%r,%d,%d\r\n".__mod__
    height = 0
    with open(path, "w", newline="") as fh:
        fh.write("t,state,height\r\n0.0,0,0\r\n")  # state 0 and height 0 at t = 0
        for i in range(0, n, _DUMP_BLOCK):
            j = min(i + _DUMP_BLOCK, n)
            heights = np.cumsum(traj.height_incremented[i:j], dtype=np.int64)
            heights += height
            height = int(heights[-1])
            after = traj.states[i + 1:j + 1].tolist()
            if j == n:
                after.append(traj.final_state)
            fh.write("".join(map(row, zip(traj.jump_times[i:j].tolist(), after,
                                          heights.tolist()))))


def cmd_simulate(args) -> int:
    jobs = _jobs(args)
    mode = {"front": "front_chain", "fpp": "fpp_dijkstra"}[args.mode]
    initial = {"both": "both_nodes", "single": "single_node"}[args.initial]
    if mode == "front_chain" and args.replicates is not None:
        raise UsageError("--replicates applies to --mode fpp only")
    if mode == "fpp_dijkstra" and args.height is None:
        raise UsageError("--mode fpp requires --height")
    if mode == "fpp_dijkstra" and (args.replicates is None or args.replicates < 2):
        raise UsageError("--mode fpp requires --replicates N >= 2 (a standard error "
                         "needs two replicates)")
    if mode == "fpp_dijkstra" and args.replicates > REPLICATES_CAP:
        raise UsageError(f"--replicates {args.replicates} is above the cap {REPLICATES_CAP}")
    if args.dump_trajectory and mode != "front_chain":
        raise UsageError("--dump-trajectory applies to --mode front only")
    try:
        cfg = simulate.SimConfig(
            seed=args.seed,
            mode=mode,
            target_height=args.height,
            t_max=args.t_max,
            initial=initial,
            replicates=args.replicates or 1,
            burn_in=args.burn_in,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.dump_trajectory:
        try:  # append mode: an existing file stays as it is if the run fails
            open(args.dump_trajectory, "a").close()
        except OSError as exc:
            raise UsageError(f"cannot write --dump-trajectory {args.dump_trajectory}: "
                             f"{exc.strerror}") from exc

    records = []
    if mode == "fpp_dijkstra":
        meta = {"seed": args.seed, "H": args.height, "replicates": args.replicates,
                "initial": args.initial}
        est, _ = simulate.fpp_time_constant(cfg, jobs=jobs)
        records.append(OutputRecord("tau", est.mean, est.std_err, "monte_carlo", meta))
    else:
        traj = simulate.simulate_front_chain(cfg)
        if args.dump_trajectory:
            _dump_trajectory(traj, args.dump_trajectory)
        meta = {"seed": args.seed, "t_max": cfg.t_max, "height": cfg.target_height,
                "burn_in": args.burn_in, "events": traj.n_events}
        if traj.total_time <= args.burn_in:
            raise UsageError("run too short for the requested burn-in")
        if args.report == "tau":
            rate = simulate.height_rate_estimate(traj, args.burn_in)
            if rate.mean == 0:
                raise UsageError("no height increment inside the averaging window; "
                                 "raise --t-max or lower --burn-in")
            records.append(OutputRecord("inv_tau", rate.mean, rate.std_err, "monte_carlo", meta))
            records.append(OutputRecord(
                "tau", 1.0 / rate.mean, rate.std_err / rate.mean ** 2, "monte_carlo", meta
            ))
        elif args.report == "front-dist":
            for est in simulate.empirical_front_distribution(traj, args.burn_in):
                records.append(OutputRecord(est.quantity, est.mean, est.std_err,
                                            "monte_carlo", meta))
        else:  # residual
            try:
                times = simulate.residual_sample_times(traj, args.burn_in, args.samples, args.seed)
            except ValueError as exc:
                raise UsageError(str(exc)) from exc
            est, excluded = simulate.empirical_residual_time(traj, times)
            meta = dict(meta, excluded=excluded)
            records.append(OutputRecord("mean_residual", est.mean, est.std_err,
                                        "monte_carlo", meta))
    emit_records(records, args.format)
    return 0


# ---------------------------------------------------------------------------
# validate


def cmd_validate(args) -> int:
    jobs = _jobs(args)
    if args.level == "full":
        if args.seed is None or args.seed < 0:
            raise UsageError("validate full requires --seed N with N >= 0")
        results = checks.run_full_checks(args.seed, jobs=jobs)
    else:
        results = checks.run_quick_checks()
    failures = 0
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name:<24} {detail}")
        failures += 0 if ok else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# parser


PROG = "ladder-fpp"
PI_N_CAP = 170  # the largest n with n! a finite double; pi_170 ~ 2e-311 is 0 within its bound
SAMPLES_CAP = 10 ** 6  # residual sample times; 10^6 add about 40 MB to the peak of a run
REPLICATES_CAP = 10 ** 5  # --mode fpp keeps about 170 B per replicate, 17 MB at the cap
# horizons: a Dijkstra run keeps about 42 B per ladder column and a chain run
# about 68 B per unit of t_max, so about 0.4 and 0.7 GB at these caps
HEIGHT_CAP = 10 ** 7
T_MAX_CAP = 1e7


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Every usage error as one line `ladder-fpp: error: ...`, exit 2; subparsers inherit it."""

    def error(self, message):
        self.exit(2, f"{PROG}: error: {message}\n")


def _jobs(args) -> int:
    """Worker processes: --jobs if given, else env LADDER_FPP_JOBS, else 1."""
    if args.jobs is not None:
        source, text = "--jobs", str(args.jobs)
    else:
        source, text = "LADDER_FPP_JOBS", os.environ.get("LADDER_FPP_JOBS", "1")
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise UsageError(f"{source} must be a positive integer, got {text!r}")
    return jobs


def _int_in(lo: int, hi: int):
    """argparse type: an integer in lo..hi."""
    def integer(text: str) -> int:
        x = int(text)  # argparse reports a ValueError as "invalid integer value"
        if not lo <= x <= hi:
            raise argparse.ArgumentTypeError(f"{x} is not in {lo}..{hi}")
        return x
    return integer


def _positive_float(hi: float = math.inf):
    """argparse type: a finite number x > 0, with x <= hi."""
    def number(text: str) -> float:
        x = float(text)  # argparse reports a ValueError as "invalid number value"
        if not 0 < x < math.inf:
            raise argparse.ArgumentTypeError(f"{text} is not a finite number > 0")
        if x > hi:
            raise argparse.ArgumentTypeError(f"{text} is above the cap {hi:g}")
        return x
    return number


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog=PROG,
        description="First-passage percolation on the ladder: exact constants and simulation.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("exact", help="closed-form constants with error bounds")
    pe.add_argument("--tol", type=_positive_float(), default=1e-10)
    pe.add_argument("--which", default="pi0,tau,T",
                    help="comma list from pi0,tau,T,pi_n")
    pe.add_argument("--n-max", type=_int_in(0, PI_N_CAP), default=10, help="largest n for pi_n")
    pe.add_argument("--format", choices=["plain", "json", "csv"], default="plain")
    pe.set_defaults(func=cmd_exact)

    ps = sub.add_parser("sequences", help="a_n/b_n table with Upsilon columns")
    ps.add_argument("--n-max", type=_int_in(1, chain.SEQ_INDEX_CAP), required=True)
    ps.add_argument("--format", choices=["plain", "json", "csv"], default="plain")
    ps.set_defaults(func=cmd_sequences)

    pm = sub.add_parser("simulate", help="seeded Monte Carlo runs")
    pm.add_argument("--mode", choices=["front", "fpp"], required=True)
    pm.add_argument("--seed", type=int, required=True)
    g = pm.add_mutually_exclusive_group(required=True)
    g.add_argument("--height", type=_int_in(1, HEIGHT_CAP), default=None)
    g.add_argument("--t-max", type=_positive_float(T_MAX_CAP), default=None)
    pm.add_argument("--replicates", type=int, default=None,
                    help="independent replicates for --mode fpp (required, at least 2)")
    pm.add_argument("--initial", choices=["both", "single"], default="both")
    pm.add_argument("--burn-in", type=float, default=100.0)
    pm.add_argument("--report", choices=["tau", "front-dist", "residual"], default="tau")
    pm.add_argument("--samples", type=_int_in(2, SAMPLES_CAP), default=10000,
                    help="sample times for --report residual")
    pm.add_argument("--jobs", type=int, default=None,
                    help="parallel replicates (default: env LADDER_FPP_JOBS, else 1)")
    pm.add_argument("--dump-trajectory", default=None, metavar="PATH",
                    help="write CSV t,state,height (front mode)")
    pm.add_argument("--format", choices=["plain", "json", "csv"], default="plain")
    pm.set_defaults(func=cmd_simulate)

    pv = sub.add_parser("validate", help="cross-route checks; exit 1 on failure")
    pv.add_argument("level", choices=["quick", "full"])
    pv.add_argument("--seed", type=int, default=None)
    pv.add_argument("--jobs", type=int, default=None,
                    help="parallel replicates (default: env LADDER_FPP_JOBS, else 1)")
    pv.set_defaults(func=cmd_validate)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        parser.error(str(exc))


def entry() -> None:
    sys.exit(main())
