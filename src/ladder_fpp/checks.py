"""Cross-route validation: every closed form checked against an independent
route (exact rationals, truncated linear algebra, or Monte Carlo).

This module is the one registry of the acceptance criteria and of the quoted
constants they test; `validate` runs it and the acceptance tests assert on it.
Each check returns (name, ok, detail).  `run_quick_checks` covers all exact
and linear-algebra routes in well under a second; `run_full_checks` adds the
Monte Carlo comparisons at 4-sigma tolerances, on runs built once by
`monte_carlo_runs`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Inexact
from fractions import Fraction
from itertools import islice

import numpy as np

from . import chain, constants, simulate
from .bessel import bessel_j, bessel_y, upsilon, upsilon_analytic, PI

__all__ = ["run_quick_checks", "run_full_checks", "monte_carlo_runs", "MonteCarloRuns",
           "CheckResult"]

CheckResult = tuple[str, bool, str]

# The paper's quoted decimals of pi_0, tau and T.
PI0_QUOTED = 0.4647184275
TAU_QUOTED = 0.6827250759
T_QUOTED = 0.5953444665

# The paper's tables: a_n, b_n for n = 1..9 (Table 1); A_n = (a_n - a_{n-1})/n
# and B_n likewise for n = 2..7 (Table 2); and the Upsilon columns for n = 1..7.
TABLE1_A = [3, 11, 56, 340, 2395, 19231, 173490, 1737706, 19136803]
TABLE1_B = [1, 5, 26, 158, 1113, 8937, 80624, 807544, 8893225]
TABLE2_A = [4, 15, 71, 411, 2806, 22037]
TABLE2_B = [2, 7, 33, 191, 1304, 10241]
UPSILON_0 = [1, 1, 1, 2, 7, 33, 191]  # Upsilon(n, 0)
UPSILON_3_COMBO = [-3, -1, 1, 4, 15, 71, 411]  # 2*Upsilon(n, 3) + Upsilon(n, 0)


def _j_fraction(n: int) -> Fraction:
    """Rational partial sum of the J_n(2) series; error < 1/(40! (n+40)!)."""
    return sum(
        (Fraction((-1) ** k, math.factorial(k) * math.factorial(n + k)) for k in range(40)),
        Fraction(0),
    )


def _pi_fractions(K: int) -> tuple[list[Fraction], Fraction]:
    """pi_0..pi_K of the closed form in rationals, from `_j_fraction`, and the
    tail mass 2 J_{K+3} / (2 J_3 + J_0) beyond K."""
    J = {n: _j_fraction(n) for n in range(K + 4)}
    denom = 2 * J[3] + J[0]
    probs = [J[0] / denom] + [2 * (J[n + 2] - J[n + 3]) / denom for n in range(1, K + 1)]
    return probs, 2 * J[K + 3] / denom


def check_generator_rows() -> CheckResult:
    for n in range(51):
        row = chain.q_row(n)
        if row.diagonal != -(n + 2):
            return "generator_rows", False, f"diagonal wrong at state {n}"
        if any(r < 0 for r in row.entries.values()):
            return "generator_rows", False, f"negative rate at state {n}"
        if sum(row.entries.values()) + row.diagonal != 0:
            return "generator_rows", False, f"row {n} does not sum to zero"
    return "generator_rows", True, "rows 0..50 sum to zero, rates >= 0"


def check_sequence_tables() -> CheckResult:
    """a_n, b_n, A_n, B_n and the Upsilon columns against the quoted tables, exactly."""
    a = [None] + [chain.seq("a", n) for n in range(1, 10)]  # a[n] = a_n
    b = [None] + [chain.seq("b", n) for n in range(1, 10)]
    got = {
        "Table 1 a_n": (a[1:], TABLE1_A),
        "Table 1 b_n": (b[1:], TABLE1_B),
        "Table 2 A_n": ([(a[n] - a[n - 1]) // n for n in range(2, 8)], TABLE2_A),
        "Table 2 B_n": ([(b[n] - b[n - 1]) // n for n in range(2, 8)], TABLE2_B),
        "Upsilon(n, 0)": ([upsilon(n, 0) for n in range(1, 8)], UPSILON_0),
        "2*Upsilon(n, 3) + Upsilon(n, 0)": (
            [2 * upsilon(n, 3) + upsilon(n, 0) for n in range(1, 8)], UPSILON_3_COMBO),
    }
    for column, (values, quoted) in got.items():
        if values != quoted:
            return "sequence_tables", False, f"{column} is {values}, tables quote {quoted}"
    return "sequence_tables", True, "a_n, b_n, A_n, B_n and Upsilon columns match both tables exactly"


def check_two_route_sequences() -> CheckResult:
    """a_n, b_n for n = 1..200 from their recursion against the Upsilon route,
    the forward differences of the table's Upsilon columns: b_n = Upsilon(n+3, 0)
    - Upsilon(n+2, 0), and a_n the same difference of 2*Upsilon(., 3) + Upsilon(., 0).
    One pass of `chain.sequence_rows` gives both routes."""
    rows = [[int(v) for v in (a, b, u0, u3)]
            for _, a, b, _, _, u0, u3 in chain.sequence_rows(201)]
    for n, ((a, b, u0, u3), nxt) in enumerate(zip(rows, rows[1:]), start=1):
        for kind, c, via in (("a", a, nxt[3] - u3), ("b", b, nxt[2] - u0)):
            if c != via:
                return "two_route_sequences", False, f"{kind}_{n} differs between routes"
    return (
        "two_route_sequences",
        True,
        "recursion equals Upsilon route for n=1..200 (n=1 included)",
    )


def check_sequence_recursions() -> CheckResult:
    """Both recursions of c_n = a_n and of c_n = b_n, exactly, up to n = 200:

        c_n = (c_{n+1} - c_n)/(n+1) - (c_n - c_{n-1})/n = C_{n+1} - C_n   (n >= 2)
        C_{n+1} + C_{n-1} = (n+2)*C_n                                   (n >= 3)

    with C_n = (c_n - c_{n-1})/n the A_n/B_n column of `chain.sequence_rows`,
    which raises `decimal.Inexact` if a C_n is not an integer.
    """
    n_max = 200
    try:
        rows = list(chain.sequence_rows(n_max))
    except Inexact as exc:
        return "sequence_recursions", False, str(exc)
    failures = []
    for kind, col in (("a", 1), ("b", 2)):
        c = [None] + [int(row[col]) for row in rows]  # c[n] = c_n
        C = [None, None] + [int(row[col + 2]) for row in rows[1:]]  # C[n] = C_n, n >= 2
        failures += [(kind, "first_order", n) for n in range(2, n_max)
                     if c[n] != C[n + 1] - C[n]]
        failures += [(kind, "difference", n) for n in range(3, n_max)
                     if C[n + 1] + C[n - 1] != (n + 2) * C[n]]
    if failures:
        return "sequence_recursions", False, f"failures: {failures[:3]}"
    return ("sequence_recursions", True,
            f"first-order and difference recursions exact to n={n_max}")


def _series_wronskian(n: int):
    """pi (J_{n+1}(2) Y_n(2) - J_n(2) Y_{n+1}(2)), equal to 1 for every n."""
    return PI * (bessel_j(n + 1, None) * bessel_y(n, None)
                 - bessel_j(n, None) * bessel_y(n + 1, None))


def check_upsilon_wronskian() -> CheckResult:
    for n in range(11):
        if upsilon(n + 1, n) != 1:
            return "upsilon_wronskian", False, f"integer recursion gives {upsilon(n+1,n)} at n={n}"
        w = _series_wronskian(n)
        if abs(w.value - 1.0) > w.err:
            return "upsilon_wronskian", False, f"series Wronskian off by {w.value - 1.0:.2e} at n={n}"
    return "upsilon_wronskian", True, "Upsilon(n+1,n)=1 and series Wronskian=1 for n<=(10)"


def check_upsilon_definition() -> CheckResult:
    for m in range(6):
        for n in range(m, 13):
            ana = upsilon_analytic(n, m)
            if abs(ana.value - upsilon(n, m)) > ana.err:
                return (
                    "upsilon_definition",
                    False,
                    f"analytic {ana.value} vs integer {upsilon(n, m)} at ({n},{m})",
                )
    return "upsilon_definition", True, "analytic route matches integers for m<=5, n<=12"


def check_truncated_solve() -> CheckResult:
    sol = chain.stationary_truncated_solve(25)
    if abs(sol.probs[0] - PI0_QUOTED) > 1e-9:
        return "truncated_solve", False, f"pi_0 = {sol.probs[0]!r} vs quoted {PI0_QUOTED}"
    worst = 0.0
    for n in range(21):
        worst = max(worst, abs(sol.probs[n] - chain.pi(n, 1e-13).value))
    if worst > 1e-10:
        return "truncated_solve", False, f"max gap to closed form {worst:.2e} > 1e-10"
    return "truncated_solve", True, f"K=25 solve matches closed form within {worst:.1e}"


def check_exact_constants() -> CheckResult:
    p0 = chain.pi0(1e-10)
    tau = constants.time_constant(1e-10)
    t = constants.avg_residual_time(1e-10)
    for val, ref, name in ((p0, PI0_QUOTED, "pi0"), (tau, TAU_QUOTED, "tau"), (t, T_QUOTED, "T")):
        if abs(val.value - ref) > 1e-9:
            return "exact_constants", False, f"{name} = {val.value!r} vs quoted {ref}"
    recip = 1.0 / (1.0 + p0.value)
    if abs(recip - tau.value) > 2e-10:
        return "exact_constants", False, "tau and 1/(1+pi0) disagree"
    if not (t.value < tau.value and 0.5 < tau.value < 1.0):
        return "exact_constants", False, "ordering constraints violated"
    return "exact_constants", True, "pi0, tau, T match quoted decimals within 1e-9"


def check_gamma() -> CheckResult:
    """The first-step recursion against the closed form sum_{j<=n+2} 1/j! - 2,
    each walked once for n <= 100; the recursion's increments must be 1/(n+2)!,
    and `gamma_residual` must give the closed form at n = 0 and n = 100."""
    if constants.gamma_residual(0) != Fraction(1, 2):
        return "gamma_residual", False, "gamma_0 != 1/2"
    rec = list(islice(constants.gamma_residual_terms(), 101))
    if rec[1] != Fraction(2, 3):
        return "gamma_residual", False, "recursion gamma_1 != 2/3"
    inv_fact, closed = Fraction(1, 2), Fraction(1, 2)  # 1/(n+2)! and the closed form at n = 0
    for n in range(1, 101):
        inv_fact /= n + 2
        closed += inv_fact
        if rec[n] != closed:
            return "gamma_residual", False, f"closed form deviates from recursion at n={n}"
        if rec[n] - rec[n - 1] != Fraction(1, math.factorial(n + 2)):
            return "gamma_residual", False, f"increment at n={n} is {rec[n] - rec[n - 1]}"
    if constants.gamma_residual(100) != closed:
        return "gamma_residual", False, "gamma_residual(100) deviates from the closed form"
    return "gamma_residual", True, "recursion = closed form (offset -2), increments 1/(n+2)!, n<=100"


def check_residual_series() -> CheckResult:
    """T from the rearranged Bessel series against the direct sum of pi_n*gamma_n,
    both with bounds, and the plain float sum over n <= 25 against the quoted T."""
    series = constants.avg_residual_time(1e-10)
    direct = constants.avg_residual_time_direct(1e-10)
    if abs(direct.value - series.value) > direct.err + series.err:
        return ("residual_series", False,
                f"series {series.value!r} vs direct {direct.value!r} beyond their bounds")
    fl = sum(chain.pi(n, 1e-13).value * float(g)
             for n, g in zip(range(26), constants.gamma_residual_terms()))
    if abs(fl - T_QUOTED) > 1e-9:
        return "residual_series", False, f"float sum pi_n*gamma_n = {fl!r} vs quoted T {T_QUOTED}"
    return ("residual_series", True,
            f"series = direct route within bounds; float sum pi_n*gamma_n within "
            f"{abs(fl - T_QUOTED):.2e} of quoted T")


def check_stationarity_residual() -> CheckResult:
    """|(Pi Q)_j| for the closed-form Pi truncated at K = 30, in exact rationals,
    with Q's rows 0..K from `chain.q_row`.

    Uses rational J-series partial sums (truncation ~1e-100), so the residual
    in column j is exactly the mass the truncation at K drops, which is below
    10x the analytic tail bound.
    """
    K = 30
    probs, tail_bound = _pi_fractions(K)
    cols = [Fraction(0)] * (K + 2)
    for n, p in enumerate(probs):
        row = chain.q_row(n)
        cols[n] += p * row.diagonal
        for j, rate in row.entries.items():
            cols[j] += p * rate
    for j, col in enumerate(cols[:K - 2]):
        if abs(col) > 10 * tail_bound:
            return "stationarity_residual", False, f"(Pi Q)_{j} = {float(col):.2e}"
    return (
        "stationarity_residual",
        True,
        f"|(Pi Q)_j| <= 10*tail for j <= {K-3} (tail ~ {float(tail_bound):.1e})",
    )


def check_normalization() -> CheckResult:
    """Telescoping identity sum_0^20 pi_j = 1 - 2 J_23/(2J_3+J_0), exact in rationals."""
    probs, tail = _pi_fractions(20)
    if sum(probs) != 1 - tail:
        return "normalization", False, "telescoped sum does not match the tail identity"
    fl = sum(chain.pi(n, 1e-13).value for n in range(21))
    if abs(fl - 1.0) > 1e-13:
        return "normalization", False, f"float route sums to {fl!r}"
    return "normalization", True, "sum_0^20 pi_j telescopes exactly; float route = 1 - O(1e-15)"


def run_quick_checks() -> list[CheckResult]:
    return [
        check_generator_rows(),
        check_sequence_tables(),
        check_two_route_sequences(),
        check_sequence_recursions(),
        check_upsilon_wronskian(),
        check_upsilon_definition(),
        check_truncated_solve(),
        check_exact_constants(),
        check_gamma(),
        check_residual_series(),
        check_stationarity_residual(),
        check_normalization(),
    ]


# ---------------------------------------------------------------------------
# Monte Carlo checks (seeded; 4-sigma tolerances).

BURN_IN = 100.0


@dataclass(frozen=True)
class MonteCarloRuns:
    """The seeded runs the Monte Carlo checks share, each built once."""

    seed: int
    both: simulate.SimEstimate  # T_H/H, H = 1e5, 20 replicates from both nodes (streams seed)
    both_values: np.ndarray  # the per-replicate T_H/H behind `both`
    single: simulate.SimEstimate  # the same from a single node (streams seed + 1)
    trajectory: simulate.ChainTrajectory  # the front chain to t_max = 1e6 (stream seed)


def monte_carlo_runs(seed: int, jobs: int = 1) -> MonteCarloRuns:
    """The percolation replicates from both nodes (seed) and from one node
    (seed + 1), and the front chain (seed); `jobs` processes run replicates."""
    fpp = dict(mode="fpp_dijkstra", target_height=10 ** 5, replicates=20)
    both, both_values = simulate.fpp_time_constant(simulate.SimConfig(seed=seed, **fpp), jobs)
    single, _ = simulate.fpp_time_constant(
        simulate.SimConfig(seed=seed + 1, initial="single_node", **fpp), jobs)
    traj = simulate.simulate_front_chain(
        simulate.SimConfig(seed=seed, mode="front_chain", t_max=1e6, burn_in=BURN_IN))
    return MonteCarloRuns(seed, both, both_values, single, traj)


def check_mc_time_constant(runs: MonteCarloRuns) -> CheckResult:
    est = runs.both
    tau = constants.time_constant(1e-10).value
    dev = abs(est.mean - tau)
    return (
        "mc_time_constant",
        dev <= 4 * est.std_err,
        f"T_H/H = {est.mean:.6f} +- {est.std_err:.1e} vs tau={tau:.6f} ({dev/est.std_err:.2f} sigma)",
    )


def check_mc_cross_engine(runs: MonteCarloRuns) -> CheckResult:
    """The percolation rate 1/tau from the Dijkstra replicates against the
    Gillespie chain's batch-mean estimate: two engines that share no code."""
    inv = 1.0 / runs.both_values
    inv_se = inv.std(ddof=1) / math.sqrt(len(inv))
    chain_est = simulate.height_rate_estimate(runs.trajectory, BURN_IN)
    combined = math.hypot(inv_se, chain_est.std_err)
    dev = abs(inv.mean() - chain_est.mean)
    return (
        "mc_cross_engine",
        dev <= 4 * combined,
        f"1/tau: dijkstra {inv.mean():.6f} vs gillespie {chain_est.mean:.6f} "
        f"({dev / combined:.2f} x combined SE)",
    )


def check_mc_initial_invariance(runs: MonteCarloRuns) -> CheckResult:
    e1, e2 = runs.both, runs.single
    combined = math.hypot(e1.std_err, e2.std_err)
    dev = abs(e1.mean - e2.mean)
    return (
        "mc_initial_invariance",
        dev <= 4 * combined,
        f"both {e1.mean:.6f} vs single {e2.mean:.6f} ({dev/combined:.2f} sigma)",
    )


def check_mc_occupation(runs: MonteCarloRuns) -> CheckResult:
    occ = simulate.empirical_front_distribution(runs.trajectory, BURN_IN)
    p0 = chain.pi0(1e-12).value
    dev = abs(occ[0].mean - p0)
    if dev > 4 * occ[0].std_err:
        return "mc_occupation", False, f"state-0 fraction {occ[0].mean:.5f} ({dev/occ[0].std_err:.2f} sigma)"
    tv = 0.5 * sum(
        abs((occ[s].mean if s < len(occ) else 0.0) - chain.pi(s, 1e-13).value)
        for s in range(16)
    )
    ok = tv < 0.005
    return "mc_occupation", ok, f"state-0 within {dev/occ[0].std_err:.2f} sigma; TV(0..15) = {tv:.2e}"


def check_mc_residual(runs: MonteCarloRuns) -> CheckResult:
    """Mean residual time at 10^4 uniform sample times against T, and the
    residuals conditional on front 0 and 1 against gamma_0 = 1/2, gamma_1 = 2/3."""
    traj = runs.trajectory
    times = simulate.residual_sample_times(traj, BURN_IN, 10 ** 4, runs.seed)
    est, _ = simulate.empirical_residual_time(traj, times)
    t_exact = constants.avg_residual_time(1e-10).value
    sigmas = [abs(est.mean - t_exact) / est.std_err]
    states = simulate.front_state_at(traj, times)
    for n, expect in ((0, 0.5), (1, 2.0 / 3.0)):
        cond, _ = simulate.empirical_residual_time(traj, times[states == n])
        sigmas.append(abs(cond.mean - expect) / cond.std_err)
    return (
        "mc_residual",
        max(sigmas) <= 4,
        f"mean residual {est.mean:.5f} +- {est.std_err:.1e} vs {t_exact:.5f} ({sigmas[0]:.2f} "
        f"sigma); given F=0/F=1 at {sigmas[1]:.2f}/{sigmas[2]:.2f} sigma",
    )


def run_full_checks(seed: int, jobs: int = 1) -> list[CheckResult]:
    runs = monte_carlo_runs(seed, jobs)
    return run_quick_checks() + [
        check_mc_time_constant(runs),
        check_mc_cross_engine(runs),
        check_mc_initial_invariance(runs),
        check_mc_occupation(runs),
        check_mc_residual(runs),
    ]
