"""Cross-route validation: every closed form checked against an independent
route (exact rationals, truncated linear algebra, or Monte Carlo).

Each check returns (name, ok, detail).  `run_quick_checks` covers all exact
and linear-algebra routes in well under a second; `run_full_checks` adds the
Monte Carlo comparisons at 4-sigma tolerances.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import chain, constants, simulate
from .bessel import bessel_j, bessel_y, upsilon, upsilon_analytic, PI

__all__ = ["run_quick_checks", "run_full_checks", "CheckResult"]

CheckResult = tuple[str, bool, str]

PI0_QUOTED = 0.4647184275
TAU_QUOTED = 0.6827250759
T_QUOTED = 0.5953444665


def _j_fraction(n: int, terms: int = 40) -> Fraction:
    """Rational partial sum of the J_n(2) series; error < 1/(terms! (n+terms)!)."""
    return sum(
        (Fraction((-1) ** k, math.factorial(k) * math.factorial(n + k)) for k in range(terms)),
        Fraction(0),
    )


def check_generator_rows(n_max: int = 50) -> CheckResult:
    for n in range(n_max + 1):
        row = chain.q_row(n)
        if row.diagonal != -(n + 2):
            return "generator_rows", False, f"diagonal wrong at state {n}"
        if any(r < 0 for r in row.entries.values()):
            return "generator_rows", False, f"negative rate at state {n}"
        if sum(row.entries.values()) + row.diagonal != 0:
            return "generator_rows", False, f"row {n} does not sum to zero"
    return "generator_rows", True, f"rows 0..{n_max} sum to zero, rates >= 0"


def check_two_route_sequences(n_max: int = 200) -> CheckResult:
    """a_n, b_n from their recursion against the Upsilon route of `chain.seq_via_upsilon`:
    forward differences of the table's Upsilon columns.  One pass gives both."""
    rows = [[int(v) for v in (a, b, u0, u3)]
            for _, a, b, _, _, u0, u3 in chain.sequence_rows(n_max + 1)]
    for n, ((a, b, u0, u3), nxt) in enumerate(zip(rows, rows[1:]), start=1):
        for kind, c, via in (("a", a, nxt[3] - u3), ("b", b, nxt[2] - u0)):
            if c != via:
                return "two_route_sequences", False, f"{kind}_{n} differs between routes"
    return (
        "two_route_sequences",
        True,
        f"recursion equals Upsilon route for n=1..{n_max} (n=1 included)",
    )


def check_sequence_recursions(n_max: int = 200) -> CheckResult:
    rep = chain.check_sequence_recursions(n_max)
    return (
        "sequence_recursions",
        rep.ok,
        f"first-order and difference recursions exact to n={n_max}"
        if rep.ok
        else f"failures: {rep.failures[:3]}",
    )


def check_upsilon_wronskian(n_max: int = 10) -> CheckResult:
    for n in range(n_max + 1):
        if upsilon(n + 1, n) != 1:
            return "upsilon_wronskian", False, f"integer recursion gives {upsilon(n+1,n)} at n={n}"
        jn = bessel_j(n, None)
        jn1 = bessel_j(n + 1, None)
        yn = bessel_y(n, None)
        yn1 = bessel_y(n + 1, None)
        w = PI * (jn1 * yn - jn * yn1)
        if abs(w.value - 1.0) > min(max(w.err, 1e-12), 1e-9):
            return "upsilon_wronskian", False, f"series Wronskian off by {w.value - 1.0:.2e} at n={n}"
    return "upsilon_wronskian", True, f"Upsilon(n+1,n)=1 and series Wronskian=1 for n<=({n_max})"


def check_upsilon_definition(m_max: int = 5, n_max: int = 12) -> CheckResult:
    for m in range(m_max + 1):
        for n in range(m, n_max + 1):
            ana = upsilon_analytic(n, m)
            if abs(ana.value - upsilon(n, m)) > ana.err:
                return (
                    "upsilon_definition",
                    False,
                    f"analytic {ana.value} vs integer {upsilon(n, m)} at ({n},{m})",
                )
    return "upsilon_definition", True, f"analytic route matches integers for m<={m_max}, n<={n_max}"


def check_truncated_solve(K: int = 25) -> CheckResult:
    sol = chain.stationary_truncated_solve(K)
    if abs(sol.probs[0] - PI0_QUOTED) > 1e-9:
        return "truncated_solve", False, f"pi_0 = {sol.probs[0]!r} vs quoted {PI0_QUOTED}"
    worst = 0.0
    for n in range(21):
        worst = max(worst, abs(sol.probs[n] - chain.pi(n, 1e-13).value))
    if worst > 1e-10:
        return "truncated_solve", False, f"max gap to closed form {worst:.2e} > 1e-10"
    return "truncated_solve", True, f"K={K} solve matches closed form within {worst:.1e}"


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
    if constants.gamma_residual(0) != Fraction(1, 2):
        return "gamma_residual", False, "gamma_0 != 1/2"
    if constants.gamma_residual_recursion(1) != Fraction(2, 3):
        return "gamma_residual", False, "recursion gamma_1 != 2/3"
    for n in range(0, 101):
        if constants.gamma_residual(n) != constants.gamma_residual_recursion(n):
            return "gamma_residual", False, f"closed form deviates from recursion at n={n}"
        if n >= 2:
            inc = constants.gamma_residual(n) - constants.gamma_residual(n - 1)
            if inc != Fraction(1, math.factorial(n + 2)):
                return "gamma_residual", False, f"increment at n={n} is {inc}"
    return "gamma_residual", True, "recursion = closed form (offset -2), increments 1/(n+2)!, n<=100"


def check_stationarity_residual(K: int = 30) -> CheckResult:
    """|(Pi Q)_j| for the closed-form Pi, in exact rationals.

    Uses rational J-series partial sums (truncation ~1e-100), so the residual
    in column j is exactly the mass the truncation at K drops, which is below
    10x the analytic tail bound.
    """
    J = {n: _j_fraction(n) for n in range(K + 4)}
    denom = 2 * J[3] + J[0]
    probs = [J[0] / denom] + [2 * (J[n + 2] - J[n + 3]) / denom for n in range(1, K + 1)]
    tail_bound = 2 * J[K + 3] / denom
    for j in range(K - 2):
        col = probs[j] * (-(j + 2))
        if j >= 1:
            col += probs[j - 1] * (2 if j == 1 else 1)
        col += probs[j + 1] * 2
        col += sum(probs[n] for n in range(j + 2, K + 1))
        if abs(col) > 10 * tail_bound:
            return "stationarity_residual", False, f"(Pi Q)_{j} = {float(col):.2e}"
    return (
        "stationarity_residual",
        True,
        f"|(Pi Q)_j| <= 10*tail for j <= {K-3} (tail ~ {float(tail_bound):.1e})",
    )


def check_normalization(N: int = 20) -> CheckResult:
    """Telescoping identity sum_0^N pi_j = 1 - 2 J_{N+3}/(2J_3+J_0), exact in rationals."""
    J = {n: _j_fraction(n) for n in range(N + 4)}
    denom = 2 * J[3] + J[0]
    total = J[0] / denom + sum(2 * (J[n + 2] - J[n + 3]) / denom for n in range(1, N + 1))
    if total != 1 - 2 * J[N + 3] / denom:
        return "normalization", False, "telescoped sum does not match the tail identity"
    fl = sum(chain.pi(n, 1e-13).value for n in range(N + 1))
    if abs(fl - 1.0) > 1e-13:
        return "normalization", False, f"float route sums to {fl!r}"
    return "normalization", True, f"sum_0^{N} pi_j telescopes exactly; float route = 1 - O(1e-15)"


def run_quick_checks() -> list[CheckResult]:
    return [
        check_generator_rows(),
        check_two_route_sequences(),
        check_sequence_recursions(),
        check_upsilon_wronskian(),
        check_upsilon_definition(),
        check_truncated_solve(),
        check_exact_constants(),
        check_gamma(),
        check_stationarity_residual(),
        check_normalization(),
    ]


# ---------------------------------------------------------------------------
# Monte Carlo checks (seeded; 4-sigma tolerances).


def check_mc_time_constant(seed: int, height: int = 10 ** 5, replicates: int = 20,
                           jobs: int = 1) -> CheckResult:
    cfg = simulate.SimConfig(
        seed=seed, mode="fpp_dijkstra", target_height=height, replicates=replicates
    )
    est, _ = simulate.fpp_time_constant(cfg, jobs=jobs)
    tau = constants.time_constant(1e-10).value
    dev = abs(est.mean - tau)
    ok = dev <= 4 * est.std_err
    return (
        "mc_time_constant",
        ok,
        f"T_H/H = {est.mean:.6f} +- {est.std_err:.1e} vs tau={tau:.6f} ({dev/est.std_err:.2f} sigma)",
    )


def check_mc_initial_invariance(seed: int, height: int = 10 ** 5, replicates: int = 20,
                                jobs: int = 1) -> CheckResult:
    both = simulate.SimConfig(
        seed=seed, mode="fpp_dijkstra", target_height=height, replicates=replicates
    )
    single = simulate.SimConfig(
        seed=seed + 1,
        mode="fpp_dijkstra",
        target_height=height,
        replicates=replicates,
        initial="single_node",
    )
    e1, _ = simulate.fpp_time_constant(both, jobs=jobs)
    e2, _ = simulate.fpp_time_constant(single, jobs=jobs)
    combined = math.hypot(e1.std_err, e2.std_err)
    dev = abs(e1.mean - e2.mean)
    return (
        "mc_initial_invariance",
        dev <= 4 * combined,
        f"both {e1.mean:.6f} vs single {e2.mean:.6f} ({dev/combined:.2f} sigma)",
    )


def check_mc_occupation(seed: int, t_max: float = 1e6, burn_in: float = 100.0) -> CheckResult:
    cfg = simulate.SimConfig(seed=seed, mode="front_chain", t_max=t_max, burn_in=burn_in)
    traj = simulate.simulate_front_chain(cfg)
    occ = simulate.empirical_front_distribution(traj, burn_in)
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


def check_mc_residual(seed: int, t_max: float = 1e6, burn_in: float = 100.0,
                      n_samples: int = 10 ** 4) -> CheckResult:
    cfg = simulate.SimConfig(seed=seed, mode="front_chain", t_max=t_max, burn_in=burn_in)
    traj = simulate.simulate_front_chain(cfg)
    rng = simulate.make_stream(seed, 1)
    times = burn_in + (traj.total_time - burn_in - 50.0) * rng.random(n_samples)
    est, _ = simulate.empirical_residual_time(traj, times)
    t_exact = constants.avg_residual_time(1e-10).value
    dev = abs(est.mean - t_exact)
    return (
        "mc_residual",
        dev <= 4 * est.std_err,
        f"mean residual {est.mean:.5f} +- {est.std_err:.1e} vs {t_exact:.5f} ({dev/est.std_err:.2f} sigma)",
    )


def run_full_checks(seed: int, jobs: int = 1) -> list[CheckResult]:
    out = run_quick_checks()
    out.append(check_mc_time_constant(seed, jobs=jobs))
    out.append(check_mc_initial_invariance(seed, jobs=jobs))
    out.append(check_mc_occupation(seed))
    out.append(check_mc_residual(seed))
    return out
