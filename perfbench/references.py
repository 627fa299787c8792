"""Independent references and output checks for the benchmark.

Nothing here calls ladder_fpp.  The references come from the paper's
definitions and from other libraries:

* pi_n, tau and T from mpmath's J_n(2) at 40 digits;
* the front chain's generator rates and the first a_n/b_n values, written out;
* the a_n/b_n/Upsilon table from the recurrences in exact decimal arithmetic;
* shortest paths over an FPP record's own edge weights from scipy's Dijkstra.

Every check returns a list of problems (empty when the output passes).  The
Monte Carlo checks take a false-alarm budget `alpha` and test at that level
with the replicate or batch count actually used.
"""

from __future__ import annotations

import csv
import json
import math
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, Rounded

# ---------------------------------------------------------------------------
# The front chain, as the paper defines it.


def rate(s: int, t: int) -> int:
    """Generator rate q(s, t) of the front chain for s != t.

    From 0 both candidate infections raise the height: q(0, 1) = 2.  From
    s >= 1 the lagging level advances by one (rail or rung: q(s, s-1) = 2),
    jumps through a higher rung (q(s, j) = 1 for j <= s-2), or the leading
    level extends (q(s, s+1) = 1).
    """
    if s == 0:
        return 2 if t == 1 else 0
    if t == s + 1:
        return 1
    if t == s - 1:
        return 2
    return 1 if 0 <= t <= s - 2 else 0


# pi_n = a_n*pi_0 - b_n for n = 1..10 (the paper's Table 1 lists the first of these).
TABLE1_A = (3, 11, 56, 340, 2395, 19231, 173490, 1737706, 19136803, 229837163)
TABLE1_B = (1, 5, 26, 158, 1113, 8937, 80624, 807544, 8893225, 106809565)


def balance_coefficients(n_max: int) -> list[tuple[int, int]]:
    """(a_n, b_n) for n = 1..n_max solved from the balance equations (pi Q)_j = 0.

    Column j reads sum_{n <= j+1} pi_n q(n, j) - (j+2) pi_j + sum_{n >= j+2} pi_n = 0
    (every state n >= j+2 jumps to j at rate 1), and the last sum is
    1 - sum_{n <= j+1} pi_n.  pi_{j+1} enters with coefficient q(j+1, j) - 1 = 1,
    so each column gives the next probability.  A pair (a, b) stands for a*pi_0 - b.
    """
    coef = [(1, 0)]
    for j in range(n_max):
        a = b = 0
        for n, (an, bn) in enumerate(coef):
            w = (rate(n, j) if n != j else -(j + 2)) - 1
            a += w * an
            b += w * bn
        # constant 1 from the normalisation is the pair (0, -1)
        coef.append((-a, -(b - 1)))
    return coef[1:]


# ---------------------------------------------------------------------------
# Exact constants from mpmath.


class Exact:
    """pi_n, tau, T and the tails of Pi at 40 significant digits."""

    def __init__(self, n_max: int = 80):
        import mpmath

        self.mp = mpmath.mp.clone()
        self.mp.dps = 40
        mp = self.mp
        J = [mp.besselj(n, 2) for n in range(n_max + 4)]
        D = 2 * J[3] + J[0]
        self.J, self.D = J, D
        self.pi = [J[0] / D] + [2 * (J[n + 2] - J[n + 3]) / D for n in range(1, n_max + 1)]
        self.tau = 1 / (1 + self.pi[0])
        # gamma_n = sum_{j <= n+2} 1/j! - 2 < 1, so the dropped tail is below
        # Pi's tail beyond n_max, ~1e-230
        gamma = [mp.fsum(1 / mp.factorial(j) for j in range(n + 3)) - 2 for n in range(n_max + 1)]
        self.T = mp.fsum(p * g for p, g in zip(self.pi, gamma))

    def tail(self, K: int):
        """True mass of Pi beyond state K: 2 J_{K+3} / (2 J_3 + J_0)."""
        return 2 * self.J[K + 3] / self.D

    def gap(self, value: float, ref) -> float:
        return float(abs(self.mp.mpf(value) - ref))


def check_bounded(name: str, out, ref, tol: float, exact: Exact) -> list[str]:
    """A BoundedReal must enclose the reference and honour its tolerance."""
    gap = exact.gap(out.value, ref)
    problems = []
    if not gap <= out.err:
        problems.append(f"{name}: |value - ref| = {gap:.3e} exceeds err {out.err:.3e}")
    if not out.err <= tol:
        problems.append(f"{name}: err {out.err:.3e} exceeds tol {tol:.1e}")
    return problems


def check_distribution(name, probs, tail_bound, tol, exact: Exact, sum_tol=None) -> list[str]:
    """Entry-wise agreement with pi_n, and probs + tail bound cover the whole mass."""
    problems = []
    worst = max(exact.gap(p, exact.pi[n]) for n, p in enumerate(probs))
    if not worst <= tol:
        problems.append(f"{name}: max |p_n - pi_n| = {worst:.3e} > {tol:.1e}")
    K = len(probs) - 1
    true_tail = exact.tail(K)
    if not tail_bound >= true_tail:
        problems.append(f"{name}: tail bound {tail_bound!r} below the true tail {float(true_tail):.3e}")
    if sum_tol is not None and not math.fsum(probs) + tail_bound >= 1.0 - sum_tol:
        problems.append(f"{name}: probs + tail bound = {math.fsum(probs) + tail_bound!r} < 1")
    return problems


# ---------------------------------------------------------------------------
# The sequence table.

TABLE_HEADER = ["n", "a_n", "b_n", "A_n", "B_n", "Ups(n+2,0)", "2Ups(n+2,3)+Ups(n+2,0)"]


def table_rows(n_max: int) -> list[list[str | None]]:
    """Rows of the sequences table as decimal strings, from the recurrences.

    a_n, b_n: seeds (3, 11, 56) and (1, 5, 26), then
    c_n = c_{n-3} - (n+1) c_{n-2} + (n+3) c_{n-1}.  A_n = (a_n - a_{n-1})/n and
    B_n likewise, which must divide exactly.  Upsilon(n+1, m) =
    n Upsilon(n, m) - Upsilon(n-1, m) from Upsilon(m, m) = 0, Upsilon(m+1, m) = 1.
    Exact decimal arithmetic (every rounding trapped) keeps the cost linear in
    the digit count, so even long tables check in well under a second.
    """
    ctx = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact, Rounded])
    a = [Decimal(3), Decimal(11), Decimal(56)]
    b = [Decimal(1), Decimal(5), Decimal(26)]
    for n in range(4, n_max + 1):
        a.append(ctx.add(ctx.subtract(a[-3], ctx.multiply(n + 1, a[-2])), ctx.multiply(n + 3, a[-1])))
        b.append(ctx.add(ctx.subtract(b[-3], ctx.multiply(n + 1, b[-2])), ctx.multiply(n + 3, b[-1])))
    ups = {}
    for m in (0, 3):
        run = {m: Decimal(0), m + 1: Decimal(1)}
        for j in range(m, 0, -1):  # downward: Ups(j-1) = j Ups(j) - Ups(j+1)
            run[j - 1] = ctx.subtract(ctx.multiply(j, run[j]), run[j + 1])
        for j in range(m + 1, n_max + 2):
            run[j + 1] = ctx.subtract(ctx.multiply(j, run[j]), run[j - 1])
        ups[m] = run
    rows = []
    for n in range(1, n_max + 1):
        big = [None, None]
        if n >= 2:
            for i, c in enumerate((a, b)):
                q, r = ctx.divmod(ctx.subtract(c[n - 1], c[n - 2]), n)
                if r != 0:
                    raise ArithmeticError(f"difference sequence not integral at n={n}")
                big[i] = str(q)
        u0 = ups[0][n + 2]
        u3 = ctx.add(ctx.multiply(2, ups[3][n + 2]), u0)
        rows.append([str(n), str(a[n - 1]), str(b[n - 1]), big[0], big[1], str(u0), str(u3)])
    return rows


def parse_table(fmt: str, text: str) -> tuple[list[str], list[list[str | None]]]:
    """Header and rows of a `sequences` table, every entry kept as a string."""
    if fmt == "csv":
        header, *rows = csv.reader(text.splitlines())
        return header, [[v if v != "" else None for v in r] for r in rows]
    doc = json.loads(text, parse_int=str)
    return doc["columns"], doc["rows"]


def check_table(header, rows, ref_rows) -> list[str]:
    problems = []
    if header != TABLE_HEADER:
        problems.append(f"table header {header!r}")
    if len(rows) != len(ref_rows):
        problems.append(f"table has {len(rows)} rows, expected {len(ref_rows)}")
    for got, want in zip(rows, ref_rows):
        if got != want:
            col = next(i for i in range(len(want)) if i >= len(got) or got[i] != want[i])
            problems.append(f"table row n={want[0]} column {TABLE_HEADER[col]} differs")
            if len(problems) >= 5:
                break
    return problems


# ---------------------------------------------------------------------------
# Front-chain trajectory dump.


def check_dump_rows(rows) -> tuple[list[str], int]:
    """Rows t,state,height: start at (0, 0, 0); each row one allowed jump later.

    Takes any iterable of rows; returns the problems and the row count.
    """
    problems = []
    prev = None
    n = 0
    for n, row in enumerate(rows, start=1):
        if len(row) != 3:
            problems.append(f"dump row {n}: {row!r}")
            break
        t, s, h = float(row[0]), int(row[1]), int(row[2])
        if prev is None:
            if (t, s, h) != (0.0, 0, 0):
                problems.append(f"dump starts at {(t, s, h)!r}")
        elif len(problems) < 5:
            pt, ps, ph = prev
            if not t > pt:
                problems.append(f"dump row {n}: time {t!r} does not increase")
            if rate(ps, s) == 0:
                problems.append(f"dump row {n}: jump {ps} -> {s} has rate 0")
            if h != ph + (s == ps + 1):
                problems.append(f"dump row {n}: height {ph} -> {h} on jump {ps} -> {s}")
        prev = t, s, h
    return problems, n


# ---------------------------------------------------------------------------
# Monte Carlo agreement tests.


def t_test(name: str, est: float, se: float, ref: float, df: int, alpha: float) -> list[str]:
    """Two-sided t-test of est against ref at false-alarm probability alpha."""
    from scipy import stats

    crit = float(stats.t.isf(alpha / 2, df))
    z = abs(est - ref) / se
    if not z <= crit:
        return [f"{name}: {est:.6g} vs {ref:.6g} is {z:.1f} SE off (limit {crit:.1f}, df {df})"]
    return []


def mean_se(values) -> tuple[float, float, int]:
    n = len(values)
    m = math.fsum(values) / n
    var = math.fsum((v - m) ** 2 for v in values) / (n - 1)
    return m, math.sqrt(var / n), n - 1


def pooled(estimates) -> tuple[float, float, int]:
    """Average of independent (mean, se, n) estimates, with its SE and df."""
    k = len(estimates)
    m = math.fsum(e[0] for e in estimates) / k
    se = math.sqrt(math.fsum(e[1] ** 2 for e in estimates)) / k
    return m, se, sum(e[2] - 1 for e in estimates)


def welch_test(name: str, x, y, alpha: float) -> list[str]:
    mx, sx, _ = mean_se(x)
    my, sy, _ = mean_se(y)
    se = math.hypot(sx, sy)
    df = se ** 4 / (sx ** 4 / (len(x) - 1) + sy ** 4 / (len(y) - 1))
    return t_test(name, mx - my, se, 0.0, max(1, int(df)), alpha)


def rate_test(s: int, t: int, count: int, exposure: float, alpha: float) -> list[str]:
    """Observed s -> t jumps against a Poisson count with mean q(s, t) * exposure."""
    from scipy import stats

    q = rate(s, t)
    if q == 0:
        return [] if count == 0 else [f"rate q({s},{t}): {count} jumps where the generator allows none"]
    lam = q * exposure
    p = min(stats.poisson.cdf(count, lam), stats.poisson.sf(count - 1, lam))
    if not p >= alpha / 2:
        return [f"rate q({s},{t}): {count} jumps over exposure {exposure:.1f}, "
                f"estimate {count / exposure:.4f} vs {q} (p = {p:.1e})"]
    return []


# ---------------------------------------------------------------------------
# FPP record against scipy's Dijkstra.


def dijkstra_mismatches(record) -> list[str]:
    """Settled infection times must equal scipy's shortest paths exactly.

    The graph holds every edge weight the record sampled; each settled vertex's
    edges were all sampled when it was settled, so its shortest path is inside.
    """
    import numpy as np
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import dijkstra

    rail, rung = record.rail_weights, record.rung_weights
    size = rail.shape[1]
    src, dst, w = [], [], []
    for y in (0, 1):
        xs = np.nonzero(~np.isnan(rail[y]))[0]
        src.append(y * size + xs)
        dst.append(y * size + xs + 1)
        w.append(rail[y, xs])
    xs = np.nonzero(~np.isnan(rung))[0]
    src.append(xs)
    dst.append(size + xs)
    w.append(rung[xs])
    graph = coo_matrix(
        (np.concatenate(w), (np.concatenate(src), np.concatenate(dst))), shape=(2 * size, 2 * size)
    ).tocsr()
    sources = [0, size] if record.initial == "both_nodes" else [0]
    dist = dijkstra(graph, directed=False, indices=sources, min_only=True).reshape(2, size)
    settled = record.settled
    got = record.infection_times[settled]
    want = dist[settled]
    bad = int(np.count_nonzero(got != want))
    if bad:
        gap = float(np.max(np.abs(got - want)))
        return [f"dijkstra: {bad} settled times differ from scipy (max gap {gap:.3e})"]
    return []


def check_validate_output(rc: int, stdout: str, stderr: str) -> list[str]:
    """`validate quick` exits 0, every line PASS, and the tally says all passed."""
    lines = stdout.strip().splitlines()
    tally = lines[-1].split() if lines else []
    done, _, total = tally[0].partition("/") if tally else ("", "", "")
    if not (rc == 0 and tally[1:] == ["checks", "passed"] and done == total and done.isdigit()
            and int(done) == len(lines) - 1 and all(line.startswith("PASS ") for line in lines[:-1])):
        return [f"validate quick: exit {rc}, output {stdout[-300:]!r} {stderr[-300:]!r}"]
    return []
