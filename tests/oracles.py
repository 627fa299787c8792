"""Independent oracles for the test suite.

Everything here is deliberately separate from the package implementation:
exact-rational Bessel partial sums with alternating-series remainder bounds,
plain-int recursions for a_n, b_n and Upsilon, an exact-rational solve of
the truncated balance system, a brute-force shortest-path search over an
explicit edge list, the event-by-event count of front transitions and the
front chain's jump rule on one draw.
"""

from fractions import Fraction
from math import factorial


def j_partial(n: int, terms: int) -> Fraction:
    """Rational partial sum of J_n(2) = sum (-1)^k / (k!(n+k)!)."""
    return sum(
        (Fraction((-1) ** k, factorial(k) * factorial(n + k)) for k in range(terms)),
        Fraction(0),
    )


def j_oracle(n: int, terms: int = 45) -> tuple[Fraction, Fraction]:
    """(partial sum, remainder bound): |J_n(2) - partial| <= bound.

    The terms alternate with strictly decreasing magnitude, so the remainder
    is bounded by the first omitted term.
    """
    return j_partial(n, terms), Fraction(1, factorial(terms) * factorial(n + terms))


def pi_oracle(n: int, terms: int = 45) -> Fraction:
    """Closed-form stationary probability from the rational J oracle."""
    denom = 2 * j_partial(3, terms) + j_partial(0, terms)
    if n == 0:
        return j_partial(0, terms) / denom
    return 2 * (j_partial(n + 2, terms) - j_partial(n + 3, terms)) / denom


def truncated_solve_oracle(K: int) -> list[Fraction]:
    """pi_0..pi_K solving the truncated balance system exactly, by
    Gauss-Jordan elimination: (Pi Q)_j = 0 for j < K and sum pi = 1.  The
    rates are written out here: 0 -> 1 at 2; from n >= 1, n -> n-1 at 2,
    n -> j < n-1 and n -> n+1 at 1."""
    def rate(n: int, j: int) -> int:  # from n into j
        if n == j:
            return -(n + 2)
        if n == 0:
            return 2 * (j == 1)
        return 2 if j == n - 1 else int(j < n - 1 or j == n + 1)

    rows = [[Fraction(rate(n, j)) for n in range(K + 1)] + [Fraction(0)] for j in range(K)]
    rows.append([Fraction(1)] * (K + 2))
    for c in range(K + 1):
        p = next(r for r in range(c, K + 1) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        for r in range(K + 1):
            if r != c and rows[r][c]:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return [row[K + 1] / row[i] for i, row in enumerate(rows)]


def seq_oracle(kind: str, n: int) -> int:
    """a_n or b_n in plain ints: the seeds, then
    c_m = c_{m-3} - (m+1)*c_{m-2} + (m+3)*c_{m-1} for m >= 4."""
    c = {"a": [3, 11, 56], "b": [1, 5, 26]}[kind]
    for m in range(4, n + 1):
        c.append(c[-3] - (m + 1) * c[-2] + (m + 3) * c[-1])
    return c[n - 1]


def upsilon_oracle(n: int, m: int) -> int:
    """Upsilon(n, m) in plain ints from Upsilon(m, m) = 0, Upsilon(m+1, m) = 1,
    running the three-term recursion upward (n >= m) or downward (n < m)."""
    lo, hi = 0, 1  # values at j and j+1
    for j in range(m, n):  # upward: Upsilon(j+2) = (j+1)*Upsilon(j+1) - Upsilon(j)
        lo, hi = hi, (j + 1) * hi - lo
    for j in range(m, n, -1):  # downward: Upsilon(j-1) = j*Upsilon(j) - Upsilon(j+1)
        lo, hi = j * lo - hi, lo
    return lo


def brute_force_passage_times(edges: dict, sources: list) -> dict:
    """Single-source-set shortest times by exhaustive relaxation
    (Bellman-Ford style) over an explicit finite edge list.

    edges: {(u, v): weight} undirected; sources get time 0.
    """
    nodes = set()
    for u, v in edges:
        nodes.add(u)
        nodes.add(v)
    nodes.update(sources)
    dist = {v: float("inf") for v in nodes}
    for s in sources:
        dist[s] = 0.0
    for _ in range(len(nodes)):
        changed = False
        for (u, v), w in edges.items():
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
            if dist[v] + w < dist[u]:
                dist[u] = dist[v] + w
                changed = True
        if not changed:
            break
    return dist


def transition_stats_loop(path) -> tuple[dict, list]:
    """(counts, exposure) of a FrontPath one jump at a time: counts[s][s'] of
    the jumps at or before end_time, and the time held in each state, with
    the censored time from the last of them to end_time (if any)."""
    counts: dict = {}
    exposure = [0.0] * (max([path.initial_state, *path.states.tolist()]) + 1)
    s, t = path.initial_state, path.start_time
    for jt, ns in zip(path.times.tolist(), path.states.tolist()):
        if jt > path.end_time:
            break
        exposure[s] += jt - t
        counts.setdefault(s, {}).setdefault(ns, 0)
        counts[s][ns] += 1
        s, t = ns, jt
    exposure[s] += max(0.0, path.end_time - t)
    return counts, exposure


def jump_oracle(s: int, r: float) -> int:
    """The front chain's state after s on the uniform draw r, one float
    product at a time: from 0 always 1; from s >= 1, x = r * (s + 2) picks
    s + 1 below 1, s - 1 below 3, and state int(x - 3) above."""
    if s == 0:
        return 1
    x = r * (s + 2)
    if x < 1.0:
        return s + 1
    if x < 3.0:
        return s - 1
    return int(x - 3.0)
