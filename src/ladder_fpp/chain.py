"""The front process of ladder first-passage percolation: generator matrix,
coefficient sequences, and the stationary distribution by two independent
routes.

The front F_t (absolute height difference of the two infection levels) is a
continuous-time Markov chain on the nonnegative integers.  Its stationary
distribution Pi satisfies pi_n = a_n*pi_0 - b_n, where a_n and b_n are
integer sequences obtained from the balance equations; both are also
expressible through the integer Bessel cross-products Upsilon(n, m).  The
closed form

    pi_0 = J_0 / (2*J_3 + J_0),      pi_n = 2*(J_{n+2} - J_{n+3}) / (2*J_3 + J_0)

is validated here against a dense linear solve of the truncated balance
equations, which never consults the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, Inexact
from itertools import count, islice
from operator import mul
from typing import Iterator

from ._deferred import DeferredNumpy
from .bessel import EXACT, BoundedReal, _within_tol, bessel_j, upsilon_terms

np = DeferredNumpy(globals())

__all__ = [
    "QRow",
    "FrontDistribution",
    "q_row",
    "seq",
    "sequence_rows",
    "pi0",
    "pi",
    "front_distribution",
    "stationary_truncated_solve",
    "SEQ_INDEX_CAP",
]

SEQ_INDEX_CAP = 10_000


@dataclass(frozen=True)
class QRow:
    """Row n of the front-chain intensity matrix, as `q_row(n)` returns it.

    `entries` maps target states to off-diagonal rates; the diagonal is
    -(n + 2) so that the row sums to zero.
    """

    entries: dict[int, int]
    diagonal: int


def q_row(n: int) -> QRow:
    """Transition rates out of front state n.

    From state 0 both candidate infections raise the height and lead to
    state 1, giving the single entry {1: 2}.  From n >= 1 the lagging level
    can advance by one (rate 2: rail plus rung), jump via any higher rung
    (rate 1 each, landing in 0..n-2), or the leading level extends (rate 1,
    to n+1).
    """
    if n < 0:
        raise ValueError("state must be >= 0")
    if n == 0:
        return QRow({1: 2}, -2)
    entries = {j: 1 for j in range(n - 1)}
    entries[n - 1] = 2
    entries[n + 1] = 1
    return QRow(entries, -(n + 2))


# ---------------------------------------------------------------------------
# Coefficient sequences a_n, b_n with pi_n = a_n*pi_0 - b_n.
# Seeds from the first three balance equations; for n >= 4 both satisfy
#     c_n = c_{n-3} - (n+1)*c_{n-2} + (n+3)*c_{n-1}.

_SEEDS = {"a": (3, 11, 56), "b": (1, 5, 26)}


def _coefficients(kind: str) -> Iterator[Decimal]:
    """c_1, c_2, ... of a_n (kind='a') or b_n (kind='b'), exact, without end."""
    c3, c2, c1 = (Decimal(c) for c in _SEEDS[kind])
    yield from (c3, c2, c1)
    for n in count(4):
        step = EXACT.subtract(c3, EXACT.multiply(n + 1, c2))
        c3, c2, c1 = c2, c1, EXACT.add(step, EXACT.multiply(n + 3, c1))
        yield c1


def _difference(c: Decimal, c_prev: Decimal, n: int) -> Decimal:
    """(c_n - c_{n-1}) / n, which must be an integer."""
    q, r = EXACT.divmod(EXACT.subtract(c, c_prev), n)
    if r:
        raise Inexact(f"difference sequence not integral at n={n}")
    return q


def sequence_rows(n_max: int) -> Iterator[tuple]:
    """Rows (n, a_n, b_n, A_n, B_n, Upsilon(n+2, 0), 2*Upsilon(n+2, 3) + Upsilon(n+2, 0))
    for n = 1..n_max, all but n exact Decimals, from O(1) rolling state.

    A_n = (a_n - a_{n-1})/n and B_n likewise (None at n = 1).  The Upsilon
    columns come from the Upsilon recursion, independent of the a_n/b_n one.
    Do arithmetic on the values through `EXACT` or int(): the default
    decimal context rounds to 28 digits.
    """
    if not 1 <= n_max <= SEQ_INDEX_CAP:
        raise ValueError(f"n_max must be in 1..{SEQ_INDEX_CAP}")
    a_prev = b_prev = None
    ups0 = islice(upsilon_terms(0), 3, None)  # Upsilon(3, 0), Upsilon(4, 0), ...
    columns = zip(range(1, n_max + 1), _coefficients("a"), _coefficients("b"), ups0,
                  upsilon_terms(3))
    for n, a, b, u0, u3 in columns:
        big = (None, None) if n == 1 else (_difference(a, a_prev, n), _difference(b, b_prev, n))
        yield (n, a, b, *big, u0, EXACT.add(EXACT.multiply(2, u3), u0))
        a_prev, b_prev = a, b


def seq(kind: str, n: int) -> int:
    """Exact a_n (kind='a') or b_n (kind='b') for n >= 1."""
    if kind not in ("a", "b"):
        raise ValueError("kind must be 'a' or 'b'")
    if not 1 <= n <= SEQ_INDEX_CAP:
        raise ValueError(f"n must be in 1..{SEQ_INDEX_CAP}")
    return int(next(islice(_coefficients(kind), n - 1, None)))


# ---------------------------------------------------------------------------
# Stationary distribution: closed form.


def _pi_from_j(J: dict[int, BoundedReal], ns, tol: float) -> list[BoundedReal]:
    """pi_n for each n in ns from the J values in `J` (J_0, J_3 and, for each
    n >= 1, J_{n+2} and J_{n+3}); raises if a bound exceeds tol."""
    denom = 2 * J[3] + J[0]
    return [_within_tol((J[0] if n == 0 else 2 * (J[n + 2] - J[n + 3])) / denom, tol, f"pi_{n}")
            for n in ns]


def pi0(tol: float) -> BoundedReal:
    """pi_0 = J_0 / (2*J_3 + J_0) with error bound <= tol."""
    return pi(0, tol)


def pi(n: int, tol: float) -> BoundedReal:
    """Stationary probability of front state n, with error bound <= tol:

        pi_0 = J_0 / (2*J_3 + J_0);  pi_n = 2*(J_{n+2} - J_{n+3}) / (2*J_3 + J_0), n >= 1.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    orders = (0, 3) if n == 0 else (n + 2, n + 3, 3, 0)
    return _pi_from_j({k: bessel_j(k, tol / 16.0) for k in orders}, (n,), tol)[0]


@dataclass
class FrontDistribution:
    """Stationary probabilities for states 0..K plus an analytic tail bound.

    `tail_bound` dominates the true tail mass 2*J_{K+3}/(2*J_3 + J_0).  For
    the closed-form route sum(probs) + tail = 1; for the truncated-solve
    route the probs renormalize the tail away, so sum(probs) = 1 up to float
    error.
    """

    probs: np.ndarray
    tail_bound: float
    K: int


def _tail_bound(K: int) -> float:
    j = bessel_j(K + 3, 1e-15)
    d = 2 * bessel_j(3, 1e-14) + bessel_j(0, 1e-14)  # ~ 0.4818
    return 2.0 * (j.value + j.err) / (d.value - d.err)


def front_distribution(K: int, tol: float = 1e-13) -> FrontDistribution:
    """Closed-form Pi truncated at state K: `pi(n, tol)` for n = 0..K, from one
    evaluation each of J_0 and J_3..J_{K+3}."""
    if K < 0:
        raise ValueError("K must be >= 0")
    J = {n: bessel_j(n, tol / 16.0) for n in (0, *range(3, K + 4))}
    probs = np.array([p.value for p in _pi_from_j(J, range(K + 1), tol)])
    return FrontDistribution(probs, _tail_bound(K), K)


def stationary_truncated_solve(K: int) -> FrontDistribution:
    """Independent oracle for Pi: a solve of the truncated balance system.

    Unknowns pi_0..pi_K.  Equations: (Pi Q)_j = 0 for columns j = 0..K-1
    (states beyond K carry zero mass), plus normalization sum = 1 in place
    of column K, which is the column most polluted by truncation.  Apart
    from that last row the system is upper Hessenberg (a state n reaches
    only n + 1 upward), so Gaussian elimination with partial pivoting
    clears at most two entries per column, in O(K^2) operations.  One step
    of iterative refinement pushes the solve to near machine accuracy;
    entries whose true value sits below the ~1e-16 float noise floor may
    come out with either sign.
    """
    if K < 5:
        raise ValueError("K must be >= 5")
    return FrontDistribution(np.array(_truncated_probs(K)), _tail_bound(K), K)


def _truncated_probs(K: int) -> list[float]:
    """The solution of `stationary_truncated_solve`'s system, in pure Python."""
    # M[j][n] is the rate from n into j for j < K; row K is the normalization
    M = [[0.0] * (K + 1) for _ in range(K)] + [[1.0] * (K + 1)]
    for n in range(K + 1):
        row = q_row(n)
        for j, rate in [(n, row.diagonal), *row.entries.items()]:
            if j < K:
                M[j][n] = float(rate)
    U = [r[:] for r in M]  # becomes the upper factor
    steps = []  # per column: the pivot row, then each row below with its multiplier

    def solve(b: list[float]) -> list[float]:
        b = b[:]
        for c, (p, below) in enumerate(steps):
            b[c], b[p] = b[p], b[c]
            for r, m in below:
                b[r] -= m * b[c]
        for j in range(K, -1, -1):  # back substitution by columns, as LAPACK
            b[j] /= U[j][j]
            for i in range(j):
                b[i] -= b[j] * U[i][j]
        return b

    try:  # a zero pivot divides by zero
        for c in range(K):
            rows = (c, c + 1, K) if c + 1 < K else (c, K)  # the only nonzeros in column c
            p = max(rows, key=lambda r: abs(U[r][c]))  # the first of equals, as LAPACK
            U[c], U[p] = U[p], U[c]
            pivot = U[c]
            below = []
            for r in rows[1:]:
                m = U[r][c] / pivot[c]
                U[r][c + 1:] = [a - m * b for a, b in zip(U[r][c + 1:], pivot[c + 1:])]
                below.append((r, m))
            steps.append((p, below))
        rhs = [0.0] * K + [1.0]
        x = solve(rhs)
        d = solve([r - math.fsum(map(mul, row, x)) for r, row in zip(rhs, M)])
    except ZeroDivisionError as exc:  # signals a Q-construction bug
        raise RuntimeError("truncated balance system is singular; q_row is broken") from exc
    return [a + b for a, b in zip(x, d)]
