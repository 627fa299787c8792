"""Headline constants of ladder first-passage percolation.

* time constant  tau = 1/(1 + pi_0) = (2*J_3 + J_0)/(2*J_3 + 2*J_0)
* residual-time coefficients  gamma_n = E[time to next height increase | front = n]
* average residual time  T = sum_n pi_n * gamma_n

The gamma coefficients satisfy the first-step recursion

    gamma_0 = 1/2,
    gamma_n = (1 + 2*gamma_{n-1} + sum_{j<=n-2} gamma_j) / (n+2),  n >= 1,

whose increments telescope to gamma_n - gamma_{n-1} = 1/(n+2)!.  The closed
form consistent with those boundary values is

    gamma_n = sum_{j=0}^{n+2} 1/j!  -  2     for all n >= 0

(the -2 offset is forced by gamma_1 = 2/3; without it the sum gives 8/3).
Both routes are exposed; `checks` verifies that they coincide, and that T
from the rearranged series below agrees with the direct sum pi_n*gamma_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Iterator

from .bessel import BoundedReal, _within_tol, bessel_j
from .chain import _tail_bound, pi, pi0

__all__ = [
    "HeadlineConstants",
    "time_constant",
    "gamma_residual",
    "gamma_residual_terms",
    "avg_residual_time",
    "avg_residual_time_direct",
    "headline_constants",
]


def time_constant(tol: float) -> BoundedReal:
    """tau = (2*J_3 + J_0)/(2*J_3 + 2*J_0), the long-run time per unit height."""
    sub = tol / 16.0
    j0 = bessel_j(0, sub)
    j3 = bessel_j(3, sub)
    return _within_tol((2 * j3 + j0) / (2 * j3 + 2 * j0), tol, "tau")


def gamma_residual(n: int) -> Fraction:
    """Exact gamma_n = sum_{j=0}^{n+2} 1/j! - 2 (equals 1/2 at n = 0)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return sum((Fraction(1, math.factorial(j)) for j in range(n + 3)), Fraction(-2))


def gamma_residual_terms() -> Iterator[Fraction]:
    """gamma_0, gamma_1, ... by the first-step recursion, exact, without end;
    independent of the closed form."""
    g, acc = Fraction(1, 2), Fraction(0)  # gamma_{m-1}, and the sum of gamma_j for j <= m-2
    for m in count(1):
        yield g
        g, acc = (1 + 2 * g + acc) / (m + 2), acc + g


def avg_residual_time(tol: float) -> BoundedReal:
    """Average residual time T via the rearranged series

        T = [ J_0/2 + (4/3)*J_3 + 2*sum_{n>=1} J_{n+3}/(n+3)! ] / (2*J_3 + J_0).

    The sum's terms are below 1/((n+3)!)^2, so truncation tails are
    negligible after a handful of terms.  `checks.check_residual_series`
    compares it with the direct sum over pi_n * gamma_n.
    """
    sub = tol / 32.0
    j0 = bessel_j(0, sub)
    j3 = bessel_j(3, sub)
    total = j0 / 2 + (4 * j3) / 3
    stop = min(sub, 2.0 ** -56)
    for n in count(1):
        total = total + 2 * bessel_j(n + 3, sub) / math.factorial(n + 3)
        # J_{n+4} <= 1/(n+4)!; times 2/(n+4)! and a 1.1 geometric cover
        tail = 2.2 / float(math.factorial(n + 4)) ** 2
        if tail < stop:
            break
    total = total + BoundedReal(0.0, tail)
    return _within_tol(total / (2 * j3 + j0), tol, "T")


def avg_residual_time_direct(tol: float) -> BoundedReal:
    """T by direct summation of pi_n * gamma_n over n <= 25 (validation route).

    gamma_n < e - 2 < 1, so the dropped tail is below the tail mass of Pi
    beyond n = 25, which `chain._tail_bound(25)` bounds by about 1e-29.
    """
    sub = tol / 8.0
    total = BoundedReal.exact(0)
    for n in range(26):
        total = total + pi(n, sub / 26) * gamma_residual(n)
    return total + BoundedReal(0.0, _tail_bound(25))


@dataclass(frozen=True)
class HeadlineConstants:
    """pi_0, the time constant, and the mean residual time, with bounds."""

    pi0: BoundedReal
    tau: BoundedReal
    T_resid: BoundedReal


def headline_constants(tol: float = 1e-10) -> HeadlineConstants:
    return HeadlineConstants(pi0(tol), time_constant(tol), avg_residual_time(tol))
