"""Bessel functions J_n(2), Y_n(2) with rigorous error bounds, and the integer
cross-product Upsilon(n, m) = pi*[J_n(2) Y_m(2) - J_m(2) Y_n(2)].

Everything here is evaluated at fixed argument x = 2, where the series
simplify because (x/2)^k = 1.  Floating-point results carry an explicit
absolute error bound (`BoundedReal`) that accounts for series truncation and
float rounding.  Upsilon is computed in exact decimal arithmetic via its
three-term recursion; the analytic definition is only used as a
bounded-precision cross-check at small orders, because the floating route
loses all precision once Upsilon grows factorially.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, DivisionByZero, Inexact,
                     InvalidOperation, Overflow, Rounded)
from fractions import Fraction
from itertools import count, islice
from typing import Iterator

__all__ = [
    "BoundedReal",
    "EXACT",
    "PI",
    "bessel_j",
    "bessel_y",
    "upsilon",
    "upsilon_terms",
    "upsilon_analytic",
]

# Euler-Mascheroni constant, 30 decimal digits (OEIS A001620); rounding to
# double adds < 6e-17 absolute error, covered by the constant below.
EULER_GAMMA_30 = "0.577215664901532860606512090082"
_EULER_GAMMA_ERR = 6e-17

# One extra binary digit of slack per float operation: covers the correctly
# rounded op itself plus int/Fraction -> float conversion of either operand.
_ULP = 2.0 ** -52
_TINY = 1e-300  # keeps err nonzero for subnormal-scale values


def _rounding(v: float) -> float:
    """Bound on the one rounding that produced v."""
    return abs(v) * _ULP + _TINY


def _check_tol(tol: float | None) -> None:
    """tol > 0, or None for "as tight as double precision allows".  Every bounded
    evaluation passes its tol, or a fixed part of it, to `bessel_j` first."""
    if tol is not None and not tol > 0.0:
        raise ValueError("tol must be > 0")


def _within_tol(x: BoundedReal, tol: float, name: str) -> BoundedReal:
    """x, if its bound meets tol; else ValueError naming the quantity."""
    if x.err > tol:
        raise ValueError(f"cannot reach tol={tol} for {name} (err={x.err:.2e})")
    return x


@dataclass(frozen=True)
class BoundedReal:
    """A float paired with a rigorous absolute error bound.

    Arithmetic propagates bounds conservatively: for every operation the
    exact-interval propagation term is added to a one-ulp rounding allowance
    on the computed value.
    """

    value: float
    err: float

    def __post_init__(self):
        if not (self.err >= 0.0) or math.isnan(self.value):
            raise ValueError(f"invalid BoundedReal({self.value}, {self.err})")

    @staticmethod
    def exact(x) -> "BoundedReal":
        """Wrap a value that is exactly representable as a double."""
        return BoundedReal(float(x), 0.0)

    @staticmethod
    def from_fraction(q: Fraction) -> "BoundedReal":
        v = float(q)  # correctly rounded
        return BoundedReal(v, abs(v) * 2.0 ** -53 + _TINY)

    def _coerce(self, other) -> "BoundedReal":
        if isinstance(other, BoundedReal):
            return other
        if isinstance(other, int):
            if abs(other) <= 2 ** 53:
                return BoundedReal.exact(other)
            return BoundedReal.from_fraction(Fraction(other))
        if isinstance(other, float):
            return BoundedReal.exact(other)
        if isinstance(other, Fraction):
            return BoundedReal.from_fraction(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        v = self.value + o.value
        return BoundedReal(v, self.err + o.err + _rounding(v))

    __radd__ = __add__

    def __neg__(self):
        return BoundedReal(-self.value, self.err)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        v = self.value * o.value
        prop = abs(self.value) * o.err + abs(o.value) * self.err + self.err * o.err
        return BoundedReal(v, prop + _rounding(v))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        denom_low = abs(o.value) - o.err
        if denom_low <= 0.0:
            raise ZeroDivisionError("divisor interval contains zero")
        v = self.value / o.value
        prop = (self.err + abs(v) * o.err) / denom_low
        return BoundedReal(v, prop + _rounding(v))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o / self

    def __abs__(self):
        return BoundedReal(abs(self.value), self.err)

    def __repr__(self):
        return f"BoundedReal({self.value!r} ± {self.err:.3e})"


_EULER_GAMMA = BoundedReal(float(EULER_GAMMA_30), _EULER_GAMMA_ERR)
# math.pi is the correctly rounded double; |math.pi - pi| < 2.3e-16.
PI = BoundedReal(math.pi, 2.3e-16)


def _harmonic(m: int) -> Fraction:
    """Exact harmonic number sum_{j=1}^{m} 1/j, with _harmonic(0) = 0."""
    return sum((Fraction(1, j) for j in range(1, m + 1)), Fraction(0))


def _over(x: float, denom: int) -> float:
    """x / denom for x >= 0 and an integer denom >= 1.  Past float range
    (k!(n+k)! for n >= 169) it is the correctly rounded quotient stepped one
    ulp up: an upper bound that never underflows to 0.0."""
    try:
        return x / denom
    except OverflowError:
        num, den = x.as_integer_ratio()
        return math.nextafter(num / (den * denom), math.inf)


def bessel_j(n: int, tol: float | None) -> BoundedReal:
    """J_n(2) = sum_{k>=0} (-1)^k / (k! (n+k)!) with |value - J_n(2)| <= err <= tol.

    Term magnitudes decrease strictly from k = 0, so the alternating-series
    remainder is bounded by the first omitted term.  Absolute accuracy below
    ~1e-16 is not reachable in double precision and raises ValueError;
    tol=None means "as tight as double precision allows" with the achieved
    bound reported in err.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    _check_tol(tol)
    # The extra terms down to the double-precision floor are nearly free and
    # keep downstream propagated bounds tight; tol remains the contract.
    stop = 2.0 ** -56 if tol is None else min(tol / 4.0, 2.0 ** -56)
    terms = []
    k = 0
    denom = math.factorial(n)  # k! (n+k)! at k=0
    sign = 1.0
    while True:
        term = _over(1.0, denom)
        if not (term > stop or k < 2):
            break
        terms.append(sign * term)
        k += 1
        sign = -sign
        denom *= k * (n + k)
        if k > 400:  # unreachable: terms decay factorially
            raise RuntimeError("J series failed to converge")
    value = math.fsum(terms)  # exactly rounded
    err = term + _rounding(value)  # first omitted term bounds the truncation
    if tol is not None and err > tol:
        raise ValueError(
            f"requested tol={tol} for J_{n}(2) is below the double-precision floor ({err:.2e})"
        )
    return BoundedReal(value, err)


_Y_MAX_ORDER = 171


def _y_finite_sum(n: int) -> Fraction:
    # sum_{k=0}^{n-1} (n-k-1)!/k!, exact
    return sum(
        (Fraction(math.factorial(n - k - 1), math.factorial(k)) for k in range(n)),
        Fraction(0),
    )


def bessel_y(n: int, tol: float | None) -> BoundedReal:
    """Y_n(2) from the standard series, with |value - Y_n(2)| <= err <= tol.

    At x = 2 the log term vanishes and

        pi * Y_n(2) = 2*gamma*J_n(2) - sum_{k=0}^{n-1} (n-k-1)!/k!
                      - sum_{k>=0} (-1)^k (H_k + H_{n+k}) / (k! (n+k)!)

    with H_m the harmonic numbers.  The infinite sum's term ratio is below
    3/8 for k >= 1 (harmonic growth factor <= 3/2 against 1/((k+1)(n+k+1))
    <= 1/4), so the tail after term K >= 1 is at most 1.6x the next term.
    |Y_n(2)| grows like (n-1)!/pi; tolerances below the resulting rounding
    floor raise ValueError, and tol=None requests the achievable floor.
    |Y_172(2)| ~ 3.9e308 is beyond double range, so n > 171 raises ValueError.
    """
    if not 0 <= n <= _Y_MAX_ORDER:
        raise ValueError(f"n must be in 0..{_Y_MAX_ORDER} (Y_n(2) beyond double range), got {n}")
    _check_tol(tol)
    jn = bessel_j(n, None)
    two_gamma_jn = 2.0 * _EULER_GAMMA * jn
    finite = BoundedReal.from_fraction(_y_finite_sum(n))

    stop = 2.0 ** -56 if tol is None else min(tol / 4.0, 2.0 ** -56)
    terms = []
    k = 0
    denom = math.factorial(n)
    h_k = 0.0
    h_nk = float(_harmonic(n))
    sign = 1.0
    while True:
        terms.append(sign * _over(h_k + h_nk, denom))
        k += 1
        sign = -sign
        denom *= k * (n + k)
        h_k += 1.0 / k
        h_nk += 1.0 / (n + k)
        next_mag = _over(h_k + h_nk, denom)
        if k >= 2 and 1.6 * next_mag <= stop:
            break
        if k > 400:
            raise RuntimeError("Y series failed to converge")
    series_value = math.fsum(terms)  # exactly rounded
    # harmonic increments accumulate <= k ulps of ~2*H_k <= 16 ulp each term
    series = BoundedReal(series_value,
                         1.6 * next_mag + _rounding(series_value) + len(terms) * 16.0 * _ULP)

    result = (two_gamma_jn - finite - series) / PI
    if tol is not None and result.err > tol:
        raise ValueError(
            f"requested tol={tol} for Y_{n}(2) is below the achievable floor ({result.err:.2e})"
        )
    return result


# ---------------------------------------------------------------------------
# Upsilon(n, m): exact integers by the three-term recursion
#     Upsilon(n+1, m) = n*Upsilon(n, m) - Upsilon(n-1, m),
# anchored at Upsilon(m, m) = 0, Upsilon(m+1, m) = 1.  Values for n < m follow
# from the antisymmetry Upsilon(n, m) = -Upsilon(m, n) of the definition.

# Exact decimal arithmetic, where any rounding raises.  Products with small
# integers and sums are linear in the digit count, and so is str(Decimal)
# (str(int) is quadratic before CPython 3.12).
EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[
    InvalidOperation, DivisionByZero, Overflow, Inexact, Rounded])


def upsilon_terms(m: int) -> Iterator[Decimal]:
    """Upsilon(m, m), Upsilon(m+1, m), ... without end, as exact Decimals."""
    if m < 0:
        raise ValueError("m must be >= 0")
    prev, cur = Decimal(0), Decimal(1)
    yield prev
    for n in count(m + 1):
        yield cur
        prev, cur = cur, EXACT.subtract(EXACT.multiply(n, cur), prev)


def upsilon(n: int, m: int) -> int:
    """Exact integer Upsilon(n, m); requires n >= 0 and m >= 0."""
    if n < 0 or m < 0:
        raise ValueError("n and m must be >= 0")
    if n < m:
        return -upsilon(m, n)
    return int(next(islice(upsilon_terms(m), n - m, None)))


def upsilon_analytic(n: int, m: int) -> BoundedReal:
    """pi*[J_n(2) Y_m(2) - J_m(2) Y_n(2)] with propagated bounds.

    Bounded-precision cross-check of the integer recursion; useless beyond
    n ~ 15 where the products cancel to below double precision.
    """
    jn = bessel_j(n, None)
    jm = bessel_j(m, None)
    yn = bessel_y(n, None)
    ym = bessel_y(m, None)
    return PI * (jn * ym - jm * yn)
