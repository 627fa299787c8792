import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ladder_fpp import checks
from ladder_fpp.bessel import (
    BoundedReal,
    _EULER_GAMMA,
    PI,
    bessel_j,
    bessel_y,
    _harmonic,
    upsilon,
    upsilon_analytic,
)
from ladder_fpp.chain import pi
from ladder_fpp.checks import UPSILON_0, UPSILON_3_COMBO
from ladder_fpp.constants import headline_constants

from oracles import j_oracle, j_partial, upsilon_oracle

# Correctly rounded doubles, frozen from the rational oracle / 50-digit evaluation.
J0_REF = 0.22389077914123567
J3_REF = 0.12894324947440206
Y0_REF = 0.5103756726497451
Y1_REF = -0.10703243154093754


# sha256 of the lines repr((value, err)), or the ValueError message where the
# tolerance raises: J_n(2) for n <= 400 and Y_n(2) for n <= 171 at each of
# PINNED_TOLS, pi_n for n <= 165 at 1e-13, and the three headline constants
# at 1e-8, 1e-10 and 1e-12.  Recorded from the Neumaier-summed series before
# the sums went to math.fsum.
PINNED_TOLS = (None, 1e-6, 1e-10, 1e-13, 1e-15)
PINNED_SERIES = {
    "J": "0ef7e3946d90c78c9b73d0e3d422d65769fd5382345d5d1743b90b76bb2991ce",
    "Y": "be571df7e9011f3cc273aa6ac6889b0c39af4ac3d50c0d5302d559119852e9ce",
    "pi": "c33c0bf0597818035dd07d2df525dc3aa5ddb3d91e633931d276ea184a6277f4",
    "headline": "ce50b71988ba45ba63cb4cc30df76c5b6b604d72a1b9f8db3a9d8e8406d843d7",
}


def _pinned_lines(kind):
    if kind == "headline":
        for tol in (1e-8, 1e-10, 1e-12):
            h = headline_constants(tol)
            yield from (repr((c.value, c.err)) for c in (h.pi0, h.tau, h.T_resid))
        return
    f, n_max, tols = {"J": (bessel_j, 400, PINNED_TOLS), "Y": (bessel_y, 171, PINNED_TOLS),
                      "pi": (pi, 165, (1e-13,))}[kind]
    for tol in tols:
        for n in range(n_max + 1):
            try:
                v = f(n, tol)
            except ValueError as exc:
                yield str(exc)
            else:
                yield repr((v.value, v.err))


@pytest.mark.parametrize("kind", sorted(PINNED_SERIES))
def test_series_pinned(kind):
    text = "\n".join(_pinned_lines(kind))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SERIES[kind]


class TestBesselJ:
    def test_j0_value(self):
        v = bessel_j(0, 1e-14)
        assert v.err <= 1e-14
        assert abs(v.value - J0_REF) <= v.err + 1e-16

    @pytest.mark.parametrize("n", range(0, 21))
    def test_matches_rational_oracle(self, n):
        ref, bound = j_oracle(n)
        v = bessel_j(n, 1e-14)
        assert abs(v.value - float(ref)) <= v.err + float(bound) + 1e-17

    def test_pi0_combination(self):
        j0 = bessel_j(0, 1e-14)
        j3 = bessel_j(3, 1e-14)
        p0 = j0 / (2 * j3 + j0)
        assert abs(p0.value - 0.4647184276286947) <= 1e-13

    def test_large_order_tiny(self):
        v = bessel_j(50, 1e-14)
        assert abs(v.value) < 1e-60
        assert v.err <= 1e-14

    @pytest.mark.parametrize("n", [168, 169, 171, 200])
    def test_orders_beyond_float_factorials(self, n):
        v = bessel_j(n, 1e-10)
        partial, rem = j_oracle(n)
        assert abs(Fraction(v.value) - partial) + rem <= Fraction(v.err)

    @pytest.mark.parametrize("bad", [0.0, -1e-9])
    def test_rejects_bad_tol(self, bad):
        with pytest.raises(ValueError):
            bessel_j(0, bad)
        with pytest.raises(ValueError):
            bessel_y(0, bad)

    def test_unreachable_tol_raises(self):
        with pytest.raises(ValueError):
            bessel_j(0, 1e-20)

    @pytest.mark.parametrize("n", range(0, 21))
    def test_alternating_containment(self, n):
        # The true value lies between every pair of consecutive partial sums.
        hi_ref = j_partial(n, 60)  # error < 1/(60!^2), negligible vs the gaps
        for k in range(1, 12):
            lo, hi = sorted((j_partial(n, k), j_partial(n, k + 1)))
            assert lo <= hi_ref <= hi

    @pytest.mark.parametrize("n", [0, 1, 3, 7])
    def test_two_tolerances_agree(self, n):
        a = bessel_j(n, 1e-10)
        b = bessel_j(n, 1e-12)
        assert abs(a.value - b.value) <= 1e-10


class TestBesselY:
    def test_y0_value(self):
        v = bessel_y(0, 1e-12)
        assert v.err <= 1e-12
        assert abs(v.value - Y0_REF) <= v.err + 1e-15

    @pytest.mark.parametrize("n", [169, 170, 171])
    def test_large_order_against_mpmath(self, n):
        # k!(n+k)! leaves float range here while Y_n(2) ~ -(n-1)!/pi does not
        mpmath = pytest.importorskip("mpmath")
        y = bessel_y(n, None)
        with mpmath.workdps(40):
            ref = mpmath.bessely(n, 2)
            assert abs(mpmath.mpf(y.value) - ref) <= y.err
        assert y.err <= 1e-14 * abs(y.value)

    @pytest.mark.parametrize("n", [172, 400])
    def test_beyond_double_range_names_the_limit(self, n):
        # |Y_172(2)| ~ 3.9e308 exceeds the largest double
        with pytest.raises(ValueError, match="171"):
            bessel_y(n, None)
        with pytest.raises(ValueError, match="171"):
            upsilon_analytic(n, 0)

    def test_wronskian_normalizes_y1(self):
        j0 = bessel_j(0, None)
        j1 = bessel_j(1, None)
        y0 = bessel_y(0, 1e-12)
        y1 = bessel_y(1, 1e-12)
        w = PI * (j1 * y0 - j0 * y1)
        assert abs(w.value - 1.0) <= w.err
        assert abs(y1.value - Y1_REF) <= y1.err + 1e-15

    def test_y5_sign_and_growth(self):
        y4 = bessel_y(4, 1e-10)
        y5 = bessel_y(5, 1e-10)
        assert y5.value < 0
        assert abs(y5.value) > abs(y4.value)

    @pytest.mark.parametrize("n", range(0, 11))
    def test_wronskian_identity(self, n, monkeypatch):
        # criterion 5 holds the series Wronskian to its own bound w.err
        # (2.3e-15 to 3.9e-12 for n <= 10); moved away from 1 by 2 w.err at n,
        # it fails there
        series = checks._series_wronskian

        def moved(k):
            w = series(k)
            if k != n:
                return w
            return BoundedReal(w.value + math.copysign(2 * w.err, w.value - 1.0), w.err)

        monkeypatch.setattr(checks, "_series_wronskian", moved)
        _, ok, detail = checks.check_upsilon_wronskian()
        assert not ok and detail.endswith(f"at n={n}")


class TestUpsilon:
    @pytest.mark.parametrize("m", [0, 1, 3, 7])
    def test_diagonal_zero(self, m):
        assert upsilon(m, m) == 0

    def test_table_values(self):
        assert [upsilon(n, 0) for n in range(1, 8)] == UPSILON_0
        assert [2 * upsilon(n, 3) + upsilon(n, 0) for n in range(1, 8)] == UPSILON_3_COMBO

    @pytest.mark.parametrize("n", range(0, 11))
    def test_superdiagonal_one(self, n):
        assert upsilon(n + 1, n) == 1

    def test_three_term_recursion_exact(self):
        for m in range(0, 6):
            vals = [upsilon(n, m) for n in range(m, m + 41)]
            for i, n in enumerate(range(m + 1, m + 39)):
                assert vals[i + 2] == n * vals[i + 1] - vals[i]

    def test_downward_values(self):
        assert upsilon(2, 3) == -1
        assert upsilon(1, 3) == -2
        assert upsilon(3, 8) == -751

    @pytest.mark.parametrize("m", range(0, 6))
    def test_definition_agreement(self, m, monkeypatch):
        # the registry check reaches column m: Upsilon(m+1, m) off by one fails it
        monkeypatch.setattr(checks, "upsilon", lambda n, k: upsilon(n, k) + ((n, k) == (m + 1, m)))
        _, ok, detail = checks.check_upsilon_definition()
        assert not ok and detail.endswith(f"vs integer 2 at ({m + 1},{m})"), detail

    def test_matches_plain_int_oracle(self):
        # n < m goes through the antisymmetry Upsilon(n, m) = -Upsilon(m, n)
        for m in range(0, 13):
            assert [upsilon(n, m) for n in range(0, 41)] == [
                upsilon_oracle(n, m) for n in range(0, 41)
            ]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            upsilon(-1, 0)
        with pytest.raises(ValueError):
            upsilon(2, -1)


class TestHarmonic:
    def test_small_values(self):
        assert _harmonic(0) == 0
        assert _harmonic(1) == 1
        assert _harmonic(4) == Fraction(25, 12)

    @pytest.mark.parametrize("m", [2, 5, 17])
    def test_direct_summation(self, m):
        assert _harmonic(m) == sum(Fraction(1, j) for j in range(1, m + 1))


class TestBoundedReal:
    def test_err_nonnegative(self):
        with pytest.raises(ValueError):
            BoundedReal(1.0, -1e-30)

    def test_interval_containment_randomized(self):
        # For random operands, the exact result on worst-case interval
        # corners stays inside the propagated bound.
        rng = np.random.default_rng(42)
        for _ in range(200):
            av, bv = rng.normal(size=2) * 3
            ae, be = rng.random(2) * 1e-6
            a = BoundedReal(av, ae)
            b = BoundedReal(bv, be)
            for op in ("add", "sub", "mul", "div"):
                if op == "div" and abs(bv) <= be * 2:
                    continue
                got = {
                    "add": a + b,
                    "sub": a - b,
                    "mul": a * b,
                    "div": a / b,
                }[op]
                fn = {
                    "add": lambda x, y: x + y,
                    "sub": lambda x, y: x - y,
                    "mul": lambda x, y: x * y,
                    "div": lambda x, y: x / y,
                }[op]
                for ca in (av - ae, av + ae):
                    for cb in (bv - be, bv + be):
                        # 5e-15 covers rounding inside this corner evaluation
                        assert abs(fn(ca, cb) - got.value) <= got.err + 5e-15

    FRACTIONS = st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 12)
    OPS = {"add": lambda x, y: x + y, "sub": lambda x, y: x - y,
           "mul": lambda x, y: x * y, "div": lambda x, y: x / y}

    @pytest.mark.parametrize("op", sorted(OPS))
    @given(p=FRACTIONS, q=FRACTIONS)
    def test_encloses_exact_fraction_result(self, op, p, q):
        a, b = BoundedReal.from_fraction(p), BoundedReal.from_fraction(q)
        fn = self.OPS[op]
        if op == "div" and q == 0:
            with pytest.raises(ZeroDivisionError):
                fn(a, b)
            return
        exact = fn(p, q)
        # both operands bounded, and a bounded operand mixed with the exact other one
        for got in (fn(a, b), fn(a, q), fn(p, b)):
            assert abs(Fraction(got.value) - exact) <= Fraction(got.err)

    def test_scalar_and_fraction_operands(self):
        x = BoundedReal(1.5, 1e-12)
        assert abs((x * 2).value - 3.0) <= (x * 2).err + 1e-15
        y = x * Fraction(4, 3)
        assert abs(y.value - 2.0) <= y.err
        z = 1 / BoundedReal(2.0, 0.0)
        assert z.value == 0.5

    def test_division_by_zero_interval(self):
        with pytest.raises(ZeroDivisionError):
            BoundedReal(1.0, 0.0) / BoundedReal(1e-9, 1e-8)

    def test_euler_gamma_digits(self):
        assert abs(_EULER_GAMMA.value - 0.5772156649015329) < 1e-16
