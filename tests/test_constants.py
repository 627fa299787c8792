import math
from fractions import Fraction
from itertools import islice

import pytest

from ladder_fpp.chain import front_distribution, pi, pi0
from ladder_fpp.constants import (
    avg_residual_time,
    avg_residual_time_direct,
    gamma_residual,
    gamma_residual_terms,
    headline_constants,
    time_constant,
)

TAU_REF = 0.682725076121934
T_REF = 0.5953444665764402


def gamma_oracle(n_max):
    """First-step recursion, written independently of the package."""
    g = [Fraction(1, 2)]
    for n in range(1, n_max + 1):
        g.append(Fraction(1, n + 2) * (1 + 2 * g[n - 1] + sum(g[: n - 1], Fraction(0))))
    return g


class TestTimeConstant:
    def test_value(self):
        v = time_constant(1e-10)
        assert v.err <= 1e-10
        assert abs(v.value - TAU_REF) <= 1e-13

    def test_reciprocal_relation(self):
        tol = 1e-10
        tau = time_constant(tol)
        p0 = pi0(tol)
        assert abs(tau.value - 1.0 / (1.0 + p0.value)) <= 2 * tol

    def test_bounds(self):
        v = time_constant(1e-10).value
        assert 0.5 < v < 1.0

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            time_constant(0.0)


class TestGammaResidual:
    def test_boundary_values(self):
        assert gamma_residual(0) == Fraction(1, 2)
        assert gamma_residual(1) == Fraction(2, 3)
        assert list(islice(gamma_residual_terms(), 2)) == [Fraction(1, 2), Fraction(2, 3)]

    def test_small_values(self):
        assert gamma_residual(2) == Fraction(17, 24)
        assert gamma_residual(3) == Fraction(43, 60)

    def test_matches_independent_recursion(self):
        oracle = gamma_oracle(60)
        for n in range(61):
            assert gamma_residual(n) == oracle[n]

    @pytest.mark.parametrize("n", range(2, 101))
    def test_increments(self, n):
        assert gamma_residual(n) - gamma_residual(n - 1) == Fraction(
            1, math.factorial(n + 2)
        )

    @pytest.mark.parametrize("n", range(3, 40))
    def test_incremental_relation(self, n):
        g = gamma_residual
        assert (n + 2) * (g(n) - g(n - 1)) == g(n - 1) - g(n - 2)

    def test_monotone_and_bounded(self):
        # gamma_n increases to e - 2; partial sums of e bracket the limit
        e_lo = sum(Fraction(1, math.factorial(j)) for j in range(41)) - 2
        e_hi = e_lo + Fraction(2, math.factorial(41))
        prev = Fraction(0)
        for n in range(31):
            g = gamma_residual(n)
            assert g > prev
            assert g < e_lo
            assert e_hi - g < Fraction(2, math.factorial(n + 2))
            prev = g

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            gamma_residual(-1)


class TestAverageResidualTime:
    def test_value(self):
        v = avg_residual_time(1e-10)
        assert v.err <= 1e-10
        assert abs(v.value - T_REF) <= 1e-13

    def test_direct_sum_route(self):
        series = avg_residual_time(1e-10)
        direct = avg_residual_time_direct(1e-10)
        assert abs(series.value - direct.value) <= 1e-10

    def test_direct_sum_from_primitives(self):
        # term-by-term oracle: sum pi_n * gamma_n over enough states
        total = sum(
            pi(n, 1e-13).value * float(gamma_residual(n)) for n in range(26)
        )
        assert abs(total - avg_residual_time(1e-10).value) <= 1e-12

    def test_ordering_and_gap(self):
        tol = 1e-10
        tau = time_constant(tol)
        t = avg_residual_time(tol)
        assert t.value < tau.value
        # waiting-time-paradox gap, as the difference of the quoted decimals
        assert abs((tau.value - t.value) - 0.0873806094) <= 2 * tol

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            avg_residual_time(-1e-3)


@pytest.mark.parametrize("compute", [
    pi0, lambda tol: pi(3, tol), lambda tol: front_distribution(5, tol), time_constant,
    avg_residual_time, avg_residual_time_direct, headline_constants,
], ids=["pi0", "pi", "front_distribution", "time_constant", "avg_residual_time",
        "avg_residual_time_direct", "headline_constants"])
@pytest.mark.parametrize("tol", [0.0, -1e-3, math.nan, 1e-323])
def test_tol_contract(compute, tol):
    # the one check in bessel_j, reached with tol or a fixed part of it
    # (1e-323 / 16 underflows to 0.0)
    with pytest.raises(ValueError, match=r"^tol must be > 0$"):
        compute(tol)


class TestHeadlineConstants:
    def test_invariants(self):
        hc = headline_constants(1e-10)
        assert abs(hc.tau.value * (1.0 + hc.pi0.value) - 1.0) <= 1e-9
        assert 0.5 < hc.tau.value < 1.0
        assert hc.T_resid.value < hc.tau.value
