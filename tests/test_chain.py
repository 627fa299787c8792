import decimal
from fractions import Fraction

import numpy as np
import pytest

from ladder_fpp import chain, checks
from ladder_fpp.chain import (
    SEQ_INDEX_CAP,
    QRow,
    front_distribution,
    pi,
    pi0,
    q_row,
    seq,
    stationary_truncated_solve,
)
from ladder_fpp.bessel import bessel_j, upsilon
from ladder_fpp.checks import PI0_QUOTED, TABLE1_A, TABLE1_B

from oracles import j_oracle, j_partial, pi_oracle, seq_oracle, truncated_solve_oracle

PI0_REF = 0.4647184276286947
PI1_REF = 0.3941552828860841


class TestQRow:
    def test_row_zero(self):
        row = q_row(0)
        assert row.entries == {1: 2}
        assert row.diagonal == -2

    def test_row_two(self):
        row = q_row(2)
        assert row.entries == {0: 1, 1: 2, 3: 1}
        assert row.diagonal == -4

    def test_row_five(self):
        row = q_row(5)
        assert row.entries == {0: 1, 1: 1, 2: 1, 3: 1, 4: 2, 6: 1}
        assert row.diagonal == -7

    @pytest.mark.parametrize("n", range(0, 51))
    def test_generator_validity(self, n, monkeypatch):
        # the registry check reaches row n: a wrong diagonal there fails it
        monkeypatch.setattr(chain, "q_row", lambda k: QRow(q_row(k).entries, -2 - k - (k == n)))
        assert checks.check_generator_rows() == (
            "generator_rows", False, f"diagonal wrong at state {n}")

    def test_rejects_negative_state(self):
        with pytest.raises(ValueError):
            q_row(-1)


class TestSequences:
    def test_table1(self):
        assert [seq("a", n) for n in range(1, 10)] == TABLE1_A
        assert [seq("b", n) for n in range(1, 10)] == TABLE1_B

    def test_spot_values(self):
        assert seq("a", 3) == 56
        assert seq("b", 4) == 158
        assert seq("a", 9) == 19136803

    def test_via_upsilon_examples(self):
        # b_n = Upsilon(n+3, 0) - Upsilon(n+2, 0), a_n = 2*[Upsilon(n+3, 3) - Upsilon(n+2, 3)] + b_n
        assert seq("b", 5) == upsilon(8, 0) - upsilon(7, 0) == 1113
        assert seq("b", 2) == upsilon(5, 0) - upsilon(4, 0) == 5
        assert seq("a", 2) == 2 * (upsilon(5, 3) - upsilon(4, 3)) + 5 == 11

    def test_two_routes_agree_to_200(self, monkeypatch):
        # the registry check (criterion 3) reaches n = 200 in both sequences
        rows = chain.sequence_rows
        for kind, col in (("a", 1), ("b", 2)):
            def broken(n_max, col=col):  # c_200 off by one
                for row in rows(n_max):
                    yield (*row[:col], int(row[col]) + (row[0] == 200), *row[col + 1:])

            monkeypatch.setattr(chain, "sequence_rows", broken)
            assert checks.check_two_route_sequences() == (
                "two_route_sequences", False, f"{kind}_200 differs between routes")

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            seq("c", 3)
        with pytest.raises(ValueError):
            seq("a", 0)
        with pytest.raises(ValueError):
            seq("a", SEQ_INDEX_CAP + 1)

    @pytest.mark.parametrize("kind", ["a", "b"])
    def test_plain_int_oracle_at_cap(self, kind):
        assert seq(kind, SEQ_INDEX_CAP) == seq_oracle(kind, SEQ_INDEX_CAP)


class TestSequenceRows:
    def test_columns_match_oracles(self):
        rows = list(chain.sequence_rows(60))
        assert [r[0] for r in rows] == list(range(1, 61))
        for row in rows:  # ints: Decimal arithmetic would round to 28 digits here
            n, a, b, big_a, big_b, u0, combo = (None if v is None else int(v) for v in row)
            assert (a, b) == (seq_oracle("a", n), seq_oracle("b", n))
            assert (u0, combo) == (upsilon(n + 2, 0), 2 * upsilon(n + 2, 3) + upsilon(n + 2, 0))
            if n == 1:
                assert big_a is None and big_b is None
            else:
                assert big_a == (a - seq_oracle("a", n - 1)) // n
                assert big_b == (b - seq_oracle("b", n - 1)) // n

    def test_values_are_exact_decimals(self):
        last = list(chain.sequence_rows(1500))[-1]
        assert all(isinstance(v, decimal.Decimal) for v in last[1:])
        assert all(v.as_tuple().exponent == 0 for v in last[1:])
        assert int(last[1]) == seq_oracle("a", 1500)
        assert len(str(last[1])) > 4000

    def test_remainder_raises_inexact(self, monkeypatch):
        # a_3 = 57 makes A_3 = (57 - 11)/3 leave a remainder
        monkeypatch.setitem(chain._SEEDS, "a", (3, 11, 57))
        rows = chain.sequence_rows(5)
        assert next(rows)[3] is None
        assert next(rows)[3] == 4
        with pytest.raises(decimal.Inexact):
            next(rows)

    def test_rejects_out_of_range(self):
        for n_max in (0, SEQ_INDEX_CAP + 1):
            with pytest.raises(ValueError):
                next(chain.sequence_rows(n_max))


class TestClaimRecursions:
    def test_report_to_9(self):
        # worked instances from the difference tables
        assert (2395 - 340) // 5 - (340 - 56) // 4 == 340
        assert Fraction(26 - 5, 3) - Fraction(5 - 1, 2) == 5
        B = {n: (seq("b", n) - seq("b", n - 1)) // n for n in range(2, 8)}
        assert B[5] + B[3] == (4 + 2) * B[4] == 198

    def test_full_range(self):
        assert checks.check_sequence_recursions() == (
            "sequence_recursions", True, "first-order and difference recursions exact to n=200")

    def test_reports_a_broken_recursion(self, monkeypatch):
        rows = chain.sequence_rows

        def broken(n_max):  # a_5 off by one, its difference column left alone
            for row in rows(n_max):
                yield (row[0], int(row[1]) + (row[0] == 5), *row[2:])

        monkeypatch.setattr(chain, "sequence_rows", broken)
        assert checks.check_sequence_recursions() == (
            "sequence_recursions", False, "failures: [('a', 'first_order', 5)]")

    def test_reports_a_difference_that_is_not_an_integer(self, monkeypatch):
        def broken(n_max):
            raise decimal.Inexact("difference sequence not integral at n=5")
            yield

        monkeypatch.setattr(chain, "sequence_rows", broken)
        assert checks.check_sequence_recursions() == (
            "sequence_recursions", False, "difference sequence not integral at n=5")


class TestClosedFormPi:
    def test_pi0(self):
        v = pi0(1e-10)
        assert v.err <= 1e-10
        assert abs(v.value - PI0_REF) <= 1e-13

    def test_pi0_matches_rational_oracle(self):
        assert abs(pi0(1e-12).value - float(pi_oracle(0))) <= 1e-14

    def test_linear_relations(self):
        p0 = pi0(1e-12)
        p1 = pi(1, 1e-12)
        p2 = pi(2, 1e-12)
        assert abs(3 * p0.value - 1 - p1.value) <= 3 * p0.err + p1.err + 1e-15
        assert abs(11 * p0.value - 5 - p2.value) <= 11 * p0.err + p2.err + 1e-14

    def test_pi1_value(self):
        assert abs(pi(1, 1e-12).value - PI1_REF) <= 1e-13

    def test_pi3_both_routes(self):
        tol = 1e-12
        closed = pi(3, tol)
        linear = 56 * pi0(tol).value - 26
        assert abs(closed.value - linear) <= 2 * tol + 56 * pi0(tol).err

    @pytest.mark.parametrize("n", range(0, 21))
    def test_matches_rational_oracle(self, n):
        assert abs(pi(n, 1e-13).value - float(pi_oracle(n))) <= 1e-14

    def test_normalization_telescopes_exactly(self):
        # rational identity sum_0^20 pi_j = 1 - 2 J_23 / (2J_3 + J_0); float sum 1 within 1e-13
        name, ok, detail = checks.check_normalization()
        assert ok, detail

    @pytest.mark.parametrize("n", range(3, 16))
    def test_factorial_decay(self, n):
        ratio = pi(n + 1, 1e-13).value / pi(n, 1e-13).value
        assert ratio <= 1.0 / (n + 2)

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            pi0(0.0)
        with pytest.raises(ValueError):
            pi(2, -1.0)


class TestLargeIndex:
    """States whose Bessel orders put k!(n+k)! beyond the float range."""

    def test_pi_encloses_oracle_at_200(self):
        b = pi(200, 1e-10)
        assert abs(Fraction(b.value) - pi_oracle(200)) <= Fraction(b.err)

    @pytest.mark.parametrize("K", [166, 167, 200])
    def test_tail_bound_dominates_tail(self, K):
        # rational upper bound on the tail mass 2*J_{K+3} / (2*J_3 + J_0)
        (j, rj), (j3, r3), (j0, r0) = j_oracle(K + 3), j_oracle(3), j_oracle(0)
        tail = 2 * (j + rj) / (2 * (j3 - r3) + (j0 - r0))
        assert Fraction(chain._tail_bound(K)) >= tail > 0

    def test_truncated_solve_at_166(self):
        sol = stationary_truncated_solve(166)
        assert sol.K == 166 and sol.tail_bound > 0
        assert abs(sol.probs[0] - PI0_REF) <= 1e-12


class TestTruncatedSolve:
    def test_pi0_against_quoted(self):
        sol = stationary_truncated_solve(25)
        assert abs(sol.probs[0] - PI0_QUOTED) <= 1e-9
        # the quoted decimal itself sits 1.3e-10 off the true value, so the
        # sharp statement is against the closed form:
        assert abs(sol.probs[0] - pi0(1e-13).value) <= 1e-12

    def test_ratio_relation(self):
        sol = stationary_truncated_solve(25)
        p0 = pi0(1e-12).value
        assert abs(sol.probs[1] / sol.probs[0] - (3 * p0 - 1) / p0) <= 1e-9

    def test_truncation_sweep(self):
        a = stationary_truncated_solve(8)
        b = stationary_truncated_solve(25)
        assert abs(a.probs[0] - b.probs[0]) <= 1e-4

    def test_oracle_agreement(self):
        sol = stationary_truncated_solve(25)
        for n in range(23):
            assert abs(sol.probs[n] - pi(n, 1e-13).value) <= max(1e-12, sol.tail_bound)

    @pytest.mark.parametrize("K", [5, 8, 25, 60])
    def test_exact_solve_agreement(self, K):
        # within the ~1e-16 float noise floor of the exact rational solution
        probs = stationary_truncated_solve(K).probs.tolist()
        exact = truncated_solve_oracle(K)
        assert max(abs(float(Fraction(p) - e)) for p, e in zip(probs, exact)) <= 2e-16

    def test_probs_properties(self):
        sol = stationary_truncated_solve(25)
        # below the solver's float noise floor (~1e-16) signs are arbitrary;
        # exact positivity/monotonicity is tested on the closed form
        assert np.all(sol.probs > -1e-15)
        assert np.all(np.diff(sol.probs[1:16]) < 0)
        assert abs(sol.probs.sum() - 1.0) <= 1e-12
        assert sol.tail_bound < 1e-28

    def test_rejects_small_K(self):
        with pytest.raises(ValueError):
            stationary_truncated_solve(4)

    def test_corrupted_generator_detected(self, monkeypatch):
        def bad_q_row(n):
            row = q_row(n)
            if n == 2:  # break one rate
                return chain.QRow({0: 1, 1: 1, 3: 1}, -4)
            return row

        monkeypatch.setattr(chain, "q_row", bad_q_row)
        sol = stationary_truncated_solve(25)
        assert abs(sol.probs[0] - PI0_REF) > 1e-4  # corruption must be visible


class TestFrontDistribution:
    def test_sum_plus_tail_is_one(self):
        fd = front_distribution(25)
        assert abs(fd.probs.sum() + 2 * bessel_j(28, None).value
                   / (2 * bessel_j(3, None).value + bessel_j(0, None).value) - 1.0) <= 1e-13
        assert fd.probs.sum() <= 1.0 + 1e-13

    @pytest.mark.parametrize("K", [25, 60])
    @pytest.mark.parametrize("tol", [1e-10, 1e-13, 1e-15])
    def test_probs_are_pointwise_pi(self, K, tol):
        probs = front_distribution(K, tol).probs
        assert probs.tobytes() == np.array([pi(n, tol).value for n in range(K + 1)]).tobytes()

    def test_unreachable_tol_raises(self):
        with pytest.raises(ValueError):
            front_distribution(25, 1e-17)

    def test_strictly_decreasing_from_one(self):
        fd = front_distribution(20)
        assert np.all(np.diff(fd.probs[1:]) < 0)

    def test_stationarity_residual_rational(self):
        # |(Pi Q)_j| <= 10 * tail_bound for the closed-form Pi truncated at
        # K=30, computed in exact rationals (float cancellation would hide it)
        name, ok, detail = checks.check_stationarity_residual()
        assert ok, detail
