import csv
import hashlib
import io
import json
import sys

import pytest

from ladder_fpp import chain, checks, simulate
from ladder_fpp.chain import QRow, q_row
from ladder_fpp.checks import PI0_QUOTED, TABLE1_A, TABLE1_B
from ladder_fpp.cli import main


def run_cli(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def run_cli_expecting_exit(argv, code):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code


def assert_usage_error(argv, capsys):
    """Exit code 2 with a one-line message on stderr; any other exception
    (a traceback from the command line) escapes pytest.raises and fails."""
    run_cli_expecting_exit(argv, 2)
    err = capsys.readouterr().err
    assert err.startswith("ladder-fpp: error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def no_run(*args, **kwargs):
    raise AssertionError("a rejected input started a run")


class TestExact:
    def test_tau_plain(self, capsys):
        rc, out = run_cli(["exact", "--tol", "1e-10", "--which", "tau"], capsys)
        assert rc == 0
        assert "0.682725076122" in out

    def test_three_constants_ordering(self, capsys):
        rc, out = run_cli(["exact", "--which", "pi0,tau,T", "--format", "json"], capsys)
        assert rc == 0
        recs = {r["quantity"]: r for r in json.loads(out)["records"]}
        assert set(recs) == {"pi0", "tau", "T"}
        assert recs["T"]["value"] < recs["tau"]["value"]
        assert abs(recs["pi0"]["value"] - PI0_QUOTED) < 1e-9

    def test_pi_n_sum(self, capsys):
        rc, out = run_cli(
            ["exact", "--which", "pi_n", "--n-max", "5", "--format", "json"], capsys
        )
        recs = json.loads(out)["records"]
        assert [r["quantity"] for r in recs] == [f"pi_{n}" for n in range(6)]
        total = sum(r["value"] for r in recs)
        tail = 1.0 - 2 * 2.2179552e-05 / 0.4817772781  # 1 - 2*J_8/(2J_3+J_0)
        assert total == pytest.approx(tail, abs=1e-9)

    def test_json_round_trip(self, capsys):
        rc, out = run_cli(["exact", "--which", "tau", "--format", "json"], capsys)
        rec = json.loads(out)["records"][0]
        # floats are emitted via repr: parsing reproduces them bit-exactly
        assert rec["value"] == float(repr(rec["value"]))
        rc2, out2 = run_cli(["exact", "--which", "tau", "--format", "json"], capsys)
        assert out == out2

    def test_csv_round_trip(self, capsys):
        rc, out = run_cli(["exact", "--which", "pi0,tau", "--format", "csv"], capsys)
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["quantity"] for r in rows] == ["pi0", "tau"]
        v = float(rows[1]["value"])
        rc2, out2 = run_cli(["exact", "--which", "tau", "--format", "json"], capsys)
        assert v == json.loads(out2)["records"][0]["value"]

    def test_tol_below_floor_quotes_the_given_tol(self, capsys):
        run_cli_expecting_exit(["exact", "--tol", "1e-300"], 2)
        assert capsys.readouterr().err == (
            "ladder-fpp: error: --tol 1e-300 is below the double-precision "
            "floor of pi0; use --tol 1e-15 or more\n"
        )
        run_cli_expecting_exit(["exact", "--tol", "2e-15", "--which", "T"], 2)
        assert capsys.readouterr().err == (
            "ladder-fpp: error: --tol 2e-15 is below the double-precision "
            "floor of T; use --tol 5e-15 or more\n"
        )
        # the suggested floors are reachable
        rc, _ = run_cli(["exact", "--tol", "1e-15", "--which", "pi0"], capsys)
        assert rc == 0
        rc, _ = run_cli(["exact", "--tol", "5e-15", "--which", "T"], capsys)
        assert rc == 0

    def test_bad_tol_usage_error(self, capsys):
        assert_usage_error(["exact", "--tol", "-1"], capsys)
        assert_usage_error(["exact", "--tol", "0"], capsys)
        assert_usage_error(["exact", "--tol", "1e-20"], capsys)  # below float floor

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tol_usage_error(self, tol, capsys, monkeypatch):
        monkeypatch.setattr(chain, "pi0", no_run)
        assert_usage_error(["exact", "--tol", tol, "--which", "pi0"], capsys)

    def test_unknown_quantity_usage_error(self, capsys):
        assert_usage_error(["exact", "--which", "bogus"], capsys)

    def test_negative_n_max_usage_error(self, capsys):
        assert_usage_error(["exact", "--which", "pi_n", "--n-max", "-3"], capsys)

    def test_pi_n_beyond_float_factorials(self, capsys):
        rc, out = run_cli(
            ["exact", "--which", "pi_n", "--n-max", "170", "--format", "csv"], capsys
        )
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["quantity"] for r in rows] == [f"pi_{n}" for n in range(171)]

    def test_n_max_capped(self, capsys, monkeypatch):
        # past n = 170 every pi_n is 0 within its bound
        monkeypatch.setattr(chain, "pi", no_run)
        assert_usage_error(["exact", "--which", "pi_n", "--n-max", "171"], capsys)


class TestSequences:
    def test_table_row_nine(self, capsys):
        rc, out = run_cli(["sequences", "--n-max", "9", "--format", "json"], capsys)
        data = json.loads(out)
        rows = {r[0]: r for r in data["rows"]}
        assert [rows[n][1] for n in range(1, 10)] == TABLE1_A
        assert [rows[n][2] for n in range(1, 10)] == TABLE1_B

    def test_difference_columns_match_upsilon(self, capsys):
        rc, out = run_cli(["sequences", "--n-max", "7", "--format", "json"], capsys)
        rows = json.loads(out)["rows"]
        for r in rows:
            n, a_n, b_n, big_a, big_b, u0, u3combo = r
            if n >= 2:
                assert big_b == u0
                assert big_a == u3combo

    def test_single_row(self, capsys):
        rc, out = run_cli(["sequences", "--n-max", "1"], capsys)
        lines = [ln for ln in out.splitlines() if ln.strip()]
        assert len(lines) == 2  # header plus one row
        assert rc == 0

    # sha256 of the output bytes, recorded from the earlier implementation
    # that formatted Python ints through the csv and json modules
    DIGESTS = {
        ("1500", "csv"): "00c1942227f66e7ea65a22cb3b4f046c1bec3f794b39e7a8d67a52b5da6f4faf",
        ("1500", "json"): "5d385fa664d0ec91ba652ca06c3acd1d2f536d4457260e350f5afc6be369b82b",
        ("200", "plain"): "82d0532b37b06d7d77528066760d36186039ae09b6288976fc1ead389b46b849",
        ("250", "plain"): "596eb8839ce2e09122e3e2879ffc22a749cbe4f62cd479f1621100dc22685690",
        ("3", "plain"): "5c687d4995d2cadf0d1a29cb0a3a6a85f45c6d3febc8a52c959065cdc36c3e6b",
        ("1", "csv"): "a47dbab4ccbcb2ceb43c499a8905d234125bbeefedb96d565e70d8ddfe31d2a8",
        ("1", "json"): "bd04044581d4e25fb96e00ce89ffb3bfe06da0cfdb1b9713a7d4a803488e9ee6",
    }

    @pytest.mark.parametrize("n_max, fmt", sorted(DIGESTS))
    def test_output_bytes_pinned(self, n_max, fmt, capsys):
        rc, out = run_cli(["sequences", "--n-max", n_max, "--format", fmt], capsys)
        assert rc == 0
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == self.DIGESTS[n_max, fmt]

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="interpreter has no int/str digit limit")
    def test_leaves_int_str_limit_alone(self, capsys):
        before = sys.get_int_max_str_digits()
        default = sys.int_info.default_max_str_digits
        sys.set_int_max_str_digits(default)
        try:
            rc, out = run_cli(["sequences", "--n-max", "1500", "--format", "csv"], capsys)
            assert rc == 0 and len(out) > 10 ** 6
            assert sys.get_int_max_str_digits() == default
        finally:
            sys.set_int_max_str_digits(before)

    def test_out_of_range(self, capsys):
        assert_usage_error(["sequences", "--n-max", "0"], capsys)
        assert_usage_error(["sequences", "--n-max", "10001"], capsys)


class TestSimulate:
    def test_fpp_small(self, capsys):
        rc, out = run_cli(
            ["simulate", "--mode", "fpp", "--height", "1000", "--replicates", "3",
             "--seed", "7", "--format", "json"],
            capsys,
        )
        assert rc == 0
        rec = json.loads(out)["records"][0]
        assert rec["quantity"] == "tau"
        assert 0.5 < rec["value"] < 0.9
        assert rec["method"] == "monte_carlo"

    def test_fpp_single_initial(self, capsys):
        rc, out = run_cli(
            ["simulate", "--mode", "fpp", "--height", "1000", "--seed", "3",
             "--replicates", "2", "--initial", "single", "--format", "json"],
            capsys,
        )
        rec = json.loads(out)["records"][0]
        assert 0.5 < rec["value"] < 0.9

    def test_deterministic_given_seed(self, capsys):
        argv = ["simulate", "--mode", "fpp", "--height", "500", "--replicates", "2",
                "--seed", "42", "--format", "json"]
        rc1, out1 = run_cli(argv, capsys)
        rc2, out2 = run_cli(argv, capsys)
        assert out1 == out2

    def test_jobs_do_not_change_results(self, capsys):
        base = ["simulate", "--mode", "fpp", "--height", "400", "--replicates", "3",
                "--seed", "11", "--format", "json"]
        rc1, out1 = run_cli(base + ["--jobs", "1"], capsys)
        rc2, out2 = run_cli(base + ["--jobs", "2"], capsys)
        assert out1 == out2

    def test_front_dist_report(self, capsys):
        rc, out = run_cli(
            ["simulate", "--mode", "front", "--t-max", "20000", "--seed", "7",
             "--report", "front-dist", "--format", "json"],
            capsys,
        )
        recs = json.loads(out)["records"]
        by_q = {r["quantity"]: r for r in recs}
        assert abs(by_q["pi_0"]["value"] - 0.46472) < 0.02

    def test_residual_report(self, capsys):
        rc, out = run_cli(
            ["simulate", "--mode", "front", "--t-max", "20000", "--seed", "7",
             "--report", "residual", "--samples", "2000", "--format", "json"],
            capsys,
        )
        rec = json.loads(out)["records"][0]
        assert abs(rec["value"] - 0.595) < 0.05

    def test_trajectory_dump(self, tmp_path, capsys):
        path = tmp_path / "traj.csv"
        rc, out = run_cli(
            ["simulate", "--mode", "front", "--t-max", "200", "--seed", "1",
             "--dump-trajectory", str(path)],
            capsys,
        )
        assert rc == 0
        rows = list(csv.DictReader(path.open()))
        assert list(rows[0]) == ["t", "state", "height"]
        assert rows[0]["t"] == "0.0" and rows[0]["state"] == "0"
        ts = [float(r["t"]) for r in rows]
        assert ts == sorted(ts)
        heights = [int(r["height"]) for r in rows]
        assert all(b - a in (0, 1) for a, b in zip(heights, heights[1:]))
        # round-trip: times parse back to the exact floats written
        assert all(repr(float(r["t"])) == r["t"] for r in rows[:50])

    # sha256 of the dump file for seed 7, recorded before the dump was
    # written in blocks; t_max 5e4 gives 135,869 rows, more than one block
    DUMP_DIGESTS = {
        "200": "a748b5c2f4658d32260d08ef78694db801c189f2725fd2be703e1f9171e94b0a",
        "5e4": "489a9d7539dd6dda30475f5a3ce582a0f6df0a253ab6c6213cc20d0dd091bd00",
    }

    @pytest.mark.parametrize("t_max", sorted(DUMP_DIGESTS))
    def test_trajectory_dump_pinned(self, t_max, tmp_path, capsys):
        path = tmp_path / "traj.csv"
        rc, _ = run_cli(["simulate", "--mode", "front", "--t-max", t_max, "--seed", "7",
                         "--dump-trajectory", str(path)], capsys)
        assert rc == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.DUMP_DIGESTS[t_max]

    def test_missing_seed(self, capsys):
        assert_usage_error(["simulate", "--mode", "fpp", "--height", "100"], capsys)

    def test_conflicting_horizons(self, capsys):
        assert_usage_error(
            ["simulate", "--mode", "fpp", "--height", "100", "--t-max", "50",
             "--seed", "1"], capsys
        )

    def test_fpp_requires_height(self, capsys):
        assert_usage_error(
            ["simulate", "--mode", "fpp", "--t-max", "50", "--seed", "1"], capsys
        )

    def test_zero_samples_usage_error(self, capsys):
        # one sample has no standard error; the run must not print "± 0"
        for samples in ("0", "1"):
            assert_usage_error(
                ["simulate", "--mode", "front", "--t-max", "1000", "--seed", "1",
                 "--report", "residual", "--samples", samples], capsys
            )

    def test_residual_window_too_short_usage_error(self, capsys):
        # the sample times end 50 time units before the run does
        run_cli_expecting_exit(["simulate", "--mode", "front", "--t-max", "120", "--seed", "1",
                                "--report", "residual"], 2)
        assert capsys.readouterr().err == (
            "ladder-fpp: error: run too short for residual sampling\n")

    def test_samples_capped(self, capsys, monkeypatch):
        # 10^20 sample times ended, after the whole run, in numpy's
        # "Maximum allowed dimension exceeded" traceback
        monkeypatch.setattr(simulate, "simulate_front_chain", no_run)
        for samples in ("1000001", "100000000000000000000"):
            assert_usage_error(
                ["simulate", "--mode", "front", "--t-max", "1000", "--seed", "1",
                 "--report", "residual", "--samples", samples], capsys
            )

    def test_height_capped(self, capsys, monkeypatch):
        # a Dijkstra run allocates about 42 B per ladder column before it starts
        for engine in ("simulate_front_chain", "fpp_time_constant"):
            monkeypatch.setattr(simulate, engine, no_run)
        for mode in (["fpp", "--replicates", "2"], ["front"]):
            for height in ("10000001", "100000000000000000000"):
                assert_usage_error(["simulate", "--mode", *mode, "--height", height,
                                    "--seed", "1"], capsys)
            with pytest.raises(AssertionError, match="started a run"):  # the cap is accepted
                main(["simulate", "--mode", *mode, "--height", "10000000", "--seed", "1"])

    def test_t_max_capped(self, capsys, monkeypatch):
        # a chain run presizes about 68 B per unit of t_max
        monkeypatch.setattr(simulate, "simulate_front_chain", no_run)
        for t_max in ("10000001", "1e300"):
            assert_usage_error(["simulate", "--mode", "front", "--t-max", t_max,
                                "--seed", "1"], capsys)
        with pytest.raises(AssertionError, match="started a run"):  # the cap is accepted
            main(["simulate", "--mode", "front", "--t-max", "1e7", "--seed", "1"])

    @pytest.mark.parametrize("argv", [
        ["--mode", "front", "--t-max", "100", "--seed", "-1"],
        ["--mode", "fpp", "--height", "10", "--replicates", "2", "--seed", "-1"],
        ["--mode", "front", "--t-max", "inf", "--seed", "1"],
        ["--mode", "front", "--t-max", "100", "--burn-in", "nan", "--seed", "1"],
        ["--mode", "front", "--t-max", "100", "--burn-in", "inf", "--seed", "1"],
        ["--mode", "front", "--t-max", "100", "--seed", "x"],
    ], ids=["front_seed", "fpp_seed", "t_max_inf", "burn_in_nan", "burn_in_inf", "seed_not_int"])
    def test_bad_seed_or_horizon_usage_error(self, argv, capsys, monkeypatch):
        for engine in ("simulate_front_chain", "simulate_fpp_ladder", "fpp_time_constant"):
            monkeypatch.setattr(simulate, engine, no_run)
        assert_usage_error(["simulate", *argv], capsys)

    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_unwritable_dump_usage_error(self, where, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(simulate, "simulate_front_chain", no_run)
        path = tmp_path / "missing" / "x.csv" if where == "missing_dir" else tmp_path
        assert_usage_error(["simulate", "--mode", "front", "--t-max", "100", "--seed", "1",
                            "--dump-trajectory", str(path)], capsys)
        assert list(tmp_path.iterdir()) == []

    def test_no_increment_in_window_usage_error(self, capsys):
        # one event, whose increment ends the window: the rate reads 0 and
        # tau = 1/rate has no value; only a run can tell
        assert_usage_error(["simulate", "--mode", "front", "--t-max", "1e-300",
                            "--burn-in", "0", "--seed", "1"], capsys)

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_nonpositive_jobs_usage_error(self, jobs, capsys):
        assert_usage_error(
            ["simulate", "--mode", "fpp", "--height", "10", "--seed", "1",
             "--replicates", "2", "--jobs", jobs],
            capsys,
        )
        assert_usage_error(["validate", "quick", "--jobs", jobs], capsys)

    def test_jobs_env_not_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("LADDER_FPP_JOBS", "two")
        assert_usage_error(["simulate", "--mode", "fpp", "--height", "10", "--seed", "1",
                            "--replicates", "2"], capsys)
        assert_usage_error(["validate", "quick"], capsys)
        # commands that run no replicates do not read it
        rc, out = run_cli(["exact", "--which", "tau"], capsys)
        assert rc == 0 and "0.682725076122" in out
        # an explicit --jobs takes precedence over the environment
        rc, _ = run_cli(["simulate", "--mode", "fpp", "--height", "10", "--seed", "1",
                         "--replicates", "2", "--jobs", "1"], capsys)
        assert rc == 0

    @pytest.mark.parametrize("extra", [[], ["--replicates", "1"], ["--replicates", "0"]])
    def test_fpp_single_replicate_usage_error(self, extra, capsys):
        # one replicate has no standard error; the run must not print "± 0"
        run_cli_expecting_exit(
            ["simulate", "--mode", "fpp", "--height", "50", "--seed", "1"] + extra, 2)
        assert capsys.readouterr().err == (
            "ladder-fpp: error: --mode fpp requires --replicates N >= 2 "
            "(a standard error needs two replicates)\n")

    def test_replicates_front_rejected(self, capsys):
        for reps in ("2", "1"):
            assert_usage_error(
                ["simulate", "--mode", "front", "--t-max", "100", "--seed", "1",
                 "--replicates", reps], capsys
            )


class TestValidate:
    def test_quick_passes(self, capsys):
        rc, out = run_cli(["validate", "quick"], capsys)
        assert rc == 0
        lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
        assert len(lines) >= 10
        assert all(ln.startswith("PASS") for ln in lines)

    def test_full_requires_seed(self, capsys, monkeypatch):
        monkeypatch.setattr(checks, "monte_carlo_runs", no_run)
        for seed in ([], ["--seed", "-3"]):
            assert_usage_error(["validate", "full", *seed], capsys)

    def test_corrupted_generator_fails(self, capsys, monkeypatch):
        real = chain.q_row

        def bad_q_row(n):
            if n == 3:
                return QRow({0: 1, 1: 1, 2: 2, 4: 2}, -5)  # wrong rates
            return real(n)

        monkeypatch.setattr(chain, "q_row", bad_q_row)
        rc, out = run_cli(["validate", "quick"], capsys)
        assert rc == 1
        assert "FAIL" in out
