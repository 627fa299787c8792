"""The package functions and result attributes that `perfbench/tracing.py`
wraps and counts, checked on small real outputs, and the pinned names that
`ladder_fpp` exports: a rename fails here, not in a traced benchmark run."""

import importlib.util
import types
from pathlib import Path

import ladder_fpp
from ladder_fpp import cli, simulate

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

EXPORTED = [
    "BoundedReal", "ChainTrajectory", "FppRecord", "FrontDistribution", "FrontPath",
    "HeadlineConstants", "QRow", "SimConfig", "SimEstimate", "avg_residual_time",
    "avg_residual_time_direct", "bessel_j", "bessel_y", "empirical_front_distribution",
    "empirical_residual_time", "fpp_time_constant", "front_distribution", "front_of_fpp",
    "front_state_at", "front_transition_stats", "gamma_residual",
    "headline_constants", "height_rate_estimate", "make_stream", "pi", "pi0", "q_row", "seq",
    "simulate_fpp_ladder", "simulate_front_chain", "stationary_truncated_solve",
    "time_constant", "upsilon", "upsilon_analytic",
]


def trace_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_target_exists():
    for mod_name, fn_name, _ in trace_targets():
        module = importlib.import_module(f"ladder_fpp.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"


def test_counts_read_real_outputs(tmp_path):
    # configured as the benchmark configures its runs, with mode= and burn_in=
    chain_cfg = simulate.SimConfig(seed=1, mode="front_chain", t_max=1.0, burn_in=100.0)
    fpp_cfg = simulate.SimConfig(seed=1, mode="fpp_dijkstra", target_height=7)
    traj = simulate.simulate_front_chain(chain_cfg)
    record = simulate.simulate_fpp_ladder(fpp_cfg)
    dump = str(tmp_path / "traj.csv")
    cli._dump_trajectory(traj, dump)
    calls = {  # (result, positional arguments) of each counted call
        ("cli", "_dump_trajectory"): (None, (traj, dump)),
        ("simulate", "simulate_front_chain"): (traj, (chain_cfg,)),
        ("simulate", "simulate_fpp_ladder"): (record, (fpp_cfg,)),
        ("simulate", "front_of_fpp"): (simulate.front_of_fpp(record), (record,)),
    }
    counted = {(m, f): count for m, f, count in trace_targets() if count is not None}
    assert set(counted) == set(calls)
    for key, count in counted.items():
        counts = count(*calls[key])
        assert counts and all(isinstance(v, int) and v > 0 for v in counts.values()), key


def test_exported_names_pinned():
    names = sorted(name for name, value in vars(ladder_fpp).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == EXPORTED
