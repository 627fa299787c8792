import bisect
import concurrent.futures
import hashlib
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ladder_fpp import simulate
from ladder_fpp.chain import pi, pi0, q_row
from ladder_fpp.constants import gamma_residual, time_constant
from ladder_fpp.simulate import (
    ChainTrajectory,
    FppRecord,
    FrontPath,
    SimConfig,
    empirical_front_distribution,
    empirical_residual_time,
    fpp_time_constant,
    front_of_fpp,
    front_state_at,
    front_transition_stats,
    height_rate_estimate,
    make_stream,
    simulate_fpp_ladder,
    simulate_front_chain,
)

from oracles import brute_force_passage_times, jump_oracle, transition_stats_loop

SEED = 20260808

# sha256 of the bytes of infection_times, settled, rail_weights and
# rung_weights, then of repr(horizon_time), for H = 2000; recorded from the
# earlier implementation that indexed (2, size) numpy arrays per vertex, so
# any change of RNG order, tie-breaking or storage layout shows here
PINNED_H2000 = {
    (5, "both_nodes"): "062c21511e7d171961c95ea225a4c8a319e2bfb9687892ca469c1c8a7ba6e28f",
    (5, "single_node"): "41ad0c1d274e8cb615b493851f58af885f45538236c40730d70eb71a6d702d3b",
    (2026, "both_nodes"): "c1c05c1f7347d872e4828c74ad0e226250d0bf20c883c566a051cdcbdc2e7927",
    (2026, "single_node"): "2aa92c531447cb8f8d97df9552d84b35058156f53a2574231670d8eb67463427",
}
PINNED_SIZE = 2000 + 1 + 64  # columns of those records: H + 1 and 64 of slack


# sha256 of the bytes of states, holding_times and height_incremented, then
# of repr((total_time, final_height, final_state)); recorded from the earlier
# implementation that stepped the clock and height event by event.  t_max
# 24150/24200 and target_height 35400/35450 end on either side of the first
# 2^16-event chunk boundary; (5, target_height 35400, 0) ends on it exactly.
# (7, t_max 1e6, 0) is the benchmark's front_chain trajectory, 2,711,738
# events in 42 chunks; it was recorded from the scalar state loop, before the
# pair-table walk replaced it
PINNED_CHAIN = {
    (7, "t_max", 1e6, 0): "5a6e2e3e64994cb87ec41337f3a2144a853c9fc202540c52e8ed2978e5cc80a4",
    (5, "t_max", 0.3, 0): "92055af5728e3444d14f3c14d79eb0dd98339df90d58d140bd1ba4e77bcdf8dd",
    (5, "t_max", 0.3, 3): "98ea971325b8ce319dc60ed197c9704d69a24f35f43e1489e13a7c3405dd1908",
    (5, "t_max", 24150.0, 0): "e72e51c2ca4de5c37af76a1796a42e79d9d010d2f5d9cefbd5c16571588e7837",
    (5, "t_max", 24150.0, 3): "8b7d8f8cbee74609c59ceb63f314aeaf15275d66eef44c8c67d1e019c73a150c",
    (5, "t_max", 24200.0, 0): "7b6ff8c83e70b061b27e4446853d535cc1b0021a679a70458d7afa0348727d9d",
    (5, "t_max", 24200.0, 3): "4b8733a65112fed1af0194b06b3feec160aad9736d88fb51c9a3b1140982151c",
    (5, "t_max", 10000.0, 0): "9dc85be05f47b6b844a210063eeb85757d41e8c0fbd0402d536c2339f71ecf29",
    (5, "t_max", 10000.0, 3): "ee2f2691a4fbb244a03b9d75ddce0e2dc34a7de808420d0a4b31f1830cb5c1f5",
    (5, "target_height", 1, 0): "92055af5728e3444d14f3c14d79eb0dd98339df90d58d140bd1ba4e77bcdf8dd",
    (5, "target_height", 1, 3): "98ea971325b8ce319dc60ed197c9704d69a24f35f43e1489e13a7c3405dd1908",
    (5, "target_height", 35400, 0): "1545d5ca07cbabffaf7243d7f5caf0a5526c983e9ce1805d74e979af4b5a5f6d",
    (5, "target_height", 35400, 3): "06b2d8669dd5162670e8be1b548b5579427ca28c64efe8270b81e39b5f1b2c66",
    (5, "target_height", 35450, 0): "eedd18eb0a906a3bb2a460f6545efd2a2b9dc340df89ce01e623524adc00c5d2",
    (5, "target_height", 35450, 3): "4fe83f2d70132e82694e8ccf7ec10c9dd0a9c1dbf8ff1f89bcb5a9e545322c24",
    (2026, "t_max", 0.3, 0): "3b7cd2483c036a50ecedf7945ba4aaa3e9a2e0ce0c38223249291f786c7c3f83",
    (2026, "t_max", 0.3, 3): "b2ca87a06397ab68e21e8e07883a59bc04ea1298b780f761eab755925f62c7df",
    (2026, "t_max", 24150.0, 0): "0476958ed6d36962aaf9341fa4df3eb685facc6934e59b674117ef7bd5b5f535",
    (2026, "t_max", 24150.0, 3): "90610ed497acfeb0d8a7c54184ca7ae55e0a837555fa511d93b8cd79b778a4bf",
    (2026, "t_max", 24200.0, 0): "3555cadb6f35978cd741f780b79ebdc4c6416c03f3a2b78499eb17aaa4532a33",
    (2026, "t_max", 24200.0, 3): "6ba65dc05b653d24bb8b4a8fbecc91e235d9300bec02dc6ae30b14f87178b9ca",
    (2026, "t_max", 10000.0, 0): "34e5cb6c58504da3f63a2738895b836bd41c5f7a99e9143defc6877af3870a8c",
    (2026, "t_max", 10000.0, 3): "842f33f9cd298926cfeda82d2d5138f4e93ebb014cc3b6baa7632b6f3e2ddb4b",
    (2026, "target_height", 1, 0): "736cef4d118df19cc20c4132b92084b5ae7237dc72d0873fcc7db9c97b394569",
    (2026, "target_height", 1, 3): "396e0655a99dfb8a12024d213296b99d44942189a277dfa2730637d552a59f5b",
    (2026, "target_height", 35400, 0): "1da9c5f91fd9f20f0b0668c7f0ca3748950d1441f4dc798dc61a5784920cdfc9",
    (2026, "target_height", 35400, 3): "e8eba83e39b2176c285cd37e1c06464a67e37fa5c48a5b2f91765044b941eb52",
    (2026, "target_height", 35450, 0): "93660adebbbadc4fb890405906bee5eab69e2ce6616c8ce8e23c771c24c96fae",
    (2026, "target_height", 35450, 3): "3b9f20f773a496e63bb3311563efac5cfb0b3d48ac6496cf5fbc5c832630e878",
}


# sha256 of repr() of the outputs of empirical_front_distribution,
# height_rate_estimate and empirical_residual_time (estimate and exclusion
# count) for (seed, t_max, burn_in), with the sample times of
# `estimator_samples`; recorded from the earlier implementation that searched
# each batch edge on its own and took the increment times with a boolean mask.
# 1e6 is the benchmark's trajectory and 3e4 its probe; at t_max 1e3 with
# burn-in 999 the batches are 0.01 wide, so one event spans many of them
PINNED_ESTIMATORS = {
    (7, 1e6, 100.0): (
        "39ea07bb411c6e55e9cbdf847f3cf594a6a4bbecc92bb94987c103d6eccbae2f",
        "8cd12fb36ee912684d0b3f6d9732faaf76e136bd5b7e11b10c8a9c6347248fab",
        "b6a2dd93699e3314e78166365b2f929b4e02107161af5feda1355c5d54694499",
    ),
    (1, 3e4, 100.0): (
        "ff617780925178c0610ea6ea1c8225d01dc34173933f5aee1488eb8e5906d99b",
        "97f7ea87392b39c5bf638d5d282857c6a93128bfe106bfd3faf2342a882fa775",
        "f73bc0fd74578e22b33071d39812a53e9c485470a79a41e7a54ca7af249d8cde",
    ),
    (2026, 3e4, 100.0): (
        "6ee145ef592b8e5a2b1874e588a420f9d0b7de4ad96f85d2eeb9ddb8832d3ad2",
        "2ca4df78172f13b7f20331577706136aadba7b34117ff0c3f1d2c8c48674850d",
        "c04a9b0b203a410c994db7c2daeb60e6fc96749d63bde27d184c7a9e5364ed5d",
    ),
    (1, 1e3, 999.0): (
        "04f98c6512b742eac79d104aa5640d0af25572fbff1cd26aa6cd2b00061c7932",
        "9dd2975b56fd22f73ba428124fe7febbd4febe4800d22a22859c870432e64e73",
        "d7d1df74dc6fa00e916a7a09d0c021bce2ee8904513ae399e04c960b093b5de1",
    ),
    (2026, 1e3, 999.0): (
        "1091d8e9170ab4bc516d40e0f818924774255fbfe30b6d2e5534c16be16cd191",
        "dd02a3caf9f0cb74c0a906bd4b35eda68727fc7690110a4216f9db5453727818",
        "50df4e3887b77486280b015f6c16e98692e32166d3d84cc23858e255a745df00",
    ),
    (1, 200.0, 100.0): (
        "3521ac15a02a202af0e9ec5972f39a6c82e52f67d22765184585ab2ffd6900af",
        "f715b14ea73e32ec9a881e98df794ed19bf821abaec751ede5135d5243f667c1",
        "462dcbd5c258c4f8e7db2b0e6d47fc6167829adebeee38b0e10d4fa5254b2e5a",
    ),
    (2026, 200.0, 100.0): (
        "c065f049152a1a4b7ac1c63c0c12880d5d8071f50df96f5ad6e616680fb0b822",
        "e8f3d75c3bffd6b1d848a3072b616026d35e7822d033c5bd13285191e1b12ca0",
        "09a950ee6e428b863a8b86973a51f4ea72fe662494309100b9db6d7818d0fb41",
    ),
    (1, 0.3, 0.0): (
        "3d6ca7c0410ce74f3606445c970946c8427990f68a31b0cb700b2e5bf9e9a98a",
        "89c41e90964485a8e4398213cc707f305551370eebb335a6b9c7a2762d07c173",
        "6e15bcc579bc0524d830b4790a57ff86799ac62974c76e132d8227a7ce977870",
    ),
    (2026, 0.3, 0.0): (
        "fca099ac89c8fa83d37fc40e8c19158dd46b402283b5b1f9633b02ffeefb9954",
        "346a4c482f690a8ba77e72499342bf43af756cb914889712536969915e082012",
        "7f2794a3b9d0471b8a966d05b5ac3d1a91226c2bf1b427c1be4f3cc8c336be72",
    ),
}


# sha256 of every front_of_fpp field (the four arrays' bytes, then repr of
# start, end, initial state and height) and of front_transition_stats (repr
# of the sorted (from, to, count) triples, then the exposure's shape and
# bytes), for (seed, target_height, initial); recorded from the earlier
# implementation that counted transitions event by event in Python
PINNED_FRONT = {
    (5, 1, "both_nodes"): (
        "a9d4c48297042ebdf82b8596483b9cdb4a2a8100d72a84ae0d83811459fd6670",
        "6d06ed92cd91fa392437d6c1e54e9348a3b2207ee02ea3fcff22f98d7c53739d"),
    (5, 1, "single_node"): (
        "16578ea68cd63929a282b8aac13f81480ca7ae877fa10ba630941aa6e6803c64",
        "9c1603d79d9cccf5e5bdd40631bfc8adff1f3e4828d732d5fe256f7e8263b2e1"),
    (5, 7, "both_nodes"): (
        "2a44053bbdaf83787268d2b72bcc8ef204ffee33d4e3749d9eaf1f254566343d",
        "1b0e89abc63431f542954e1e184c895302e36abc204299df554d5cbf3cc7c832"),
    (5, 7, "single_node"): (
        "7cacc856c5798a0d47bd7af6123880b9b3a6e4febabba63b4fdf4b964f367fd4",
        "b8686e49f811abb15e58456ec1882c27d55fe146ece5175f63f94c60e2f24939"),
    (5, 2000, "both_nodes"): (
        "3fa29a6d894bc7dcc4e626f311ed38bbb2929f8dad21dc4d70eb2587569ad7d0",
        "5e6ba6e4025a58afa567cd1f44bd1c850cbdd3baf3df950fa3b9753358f78444"),
    (5, 2000, "single_node"): (
        "820a1be13dd82c19abcb7362142983907d2c27c67acb4dbb79e9651db3901ef7",
        "df1e5c37f65009960672098f98abc3d2c0d8a4ab1d95a4593d1da77d909d0a66"),
    (2026, 1, "both_nodes"): (
        "5eca92c2b3d92b3bd59bef4659771430730320ca6c583849c84f6b007949eea3",
        "e2e0e4d6dcb2bd5002d18b32b5343069efa446fd6d18ec907496c47a3419765f"),
    (2026, 1, "single_node"): (
        "abcfae9191852775bd0489c4939e9fc81cc9401f2a001d2e723001f7fc591069",
        "a859c1dfcb4b07bb06bd1de680feb6c6e909594704decd8d8fd135c2e7b1daf6"),
    (2026, 7, "both_nodes"): (
        "f43d4a3e05f50ee802fcb5873047b9029d1963fb846e549acae8ff6f40fa70aa",
        "d15ce82b0541b3caf7377cbfc423b191441451623ce450f6f51abcc871db38ec"),
    (2026, 7, "single_node"): (
        "583aae3b7c01426d138679a60d00468db284478fb307765f59a0506677f5c313",
        "0d0b6d40e8fde4c37198566efb426f353332280a3306f198fd7cac68a96f4edf"),
    (2026, 2000, "both_nodes"): (
        "a00bf48c1bd654c47ebd2f7c83117594937ecb623e0dedc2eb86aa45c17d96d0",
        "06a24e55ad344ade443c0742932df6110b1dc69f4303a4dfd18818068901d441"),
    (2026, 2000, "single_node"): (
        "291c89c9a4c4ff0101389dd0612ebed58c56549f847cc5f856a1d48a4b45ff28",
        "c4097b681e77c30cdc7f47ba712e7a9384c159d9f6e57ff2987459a1cff80c77"),
    (7, 100_000, "both_nodes"): (
        "2b55839b4988b076ae8219dc4e9053e8f19d98fb54e9700985ddf62a05afaef5",
        "0775c68e40375a41ec98ac38f84f456235b342d1bad4b6679206705750271e90"),
}


def front_digests(path: FrontPath) -> tuple[str, str]:
    h = hashlib.sha256()
    for a in (path.times, path.states, path.height_times, path.heights):
        h.update(a.tobytes())
    h.update(repr((path.start_time, path.end_time, path.initial_state,
                   path.initial_height)).encode())
    counts, exposure = front_transition_stats(path)
    g = hashlib.sha256()
    g.update(repr(sorted((s, t, k) for s, row in counts.items()
                         for t, k in row.items())).encode())
    g.update(repr(exposure.shape).encode())
    g.update(exposure.tobytes())
    return h.hexdigest(), g.hexdigest()


def chain_digest(traj: ChainTrajectory) -> str:
    h = hashlib.sha256()
    for a in (traj.states, traj.holding_times, traj.height_incremented):
        h.update(a.tobytes())
    h.update(repr((traj.total_time, traj.final_height, traj.final_state)).encode())
    return h.hexdigest()


def check_pinned_chain(key) -> ChainTrajectory:
    seed, kind, value, replicate = key
    cfg = SimConfig(seed=seed, mode="front_chain", **{kind: value})
    traj = simulate_front_chain(cfg, replicate=replicate)
    assert chain_digest(traj) == PINNED_CHAIN[key], key
    assert traj.jump_times.tobytes() == np.cumsum(traj.holding_times).tobytes()
    return traj


def record_digest(rec: FppRecord, size: int | None = None) -> str:
    """sha256 of the record, over its first `size` columns if given."""
    h = hashlib.sha256()
    for a in (rec.infection_times, rec.settled, rec.rail_weights, rec.rung_weights):
        h.update(a[..., :size].tobytes())
    h.update(repr(rec.horizon_time).encode())
    return h.hexdigest()


def synthetic_record(inf: np.ndarray, horizon: float) -> FppRecord:
    """Record whose settled vertices are the finite entries of inf."""
    size = inf.shape[1]
    return FppRecord(
        infection_times=inf,
        settled=np.isfinite(inf),
        horizon_time=horizon,
        target_height=0,
        initial="both_nodes",
        rail_weights=np.full((2, size), np.nan),
        rung_weights=np.full(size, np.nan),
    )


@pytest.fixture(scope="module")
def medium_traj():
    cfg = SimConfig(seed=SEED, mode="front_chain", t_max=2e5)
    return simulate_front_chain(cfg)


def estimator_samples(traj: ChainTrajectory, burn_in: float, seed: int) -> np.ndarray:
    """10^4 uniform times over [burn_in, total_time], about 50 increment times
    (ties for the right-sided search) and 11 evenly spaced times ending at
    total_time, which lies past the last increment or on it."""
    inc_times = traj.jump_times[traj.height_incremented]
    u = make_stream(seed, 1).random(10_000)
    return np.concatenate([burn_in + (traj.total_time - burn_in) * u,
                           inc_times[::max(1, len(inc_times) // 50)],
                           np.linspace(burn_in, traj.total_time, 11)])


@pytest.fixture(scope="module")
def pinned_front_records():
    return {(seed, height, initial): simulate_fpp_ladder(SimConfig(
                seed=seed, mode="fpp_dijkstra", target_height=height, initial=initial))
            for seed, height, initial in PINNED_FRONT}


@pytest.fixture(scope="module")
def pinned_trajectories():
    return {(seed, t_max, burn_in): simulate_front_chain(
                SimConfig(seed=seed, mode="front_chain", t_max=t_max))
            for seed, t_max, burn_in in PINNED_ESTIMATORS}


class TestSimConfig:
    def test_requires_exactly_one_horizon(self):
        with pytest.raises(ValueError):
            SimConfig(seed=1, mode="front_chain")
        with pytest.raises(ValueError):
            SimConfig(seed=1, mode="front_chain", t_max=10.0, target_height=5)

    def test_validates_fields(self):
        with pytest.raises(ValueError):
            SimConfig(seed=1, mode="nope", t_max=10.0)
        with pytest.raises(ValueError):
            SimConfig(seed=1, mode="front_chain", t_max=10.0, replicates=0)
        with pytest.raises(ValueError):
            SimConfig(seed=1, mode="front_chain", t_max=-1.0)
        with pytest.raises(ValueError):
            SimConfig(seed=1, mode="fpp_dijkstra", target_height=0)
        for bad in (dict(seed=-1), dict(t_max=np.inf), dict(burn_in=np.nan),
                    dict(burn_in=np.inf)):
            with pytest.raises(ValueError):
                SimConfig(**{"seed": 1, "mode": "front_chain", "t_max": 10.0, **bad})

    def test_mode_mismatch_rejected(self):
        cfg = SimConfig(seed=1, mode="front_chain", t_max=10.0)
        with pytest.raises(ValueError):
            simulate_fpp_ladder(cfg)
        cfg2 = SimConfig(seed=1, mode="fpp_dijkstra", target_height=10)
        with pytest.raises(ValueError):
            simulate_front_chain(cfg2)


class TestFrontChain:
    def test_reproducible(self):
        cfg = SimConfig(seed=123, mode="front_chain", t_max=500.0)
        a = simulate_front_chain(cfg)
        b = simulate_front_chain(cfg)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.holding_times, b.holding_times)
        assert np.array_equal(a.height_incremented, b.height_incremented)
        assert a.total_time == b.total_time
        c = simulate_front_chain(SimConfig(seed=124, mode="front_chain", t_max=500.0))
        assert not np.array_equal(a.holding_times[:50], c.holding_times[:50])

    def test_trajectory_invariants(self, medium_traj):
        traj = medium_traj
        assert np.all(traj.holding_times > 0)
        assert traj.final_height == int(traj.height_incremented.sum())
        assert traj.total_time == pytest.approx(traj.holding_times.sum(), rel=1e-12)
        # transitions respect the generator support, increments are n -> n+1
        before = traj.states[:-1]
        after = traj.states[1:]
        up = traj.height_incremented[:-1]
        assert np.all(after[up] == before[up] + 1)
        from_zero = after[before == 0]
        assert np.all(from_zero == 1)
        legal = (after == before + 1) | ((before >= 1) & (after <= before - 1) & (after >= 0))
        assert np.all(legal)

    def test_target_height_mode(self):
        cfg = SimConfig(seed=5, mode="front_chain", target_height=200)
        traj = simulate_front_chain(cfg)
        assert traj.final_height == 200
        assert traj.height_incremented[-1]

    def test_holding_time_means(self, medium_traj):
        # empirical mean holding time in state n ~ 1/(n+2), within 4 sigma,
        # for states visited at least 10^4 times
        traj = medium_traj
        for n in range(int(traj.states.max()) + 1):
            mask = traj.states == n
            count = int(mask.sum())
            if count < 10 ** 4:
                continue
            holds = traj.holding_times[mask]
            se = holds.std(ddof=1) / math.sqrt(count)
            assert abs(holds.mean() - 1.0 / (n + 2)) <= 4 * se, n

    def test_height_rate(self, medium_traj):
        est = height_rate_estimate(medium_traj, burn_in=100.0)
        expect = 1.0 + pi0(1e-10).value
        assert est.quantity == "inv_tau"
        assert abs(est.mean - expect) <= 4 * est.std_err

    def test_first_event(self, medium_traj):
        traj = medium_traj
        assert traj.states[0] == 0 and traj.holding_times[0] > 0
        assert traj.height_incremented[0]

    @pytest.mark.parametrize("key", sorted(PINNED_CHAIN))
    def test_pinned_digest(self, key):
        check_pinned_chain(key)

    def test_growth_path_pinned(self, monkeypatch):
        # storage presized for one event grows by doubling to the same paths
        monkeypatch.setattr(simulate, "_expected_events", lambda cfg: 1)
        for key in PINNED_CHAIN:
            check_pinned_chain(key)

    def test_jump_rates_match_generator(self):
        # the Gillespie jump rule through the counter of front_transition_stats:
        # every jump is in the support of q_row, and each rate out of states
        # 0-3 is within 4 sigma of q_row, sigma = sqrt(q / exposure)
        traj = simulate_front_chain(SimConfig(seed=7, mode="front_chain", t_max=1e5))
        after = np.append(traj.states[1:], traj.final_state)
        n_states = int(after.max()) + 1
        counts, exposure = simulate._transition_stats(traj.states, after,
                                                      traj.holding_times, n_states)
        assert exposure.sum() == pytest.approx(traj.total_time, rel=1e-12)
        for s, row in counts.items():
            assert all(q_row(s).entries.get(t, 0) > 0 for t in row), s
        for s in range(4):
            for t, q in q_row(s).entries.items():
                rate = counts[s].get(t, 0) / exposure[s]
                assert abs(rate - q) <= 4 * math.sqrt(q / exposure[s]), (s, t)

    def test_codes_exact(self):
        # every threshold of every state 1-11, where fl(r * (s + 2)) first
        # reaches v, and both of its neighbours, through the code tables
        base, thr, step, _ = simulate._walk_tables(simulate._WALK_STATES)
        edges = thr[:-1].tolist()
        for s in range(1, simulate._WALK_STATES):
            c = s + 2
            draws = [0.0, math.nextafter(1.0, 0.0)]
            for v in (1, *range(3, c)):
                r = v / c
                while r * c < v:
                    r = math.nextafter(r, 1.0)
                while math.nextafter(r, 0.0) * c >= v:
                    r = math.nextafter(r, 0.0)
                draws += [math.nextafter(r, 0.0), r, math.nextafter(r, 1.0)]
            for r in draws:
                b = base[int(r * simulate._CELLS)]
                code = b + (r >= thr[b])
                assert code == bisect.bisect_right(edges, r), r
                assert step[s][code] == jump_oracle(s, r), (s, r)

    def test_code_cells_checked(self, monkeypatch):
        # 1/12 and 1/13 are 100/156 of a cell apart
        monkeypatch.setattr(simulate, "_CELLS", 100)
        with pytest.raises(AssertionError, match="two thresholds"):
            simulate._walk_tables.__wrapped__(simulate._WALK_STATES)

    @pytest.mark.parametrize("s", range(14))
    def test_chunk_states_match_rule(self, s):
        # from 12 and 13 the chunk is walked by the scalar rule from the start
        draws = make_stream(s).random(1 << 12)
        expect = [s]
        for r in draws.tolist():
            expect.append(jump_oracle(expect[-1], r))
        assert simulate._chunk_states(s, draws).tolist() == expect

    def test_fallback_pinned(self, monkeypatch):
        # a pair table over states 0-6 only: most chunks reach 7 and are
        # walked again by the scalar rule, the rest stay on the table
        monkeypatch.setattr(simulate, "_WALK_STATES", 7)
        walked = []
        scalar_walk = simulate._scalar_walk
        monkeypatch.setattr(simulate, "_scalar_walk",
                            lambda s, draws: walked.append(len(draws)) or scalar_walk(s, draws))
        chunks = sum(-(-check_pinned_chain(key).n_events // simulate._CHUNK)
                     for key in PINNED_CHAIN)
        assert 0 < walked.count(simulate._CHUNK) < chunks
        self.test_growth_path_pinned(monkeypatch)

    def test_state_cap(self, monkeypatch):
        monkeypatch.setattr(simulate, "STATE_CAP", 3)
        with pytest.raises(RuntimeError, match="^front state reached 3; excursions"):
            simulate_front_chain(SimConfig(seed=5, mode="front_chain", t_max=1e4))


class TestOccupation:
    def test_state0_fraction(self, medium_traj):
        occ = empirical_front_distribution(medium_traj, burn_in=100.0)
        p0 = pi0(1e-10).value
        assert abs(occ[0].mean - p0) <= 4 * occ[0].std_err
        assert occ[0].n_samples == 100

    def test_state2_fraction(self, medium_traj):
        occ = empirical_front_distribution(medium_traj, burn_in=100.0)
        expect = 11 * pi0(1e-12).value - 5
        assert abs(occ[2].mean - expect) <= 4 * occ[2].std_err

    def test_fractions_sum_to_one(self, medium_traj):
        occ = empirical_front_distribution(medium_traj, burn_in=100.0)
        assert sum(e.mean for e in occ) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_late_burn_in(self, medium_traj):
        with pytest.raises(ValueError):
            empirical_front_distribution(medium_traj, burn_in=medium_traj.total_time)


class TestResidualTimes:
    def test_unconditional_mean(self, medium_traj):
        rng = make_stream(SEED, 99)
        times = 100.0 + (medium_traj.total_time - 150.0) * rng.random(8000)
        est, excluded = empirical_residual_time(medium_traj, times)
        assert excluded == 0
        assert est.n_samples == 8000
        assert abs(est.mean - 0.5953444665764402) <= 4 * est.std_err

    def test_conditional_means(self, medium_traj):
        rng = make_stream(SEED, 98)
        times = 100.0 + (medium_traj.total_time - 150.0) * rng.random(20000)
        states = front_state_at(medium_traj, times)
        for n, expect in ((0, 0.5), (1, 2.0 / 3.0)):
            sel = times[states == n]
            est, _ = empirical_residual_time(medium_traj, sel)
            assert abs(est.mean - expect) <= 4 * est.std_err, n

    def test_conditional_mean_state2(self, medium_traj):
        rng = make_stream(SEED, 97)
        times = 100.0 + (medium_traj.total_time - 150.0) * rng.random(30000)
        states = front_state_at(medium_traj, times)
        sel = times[states == 2]
        est, _ = empirical_residual_time(medium_traj, sel)
        assert abs(est.mean - float(gamma_residual(2))) <= 4 * est.std_err

    def test_exclusion_counted(self, medium_traj):
        last_inc = medium_traj.jump_times[medium_traj.height_incremented][-1]
        times = np.array([100.0, last_inc + 1e-9])
        est, excluded = empirical_residual_time(medium_traj, times)
        assert excluded == 1
        assert est.n_samples == 1


class TestEstimatorsPinned:
    @pytest.mark.parametrize("key", sorted(PINNED_ESTIMATORS))
    def test_pinned_digest(self, key, pinned_trajectories):
        seed, _, burn_in = key
        traj = pinned_trajectories[key]
        resid = empirical_residual_time(traj, estimator_samples(traj, burn_in, seed))
        assert resid[1] > 0
        outputs = (empirical_front_distribution(traj, burn_in),
                   height_rate_estimate(traj, burn_in), resid)
        digests = tuple(hashlib.sha256(repr(out).encode()).hexdigest() for out in outputs)
        assert digests == PINNED_ESTIMATORS[key]

    def test_sub_ulp_holding_time(self):
        # the second holding time is below ulp(1)/2 and the third rounds the
        # start of its interval one ulp below 1.0, out of order with the
        # second start; the third event's overlap is one ulp, the rest exact
        holds = np.array([1.0, 1e-30, 0.4 * 2.0 ** -52, 1.0])
        ends = np.cumsum(holds)
        assert (ends - holds).tolist() == [0.0, 1.0, 1.0 - 2.0 ** -53, 1.0]
        traj = ChainTrajectory(np.array([0, 1, 2, 1]), holds,
                               np.array([True, True, False, False]), ends, 2.0, 2, 0)
        occ = empirical_front_distribution(traj, 0.0)
        assert [e.mean for e in occ[:2]] == [0.5, 0.5]
        assert 0.0 <= occ[2].mean <= 2.0 ** -52
        est, excluded = empirical_residual_time(traj, np.array([0.0, 0.5, 1.0, 1.5]))
        assert (est.mean, est.n_samples, excluded) == (0.75, 2, 2)


class TestFppLadder:
    def test_reproducible(self):
        cfg = SimConfig(seed=9, mode="fpp_dijkstra", target_height=500)
        a = simulate_fpp_ladder(cfg)
        b = simulate_fpp_ladder(cfg)
        assert np.array_equal(a.infection_times, b.infection_times, equal_nan=True)
        assert a.passage_time() == b.passage_time()

    @pytest.mark.parametrize(("seed", "initial"), sorted(PINNED_H2000))
    def test_pinned_digest(self, seed, initial):
        cfg = SimConfig(seed=seed, mode="fpp_dijkstra", target_height=2000, initial=initial)
        rec = simulate_fpp_ladder(cfg)
        size = PINNED_SIZE
        for a, dtype, shape in ((rec.infection_times, np.float64, (2, size)),
                                (rec.settled, np.bool_, (2, size)),
                                (rec.rail_weights, np.float64, (2, size)),
                                (rec.rung_weights, np.float64, (size,))):
            assert a.dtype == dtype and a.shape == shape and a.flags.c_contiguous
        assert record_digest(rec) == PINNED_H2000[(seed, initial)]

    # slack 0 grows the storage once, from 2001 to 4002 columns; slack -1968
    # starts from 33 columns and doubles them six times, to 2112
    @pytest.mark.parametrize("slack", [0, -1968])
    def test_growth_path_pinned(self, slack, monkeypatch):
        monkeypatch.setattr(simulate, "_SIZE_SLACK", slack)
        for (seed, initial), digest in PINNED_H2000.items():
            cfg = SimConfig(seed=seed, mode="fpp_dijkstra", target_height=2000,
                            initial=initial)
            rec = simulate_fpp_ladder(cfg)
            assert rec.settled.shape[1] > PINNED_SIZE
            assert record_digest(rec, PINNED_SIZE) == digest
            # nothing past the pinned columns was reached
            assert not rec.settled[:, PINNED_SIZE:].any()
            assert np.isinf(rec.infection_times[:, PINNED_SIZE:]).all()
            assert np.isnan(rec.rail_weights[:, PINNED_SIZE:]).all()
            assert np.isnan(rec.rung_weights[PINNED_SIZE:]).all()

    @pytest.mark.parametrize("initial", ["both_nodes", "single_node"])
    def test_edges_drawn_exactly_at_settled_endpoints(self, initial):
        # the relaxation loop draws each edge once, when its first endpoint
        # settles, without checking whether it was drawn before
        for seed, height in ((5, 2000), (2026, 2000), (3, 7), (4, 1)):
            cfg = SimConfig(seed=seed, mode="fpp_dijkstra", target_height=height,
                            initial=initial)
            rec = simulate_fpp_ladder(cfg)
            s = rec.settled
            assert np.array_equal(~np.isnan(rec.rail_weights[:, :-1]), s[:, :-1] | s[:, 1:])
            assert np.isnan(rec.rail_weights[:, -1]).all() and not s[:, -1].any()
            assert np.array_equal(~np.isnan(rec.rung_weights), s[0] | s[1])

    def test_height_one_against_brute_force(self):
        # every sampled edge, exhaustively relaxed by an independent solver
        for seed in range(5):
            cfg = SimConfig(seed=seed, mode="fpp_dijkstra", target_height=1)
            rec = simulate_fpp_ladder(cfg)
            edges = {}
            for y in (0, 1):
                for x in np.nonzero(~np.isnan(rec.rail_weights[y]))[0]:
                    edges[((int(x), y), (int(x) + 1, y))] = rec.rail_weights[y][x]
            for x in np.nonzero(~np.isnan(rec.rung_weights))[0]:
                edges[((int(x), 0), (int(x), 1))] = rec.rung_weights[x]
            dist = brute_force_passage_times(edges, [(0, 0), (0, 1)])
            for y in (0, 1):
                assert rec.infection_times[y, 1] == pytest.approx(dist[(1, y)], abs=1e-12)

    def test_settled_below_horizon(self):
        cfg = SimConfig(seed=3, mode="fpp_dijkstra", target_height=300)
        rec = simulate_fpp_ladder(cfg)
        assert np.all(rec.settled[:, : rec.target_height + 1])
        times = rec.infection_times[rec.settled]
        assert times.max() <= rec.horizon_time

    def test_replicate_estimate(self):
        cfg = SimConfig(seed=11, mode="fpp_dijkstra", target_height=4000, replicates=8)
        est, values = fpp_time_constant(cfg)
        assert len(values) == 8
        assert est.n_samples == 8
        tau = time_constant(1e-10).value
        assert abs(est.mean - tau) <= 6 * est.std_err  # loose: small H has O(1/H) bias

    def test_one_replicate_refused(self, monkeypatch):
        # one replicate has no standard error; no "± 0" is returned
        monkeypatch.setattr(simulate, "simulate_fpp_ladder",
                            lambda *args: pytest.fail("a refused request started a run"))
        cfg = SimConfig(seed=1, mode="fpp_dijkstra", target_height=50)
        with pytest.raises(ValueError, match=r"^fpp_time_constant needs replicates >= 2 "
                                             r"\(a standard error needs two replicates\)$"):
            fpp_time_constant(cfg)

    @pytest.mark.parametrize("jobs, replicates, cpus, workers", [
        (100_000, 2, 8, 2), (4, 5, 2, 2), (3, 5, 8, 3), (2, 3, None, 1)])
    def test_worker_count_bounded(self, jobs, replicates, cpus, workers, monkeypatch):
        # a pool of `jobs` workers forks them all at its first submit; this
        # fake pool records its size and maps serially, so no process starts
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        cfg = SimConfig(seed=11, mode="fpp_dijkstra", target_height=50, replicates=replicates)
        est, values = fpp_time_constant(cfg, jobs)
        assert sizes == ([workers] if workers > 1 else [])
        serial, serial_values = fpp_time_constant(cfg)
        assert est == serial and np.array_equal(values, serial_values)

    def test_single_node_start(self):
        cfg = SimConfig(
            seed=12, mode="fpp_dijkstra", target_height=2000, initial="single_node"
        )
        rec = simulate_fpp_ladder(cfg)
        assert rec.infection_times[0, 0] == 0.0
        assert rec.infection_times[1, 0] > 0.0
        assert rec.passage_time() / 2000 == pytest.approx(
            time_constant(1e-10).value, abs=0.05
        )


class TestFrontOfFpp:
    @pytest.mark.parametrize("key", sorted(PINNED_FRONT))
    def test_pinned_digest(self, key, pinned_front_records):
        assert front_digests(front_of_fpp(pinned_front_records[key])) == PINNED_FRONT[key]

    def test_initial_state_both(self):
        cfg = SimConfig(seed=21, mode="fpp_dijkstra", target_height=100)
        path = front_of_fpp(simulate_fpp_ladder(cfg))
        assert path.start_time == 0.0
        assert path.initial_state == 0
        assert path.initial_height == 0

    def test_lagging_level_configuration(self):
        # levels infected to heights 6 and 4: front 2, height 6
        inf = np.full((2, 10), np.inf)
        inf[0, :7] = np.arange(7) * 1.0
        inf[1, :5] = 0.05 + np.arange(5) * 1.1
        path = front_of_fpp(synthetic_record(inf, horizon=7.0))
        assert (path.times[-1], path.states[-1], path.heights[-1]) == (6.0, 2, 6)

    def test_tied_times_and_fill_in(self):
        # level 1 starts late; (2,0) and (1,1) tie at 1.0, (3,0) and (2,1)
        # at 2.0, and the stable sort keeps level 0 first; (1,0) is a fill-in
        # behind the level-0 maximum; the horizon falls before the last jump,
        # so the stats censor it
        inf = np.full((2, 6), np.inf)
        inf[0, :4] = [0.0, 1.5, 1.0, 2.0]
        inf[1, :4] = [0.25, 1.0, 2.0, 2.5]
        path = front_of_fpp(synthetic_record(inf, horizon=2.2))
        assert (path.start_time, path.end_time) == (0.25, 2.2)
        assert (path.initial_state, path.initial_height) == (0, 0)
        assert path.times.tolist() == [1.0, 1.0, 2.0, 2.0, 2.5]
        assert path.states.tolist() == [2, 1, 2, 1, 0]
        assert path.height_times.tolist() == [1.0, 2.0]
        assert path.heights.tolist() == [2, 3]
        counts, exposure = front_transition_stats(path)
        assert counts == {0: {2: 1}, 2: {1: 2}, 1: {2: 1}}
        assert exposure.tolist() == pytest.approx([0.75, 1.2, 0.0], abs=1e-15)

    def test_both_levels_only_at_last_vertex(self):
        inf = np.full((2, 6), np.inf)
        inf[0, 0], inf[1, 0] = 0.0, 0.5
        path = front_of_fpp(synthetic_record(inf, horizon=0.5))
        assert (path.start_time, path.initial_state, path.initial_height) == (0.5, 0, 0)
        assert len(path.times) == len(path.height_times) == 0
        counts, exposure = front_transition_stats(path)
        assert counts == {} and exposure.tolist() == [0.0]

    def test_stats_horizon_before_start(self):
        # hand-built path: the censored interval would be negative
        path = FrontPath(start_time=1.0, end_time=0.5, initial_state=2, initial_height=3,
                         times=np.array([1.5]), states=np.array([1], dtype=np.int64),
                         height_times=np.array([]), heights=np.array([], dtype=np.int64))
        counts, exposure = front_transition_stats(path)
        assert counts == {} and exposure.tolist() == [0.0, 0.0, 0.0]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_stats_match_loop(self, data):
        # tied jumps, jumps past the horizon, a horizon on a jump or before the
        # start: the same counts and exposure bits as the event-by-event count
        gaps = st.sampled_from([0.0, 1e-17, 0.1, 0.25, 3.0]) | st.floats(0, 10)
        start = data.draw(st.floats(0, 5))
        times = np.cumsum([start] + data.draw(st.lists(gaps, max_size=30)))[1:]
        states = np.array(data.draw(st.lists(st.integers(0, 6), min_size=len(times),
                                             max_size=len(times))), dtype=np.int64)
        end = data.draw(st.sampled_from(times.tolist()) | st.floats(-1, 200)
                        if len(times) else st.floats(-1, 200))
        path = FrontPath(start_time=start, end_time=end, initial_state=data.draw(st.integers(0, 6)),
                         initial_height=0, times=times, states=states,
                         height_times=np.array([]), heights=np.array([], dtype=np.int64))
        counts, exposure = front_transition_stats(path)
        loop_counts, loop_exposure = transition_stats_loop(path)
        assert counts == loop_counts and exposure.dtype == np.float64
        assert exposure.tobytes() == np.array(loop_exposure).tobytes()

    def test_never_both_levels(self):
        inf = np.full((2, 5), np.inf)
        inf[0, :4] = [0.0, 1.0, 2.0, 3.0]
        with pytest.raises(ValueError, match="never infected both levels"):
            front_of_fpp(synthetic_record(inf, horizon=3.0))

    def test_single_node_discards_pre_merge(self):
        cfg = SimConfig(
            seed=22, mode="fpp_dijkstra", target_height=3000, initial="single_node"
        )
        rec = simulate_fpp_ladder(cfg)
        path = front_of_fpp(rec)
        assert path.start_time == rec.infection_times[1][rec.settled[1]].min()
        # post-merge occupation should be near the stationary law
        counts, exposure = front_transition_stats(path)
        occ0 = exposure[0] / exposure.sum()
        assert abs(occ0 - pi0(1e-10).value) <= 0.05

    def test_transition_rates_match_generator(self):
        cfg = SimConfig(seed=23, mode="fpp_dijkstra", target_height=20000)
        path = front_of_fpp(simulate_fpp_ladder(cfg))
        counts, exposure = front_transition_stats(path)
        # state 2: rates 2 -> 1 and 2 -> 3 should be ~2 and ~1 (4 sigma Poisson)
        row = q_row(2).entries
        for target in (1, 3, 0):
            k = counts[2].get(target, 0)
            rate = k / exposure[2]
            se = math.sqrt(max(k, 1)) / exposure[2]
            assert abs(rate - row[target]) <= 4 * se, target
        ratio = counts[2][1] / counts[2][3]
        assert 1.5 < ratio < 2.7


class TestStreams:
    def test_distinct_replicates(self):
        a = make_stream(7, 0).random(4)
        b = make_stream(7, 1).random(4)
        assert not np.array_equal(a, b)

    def test_same_key_same_stream(self):
        assert np.array_equal(make_stream(7, 3).random(8), make_stream(7, 3).random(8))

    def test_exponential_draws_pinned(self):
        # every seeded digest in the suite rests on these bytes; numpy picks a
        # SIMD path for log1p by CPU, and with its AVX-512 paths disabled
        # about 7% of the draws move by 1 ulp
        e = -np.log1p(-make_stream(7).random(2 ** 16))
        assert hashlib.sha256(e.tobytes()).hexdigest() == (
            "5d60a4f0e5b8e9c9e50b6dbb83f3df62d9be24ae2cb2637620472475fe7edd1d"), (
            "-log1p(-u) is not the AVX-512 result the pins were recorded with: numpy "
            "picks log1p's SIMD path by CPU (numpy.show_runtime() lists the features), so "
            "every seeded digest, dump pin and validate-full byte check differs here too")
