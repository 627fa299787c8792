"""Monte Carlo engines for ladder first-passage percolation.

Two independent simulators:

* `simulate_front_chain` -- exact Gillespie sampling of the front chain from
  its generator (holding time Exp(n+2) in state n, categorical jump
  proportional to the `q_row` rates).
* `simulate_fpp_ladder` -- lazy-Dijkstra shortest-path expansion over the raw
  ladder with Exp(1) edge weights sampled on first relaxation.  It never
  consults the generator, so reconstructing the front from its output
  (`front_of_fpp`) validates the chain model rather than assuming it.

Randomness: streams are Philox counter-based generators keyed by hashing
(seed, replicate_index) through numpy's SeedSequence, so replicates are
independent and results are reproducible regardless of scheduling.
Exponentials are drawn by inverse CDF, -log1p(-U) with U uniform on [0, 1).
"""

from __future__ import annotations

import functools
import math
import os
from array import array
from dataclasses import dataclass
from heapq import heappop, heappush

from ._deferred import DeferredNumpy

np = DeferredNumpy(globals())

__all__ = [
    "SimConfig",
    "ChainTrajectory",
    "FppRecord",
    "FrontPath",
    "SimEstimate",
    "make_stream",
    "simulate_front_chain",
    "simulate_fpp_ladder",
    "fpp_time_constant",
    "empirical_front_distribution",
    "empirical_residual_time",
    "residual_sample_times",
    "front_state_at",
    "height_rate_estimate",
    "front_of_fpp",
    "front_transition_stats",
]

STATE_CAP = 10 ** 6  # front state this large signals a bug, not an excursion
_CHUNK = 1 << 16
_SIZE_SLACK = 64  # ladder columns allocated past the target height
# mean events of the front chain per unit time, sum_n pi_n (n + 2) = 2.7115,
# and per height increment, that times tau = 1.8512; they presize its storage
_EVENTS_PER_TIME = 2.712
_EVENTS_PER_STEP = 1.852
_PRESIZE_CAP = 1 << 23  # events presized at most (210 MB); past it, doubling
_WALK_STATES = 12  # states the pair table walks (at most 15: a pair packs into a byte)
_CELLS = 360360  # lcm(3, ..., 13): the cells a jump draw's code is read from


def make_stream(seed: int, replicate: int = 0) -> np.random.Generator:
    """Philox stream for (seed, replicate); distinct replicates never collide."""
    key = np.random.SeedSequence((int(seed), int(replicate))).generate_state(2, np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class SimConfig:
    """Simulation request: exactly one of target_height / t_max must be set."""

    seed: int
    mode: str  # 'front_chain' | 'fpp_dijkstra'
    target_height: int | None = None
    t_max: float | None = None
    initial: str = "both_nodes"  # or 'single_node'
    replicates: int = 1
    burn_in: float = 100.0

    def __post_init__(self):
        if self.mode not in ("front_chain", "fpp_dijkstra"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.initial not in ("both_nodes", "single_node"):
            raise ValueError(f"unknown initial condition {self.initial!r}")
        if (self.target_height is None) == (self.t_max is None):
            raise ValueError("set exactly one of target_height / t_max")
        if self.target_height is not None and self.target_height < 1:
            raise ValueError("target_height must be >= 1")
        if self.t_max is not None and not 0 < self.t_max < np.inf:
            raise ValueError("t_max must be finite and > 0")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if not 0 <= self.burn_in < np.inf:
            raise ValueError("burn_in must be finite and >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class ChainTrajectory:
    """Front-chain path from state 0 at time 0, as parallel event arrays.

    Event i: the chain sat in `states[i]` for `holding_times[i]`, then jumped
    at `jump_times[i]` (the running sum of the holding times);
    `height_incremented[i]` marks jumps that raised the infection height
    (exactly the n -> n+1 transitions, including 0 -> 1).
    """

    states: np.ndarray
    holding_times: np.ndarray
    height_incremented: np.ndarray
    jump_times: np.ndarray
    total_time: float
    final_height: int
    final_state: int

    @property
    def n_events(self) -> int:
        return len(self.states)


def _expected_events(cfg: SimConfig) -> int:
    """Storage to reserve for a chain run: the mean event count plus 1% and
    1024, capped at `_PRESIZE_CAP`; a run that needs more grows by doubling."""
    if cfg.t_max is not None:
        mean = _EVENTS_PER_TIME * cfg.t_max
    else:
        mean = _EVENTS_PER_STEP * cfg.target_height
    return int(min(1.01 * mean + 1024, _PRESIZE_CAP))


def simulate_front_chain(cfg: SimConfig, replicate: int = 0) -> ChainTrajectory:
    """Gillespie path of the front chain started at state 0.

    Runs until total time exceeds cfg.t_max (the straddling holding interval
    is kept in full) or until cfg.target_height increments have occurred.

    Event k of a chunk consumes the k-th holding draw and the k-th jump draw
    whatever the state, so `_chunk_states` walks the states of a whole chunk
    first.  numpy then takes the holding times (correctly rounded division,
    as in scalar code), the clock (a sequential cumsum seeded with the
    carried time, the same additions as `t += dt`), the height increments
    and the first event that meets the stopping rule, and drops the rest of
    the chunk.  The clock is the trajectory's `jump_times`.

    The walk is exact without a per-event float rule.  From state s >= 1 the
    jump rule compares fl(r * (s + 2)) with 1, 3, 4, ..., s + 1, and fl(r * c)
    does not decrease with r, so the next state is a step function of the
    draw r.  Over states 1..11 its thresholds, the smallest doubles r with
    fl(r * c) >= v, are 53 distinct doubles; they cut [0, 1) into 54 codes,
    and a draw's code fixes its next state from every state below 12.  numpy
    reads the codes: the cell int(r * 360360) holds at most one threshold
    (the table build checks this), so code = base[cell] + (r >= thr[base[cell]]),
    where base[cell] counts the thresholds in lower cells.  Python then walks
    two events per step, `p = tab[p][c]`: p packs the states after both
    events and c the two codes, and `tab[p]` is the one row of 54 x 54 small
    ints for p's last state.  A state of 12 or more packs to a sentinel that
    the walk never leaves; that chunk is walked again by the scalar rule, as
    is a chunk that starts at 12 or more.
    """
    if cfg.mode != "front_chain":
        raise ValueError("cfg.mode must be 'front_chain'")
    rng = make_stream(cfg.seed, replicate)
    cap = _expected_events(cfg)
    store = [np.empty(cap, dtype) for dtype in (np.int64, np.float64, np.bool_, np.float64)]
    n_ev = 0
    t = 0.0
    s = 0
    height = 0
    while True:
        e_hold = -np.log1p(-rng.random(_CHUNK))
        visited = _chunk_states(s, rng.random(_CHUNK))
        s = int(visited[-1])
        before, after = visited[:-1], visited[1:]
        up = after == before + 1  # every other jump lands below the state it left
        dt = e_hold / (before + 2)
        clock = dt.copy()
        clock[0] += t
        np.cumsum(clock, out=clock)
        # index of the event that ends the run; _CHUNK if it is not in this chunk
        if cfg.t_max is not None:
            stop = int(np.searchsorted(clock, cfg.t_max, side="right"))
        else:
            ups = np.flatnonzero(up)
            need = cfg.target_height - height
            stop = int(ups[need - 1]) if need <= len(ups) else _CHUNK
        keep = min(stop + 1, _CHUNK)
        over = after[:keep] >= STATE_CAP
        if over.any():
            raise RuntimeError(
                f"front state reached {after[over.argmax()]}; excursions this large are "
                "impossible for a working generator"
            )
        if n_ev + keep > cap:
            cap = max(2 * cap, n_ev + keep)
            store = [_grown(a, n_ev, cap) for a in store]
        for a, chunk in zip(store, (before, dt, up, clock)):
            a[n_ev:n_ev + keep] = chunk[:keep]
        n_ev += keep
        t = float(clock[keep - 1])
        height += int(np.count_nonzero(up[:keep]))
        if stop < _CHUNK:
            break
    states, holds, incr, jumps = (a[:n_ev] for a in store)
    return ChainTrajectory(states, holds, incr, jumps, t, height, int(after[keep - 1]))


def _scalar_walk(s: int, draws) -> list[int]:
    """The jump rule: s, then the state after each draw in turn."""
    path = [s]
    push = path.append
    for r in draws:
        if s:
            r *= s + 2
            if r < 1.0:
                s += 1
            elif r < 3.0:
                s -= 1
            else:
                s = int(r - 3.0)
        else:
            s = 1
        push(s)
    return path


def _threshold(v: int, c: int) -> float:
    """The smallest double r with fl(r * c) >= v; fl(r * c) grows with r."""
    r = v / c
    while r * c >= v:
        r = math.nextafter(r, 0.0)
    return math.nextafter(r, 1.0)


@functools.cache
def _walk_tables(n_states: int):
    """(base, thr, step, tab) for the walk of `simulate_front_chain` over
    states 0..n_states-1, built on first use.

    thr holds the thresholds of states 1..n_states-1 in order, then 2.0, so
    a draw's code k (the thresholds at or below it) indexes thr; base[cell]
    counts the thresholds in lower cells; step[s][k] is the state after s
    on a draw of code k.  From p's last state, draws of codes k1 then k2
    lead to s1 then s2, and tab[p][k1 * len(thr) + k2] is s1 * n_states + s2,
    or the sentinel n_states ** 2 once a state reaches n_states; the
    sentinel's row holds only the sentinel.
    """
    thr = sorted({_threshold(v, c) for c in range(3, n_states + 2) for v in (1, *range(3, c))})
    cells = [int(r * _CELLS) for r in thr]
    if len(set(cells)) < len(cells):
        raise AssertionError("a code cell holds two thresholds")
    base = np.repeat(np.arange(len(thr) + 1, dtype=np.int8),
                     np.diff([0, *(c + 1 for c in cells), _CELLS]))
    lows = [0.0, *thr]  # the lowest draw of each code
    step = [[_scalar_walk(s, [r])[1] for r in lows] for s in range(n_states)]
    sentinel = n_states ** 2
    past = [n_states] * len(lows)  # the pair after a state past the table
    rows = [[s1 * n_states + s2 if s2 < n_states else sentinel
             for s1 in step[s] for s2 in (step[s1] if s1 < n_states else past)]
            for s in range(n_states)]
    tab = [rows[p % n_states] for p in range(sentinel)] + [[sentinel] * len(lows) ** 2]
    return base, np.array([*thr, 2.0]), step, tab


def _chunk_states(s: int, draws: np.ndarray) -> np.ndarray:
    """s and the state after each jump draw (an even count), as int64."""
    n = _WALK_STATES
    base, thr, _, tab = _walk_tables(n)
    if s < n:
        b = base[(draws * _CELLS).astype(np.intp)]
        codes = (b + (draws >= thr[b])).astype(np.intp)
        pairs = codes[0::2] * len(thr) + codes[1::2]
        p = s
        packed = [p := tab[p][c] for c in memoryview(pairs)]
        if p < n * n:  # every state stayed below n
            visited = np.empty(len(draws) + 1, np.int64)
            visited[0] = s
            visited[1::2], visited[2::2] = np.divmod(np.frombuffer(bytes(packed), np.uint8), n)
            return visited
    return np.fromiter(_scalar_walk(s, memoryview(draws)), np.int64, len(draws) + 1)


def _grown(a: np.ndarray, n: int, cap: int) -> np.ndarray:
    out = np.empty(cap, a.dtype)
    out[:n] = a[:n]
    return out


# ---------------------------------------------------------------------------
# Raw first-passage percolation by lazy Dijkstra.


@dataclass
class FppRecord:
    """Settled infection times of the ladder up to (at least) target_height.

    infection_times[y, x] is T[(x, y)] where settled, the tentative time
    where reached but not settled, and +inf elsewhere.  Edge weights
    are sampled lazily and stored by their lower endpoint: rail_weights[y, x]
    is the rail (x,y)-(x+1,y), rung_weights[x] the rung (x,0)-(x,1); NaN
    marks edges never relaxed.  Every vertex with infection time <=
    horizon_time is settled (Dijkstra settles in nondecreasing time order),
    so reconstructions are exact up to that horizon.

    All four arrays are C-contiguous: infection_times and rail_weights are
    float64 and settled is bool, each of shape (2, size); rung_weights is
    float64 of shape (size,).  `simulate_fpp_ladder` builds them once, from
    its flat working storage, when the run ends.
    """

    infection_times: np.ndarray
    settled: np.ndarray
    horizon_time: float
    target_height: int
    initial: str
    rail_weights: np.ndarray
    rung_weights: np.ndarray

    def passage_time(self) -> float:
        """First time the infection reaches target_height (min over levels)."""
        h = self.target_height
        return float(min(self.infection_times[0, h], self.infection_times[1, h]))


def _by_level(flat: array | bytearray, dtype) -> np.ndarray:
    """Reorder storage indexed by v = 2x + y, in place, into a C-contiguous
    (2, size) array over the same buffer.

    Level 1 is copied out (the one temporary, half the buffer).  Level 0 is
    then compacted forward in blocks [x, 2x), whose sources [2x, 4x) lie past
    every entry written so far, and level 1 is written back behind it.
    """
    a = np.frombuffer(flat, dtype=dtype)
    size = len(a) // 2
    level1 = a[1::2].copy()
    x = 1
    while x < size:
        hi = min(2 * x, size)
        a[x:hi] = a[2 * x:2 * hi:2]
        x = hi
    a[size:] = level1
    return a.reshape(2, size)


def _exp_draws(rng: np.random.Generator) -> list[float]:
    """The stream's next `_CHUNK` Exp(1) draws, as Python floats."""
    return (-np.log1p(-rng.random(_CHUNK))).tolist()


def simulate_fpp_ladder(cfg: SimConfig, replicate: int = 0) -> FppRecord:
    """Multi-source Dijkstra over the ladder with Exp(1) weights drawn on
    first relaxation.

    Correctness with lazy sampling: any path escaping the settled region
    passes a frontier vertex whose tentative distance already exceeds every
    settled distance, and the unsampled edges beyond it are nonnegative.
    Heap ties are broken by vertex order (height, then level); ties have
    probability zero under continuous weights.

    While it runs, vertex (x, y) is the flat index v = 2x + y: tentative
    times and rail weights live in `array('d')` buffers indexed by v, rung
    weights in one indexed by x, the settled flags in a `bytearray`, and heap
    entries are (time, v), which orders ties as (time, x, y) would.  Growth
    extends the buffers in place.  At the end each buffer is reordered once,
    in place, into the (2, size) layout of `FppRecord`, whose arrays are
    numpy views of these buffers.
    """
    if cfg.mode != "fpp_dijkstra":
        raise ValueError("cfg.mode must be 'fpp_dijkstra'")
    if cfg.target_height is None:
        raise ValueError("fpp_dijkstra needs target_height")
    H = cfg.target_height
    rng = make_stream(cfg.seed, replicate)
    buf = _exp_draws(rng)
    bp = 0

    size = H + 1 + _SIZE_SLACK
    inf_run = array("d", [np.inf])
    nan_run = array("d", [np.nan])
    rail = nan_run * (2 * size)
    rung = nan_run * size
    dist = inf_run * (2 * size)
    settled = bytearray(2 * size)

    heap = [(0.0, 0)]
    dist[0] = 0.0
    if cfg.initial == "both_nodes":
        dist[1] = 0.0
        heap.append((0.0, 1))
    top = 2 * (H + 1)  # v < top  <=>  x <= H
    lim = 2 * size - 2  # v >= lim  <=>  x + 1 >= size
    remaining = top
    while remaining:
        d, v = heappop(heap)
        if settled[v]:
            continue
        settled[v] = 1
        if v < top:
            remaining -= 1
        if v >= lim:
            rail.extend(nan_run * (2 * size))
            rung.extend(nan_run * size)
            dist.extend(inf_run * (2 * size))
            settled.extend(bytes(2 * size))
            size *= 2
            lim = 2 * size - 2
        # An edge is drawn when its first endpoint settles, in the order up
        # rail, down rail, rung; its other endpoint, settling later, finds
        # this one settled and never relaxes it again.
        u = v + 2
        if not settled[u]:
            if bp == _CHUNK:
                buf = _exp_draws(rng)
                bp = 0
            w = rail[v] = buf[bp]
            bp += 1
            nd = d + w
            if nd < dist[u]:
                dist[u] = nd
                heappush(heap, (nd, u))
        if v >= 2:
            u = v - 2
            if not settled[u]:
                if bp == _CHUNK:
                    buf = _exp_draws(rng)
                    bp = 0
                w = rail[u] = buf[bp]
                bp += 1
                nd = d + w
                if nd < dist[u]:
                    dist[u] = nd
                    heappush(heap, (nd, u))
        u = v ^ 1
        if not settled[u]:
            if bp == _CHUNK:
                buf = _exp_draws(rng)
                bp = 0
            w = rung[v >> 1] = buf[bp]
            bp += 1
            nd = d + w
            if nd < dist[u]:
                dist[u] = nd
                heappush(heap, (nd, u))
    return FppRecord(
        infection_times=_by_level(dist, np.float64),
        settled=_by_level(settled, np.bool_),
        horizon_time=d,  # the last vertex settled
        target_height=H,
        initial=cfg.initial,
        rail_weights=_by_level(rail, np.float64),
        rung_weights=np.frombuffer(rung, dtype=np.float64),
    )


@dataclass(frozen=True)
class SimEstimate:
    """Point estimate with standard error; n_samples counts batches or replicates."""

    mean: float
    std_err: float
    n_samples: int
    quantity: str

    def __post_init__(self):
        if self.std_err < 0:
            raise ValueError("std_err must be >= 0")


def _replicate_passage(args) -> tuple[int, float]:
    cfg, rep = args
    return rep, simulate_fpp_ladder(cfg, replicate=rep).passage_time() / cfg.target_height


def fpp_time_constant(cfg: SimConfig, jobs: int = 1) -> tuple[SimEstimate, np.ndarray]:
    """Replicate estimate of tau from T_H / H, in min(jobs, replicates, CPU count)
    processes; returns (estimate, per-replicate values), the same for any count."""
    if cfg.mode != "fpp_dijkstra":
        raise ValueError("cfg.mode must be 'fpp_dijkstra'")
    if cfg.replicates < 2:
        raise ValueError("fpp_time_constant needs replicates >= 2 (a standard error "
                         "needs two replicates)")
    args = [(cfg, r) for r in range(cfg.replicates)]
    workers = min(jobs, cfg.replicates, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            out = sorted(pool.map(_replicate_passage, args))
    else:
        out = [_replicate_passage(a) for a in args]
    values = np.array([v for _, v in out])
    mean = float(values.mean())
    se = float(values.std(ddof=1) / np.sqrt(len(values)))
    return SimEstimate(mean, se, len(values), "tau"), values


# ---------------------------------------------------------------------------
# Estimators over a chain trajectory.


_BATCHES = 100  # equal time slices behind each batch-means standard error


def _batch_edges(lo: float, hi: float) -> np.ndarray:
    if not hi > lo:
        raise ValueError("empty averaging window")
    return lo + (hi - lo) * np.arange(_BATCHES + 1) / _BATCHES


def empirical_front_distribution(traj: ChainTrajectory, burn_in: float) -> list[SimEstimate]:
    """Time-weighted occupation fraction per state over [burn_in, total_time].

    Standard errors come from batch means over 100 equal time slices;
    holding times are correlated, so plain per-event variances would be
    optimistic.

    Batch b takes the events that end after its lo, up to the first one
    that ends at or after its hi and starts there too.  One `bincount` adds,
    per state and in event order, the overlap of each event's
    [end - holding time, end] with [lo, hi), clipped at 0.
    """
    if burn_in >= traj.total_time:
        raise ValueError("burn_in must be < total_time")
    ends, holds, states = traj.jump_times, traj.holding_times, traj.states
    n_states = int(states.max()) + 1
    edges = _batch_edges(burn_in, traj.total_time)
    first = np.searchsorted(ends, edges[:-1], side="right")
    stop = np.searchsorted(ends, edges[1:], side="left")
    for b, hi in enumerate(edges[1:]):  # every event before stop[b] starts before hi
        while stop[b] < len(ends) and ends[stop[b]] - holds[stop[b]] < hi:
            stop[b] += 1
    width = int((stop - first).max())
    overlap_buf, start_buf = np.empty(width), np.empty(width)
    occ = np.zeros((_BATCHES, n_states))
    for b in range(_BATCHES):
        lo, hi = edges[b], edges[b + 1]
        i0, i1 = first[b], stop[b]
        overlap, start = overlap_buf[:i1 - i0], start_buf[:i1 - i0]
        np.subtract(ends[i0:i1], holds[i0:i1], out=start)
        np.minimum(ends[i0:i1], hi, out=overlap)
        overlap -= np.maximum(start, lo, out=start)
        np.maximum(overlap, 0.0, out=overlap)
        occ[b] = np.bincount(states[i0:i1], weights=overlap, minlength=n_states) / (hi - lo)
    means = occ.mean(axis=0)
    ses = occ.std(axis=0, ddof=1) / np.sqrt(_BATCHES)
    return [
        SimEstimate(float(means[s]), float(ses[s]), _BATCHES, f"pi_{s}")
        for s in range(n_states)
    ]


def height_rate_estimate(traj: ChainTrajectory, burn_in: float) -> SimEstimate:
    """Height increments per unit time (the percolation rate 1/tau), batch means.

    A batch counts the flagged events among those that jump inside it; the
    increment times are a subsequence of the sorted jump times, so no mask
    of them is built.
    """
    if burn_in >= traj.total_time:
        raise ValueError("burn_in must be < total_time")
    edges = _batch_edges(burn_in, traj.total_time)
    k = np.searchsorted(traj.jump_times, edges)
    counts = np.array([np.count_nonzero(traj.height_incremented[k[b]:k[b + 1]])
                       for b in range(_BATCHES)])
    rates = counts / np.diff(edges)
    return SimEstimate(
        float(rates.mean()),
        float(rates.std(ddof=1) / np.sqrt(_BATCHES)),
        _BATCHES,
        "inv_tau",
    )


def empirical_residual_time(
    traj: ChainTrajectory, sample_times: np.ndarray
) -> tuple[SimEstimate, int]:
    """Mean waiting time from each sample time to the next height increment.

    Sample times whose next increment lies beyond the trajectory end are
    excluded; the count of exclusions is returned alongside the estimate.
    Sample times spaced well beyond the chain's O(1) mixing time are
    effectively independent, so the plain standard error is reported.

    Each sample starts at the first event that jumps after it (searched in
    sorted order, which keeps the search in cache) and steps forward, all
    samples at once, to the first flagged event or past the last event.
    """
    sample_times = np.asarray(sample_times, dtype=float)
    flags, n_events = traj.height_incremented, traj.n_events
    order = np.argsort(sample_times)
    nxt = np.empty(len(sample_times), np.intp)
    nxt[order] = np.searchsorted(traj.jump_times, sample_times[order], side="right")
    pending = np.flatnonzero(nxt < n_events)
    while pending.size:
        pending = pending[~flags[nxt[pending]]]
        nxt[pending] += 1
        pending = pending[nxt[pending] < n_events]
    ok = nxt < n_events
    resid = traj.jump_times[nxt[ok]] - sample_times[ok]
    n = len(resid)
    if n == 0:
        raise ValueError("no sample time has a following height increment")
    se = float(resid.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return SimEstimate(float(resid.mean()), se, n, "mean_residual"), int(len(sample_times) - n)


def residual_sample_times(traj: ChainTrajectory, burn_in: float, n: int, seed: int) -> np.ndarray:
    """n uniform sample times from stream (seed, 1) over [burn_in, total_time - 50),
    so that nearly every one has a following height increment."""
    span = traj.total_time - burn_in - 50.0
    if span <= 0:
        raise ValueError("run too short for residual sampling")
    return burn_in + span * make_stream(seed, 1).random(n)


def front_state_at(traj: ChainTrajectory, times: np.ndarray) -> np.ndarray:
    """Chain state at each time (times must lie in [0, total_time))."""
    times = np.asarray(times, dtype=float)
    if times.size and (times.min() < 0 or times.max() >= traj.jump_times[-1]):
        raise ValueError("times must lie within the trajectory")
    idx = np.searchsorted(traj.jump_times, times, side="right")
    return traj.states[idx]


# ---------------------------------------------------------------------------
# Front/height reconstruction from raw percolation output.


@dataclass
class FrontPath:
    """Piecewise-constant front and height processes rebuilt from infection
    times, valid on [start_time, end_time] (end = record horizon).

    For a single-node start the segment before both levels are infected is
    discarded; start_time is then the first level-1 infection time.
    """

    start_time: float
    end_time: float
    initial_state: int
    initial_height: int
    times: np.ndarray  # front jump times
    states: np.ndarray  # front state after each jump
    height_times: np.ndarray  # height increment times
    heights: np.ndarray  # height after each increment


def front_of_fpp(record: FppRecord) -> FrontPath:
    """Rebuild F_t = |N^(0)_t - N^(1)_t| and N_t from settled infection times.

    Only infections that raise a level's running maximum move the front;
    later fill-ins of skipped vertices are ignored.
    """
    t0 = record.infection_times[0][record.settled[0]]
    x0 = np.nonzero(record.settled[0])[0]
    t1 = record.infection_times[1][record.settled[1]]
    x1 = np.nonzero(record.settled[1])[0]
    times = np.concatenate([t0, t1])
    xs = np.concatenate([x0, x1])
    level = np.concatenate([np.zeros(len(x0), np.int8), np.ones(len(x1), np.int8)])
    order = np.argsort(times, kind="stable")

    cur = [-1, -1]
    f_times, f_states = [], []
    h_times, h_vals = [], []
    start = None
    init_state = init_height = 0
    for i in order:
        t, x, y = float(times[i]), int(xs[i]), int(level[i])
        if x <= cur[y]:
            continue
        prev_n = max(cur)
        cur[y] = x
        n_t = max(cur)
        if start is None:
            if cur[0] >= 0 and cur[1] >= 0:
                start = t
                init_state = abs(cur[0] - cur[1])
                init_height = n_t
            continue
        f_times.append(t)
        f_states.append(abs(cur[0] - cur[1]))
        if n_t > prev_n:
            h_times.append(t)
            h_vals.append(n_t)
    if start is None:
        raise ValueError("record never infected both levels")
    return FrontPath(
        start_time=start,
        end_time=record.horizon_time,
        initial_state=init_state,
        initial_height=init_height,
        times=np.array(f_times),
        states=np.array(f_states, dtype=np.int64),
        height_times=np.array(h_times),
        heights=np.array(h_vals, dtype=np.int64),
    )


def front_transition_stats(path: FrontPath):
    """(counts, exposure): jump counts per (from, to) pair and time spent per
    state, censored at the path horizon.  counts[s][s'] / exposure[s] estimates
    the generator rate q(s, s').

    The jumps kept are those at or before end_time (the jump times are
    nondecreasing); the state in force at the last of them adds the censored
    time up to end_time, if any.
    """
    n_states = int(max(path.initial_state, path.states.max() if len(path.states) else 0)) + 1
    k = int(np.searchsorted(path.times, path.end_time, side="right"))
    visited = np.concatenate(([path.initial_state], path.states[:k]))
    held = np.diff(path.times[:k], prepend=path.start_time)
    counts, exposure = _transition_stats(visited[:-1], visited[1:], held, n_states)
    last = path.times[k - 1] if k else path.start_time
    exposure[visited[-1]] += max(0.0, path.end_time - last)
    return counts, exposure


def _transition_stats(before: np.ndarray, after: np.ndarray, held: np.ndarray,
                      n_states: int):
    """(counts, exposure) of jumps before[i] -> after[i], each made after
    holding held[i] in before[i]; states lie below n_states.

    The pairs are counted by one bincount of their codes before * n_states +
    after.  The exposure bincount adds each state's holding times in event
    order, as a running `exposure[s] += held` would (numpy types it int64
    when there are no events, hence the cast).
    """
    pairs = np.bincount(before * n_states + after)
    codes = np.flatnonzero(pairs)
    counts: dict[int, dict[int, int]] = {}
    for code, k in zip(codes.tolist(), pairs[codes].tolist()):
        s, t = divmod(code, n_states)
        counts.setdefault(s, {})[t] = k
    exposure = np.bincount(before, weights=held, minlength=n_states)
    return counts, exposure.astype(np.float64, copy=False)
