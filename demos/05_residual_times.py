"""Residual times: how long until the infection climbs one more rung?

Conditioned on the front state n, the answer is exact:

    gamma_0 = 1/2 (race of two exponentials), and for n >= 1 the first-step
    recursion telescopes to gamma_n - gamma_{n-1} = 1/(n+2)!,
    i.e. gamma_n = sum_{j<=n+2} 1/j! - 2.

Averaged over the stationary front, T = sum pi_n gamma_n ~ 0.5953 -- less
than the time constant 0.6827.  A Gillespie run sampled at uniform times
reproduces both the conditional and the unconditional means.
"""

from itertools import islice

from ladder_fpp import (
    SimConfig,
    avg_residual_time,
    empirical_residual_time,
    front_state_at,
    gamma_residual,
    simulate_front_chain,
    time_constant,
)
from ladder_fpp.constants import gamma_residual_terms
from ladder_fpp.simulate import residual_sample_times

print("gamma_n by recursion and closed form (exact rationals):")
for n, r in enumerate(islice(gamma_residual_terms(), 6)):
    c = gamma_residual(n)
    print(f"  gamma_{n} = {r} = {float(r):.10f}   closed form agrees: {r == c}")

T = avg_residual_time(1e-12)
tau = time_constant(1e-12)
print(f"\nT = {T.value:.12f} ± {T.err:.1e}   (tau = {tau.value:.12f}; T < tau)")

cfg = SimConfig(seed=99, mode="front_chain", t_max=2e5)
traj = simulate_front_chain(cfg)
times = residual_sample_times(traj, 100.0, 20000, 99)  # over [100, total_time - 50)

est, excluded = empirical_residual_time(traj, times)
print(f"\nMonte Carlo over {est.n_samples} uniform sample times "
      f"({excluded} excluded):")
print(f"  mean residual = {est.mean:.5f} ± {est.std_err:.1e}")

states = front_state_at(traj, times)
for n in range(3):
    cond, _ = empirical_residual_time(traj, times[states == n])
    print(f"  given F = {n}: {cond.mean:.5f} ± {cond.std_err:.1e}   "
          f"(gamma_{n} = {float(gamma_residual(n)):.5f})")
