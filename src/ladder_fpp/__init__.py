"""First-passage percolation on the ladder graph N x {0,1} with Exp(1) edge
weights: exact time constant, stationary front distribution, and mean
residual time, each validated against independent oracles (truncated linear
algebra and Monte Carlo simulation).
"""

from .bessel import (
    BoundedReal,
    bessel_j,
    bessel_y,
    upsilon,
    upsilon_analytic,
)
from .chain import (
    FrontDistribution,
    QRow,
    front_distribution,
    pi,
    pi0,
    q_row,
    seq,
    stationary_truncated_solve,
)
from .constants import (
    HeadlineConstants,
    avg_residual_time,
    avg_residual_time_direct,
    gamma_residual,
    headline_constants,
    time_constant,
)
from .simulate import (
    ChainTrajectory,
    FppRecord,
    FrontPath,
    SimConfig,
    SimEstimate,
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

__version__ = "0.1.0"
