"""Reference forms that only the tests use: the placement objective ``f`` itself, and a 2-D power grid
that does not assume the constraint reduction."""

import math
from typing import Sequence

from pinchrelay.model import ChannelGains, SystemConfig, UePosition


def pin_objective(config: SystemConfig, ue: UePosition, x_m: float) -> float:
    """Placement objective f(x) = exp(-alpha x) / ((x_ue - x)^2 + y_ue^2 + d^2), proportional to |g2|^2."""
    dx = ue.x_ue_m - x_m
    c_const = ue.y_ue_m * ue.y_ue_m + config.waveguide_height_m * config.waveguide_height_m
    return math.exp(-config.waveguide_attenuation_per_m * x_m) / (dx * dx + c_const)


def grid_power_min_2d(
    gains: ChannelGains,
    config: SystemConfig,
    p1_grid: Sequence[float],
    beta_sq_grid: Sequence[float],
) -> tuple[float, float, float]:
    """2-D grid minimizer over (P1, beta^2), feasibility checked pointwise.

    Does not assume the SNR constraint is active: every grid pair whose SNR
    meets the target competes.  Cross-multiplied feasibility test avoids the
    constraint-reduction algebra entirely.
    """
    import numpy as np

    p1 = np.asarray(p1_grid, dtype=float).reshape(-1, 1)
    beta = np.asarray(beta_sq_grid, dtype=float).reshape(1, -1)
    if p1.size == 0 or beta.size == 0:
        raise ValueError("empty 2-D power grid")
    gamma0 = config.snr_target_linear
    signal = p1 * beta * gains.g1_sq * gains.g2_sq
    noise = gains.sigma_ue_sq_w + beta * gains.g2_sq * gains.sigma_r_sq_w
    feasible = signal >= gamma0 * noise
    if not feasible.any():
        raise ValueError("no feasible point on the 2-D power grid")
    cost = config.pa_efficiency * p1 + beta * (p1 * gains.g1_sq + gains.sigma_r_sq_w)
    cost = np.where(feasible, cost, np.inf)
    i, j = np.unravel_index(int(np.argmin(cost)), cost.shape)
    return float(p1[i, 0]), float(beta[0, j]), float(cost[i, j])
