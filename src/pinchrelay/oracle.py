"""Brute-force verification of the closed forms.

The placement check exhaustively grids the waveguide; the power check grids
the BS power along the active-SNR-constraint curve (with an optional 2-D grid
that does not assume the constraint reduction).  All objective formulas here
are written out inline, independently of the code paths under test.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import SPEED_OF_LIGHT_M_S, ChannelGains, SystemConfig, UePosition, link_out_of_range
from .optimize import optimal_pin_position, optimal_power_allocation

log = logging.getLogger(__name__)

DEFAULT_P1_POINTS = 10_000
POSITION_REL_TOL = 1e-10
POWER_REL_TOL = 1e-3
P1_FLOOR_MARGIN = 1e-6


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one closed-form-vs-brute-force comparison."""

    closed_form_value: float
    oracle_value: float
    abs_gap: float
    rel_gap: float
    grid_resolution: float
    passed: bool


def pin_objective(config: SystemConfig, ue: UePosition, x_m: float) -> float:
    """Placement objective f(x) = exp(-alpha x) / ((x_ue - x)^2 + y_ue^2 + d^2) on all of R, proportional to |g2|^2."""
    dx = ue.x_ue_m - x_m
    c_const = ue.y_ue_m * ue.y_ue_m + config.waveguide_height_m * config.waveguide_height_m
    return math.exp(-config.waveguide_attenuation_per_m * x_m) / (dx * dx + c_const)


def grid_search_pin(config: SystemConfig, ue: UePosition, step_m: float) -> tuple[float, float]:
    """Exhaustive placement search over {0, step, 2*step, ..., L}.

    Returns the maximizing grid point and its objective value; ties break to
    the smallest x.
    """
    length = config.waveguide_length_m
    if not 0.0 < step_m <= length:
        raise ValueError(f"grid step must lie in (0, {length}], got {step_m!r}")
    xs = np.arange(0.0, length, step_m)
    xs = np.append(xs, length)
    alpha = config.waveguide_attenuation_per_m
    c_const = ue.y_ue_m**2 + config.waveguide_height_m**2
    values = np.exp(-alpha * xs) / ((ue.x_ue_m - xs) ** 2 + c_const)
    best = int(np.argmax(values))  # argmax returns the first (smallest-x) maximizer
    return float(xs[best]), float(values[best])


def numeric_power_min(
    gains: ChannelGains,
    config: SystemConfig,
    p1_grid: Sequence[float] | None = None,
) -> tuple[float, float, float]:
    """Grid minimizer of the power cost along the active SNR constraint.

    At equality the relay gain is pinned,
    ``beta^2 = gamma0 sigma_ue^2 / (|g2|^2 (P1 |g1|^2 - gamma0 sigma_r^2))``,
    leaving a scalar cost
    ``J(P1) = eta P1 + gamma0 sigma_ue^2 (P1 |g1|^2 + sigma_r^2)
      / (|g2|^2 (P1 |g1|^2 - gamma0 sigma_r^2))``
    evaluated on a log-spaced grid above the feasibility floor.  The default
    grid spans ``[floor * (1 + 1e-6), 10 * p1_closed_form]`` with 10^4 points.

    Returns ``(p1_best, beta_sq_best, j_best)``.
    """
    gamma0 = config.snr_target_linear
    eta = config.pa_efficiency
    floor_w = gamma0 * gains.sigma_r_sq_w / gains.g1_sq
    if p1_grid is None:
        p1_closed, _, _ = optimal_power_allocation(gains, config)
        grid = np.logspace(
            math.log10(floor_w * (1.0 + P1_FLOOR_MARGIN)),
            math.log10(10.0 * p1_closed),
            DEFAULT_P1_POINTS,
        )
    else:
        grid = np.asarray(p1_grid, dtype=float)
        if grid.size == 0:
            raise ValueError("empty P1 grid")
        if not np.all(grid > floor_w):
            raise ValueError(f"P1 grid must lie strictly above the feasibility floor {floor_w!r}")
    surplus = grid * gains.g1_sq - gamma0 * gains.sigma_r_sq_w
    cost = eta * grid + gamma0 * gains.sigma_ue_sq_w * (grid * gains.g1_sq + gains.sigma_r_sq_w) / (
        gains.g2_sq * surplus
    )
    best = int(np.argmin(cost))
    if best in (0, grid.size - 1):
        log.warning("power-grid minimum landed on the boundary (index %d of %d)", best, grid.size)
    p1_best = float(grid[best])
    beta_sq_best = gamma0 * gains.sigma_ue_sq_w / (gains.g2_sq * (p1_best * gains.g1_sq - gamma0 * gains.sigma_r_sq_w))
    return p1_best, float(beta_sq_best), float(cost[best])


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


def verify_scenario(
    config: SystemConfig,
    ue: UePosition,
    *,
    grid_step_m: float = 1e-3,
) -> tuple[OracleReport, OracleReport]:
    """Run both oracles against the closed forms for one scenario.

    The position report compares objective values: the grid is a lower bound
    on the true maximum, so the closed form fails only if the grid beats it by
    more than ``POSITION_REL_TOL`` (relative).  The power report compares the
    closed-form minimum cost against the constraint-curve grid minimum,
    two-sided, within ``POWER_REL_TOL``.
    """
    x_closed = optimal_pin_position(config, ue)
    f_closed = pin_objective(config, ue, x_closed)
    x_grid, f_grid = grid_search_pin(config, ue, grid_step_m)
    shortfall = max(0.0, f_grid - f_closed) / f_grid
    position = OracleReport(
        closed_form_value=f_closed,
        oracle_value=f_grid,
        abs_gap=abs(f_closed - f_grid),
        rel_gap=shortfall,
        grid_resolution=grid_step_m,
        passed=shortfall <= POSITION_REL_TOL,
    )

    gains = ChannelGains(
        g1_sq=_bs_gain(config),
        g2_sq=_pin_gain(config, ue, x_closed),
        sigma_r_sq_w=config.relay_noise_w,
        sigma_ue_sq_w=config.ue_noise_w,
    )
    _, _, j_closed = optimal_power_allocation(gains, config)
    _, _, j_grid = numeric_power_min(gains, config)
    rel_gap = abs(j_closed - j_grid) / j_grid
    power = OracleReport(
        closed_form_value=j_closed,
        oracle_value=j_grid,
        abs_gap=abs(j_closed - j_grid),
        rel_gap=rel_gap,
        grid_resolution=10.0 ** (1.0 / DEFAULT_P1_POINTS) - 1.0,
        passed=rel_gap <= POWER_REL_TOL,
    )
    return position, power


def _bs_gain(config: SystemConfig) -> float:
    tx, rx = config.horn_gain_tx_dbi, config.horn_gain_rx_dbi
    try:
        horn = 10.0 ** (tx / 10.0) * 10.0 ** (rx / 10.0)
    except OverflowError:
        raise ValueError(f"horn gains {tx!r} dBi and {rx!r} dBi are too large for a linear power gain") from None
    f, d = config.carrier_frequency_hz, config.bs_relay_distance_m
    try:
        g1_sq = horn * (SPEED_OF_LIGHT_M_S / (4.0 * math.pi * f * d)) ** 2
    except ArithmeticError:  # the square overflows, or 4 pi f d underflows to 0
        g1_sq = math.inf
    if not 0.0 < g1_sq < math.inf:
        raise ValueError(link_out_of_range(config, "BS-relay", g1_sq, ("bs_relay_distance_m", "carrier_frequency_hz")))
    return g1_sq


def _pin_gain(config: SystemConfig, ue: UePosition, x_pin_m: float) -> float:
    dist_sq = (ue.x_ue_m - x_pin_m) ** 2 + ue.y_ue_m**2 + config.waveguide_height_m**2
    f = config.carrier_frequency_hz
    fsg = SPEED_OF_LIGHT_M_S**2 / (16.0 * math.pi**2 * f * f * dist_sq)
    return math.exp(-config.waveguide_attenuation_per_m * x_pin_m) * fsg
