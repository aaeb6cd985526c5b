"""Closed-form solvers: pinching-antenna placement and BS-power / relay-gain split.

Placement.  Along the waveguide the radiated-link gain is proportional to
``f(x) = exp(-alpha x) / ((x_ue - x)^2 + y_ue^2 + d^2)``: guided-wave
attenuation up to the pinch point over the squared pinch-to-user distance.
``d(ln f)/dx = 0`` gives the quadratic ``alpha u^2 - 2u + alpha C = 0`` in
``u = x_ue - x`` with ``C = y_ue^2 + d^2``.  Its roots, when real, are a local
minimum ``x1`` (larger u) and the unique interior local maximum ``x2``
(smaller u), so the constrained optimum on ``[0, L]`` is either the feed
endpoint ``x = 0`` or ``x2`` clamped to the waveguide, whichever radiates the
stronger |g2|^2: the same gain that then powers the relay, never below the feed's.

Power split.  With the placement fixed, the SNR target is active at the cost
optimum, pinning the relay gain as a function of the BS power and reducing the
weighted cost ``J = eta_pa P1 + beta^2 (P1 |g1|^2 + sigma_r^2)`` to
``A u + B / u + const`` in the power surplus ``u = P1 |g1|^2 - gamma0
sigma_r^2``, minimized at ``u* = sqrt(B / A)``.  Total consumed power at the
optimum is ``J* / eta_pa`` plus the constant circuit terms.

This module imports no numpy.  The sweep places users with the array form in
:mod:`.kernel`, and it shares the operator-only split :func:`split_power` with
:func:`optimal_power_allocation`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .model import (
    ChannelGains,
    SystemConfig,
    UePosition,
    channel_gains,
    consumed_power,
    relay_tx_power,
    relay_ue_gain,
)

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class StationaryAnalysis:
    """Stationary points of the placement objective.

    ``delta`` is the discriminant ``4 - 4 alpha^2 C``; the roots ``x1 <= x2``
    are present only when it is nonnegative.
    """

    delta: float
    c_const: float
    x1_m: float | None
    x2_m: float | None


@dataclass(frozen=True)
class PowerSolution:
    """Jointly optimal operating point for one scenario."""

    x_pin_m: float
    p1_w: float
    beta_sq: float
    p2_w: float
    j_star_w: float
    total_power_w: float


def stationary_points(config: SystemConfig, ue: UePosition) -> StationaryAnalysis:
    """Solve the stationary-point quadratic of the placement objective.

    Requires a strictly positive attenuation coefficient; at alpha = 0 the
    quadratic degenerates and the caller should use the pure distance-
    minimizing placement instead.
    """
    alpha = config.waveguide_attenuation_per_m
    if alpha == 0.0:
        raise ValueError("no stationary analysis for zero waveguide attenuation")
    c_const = ue.y_ue_m * ue.y_ue_m + config.waveguide_height_m * config.waveguide_height_m
    delta = 4.0 - 4.0 * alpha * alpha * c_const
    if delta < 0.0:
        return StationaryAnalysis(delta=delta, c_const=c_const, x1_m=None, x2_m=None)
    root = math.sqrt(1.0 - alpha * alpha * c_const)
    x1 = ue.x_ue_m - (1.0 + root) / alpha
    x2 = ue.x_ue_m - (1.0 - root) / alpha
    return StationaryAnalysis(delta=delta, c_const=c_const, x1_m=x1, x2_m=x2)


def optimal_pin_position(config: SystemConfig, ue: UePosition) -> float:
    """Gain-maximizing pinching-antenna position on the waveguide.

    With no attenuation the objective is pure distance minimization and the
    optimum is ``x_ue`` clamped to ``[0, L]``.  Otherwise the only candidates
    are the feed endpoint and the interior maximum ``x2`` clamped to the
    waveguide; comparing their |g2|^2 makes the result a global argmax under
    every case split (``x2`` below the feed, beyond the far end, or in
    between).  Ties go to the feed endpoint.
    """
    length = config.waveguide_length_m
    if config.waveguide_attenuation_per_m == 0.0:
        return min(max(ue.x_ue_m, 0.0), length)
    analysis = stationary_points(config, ue)
    if analysis.x2_m is None:
        return 0.0
    candidate = min(max(analysis.x2_m, 0.0), length)
    if relay_ue_gain(config, ue, candidate) > relay_ue_gain(config, ue, 0.0):
        return candidate
    return 0.0


def optimal_power_allocation(gains: ChannelGains, config: SystemConfig) -> tuple[float, float, float]:
    """Cost-minimizing BS power and relay gain meeting the SNR target exactly.

    Returns ``(p1_w, beta_sq, j_w)``:

        p1      = gamma0 sigma_r^2 / |g1|^2
                  + (sigma_r sigma_ue / |g1||g2|) sqrt(gamma0 (gamma0+1) / eta)
        beta^2  = (sigma_ue / (|g1||g2| sigma_r)) sqrt(eta gamma0 / (gamma0+1))
        j       = eta gamma0 sigma_r^2 / |g1|^2 + gamma0 sigma_ue^2 / |g2|^2
                  + (2 sigma_r sigma_ue / |g1||g2|) sqrt(eta gamma0 (gamma0+1))

    ``p1`` strictly exceeds the feasibility floor ``gamma0 sigma_r^2 / |g1|^2``
    below which no relay gain can reach the target.  A result that is not
    finite (an SNR target or gains beyond the float range) raises
    ``ValueError`` naming the target and the value at fault.
    """
    p1, beta_sq, j = split_power(
        config, gains.g1_sq, gains.sigma_r_sq_w, gains.sigma_ue_sq_w, gains.g2_sq, math.sqrt(gains.g2_sq)
    )
    if not (math.isfinite(p1) and math.isfinite(beta_sq) and math.isfinite(j)):
        values = {"p1": p1, "beta_sq": beta_sq, "j": j}
        bad = ", ".join(f"{name}={value!r}" for name, value in values.items() if not math.isfinite(value))
        raise ValueError(
            f"power split is not finite at snr_target_linear={config.snr_target_linear!r} "
            f"(g1_sq={gains.g1_sq!r}, g2_sq={gains.g2_sq!r}): {bad}"
        )
    return p1, beta_sq, j


def split_power(
    config: SystemConfig,
    g1_sq: float,
    sigma_r_sq_w: float,
    sigma_ue_sq_w: float,
    g2_sq: float | np.ndarray,
    g2: float | np.ndarray,
):
    """Unchecked :func:`optimal_power_allocation` on the second hop's power gain
    ``g2_sq`` and amplitude ``g2``, floats or arrays.

    Everything that varies with ``g2`` is arithmetic operators only, so an
    array gives each element the scalar result.
    """
    gamma0 = config.snr_target_linear
    eta = config.pa_efficiency
    g1 = math.sqrt(g1_sq)
    sigma_r = math.sqrt(sigma_r_sq_w)
    sigma_ue = math.sqrt(sigma_ue_sq_w)
    # Factored as two tame ratios: the raw four-factor product of noise
    # amplitudes over channel amplitudes can leave the normal float range.
    cross = (sigma_r / g1) * (sigma_ue / g2)
    floor_w = gamma0 * sigma_r_sq_w / g1_sq
    p1 = floor_w + cross * math.sqrt(gamma0 * (gamma0 + 1.0) / eta)
    beta_sq = (sigma_ue / sigma_r) / (g1 * g2) * math.sqrt(eta * gamma0 / (gamma0 + 1.0))
    j = eta * floor_w + gamma0 * sigma_ue_sq_w / g2_sq + 2.0 * cross * math.sqrt(eta * gamma0 * (gamma0 + 1.0))
    return p1, beta_sq, j


def solve_at(config: SystemConfig, ue: UePosition, x_pin_m: float) -> PowerSolution:
    """Optimal power split with the pinching antenna held at ``x_pin_m``.

    The closed-form split admits a solution for any positive gains, so every
    position on the waveguide yields an operating point.
    """
    gains = channel_gains(config, ue, x_pin_m)
    p1, beta_sq, j_star = optimal_power_allocation(gains, config)
    p2 = relay_tx_power(p1, beta_sq, gains.g1_sq, gains.sigma_r_sq_w)
    return PowerSolution(
        x_pin_m=x_pin_m,
        p1_w=p1,
        beta_sq=beta_sq,
        p2_w=p2,
        j_star_w=j_star,
        total_power_w=consumed_power(p1, p2, config),
    )


def solve(config: SystemConfig, ue: UePosition) -> PowerSolution:
    """Full pipeline: place the pinching antenna, then split the powers.

    The placement step reads only the geometry and the attenuation
    coefficient, so it is independent of the power variables.
    """
    return solve_at(config, ue, optimal_pin_position(config, ue))
