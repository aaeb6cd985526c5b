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

This module imports no numpy; the sweep's array forms are in :mod:`.kernel`, and it shares
:func:`split_per_user` with :func:`optimal_power_allocation` and :func:`solve_at`, whose one pass
over floats hands the placement's |g2|^2 to the split and reads the rest from :func:`link_constants`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .model import SPEED_OF_LIGHT_M_S, ChannelGains, SystemConfig, UePosition, _ue_noise_w, bs_relay_gain
from .model import link_out_of_range, relay_ue_gain

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class StationaryAnalysis:
    """Interior maximum ``x2`` of the placement objective; ``None`` when the discriminant is negative."""

    x2_m: float | None


class PowerSolution(NamedTuple):
    """Jointly optimal operating point for one scenario."""

    x_pin_m: float
    p1_w: float
    beta_sq: float
    p2_w: float
    j_star_w: float
    total_power_w: float


def stationary_points(config: SystemConfig, ue: UePosition) -> StationaryAnalysis:
    """The interior maximum of the placement objective, from its stationary-point quadratic.

    Requires a strictly positive attenuation coefficient; at alpha = 0 the
    quadratic degenerates and the caller should use the pure distance-
    minimizing placement instead.
    """
    if config.waveguide_attenuation_per_m == 0.0:
        raise ValueError("no stationary analysis for zero waveguide attenuation")
    return StationaryAnalysis(_interior_maximum(config, ue))


def _interior_maximum(config: SystemConfig, ue: UePosition) -> float | None:
    """``x2`` for a positive attenuation, or ``None`` when the discriminant is negative."""
    alpha = config.waveguide_attenuation_per_m
    discriminant = 1.0 - alpha * alpha * (ue.y_ue_m * ue.y_ue_m + config.waveguide_height_m * config.waveguide_height_m)
    if discriminant < 0.0:
        return None
    return ue.x_ue_m - (1.0 - math.sqrt(discriminant)) / alpha


_last_placement: tuple = (None, None, math.nan, math.nan)  # optimal_pin_position's latest (config, ue, x_pin, g2_sq)


def optimal_pin_position(config: SystemConfig, ue: UePosition) -> float:
    """Gain-maximizing pinching-antenna position on the waveguide.

    With no attenuation the objective is pure distance minimization and the
    optimum is ``x_ue`` clamped to ``[0, L]``.  Otherwise the only candidates
    are the feed endpoint and the interior maximum ``x2`` clamped to the
    waveguide; comparing their |g2|^2 makes the result a global argmax under
    every case split (``x2`` below the feed, beyond the far end, or in
    between).  Ties go to the feed endpoint.
    """
    global _last_placement
    length = config.waveguide_length_m
    x_ue = ue.x_ue_m
    if config.waveguide_attenuation_per_m == 0.0:
        x_pin = 0.0 if x_ue < 0.0 else length if x_ue > length else x_ue  # min(max(x_ue, 0.0), length)
        g2_sq = relay_ue_gain(config, ue, x_pin)
    else:
        x2 = _interior_maximum(config, ue)
        y_ue, height = ue.y_ue_m, config.waveguide_height_m
        four_pi_f = 4.0 * math.pi * config.carrier_frequency_hz  # model._free_space's factors, shared
        try:  # the attenuation factor at the feed is exp(-0.0) = 1 exactly
            ratio = SPEED_OF_LIGHT_M_S / (four_pi_f * math.sqrt(x_ue * x_ue + y_ue * y_ue + height * height))
        except ZeroDivisionError:
            ratio = math.inf
        x_pin, g2_sq = 0.0, ratio * ratio
        if x2 is not None:
            candidate = 0.0 if x2 < 0.0 else length if x2 > length else x2  # nan stays nan, and loses to the feed
            dx = x_ue - candidate
            try:
                ratio = SPEED_OF_LIGHT_M_S / (four_pi_f * math.sqrt(dx * dx + y_ue * y_ue + height * height))
            except ZeroDivisionError:
                ratio = math.inf
            at_candidate = math.exp(-config.waveguide_attenuation_per_m * candidate) * (ratio * ratio)
            if at_candidate > g2_sq:
                x_pin, g2_sq = candidate, at_candidate
    _last_placement = config, ue, x_pin, g2_sq
    return x_pin


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
    finite (an SNR target, a PA efficiency or gains beyond the float range)
    raises ``ValueError`` naming the target, the efficiency and the value at fault.
    """
    return _checked_split(config, gains.g1_sq, gains.g2_sq, gains.sigma_r_sq_w, gains.sigma_ue_sq_w)


def _checked_split(
    config: SystemConfig, g1_sq: float, g2_sq: float, sigma_r_sq_w: float, sigma_ue_sq_w: float
) -> tuple[float, float, float]:
    """:func:`optimal_power_allocation` on the link budget as floats, in :class:`~.model.ChannelGains`' order."""
    p1, beta_sq, j = split_power(config, g1_sq, sigma_r_sq_w, sigma_ue_sq_w, g2_sq, math.sqrt(g2_sq))
    if not (math.isfinite(p1) and math.isfinite(beta_sq) and math.isfinite(j)):
        values = {"p1": p1, "beta_sq": beta_sq, "j": j}
        bad = ", ".join(f"{name}={value!r}" for name, value in values.items() if not math.isfinite(value))
        raise ValueError(
            f"power split is not finite at snr_target_linear={config.snr_target_linear!r} and "
            f"pa_efficiency={config.pa_efficiency!r} (g1_sq={g1_sq!r}, g2_sq={g2_sq!r}): {bad}"
        )
    return p1, beta_sq, j


def link_constants(config: SystemConfig) -> tuple:
    """``(g1_sq, sigma_r_sq_w, sigma_ue_sq_w, factors)``: what every solve at ``config`` shares, ``factors`` its
    :func:`split_factors`.  The first value out of range raises its named error, in channel_gains' order."""
    constants = _constants(config)
    if math.isnan(constants[0]):  # a value is out of range
        bs_relay_gain(config), config.relay_noise_w, config.ue_noise_w  # the first out of range raises
    return constants


def _constants(config: SystemConfig) -> tuple:
    """:func:`link_constants`, unchecked: computed on the config's first solve and kept on it; nan if out of range."""
    constants = getattr(config, "_link_constants", None)  # None before the config's first solve
    if constants is None:
        try:
            g1_sq, sigma_r_sq_w = bs_relay_gain(config), config.relay_noise_w
            sigma_ue_sq_w = _ue_noise_w(config, sigma_r_sq_w)
        except ValueError:  # raised again where the values are read; building them never raises
            g1_sq = sigma_r_sq_w = sigma_ue_sq_w = math.nan
        factors = split_factors(config.snr_target_linear, config.pa_efficiency, g1_sq, sigma_r_sq_w, sigma_ue_sq_w)
        constants = g1_sq, sigma_r_sq_w, sigma_ue_sq_w, factors
        object.__setattr__(config, "_link_constants", constants)  # no field: ==, repr and replace() ignore it
    return constants


def split_factors(gamma0: float, eta: float, g1_sq: float, sigma_r_sq_w: float, sigma_ue_sq_w: float) -> tuple:
    """The split's config-only factors ``(g1, sigma_r / g1, sigma_ue, sigma_ue / sigma_r, floor,
    sqrt(gamma0 (gamma0+1) / eta), sqrt(eta gamma0 / (gamma0+1)), sqrt(eta gamma0 (gamma0+1)), eta floor,
    gamma0 sigma_ue^2)`` for :func:`split_per_user`, with amplitudes ``g1``, ``sigma`` and floor
    ``gamma0 sigma_r^2 / |g1|^2``.  On positive or nan inputs nothing raises: past the float range is inf."""
    g1, sigma_r, sigma_ue = math.sqrt(g1_sq), math.sqrt(sigma_r_sq_w), math.sqrt(sigma_ue_sq_w)
    floor_w = gamma0 * sigma_r_sq_w / g1_sq
    roots = math.sqrt(gamma0 * (gamma0 + 1.0) / eta), math.sqrt(eta * gamma0 / (gamma0 + 1.0))
    roots += (math.sqrt(eta * gamma0 * (gamma0 + 1.0)),)
    return g1, sigma_r / g1, sigma_ue, sigma_ue / sigma_r, floor_w, *roots, eta * floor_w, gamma0 * sigma_ue_sq_w


def split_power(config: SystemConfig, g1_sq: float, sigma_r_sq_w: float, sigma_ue_sq_w: float, g2_sq, g2):
    """Unchecked :func:`optimal_power_allocation` on any link budget: :func:`split_per_user` on its
    :func:`split_factors`, for the second hop's power gain ``g2_sq`` and amplitude ``g2``."""
    factors = split_factors(config.snr_target_linear, config.pa_efficiency, g1_sq, sigma_r_sq_w, sigma_ue_sq_w)
    return split_per_user(factors, g2_sq, g2)


def split_per_user(factors: tuple[float, ...], g2_sq: float | np.ndarray, g2: float | np.ndarray):
    """The split's per-user operators: ``(p1, beta_sq, j)`` from a config's :func:`split_factors`
    and the second hop's power gain ``g2_sq`` and amplitude ``g2``, floats or arrays.

    Arithmetic operators only, so an array gives each element the scalar result.
    """
    g1, r_over_g1, sigma_ue, ue_over_r, floor_w, root_p1, root_beta, root_j, eta_floor_w, gamma0_ue_w = factors
    # Factored as two tame ratios: the raw four-factor product of noise
    # amplitudes over channel amplitudes can leave the normal float range.
    cross = r_over_g1 * (sigma_ue / g2)
    p1 = floor_w + cross * root_p1
    beta_sq = ue_over_r / (g1 * g2) * root_beta
    j = eta_floor_w + gamma0_ue_w / g2_sq + 2.0 * cross * root_j
    return p1, beta_sq, j


def solve_at(config: SystemConfig, ue: UePosition, x_pin_m: float) -> PowerSolution:
    """Optimal power split with the pinching antenna held at ``x_pin_m``.

    The closed-form split admits a solution for any positive gains, so every
    position on the waveguide yields an operating point.  A relay power or
    total that is not finite raises ``ValueError`` naming the values at fault
    and the config fields that add to the total.

    One pass over floats through :func:`~.model.channel_gains`, :func:`optimal_power_allocation`,
    ``relay_tx_power`` and ``consumed_power`` on :func:`link_constants`, each value checked where it is
    computed, with their messages in their order; at the point :func:`optimal_pin_position` last chose,
    its |g2|^2 is reused.
    """
    g1_sq, sigma_r_sq_w, sigma_ue_sq_w, factors = _constants(config)
    if not 0.0 < g1_sq < math.inf:
        bs_relay_gain(config)  # raises its named error; if |g1|^2 is in range, a noise power is not, and raises below
    placed_config, placed_ue, placed_x, g2_sq = _last_placement
    if placed_config is not config or placed_ue is not ue or placed_x != x_pin_m:
        g2_sq = relay_ue_gain(config, ue, x_pin_m)
    if not 0.0 < g2_sq < math.inf:
        raise ValueError(link_out_of_range(config, "relay-UE", g2_sq))
    if math.isnan(sigma_r_sq_w):  # all three are nan when one is out of range
        link_constants(config)  # |g1|^2 is not: raises the first noise power's named error
    p1, beta_sq, j_star = split_per_user(factors, g2_sq, math.sqrt(g2_sq))
    if not (math.isfinite(p1) and math.isfinite(beta_sq) and math.isfinite(j_star)):
        _checked_split(config, g1_sq, g2_sq, sigma_r_sq_w, sigma_ue_sq_w)  # raises its named error
    p2 = beta_sq * (p1 * g1_sq + sigma_r_sq_w)
    total = p1 + p2 / config.pa_efficiency + config.relay_circuit_power_w + config.bs_rf_chain_power_w
    if not (math.isfinite(p2) and math.isfinite(total)):
        values = {"p2_w": p2, "total_power_w": total}
        bad = ", ".join(f"{name}={value!r}" for name, value in values.items() if not math.isfinite(value))
        fields = ("pa_efficiency", "relay_circuit_power_w", "bs_rf_chain_power_w")
        at = ", ".join(f"{name}={getattr(config, name)!r}" for name in fields)
        raise ValueError(
            f"operating point is not finite at {at} (p1={p1!r}, beta_sq={beta_sq!r}, "
            f"g1_sq={g1_sq!r}, sigma_r_sq_w={sigma_r_sq_w!r}): {bad}"
        )
    return PowerSolution(x_pin_m, p1, beta_sq, p2, j_star, total)


def solve(config: SystemConfig, ue: UePosition) -> PowerSolution:
    """Full pipeline: place the pinching antenna, then split the powers.

    The placement step reads only the geometry and the attenuation
    coefficient, so it is independent of the power variables.  It runs
    through the public name, so that a wrapper around it sees every placement.
    """
    return solve_at(config, ue, optimal_pin_position(config, ue))
