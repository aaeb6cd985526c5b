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
The maximum is written ``x2 = x_ue - alpha C / (1 + sqrt(1 - alpha^2 C))``, the
form without cancellation at small alpha, whose limit at alpha = 0 is ``x_ue``:
a lossless waveguide puts the pinch right under the user, and needs no case of
its own.

Power split.  With the placement fixed, the SNR target is active at the cost
optimum, pinning the relay gain as a function of the BS power and reducing the
weighted cost ``J = eta_pa P1 + beta^2 (P1 |g1|^2 + sigma_r^2)`` to
``A u + B / u + const`` in the power surplus ``u = P1 |g1|^2 - gamma0
sigma_r^2``, minimized at ``u* = sqrt(B / A)``.  Total consumed power at the
optimum is ``J* / eta_pa`` plus the constant circuit terms.

This module imports no numpy; the sweep's array forms are in :mod:`.kernel`.  The placement root,
:func:`stationary_root`, is written once for floats and arrays alike, and so is the split, in parts:
:func:`link_factors` and :func:`target_factors` build its factors, and its per-user parts apply
them, :func:`split_terms` (the link part), :func:`split_powers` (the target part) and
:func:`split_cost` (``j``).  :func:`optimal_power_allocation` composes them on a
:class:`~.model.ChannelGains`; :func:`solve_at`'s one pass over floats hands the placement's |g2|^2
to them and reads the rest from :func:`link_constants`.  Over the inputs' domain (:data:`~.model.DOMAIN`)
every value here is finite, so nothing is checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, NamedTuple

from .model import SPEED_OF_LIGHT_M_S, ChannelGains, SystemConfig, UePosition, _ue_noise_w, bs_relay_gain, relay_ue_gain

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

    At alpha = 0 the quadratic's root is its lossless limit, ``x2 = x_ue``.
    """
    discriminant, x2 = stationary_root(config, ue.x_ue_m, ue.y_ue_m, math.sqrt)
    return StationaryAnalysis(x2 if discriminant >= 0.0 else None)


def stationary_root(config: SystemConfig, x_ue_m, y_ue_m, sqrt: Callable):
    """``(discriminant, x2)`` of the stationary-point quadratic, floats or arrays: operators only, and
    the caller's ``sqrt``.  ``x2 = x_ue - alpha C / (1 + sqrt(discriminant))`` is the interior maximum
    where the discriminant is >= 0, free of cancellation at small alpha and ``x_ue`` at alpha = 0;
    elsewhere it is taken over ``|discriminant|``, only so that it is defined."""
    alpha = config.waveguide_attenuation_per_m
    c_const = y_ue_m * y_ue_m + config.waveguide_height_m * config.waveguide_height_m
    discriminant = 1.0 - alpha * alpha * c_const
    return discriminant, x_ue_m - alpha * c_const / (1.0 + sqrt(abs(discriminant)))


_last_placement: tuple = (None, None, math.nan, math.nan)  # optimal_pin_position's latest (config, ue, x_pin, g2_sq)


def optimal_pin_position(config: SystemConfig, ue: UePosition) -> float:
    """Gain-maximizing pinching-antenna position on the waveguide.

    The only candidates are the feed endpoint and the interior maximum ``x2``
    clamped to the waveguide; comparing their |g2|^2 makes the result a global
    argmax under every case split (``x2`` below the feed, beyond the far end,
    or in between).  Ties go to the feed endpoint.  With no attenuation
    ``x2 = x_ue``, so the candidate is ``x_ue`` clamped to ``[0, L]``: pure
    distance minimization.
    """
    global _last_placement
    length = config.waveguide_length_m
    x_ue, y_ue, height = ue.x_ue_m, ue.y_ue_m, config.waveguide_height_m
    discriminant, x2 = stationary_root(config, x_ue, y_ue, math.sqrt)
    four_pi_f = 4.0 * math.pi * config.carrier_frequency_hz  # model.free_space_gain's factors, shared
    # model.unchecked_relay_ue_gain at the feed (exp(-0.0) = 1), inline: a call adds ~0.2 us to a ~2 us solve
    ratio = SPEED_OF_LIGHT_M_S / (four_pi_f * math.sqrt(x_ue * x_ue + y_ue * y_ue + height * height))
    x_pin, g2_sq = 0.0, ratio * ratio
    if discriminant >= 0.0:
        candidate = 0.0 if x2 < 0.0 else length if x2 > length else x2
        dx = x_ue - candidate
        # model.unchecked_relay_ue_gain at the candidate, inline: a call adds ~0.2 us to a ~2 us solve
        ratio = SPEED_OF_LIGHT_M_S / (four_pi_f * math.sqrt(dx * dx + y_ue * y_ue + height * height))
        at_candidate = math.exp(-config.waveguide_attenuation_per_m * candidate) * (ratio * ratio)
        if at_candidate > g2_sq:  # a candidate whose attenuation underflows to 0 loses
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
    below which no relay gain can reach the target.
    """
    g1_sq, g2_sq, sigma_r_sq_w, sigma_ue_sq_w = gains.g1_sq, gains.g2_sq, gains.sigma_r_sq_w, gains.sigma_ue_sq_w
    target = target_factors(config.snr_target_linear, config.pa_efficiency, g1_sq, sigma_r_sq_w, sigma_ue_sq_w)
    cross, k = split_terms(link_factors(g1_sq, sigma_r_sq_w, sigma_ue_sq_w), math.sqrt(g2_sq))
    p1, beta_sq = split_powers(target, cross, k)
    return p1, beta_sq, split_cost(target, g2_sq, cross)


# PowerSolution(*values) from a tuple of the values, without the Python frame of the named
# tuple's generated __new__ (about 0.2 us of a 2 us solve)
_new_solution = partial(tuple.__new__, PowerSolution)


def link_budget(config: SystemConfig) -> tuple:
    """The config's link budget, ``(g1_sq, sigma_r_sq_w, sigma_ue_sq_w, link)``: |g1|^2, both noise
    powers and the split's :func:`link_factors`, computed afresh from the BS-relay and noise fields."""
    g1_sq, sigma_r_sq_w = bs_relay_gain(config), config.relay_noise_w
    sigma_ue_sq_w = _ue_noise_w(config, sigma_r_sq_w)
    return g1_sq, sigma_r_sq_w, sigma_ue_sq_w, link_factors(g1_sq, sigma_r_sq_w, sigma_ue_sq_w)


def link_constants(config: SystemConfig) -> tuple:
    """What every solve at one config shares, ``(g1_sq, sigma_r_sq_w, sigma_ue_sq_w, link, target)``:
    its :func:`link_budget`, then its :func:`target_factors`.  Computed on the config's first solve
    and kept on it."""
    constants = config._link_constants  # a slot, no field, that construction sets to None
    if constants is None:
        budget = link_budget(config)
        constants = (*budget, target_factors(config.snr_target_linear, config.pa_efficiency, *budget[:3]))
        object.__setattr__(config, "_link_constants", constants)  # ==, repr, pickles and replace() ignore it
    return constants


# The split's factors are plain tuples: every optimal_power_allocation builds both, and a named
# tuple takes about 0.2 us more to build than a plain one.


def link_factors(g1_sq: float, sigma_r_sq_w: float, sigma_ue_sq_w: float) -> tuple:
    """The split's factors that depend on the link budget alone, for :func:`split_terms`:
    ``(g1, sigma_r / g1, sigma_ue, sigma_ue / sigma_r)``, with ``g1 = sqrt(|g1|^2)``."""
    g1, sigma_r, sigma_ue = math.sqrt(g1_sq), math.sqrt(sigma_r_sq_w), math.sqrt(sigma_ue_sq_w)
    return g1, sigma_r / g1, sigma_ue, sigma_ue / sigma_r


def target_factors(gamma0: float, eta: float, g1_sq: float, sigma_r_sq_w: float, sigma_ue_sq_w: float) -> tuple:
    """The split's factors that depend on the SNR target and PA efficiency too, for :func:`split_powers`
    and :func:`split_cost`: the floor ``gamma0 sigma_r^2 / |g1|^2``, the roots of
    :func:`optimal_power_allocation`'s formulas, ``eta`` floor and ``gamma0 sigma_ue^2``."""
    floor_w = gamma0 * sigma_r_sq_w / g1_sq
    root_p1, root_beta = math.sqrt(gamma0 * (gamma0 + 1.0) / eta), math.sqrt(eta * gamma0 / (gamma0 + 1.0))
    root_j = math.sqrt(eta * gamma0 * (gamma0 + 1.0))
    return floor_w, root_p1, root_beta, root_j, eta * floor_w, gamma0 * sigma_ue_sq_w


# The split's per-user parts.  Arithmetic operators only, so an array gives each element the scalar result.


def split_terms(link: tuple, g2: float | np.ndarray):
    """The link part: ``(cross, k)`` = ``((sigma_r/|g1|)(sigma_ue/|g2|), (sigma_ue/sigma_r)/(|g1||g2|))``."""
    g1, r_over_g1, sigma_ue, ue_over_r = link
    return r_over_g1 * (sigma_ue / g2), ue_over_r / (g1 * g2)


def split_powers(target: tuple, cross: float | np.ndarray, k: float | np.ndarray):
    """The target part: ``(p1, beta_sq)`` = ``(floor + cross root_p1, k root_beta)``."""
    floor_w, root_p1, root_beta, _, _, _ = target
    return floor_w + cross * root_p1, k * root_beta


def split_cost(target: tuple, g2_sq: float | np.ndarray, cross: float | np.ndarray):
    """The cost ``j`` = ``eta floor + gamma0 sigma_ue^2 / |g2|^2 + 2 cross root_j``."""
    _, _, _, root_j, eta_floor_w, gamma0_ue_w = target
    return eta_floor_w + gamma0_ue_w / g2_sq + 2.0 * cross * root_j


def solve_at(config: SystemConfig, ue: UePosition, x_pin_m: float) -> PowerSolution:
    """Optimal power split with the pinching antenna held at ``x_pin_m``.

    One pass over floats through :func:`~.model.channel_gains`, :func:`optimal_power_allocation`,
    ``relay_tx_power`` and ``consumed_power`` on :func:`link_constants`, equal to them bit for bit.
    At the point :func:`optimal_pin_position` last chose, its |g2|^2 is reused.  Elsewhere
    :func:`~.model.relay_ue_gain` evaluates it, with its check.
    """
    g1_sq, sigma_r_sq_w, _, link, target = link_constants(config)
    placed_config, placed_ue, placed_x, g2_sq = _last_placement
    if placed_config is not config or placed_ue is not ue or placed_x != x_pin_m:
        # checked there: a caller's x_pin_m far along a lossy guide underflows exp(-alpha x)
        g2_sq = relay_ue_gain(config, ue, x_pin_m)
    cross, k = split_terms(link, math.sqrt(g2_sq))
    p1, beta_sq = split_powers(target, cross, k)
    j_star = split_cost(target, g2_sq, cross)
    # model.relay_tx_power and consumed_power, inline: the two calls add ~0.07 us to a ~2 us solve
    p2 = beta_sq * (p1 * g1_sq + sigma_r_sq_w)
    total = p1 + p2 / config.pa_efficiency + config.relay_circuit_power_w + config.bs_rf_chain_power_w
    return _new_solution((x_pin_m, p1, beta_sq, p2, j_star, total))


def solve(config: SystemConfig, ue: UePosition) -> PowerSolution:
    """Full pipeline: place the pinching antenna, then split the powers.

    The placement step reads only the geometry and the attenuation
    coefficient, so it is independent of the power variables.  It runs
    through the public name, so that a wrapper around it sees every placement.
    """
    return solve_at(config, ue, optimal_pin_position(config, ue))
