"""Brute-force verification of the closed forms.

The placement check bounds the objective's maximum on the waveguide from
above, by its curvature split and a bracketed Newton search; the power check
searches the active-SNR-constraint curve for the minimum cost, stepping to
the root of its slope by an exact inverse (the slope's ratio to the
curvature is a ``tanh``), and evaluates the cost and the SNR at the closed
form's operating point.  Both searches keep a certified bracket around their
optimum.
The exhaustive placement grid :func:`grid_search_pin` remains as plain
reference code for the acceptance gate and perfbench; only it imports numpy.
All objective formulas here are written out inline, independently of the code
paths under test.  The placement objective ``f`` is written only as its log,
:func:`ln_pin_objective`: :func:`verify_scenario` evaluates it at the
closed-form pinch once and derives ``f`` and both hop gains there.
Over the inputs' domain (:data:`~.model.DOMAIN`) every value they take is a
finite, normal float.
"""

from __future__ import annotations

import math
from functools import partial
from typing import NamedTuple

from .model import SPEED_OF_LIGHT_M_S, ChannelGains, SystemConfig, UePosition
from .optimize import optimal_pin_position, optimal_power_allocation

# the power search's budget of cost evaluations; verify's draws take 3, the corners of
# CHANNEL_DOMAIN x gamma0 x eta 7 in the median and 11 at most
DEFAULT_P1_POINTS = 128
# the power search stops once its bracket in ln(surplus) is this narrow: about
# 1e-8 relative in the surplus, and far below 1e-16 relative in the cost
POWER_SEARCH_WIDTH = 1e-8
# the placement search stops once its upper bound on ln f is this close to
# the best value it has evaluated: 1e-15 relative in f, below verify's tolerance
PLACEMENT_SEARCH_GAP = 1e-15
# and once its bracket is at most this many times sqrt(C) wide, C = y_ue^2 + d^2
PLACEMENT_SEARCH_WIDTH = 1e-9
POSITION_REL_TOL = 1e-10
POWER_REL_TOL = 1e-14
# the placement search aims its Newton steps this factor past the root of the slope, so that both ends close in
_NEWTON_OVERSHOOT = 1.0 + 2.0**-10
# the power search aims this far past the root of J', on the far side from its last point: the
# next evaluation closes a bracket at most 0.9 POWER_SEARCH_WIDTH wide
_PAST_THE_ROOT = 0.45 * POWER_SEARCH_WIDTH
# where |J' / J''| rounds to 1 the root lies more than 18.3 away in ln(surplus): a step this long never passes it
_SATURATED_STEP = 18.0


class OracleReport(NamedTuple):
    """One check of :func:`verify_scenario`: ``closed_form_value`` and the search's ``oracle_value``,
    ``abs_gap`` between them, the ``rel_gap`` the check judges, and ``passed``, whether it is within
    the check's tolerance.  ``grid_resolution`` holds the placement search's final bracket width (m),
    or ``POWER_SEARCH_WIDTH``; no grid is built, and the field keeps its name."""

    closed_form_value: float
    oracle_value: float
    abs_gap: float
    rel_gap: float
    grid_resolution: float
    passed: bool


# OracleReport(*values) from a tuple of the values, without the named tuple's generated __new__
_new_report = partial(tuple.__new__, OracleReport)


def ln_pin_objective(config: SystemConfig, ue: UePosition, x_m: float) -> float:
    """``g(x) = ln f(x) = -alpha x - ln((x_ue - x)^2 + y_ue^2 + d^2)`` on all of R: the log of the placement
    objective ``f(x) = exp(-alpha x) / ((x_ue - x)^2 + y_ue^2 + d^2)``, proportional to |g2|^2, and finite
    where ``f`` underflows to 0 or overflows."""
    dx = ue.x_ue_m - x_m
    c_const = ue.y_ue_m * ue.y_ue_m + config.waveguide_height_m * config.waveguide_height_m
    return -config.waveguide_attenuation_per_m * x_m - math.log(dx * dx + c_const)


def pin_bounds(config: SystemConfig, ue: UePosition) -> tuple[float, float, float, float]:
    """Certified bounds on the maximum of ``g = ln f`` over the waveguide ``[0, L]``.

    In ``u = x_ue - x`` with ``C = y_ue^2 + d^2``, ``g'' = 2(u^2 - C) / (u^2 + C)^2``:
    ``g`` is convex where ``|u| > sqrt(C)`` and concave where ``|u| < sqrt(C)``.
    On the two convex pieces the maximum lies at a piece end.  On the concave
    piece ``g'`` falls, so its sign keeps a bracket ``[lo, hi]`` around the
    piece's maximum, and the tangent at ``lo`` bounds the piece by
    ``g(lo) + g'(lo) (hi - lo)``.  Each step is Newton's on ``g'`` from the
    last point, ``(1 + 2^-10) g' / |g''|``: aimed a little past the root, it
    lands on alternate sides, so ``lo`` and ``hi`` both close in.  A step
    that leaves ``(lo, hi)``, or meets ``g'' = 0`` at a piece end, bisects
    instead.  The search stops once the bound lies within
    ``PLACEMENT_SEARCH_GAP`` of ``g(lo)`` and the bracket is at most
    ``PLACEMENT_SEARCH_WIDTH`` times ``sqrt(C)`` wide, or once the bracket
    splits no further: after 5 steps on most of verify's draws.  The bracket
    starts at most ``2 sqrt(C)`` wide, so the steps do not grow in number with
    ``L``.  Nothing here reads the closed-form placement.

    Returns ``(x_best, g_lower, g_upper, width)``: the best point evaluated,
    its ``g``, the upper bound, and the final bracket's width (0 where the
    concave piece peaks at one of its ends).
    """
    length, alpha, x_ue = config.waveguide_length_m, config.waveguide_attenuation_per_m, ue.x_ue_m
    c_const = ue.y_ue_m * ue.y_ue_m + config.waveguide_height_m * config.waveguide_height_m
    root_c = math.sqrt(c_const)
    a = min(max(x_ue - root_c, 0.0), length)
    b = min(max(x_ue + root_c, 0.0), length)
    lo, hi, x = a, b, a
    u = x_ue - x
    w = u * u + c_const
    slope_lo = slope_x = 2.0 * u / w - alpha  # g'(a); each g' here is written out
    u_b = x_ue - b
    if slope_lo <= 0.0:  # g falls from a, and so on the whole concave piece
        hi = a
    elif 2.0 * u_b / (u_b * u_b + c_const) - alpha >= 0.0:  # g rises all the way to b
        lo = b
    else:
        gap, width = PLACEMENT_SEARCH_GAP, PLACEMENT_SEARCH_WIDTH * root_c
        while slope_lo * (hi - lo) > gap or hi - lo > width:
            # a Newton step on g' from the last point x: g'/|g''|, with |g''| = 2(C - u^2)/(u^2 + C)^2 = 2 excess/w^2
            excess = c_const - u * u
            mid = x + _NEWTON_OVERSHOOT * slope_x * w * w / (excess + excess) if excess > 0.0 else hi
            if not lo < mid < hi:  # past the bracket, or g'' is 0 (mid = hi): bisect
                mid = 0.5 * (lo + hi)
                if not lo < mid < hi:
                    break
            u = x_ue - mid
            w = u * u + c_const
            x, slope_x = mid, 2.0 * u / w - alpha
            if slope_x > 0.0:
                lo, slope_lo = mid, slope_x
            elif slope_x < 0.0:
                hi = mid
            else:
                lo = hi = mid
    x_best, g_best = 0.0, -math.inf
    for x in (0.0, a, lo, hi, b, length):  # ln_pin_objective at each candidate, written out
        u = x_ue - x
        g_x = -alpha * x - math.log(u * u + c_const)
        if x == lo:
            g_lo = g_x
        if g_x > g_best:  # ties go to the first point listed
            x_best, g_best = x, g_x
    return x_best, g_best, max(g_best, g_lo + slope_lo * (hi - lo)), hi - lo


def grid_search_pin(config: SystemConfig, ue: UePosition, step_m: float) -> tuple[float, float]:
    """Exhaustive placement search over {0, step, 2*step, ..., L}, for the acceptance gate.

    Returns the maximizing grid point and its objective value
    ``exp(-alpha xs) / ((x_ue - xs)**2 + c)``; ties break to the smallest x.
    """
    import numpy as np

    length = config.waveguide_length_m
    if not 0.0 < step_m <= length:
        raise ValueError(f"grid step must lie in (0, {length}], got {step_m!r}")
    xs = np.append(np.arange(0.0, length, step_m), length)
    alpha = config.waveguide_attenuation_per_m
    c_const = ue.y_ue_m**2 + config.waveguide_height_m**2
    values = np.exp(-alpha * xs) / ((ue.x_ue_m - xs) ** 2 + c_const)
    best = int(np.argmax(values))  # argmax returns the first (smallest-x) maximizer
    return float(xs[best]), float(values[best])


def numeric_power_min(gains: ChannelGains, config: SystemConfig) -> tuple[float, float, float]:
    """A bracketed search for the minimum power cost along the active SNR constraint.

    At equality the relay gain is pinned by the surplus
    ``u = P1 |g1|^2 - gamma0 sigma_r^2``,
    ``beta^2 = gamma0 sigma_ue^2 / (|g2|^2 u)``, leaving a scalar cost
    ``J = eta P1 + gamma0 sigma_ue^2 (P1 |g1|^2 + sigma_r^2) / (|g2|^2 u)``
    with ``P1 = (u + gamma0 sigma_r^2) / |g1|^2``.  In ``t = ln u``, where
    ``dP1/dt = u / |g1|^2`` and ``d(P1 |g1|^2 + sigma_r^2)/dt = u``,
    ``J' = eta u / |g1|^2 - gamma0 sigma_ue^2 (gamma0 sigma_r^2 + sigma_r^2) / (|g2|^2 u)``
    and ``J''`` is the same sum with a plus, so ``J`` is convex.  Its rising
    part goes as ``e^t`` and its falling part as ``e^-t``, so
    ``r = J' / J'' = tanh(t - t*)`` exactly, with ``t*`` the root of ``J'``.
    The search starts at ``t0 = ln(gamma0 sigma_r^2)``.  From each point
    ``t`` it steps to ``t* = t - atanh(r)``, moved ``0.45 POWER_SEARCH_WIDTH``
    past it to the far side, so that the next evaluation closes a bracket
    whose ``J'`` signs certify it, at most ``0.9 POWER_SEARCH_WIDTH`` wide.
    Where ``|r|`` rounds to 1 (``t*`` more than 18.3 away) it steps 18
    toward the root instead, never past it; a target outside the bracket
    bisects it.  The search stops once the bracket is at most
    ``POWER_SEARCH_WIDTH`` wide in ``t``, and returns the end with the lower
    ``J``.  It does not read the closed form.  Verify's draws take 3
    evaluations, and the corners of ``CHANNEL_DOMAIN`` x gamma0 x eta 7 in the
    median and 11 at most.  It evaluates ``J`` at most ``DEFAULT_P1_POINTS``
    times; a search that needs more raises ``ValueError``.

    Returns ``(p1_best, beta_sq_best, j_best)``.
    """
    gamma0, eta = config.snr_target_linear, config.pa_efficiency
    g1_sq, g2_sq, sigma_r_sq, sigma_ue_sq = gains.g1_sq, gains.g2_sq, gains.sigma_r_sq_w, gains.sigma_ue_sq_w
    surplus0 = gamma0 * sigma_r_sq  # u at t0
    falling0 = gamma0 * sigma_ue_sq * (surplus0 + sigma_r_sq) / g2_sq  # u times J's falling part
    lo, j_lo, hi, j_hi = -math.inf, math.inf, math.inf, math.inf  # no end of the bracket found yet
    s = 0.0
    for _ in range(DEFAULT_P1_POINTS):
        u = surplus0 * math.exp(s)
        p1 = (u + surplus0) / g1_sq
        j_s = eta * p1 + gamma0 * sigma_ue_sq * (p1 * g1_sq + sigma_r_sq) / (g2_sq * u)
        rising, falling = eta * u / g1_sq, falling0 / u  # J' = rising - falling, J'' = rising + falling
        r_s = (rising - falling) / (rising + falling)  # tanh(s - s*), s* the root of J'
        if r_s > 0.0:
            hi, j_hi = s, j_s
        else:
            lo, j_lo = s, j_s
        if r_s == 0.0 or hi - lo <= POWER_SEARCH_WIDTH:
            break
        if r_s == 1.0 or r_s == -1.0:  # |tanh| has rounded to 1: s* lies more than 18.3 away
            s -= math.copysign(_SATURATED_STEP, r_s)
        else:  # s*, and a little past it
            s = s - math.atanh(r_s) - math.copysign(_PAST_THE_ROOT, r_s)
        if not lo < s < hi:
            s = 0.5 * (lo + hi)
    else:
        raise ValueError(f"the P1 search found no minimum of the power cost within {DEFAULT_P1_POINTS} evaluations")
    s, j_best = (lo, j_lo) if j_lo <= j_hi else (hi, j_hi)
    u = surplus0 * math.exp(s)
    return (u + surplus0) / g1_sq, gamma0 * sigma_ue_sq / (g2_sq * u), j_best


def verify_scenario(config: SystemConfig, ue: UePosition) -> tuple[OracleReport, OracleReport]:
    """Run both oracles against the closed forms for one scenario.

    The position report compares ``ln f`` at the closed form, evaluated once and
    finite where ``f`` underflows, with the certified upper bound of :func:`pin_bounds`:
    the closed form fails when the bound beats it by more than ``POSITION_REL_TOL``
    (relative).  Its values are ``exp`` of ``ln f`` there and at the search's best
    point, and its resolution the search's final bracket width;
    ``|g2|^2 = (c / (4 pi f_c))^2 f`` at the closed form.
    The power report's gap is the largest of three, each within ``POWER_REL_TOL`` for a
    pass: the closed-form minimum cost against :func:`numeric_power_min`'s, two-sided;
    the cost at the closed form's ``(p1, beta_sq)`` against its reported cost; and the
    SNR at that pair against the target.
    A closed form off the waveguide fails both, each with an infinite gap and a ``nan``
    closed-form value: ``f`` there may exceed the bound or the float range, and it gives
    no gains to split power over.  One on the waveguide whose ``|g2|^2`` leaves
    ``CHANNEL_DOMAIN``, far below the maximum, fails its power check in the same way.
    """
    x_closed = optimal_pin_position(config, ue)
    _, g_best, g_upper, width = pin_bounds(config, ue)
    if not 0.0 <= x_closed <= config.waveguide_length_m:
        return _report(math.nan, math.exp(g_best), math.inf, width, POSITION_REL_TOL), _NO_POWER_CHECK
    # the objective at the closed form, once: the pinch is off the user, so ln f has no 0 divisor
    ln_closed = ln_pin_objective(config, ue, x_closed)
    ratio = SPEED_OF_LIGHT_M_S / (4.0 * math.pi * config.carrier_frequency_hz)  # free space's amplitude at 1 m
    horn = 10.0 ** (config.horn_gain_tx_dbi / 10.0) * 10.0 ** (config.horn_gain_rx_dbi / 10.0)
    g1_sq, g2_sq = horn * (ratio / config.bs_relay_distance_m) ** 2, ratio * ratio * math.exp(ln_closed)
    sigma_r_sq = config.relay_noise_w
    sigma_ue_sq = sigma_r_sq if config.ue_noise_figure_db is None else config.ue_noise_w
    rel_gap = max(0.0, -math.expm1(ln_closed - g_upper))
    position = _report(math.exp(ln_closed), math.exp(g_best), rel_gap, width, POSITION_REL_TOL)
    try:
        gains = ChannelGains(g1_sq, g2_sq, sigma_r_sq, sigma_ue_sq)
    except ValueError:  # |g2|^2 underflows past CHANNEL_DOMAIN where f is far below its maximum
        return position, _NO_POWER_CHECK

    p1, beta_sq, j_closed = optimal_power_allocation(gains, config)
    gamma0 = config.snr_target_linear
    _, _, j_search = numeric_power_min(gains, config)
    # the cost and the SNR at the closed form's operating point
    j_pair = config.pa_efficiency * p1 + beta_sq * (p1 * g1_sq + sigma_r_sq)
    snr = p1 * g1_sq * beta_sq * g2_sq / (sigma_ue_sq + beta_sq * g2_sq * sigma_r_sq)
    rel_gap = max(abs(j_closed - j_search) / j_search, abs(j_pair - j_closed) / j_search, abs(snr - gamma0) / gamma0)
    power = _report(j_closed, j_search, rel_gap, POWER_SEARCH_WIDTH, POWER_REL_TOL)
    return position, power


def _report(closed: float, oracle: float, rel_gap: float, resolution: float, tolerance: float) -> OracleReport:
    """One comparison's report: the absolute gap, and a pass when ``rel_gap`` is within ``tolerance``."""
    return _new_report((closed, oracle, abs(closed - oracle), rel_gap, resolution, rel_gap <= tolerance))


# the failed power report of a closed form that gives no gains to split power over
_NO_POWER_CHECK = _report(math.nan, math.nan, math.inf, POWER_SEARCH_WIDTH, POWER_REL_TOL)
