"""Comparison schemes.

Scheme 1 is a direct massive-array downlink with no relay: NLoS log-distance
path loss with lognormal shadowing, one RF chain per array element.  Scheme 2
keeps the relay and the closed-form power split but bolts the radiating
antenna to the waveguide feed point, so the relay-to-user hop is plain free
space with no placement freedom.

The direct scheme has one implementation, :func:`benchmark1_link_gain` and its
quotient :func:`benchmark1_tx_power_w`, for one user as floats or many as arrays.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .model import SystemConfig, UePosition, free_space_gain
from .optimize import PowerSolution, solve_at

if TYPE_CHECKING:
    import numpy as np

    Floats = float | np.ndarray  # one user as floats, or many as arrays

# The direct scheme's array and channel, fixed modelling choices that every
# caller shares: 64 elements of 2.15 dBi each with array gain N (the
# single-stream convention, not the fully coherent N**2); log-distance path
# loss with exponent 4, anchored to free space at 1 m; zero-mean lognormal
# shadowing with a variance of 11 dB^2; one 0.1 W RF chain per element.
NUM_ELEMENTS = 64
ARRAY_ELEMENT_GAIN = NUM_ELEMENTS * 10.0 ** (2.15 / 10.0)
PATH_LOSS_EXPONENT = 4.0
SHADOWING_STD_DB = math.sqrt(11.0)
RF_CHAIN_POWER_W = 0.1


def benchmark1_link_gain(config: SystemConfig, x_ue_m: Floats, y_ue_m: Floats, shadow_db: Floats):
    """Power gain of the direct link to one user or many.

    BS, relay and coverage area are taken collinear along the waveguide axis,
    so the direct path spans the BS-relay distance plus the ground distance
    from the feed to the user at ``(x_ue_m, y_ue_m)``.  The gain is array
    gain x element gain x log-distance loss x lognormal shadowing, with
    ``shadow_db`` one shadowing draw in dB.  Floats give a float; arrays give
    one gain per user, each equal to the float result (``hypot`` and ``pow``
    run per element through :func:`~.kernel.libm_each`).  A gain that
    underflows to 0, overflows to inf or is nan raises
    :class:`~.kernel.SampleError` (a ``ValueError``) whose ``index`` is the
    first user at fault.
    """
    import numpy as np

    from .kernel import libm_each, require_link_gain  # here, not at the top: the kernel imports this module

    distance = config.bs_relay_distance_m + libm_each(math.hypot, x_ue_m, y_ue_m)
    anchor = free_space_gain(1.0, config.carrier_frequency_hz)
    try:
        distance_loss = libm_each(math.pow, distance, -PATH_LOSS_EXPONENT)
        shadow = libm_each(math.pow, 10.0, shadow_db / 10.0)
    except OverflowError:  # rare: redo with inf in its place, so the check below names the user
        distance_loss = libm_each(_pow_or_inf, distance, -PATH_LOSS_EXPONENT)
        shadow = libm_each(_pow_or_inf, 10.0, shadow_db / 10.0)
    gain = ARRAY_ELEMENT_GAIN * anchor * distance_loss * shadow
    # raveled, so a float is checked as one user and fails as SampleError index 0 too
    require_link_gain(config, "direct", np.ravel(gain), ("bs_relay_distance_m", "carrier_frequency_hz"))
    return gain


def _pow_or_inf(base: float, exponent: float) -> float:
    try:
        return math.pow(base, exponent)
    except OverflowError:
        return math.inf


def benchmark1_tx_power_w(config: SystemConfig, x_ue_m: Floats, y_ue_m: Floats, shadow_db: Floats):
    """Radiated power the direct link needs to hit the SNR target, for one user or many."""
    return config.snr_target_linear * config.ue_noise_w / benchmark1_link_gain(config, x_ue_m, y_ue_m, shadow_db)


def benchmark1_total_power_w(config: SystemConfig, tx_w: Floats):
    """Total consumed power of the direct scheme: PA draw plus per-element RF chains."""
    return tx_w / config.pa_efficiency + NUM_ELEMENTS * RF_CHAIN_POWER_W


def benchmark2_power(config: SystemConfig, ue: UePosition) -> PowerSolution:
    """Relay scheme with the antenna fixed at the waveguide feed.

    The adjustable scheme's power split with the pinch point held at
    ``x_pin = 0``, where the waveguide attenuation factor is exactly 1 and the
    second hop is plain free space from ``(0, 0, d)``.
    """
    return solve_at(config, ue, 0.0)
