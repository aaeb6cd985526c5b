"""Comparison schemes.

Scheme 1 is a direct massive-array downlink with no relay: NLoS log-distance
path loss with lognormal shadowing, one RF chain per array element.  Scheme 2
keeps the relay and the closed-form power split but bolts the radiating
antenna to the waveguide feed point, so the relay-to-user hop is plain free
space with no placement freedom.

The direct scheme has one set of parts, unchecked, for floats or arrays: its
link gain in three, :func:`ground_distance_m`, :func:`shadowing_gain` and
:func:`direct_path_gain`, and its transmit-power quotient :func:`direct_tx_power_w`,
each written with operators and the caller's ``sqrt`` and ``pow``.  The sweep
kernel runs each part as a stage; :func:`benchmark1_tx_power_w`, the checked
one-user form, composes them with :mod:`math` and loads no numpy.  Over the
inputs' domains and the config's, every power here is finite.  Each scheme is a
function of the config and the user alone.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable

from .model import UE_DOMAIN, SystemConfig, UePosition, free_space_gain, out_of_domain
from .optimize import PowerSolution, solve_at

if TYPE_CHECKING:
    import numpy as np

    Floats = float | np.ndarray  # one user as floats, or many as arrays

# The direct scheme's array and channel, fixed modelling choices that every
# caller shares: 64 elements of 2.15 dBi each with array gain N (the
# single-stream convention, not the fully coherent N**2); log-distance path
# loss with exponent 4, anchored to free space at 1 m; zero-mean lognormal
# shadowing with a variance of 11 dB^2; one 0.1 W RF chain per element.
# :func:`distance_loss` writes the exponent out as two squarings and a reciprocal.
NUM_ELEMENTS = 64
ARRAY_ELEMENT_GAIN = NUM_ELEMENTS * 10.0 ** (2.15 / 10.0)
SHADOWING_STD_DB = math.sqrt(11.0)
RF_CHAIN_POWER_W = 0.1
# A shadowing draw's domain in dB: 30 standard deviations each way.
SHADOW_DB_DOMAIN = (-100.0, 100.0)


def ground_distance_m(x_ue_m: Floats, y_ue_m: Floats, sqrt: Callable):
    """Ground distance ``sqrt(x*x + y*y)`` from the waveguide feed to each user, with the caller's
    correctly rounded ``sqrt`` (``math.sqrt``, or ``np.sqrt`` for arrays), so each element equals the
    float result on any CPU.  Where a square underflows (a coordinate below about 1e-154 m) the distance
    loses relative accuracy, but not against the BS-relay distance it is added to."""
    return sqrt(x_ue_m * x_ue_m + y_ue_m * y_ue_m)


def shadowing_gain(shadow_db: Floats, power: Callable):
    """Linear lognormal shadowing factor of each draw in dB, with the caller's ``power``: ``math.pow``,
    or for arrays one equal to it per element."""
    return power(10.0, shadow_db / 10.0)


def direct_path_gain(config: SystemConfig, ground_m: Floats, shadow: Floats):
    """The direct link's gain over ground distance ``ground_m`` with linear shadowing ``shadow``;
    it reads only ``LINK_FIELDS["direct"]``."""
    anchor = free_space_gain(1.0, config.carrier_frequency_hz)
    gain = distance_loss(config.bs_relay_distance_m, ground_m)
    # ARRAY_ELEMENT_GAIN * anchor * loss * shadow, in place on an array (IEEE products commute)
    gain *= ARRAY_ELEMENT_GAIN * anchor
    gain *= shadow
    return gain


def distance_loss(d1_m: float, ground_m: Floats):
    """Log-distance loss d**-4 over the direct path ``d = d1_m + ground_m``, written ``1.0 / (d2*d2)``
    with ``d2 = d*d``: operators only, so floats and arrays agree bit for bit on any CPU.  An array
    ``ground_m`` is left as it is; the result is one new array, which each step overwrites."""
    d4 = d1_m + ground_m  # d
    d4 *= d4  # d2
    d4 *= d4
    if isinstance(d4, float):
        return 1.0 / d4
    import numpy as np

    return np.divide(1.0, d4, out=d4)


def benchmark1_tx_power_w(config: SystemConfig, x_ue_m: float, y_ue_m: float, shadow_db: float) -> float:
    """Radiated power the direct link needs to hit the SNR target at one user.

    BS, relay and coverage area are collinear along the waveguide axis, so the
    direct path spans the BS-relay distance plus the user's ground distance from
    the feed.  The link gain is array gain x element gain x log-distance loss x
    lognormal shadowing, ``shadow_db`` being one draw in dB.  A coordinate
    outside ``UE_DOMAIN`` or a draw outside ``SHADOW_DB_DOMAIN`` (a nan too)
    raises ``ValueError`` naming the first one.
    """
    inputs = ("x_ue_m", x_ue_m, UE_DOMAIN), ("y_ue_m", y_ue_m, UE_DOMAIN), ("shadow_db", shadow_db, SHADOW_DB_DOMAIN)
    for name, value, (lo, hi) in inputs:
        if not lo <= value <= hi:
            raise ValueError(out_of_domain(name, value, (lo, hi)))
    gain = direct_path_gain(config, ground_distance_m(x_ue_m, y_ue_m, math.sqrt), shadowing_gain(shadow_db, math.pow))
    return direct_tx_power_w(config.snr_target_linear, config.ue_noise_w, gain)


def direct_tx_power_w(gamma0: float, sigma_ue_sq_w: float, gain: Floats):
    """Radiated power that hits SNR target ``gamma0`` at terminal noise ``sigma_ue_sq_w`` over
    direct-link gain ``gain``, one float or an array of them."""
    return gamma0 * sigma_ue_sq_w / gain


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
