"""Comparison schemes.

Scheme 1 is a direct massive-array downlink with no relay: NLoS log-distance
path loss with lognormal shadowing, one RF chain per array element.  Scheme 2
keeps the relay and the closed-form power split but bolts the radiating
antenna to the waveguide feed point, so the relay-to-user hop is plain free
space with no placement freedom.

The direct scheme has one implementation, :func:`benchmark1_tx_power_w`, which
takes one user as floats or many as arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SystemConfig, UePosition, free_space_gain, libm_each, require_finite_fields
from .optimize import PowerSolution, solve_at


@dataclass(frozen=True)
class Benchmark1Config:
    """Direct-transmission array parameters.

    ``array_gain_exponent`` sets the coherent beamforming gain model
    ``num_elements ** exponent`` (1 for the standard single-stream array-gain
    convention, 2 for a fully coherent power gain).  ``shadowing_std_db`` is
    the standard deviation of the zero-mean lognormal shadowing term; the
    default corresponds to a variance of 11 dB^2.
    """

    num_elements: int = 64
    element_gain_dbi: float = 2.15
    path_loss_exponent: float = 4.0
    shadowing_std_db: float = math.sqrt(11.0)
    rf_chain_power_w_per_element: float = 0.1
    reference_distance_m: float = 1.0
    array_gain_exponent: float = 1.0

    def __post_init__(self) -> None:
        require_finite_fields(self)
        if self.num_elements < 1:
            raise ValueError(f"num_elements must be >= 1, got {self.num_elements!r}")
        if self.path_loss_exponent < 2.0:
            raise ValueError(f"path_loss_exponent must be >= 2, got {self.path_loss_exponent!r}")
        if self.shadowing_std_db < 0.0:
            raise ValueError("shadowing_std_db must be nonnegative")
        if not self.reference_distance_m > 0.0:
            raise ValueError("reference_distance_m must be positive")
        if self.rf_chain_power_w_per_element < 0.0:
            raise ValueError("rf_chain_power_w_per_element must be nonnegative")
        if not self.array_gain_exponent > 0.0:
            raise ValueError("array_gain_exponent must be positive")


def benchmark1_tx_power_w(
    config: SystemConfig,
    b1: Benchmark1Config,
    x_ue_m: float | np.ndarray,
    y_ue_m: float | np.ndarray,
    shadow_db: float | np.ndarray,
):
    """Radiated power the direct link needs to hit the SNR target, for one user or many.

    BS, relay and coverage area are taken collinear along the waveguide axis,
    so the direct path spans the BS-relay distance plus the ground distance
    from the feed to the user at ``(x_ue_m, y_ue_m)``.  The link gain is array
    gain x element gain x log-distance loss x lognormal shadowing, with
    ``shadow_db`` one shadowing draw in dB.  Floats give a float; arrays give
    one power per user, each equal to the float result (``hypot`` and ``pow``
    run per element through :func:`~.model.libm_each`).
    """
    distance = config.bs_relay_distance_m + libm_each(math.hypot, x_ue_m, y_ue_m)
    array_gain = float(b1.num_elements) ** b1.array_gain_exponent
    element_gain = 10.0 ** (b1.element_gain_dbi / 10.0)
    anchor = free_space_gain(b1.reference_distance_m, config.carrier_frequency_hz)
    distance_loss = libm_each(math.pow, distance / b1.reference_distance_m, -b1.path_loss_exponent)
    shadow = libm_each(math.pow, 10.0, shadow_db / 10.0)
    gain = array_gain * element_gain * anchor * distance_loss * shadow
    return config.snr_target_linear * config.ue_noise_w / gain


def benchmark1_total_power_w(config: SystemConfig, b1: Benchmark1Config, tx_w: float | np.ndarray):
    """Total consumed power of the direct scheme: PA draw plus per-element RF chains."""
    return tx_w / config.pa_efficiency + b1.num_elements * b1.rf_chain_power_w_per_element


def benchmark2_power(config: SystemConfig, ue: UePosition) -> PowerSolution:
    """Relay scheme with the antenna fixed at the waveguide feed.

    The adjustable scheme's power split with the pinch point held at
    ``x_pin = 0``, where the waveguide attenuation factor is exactly 1 and the
    second hop is plain free space from ``(0, 0, d)``.
    """
    return solve_at(config, ue, 0.0)
