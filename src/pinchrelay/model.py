"""Physical-layer model: link gains, thermal noise, AF-relay SNR, power accounting.

Geometry: a base station feeds a full-duplex amplify-and-forward relay over a
fixed point-to-point horn-antenna link of length ``bs_relay_distance_m``.  The
relay injects the amplified signal into a dielectric waveguide running along
the x axis at height ``waveguide_height_m``; a pinching antenna clamped at
``(x_pin, 0, d)`` radiates toward the user terminal at ``(x_ue, y_ue, 0)``.

Everything in this module works in linear SI units (Hz, m, W, dimensionless
power gains).  dB quantities are converted once, explicitly, at the boundary
(:func:`db_to_linear`); nothing converts implicitly.

This module imports no numpy; the array forms are in :mod:`.kernel`.
:func:`relay_tx_power`, :func:`consumed_power` and the free-space factor use
arithmetic operators only, so they serve floats and arrays alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

SPEED_OF_LIGHT_M_S = 299_792_458.0
BOLTZMANN_J_PER_K = 1.380649e-23
NOISE_REFERENCE_TEMP_K = 290.0
# The SystemConfig fields the second-hop gain |g2|^2 reads, besides the user and pinch positions.
RELAY_UE_FIELDS = ("waveguide_attenuation_per_m", "waveguide_height_m", "carrier_frequency_hz")


def db_to_linear(value_db: float) -> float:
    """Linear power ratio for a dB value; a ratio too large for a float raises ``ValueError``."""
    try:
        return 10.0 ** (value_db / 10.0)
    except OverflowError:
        raise ValueError(f"{value_db!r} dB is too large to convert to a linear ratio") from None


def require_positive(**values: float) -> None:
    """Reject values that are not strictly positive (NaN included), naming the first."""
    for name, value in values.items():
        if not value > 0.0:
            raise ValueError(f"{name} must be positive, got {value!r}")


@dataclass(frozen=True)
class SystemConfig:
    """Scenario parameters, stored in SI units.

    ``snr_target_linear`` is a linear ratio (100 = 20 dB); antenna gains are
    kept in dBi because that is how they are quoted, and converted exactly
    once inside :func:`bs_relay_gain`.  ``ue_noise_figure_db = None`` means
    the terminal reuses the relay noise figure.
    """

    carrier_frequency_hz: float = 28e9
    bandwidth_hz: float = 400e6
    noise_figure_db: float = 10.0
    ue_noise_figure_db: float | None = None
    waveguide_attenuation_per_m: float = 0.01
    horn_gain_tx_dbi: float = 20.0
    horn_gain_rx_dbi: float = 20.0
    pa_efficiency: float = 0.9
    relay_circuit_power_w: float = 0.2
    bs_rf_chain_power_w: float = 0.1
    waveguide_length_m: float = 30.0
    waveguide_height_m: float = 3.0
    bs_relay_distance_m: float = 50.0
    snr_target_linear: float = 100.0
    coverage_x_m: float = 30.0
    coverage_y_m: float = 10.0

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value!r}")
        positive = ("carrier_frequency_hz", "bandwidth_hz", "waveguide_length_m", "waveguide_height_m")
        positive += ("bs_relay_distance_m", "snr_target_linear", "coverage_x_m", "coverage_y_m")
        require_positive(**{name: getattr(self, name) for name in positive})
        nonnegative = ("waveguide_attenuation_per_m", "relay_circuit_power_w", "bs_rf_chain_power_w")
        _require_nonnegative(**{name: getattr(self, name) for name in nonnegative})
        if not 0.0 < self.pa_efficiency <= 1.0:
            raise ValueError(f"pa_efficiency must lie in (0, 1], got {self.pa_efficiency!r}")

    @property
    def relay_noise_w(self) -> float:
        """Thermal noise power at the relay receiver."""
        return noise_power_w(self.bandwidth_hz, self.noise_figure_db)

    @property
    def ue_noise_w(self) -> float:
        """Thermal noise power at the user terminal."""
        nf = self.noise_figure_db if self.ue_noise_figure_db is None else self.ue_noise_figure_db
        return noise_power_w(self.bandwidth_hz, nf)


@dataclass(frozen=True)
class UePosition:
    """User terminal coordinates on the ground plane (z = 0).

    The dataclass itself accepts any geometry so that placement studies can
    probe users outside the served rectangle; use :meth:`in_coverage` when the
    position must lie inside the configured coverage area.
    """

    x_ue_m: float
    y_ue_m: float

    @classmethod
    def in_coverage(cls, config: SystemConfig, x_ue_m: float, y_ue_m: float) -> "UePosition":
        """Construct a position, rejecting coordinates outside the coverage rectangle."""
        if not 0.0 <= x_ue_m <= config.coverage_x_m or not 0.0 <= y_ue_m <= config.coverage_y_m:
            raise ValueError(
                f"UE ({x_ue_m}, {y_ue_m}) outside coverage "
                f"[0, {config.coverage_x_m}] x [0, {config.coverage_y_m}]"
            )
        return cls(x_ue_m, y_ue_m)


@dataclass(frozen=True)
class ChannelGains:
    """Link power gains and noise powers for one scenario instance."""

    g1_sq: float
    g2_sq: float
    sigma_r_sq_w: float
    sigma_ue_sq_w: float

    def __post_init__(self) -> None:
        # Written out, one comparison per field: a ChannelGains is built on every solve.
        if not 0.0 < self.g1_sq < math.inf:
            raise ValueError(f"g1_sq must lie in (0, inf), got {self.g1_sq!r}")
        if not 0.0 < self.g2_sq < math.inf:
            raise ValueError(f"g2_sq must lie in (0, inf), got {self.g2_sq!r}")
        if not 0.0 < self.sigma_r_sq_w < math.inf:
            raise ValueError(f"sigma_r_sq_w must lie in (0, inf), got {self.sigma_r_sq_w!r}")
        if not 0.0 < self.sigma_ue_sq_w < math.inf:
            raise ValueError(f"sigma_ue_sq_w must lie in (0, inf), got {self.sigma_ue_sq_w!r}")


def noise_power_w(bandwidth_hz: float, noise_figure_db: float) -> float:
    """Thermal noise power k*T0*B*F with T0 = 290 K."""
    if not bandwidth_hz > 0.0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_hz!r}")
    return BOLTZMANN_J_PER_K * NOISE_REFERENCE_TEMP_K * bandwidth_hz * db_to_linear(noise_figure_db)


def free_space_gain(distance_m: float, frequency_hz: float) -> float:
    """Free-space power gain (lambda / 4 pi d)^2 = c^2 / (16 pi^2 f^2 d^2).

    Singular at zero distance, so nonpositive arguments are rejected; positive
    ones whose product ``4 pi f d`` underflows to 0 give an infinite gain.
    """
    if not distance_m > 0.0:
        raise ValueError(f"distance must be positive, got {distance_m!r}")
    if not frequency_hz > 0.0:
        raise ValueError(f"frequency must be positive, got {frequency_hz!r}")
    return _free_space(distance_m, frequency_hz)


def _free_space(distance_m: float | np.ndarray, frequency_hz: float) -> float | np.ndarray:
    """(c / 4 pi f d)^2; a float ``4 pi f d`` that underflows to 0 gives inf, as it does in an array."""
    try:
        ratio = SPEED_OF_LIGHT_M_S / (4.0 * math.pi * frequency_hz * distance_m)
    except ZeroDivisionError:
        return math.inf
    return ratio * ratio


def link_out_of_range(config: SystemConfig, link: str, gain: float, names: tuple[str, ...]) -> str:
    """Error message for a ``link`` gain outside (0, inf), naming the config fields ``names``."""
    at = ", ".join(f"{name}={getattr(config, name)!r}" for name in names)
    return f"link budget out of range on the {link} link: gain {gain!r} at {at}"


def bs_relay_gain(config: SystemConfig) -> float:
    """BS-to-relay power gain |g1|^2: both horn gains times free-space loss; named ``ValueError`` outside (0, inf)."""
    horn = db_to_linear(config.horn_gain_tx_dbi) * db_to_linear(config.horn_gain_rx_dbi)
    g1_sq = horn * free_space_gain(config.bs_relay_distance_m, config.carrier_frequency_hz)
    if not 0.0 < g1_sq < math.inf:
        raise ValueError(link_out_of_range(config, "BS-relay", g1_sq, ("bs_relay_distance_m", "carrier_frequency_hz")))
    return g1_sq


def relay_ue_gain(config: SystemConfig, ue: UePosition, x_pin_m: float) -> float:
    """Pinching-antenna-to-user power gain |g2|^2.

    Product of the guided-wave attenuation exp(-alpha_D * x_pin) accumulated up
    to the pinch point and the free-space gain over the 3-D pinch-to-user
    distance.  ``x_pin_m`` must lie on the waveguide, i.e. in [0, L]; the gain is unchecked.
    A zero distance makes the free-space factor ``inf``, as in :func:`~.kernel.relay_ue_gains`.
    """
    if not 0.0 <= x_pin_m <= config.waveguide_length_m:
        raise ValueError(
            f"x_pin={x_pin_m!r} outside the waveguide [0, {config.waveguide_length_m}]"
        )
    dx = ue.x_ue_m - x_pin_m
    height = config.waveguide_height_m
    distance = math.sqrt(dx * dx + ue.y_ue_m * ue.y_ue_m + height * height)
    attenuation = math.exp(-config.waveguide_attenuation_per_m * x_pin_m)
    return attenuation * _free_space(distance, config.carrier_frequency_hz)


def channel_gains(config: SystemConfig, ue: UePosition, x_pin_m: float) -> ChannelGains:
    """Assemble both hop gains and both noise powers for one scenario; gains must lie in (0, inf)."""
    g1_sq, g2_sq = bs_relay_gain(config), relay_ue_gain(config, ue, x_pin_m)
    if not 0.0 < g2_sq < math.inf:
        raise ValueError(link_out_of_range(config, "relay-UE", g2_sq, RELAY_UE_FIELDS))
    return ChannelGains(
        g1_sq=g1_sq,
        g2_sq=g2_sq,
        sigma_r_sq_w=config.relay_noise_w,
        sigma_ue_sq_w=config.ue_noise_w,
    )


def af_snr(p1_w: float, beta_sq: float, gains: ChannelGains) -> float:
    """End-to-end SNR of the amplify-and-forward chain.

    gamma = P1 beta^2 |g1|^2 |g2|^2 / (sigma_ue^2 + beta^2 |g2|^2 sigma_r^2);
    monotone in both P1 and beta^2, capped by the first-hop SNR
    P1 |g1|^2 / sigma_r^2 as beta^2 grows.
    """
    _require_nonnegative(p1_w=p1_w, beta_sq=beta_sq)
    signal = p1_w * beta_sq * gains.g1_sq * gains.g2_sq
    noise = gains.sigma_ue_sq_w + beta_sq * gains.g2_sq * gains.sigma_r_sq_w
    return signal / noise


def total_power_w(p1_w: float, beta_sq: float, gains: ChannelGains, config: SystemConfig) -> float:
    """Total consumed power: BS transmit + relay PA draw + constant circuit terms.

    P1 + P2 / eta_pa + P_amp_circ + P_bs_rf.  Equivalently
    (eta_pa P1 + P2) / eta_pa + constants, which is what the closed-form cost
    minimizes.
    """
    _require_nonnegative(p1_w=p1_w, beta_sq=beta_sq)
    return consumed_power(p1_w, relay_tx_power(p1_w, beta_sq, gains.g1_sq, gains.sigma_r_sq_w), config)


def relay_tx_power(p1_w: float | np.ndarray, beta_sq: float | np.ndarray, g1_sq: float, sigma_r_sq_w: float):
    """Relay transmit power P2 = beta^2 (P1 |g1|^2 + sigma_r^2), unchecked; operators only, for floats or arrays."""
    return beta_sq * (p1_w * g1_sq + sigma_r_sq_w)


def consumed_power(p1_w: float | np.ndarray, p2_w: float | np.ndarray, config: SystemConfig):
    """Unchecked total consumed power from P1 and P2 in operators only, for floats or arrays."""
    return p1_w + p2_w / config.pa_efficiency + config.relay_circuit_power_w + config.bs_rf_chain_power_w


def _require_nonnegative(**values: float) -> None:
    for name, value in values.items():
        if not value >= 0.0:
            raise ValueError(f"{name} must be nonnegative, got {value!r}")
