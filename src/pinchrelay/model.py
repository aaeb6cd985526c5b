"""Physical-layer model: link gains, thermal noise, AF-relay SNR, power accounting.

Geometry: a base station feeds a full-duplex amplify-and-forward relay over a
fixed point-to-point horn-antenna link of length ``bs_relay_distance_m``.  The
relay injects the amplified signal into a dielectric waveguide running along
the x axis at height ``waveguide_height_m``; a pinching antenna clamped at
``(x_pin, 0, d)`` radiates toward the user terminal at ``(x_ue, y_ue, 0)``.

Everything in this module works in linear SI units (Hz, m, W, dimensionless
power gains).  dB quantities are converted once, explicitly, at the boundary
(:func:`db_to_linear`) or where they are used; nothing converts implicitly.
Every input lies in a physical domain, checked when it is built: ``DOMAIN``
for each :class:`SystemConfig` field, ``UE_DOMAIN`` for each user coordinate
and ``CHANNEL_DOMAIN`` for each :class:`ChannelGains` value; an operating
point that :func:`af_snr` or :func:`total_power_w` takes is checked against
``OPERATING_DOMAIN``.  Over that box every derived quantity stays far inside
the float range.

This module imports no numpy; the array forms are in :mod:`.kernel`.
:func:`relay_tx_power`, :func:`consumed_power`, the free-space factor and
:func:`unchecked_relay_ue_gain` use arithmetic operators only (the last also
its caller's ``sqrt`` and ``exp``), so they serve floats and arrays alike.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    import numpy as np

SPEED_OF_LIGHT_M_S = 299_792_458.0
BOLTZMANN_J_PER_K = 1.380649e-23
NOISE_REFERENCE_TEMP_K = 290.0
# The SystemConfig fields each link's gain reads, besides the user and pinch positions.
LINK_FIELDS = {
    "BS-relay": ("horn_gain_tx_dbi", "horn_gain_rx_dbi", "bs_relay_distance_m", "carrier_frequency_hz"),
    "relay-UE": ("waveguide_attenuation_per_m", "waveguide_height_m", "carrier_frequency_hz"),
    "direct": ("bs_relay_distance_m", "carrier_frequency_hz"),
}
# The SystemConfig fields that both noise powers read.
NOISE_FIELDS = ("bandwidth_hz", "noise_figure_db", "ue_noise_figure_db")

# The physical domain of each SystemConfig field, [lo, hi] in the field's SI unit.  README's
# "Domain" section gives each field's unit and the use that sets its margin.
DOMAIN = {
    "carrier_frequency_hz": (1e8, 1e13),
    "bandwidth_hz": (1e3, 1e11),
    "noise_figure_db": (0.0, 40.0),
    "ue_noise_figure_db": (0.0, 40.0),  # or None: the terminal reuses the relay's noise figure
    "waveguide_attenuation_per_m": (0.0, 100.0),
    "horn_gain_tx_dbi": (-10.0, 60.0),
    "horn_gain_rx_dbi": (-10.0, 60.0),
    "pa_efficiency": (1e-3, 1.0),
    "relay_circuit_power_w": (0.0, 1e3),
    "bs_rf_chain_power_w": (0.0, 1e3),
    "waveguide_length_m": (1e-4, 1e7),
    "waveguide_height_m": (1e-2, 1e3),
    "bs_relay_distance_m": (0.1, 1e5),
    "snr_target_linear": (1e-3, 1e6),
    "coverage_x_m": (1e-2, 1e5),
    "coverage_y_m": (1e-2, 1e5),
}
# Each UePosition coordinate, in m; it holds every coverage rectangle in DOMAIN.
UE_DOMAIN = (-1e5, 1e5)
# Each ChannelGains value: wide enough for unit gains and noise, narrow enough that the
# closed-form split and the oracle's power search stay finite over it.
CHANNEL_DOMAIN = (1e-30, 1e30)
# Each operating-point value that total_power_w and af_snr take, p1_w in W and beta_sq: it holds
# every solve's p1 (at most 3.8e24 W over DOMAIN) and beta^2 (at most 2.5e28).
OPERATING_DOMAIN = (0.0, 1e30)


def out_of_domain(name: str, value: object, bounds: tuple[float, float]) -> str:
    """The one message for a value outside its domain: it names the field, its bounds and the value."""
    return f"{name} must lie in [{bounds[0]:g}, {bounds[1]:g}], got {value!r}"


def db_to_linear(value_db: float) -> float:
    """Linear power ratio for a dB value; a ratio too large for a float is inf, which every domain rejects."""
    try:
        return 10.0 ** (value_db / 10.0)
    except OverflowError:  # a dB value as typed, past about 3083 dB (--gamma0 4000dB), before any domain check
        return math.inf


def _frozen_setattr(self, name: str, value: object) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _value_type(domain: dict[str, tuple[float, float]] | tuple[float, float]) -> Callable[[type], type]:
    """Decorator for a slotted frozen dataclass declared with ``init=False``: the one construction path
    of :class:`SystemConfig`, :class:`UePosition` and :class:`ChannelGains`.

    ``domain`` maps each field to its finite bounds, or is one pair of bounds for all of them.  The
    generated ``__init__`` takes the dataclass's own signature.  It checks each field against its
    bounds, written into its code, in field order, so the first field at fault is the one named;
    ``None`` is out of every domain except for a field whose default is ``None``.  It then sets each
    field's slot through its member descriptor, and each slot that a base class adds, which is no
    field, to ``None``.  No instance has a ``__dict__``.

    Assignment and deletion raise ``FrozenInstanceError`` for every name.  The slotted dataclass's
    own pair does only for fields on Python 3.10 and 3.11: for another name they call ``super()``
    with the class from before the slots, a ``TypeError``.  A pickle holds the fields' values, and
    loading one constructs again; a pickle made before the fields were slots holds them as a dict,
    which loads too.
    """

    def build(cls: type) -> type:
        names = [field.name for field in fields(cls)]
        nullable = {field.name for field in fields(cls) if field.default is None}
        kept = [name for base in cls.__mro__[1:] for name in base.__dict__.get("__slots__", ())]
        lines = [f"def __init__(self, {', '.join(names)}):"]
        for name in names:
            lo, hi = domain[name] if isinstance(domain, dict) else domain
            none = f"{name} is not None and" if name in nullable else f"{name} is None or"
            # nan fails too; a chained comparison's stack shuffles cost about 4 ns more per field
            lines.append(f"    if {none} not ({lo!r} <= {name} and {name} <= {hi!r}):")
            lines.append(f"        raise ValueError(out_of_domain({name!r}, {name}, ({lo!r}, {hi!r})))")
        lines += [f"    set_{name}(self, {name})" for name in names]
        lines += [f"    set_{name}(self, None)" for name in kept]
        namespace = {"out_of_domain": out_of_domain}
        namespace.update((f"set_{name}", getattr(cls, name).__set__) for name in names + kept)
        exec("\n".join(lines), namespace)
        init = namespace["__init__"]
        init.__defaults__ = tuple(field.default for field in fields(cls) if field.default is not MISSING)

        def __getstate__(self) -> tuple:
            return tuple(getattr(self, name) for name in names)

        def __setstate__(self, state: tuple | dict) -> None:
            self.__init__(*([state[name] for name in names] if isinstance(state, dict) else state))

        for method in (init, __getstate__, __setstate__):
            method.__qualname__, method.__module__ = f"{cls.__qualname__}.{method.__name__}", cls.__module__
        cls.__init__, cls.__getstate__, cls.__setstate__ = init, __getstate__, __setstate__
        cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
        return cls

    return build


class _Kept:
    """Base of :class:`SystemConfig`: a slot, no field, for what the config's first solve keeps."""

    __slots__ = ("_link_constants",)


@_value_type(DOMAIN)
@dataclass(frozen=True, init=False, slots=True)
class SystemConfig(_Kept):
    """Scenario parameters, stored in SI units.

    ``snr_target_linear`` is a linear ratio (100 = 20 dB); antenna gains are
    kept in dBi because that is how they are quoted, and converted exactly
    once inside :func:`bs_relay_gain`.  ``ue_noise_figure_db = None`` means
    the terminal reuses the relay noise figure.  Each field must lie in its
    ``DOMAIN`` bounds.  A config's first solve (or :func:`channel_gains` call)
    keeps on it what every solve there shares: :func:`~.optimize.link_constants`.
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

    @property
    def relay_noise_w(self) -> float:
        """Thermal noise power at the relay receiver."""
        return noise_power_w(self.bandwidth_hz, self.noise_figure_db)

    @property
    def ue_noise_w(self) -> float:
        """Thermal noise power at the user terminal."""
        return _ue_noise_w(self)


@_value_type(UE_DOMAIN)
@dataclass(frozen=True, init=False, slots=True)
class UePosition:
    """User terminal coordinates on the ground plane (z = 0).

    Each coordinate must lie in ``UE_DOMAIN``, which reaches well outside any
    coverage rectangle so that placement studies can probe users outside the
    served area; use :meth:`in_coverage` when the position must lie inside it.
    """

    x_ue_m: float
    y_ue_m: float

    @classmethod
    def in_coverage(cls, config: SystemConfig, x_ue_m: float, y_ue_m: float) -> "UePosition":
        """Construct a position, rejecting coordinates outside the coverage rectangle."""
        for name, value, extent in (("x_ue_m", x_ue_m, config.coverage_x_m), ("y_ue_m", y_ue_m, config.coverage_y_m)):
            if not 0.0 <= value <= extent:
                raise ValueError(f"{out_of_domain(name, value, (0.0, extent))} (the coverage rectangle)")
        return cls(x_ue_m, y_ue_m)


@_value_type(CHANNEL_DOMAIN)
@dataclass(frozen=True, init=False, slots=True)
class ChannelGains:
    """Link power gains and noise powers for one scenario instance, each in ``CHANNEL_DOMAIN``."""

    g1_sq: float
    g2_sq: float
    sigma_r_sq_w: float
    sigma_ue_sq_w: float


def noise_power_w(bandwidth_hz: float, noise_figure_db: float) -> float:
    """Thermal noise power k*T0*B*F with T0 = 290 K."""
    return BOLTZMANN_J_PER_K * NOISE_REFERENCE_TEMP_K * bandwidth_hz * 10.0 ** (noise_figure_db / 10.0)


def free_space_gain(distance_m: float, frequency_hz: float) -> float:
    """Free-space power gain (lambda / 4 pi d)^2 = c^2 / (16 pi^2 f^2 d^2).

    Singular at zero distance, so nonpositive arguments are rejected.
    """
    if not distance_m > 0.0:
        raise ValueError(f"distance must be positive, got {distance_m!r}")
    if not frequency_hz > 0.0:
        raise ValueError(f"frequency must be positive, got {frequency_hz!r}")
    return _free_space(distance_m, frequency_hz)


def _free_space(distance_m: float | np.ndarray, frequency_hz: float) -> float | np.ndarray:
    """(c / 4 pi f d)^2, for one distance or an array of them."""
    ratio = SPEED_OF_LIGHT_M_S / (4.0 * math.pi * frequency_hz * distance_m)
    return ratio * ratio


def link_out_of_range(config: SystemConfig, link: str, gain: float) -> str:
    """Error message for a ``link`` gain outside ``CHANNEL_DOMAIN``, naming the config fields that link reads."""
    at = ", ".join(f"{name}={getattr(config, name)!r}" for name in LINK_FIELDS[link])
    return f"link budget out of range on the {link} link: gain {gain!r} at {at}"


def bs_relay_gain(config: SystemConfig) -> float:
    """BS-to-relay power gain |g1|^2: both horn gains times free-space loss."""
    horn = 10.0 ** (config.horn_gain_tx_dbi / 10.0) * 10.0 ** (config.horn_gain_rx_dbi / 10.0)
    return horn * _free_space(config.bs_relay_distance_m, config.carrier_frequency_hz)


def relay_ue_gain(config: SystemConfig, ue: UePosition, x_pin_m: float) -> float:
    """Pinching-antenna-to-user power gain |g2|^2.

    Product of the guided-wave attenuation exp(-alpha_D * x_pin) accumulated up
    to the pinch point and the free-space gain over the 3-D pinch-to-user
    distance.  ``x_pin_m`` must lie on the waveguide, i.e. in [0, L].  The
    one gain check left in the package is here: far along a lossy waveguide
    (alpha L up to 1e9 in the domain) exp(-alpha x) underflows, so a gain below
    ``CHANNEL_DOMAIN`` raises ``ValueError``.  The placement never chooses such
    a point, since its gain is never below the feed's.
    """
    if not 0.0 <= x_pin_m <= config.waveguide_length_m:
        raise ValueError(f"x_pin={x_pin_m!r} outside the waveguide [0, {config.waveguide_length_m}]")
    g2_sq = unchecked_relay_ue_gain(config, ue.x_ue_m, ue.y_ue_m, x_pin_m, math.sqrt, math.exp)
    if g2_sq < CHANNEL_DOMAIN[0]:
        raise ValueError(link_out_of_range(config, "relay-UE", g2_sq))
    return g2_sq


def unchecked_relay_ue_gain(config: SystemConfig, x_ue_m, y_ue_m, x_pin_m, sqrt: Callable, exp: Callable):
    """|g2|^2 of :func:`relay_ue_gain`, unchecked, for floats or arrays: operators only, and the
    caller's ``sqrt`` and ``exp`` (:mod:`math`'s for floats; for arrays, ones equal to them per element)."""
    dx = x_ue_m - x_pin_m
    height = config.waveguide_height_m
    distance = sqrt(dx * dx + y_ue_m * y_ue_m + height * height)
    return exp(-config.waveguide_attenuation_per_m * x_pin_m) * _free_space(distance, config.carrier_frequency_hz)


def channel_gains(config: SystemConfig, ue: UePosition, x_pin_m: float) -> ChannelGains:
    """Assemble both hop gains and both noise powers for one scenario.

    |g1|^2 and the noise powers are the config's :func:`~.optimize.link_constants`, computed
    once per config; a terminal that reuses the relay noise figure reuses its noise power too.
    """
    from .optimize import link_constants  # here, not at the top: optimize imports this module

    g1_sq, sigma_r_sq_w, sigma_ue_sq_w, _, _ = link_constants(config)
    return ChannelGains(g1_sq, relay_ue_gain(config, ue, x_pin_m), sigma_r_sq_w, sigma_ue_sq_w)


def _ue_noise_w(config: SystemConfig, relay_noise_w: float | None = None) -> float:
    """The terminal's noise power; ``ue_noise_figure_db = None`` reuses the relay's, ``relay_noise_w`` if given."""
    if config.ue_noise_figure_db is not None:
        return noise_power_w(config.bandwidth_hz, config.ue_noise_figure_db)
    return config.relay_noise_w if relay_noise_w is None else relay_noise_w


def af_snr(p1_w: float, beta_sq: float, gains: ChannelGains) -> float:
    """End-to-end SNR of the amplify-and-forward chain.

    gamma = P1 beta^2 |g1|^2 |g2|^2 / (sigma_ue^2 + beta^2 |g2|^2 sigma_r^2);
    monotone in both P1 and beta^2, capped by the first-hop SNR
    P1 |g1|^2 / sigma_r^2 as beta^2 grows.  ``p1_w`` and ``beta_sq`` must lie
    in ``OPERATING_DOMAIN``.
    """
    _require_operating_point(p1_w, beta_sq)
    signal = p1_w * beta_sq * gains.g1_sq * gains.g2_sq
    noise = gains.sigma_ue_sq_w + beta_sq * gains.g2_sq * gains.sigma_r_sq_w
    return signal / noise


def total_power_w(p1_w: float, beta_sq: float, gains: ChannelGains, config: SystemConfig) -> float:
    """Total consumed power: BS transmit + relay PA draw + constant circuit terms.

    P1 + P2 / eta_pa + P_amp_circ + P_bs_rf.  Equivalently
    (eta_pa P1 + P2) / eta_pa + constants, which is what the closed-form cost
    minimizes.  ``p1_w`` and ``beta_sq`` must lie in ``OPERATING_DOMAIN``.
    """
    _require_operating_point(p1_w, beta_sq)
    return consumed_power(p1_w, relay_tx_power(p1_w, beta_sq, gains.g1_sq, gains.sigma_r_sq_w), config)


def relay_tx_power(p1_w: float | np.ndarray, beta_sq: float | np.ndarray, g1_sq: float, sigma_r_sq_w: float):
    """Relay transmit power P2 = beta^2 (P1 |g1|^2 + sigma_r^2), unchecked; operators only, for floats or arrays."""
    return beta_sq * (p1_w * g1_sq + sigma_r_sq_w)


def consumed_power(p1_w: float | np.ndarray, p2_w: float | np.ndarray, config: SystemConfig):
    """Unchecked total consumed power from P1 and P2 in operators only, for floats or arrays."""
    return p1_w + p2_w / config.pa_efficiency + config.relay_circuit_power_w + config.bs_rf_chain_power_w


def _require_operating_point(p1_w: float, beta_sq: float) -> None:
    lo, hi = OPERATING_DOMAIN
    for name, value in (("p1_w", p1_w), ("beta_sq", beta_sq)):
        if not lo <= value <= hi:  # nan fails too
            raise ValueError(out_of_domain(name, value, OPERATING_DOMAIN))
