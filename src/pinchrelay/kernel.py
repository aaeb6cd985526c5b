"""Sweep kernel: the array forms of the model, the placement and each scheme.

Every function here evaluates many users at once as numpy arrays, and each
element equals the scalar path (:mod:`.model`, :mod:`.optimize`,
:mod:`.benchmarks`) bit for bit: squares are written as products, arithmetic
runs in the scalar expressions' order, and ``exp``/``pow``/``hypot`` go
through :mod:`math` per element (:func:`libm_each`), because numpy's
vectorised versions round differently from libm on a few percent of inputs.
This is the one module where the scalar and array forms meet; the scalar
modules import no numpy, so a single-point solve never loads it.

Each scheme is two stages.  Its user stage does the per-user work (placement
and the second-hop gain, or the direct link's gain) and reads only the
SystemConfig fields it declares; its power stage turns that into total and BS
power at one config.  :func:`evaluate` reruns a user stage only when one of
those fields changes.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Callable, NamedTuple

import numpy as np

from .benchmarks import benchmark1_link_gain, benchmark1_total_power_w
from .model import RELAY_UE_FIELDS, SystemConfig, _free_space, bs_relay_gain, consumed_power, link_out_of_range
from .model import relay_tx_power, require_positive
from .optimize import split_power


class SampleError(ValueError):
    """One sample of an array evaluation is invalid; ``index`` says which."""

    def __init__(self, index: int, message: str) -> None:
        super().__init__(message)
        self.index = index


def libm_each(fn: Callable[..., float], *args: float | np.ndarray) -> float | np.ndarray:
    """``fn``, a :mod:`math` function, applied to each element of the array arguments.

    Float arguments repeat for every element; with no array argument this is
    plain ``fn(*args)``.  Calling libm keeps each element equal to the scalar
    code's result, which numpy's vectorised ``exp``/``pow``/``hypot`` do not.
    """
    size = next((a.size for a in args if isinstance(a, np.ndarray)), None)
    if size is None:
        return fn(*args)
    columns = [a.tolist() if isinstance(a, np.ndarray) else itertools.repeat(a) for a in args]
    return np.fromiter(map(fn, *columns), float, size)


def require_link_gain(config: SystemConfig, link: str, gain: np.ndarray, names: tuple[str, ...]) -> np.ndarray:
    """``gain`` if all of it lies in (0, inf), else a :class:`SampleError` at the first element at fault.

    Its message is :func:`~.model.link_out_of_range`'s; scalar callers compare and raise ``ValueError`` inline.
    """
    bad = np.flatnonzero(~((gain > 0.0) & (gain < math.inf)))
    if bad.size:
        k = int(bad[0])
        raise SampleError(k, link_out_of_range(config, link, float(gain.flat[k]), names))
    return gain


def relay_ue_gains(
    config: SystemConfig, xs: np.ndarray, ys: np.ndarray, x_pin_m: float | np.ndarray
) -> np.ndarray:
    """Array form of :func:`~.model.relay_ue_gain` for users ``(xs, ys)``, equal to it per element.

    ``x_pin_m`` is one position for every user or one per user, on the
    waveguide.  Like the scalar form it leaves the gain unchecked.
    """
    dx = xs - x_pin_m
    height = config.waveguide_height_m
    distance = np.sqrt(dx * dx + ys * ys + height * height)
    attenuation = libm_each(math.exp, -config.waveguide_attenuation_per_m * x_pin_m)
    return attenuation * _free_space(distance, config.carrier_frequency_hz)


def optimal_pin_positions(config: SystemConfig, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Array form of :func:`~.optimize.optimal_pin_position` for users ``(xs, ys)``, equal to it per element.

    Returns ``(x_pins, g2_sq)``: each user's pinch point and the unchecked |g2|^2 it was chosen by.
    """
    length = config.waveguide_length_m
    alpha = config.waveguide_attenuation_per_m
    if alpha == 0.0:
        x_pins = np.minimum(np.maximum(xs, 0.0), length)
        return x_pins, relay_ue_gains(config, xs, ys, x_pins)
    height = config.waveguide_height_m
    c_const = ys * ys + height * height
    delta = 4.0 - 4.0 * alpha * alpha * c_const
    root = np.sqrt(np.maximum(1.0 - alpha * alpha * c_const, 0.0))  # used only where delta >= 0
    candidate = np.minimum(np.maximum(xs - (1.0 - root) / alpha, 0.0), length)
    at_candidate = relay_ue_gains(config, xs, ys, candidate)
    at_feed = relay_ue_gains(config, xs, ys, 0.0)
    wins = (delta >= 0.0) & (at_candidate > at_feed)
    return np.where(wins, candidate, 0.0), np.where(wins, at_candidate, at_feed)


class _Scheme(NamedTuple):
    fields: tuple[str, ...]  # the SystemConfig fields that ``users`` reads
    users: Callable[[SystemConfig, np.ndarray, np.ndarray, np.ndarray], Any]
    power: Callable[[SystemConfig, Any], tuple[np.ndarray, np.ndarray]]

    def __call__(self, cfg: SystemConfig, xs: np.ndarray, ys: np.ndarray, shadows_db: np.ndarray):
        return self.power(cfg, self.users(cfg, xs, ys, shadows_db))


def _second_hop(cfg: SystemConfig, xs: np.ndarray, ys: np.ndarray, shadows_db: np.ndarray, at_feed: bool = False):
    """Each user's second-hop power gain and amplitude, at the best pinch point or at the feed."""
    g2_sq = relay_ue_gains(cfg, xs, ys, 0.0) if at_feed else optimal_pin_positions(cfg, xs, ys)[1]
    g2_sq = require_link_gain(cfg, "relay-UE", g2_sq, RELAY_UE_FIELDS)
    return g2_sq, np.sqrt(g2_sq)


def _relay_power(cfg: SystemConfig, second_hop: tuple[np.ndarray, np.ndarray]):
    g1_sq, sigma_r_sq_w, sigma_ue_sq_w = bs_relay_gain(cfg), cfg.relay_noise_w, cfg.ue_noise_w
    require_positive(sigma_r_sq_w=sigma_r_sq_w, sigma_ue_sq_w=sigma_ue_sq_w)
    p1, beta_sq, _ = split_power(cfg, g1_sq, sigma_r_sq_w, sigma_ue_sq_w, *second_hop)
    return consumed_power(p1, relay_tx_power(p1, beta_sq, g1_sq, sigma_r_sq_w), cfg), p1


def _direct_power(cfg: SystemConfig, gain: np.ndarray):
    tx = cfg.snr_target_linear * cfg.ue_noise_w / gain
    return benchmark1_total_power_w(cfg, tx), tx


_EVALUATORS = {
    "proposed": _Scheme((*RELAY_UE_FIELDS, "waveguide_length_m"), _second_hop, _relay_power),
    "benchmark1": _Scheme(("bs_relay_distance_m", "carrier_frequency_hz"), benchmark1_link_gain, _direct_power),
    "benchmark2": _Scheme(
        RELAY_UE_FIELDS, lambda cfg, xs, ys, shadows_db: _second_hop(cfg, xs, ys, shadows_db, at_feed=True), _relay_power
    ),
}


def evaluate(scheme: str, cfg: SystemConfig, xs: np.ndarray, ys: np.ndarray, shadows_db: np.ndarray, users: dict):
    """One scheme's (total, BS power) arrays, its user stage reused from ``users`` while its fields hold.

    A total or BS power that is not finite raises :class:`SampleError` at the first user at fault.
    """
    stages = _EVALUATORS[scheme]
    key = tuple(getattr(cfg, name) for name in stages.fields)
    with np.errstate(all="ignore"):  # a non-finite result is reported below, with its sample
        if scheme not in users or users[scheme][0] != key:
            users[scheme] = key, stages.users(cfg, xs, ys, shadows_db)
        total, bs_w = stages.power(cfg, users[scheme][1])
    bad = np.flatnonzero(~(np.isfinite(total) & np.isfinite(bs_w)))
    if bad.size:
        k = int(bad[0])
        raise SampleError(k, f"total power {float(total[k])!r} W and BS power {float(bs_w[k])!r} W must be finite")
    return total, bs_w
