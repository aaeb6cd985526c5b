"""Sweep kernel: the array forms of the model, the placement and each scheme.

Every function here evaluates many users at once as numpy arrays, and each
element equals the scalar path (:mod:`.model`, :mod:`.optimize`,
:mod:`.benchmarks`) bit for bit: squares are written as products, arithmetic
runs in the scalar expressions' order, and ``exp``/``pow``/``hypot`` go
through :mod:`math` per element (:func:`libm_each`), because numpy's
vectorised versions round differently from libm on a few percent of inputs.
The scalar modules import no numpy, so a single-point solve never loads it.
:func:`exact_sum` gives the sweep's means: ``math.fsum`` bit for bit, from
one error-free split of the array.
One function outside this module also takes floats or arrays:
:func:`.benchmarks.benchmark1_link_gain`, which imports numpy and this
module when it is called.

Each scheme is two stages.  Its user stage does the per-user work (placement
and the second-hop gain, or the direct link's gain) and reads only the
SystemConfig fields it declares; its power stage turns that into total and BS
power at one config.  :func:`evaluate`, the one way to run a scheme, reruns a
user stage only when one of those fields changes.  Over the inputs' domain
(:data:`~.model.DOMAIN`) every element is finite, as on the scalar path.
"""

from __future__ import annotations

import itertools
import math
from functools import partial
from typing import Any, Callable, NamedTuple

import numpy as np

from .benchmarks import benchmark1_link_gain, benchmark1_total_power_w, direct_tx_power_w
from .model import LINK_FIELDS, SystemConfig, _free_space, consumed_power, relay_tx_power
from .optimize import link_constants, split_per_user


def libm_each(fn: Callable[..., float], *args: float | np.ndarray) -> float | np.ndarray:
    """``fn``, a :mod:`math` function, applied to each element of the array arguments.

    Float arguments repeat for every element; with no array argument this is
    plain ``fn(*args)``.  Calling libm keeps each element equal to the scalar
    code's result, which numpy's vectorised ``exp``/``pow``/``hypot`` do not.
    An array is read through its buffer (a ``memoryview``), not copied to a list.
    """
    size = next((a.size for a in args if isinstance(a, np.ndarray)), None)
    if size is None:
        return fn(*args)
    columns = [memoryview(a) if isinstance(a, np.ndarray) else itertools.repeat(a) for a in args]
    return np.fromiter(map(fn, *columns), float, size)


# exact_sum's split needs max|a| in this range: its constant and its error bound stay normal floats
_SPLIT_RANGE = (2.0**-900, 2.0**900)


def exact_sum(a: np.ndarray) -> float:
    """``math.fsum(a)`` bit for bit for a 1-D float64 array, from one error-free split.

    A power of two ``sigma`` >= (n + 2) max|a| splits each element into a high
    part ``q = (a + sigma) - sigma``, a multiple of ulp(sigma)/2 whose partial
    sums below sigma are all exact, and an exact remainder ``r = a - q``
    (Rump, Ogita and Oishi, "Accurate floating-point summation, part I", 2008).
    The sum of the remainders errs by at most ``n*n*2**-53*ulp(sigma)`` in any
    order.  The result is returned when that bound and the rounding error of
    ``hi + lo`` certify that it is the correctly rounded sum; otherwise (a tie,
    cancellation to about 0, a value outside ``_SPLIT_RANGE`` or not finite,
    n >= 2**26) this is ``math.fsum`` itself, with its errors.
    """
    n = a.size
    buf = np.abs(a)
    top = float(np.maximum.reduce(buf)) if n else 0.0
    if _SPLIT_RANGE[0] < top < _SPLIT_RANGE[1]:
        sigma = math.ldexp(1.0, math.frexp(top)[1] + (n + 2).bit_length())
        np.add(a, sigma, out=buf)
        np.subtract(buf, sigma, out=buf)
        hi = float(np.add.reduce(buf))
        np.subtract(a, buf, out=buf)
        lo = float(np.add.reduce(buf))
        h = hi + lo
        lo_part = h - hi
        err = (hi - (h - lo_part)) + (lo - lo_part)  # h + err == hi + lo exactly (TwoSum)
        # the half-gap to h's neighbours; the one toward 0 is half as wide at a power of two
        half_gap = math.ulp(h) / (4.0 if abs(math.frexp(h)[0]) == 0.5 else 2.0)
        if abs(err) + n * n * 2.0**-53 * math.ulp(sigma) < half_gap:
            return h
    return math.fsum(memoryview(a))


def relay_ue_gains(
    config: SystemConfig, xs: np.ndarray, ys: np.ndarray, x_pin_m: float | np.ndarray
) -> np.ndarray:
    """Array form of :func:`~.model.relay_ue_gain` for users ``(xs, ys)``, equal to it per element.

    ``x_pin_m`` is one position for every user or one per user, on the
    waveguide.  Its callers pass the points the placement chose, or the feed,
    whose gains lie in the model's domain, so it leaves the gain unchecked.
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
    discriminant = 1.0 - alpha * alpha * (ys * ys + height * height)
    root = np.sqrt(np.maximum(discriminant, 0.0))  # used only where discriminant >= 0
    candidate = np.minimum(np.maximum(xs - (1.0 - root) / alpha, 0.0), length)
    at_candidate = relay_ue_gains(config, xs, ys, candidate)
    at_feed = relay_ue_gains(config, xs, ys, 0.0)
    wins = (discriminant >= 0.0) & (at_candidate > at_feed)
    return np.where(wins, candidate, 0.0), np.where(wins, at_candidate, at_feed)


class _Scheme(NamedTuple):
    fields: tuple[str, ...]  # the SystemConfig fields that ``users`` reads
    users: Callable[[SystemConfig, np.ndarray, np.ndarray, np.ndarray], Any]
    power: Callable[[SystemConfig, Any], tuple[np.ndarray, np.ndarray]]


def _second_hop(cfg: SystemConfig, xs: np.ndarray, ys: np.ndarray, shadows_db: np.ndarray, at_feed: bool = False):
    """Each user's second-hop power gain and amplitude, at the best pinch point or at the feed."""
    g2_sq = relay_ue_gains(cfg, xs, ys, 0.0) if at_feed else optimal_pin_positions(cfg, xs, ys)[1]
    return g2_sq, np.sqrt(g2_sq)


def _relay_power(cfg: SystemConfig, second_hop: tuple[np.ndarray, np.ndarray]):
    g1_sq, sigma_r_sq_w, _, factors = link_constants(cfg)
    p1, beta_sq, _ = split_per_user(factors, *second_hop)
    return consumed_power(p1, relay_tx_power(p1, beta_sq, g1_sq, sigma_r_sq_w), cfg), p1


def _direct_power(cfg: SystemConfig, gain: np.ndarray):
    tx = direct_tx_power_w(cfg, gain)
    return benchmark1_total_power_w(cfg, tx), tx


_EVALUATORS = {
    "proposed": _Scheme((*LINK_FIELDS["relay-UE"], "waveguide_length_m"), _second_hop, _relay_power),
    "benchmark1": _Scheme(LINK_FIELDS["direct"], benchmark1_link_gain, _direct_power),
    "benchmark2": _Scheme(LINK_FIELDS["relay-UE"], partial(_second_hop, at_feed=True), _relay_power),
}


def evaluate(scheme: str, cfg: SystemConfig, xs: np.ndarray, ys: np.ndarray, shadows_db: np.ndarray, users: dict):
    """One scheme's (total, BS power) arrays, its user stage reused from ``users`` while its fields hold."""
    stages = _EVALUATORS[scheme]
    key = tuple(getattr(cfg, name) for name in stages.fields)
    if scheme not in users or users[scheme][0] != key:
        users[scheme] = key, stages.users(cfg, xs, ys, shadows_db)
    return stages.power(cfg, users[scheme][1])
