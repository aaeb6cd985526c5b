"""Sweep kernel: the array forms of the model, the placement and each scheme.

Every function here evaluates many users at once as numpy arrays, and each
element equals the scalar path (:mod:`.model`, :mod:`.optimize`,
:mod:`.benchmarks`) bit for bit: squares are written as products, arithmetic
runs in the scalar expressions' order, and ``exp``/``pow``/``hypot`` go
through :mod:`math` per element (:func:`libm_each`), because numpy's
vectorised versions round differently from libm on a few percent of inputs.
The scalar modules import no numpy, so a single-point solve never loads it.
:func:`exact_sum` gives the sweep's means: ``math.fsum`` of each row of a
block, bit for bit, from one error-free split of the whole block where it can.
The direct scheme's link gain also takes floats or arrays
(:func:`.benchmarks.benchmark1_link_gain` and its three parts), and imports
numpy and this module when it is called.

Each scheme is a chain of stages (``_EVALUATORS``), each stage a row of
``_STAGES``: the SystemConfig fields it reads, the draws and earlier stages it
takes, and its function.  The relay schemes share the link stage (|g1|^2, both
noise powers and the split's link factors) and the feed stage (each user's
|g2|^2 at the feed, which the placement stage compares its candidates with);
each has a terms stage, which computes the split's per-user terms from the root
of its second hop's |g2|^2, once per second hop and link, so that its power
stage at each sweep value is the split's target part and the power accounting
alone.  The direct scheme's stages are geometry, shadowing, path loss and
power.  :func:`evaluate`, the one way to run a scheme, runs its power stage at
every call and reruns an earlier stage only when a field that it or a stage
before it reads changes.  Over the inputs' domain (:data:`~.model.DOMAIN`)
every element is finite, as on the scalar path.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Any, Callable, NamedTuple

import numpy as np

from .benchmarks import benchmark1_total_power_w, direct_path_gain, direct_tx_power_w, ground_distance_m, shadowing_gain
from .model import LINK_FIELDS, NOISE_FIELDS, SystemConfig, consumed_power, relay_tx_power, unchecked_relay_ue_gain
from .optimize import link_budget, split_powers, split_terms, stationary_root, target_factors


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


def exact_sum(a: np.ndarray) -> list[float] | float:
    """``math.fsum`` of each row of a 2-D float64 array, bit for bit, from error-free splits.

    Returns one sum per row; a 1-D array is one row, and gives its sum as a float.
    A power of two ``sigma`` >= (n + 2) max|a| splits each element into a high
    part ``q = (a + sigma) - sigma``, a multiple of ulp(sigma)/2 whose partial
    sums below sigma are all exact, and an exact remainder ``r = a - q`` (Rump,
    Ogita and Oishi, "Accurate floating-point summation, part I", 2008).  A row's
    sum of remainders errs by at most ``n*n*2**-53*ulp(sigma)`` in any order, and
    its result is returned when that bound and the rounding error of ``hi + lo``
    certify that it is the correctly rounded sum.  One sigma splits the whole
    block unless some row's largest element lies within ``n ulp(sigma)/2`` of 0,
    where that row's sum has an ulp below the bound; then every row is split on
    its own sigma, as a 1-D array, and so is a row the block's sigma does not
    certify.  A row its own sigma does not certify (a tie, cancellation to about
    0, n >= 2**26), or that holds a value not finite or with magnitude outside
    ``_SPLIT_RANGE``, is ``math.fsum``, with its errors.
    """
    n = a.shape[-1]
    rows = a.reshape(-1, n)
    buf = np.abs(rows)
    tops = np.maximum.reduce(buf, axis=1).tolist() if n else [0.0] * len(rows)
    sums = None
    if all(_SPLIT_RANGE[0] < top < _SPLIT_RANGE[1] for top in tops):  # a nan fails too
        exponent = math.frexp(max(tops))[1] + (n + 2).bit_length()  # sigma = 2**exponent
        # a row whose elements all lie within n ulp(sigma)/2 of 0 has a sum whose ulp is below the bound
        if len(rows) == 1 or min(tops) > math.ldexp(n, exponent - 53):
            sigma = math.ldexp(1.0, exponent)
            np.add(rows, sigma, out=buf)
            np.subtract(buf, sigma, out=buf)
            his = np.add.reduce(buf, axis=1).tolist()
            np.subtract(rows, buf, out=buf)
            los = np.add.reduce(buf, axis=1).tolist()
            bound = n * n * 2.0**-53 * math.ulp(sigma)
            sums = []
            for k, (hi, lo) in enumerate(zip(his, los)):
                h = hi + lo
                lo_part = h - hi
                err = (hi - (h - lo_part)) + (lo - lo_part)  # h + err == hi + lo exactly (TwoSum)
                # the half-gap to h's neighbours; the one toward 0 is half as wide at a power of two
                half_gap = math.ulp(h) / (4.0 if abs(math.frexp(h)[0]) == 0.5 else 2.0)
                if abs(err) + bound < half_gap:
                    sums.append(h)
                else:  # not certified on the block's sigma: on the row's own, or by math.fsum
                    sums.append(exact_sum(rows[k]) if len(rows) > 1 else math.fsum(memoryview(rows[k])))
    if sums is None:
        del buf  # each row's split takes its own
        sums = [exact_sum(row) for row in rows] if len(rows) > 1 else [math.fsum(memoryview(rows[0]))]
    return sums if a.ndim > 1 else sums[0]


def libm_exp(x: float | np.ndarray) -> float | np.ndarray:
    """``math.exp`` of each element (:func:`libm_each`): the ``exp`` the model's array gains take."""
    return libm_each(math.exp, x)


def optimal_pin_positions(config: SystemConfig, xs: np.ndarray, ys: np.ndarray, at_feed: np.ndarray) -> tuple:
    """Array form of :func:`~.optimize.optimal_pin_position` for users ``(xs, ys)``, equal to it per element.

    ``at_feed`` is each user's |g2|^2 at the feed.  Returns ``(x_pins, g2_sq)``: each user's pinch point
    and the unchecked |g2|^2 it was chosen by.  At alpha = 0 too, the candidate ``x2`` clamped to the
    waveguide wins only where it radiates more than the feed.
    """
    discriminant, x2 = stationary_root(config, xs, ys, np.sqrt)
    candidate = np.minimum(np.maximum(x2, 0.0), config.waveguide_length_m)
    at_candidate = unchecked_relay_ue_gain(config, xs, ys, candidate, np.sqrt, libm_exp)
    wins = (discriminant >= 0.0) & (at_candidate > at_feed)
    return np.where(wins, candidate, 0.0), np.where(wins, at_candidate, at_feed)


class _Stage(NamedTuple):
    fields: tuple[str, ...]  # the SystemConfig fields ``run`` reads
    inputs: tuple[str, ...]  # what ``run`` takes after the config: draws ("xs", "ys", "shadows") or stages
    run: Callable[..., Any]


def _feed(cfg: SystemConfig, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    return unchecked_relay_ue_gain(cfg, xs, ys, 0.0, np.sqrt, libm_exp)


def _placement(cfg: SystemConfig, xs: np.ndarray, ys: np.ndarray, feed: np.ndarray) -> np.ndarray:
    return optimal_pin_positions(cfg, xs, ys, feed)[1]


def _terms(cfg: SystemConfig, budget: tuple, g2_sq: np.ndarray):
    _, _, _, link = budget
    return split_terms(link, np.sqrt(g2_sq))  # the split reads the second hop's amplitude


def _relay_power(cfg: SystemConfig, budget: tuple, terms):
    g1_sq, sigma_r_sq_w, sigma_ue_sq_w, _ = budget
    target = target_factors(cfg.snr_target_linear, cfg.pa_efficiency, g1_sq, sigma_r_sq_w, sigma_ue_sq_w)
    p1, beta_sq = split_powers(target, *terms)
    return consumed_power(p1, relay_tx_power(p1, beta_sq, g1_sq, sigma_r_sq_w), cfg), p1


def _direct_power(cfg: SystemConfig, budget: tuple, gain: np.ndarray):
    _, _, sigma_ue_sq_w, _ = budget
    tx = direct_tx_power_w(cfg.snr_target_linear, sigma_ue_sq_w, gain)
    return benchmark1_total_power_w(cfg, tx), tx


_RELAY_POWER_FIELDS = ("snr_target_linear", "pa_efficiency", "relay_circuit_power_w", "bs_rf_chain_power_w")
_STAGES = {
    "link": _Stage((*LINK_FIELDS["BS-relay"], *NOISE_FIELDS), (), link_budget),
    "feed": _Stage(LINK_FIELDS["relay-UE"], ("xs", "ys"), _feed),
    "placement": _Stage((*LINK_FIELDS["relay-UE"], "waveguide_length_m"), ("xs", "ys", "feed"), _placement),
    "proposed_terms": _Stage((), ("link", "placement"), _terms),
    "proposed_power": _Stage(_RELAY_POWER_FIELDS, ("link", "proposed_terms"), _relay_power),
    "geometry": _Stage((), ("xs", "ys"), lambda cfg, xs, ys: ground_distance_m(xs, ys)),
    "shadowing": _Stage((), ("shadows",), lambda cfg, shadows_db: shadowing_gain(shadows_db)),
    "path_loss": _Stage(LINK_FIELDS["direct"], ("geometry", "shadowing"), direct_path_gain),
    "benchmark1_power": _Stage(("snr_target_linear", "pa_efficiency"), ("link", "path_loss"), _direct_power),
    "benchmark2_terms": _Stage((), ("link", "feed"), _terms),
    "benchmark2_power": _Stage(_RELAY_POWER_FIELDS, ("link", "benchmark2_terms"), _relay_power),
}
# Each scheme's stages, each after the stages it takes; the last gives (total, BS power).
_EVALUATORS = {
    "proposed": ("link", "feed", "placement", "proposed_terms", "proposed_power"),
    "benchmark1": ("geometry", "shadowing", "path_loss", "link", "benchmark1_power"),
    "benchmark2": ("link", "feed", "benchmark2_terms", "benchmark2_power"),
}


def _upstream_fields(name: str) -> tuple[str, ...]:
    """The fields that a stage or any stage before it reads: its result depends on these and the draws alone."""
    stage = _STAGES[name]
    before = (field for i in stage.inputs if i in _STAGES for field in _upstream_fields(i))
    return tuple(dict.fromkeys((*stage.fields, *before)))


def _key(fields: tuple[str, ...]) -> Callable[[SystemConfig], Any]:
    """A config's values of ``fields``, read in one C call; with no fields, ``()``."""
    return operator.attrgetter(*fields) if fields else lambda cfg: ()


# Each stage's key: the values of its upstream fields at a config
_KEYS = {name: _key(_upstream_fields(name)) for name in _STAGES}


def evaluate(scheme: str, cfg: SystemConfig, xs: np.ndarray, ys: np.ndarray, shadows_db: np.ndarray, cache: dict):
    """One scheme's (total, BS power) arrays at ``cfg`` for the users ``(xs, ys)`` and shadowing draws.

    The scheme's last stage, its power stage, runs at every call.  ``cache`` keeps the latest result
    of each stage before it, for one set of draws (start with ``{}``), and such a stage reruns only
    when a field that it or a stage before it reads differs from that result's.
    """
    draws = {"xs": xs, "ys": ys, "shadows": shadows_db}
    *before, last = _EVALUATORS[scheme]
    for name in before:
        key = _KEYS[name](cfg)
        held = cache.get(name)
        if held is None or held[0] != key:
            cache[name] = key, _run(name, cfg, draws, cache)
    return _run(last, cfg, draws, cache)


def _run(name: str, cfg: SystemConfig, draws: dict, cache: dict):
    stage = _STAGES[name]
    return stage.run(cfg, *[draws[i] if i in draws else cache[i][1] for i in stage.inputs])
