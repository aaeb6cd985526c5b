"""Sweep kernel: the array forms of the model, the placement and each scheme.

Every function here evaluates many users at once as numpy arrays, and each
element equals the scalar path (:mod:`.model`, :mod:`.optimize`,
:mod:`.benchmarks`) bit for bit: squares are written as products, arithmetic
runs in the scalar expressions' order, square roots are ``np.sqrt``, correctly
rounded like ``math.sqrt``, and the two libm calls left, the placement's ``exp``
at each user's candidate pinch point and the shadowing's ``pow``, go through
:mod:`math` per element (:func:`libm_each`), because numpy's vectorised versions
round differently from libm on a few percent of inputs; the feed's ``exp(-0.0)``
is one ``math.exp``.  No gain, placement root or power split is written here:
each stage calls the scalar modules' operator-only forms on arrays.
The scalar modules import no numpy, so a single-point solve never loads it.
:func:`exact_sum` gives the sweep's means: ``math.fsum`` of each row of a
block, bit for bit, from one error-free split of the whole block where it can.
The direct scheme's stages pass its parts an in-place ``np.sqrt`` and
``math.pow`` per element, and check no draw: ``DOMAIN`` keeps the coverage
rectangle inside ``UE_DOMAIN``, and a shadow past ``SHADOW_DB_DOMAIN`` would be
a 30-standard-deviation draw.

The sweep runs one fixed pipeline of stages, ``_STAGES`` in run order, each stage
a row with the SystemConfig fields it reads, the draws and earlier stages it
takes, and its function; there are eight.  The relay schemes differ only in
their second hop's |g2|^2: at the chosen pinch point for the proposed scheme, at
the feed for the fixed-antenna one.  They share the link stage (|g1|^2, both
noise powers and the split's link factors).  The second-hop stage places the
pinch point itself, as the array form of :func:`~.optimize.optimal_pin_position`:
it computes the feed's gain, weighs each user's candidate against it, and stacks
the root of the chosen gain and of the feed's as the two rows of a (2, N) array,
keeping no pinch position, so that one terms stage (the split's per-user link
part) and one power stage (its target part and the power accounting) serve both.
The direct scheme's stages are geometry, shadowing, path loss and power.
``_OUTPUTS`` names each scheme's power stage and its row there.  Every stage
runs, whichever schemes are asked for; the schemes pick only the rows that
:func:`sweep_sums` sums.  A stage runs at each value when it reads the swept
field or takes a stage that does (:func:`_per_value`), and once otherwise.
:func:`sweep_sums` runs the whole sweep in one loop: at the first value it draws
the users and runs the once-stages, and at each value the per-value stages,
whose picked rows it copies into one block and sums.  One rule bounds memory:
after the once-stages only what a per-value stage or an output reads is kept,
and each value's results are dropped once its rows are copied out.  Each stage
runs through :func:`_run`.  Over the inputs' domain
(:data:`~.model.DOMAIN`) every element is finite, as on the scalar path.
"""

from __future__ import annotations

import itertools
import math
from functools import partial
from typing import Any, Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .benchmarks import SHADOWING_STD_DB, benchmark1_total_power_w, direct_path_gain, direct_tx_power_w
from .benchmarks import ground_distance_m, shadowing_gain
from .model import LINK_FIELDS, NOISE_FIELDS, SystemConfig, consumed_power, relay_tx_power, unchecked_relay_ue_gain
from .optimize import link_budget, split_powers, split_terms, stationary_root, target_factors


def libm_each(fn: Callable[..., float], *args: float | np.ndarray) -> np.ndarray:
    """``fn``, a :mod:`math` function, applied to each element of the array arguments.

    Float arguments repeat for every element; at least one argument is an array.  Calling libm
    keeps each element equal to the scalar code's result, which numpy's vectorised ``exp`` and
    ``pow`` do not.  It has two callers, the second-hop stage's ``exp`` at each user's candidate
    pinch point and the shadowing stage's ``pow``.  An array is read through its buffer (a
    ``memoryview``), not copied to a list.
    """
    size = next(a.size for a in args if isinstance(a, np.ndarray))
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


class _Stage(NamedTuple):
    fields: tuple[str, ...]  # the SystemConfig fields ``run`` reads
    inputs: tuple[str, ...]  # what ``run`` takes after the config: draws ("xs", "ys", "shadows") or stages
    run: Callable[..., Any]


def _second_hop(cfg: SystemConfig, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    # optimize.optimal_pin_position over arrays, keeping the chosen |g2|^2 and not the pinch point:
    # at alpha = 0 too, the clamped candidate wins only where it radiates more than the feed
    feed = unchecked_relay_ue_gain(cfg, xs, ys, 0.0, np.sqrt, math.exp)
    discriminant, x2 = stationary_root(cfg, xs, ys, np.sqrt)
    candidate = np.minimum(np.maximum(x2, 0.0), cfg.waveguide_length_m)
    at_candidate = unchecked_relay_ue_gain(cfg, xs, ys, candidate, np.sqrt, partial(libm_each, math.exp))
    wins = (discriminant >= 0.0) & (at_candidate > feed)
    amplitudes = np.stack((np.where(wins, at_candidate, feed), feed))
    return np.sqrt(amplitudes, out=amplitudes)  # the split reads the second hop's amplitude


def _relay_terms(cfg: SystemConfig, budget: tuple, g2: np.ndarray):
    return split_terms(budget[3], g2)


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
# In run order: each stage after the draws and stages it takes.
_STAGES = {
    "link": _Stage((*LINK_FIELDS["BS-relay"], *NOISE_FIELDS), (), link_budget),
    "second_hop": _Stage((*LINK_FIELDS["relay-UE"], "waveguide_length_m"), ("xs", "ys"), _second_hop),
    "relay_terms": _Stage((), ("link", "second_hop"), _relay_terms),
    "relay_power": _Stage(_RELAY_POWER_FIELDS, ("link", "relay_terms"), _relay_power),
    "geometry": _Stage((), ("xs", "ys"), lambda cfg, xs, ys: ground_distance_m(xs, ys, lambda a: np.sqrt(a, out=a))),
    "shadowing": _Stage((), ("shadows",), lambda cfg, db: shadowing_gain(db, partial(libm_each, math.pow))),
    "path_loss": _Stage(LINK_FIELDS["direct"], ("geometry", "shadowing"), direct_path_gain),
    "benchmark1_power": _Stage(("snr_target_linear", "pa_efficiency"), ("link", "path_loss"), _direct_power),
}
# Each scheme's (total, BS power) stage and its row there (``...``: the whole array); a relay
# scheme's row is that of its |g2|^2 in second_hop.
_OUTPUTS = {"proposed": ("relay_power", 0), "benchmark1": ("benchmark1_power", ...), "benchmark2": ("relay_power", 1)}


def _per_value(field: str) -> list[str]:
    """The stages, in run order, that a sweep over ``field`` reaches: those that read it or take one that does."""
    per_value: list[str] = []
    for name, stage in _STAGES.items():
        if field in stage.fields or any(i in per_value for i in stage.inputs):
            per_value.append(name)
    return per_value


def _run(name: str, cfg: SystemConfig, results: dict) -> None:
    stage = _STAGES[name]
    results[name] = stage.run(cfg, *[results[i] for i in stage.inputs])


def sweep_sums(
    schemes: tuple[str, ...], field: str, configs: Iterable[SystemConfig], n: int, seed: int
) -> Iterator[list[float]]:
    """An iterator over ``configs`` that gives, at each, the sums of each scheme's total and BS power
    over ``n`` users, two per scheme in order, each ``math.fsum``'s bit for bit (:func:`exact_sum`).

    The configs differ in ``field`` alone, which is no coverage field.  At the first config the users
    are drawn from ``np.random.default_rng(seed)``: x, then y, then the shadowing, whichever schemes
    run, and reused at every config.  The stages ``field`` does not reach run there too, once, and
    only the draws and results that a per-value stage or an asked-for output reads are kept; the
    rest run at every config and release their results once the value's rows are copied out, before
    the rows are summed, so memory does not grow with the number of configs.  Every stage runs,
    whichever schemes are asked for, and both relay schemes run as rows of the same arrays.
    """
    per_value, outputs = _per_value(field), [_OUTPUTS[scheme] for scheme in schemes]
    block = np.empty((2 * len(schemes), n))  # one value's rows: total and BS power per scheme
    results: dict = {}
    for k, cfg in enumerate(configs):
        if k == 0:
            rng = np.random.default_rng(seed)
            results["xs"] = rng.uniform(0.0, cfg.coverage_x_m, n)
            results["ys"] = rng.uniform(0.0, cfg.coverage_y_m, n)
            results["shadows"] = rng.normal(0.0, SHADOWING_STD_DB, n)
            for name in _STAGES:
                if name not in per_value:
                    _run(name, cfg, results)
            read = {i for name in per_value for i in _STAGES[name].inputs}.union(stage for stage, _ in outputs)
            results = {i: result for i, result in results.items() if i in read}
        for name in per_value:
            _run(name, cfg, results)
        for i, (stage, index) in enumerate(outputs):
            # no name is bound to the stage's arrays, so none outlives the release below
            block[2 * i], block[2 * i + 1] = (array[index] for array in results[stage])
        for name in per_value:
            del results[name]
        yield exact_sum(block)
