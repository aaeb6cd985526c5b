"""Sweep kernel: the array forms of the model, the placement and each scheme.

Every function here evaluates many users at once as numpy arrays, and each
element equals the scalar path (:mod:`.model`, :mod:`.optimize`,
:mod:`.benchmarks`) bit for bit: squares are written as products, arithmetic
runs in the scalar expressions' order, square roots are ``np.sqrt``, correctly
rounded like ``math.sqrt``, and the two libm calls left, the placement's ``exp``
and the shadowing's ``pow``, go through :mod:`math` per element
(:func:`libm_each`), because numpy's vectorised versions round differently from
libm on a few percent of inputs.  No gain, placement root or power split is
written here: each stage calls the scalar modules' operator-only forms on arrays.
The scalar modules import no numpy, so a single-point solve never loads it.
:func:`exact_sum` gives the sweep's means: ``math.fsum`` of each row of a
block, bit for bit, from one error-free split of the whole block where it can.
The direct scheme's link gain also takes floats or arrays
(:func:`.benchmarks.benchmark1_link_gain` and its three parts), and imports
numpy and this module when it is called.

The sweep runs one fixed pipeline of stages, ``_STAGES`` in run order, each stage
a row with the SystemConfig fields it reads, the draws and earlier stages it
takes, and its function; there are eight.  The relay schemes differ only in
their second hop's |g2|^2: at the chosen pinch point for the proposed scheme, at
the feed for the fixed-antenna one.  They share the link stage (|g1|^2, both
noise powers and the split's link factors), and the second-hop stage computes
the feed's gain, places the pinch point against it and stacks the root of both
as the two rows of a (2, N) array, so that one terms stage (the split's per-user
link part) and one power stage (its target part and the power accounting) serve
both.  The direct scheme's stages are geometry, shadowing, path loss and power.
``_OUTPUTS`` names each scheme's power stage and its row there.  Every stage
runs, whichever schemes are asked for; the schemes pick only the rows that
:func:`sweep_sums` sums.  :func:`_plan` splits the stages, in one pass over them,
into those that read the swept field or take a stage that does, which run at
each value, and the rest, which run once.  :func:`sweep_sums` runs the whole
sweep in one loop: at the first value it draws the users and runs the
once-stages, and at each value the per-value stages, whose picked rows it copies
into one block and sums.  A result or draw is kept only while a later stage
still reads it, and a per-value result only until the value's rows are copied
out.  Each stage runs through :func:`_run`.  Over the inputs' domain
(:data:`~.model.DOMAIN`) every element is finite, as on the scalar path.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Any, Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .benchmarks import SHADOWING_STD_DB, benchmark1_total_power_w, direct_path_gain, direct_tx_power_w
from .benchmarks import ground_distance_m, shadowing_gain
from .model import LINK_FIELDS, NOISE_FIELDS, SystemConfig, consumed_power, relay_tx_power, unchecked_relay_ue_gain
from .optimize import link_budget, split_powers, split_terms, stationary_root, target_factors


def libm_each(fn: Callable[..., float], *args: float | np.ndarray) -> float | np.ndarray:
    """``fn``, a :mod:`math` function, applied to each element of the array arguments.

    Float arguments repeat for every element; with no array argument this is
    plain ``fn(*args)``.  Calling libm keeps each element equal to the scalar
    code's result, which numpy's vectorised ``exp`` and ``pow`` do not.  It has
    two callers, the placement's ``exp`` (:func:`libm_exp`) and the shadowing's ``pow``.
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


def _second_hop(cfg: SystemConfig, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    feed = unchecked_relay_ue_gain(cfg, xs, ys, 0.0, np.sqrt, libm_exp)
    amplitudes = np.stack((optimal_pin_positions(cfg, xs, ys, feed)[1], feed))
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
    "geometry": _Stage((), ("xs", "ys"), lambda cfg, xs, ys: ground_distance_m(xs, ys)),
    "shadowing": _Stage((), ("shadows",), lambda cfg, shadows_db: shadowing_gain(shadows_db)),
    "path_loss": _Stage(LINK_FIELDS["direct"], ("geometry", "shadowing"), direct_path_gain),
    "benchmark1_power": _Stage(("snr_target_linear", "pa_efficiency"), ("link", "path_loss"), _direct_power),
}
# Each scheme's (total, BS power) stage and its row there (``...``: the whole array); a relay
# scheme's row is that of its |g2|^2 in second_hop.
_OUTPUTS = {"proposed": ("relay_power", 0), "benchmark1": ("benchmark1_power", ...), "benchmark2": ("relay_power", 1)}


class _Plan(NamedTuple):
    once: tuple[tuple[str, tuple[str, ...]], ...]  # the stages the swept field does not reach, with what each releases
    per_value: tuple[str, ...]  # the rest


# Cached: a plan takes 12-17 us to make (2-vCPU Xeon, CPython 3.11), a third of a whole fig1 value.
@functools.cache
def _plan(field: str | None) -> _Plan:
    """The stages split by whether a sweep over ``field`` reaches them: those that read it or take a
    stage that does.

    A result or draw that no per-value stage or output reads is released after the last once-stage
    that reads it.
    """
    per_value: list[str] = []
    for name, stage in _STAGES.items():
        if field in stage.fields or any(i in per_value for i in stage.inputs):
            per_value.append(name)
    once = [name for name in _STAGES if name not in per_value]
    kept = {i for name in per_value for i in _STAGES[name].inputs}.union(stage for stage, _ in _OUTPUTS.values())
    last = {i: k for k, name in enumerate(once) for i in _STAGES[name].inputs}  # each result's last once-stage reader
    released = [tuple(i for i, j in last.items() if j == k and i not in kept) for k in range(len(once))]
    return _Plan(tuple(zip(once, released)), tuple(per_value))


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
    run, and reused at every config.  The stages ``field`` does not reach run there too, once, each
    releasing the results and draws that no later stage or output reads; the rest run at every
    config and release their results once the value's rows are copied out, before the rows are
    summed, so memory does not grow with the number of configs.  Every stage runs, whichever
    schemes are asked for, and both relay schemes run as rows of the same arrays.
    """
    plan, outputs = _plan(field), [_OUTPUTS[scheme] for scheme in schemes]
    block = np.empty((2 * len(schemes), n))  # one value's rows: total and BS power per scheme
    results: dict = {}
    for k, cfg in enumerate(configs):
        if k == 0:
            rng = np.random.default_rng(seed)
            results["xs"] = rng.uniform(0.0, cfg.coverage_x_m, n)
            results["ys"] = rng.uniform(0.0, cfg.coverage_y_m, n)
            results["shadows"] = rng.normal(0.0, SHADOWING_STD_DB, n)
            for name, released in plan.once:
                _run(name, cfg, results)
                for i in released:
                    del results[i]
        for name in plan.per_value:
            _run(name, cfg, results)
        for i, (stage, index) in enumerate(outputs):
            # no name is bound to the stage's arrays, so none outlives the release below
            block[2 * i], block[2 * i + 1] = (array[index] for array in results[stage])
        for name in plan.per_value:
            del results[name]
        yield exact_sum(block)
