"""In-memory span recorder that times calls into pinchrelay from outside it.

A traced function is wrapped at every place its callers look it up: each
global of a ``pinchrelay`` module that is bound to the function object is
rebound to the wrapper.  So ``pinchrelay.sweep.solve``, ``pinchrelay.cli.solve``
and ``pinchrelay.optimize.solve`` all record spans while no source file of the
package changes.  A name that no longer exists in the package is skipped and
reports zero calls.

Spans live in flat arrays (function id, parent span, start, end) and are
turned into per-function calls, total time, self time and errors only when
the run ends.  Self time is a span's duration minus the durations of its
direct child spans.  Both are corrected for the wrapper's own cost, which is
measured on an empty function before the spans are recorded (see
``Tracer.calibrate``).
"""

from __future__ import annotations

import functools
import statistics
import sys
from array import array
from pathlib import Path
from time import perf_counter
from typing import Callable, Sequence

import numpy as np

CALIBRATION_CALLS = 20_000
CALIBRATION_REPEATS = 9


def rebind(package: str, original: object, replacement: object) -> list[tuple[object, str, object]]:
    """Point every global of ``package``'s loaded modules that is ``original``
    at ``replacement``; return the ``(module, name, original)`` patches."""
    prefix = package + "."
    patches = []
    for name, module in list(sys.modules.items()):
        if name != package and not name.startswith(prefix):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
                patches.append((module, key, original))
    return patches


def restore(patches: list[tuple[object, str, object]]) -> None:
    for module, key, original in reversed(patches):
        setattr(module, key, original)
    patches.clear()


class Tracer:
    """Wraps package functions while installed; keeps every span in memory.

    ``names`` are ``"<module>.<function>"`` relative to the package, e.g.
    ``"optimize.solve"``.
    """

    def __init__(self, package: str, names: Sequence[str], max_spans: int) -> None:
        self.package = package
        self.names = tuple(names)
        self.max_spans = max_spans
        self.fn_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.error_spans: list[int] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # Seconds the wrapper adds inside a span's own [start, end] window,
        # and around it (charged to the parent's window); see calibrate().
        self.inner_s = 0.0
        self.outer_s = 0.0
        self._inner: list[float] = []
        self._outer: list[float] = []

    @property
    def full(self) -> bool:
        return len(self.fn_id) >= self.max_spans

    def install(self) -> None:
        for fid, name in enumerate(self.names):
            module_name, attr = name.rsplit(".", 1)
            original = getattr(sys.modules.get(f"{self.package}.{module_name}"), attr, None)
            if original is not None:
                self._patches += rebind(self.package, original, self._wrap(fid, original))

    def uninstall(self) -> None:
        restore(self._patches)

    def _wrap(self, fid: int, fn: Callable) -> Callable:
        fn_ids, parents, starts, ends = self.fn_id, self.parent, self.start, self.end
        stack, errors = self._stack, self.error_spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(fn_ids)
            fn_ids.append(fid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors.append(idx)
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        return traced

    def calibrate(self) -> None:
        """Measure the wrapper's cost per span on an empty function.

        A traced parent calls a traced empty child of two arguments, as most
        traced functions take, ``CALIBRATION_CALLS`` times.  ``inner_s`` is
        the child's mean span, which is wrapper cost plus the call itself.
        ``outer_s`` is what each child adds to the parent's self time over
        the same loop calling the bare empty function just before.  Both are
        medians over the repeats of every call so far: calling this before
        and after the spans are recorded matches the host's speed over them.
        """

        def empty(config, ue):
            pass

        def loop(fn, n):
            for _ in range(n):
                fn(None, None)

        probe = Tracer("", ("loop", "empty"), 2 * CALIBRATION_REPEATS * (CALIBRATION_CALLS + 1))
        traced_loop, traced_empty = probe._wrap(0, loop), probe._wrap(1, empty)
        n = CALIBRATION_CALLS
        for _ in range(CALIBRATION_REPEATS):
            t0 = perf_counter()
            loop(empty, n)
            bare = perf_counter() - t0
            first = len(probe.fn_id)
            traced_loop(traced_empty, n)
            durations = np.array(probe.end[first:]) - np.array(probe.start[first:])
            children = durations[1:].sum()
            self._inner.append(children / n)
            self._outer.append((durations[0] - children - bare) / n)
        self.inner_s = statistics.median(self._inner)
        self.outer_s = max(0.0, statistics.median(self._outer))

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per traced name: ``calls``, ``self_s``, ``total_s`` and ``errors``.

        Each span loses ``inner_s``; its total loses the full wrapper cost
        (``inner_s + outer_s``) of every span below it, and its self time the
        ``outer_s`` of each direct child.
        """
        count = len(self.names)
        fn = np.array(self.fn_id, dtype=np.intc)
        parent = np.array(self.parent, dtype=np.intc)
        duration = np.array(self.end) - np.array(self.start)
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=duration[nested], minlength=fn.size)
        children = np.bincount(parent[nested], minlength=fn.size)
        descendants = np.zeros(fn.size)
        ancestor = parent.copy()
        while (live := ancestor >= 0).any():
            descendants += np.bincount(ancestor[live], minlength=fn.size)
            ancestor[live] = parent[ancestor[live]]
        total_time = duration - self.inner_s - descendants * (self.inner_s + self.outer_s)
        self_time = duration - child_time - self.inner_s - children * self.outer_s
        calls = np.bincount(fn, minlength=count)
        total = np.bincount(fn, weights=total_time, minlength=count)
        own = np.bincount(fn, weights=self_time, minlength=count)
        errors = np.bincount(fn[self.error_spans], minlength=count)
        return {
            name: {
                "calls": float(calls[i]),
                "self_s": float(own[i]),
                "total_s": float(total[i]),
                "errors": float(errors[i]),
            }
            for i, name in enumerate(self.names)
        }

    def dump(self, path: Path) -> None:
        """Write every span, as arrays, and the wrapper cost to an ``.npz`` file."""
        error = np.zeros(len(self.fn_id), dtype=bool)
        error[self.error_spans] = True
        np.savez(
            path,
            names=np.array(self.names),
            fn_id=np.array(self.fn_id, dtype=np.intc),
            parent=np.array(self.parent, dtype=np.intc),
            start=np.array(self.start),
            end=np.array(self.end),
            error=error,
            inner_s=self.inner_s,
            outer_s=self.outer_s,
        )
