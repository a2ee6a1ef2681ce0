"""Instruments that time wasslab from outside, by wrapping its public functions.

A wrapper replaces a function in every loaded wasslab module that binds
it, so calls between wasslab's own modules are caught too; `remove` puts
the originals back.

`SegmentClock` marks every entry to and exit from one function, the
solver by default.  The marks cut an item's run into segments, most under
a millisecond, which the benchmark times separately (see run.py).

`Tracer` records per-layer spans: calls, inclusive time and self time
(inclusive time minus the time of traced calls made inside it).  Spans are
recorded only between `begin_item` and `end_item`, so the benchmark's own
checks stay out.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, function) of every layer boundary the tracer times
TRACED = (
    ("discrete_measure", "validate_measure"),
    ("ot_exact", "wasserstein_exact"),
    ("wgeom", "sphere_sample"),
    ("wgeom", "displacement_path"),
    ("wgeom", "busemann_estimate"),
    ("viscosity", "viscosity_sphere_test"),
    ("viscosity", "dlg_test"),
    ("viscosity", "greedy_descent"),
)
SOLVE = "ot_exact.wasserstein_exact"
PACKAGE = "wasslab"


def _patch(targets, make_wrapper) -> list[tuple[object, str, object]]:
    """Wrap each (module, function) wherever a wasslab module binds it."""
    modules = [m for n, m in list(sys.modules.items())
               if n == PACKAGE or n.startswith(PACKAGE + ".")]
    patches = []
    for mod_name, fn_name in targets:
        orig = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name)
        wrapper = make_wrapper(f"{mod_name}.{fn_name}", orig)
        for mod in modules:
            if getattr(mod, fn_name, None) is orig:
                patches.append((mod, fn_name, orig))
                setattr(mod, fn_name, wrapper)
    return patches


def _unpatch(patches) -> None:
    for mod, fn_name, orig in reversed(patches):
        setattr(mod, fn_name, orig)
    patches.clear()


class SegmentClock:
    def __init__(self, target: tuple[str, str] = ("ot_exact", "wasserstein_exact")):
        self.target = target
        self.marks: list[float] = []
        self._patches: list = []

    def install(self) -> None:
        marks, perf = self.marks, time.perf_counter

        def make_wrapper(name, fn):
            def clocked(*args, **kwargs):
                marks.append(perf())
                try:
                    return fn(*args, **kwargs)
                finally:
                    marks.append(perf())
            return clocked
        self._patches = _patch([self.target], make_wrapper)

    def remove(self) -> None:
        _unpatch(self._patches)


class Tracer:
    def __init__(self):
        self.recording = False
        self._stack: list[float] = [0.0]
        self._stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.solve_args: list[tuple] = []
        self._patches: list = []

    def _wrap(self, name: str, fn):
        stack, stats, solve_args = self._stack, self._stats, self.solve_args
        perf = time.perf_counter

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            if name == SOLVE:
                solve_args.append((args, kwargs))
            stack.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                child = stack.pop()
                stack[-1] += dur
                rec = stats[name]
                rec[0] += 1
                rec[1] += dur - child
                rec[2] += dur
        return traced

    def install(self) -> None:
        self._patches = _patch(TRACED, self._wrap)

    def remove(self) -> None:
        _unpatch(self._patches)

    def begin_item(self) -> None:
        self._stats.clear()
        self._stack[:] = [0.0]
        self.recording = True

    def end_item(self) -> dict[str, tuple[int, float, float]]:
        """(calls, self seconds, inclusive seconds) per traced function."""
        self.recording = False
        return {k: tuple(v) for k, v in self._stats.items()}

    def take_repeat_share(self) -> float:
        """Share of solves since the last call that repeat an earlier (mu, nu, p)."""
        seen = set()
        repeats = 0
        for args, kwargs in self.solve_args:
            p = args[2] if len(args) > 2 else kwargs.get("p", 2.0)
            key = (args[0].cache_key(), args[1].cache_key(), float(p))
            repeats += key in seen
            seen.add(key)
        share = repeats / len(self.solve_args) if self.solve_args else 0.0
        self.solve_args.clear()
        return share
