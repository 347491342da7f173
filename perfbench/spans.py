"""Span recording for the traced run.

`Tracer.install` replaces each named ncosc function, in every ncosc module
namespace that binds it, with a wrapper that records one span (function,
start, end, parent span) per call. Calls made through names imported into
another module (`propagator.bessel_i`, `spectrum.laguerre_all`) are caught
as well, and nothing under src/ changes. Spans are kept in flat arrays in
memory and written out once, when the run ends.
"""

from __future__ import annotations

import sys
import time
from array import array
from pathlib import Path

import numpy as np

# the public functions whose spans give the per-layer metrics; time in any
# other ncosc function counts towards the span it runs inside
TRACED = {
    "specfun": ("bessel_i", "laguerre_all", "jacobi_all"),
    "model": ("effective_ell", "angular_mode"),
    "spectrum": ("enumerate_states", "full_wavefunction", "radial_profiles"),
    "oracle": ("radial_eigenvalues_fd", "inner_product_radial", "inner_product_angular"),
    "propagator": ("lattice_kernel_grid", "radial_kernel_closed", "radial_kernel_spectral",
                   "full_kernel_spectral"),
    "verify": ("run_check",),
    "cli": ("main",),
}
# functions whose distinct argument sets are counted, to measure repeated work
KEYED = ("model.effective_ell", "propagator.lattice_kernel_grid")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.fn = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.keys: dict[str, set] = {name: set() for name in KEYED}
        self.key_calls: dict[str, int] = dict.fromkeys(KEYED, 0)
        self.returned_items: dict[str, int] = {}
        self.round_fracs: list[dict[str, float]] = []

    def _wrap(self, name: str, func):
        fid = len(self.names)
        self.names.append(name)
        fn, start, end, parent, stack = self.fn, self.start, self.end, self.parent, self._stack
        clock = time.perf_counter
        keys = self.keys.get(name)
        counted = name == "spectrum.enumerate_states"

        def wrapper(*args, **kwargs):
            idx = len(start)
            fn.append(fid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            if keys is not None:
                keys.add((args, tuple(sorted(kwargs.items()))))
                self.key_calls[name] += 1
            start.append(clock())
            try:
                out = func(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if counted:
                self.returned_items[name] = self.returned_items.get(name, 0) + len(out)
            return out

        return wrapper

    def install(self, modules) -> None:
        """Wrap every TRACED function wherever one of `modules` binds it."""
        wrappers = {}
        for layer, funcs in TRACED.items():
            mod = sys.modules[f"ncosc.{layer}"]
            for f in funcs:
                orig = getattr(mod, f)
                wrappers[id(orig)] = self._wrap(f"{layer}.{f}", orig)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                w = wrappers.get(id(value))
                if w is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, w)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def reset_keys(self) -> None:
        for s in self.keys.values():
            s.clear()
        for name in self.key_calls:
            self.key_calls[name] = 0

    def distinct_frac(self) -> dict[str, float]:
        return {name: (len(self.keys[name]) / self.key_calls[name] if self.key_calls[name] else 0.0)
                for name in KEYED}

    def top_level_seconds(self) -> float:
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        return float(dur[parent == -1].sum())

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, inclusive seconds, self seconds)."""
        return span_totals(self.names, np.frombuffer(self.fn, dtype=np.int32),
                           np.frombuffer(self.start), np.frombuffer(self.end),
                           np.frombuffer(self.parent, dtype=np.int32))

    def save(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(self.names), fn=np.frombuffer(self.fn, dtype=np.int32),
                            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                            parent=np.frombuffer(self.parent, dtype=np.int32))


def span_totals(names, fn, start, end, parent) -> dict[str, tuple[int, float, float]]:
    """Per function: call count, inclusive time, and self time, where a
    span's self time is its duration minus the durations of its direct
    children (children nest inside their parent, so this is the part of
    the interval no child covers)."""
    dur = end - start
    child = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    own = dur - child
    out = {}
    for fid, name in enumerate(names):
        sel = fn == fid
        out[name] = (int(sel.sum()), float(dur[sel].sum()), float(own[sel].sum()))
    return out
