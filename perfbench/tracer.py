"""Outside-in span tracer for the `schreg` layers.

`Tracer.install()` replaces, in each layer module, every public function
named in `__all__` with a wrapper that records a span; `potentials.segments`
is wrapped as a generator whose `next()` calls are timed and whose blocks
are counted.  Two foreign calls are attributed to the layer that makes
them: `scipy.integrate.quad` from `martin` (span `martin.quad`, with every
integrand evaluation counted) and `jsonschema.validate` from `cli` (span
`cli.validate`).  Internal calls look functions up as module globals, so
they reach the wrappers too.

Spans stay in memory and are written out at the end.  A span's self time
is its duration minus the time covered by its child spans.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import types
from collections import Counter, defaultdict

LAYERS = ("potentials", "propagation", "periodic", "martin", "regularity", "cli")


def _energies_grid(args, kwargs):
    grid = kwargs["lambda_grid"] if "lambda_grid" in kwargs else args[2]
    return len(grid)


# Propagation entry points that walk `segments`, and how many energies one
# call carries; the cells the walk yields times this is the call's work.
ENERGIES = {
    "propagation.transfer_matrix": lambda args, kwargs: 1,
    "propagation.log_growth_profile": lambda args, kwargs: 1,
    "propagation.eigenvalue_count": lambda args, kwargs: 1,
    "propagation.zero_counting_cdf": _energies_grid,
}


PRODUCTS = ("transfer_matrix", "dirichlet_solution", "log_growth",
            "log_growth_profile", "lyapunov_estimate", "weyl_m_estimate")


class _Frame:
    __slots__ = ("id", "parent", "name", "t0", "child", "energies", "cells")

    def __init__(self, sid, parent, name, energies):
        self.id, self.parent, self.name = sid, parent, name
        self.energies, self.cells, self.child = energies, 0, 0.0
        self.t0 = time.perf_counter()


class _ModuleProxy(types.ModuleType):
    """Stand-in for a foreign module with some attributes replaced."""

    def __init__(self, module, **overrides):
        super().__init__(module.__name__)
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans = []        # [id, parent, name, t0, t1, self_s]
        self.stack = []
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._next_id = 0

    # -- span bookkeeping ------------------------------------------------

    def _enter(self, name, energies=None):
        self._next_id += 1
        parent = self.stack[-1].id if self.stack else None
        frame = _Frame(self._next_id, parent, name, energies)
        self.stack.append(frame)
        return frame

    def _exit(self, frame):
        t1 = time.perf_counter()
        self.stack.pop()
        duration = t1 - frame.t0
        self_s = duration - frame.child
        if self.stack:
            self.stack[-1].child += duration
        self.calls[frame.name] += 1
        self.self_s[frame.name] += self_s
        if frame.energies is not None:
            self.counts["propagation.energies"] += frame.energies
            self.counts["propagation.cell_energies"] += frame.cells * frame.energies
        self.spans.append([frame.id, frame.parent, frame.name, frame.t0, t1, self_s])

    def _wrap(self, name, fn, energies=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(name, energies(args, kwargs) if energies else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)
        return wrapper

    def _wrap_segments(self, fn):
        """A generator span: open only while `next()` runs, closed at the end."""
        tracer = self

        def segments(*args, **kwargs):
            gen = fn(*args, **kwargs)
            tracer._next_id += 1
            parent = tracer.stack[-1].id if tracer.stack else None
            frame = _Frame(tracer._next_id, parent, "potentials.segments", None)
            owner = next((f for f in reversed(tracer.stack)
                          if f.energies is not None), None)
            busy, last = 0.0, frame.t0
            try:
                while True:
                    t0 = time.perf_counter()
                    tracer.stack.append(frame)
                    try:
                        block = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer.stack.pop()
                        last = time.perf_counter()
                        busy += last - t0
                        if tracer.stack:
                            tracer.stack[-1].child += last - t0
                    cells = len(block.widths) * getattr(block, "count", 1)
                    tracer.counts["potentials.blocks"] += 1
                    if hasattr(block, "count"):
                        tracer.counts["potentials.repeat_cells"] += cells
                    else:
                        tracer.counts["potentials.flat_cells"] += cells
                    if owner is not None:
                        owner.cells += cells
                    yield block
            finally:
                tracer.calls[frame.name] += 1
                tracer.self_s[frame.name] += busy - frame.child
                tracer.spans.append([frame.id, parent, frame.name, frame.t0, last,
                                     busy - frame.child])

        return segments

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap the public functions of every layer module in place."""
        modules = {name: importlib.import_module(f"schreg.{name}")
                   for name in LAYERS}
        for layer, module in modules.items():
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not inspect.isfunction(fn):
                    continue
                name = f"{layer}.{attr}"
                if name == "potentials.segments":
                    wrapped = self._wrap_segments(fn)
                else:
                    wrapped = self._wrap(name, fn, ENERGIES.get(name))
                setattr(module, attr, wrapped)
        martin, cli = modules["martin"], modules["cli"]
        martin.si = _ModuleProxy(martin.si, quad=self._wrap_quad(martin.si.quad))
        cli.jsonschema = _ModuleProxy(
            cli.jsonschema,
            validate=self._wrap("cli.validate", cli.jsonschema.validate))

    def _wrap_quad(self, quad):
        counts = self.counts

        def traced_quad(func, a, b, *args, **kwargs):
            def integrand(*x):
                counts["martin.integrand_evals"] += 1
                return func(*x)
            return quad(integrand, a, b, *args, **kwargs)

        return self._wrap("martin.quad", traced_quad)

    # -- results ---------------------------------------------------------

    def summary(self):
        """Flat {metric name: value} of self times, call counts and counters.

        `<layer>.self_s` sums the layer's own functions; the foreign calls
        (`martin.quad`, `cli.validate`) are reported on their own.
        `propagation.products_s` is the self time of the entry points that
        build scaled transfer products, as against Pruefer zero counting.
        """
        out = dict(self.counts)
        layer_self = defaultdict(float)
        for name, s in self.self_s.items():
            out[f"{name}.self_s"] = s
            out[f"{name}.calls"] = self.calls[name]
            if name not in ("martin.quad", "cli.validate"):
                layer_self[name.split(".")[0]] += s
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        out["propagation.products_s"] = sum(
            self.self_s[f"propagation.{f}"] for f in PRODUCTS)
        out["martin.quad_s"] = self.self_s["martin.quad"]
        out["martin.quad_calls"] = self.calls["martin.quad"]
        out["cli.validate_s"] = self.self_s["cli.validate"]
        out["cli.ops"] = self.calls["cli.run"]
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
