"""Per-layer tracing from outside the program.

The tracer wraps every public function of each layer module and records one
span per call: inclusive time, and self time (inclusive time minus the time
of the spans it caused).  Spans are aggregated per function in memory while
they close.  Many functions arrive in other modules through ``from .x import
y``, so every ``heatchern.*`` module attribute that holds the same function
object is rebound to the wrapper, and all of them are restored on exit.

Besides times, it counts work where it happens:

* ``multivector.terms_peak``: the largest ``len(result.terms)`` returned by a
  ``multivector`` function;
* ``kernels.gh_points``: the sum of order^b over the Gauss-Hermite refinement
  steps, counted by wrapping ``numpy.polynomial.hermite.hermgauss``;
* ``spectral.modes``: (2K+1)^2 per torus mode sum and K+1 per sphere mode
  sum, summed over the calls of the ``_kernels`` mode-sum kernels;
* ``duhamel.simplex_nodes``: the nodes of every ``SimplexQuadrature`` built.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy.polynomial.hermite as hermite

PACKAGE = "heatchern"
# Layer modules, in the order the package imports them.  ``_kernels`` is
# reported as ``kernels`` because a metric name starts with a letter.
LAYERS = ("scalars", "multivector", "clifford", "equivariant", "getzler",
          "duhamel", "spectral", "_kernels", "scenario", "report", "suites",
          "cli")
GLUE = ("scenario", "report", "suites", "cli")


def layer_label(module: str) -> str:
    return module.lstrip("_")


def public_functions():
    """(layer, name, function) for each public function of each layer."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                out.append((layer, name, obj))
    return out


class Tracer:
    """Context manager: wrap on enter, restore every rebinding on exit."""

    def __init__(self):
        self.stats = {}        # "layer.func" -> [calls, inclusive_s, self_s]
        self.counts = {"multivector.terms_peak": 0, "kernels.gh_points": 0,
                       "spectral.modes": 0, "duhamel.simplex_nodes": 0}
        self._stack = []       # child time accumulated per open span
        self._active = {}      # open spans per name, for recursion
        self._gh_dim = 0
        self._patched = []     # (owner, attribute, original)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, key: str, fn, after=None):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack, active, clock = self._stack, self._active, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            depth = active.get(key, 0)
            active[key] = depth + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                active[key] = depth
                if stack:
                    stack[-1][0] += elapsed
                stats[0] += 1
                if not depth:
                    stats[1] += elapsed
                stats[2] += elapsed - child[0]
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _set(self, owner, attribute: str, value):
        self._patched.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def _after(self, layer: str, name: str):
        if layer == "multivector":
            def peak(args, result):
                terms = getattr(result, "terms", None)
                if terms is not None and len(terms) > self.counts[
                        "multivector.terms_peak"]:
                    self.counts["multivector.terms_peak"] = len(terms)
            return peak
        if layer == "_kernels" and name == "torus_supertrace":
            def torus(args, result):
                self.counts["spectral.modes"] += (2 * args[0] + 1) ** 2
            return torus
        if layer == "_kernels" and name == "sphere_supertrace":
            def sphere(args, result):
                self.counts["spectral.modes"] += args[0] + 1
            return sphere
        return None

    def __enter__(self):
        wrappers = {}
        for layer, name, fn in public_functions():
            key = f"{layer_label(layer)}.{name}"
            wrapped = self._wrap(key, fn, self._after(layer, name))
            if layer == "_kernels" and name == "gauss_hermite_gaussian_integral":
                wrapped = self._gh_entry(wrapped)
            wrappers[id(fn)] = wrapped
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE
                                   or mod_name.startswith(PACKAGE + ".")):
                continue
            for attribute, value in list(vars(mod).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self._set(mod, attribute, wrappers[id(value)])
        self._set(hermite, "hermgauss", self._count_hermgauss(hermite.hermgauss))
        quad = importlib.import_module(f"{PACKAGE}.duhamel").SimplexQuadrature
        self._set(quad, "__init__", self._count_nodes(quad.__init__))
        return self

    def __exit__(self, *exc):
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)
        return False

    def _gh_entry(self, wrapped):
        @functools.wraps(wrapped)
        def entry(M, *args, **kwargs):
            outer = self._gh_dim
            self._gh_dim = len(M)
            try:
                return wrapped(M, *args, **kwargs)
            finally:
                self._gh_dim = outer
        return entry

    def _count_hermgauss(self, original):
        @functools.wraps(original)
        def hermgauss(deg):
            if self._gh_dim:
                self.counts["kernels.gh_points"] += int(deg) ** self._gh_dim
            return original(deg)
        return hermgauss

    def _count_nodes(self, original):
        @functools.wraps(original)
        def init(quad, *args, **kwargs):
            original(quad, *args, **kwargs)
            self.counts["duhamel.simplex_nodes"] += len(quad.nodes)
        return init

    # -- results ------------------------------------------------------------

    def layer_self_s(self) -> dict:
        """Self time summed per layer label."""
        out = {}
        for key, (_, _, self_s) in self.stats.items():
            layer = key.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self_s
        return out
