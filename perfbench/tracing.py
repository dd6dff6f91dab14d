"""
Timing wrappers around the public functions of each idsa-lab layer.

``Tracer.install`` replaces each function at the name its caller looks it
up by (``idsa_lab.cli.convergence_sweep``, ``idsa_lab.sphere.integrate_batch``,
methods of ``ReformedScheme``) with a wrapper that records a span: layer,
name, start, end and parent.  Spans and counts stay in memory; ``summary``
turns them into per-layer self times (a span minus its child spans) and
counts once the run is over.  A target the library no longer has is
skipped, so its time is charged to the enclosing layer.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (module, attribute, layer) for the plain functions the workloads reach,
# at their callers' names.
FUNCTIONS = (
    ("idsa_lab.cli", "run", "cli"),
    ("idsa_lab.cli", "make_uniform_grid", "grids"),
    ("idsa_lab.cli", "run_spurious_trapped_experiment", "idsa"),
    ("idsa_lab.cli", "run_instability_experiment", "idsa"),
    ("idsa_lab.cli", "convergence_sweep", "diagnostics"),
    ("idsa_lab.cli", "oracle_moments_for", "diagnostics"),
    ("idsa_lab.cli", "fit_power_law", "diagnostics"),
    ("idsa_lab.cli", "closure_set", "reformed"),
    ("idsa_lab.cli", "reconstruct_HK", "reformed"),
    ("idsa_lab.cli", "reconstruct_flux_factors", "reformed"),
    ("idsa_lab.diagnostics", "exact_moments", "sphere"),
    ("idsa_lab.diagnostics", "stationary_state", "diagnostics"),
    ("idsa_lab.diagnostics", "new_idsa_stationary_closed_form", "reformed"),
    ("idsa_lab.diagnostics", "closure_set", "reformed"),
    ("idsa_lab.diagnostics", "reconstruct_HK", "reformed"),
    ("idsa_lab.diagnostics", "l2_relative_error", "grids"),
    ("idsa_lab.sphere", "integrate_batch", "quadrature"),
)
# Methods of idsa_lab.reformed.ReformedScheme; the class object is shared
# by every caller, so patching it once covers them all.
SCHEME_METHODS = ("__init__", "step", "run_to_stationarity", "stationary_direct")
LAYERS = ("cli", "idsa", "quadrature", "sphere", "reformed", "diagnostics", "grids")


class Tracer:
    def __init__(self):
        self.spans = []  # (layer, name, start, end, parent index or -1)
        self.counts = defaultdict(int)
        self._stack = []

    def _wrap(self, layer: str, name: str, fn, on_result=None, wrap_args=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if wrap_args is not None:
                args = wrap_args(args)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (layer, name, start, end, parent)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _count_integrand(self, args):
        f, *rest = args
        counts = self.counts

        def counted(owner, x):
            counts["quadrature.integrand_evals"] += x.size
            counts["quadrature.panels"] += x.shape[0]
            counts["quadrature.max_live_panels"] = max(counts["quadrature.max_live_panels"], x.shape[0])
            return f(owner, x)

        return (counted, *rest)

    def _count_radii(self, args):
        self.counts["sphere.radii"] += args[0].n_cells  # exact_moments(grid, ...)
        return args

    def _count_stationarity_steps(self, result):
        self.counts["reformed.stationarity_steps"] += int(result[1])  # (state, steps)

    def install(self) -> None:
        """Patch every target the library has."""
        arg_hooks = {"integrate_batch": self._count_integrand, "exact_moments": self._count_radii}
        for module_name, attr, layer in FUNCTIONS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            setattr(module, attr, self._wrap(layer, attr, fn, wrap_args=arg_hooks.get(attr)))
        scheme = getattr(importlib.import_module("idsa_lab.reformed"), "ReformedScheme", None)
        for attr in SCHEME_METHODS if scheme is not None else ():
            fn = getattr(scheme, attr, None)
            if fn is None:
                continue
            on_result = self._count_stationarity_steps if attr == "run_to_stationarity" else None
            setattr(scheme, attr, self._wrap("reformed", attr, fn, on_result=on_result))

    def summary(self) -> dict:
        """Per-layer self and inclusive times, per-name inclusive times, counts."""
        child_time = [0.0] * len(self.spans)
        for layer, name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s = dict.fromkeys(LAYERS, 0.0)
        by_name = defaultdict(float)
        calls = defaultdict(int)
        for i, (layer, name, start, end, parent) in enumerate(self.spans):
            self_s[layer] += (end - start) - child_time[i]
            by_name[f"{layer}.{name}"] += end - start
            calls[f"{layer}.{name}"] += 1
        return {
            "self_s": self_s,
            "inclusive_s": dict(by_name),
            "calls": dict(calls),
            "counts": dict(self.counts),
        }
