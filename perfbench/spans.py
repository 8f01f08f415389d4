"""Outside-in tracing of zetafock's public layer functions.

Nothing inside zetafock changes.  ``Tracer.install`` wraps each function
named in SPANS and rebinds every name in every loaded zetafock module that
refers to it (``h_apply`` is imported into fock, quadratic, voa and
catalog), or patches the class attribute for methods.  Each wrapper records
a span: calls, total time, and self time, which is the span minus the child
spans it contains.  The private lru_cache kernels are not wrapped; their
``cache_info()`` is read before and after each command instead.

A hook whose target no longer exists is reported as absent rather than
failing the run, so kernels can be renamed or removed without breaking the
benchmark.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (metric name, zetafock module, attribute path)
SPANS = (
    ("fock.h_apply", "fock", "h_apply"),
    ("quadratic.quad_apply", "quadratic", "quad_apply"),
    ("voa.vertex_mode", "voa", "vertex_mode"),
    ("voa.x_mode", "voa", "x_mode"),
    ("voa.y_bracket_apply", "voa", "y_bracket_apply"),
    ("series.mul", "series", "mul"),
    ("series.add", "series", "Series.__add__"),
    ("series.sum_series", "series", "sum_series"),
    ("series.diff_on_box", "series", "diff_on_box"),
    ("calculus.subst_taylor_linear", "calculus", "subst_taylor_linear"),
    ("calculus.substitute_valuation", "calculus", "substitute_valuation"),
    ("calculus.delta_product", "calculus", "delta_product"),
    ("calculus.aligned_sum", "calculus", "aligned_sum"),
    ("catalog.run_check", "catalog", "run_check"),
    ("reports.render_reports", "reports", "render_reports"),
    ("cli.main", "cli", "main"),
)

# (metric prefix, zetafock module, lru_cache-wrapped function)
CACHES = (
    ("quadratic.pair_cache", "quadratic", "_pair_on_basis"),
    ("voa.mode_cache", "voa", "_mode_on_basis"),
)

# spans whose zero-vector results are counted: work that produced nothing
ZERO_COUNTED = ("fock.h_apply",)


def _resolve(module: str, path: str):
    """(owner, attribute name, value) for a dotted path, or None if missing."""
    try:
        owner = importlib.import_module(f"zetafock.{module}")
    except ImportError:
        return None
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, name, None)
    return None if value is None else (owner, name, value)


def _rebind(original, replacement) -> None:
    """Point every zetafock module-level name bound to ``original`` at ``replacement``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "zetafock" or mod_name.startswith("zetafock.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


class Tracer:
    """Span and cache counters for one child process."""

    def __init__(self) -> None:
        # name -> [calls, total seconds, self seconds, zero results]
        self.spans: "dict[str, list]" = {}
        self.check_s: "dict[str, float]" = {}
        self.caches: "dict[str, tuple]" = {}
        self.cache_counts: "dict[str, list[int]]" = {}
        self.absent: "list[str]" = []
        self.check_ids: "tuple[str, ...]" = ()
        # child-span time accumulated by each open span; the bottom entry
        # collects top-level spans and is never read
        self._stack = [0.0]

    def install(self) -> "Tracer":
        for name, module, path in SPANS:
            found = _resolve(module, path)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, fn = found
            wrapper = self._span(name, fn, count_zero=name in ZERO_COUNTED)
            if name == "catalog.run_check":
                wrapper = self._per_check(wrapper)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
            else:
                _rebind(fn, wrapper)
        for name, module, path in CACHES:
            found = _resolve(module, path)
            if found is None or not hasattr(found[2], "cache_info"):
                self.absent.append(name)
                continue
            self.caches[name] = found[2]
            self.cache_counts[name] = [0, 0]
        catalog = _resolve("catalog", "CATALOG_IDS")
        self.check_ids = tuple(catalog[2]) if catalog else ()
        return self

    def _span(self, name: str, fn, count_zero: bool):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                inner = stack.pop()
                stack[-1] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - inner
            if count_zero and not out:
                stats[3] += 1
            return out

        return wrapper

    def _per_check(self, fn):
        """Time each catalog check by id, outside its span so self time is unchanged."""
        totals = self.check_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(check_id, *args, **kwargs):
            t0 = clock()
            try:
                return fn(check_id, *args, **kwargs)
            finally:
                totals[check_id] = totals.get(check_id, 0.0) + clock() - t0

        return wrapper

    def cache_snapshot(self) -> dict:
        return {name: fn.cache_info() for name, fn in self.caches.items()}

    def add_cache_delta(self, before: dict) -> None:
        for name, info in before.items():
            after = self.caches[name].cache_info()
            counts = self.cache_counts[name]
            counts[0] += after.hits - info.hits
            counts[1] += after.misses - info.misses

    def counts(self) -> "dict[str, float]":
        """Metrics that must repeat exactly across runs of the same inputs."""
        out: "dict[str, float]" = {}
        for name, (calls, _, _, zeros) in self.spans.items():
            out[f"{name}.calls"] = calls
            if name in ZERO_COUNTED:
                out[f"{name}.zero_ratio"] = zeros / calls if calls else 0.0
        for name, (hits, misses) in self.cache_counts.items():
            out[f"{name}.hits"] = hits
            out[f"{name}.misses"] = misses
            out[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        return out

    def times(self) -> "dict[str, float]":
        """Span and per-check times in seconds."""
        out: "dict[str, float]" = {}
        for name, (_, total, self_s, _) in self.spans.items():
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = self_s
        if "catalog.run_check" in self.spans:
            for check_id in self.check_ids:
                out[f"catalog.check.{check_id}.s"] = self.check_s.get(check_id, 0.0)
        return out
