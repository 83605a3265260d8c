"""Traced runs: spans around every public function of ighit's layers.

The tracer replaces each public function of the layer modules with a wrapper
at every binding it has across ighit's modules, including names one module
imported from another and the package namespace, so calls between layers are
seen wherever they are made from.  Each call records a span (name, start, end,
the enclosing span, an item count) in memory; per-layer metrics are computed
from the spans when the run ends.  A span's self time is its duration minus
the durations of the spans it directly encloses.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("numerics", "subordinators", "hitting", "subordinated", "residuals",
          "montecarlo", "verification")

# record ids as `ighit verify` prints them, in battery order
RECORD_IDS = (
    "density_two_routes", "density_prefactor", "mean_m1", "second_moment_m2",
    "moment_lt_numerator", "lt_time_inversion", "spatial_lt_prefactor", "llt",
    "boundary_value", "boundary_slope", "tail_bound", "variance_large_t",
    "nonlevy_witness", "stable_hit_density", "stable_hit_tail_rate", "pde_hitting",
    "pde_ig", "pde_ts_n2", "pde_ts_n3_sign", "pde_pseudo_lt", "pde_frac_hitting",
    "pde_frac_ig", "pde_subordinated", "pde_frac_subordinated",
)

RESIDUAL_FUNCTIONS = (
    "residual_hitting_pde", "residual_ig_pde", "residual_ts_pde",
    "residual_subordinated", "residual_frac_hitting", "residual_frac_ig",
    "residual_subordinated_frac", "residual_pseudo_lt", "caputo_derivative",
)


def _size(value) -> int:
    return int(np.size(value))


# item count recorded with each span, from (args, kwargs, result)
ITEM_COUNTERS = {
    "erfcx": lambda a, k, r: _size(a[0]),
    "bessel_k": lambda a, k, r: _size(a[1]),
    "composite_gauss": lambda a, k, r: _size(r[0]),
    "ig_sample": lambda a, k, r: _size(r),
    "ig_pdf": lambda a, k, r: _size(a[0]),
    "ts_levy_tail": lambda a, k, r: _size(a[0]),
    "ts_pdf": lambda a, k, r: _size(a[0]),
    "ts_sample": lambda a, k, r: _size(r),
    "stable_sample": lambda a, k, r: _size(r),
    "hit_pdf_table": lambda a, k, r: _size(a[0]),
    "hit_cdf": lambda a, k, r: _size(a[0]),
    "sub_pdf_table": lambda a, k, r: _size(a[0]),
    # increments the returned grid hitting times consumed: S / dt each
    "sample_hitting_times": lambda a, k, r: int(np.rint(
        np.asarray(r) / (a[3] if len(a) > 3 else k["dt"])).sum()),
}

# (name, unit, better) of every per-layer metric, in BENCHMARK.json order
PER_LAYER = (
    [("erfcx.points", "count", "lower"), ("erfcx.self_s", "s", "lower"),
     ("upper_gamma.calls", "count", "lower"), ("upper_gamma.self_s", "s", "lower"),
     ("bessel_k.points", "count", "lower"), ("bessel_k.self_s", "s", "lower"),
     ("integrate_interval.calls", "count", "lower"),
     ("integrate_interval.self_s", "s", "lower"),
     ("composite_gauss.points", "count", "lower"),
     ("composite_gauss.self_s", "s", "lower"),
     ("invert_laplace.calls", "count", "lower"), ("invert_laplace.self_s", "s", "lower"),
     ("ig_sample.calls", "count", "lower"), ("ig_sample.draws", "count", "lower"),
     ("ig_sample.self_s", "s", "lower"), ("ig_sample.useful_ratio", "ratio", "higher"),
     ("ig_pdf.points", "count", "lower"), ("ig_pdf.self_s", "s", "lower"),
     ("ts_levy_tail.points", "count", "lower"), ("ts_levy_tail.self_s", "s", "lower"),
     ("ts_pdf.points", "count", "lower"), ("ts_pdf.self_s", "s", "lower"),
     ("ts_sample.passes", "count", "lower"), ("ts_sample.accept_ratio", "ratio", "higher"),
     ("ts_sample.self_s", "s", "lower"),
     ("hit_pdf_table.calls", "count", "lower"), ("hit_pdf_table.points", "count", "lower"),
     ("hit_pdf_table.self_s", "s", "lower"), ("hit_pdf_table.fallbacks", "count", "lower"),
     ("hit_pdf_integral.calls", "count", "lower"),
     ("hit_pdf_integral.self_s", "s", "lower"),
     ("hit_pdf_integral.fallbacks", "count", "lower"),
     ("hit_pdf_convolution.calls", "count", "lower"),
     ("hit_pdf_convolution.self_s", "s", "lower"),
     ("density_support_cutoff.calls", "count", "lower"),
     ("density_support_cutoff.self_s", "s", "lower"),
     ("hit_cdf.points", "count", "lower"), ("hit_cdf.self_s", "s", "lower"),
     ("hit_moment.self_s", "s", "lower"), ("hit_moment_quadrature.self_s", "s", "lower"),
     ("sample_hitting_times.blocks", "count", "lower"),
     ("sample_hitting_times.self_s", "s", "lower"),
     ("sub_pdf_table.calls", "count", "lower"), ("sub_pdf_table.points", "count", "lower"),
     ("sub_pdf_table.self_s", "s", "lower")]
    + [(f"{fn}.self_s", "s", "lower") for fn in RESIDUAL_FUNCTIONS]
    + [("estimate_moment.self_s", "s", "lower")]
    + [(f"{rid}.s", "s", "lower") for rid in RECORD_IDS]
)


class Tracer:
    """Span recorder that patches ighit's layer functions while installed."""

    def __init__(self):
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._items = array("q")
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self._start)
        self._name.append(name_id)
        self._start.append(0.0)
        self._end.append(0.0)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._items.append(0)
        self._stack.append(idx)
        self._start[idx] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        name_id = self._name_id(name)
        counter = ITEM_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                self._items[idx] = counter(args, kwargs, result)
            return result

        return traced

    def _wrap_record(self, builder):
        fallback_id = self._name_id("record:" + builder.__name__[5:])

        @functools.wraps(builder)
        def traced(*args, **kwargs):
            idx = self._open(fallback_id)
            try:
                record = builder(*args, **kwargs)
            finally:
                self._close(idx)
            self._name[idx] = self._name_id("record:" + record.id)
            return record

        return traced

    def install(self) -> None:
        """Patch every binding of every layer's public functions."""
        import ighit
        import ighit.verification as verification

        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"ighit.{layer}"]
            for name, value in vars(module).items():
                if (inspect.isfunction(value) and not name.startswith("_")
                        and value.__module__ == module.__name__):
                    wrappers[id(value)] = self.wrap(name, value)
        modules = [ighit] + [m for n, m in sorted(sys.modules.items())
                             if n.startswith("ighit.") and m is not None]
        for module in modules:
            for name, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patched.append((module, name, value))
                    setattr(module, name, wrappers[id(value)])
        builders = verification._BUILDERS
        self._builders = list(builders)
        builders[:] = [self._wrap_record(b) for b in builders]

    def uninstall(self) -> None:
        import ighit.verification as verification

        for module, name, value in reversed(self._patched):
            setattr(module, name, value)
        self._patched.clear()
        verification._BUILDERS[:] = self._builders

    def metrics(self) -> dict:
        """Every per-layer metric, computed from the recorded spans."""
        name = np.frombuffer(self._name, dtype=np.int32)
        start = np.frombuffer(self._start, dtype=np.float64)
        end = np.frombuffer(self._end, dtype=np.float64)
        parent = np.frombuffer(self._parent, dtype=np.int64)
        items = np.frombuffer(self._items, dtype=np.int64)
        n = name.size
        dur = end - start
        child = parent >= 0
        child_time = np.bincount(parent[child], weights=dur[child], minlength=n)
        self_time = dur - child_time
        parent_name = np.where(child, name[np.maximum(parent, 0)], len(self._names))

        def sel(fn):
            return name == self._name_ids.get(fn, -1)

        def under(fn, outer):
            return sel(fn) & (parent_name == self._name_ids.get(outer, -1))

        out = {}
        for metric, _unit, _better in PER_LAYER:
            fn, _, kind = metric.rpartition(".")
            if kind == "self_s":
                value = float(self_time[sel(fn)].sum())
            elif kind == "s":
                value = float(dur[sel("record:" + fn)].sum())
            elif kind == "calls":
                value = int(sel(fn).sum())
            elif kind in ("points", "draws"):
                value = int(items[sel(fn)].sum())
            elif kind == "fallbacks":
                inner = {"hit_pdf_table": "hit_pdf_integral",
                         "hit_pdf_integral": "hit_pdf_convolution"}[fn]
                value = int(under(inner, fn).sum())
            elif kind == "blocks":
                value = int(under("ig_sample", fn).sum())
            elif kind == "passes":
                value = int(under("stable_sample", fn).sum())
            elif kind == "useful_ratio":
                drawn = int(items[under("ig_sample", "sample_hitting_times")].sum())
                used = int(items[sel("sample_hitting_times")].sum())
                value = used / drawn if drawn else 0.0
            elif kind == "accept_ratio":
                proposed = int(items[under("stable_sample", "ts_sample")].sum())
                accepted = int(items[sel("ts_sample")].sum())
                value = accepted / proposed if proposed else 0.0
            else:
                raise KeyError(metric)
            out[metric] = value
        return out
