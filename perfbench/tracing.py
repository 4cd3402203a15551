"""Span tracing of gausscalc from outside the package.

`Tracer.install()` replaces the public functions named in `SPECS` with timing
wrappers.  A name is patched in every `gausscalc` module that binds it, since
`besov`, `harness`, `cli` and the package `__init__` import names directly;
methods are patched on their class.  `Tracer.uninstall()` puts every original
object back.  Spans (name, start, end, parent) are kept in memory; self time is
a span's duration minus the durations of its direct children.

Routes are classified from a call's arguments, mirroring `hermite.lp_norm` and
`besov.norm_curve`: p = 2 -> coeff; even integer p -> even_exact (lp_norm only);
odd integer p in d = 1 -> odd_exact; anything else -> quadrature.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

ORIGINAL_ATTR = "__perfbench_original__"


def route(p: float, dimension: int, even_exact: bool) -> str:
    """Numerical route for an L^p norm; `even_exact` is True for lp_norm only."""
    if p == 2:
        return "coeff"
    p_int = int(round(p))
    if p == p_int and p_int % 2 == 0 and even_exact:
        return "even_exact"
    if p == p_int and p_int % 2 == 1 and dimension == 1:
        return "odd_exact"
    return "quadrature"


def q_label(q: float) -> str:
    return "inf" if math.isinf(q) else f"{q:g}"


def besov_cell(dimension: int, p: float, q: float) -> str:
    return f"d{dimension}-p{p:g}-q{q_label(q)}"


def _nonfinite(result) -> int:
    return int(np.size(result) - np.count_nonzero(np.isfinite(result)))


# Each probe takes the wrapped function's own arguments and returns
# (name suffix or None, cache key or None, node count or None, cell or None).


def _probe_lp_norm(f, p, grid=None):
    return route(p, f.dimension, even_exact=True), None, None, None


def _probe_norm_curve(f, k, p, ts, grid=None):
    return route(p, f.dimension, even_exact=False), None, int(np.size(ts)), None


def _probe_grid(d, m, max_nodes_per_axis=None):
    return None, (d, m, max_nodes_per_axis), None, None


def _probe_nodes_weights(self):
    return None, (self.kind, self.v_min, self.v_max, self.n_points), None, None


def _probe_experiment(name, cfg=None):
    return name, None, None, None


def _probe_besov_norm(f, params, tq=None, grid=None):
    return None, None, None, besov_cell(f.dimension, params.p, params.q)


@dataclass(frozen=True)
class Spec:
    module: str  # gausscalc module that defines the object
    attr: str  # "func" or "Class.method"
    name: str  # span name; a probe suffix is appended after a dot
    probe: Callable | None = None
    check: Callable | None = None  # result -> number of non-finite values


SPECS = (
    Spec("gausscalc.hermite", "hermite_values_1d", "hermite.hermite_values_1d"),
    Spec("gausscalc.hermite", "gauss_hermite_grid", "hermite.gauss_hermite_grid", _probe_grid),
    Spec("gausscalc.hermite", "lp_norm", "hermite.lp_norm", _probe_lp_norm, _nonfinite),
    Spec("gausscalc.timequad", "log_time_rule", "timequad.log_time_rule"),
    Spec("gausscalc.timequad", "TimeQuadrature.nodes_weights", "timequad.nodes_weights", _probe_nodes_weights),
    Spec("gausscalc.timequad", "SubordinationRule.stable_measure", "timequad.stable_measure"),
    Spec("gausscalc.semigroups", "ou_mehler", "semigroups.ou_mehler"),
    Spec("gausscalc.semigroups", "ph_subordination", "semigroups.ph_subordination"),
    Spec("gausscalc.semigroups", "ph_kernel", "semigroups.ph_kernel"),
    Spec("gausscalc.semigroups", "orbit_difference", "semigroups.orbit_difference"),
    Spec("gausscalc.fractional", "riesz_potential", "fractional.spectral"),
    Spec("gausscalc.fractional", "bessel_potential", "fractional.spectral"),
    Spec("gausscalc.fractional", "riesz_derivative", "fractional.spectral"),
    Spec("gausscalc.fractional", "bessel_derivative", "fractional.spectral"),
    Spec("gausscalc.fractional", "riesz_potential_integral", "fractional.integral"),
    Spec("gausscalc.fractional", "bessel_potential_integral", "fractional.integral"),
    Spec("gausscalc.fractional", "riesz_derivative_integral", "fractional.integral"),
    Spec("gausscalc.fractional", "bessel_derivative_integral", "fractional.integral"),
    Spec("gausscalc.besov", "norm_curve", "besov.norm_curve", _probe_norm_curve, _nonfinite),
    Spec("gausscalc.besov", "besov_norm", "besov.besov_norm", _probe_besov_norm),
    Spec("gausscalc.besov", "besov_seminorm", "besov.besov_seminorm"),
    Spec("gausscalc.besov", "ak_constant", "besov.ak_constant"),
    Spec("gausscalc.besov", "kdecay_report", "besov.kdecay_report"),
    Spec("gausscalc.besov", "hardy_check", "besov.hardy_check"),
    Spec("gausscalc.harness", "gen_family", "harness.gen_family"),
    Spec("gausscalc.harness", "emit_report", "harness.emit_report"),
    Spec("gausscalc.harness", "besov_total", "harness.besov_total"),
    Spec("gausscalc.harness", "run_experiment", "harness.experiment", _probe_experiment),
    Spec("gausscalc.cli", "main", "cli.main"),
)

EXPERIMENT_IDS = (
    "riesz-potential-bounded",
    "bessel-potential-bounded",
    "riesz-derivative-bounded-lt1",
    "riesz-derivative-bounded",
    "bessel-derivative-bounded-lt1",
    "bessel-derivative-bounded",
    "inversion",
    "oracles",
    "lemmas",
)
CELLS = tuple(besov_cell(d, p, q) for d in (1, 2) for p in (1, 2, 3, 4) for q in (2.0, math.inf))


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}

    def add(names, unit):
        for n in names:
            units[n] = unit

    def timed(prefix):
        add([f"{prefix}.calls"], "count")
        add([f"{prefix}.self_s"], "s")

    timed("hermite.hermite_values_1d")
    timed("hermite.gauss_hermite_grid")
    add(["hermite.gauss_hermite_grid.distinct_ratio"], "ratio")
    for r in ("coeff", "even_exact", "odd_exact", "quadrature"):
        timed(f"hermite.lp_norm.{r}")
    add(["hermite.lp_norm.nonfinite"], "count")
    add(["timequad.log_time_rule.calls"], "count")
    timed("timequad.nodes_weights")
    add(["timequad.nodes_weights.distinct_ratio"], "ratio")
    timed("timequad.stable_measure")
    for fn in ("ou_mehler", "ph_subordination", "ph_kernel", "orbit_difference"):
        timed(f"semigroups.{fn}")
    timed("fractional.spectral")
    timed("fractional.integral")
    add(["fractional.c_beta_k.hit_ratio"], "ratio")
    for r in ("coeff", "odd_exact", "quadrature"):
        timed(f"besov.norm_curve.{r}")
        add([f"besov.norm_curve.{r}.nodes"], "count")
    add(["besov.norm_curve.nonfinite"], "count")
    for fn in ("besov_norm", "besov_seminorm", "ak_constant", "kdecay_report", "hardy_check"):
        timed(f"besov.{fn}")
    add([f"besov.besov_norm.{c}.median_ms" for c in CELLS], "ms")
    add([f"harness.experiment.{e}.total_s" for e in EXPERIMENT_IDS], "s")
    for fn in ("gen_family", "emit_report", "besov_total"):
        timed(f"harness.{fn}")
    add(["cli.main.total_s"], "s")
    add(["trace.overhead_frac"], "ratio")
    return units


def _gausscalc_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "gausscalc" or n.startswith("gausscalc.")]


def _resolve(spec: Spec):
    owner = sys.modules[spec.module]
    if "." in spec.attr:
        cls_name, meth = spec.attr.split(".")
        return getattr(owner, cls_name), meth
    return owner, spec.attr


class Tracer:
    """Installs span wrappers, records spans, and turns them into layer metrics."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int]] = []  # (name id, start, end, parent index)
        self._stack: list[list] = []  # open spans: [span index, child seconds]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.nodes = defaultdict(int)
        self.nonfinite = defaultdict(int)
        self.keys = defaultdict(set)
        self.cells = defaultdict(list)
        self.patches: list[tuple[object, str, object]] = []  # (namespace, attribute, original)

    # -- installation -------------------------------------------------------

    def install(self):
        if self.patches:
            raise RuntimeError("tracer already installed")
        for spec in SPECS:
            owner, attr = _resolve(spec)
            original = getattr(owner, attr)
            wrapper = self._wrap(spec, original)
            if owner.__class__ is type:  # a method: the class is its only binding
                self._patch(owner, attr, original, wrapper)
                continue
            for module in _gausscalc_modules():
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, original, wrapper)

    def _patch(self, namespace, attr, original, wrapper):
        setattr(namespace, attr, wrapper)
        self.patches.append((namespace, attr, original))

    def uninstall(self):
        for namespace, attr, original in reversed(self.patches):
            setattr(namespace, attr, original)

    def unrestored(self) -> list[str]:
        """Bindings that are not their original object again, after uninstall (should be none)."""
        found = [f"{getattr(ns, '__name__', ns)}.{attr}"
                 for ns, attr, orig in self.patches if getattr(ns, attr) is not orig]
        for module in _gausscalc_modules():
            for name, value in vars(module).items():
                if hasattr(value, ORIGINAL_ATTR):
                    found.append(f"{module.__name__}.{name}")
                if isinstance(value, type) and value.__module__ == module.__name__:
                    found += [f"{module.__name__}.{name}.{m}"
                              for m, v in vars(value).items() if hasattr(v, ORIGINAL_ATTR)]
        return found

    def _wrap(self, spec: Spec, original):
        tracer, base, probe, check = self, spec.name, spec.probe, spec.check

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            suffix = key = nodes = cell = None
            if probe is not None:
                suffix, key, nodes, cell = probe(*args, **kwargs)
            name = base if suffix is None else f"{base}.{suffix}"
            index = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                duration = tracer._close(index)
            if key is not None:
                tracer.keys[name].add(key)
            if nodes is not None:
                tracer.nodes[name] += nodes
            if cell is not None:
                tracer.cells[cell].append(duration)
            if check is not None:
                tracer.nonfinite[name] += check(result)
            return result

        setattr(wrapper, ORIGINAL_ATTR, original)
        return wrapper

    # -- spans ----------------------------------------------------------------

    def _open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name_id, self.clock(), 0.0, parent))
        self._stack.append([index, 0.0])
        return index

    def _close(self, index: int) -> float:
        end = self.clock()
        _, child = self._stack.pop()
        name_id, start, _, parent = self.spans[index]
        self.spans[index] = (name_id, start, end, parent)
        duration = end - start
        name = self.names[name_id]
        self.calls[name] += 1
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        if self._stack:
            self._stack[-1][1] += duration
        return duration

    def write(self, path: str, label: str):
        """Write all spans as JSON: names, then [name id, start, end, parent] rows."""
        with open(path, "w") as fh:
            json.dump({"pass": label, "names": self.names, "spans": self.spans}, fh)

    # -- metrics --------------------------------------------------------------

    def metrics(self, c_beta_k_hits: int, c_beta_k_misses: int) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_frac (which needs two runs)."""
        out = {}
        for metric in layer_metric_units():
            span, _, field = metric.rpartition(".")
            if field == "calls":
                out[metric] = self.calls[span]
            elif field == "self_s":
                out[metric] = self.self_s[span]
            elif field == "total_s":
                out[metric] = self.total_s[span]
            elif field == "nodes":
                out[metric] = self.nodes[span]
            elif field == "distinct_ratio":
                out[metric] = len(self.keys[span]) / self.calls[span] if self.calls[span] else 0.0
            elif field == "median_ms":
                durations = self.cells[span.rpartition(".")[2]]
                out[metric] = 1e3 * statistics.median(durations) if durations else 0.0
        for layer in ("hermite.lp_norm", "besov.norm_curve"):
            out[f"{layer}.nonfinite"] = sum(v for k, v in self.nonfinite.items() if k.startswith(f"{layer}."))
        lookups = c_beta_k_hits + c_beta_k_misses
        out["fractional.c_beta_k.hit_ratio"] = c_beta_k_hits / lookups if lookups else 0.0
        return out
