"""Self-tests of the benchmark: routing, tracing hygiene, host-speed sampling, metric names, workload configs.

    python3 -m pytest perfbench -q
"""

import json
import math
import re
import signal
import sys
import time
from pathlib import Path

import pytest

import gausscalc
import gausscalc.cli
from gausscalc import besov, harness, hermite
from gausscalc.hermite import HermiteExpansion

import hostspeed
import run
import tracing
import workloads

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

F1 = HermiteExpansion(1, {(1,): 0.6, (2,): -0.5, (3,): 0.4})
F2 = HermiteExpansion(2, {(1, 0): 0.6, (1, 1): -0.5, (0, 2): 0.4})
PS = (1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0)


def _spy(monkeypatch, module, names):
    seen = []
    for name in names:
        original = getattr(module, name)

        def spy(*args, _original=original, _name=name, **kwargs):
            seen.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return seen


@pytest.mark.parametrize("p", PS)
@pytest.mark.parametrize("f", [F1, F2], ids=["d1", "d2"])
def test_route_classifier_matches_lp_norm(monkeypatch, f, p):
    seen = _spy(monkeypatch, hermite, ["l2_norm_coeffs", "_abs_moment_exact_1d", "default_grid", "gauss_hermite_grid"])
    hermite.lp_norm(f, p)
    if "l2_norm_coeffs" in seen:
        observed = "coeff"
    elif "_abs_moment_exact_1d" in seen:
        observed = "odd_exact"
    elif "default_grid" in seen:
        observed = "quadrature"
    else:
        assert "gauss_hermite_grid" in seen
        observed = "even_exact"
    assert tracing.route(p, f.dimension, even_exact=True) == observed


@pytest.mark.parametrize("p", PS)
@pytest.mark.parametrize("f", [F1, F2], ids=["d1", "d2"])
def test_route_classifier_matches_norm_curve(monkeypatch, f, p):
    seen = _spy(monkeypatch, besov, ["_abs_moment_exact_1d", "default_grid"])
    besov.norm_curve(f, 1, p, [0.1, 1.0])
    observed = {(): "coeff", ("_abs_moment_exact_1d",): "odd_exact", ("default_grid",): "quadrature"}[tuple(set(seen))]
    assert tracing.route(p, f.dimension, even_exact=False) == observed


def _bindings():
    """Every gausscalc module and class attribute, by identity."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "gausscalc" or name.startswith("gausscalc."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if isinstance(value, type):
                    out.update({(name, attr, m): v for m, v in vars(value).items()})
    return out


def _small_pass():
    cfg = harness.ExperimentConfig(family_size=2, max_degree=4)
    report = gausscalc.harness.run_experiment("inversion", cfg)
    norms = [gausscalc.besov_norm(F1, gausscalc.besov_params(0.7, p, math.inf)).total for p in (1, 2, 3, 4)]
    norms.append(gausscalc.besov_norm(F2, gausscalc.besov_params(0.7, 3, 2)).total)
    return json.dumps(report.payload(), sort_keys=True), norms


def test_tracer_restores_every_binding_and_keeps_outputs():
    before = _bindings()
    plain = _small_pass()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = _small_pass()
    finally:
        tracer.uninstall()
    after = _bindings()
    assert tracer.unrestored() == []
    assert [k for k in before if after.get(k) is not before[k]] == []
    assert traced == plain
    # the package __init__, besov and harness bind lp_norm directly: all were patched
    patched = {(getattr(ns, "__name__", ""), attr) for ns, attr, _ in tracer.patches}
    assert {("gausscalc", "lp_norm"), ("gausscalc.hermite", "lp_norm"), ("gausscalc.besov", "lp_norm")} <= patched
    m = tracer.metrics(0, 0)
    assert m["harness.experiment.inversion.total_s"] > 0
    assert m["besov.besov_norm.calls"] == 5
    assert m["besov.norm_curve.odd_exact.calls"] > 0 and m["besov.norm_curve.quadrature.calls"] > 0
    assert m["besov.norm_curve.odd_exact.nodes"] > 0
    assert m["besov.besov_norm.d1-p3-qinf.median_ms"] > 0
    for name_id, start, end, parent in tracer.spans:
        assert end >= start and parent < len(tracer.spans)


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        gausscalc.besov_norm(F1, gausscalc.besov_params(0.7, 3, math.inf))
    finally:
        tracer.uninstall()
    total = tracer.total_s["besov.besov_norm"]
    assert sum(tracer.self_s.values()) == pytest.approx(total, rel=1e-9)
    assert tracer.self_s["besov.besov_norm"] < total


def test_metric_names():
    names = list(tracing.layer_metric_units()) + list(run.END_TO_END_UNITS)
    names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    bad = [n for n in names if not NAME.fullmatch(n) or len(n) > 64 or not n[0].isalnum()]
    assert bad == []


def test_benchmark_json_matches_reported_metrics():
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == tracing.layer_metric_units()
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert tuple(harness.EXPERIMENTS) == tracing.EXPERIMENT_IDS


class _HypothesesHeld(Exception):
    pass


def _stop(*args, **kwargs):
    raise _HypothesesHeld


@pytest.mark.parametrize("experiment", list(workloads.BOUNDEDNESS_PS))
def test_boundedness_ps_satisfy_hypotheses(monkeypatch, experiment):
    # every experiment validates its parameters before it builds the family
    monkeypatch.setattr(harness, "gen_family", _stop)
    cfg = harness.ExperimentConfig(dimension=2, ps=workloads.BOUNDEDNESS_PS[experiment])
    with pytest.raises(_HypothesesHeld):
        harness.EXPERIMENTS[experiment](cfg)


def test_riesz_potential_rejects_p1(monkeypatch):
    monkeypatch.setattr(harness, "gen_family", _stop)
    with pytest.raises(ValueError, match="1 < p"):
        harness.EXPERIMENTS["riesz-potential-bounded"](harness.ExperimentConfig(dimension=2, ps=(1.0,)))


def test_closed_form_check_agrees_with_besov_norm():
    params = gausscalc.besov_params(workloads.SWEEP_ALPHA, 2, 2)
    for f in (F1, F2):
        exact = workloads._closed_form_p2q2(f, workloads.SWEEP_ALPHA, params.k)
        assert gausscalc.besov_norm(f, params).total == pytest.approx(exact, rel=1e-8)


def test_sampler_times_the_kernel_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    sampler = hostspeed.Sampler(interval=0.005).start()
    end = time.perf_counter() + 0.2
    while time.perf_counter() < end:
        pass
    sampler.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 5
    assert sampler.busy_s == pytest.approx(math.fsum(sampler.samples))
    assert 0 < sampler.factor < 100


def test_sampler_samples_once_after_a_short_interval():
    sampler = hostspeed.Sampler(interval=10.0).start()
    sampler.stop()
    assert sampler.busy_s == 0.0 and len(sampler.samples) == 1 and sampler.factor > 0


def test_spans_on_the_sampler_clock_leave_out_the_kernel():
    sampler = hostspeed.Sampler(interval=0.002)
    tracer = tracing.Tracer(clock=sampler.clock)
    tracer.install()
    sampler.start()
    try:
        start = time.perf_counter()
        gausscalc.besov_norm(F1, gausscalc.besov_params(0.7, 3, math.inf))
        wall = time.perf_counter() - start
    finally:
        sampler.stop()
        tracer.uninstall()
    assert len(sampler.samples) > 0
    assert tracer.total_s["besov.besov_norm"] == pytest.approx(wall - sampler.busy_s, abs=1e-3)
