import json
import math
import random
import warnings
from dataclasses import replace
from itertools import product

import pytest

from gausscalc import (
    ExperimentConfig,
    HermiteExpansion,
    emit_report,
    gauss_hermite_grid,
    gen_family,
    l2_norm_coeffs,
    list_experiments,
    lp_norm_gamma,
    ou_mehler,
    ou_spectral,
    ph_spectral,
    ph_subordination,
    run_experiment,
)
from gausscalc.cli import main as cli_main
from gausscalc.harness import _seeded_rng, besov_total, load_config, parse_config_file

CFG_SMALL = ExperimentConfig(family_size=8, max_degree=6)


# -- seeded families --------------------------------------------------------------


def test_family_is_deterministic():
    a = gen_family(42, 1, 10, 8)
    b = gen_family(42, 1, 10, 8)
    assert all(x == y for x, y in zip(a, b))
    c = gen_family(43, 1, 10, 8)
    assert any(x != y for x, y in zip(a, c))


def test_family_constant_when_degree_zero():
    fam = gen_family(1, 1, 1, 0)
    assert len(fam) == 1
    assert fam[0].degree == 0
    assert abs(abs(fam[0].mean) - 1.0) < 1e-15


def test_family_unit_norm(grid2d):
    fam = gen_family(7, 2, 50, 8)
    assert len(fam) == 50
    for f in fam:
        assert f.degree <= 8
        assert abs(l2_norm_coeffs(f) - 1.0) < 1e-12
    for f in fam[:5]:
        assert abs(lp_norm_gamma(f, 2.0, grid2d) - 1.0) < 1e-10


def test_family_has_nonconstant_mode():
    for f in gen_family(3, 1, 30, 8):
        assert f.degree >= 1


def test_family_validation():
    with pytest.raises(ValueError):
        gen_family(1, 1, 0, 8)
    with pytest.raises(ValueError):
        gen_family(-1, 1, 5, 8)
    with pytest.raises(ValueError):
        gen_family(2**64, 1, 5, 8)


# -- configuration -----------------------------------------------------------------


def test_config_file_parsing(tmp_path):
    text = """
# comment line
seed = 99
alphas = 0.3, 0.7
qs = 2, inf
t_step = 0.04
out = report.json
"""
    path = tmp_path / "run.cfg"
    path.write_text(text)
    raw = parse_config_file(str(path))
    assert raw["seed"] == 99
    assert raw["alphas"] == (0.3, 0.7)
    assert raw["qs"] == (2.0, math.inf)
    assert raw["out"] == "report.json"


def test_config_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 99\ndimension = 2\n")
    cfg = load_config(str(path), seed=123)  # explicit flag wins over the file
    assert cfg.seed == 123
    assert cfg.dimension == 2
    assert cfg.family_size == 50  # default untouched


def test_config_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("wavelets = 3\n")
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config_file(str(path))


def test_config_bad_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed 99\n")
    with pytest.raises(ValueError, match="expected"):
        parse_config_file(str(path))


# -- experiment registry ------------------------------------------------------------


def test_unknown_experiment_rejected():
    with pytest.raises(ValueError, match="unknown experiment"):
        run_experiment("riesz-potential-unbounded")


def test_reserved_namespaces_rejected():
    with pytest.raises(ValueError, match="reserved"):
        run_experiment("laguerre/riesz-potential-bounded")
    with pytest.raises(ValueError, match="reserved"):
        run_experiment("jacobi/anything")


def test_hypothesis_violation_names_the_inequality():
    bad = ExperimentConfig(alphas=(0.4,), betas=(0.7,), family_size=4)
    with pytest.raises(ValueError, match=r"0 < beta < alpha < 1"):
        run_experiment("riesz-derivative-bounded-lt1", bad)
    with pytest.raises(ValueError, match=r"beta > 0"):
        run_experiment("riesz-potential-bounded", ExperimentConfig(betas=(-1.0,)))


def test_listing_contains_all_and_reserved():
    names = [name for name, _ in list_experiments()]
    assert "inversion" in names and "oracles" in names
    assert any(n.startswith("laguerre/") for n in names)


def test_inversion_experiment_passes():
    rep = run_experiment("inversion", CFG_SMALL)
    assert rep.passed
    for check in rep.checks:
        assert check["value"] <= 1e-12


@pytest.mark.parametrize(
    "cfg", [ExperimentConfig(), ExperimentConfig(dimension=2, family_size=10, max_degree=3)], ids=["default", "d2"]
)
def test_oracle_checks_equal_a_loop_of_one_sample_calls(cfg):
    # the experiment evaluates its samples in chunks; a loop through the
    # public one-sample functions, in the same draw order, gives its bits
    family = gen_family(cfg.seed, cfg.dimension, cfg.family_size, cfg.max_degree)
    rng = _seeded_rng(cfg.seed, 1)
    grid = gauss_hermite_grid(cfg.dimension, 4 * cfg.max_degree + 8)
    worst_mehler = worst_sub = 0.0
    for i in range(100):
        f = family[i % len(family)]
        t = float(rng.uniform(0.05, 5.0))
        x = rng.uniform(-2.0, 2.0, cfg.dimension)
        worst_mehler = max(worst_mehler, abs(ou_mehler(f, t, x, grid) - ou_spectral(f, t)(x)))
        worst_sub = max(worst_sub, abs(ph_subordination(f, t, x) - ph_spectral(f, t)(x)))
    values = {c["name"]: c["value"] for c in run_experiment("oracles", cfg).checks}
    got = [values["mehler-vs-spectral"].hex(), values["subordination-vs-spectral"].hex()]
    assert got == [worst_mehler.hex(), worst_sub.hex()]


def _loop_inversion(family, beta):
    """The inversion check's worst error as a loop of public calls, member by member."""
    from gausscalc import pi0, riesz_derivative, riesz_potential

    worst = 0.0
    for f in family:
        target, norm = pi0(f), l2_norm_coeffs(f)
        e1 = l2_norm_coeffs(riesz_derivative(riesz_potential(f, beta), beta) - target)
        e2 = l2_norm_coeffs(riesz_potential(riesz_derivative(f, beta), beta) - target)
        worst = max(worst, e1 / norm, e2 / norm)
    return worst


def _loop_agreement(family, betas, op, integral_op):
    """An operator agreement's worst relative coefficient error as a loop of public calls."""
    worst = 0.0
    for b in betas:
        for f in family:
            exact, approx = op(f, b), integral_op(f, b)
            for nu, c in exact.coeffs.items():
                if c != 0.0:
                    worst = max(worst, abs(approx.coefficient(nu) - c) / abs(c))
    return worst


def _run_on(name, cfg, family):
    """run_experiment(name, cfg) on this family instead of cfg's."""
    from gausscalc import harness

    token = harness._FAMILY_SOURCE.set(lambda cfg: (family, "0" * 40))
    try:
        return run_experiment(name, cfg)
    finally:
        harness._FAMILY_SOURCE.reset(token)


def _odd_family(d):
    """A seeded family with a constant member, a member with an order-0 term and a repeated member."""
    family = gen_family(20260809, d, 8, 6)
    one, two = (1,) + (0,) * (d - 1), (2,) + (0,) * (d - 1)
    extra = {(0,) * d: 0.3, two: -0.7, one: 0.2}
    return family + [HermiteExpansion.constant(d, 1.5), HermiteExpansion(d, extra), family[3]]


def _dense_family(d):
    """Four members on every index up to degree 24 (d = 1) or 6 (d = 2): 25 or 28 terms, summed past numpy's pairwise blocks."""
    rng = _seeded_rng(7, 3)
    indices = [nu for nu in product(range(25 if d == 1 else 7), repeat=d) if sum(nu) <= (24 if d == 1 else 6)]
    return [HermiteExpansion(d, dict(zip(indices, rng.uniform(-1.0, 1.0, len(indices))))) for _ in range(4)]


AGREEMENT_CONFIGS = [
    (ExperimentConfig(), None),
    (ExperimentConfig(dimension=2, family_size=12, max_degree=4), None),
    (ExperimentConfig(family_size=11, max_degree=6), _odd_family(1)),
    (ExperimentConfig(dimension=2, family_size=11, max_degree=6), _odd_family(2)),
    (ExperimentConfig(family_size=4, max_degree=24), _dense_family(1)),
    (ExperimentConfig(dimension=2, family_size=4, max_degree=6), _dense_family(2)),
]
AGREEMENT_IDS = ["default", "d2", "odd-d1", "odd-d2", "dense-d1", "dense-d2"]


@pytest.mark.parametrize("cfg,family", AGREEMENT_CONFIGS, ids=AGREEMENT_IDS)
def test_inversion_values_equal_a_loop_of_public_calls(cfg, family):
    # one array pass per beta over the padded coefficient table gives each
    # of the five values the bits of the member-by-member loop
    if family is None:
        family = gen_family(cfg.seed, cfg.dimension, cfg.family_size, cfg.max_degree)
    values = [c["value"].hex() for c in _run_on("inversion", cfg, family).checks]
    assert values == [_loop_inversion(family, b).hex() for b in (0.3, 0.5, 0.9, 1.5, 2.5)]


@pytest.mark.parametrize("cfg,family", AGREEMENT_CONFIGS, ids=AGREEMENT_IDS)
def test_agreement_values_equal_a_loop_of_public_calls(cfg, family):
    # the oracles' four integral-path values and the derivative rows'
    # difference-path values have the bits of the member-by-member loop
    from gausscalc import fractional as fr
    from gausscalc import harness

    if family is None:
        family = gen_family(cfg.seed, cfg.dimension, cfg.family_size, cfg.max_degree)
    values = {c["name"]: c["value"].hex() for c in _run_on("oracles", cfg, family).checks}
    for label in ("riesz-potential", "bessel-potential", "riesz-derivative", "bessel-derivative"):
        name = label.replace("-", "_")
        want = _loop_agreement(family[:10], (0.3, 0.5, 0.9, 1.5, 2.5), getattr(fr, name), getattr(fr, name + "_integral"))
        assert values[f"integral-path[{label}]"] == want.hex()
    for row in ("riesz-derivative-bounded", "bessel-derivative-bounded-lt1"):
        experiment = harness.EXPERIMENTS[row]
        rep = _run_on(row, replace(cfg, qs=(2.0,)), family)
        (got,) = [c["value"] for c in rep.checks if c["name"].startswith("difference-path-agreement")]
        op, integral_op = getattr(fr, experiment.operator), getattr(fr, experiment.integral_operator)
        assert got.hex() == _loop_agreement(family[:5], experiment.betas, op, integral_op).hex()


def test_riesz_potential_experiment(tiny_cfg=None):
    rep = run_experiment("riesz-potential-bounded", CFG_SMALL)
    assert rep.passed
    assert rep.max_ratio is not None and math.isfinite(rep.max_ratio)
    labels = {c["name"].split("[")[0] for c in rep.checks}
    assert {"ratios-finite", "grid-stability", "scale-invariance"} <= labels


def test_scale_invariance_of_ratios():
    f = gen_family(11, 1, 1, 8)[0]
    r1 = besov_total(f, 1.0, 2.0, 2.0) / besov_total(f, 0.5, 2.0, 2.0)
    g = 10.0 * f
    r2 = besov_total(g, 1.0, 2.0, 2.0) / besov_total(g, 0.5, 2.0, 2.0)
    assert abs(r1 - r2) <= 1e-12 * r1


# -- reports -----------------------------------------------------------------------


def test_reports_are_deterministic():
    r1 = run_experiment("inversion", CFG_SMALL)
    r2 = run_experiment("inversion", CFG_SMALL)
    assert r1.payload() == r2.payload()
    j1 = json.loads(emit_report(r1))
    j2 = json.loads(emit_report(r2))
    del j1["meta"], j2["meta"]
    assert json.dumps(j1, sort_keys=True) == json.dumps(j2, sort_keys=True)


def test_json_report_round_trips_floats():
    rep = run_experiment("riesz-potential-bounded", CFG_SMALL)
    doc = json.loads(emit_report(rep, "json"))
    stored = {row["label"]: row["ratio"] for row in doc["ratios"]}
    for row in rep.ratios:
        assert stored[row["label"]] == row["ratio"]  # bit-exact


def test_csv_report_round_trips_floats():
    import csv as csvmod
    import io

    rep = run_experiment("riesz-potential-bounded", CFG_SMALL)
    text = emit_report(rep, "csv")
    rows = list(csvmod.reader(io.StringIO(text)))
    assert rows[0] == ["kind", "name", "passed", "value", "bound"]
    stored = {name: float(value) for kind, name, _, value, _ in rows[1:] if kind == "ratio"}
    for row in rep.ratios:
        assert stored[row["label"]] == row["ratio"]


def test_text_report_mentions_pass():
    rep = run_experiment("inversion", CFG_SMALL)
    text = emit_report(rep, "text")
    assert "[PASS]" in text and "overall: PASS" in text


def test_emit_rejects_unknown_format():
    rep = run_experiment("inversion", CFG_SMALL)
    with pytest.raises(ValueError):
        emit_report(rep, "yaml")


def test_failing_check_flips_exit_semantics():
    # unreachable tolerance forces a named failure row and passed=False
    cfg = ExperimentConfig(family_size=4, tol_inversion=0.0)
    rep = run_experiment("inversion", cfg)
    assert not rep.passed
    assert any(not c["passed"] for c in rep.checks)


def test_nan_ratios_fail_every_gate():
    # max() and "> 0" both drop a NaN: grid stability and scale invariance
    # passed with value 0 and max_ratio read 0
    from gausscalc.harness import TheoremReport, _ratio_suites

    rep = TheoremReport(experiment="none", statement="", config={}, provenance={})
    family = gen_family(3, 1, 3, 4)
    _ratio_suites(rep, ExperimentConfig(), family, lambda f: math.nan * f, 0.5, 0.5, (2.0,), (math.inf,))
    assert not rep.passed
    assert [c["passed"] for c in rep.checks] == [False, False, False]
    assert all(math.isnan(c["value"]) for c in rep.checks[1:])
    assert math.isnan(rep.max_ratio)


def test_worst_is_floored_at_zero_and_nan_anywhere():
    from gausscalc.harness import _worst

    assert _worst([]) == 0.0 and _worst([-1.0]) == 0.0
    assert math.isnan(_worst([math.nan, 1.0])) and math.isnan(_worst([1.0, math.nan]))


def _nan_times(fn):
    return lambda *args: math.nan * fn(*args)


def _nan_left_sides(fn):
    return lambda *args: [(math.nan, rhs) for _, rhs in fn(*args)]


def _nan_refined_decay(fn):
    # decay_grid(119) is the refined grid; the coarse report, and so the monotone check, stay as they are
    return lambda ts, *rest: replace(fn(ts, *rest), fitted_c=math.nan) if len(ts) == 119 else fn(ts, *rest)


def _nan_qinf_totals_at_half(fn):
    # patched above the memo (_TOTALS), so a hit cannot hide the injection
    def totals(fs, alpha, ps, q, *rest):
        out = fn(fs, alpha, ps, q, *rest)
        return [[[math.nan] * len(level) for level in member] for member in out] if (alpha, q) == (0.5, math.inf) else out

    return totals


def _nan_mass_at_one(fn):
    return lambda t: math.nan if t == 1.0 else fn(t)


# (module, attribute, wrapper, experiment, check): before every worst value
# came from _worst, each of these passed with value 0.0
NAN_INJECTIONS = [
    ("semigroups", "_ou_mehler_rows", _nan_times, "oracles", "mehler-vs-spectral"),
    ("besov", "_hardy_sides", _nan_left_sides, "lemmas", "averaging-inequalities"),
    ("besov", "_hardy_sides", _nan_left_sides, "lemmas", "averaging-equality-at-p1"),
    ("fractional", "riesz_derivative_integral", _nan_times, "riesz-derivative-bounded-lt1", "difference-path-agreement[beta=0.4]"),
    ("fractional", "riesz_derivative_integral", _nan_times, "oracles", "integral-path[riesz-derivative]"),
    ("harness", "_lp_norms", _nan_times, "lemmas", "difference-bounded-by-derivative"),
    ("besov", "_decay_report", _nan_refined_decay, "lemmas", "decay-constant-grid-stable"),
    ("harness", "_besov_totals", _nan_qinf_totals_at_half, "lemmas", "inclusion-ratios-finite"),
    ("harness", "_kernel_mass", _nan_mass_at_one, "oracles", "kernel-mass"),
]


@pytest.mark.parametrize(
    "module,attr,wrap,experiment,check", NAN_INJECTIONS, ids=[f"{row[1]}-{row[4]}" for row in NAN_INJECTIONS]
)
def test_nan_injection_fails_its_check(monkeypatch, module, attr, wrap, experiment, check):
    import importlib

    mod = importlib.import_module(f"gausscalc.{module}")
    monkeypatch.setattr(mod, attr, wrap(getattr(mod, attr)))
    rep = run_experiment(experiment, CFG_SMALL)
    (row,) = [c for c in rep.checks if c["name"] == check]
    assert not row["passed"] and not rep.passed
    if row["value"] is not None:
        assert math.isnan(row["value"])
    if check == "inclusion-ratios-finite":  # the q = 2 -> inf record is NaN, not 0.0
        (record,) = [r["ratio"] for r in rep.ratios if r["label"] == "inclusion[q2->qinf]"]
        assert math.isnan(record)


def test_zero_member_fails_inversion_with_nan():
    # gen_family normalises every member, so only an installed family has one:
    # its relative error is 0/0, and the NaN fails every inversion check
    family = gen_family(7, 1, 4, 6) + [HermiteExpansion(1, {})]
    with pytest.warns(RuntimeWarning):
        rep = _run_on("inversion", CFG_SMALL, family)
    assert not rep.passed and rep.checks
    for check in rep.checks:
        assert check["name"].startswith("inversion[") and not check["passed"] and math.isnan(check["value"])


def test_empty_report_is_valid():
    from gausscalc.harness import TheoremReport

    rep = TheoremReport(experiment="none", statement="", config={}, provenance={})
    assert rep.passed
    doc = json.loads(emit_report(rep, "json"))
    assert doc["checks"] == [] and doc["passed"]
    assert "overall: PASS" in emit_report(rep, "text")


def test_dimension_two_smoke():
    cfg = ExperimentConfig(dimension=2, family_size=6, max_degree=5)
    for name in ("inversion", "riesz-potential-bounded"):
        assert run_experiment(name, cfg).passed


def test_memoized_terms_leave_reports_unchanged(monkeypatch):
    # bessel-potential-bounded shares riesz-potential-bounded's denominators
    # (alpha = 0.5): run warm it takes them from the memo, with the same bits;
    # at ps = 1, 3, 4 the memo holds p = 3 and 4 and computes only p = 1
    from gausscalc import besov, harness, hermite

    cfg = ExperimentConfig(dimension=2, family_size=2, max_degree=4)
    calls = []
    norm_curves = besov._norm_curves
    monkeypatch.setattr(besov, "_norm_curves", lambda *args: calls.append(1) or norm_curves(*args))

    def cold_caches():
        harness._TOTALS.cache_clear()
        hermite._basis_table.cache_clear()
        calls.clear()

    def payload(name, ps):
        doc = json.loads(emit_report(run_experiment(name, replace(cfg, ps=ps))))
        del doc["meta"]
        return json.dumps(doc)

    for ps in ((3.0, 4.0), (1.0, 3.0, 4.0)):
        cold_caches()
        cold = payload("bessel-potential-bounded", ps)
        cold_calls = len(calls)
        cold_caches()
        payload("riesz-potential-bounded", (3.0, 4.0))
        calls.clear()
        assert payload("bessel-potential-bounded", ps) == cold
        assert len(calls) < cold_calls


def test_smoothness_memo_misses_on_every_key():
    from gausscalc.besov import SUP_POINTS
    from gausscalc.harness import _TOTALS, _besov_totals
    from gausscalc.timequad import DEFAULT_STEP

    f = gen_family(5, 1, 1, 6)[0]
    base = (f, 0.5, 4.0, 2.0, DEFAULT_STEP, SUP_POINTS)
    _TOTALS.cache_clear()
    value = besov_total(*base)
    for i, changed in ((1, 0.6), (2, 3.0), (2, 4), (3, 3.0), (3, math.inf), (4, DEFAULT_STEP / 2), (5, 2 * SUP_POINTS)):
        args = base[:i] + (changed,) + base[i + 1 :]
        misses = _TOTALS.misses
        besov_total(*args)
        assert _TOTALS.misses == misses + 1, args[1:]
    # an equal expansion with its coefficients in another order: lp_norm sums
    # them in that order, so a warm value must be the bits of a cold call
    rng = random.Random(0)
    family = gen_family(7, 1, 40, 8)
    shuffled = []
    for g in family:
        items = list(g.coeffs.items())
        rng.shuffle(items)
        shuffled.append(HermiteExpansion(1, dict(items)))
    rest = (0.5, (2.0, 4.0), 2.0, DEFAULT_STEP, SUP_POINTS, 1)
    _TOTALS.cache_clear()
    for g in family:
        _besov_totals([g], *rest)
    warm = [_besov_totals([g], *rest) for g in shuffled]
    _TOTALS.cache_clear()
    assert warm == [_besov_totals([g], *rest) for g in shuffled]
    # several ps: only the missing ones are computed, and each is the bits of its one-p call
    besov_total(*base)
    misses = _TOTALS.misses
    ((both,),) = _besov_totals([f], 0.5, (4.0, 3.0), 2.0, DEFAULT_STEP, SUP_POINTS, 1)
    assert _TOTALS.misses == misses + 1
    assert both == [value, besov_total(f, 0.5, 3.0, 2.0, DEFAULT_STEP, SUP_POINTS)]


def test_paired_totals_serve_besov_total_with_the_bits_of_a_cold_call():
    # a boundedness row stores one entry per p for its source family, holding
    # every member's coarse and refined totals: the same family call made
    # again hits one entry per p, and each coarse total is the bits of a cold
    # besov_total call for the member alone
    from gausscalc import harness

    cfg = ExperimentConfig(family_size=3, max_degree=6, ps=(1.0, 2.0, 3.0))
    family = gen_family(cfg.seed, cfg.dimension, cfg.family_size, cfg.max_degree)
    qs = (2.0, math.inf)
    harness._TOTALS.cache_clear()
    assert run_experiment("riesz-derivative-bounded-lt1", cfg).passed
    hits = harness._TOTALS.hits
    paired = [harness._besov_totals(family, 0.7, cfg.ps, q, cfg.t_step, cfg.sup_points, cfg.refine) for q in qs]
    assert harness._TOTALS.hits == hits + len(qs) * len(cfg.ps)
    harness._TOTALS.cache_clear()
    cold = [[besov_total(f, 0.7, p, q, cfg.t_step, cfg.sup_points) for p in cfg.ps] for q in qs for f in family]
    assert [coarse for totals in paired for coarse, _ in totals] == cold


def test_lemmas_decay_records_are_kdecay_report_bits():
    # one curve per (member, k) on decay_grid(119) gives the 60-node records as its even nodes
    from gausscalc.besov import decay_grid, kdecay_report

    cfg = ExperimentConfig(family_size=4, max_degree=5)
    family = gen_family(cfg.seed, cfg.dimension, cfg.family_size, cfg.max_degree)
    ratios = {r["label"]: r["ratio"] for r in run_experiment("lemmas", cfg).ratios}
    for p in (1.0, 2.0, 4.0):
        for k in (1, 2, 3):
            fitted = max(kdecay_report(f, p, k, decay_grid()).fitted_c for f in family)
            assert ratios[f"decay-constant[k={k},p={p:g}]"] == fitted


def test_lemmas_k_independence_records_follow_t_step():
    # like the inclusion records, the k-independence records use cfg.t_step
    from gausscalc.besov import besov_params, besov_seminorm, lp_norm, smallest_k

    cfg = ExperimentConfig(family_size=3, max_degree=5, t_step=0.04)
    family = gen_family(cfg.seed, cfg.dimension, cfg.family_size, cfg.max_degree)
    ratios = {r["label"]: r["ratio"] for r in run_experiment("lemmas", cfg).ratios}
    for a, p, q in ((0.5, 2.0, 2.0), (0.5, 2.0, 1.0), (1.3, 2.0, 2.0)):
        k = smallest_k(a)
        totals = [
            [lp_norm(f, p) + besov_seminorm(f, besov_params(a, p, q, j), cfg.t_step) for j in (k, k + 1)]
            for f in family
        ]
        spread = [with_k1 / with_k for with_k, with_k1 in totals]
        assert ratios[f"k-independence[alpha={a:g},q={q:g}]"] == max(max(spread), 1.0 / min(spread))


def test_totals_give_equal_members_equal_bits():
    # a family may hold equal members (single chaoses of one sign); each is
    # evaluated in the family call, with the bits of a call for it alone
    from gausscalc import harness
    from gausscalc.besov import SUP_POINTS
    from gausscalc.timequad import DEFAULT_STEP

    f, g = gen_family(5, 1, 2, 6)
    harness._TOTALS.cache_clear()
    rest = (0.5, (2.0, 3.0), 2.0, DEFAULT_STEP, SUP_POINTS, 2)
    totals = harness._besov_totals([f, g, 1.0 * f], *rest)
    assert totals[2] == totals[0] != totals[1]
    harness._TOTALS.cache_clear()
    assert totals == [harness._besov_totals([h], *rest)[0] for h in (f, g, f)]


@pytest.mark.parametrize("q", (0.5, math.nan))
def test_totals_reject_q_below_one(q):
    from gausscalc.besov import SUP_POINTS
    from gausscalc.harness import _besov_totals
    from gausscalc.timequad import DEFAULT_STEP

    f = gen_family(5, 1, 1, 6)[0]
    for ps in ((2.0,), (1.0, 3.0)):
        with pytest.raises(ValueError, match="q must be >= 1"):
            _besov_totals([f], 0.5, ps, q, DEFAULT_STEP, SUP_POINTS, 1)


def test_totals_memo_keeps_the_most_recent_entries(monkeypatch):
    from gausscalc import harness
    from gausscalc.hermite import _LRUCache

    f = gen_family(5, 1, 1, 6)[0]
    memo = _LRUCache(2)
    monkeypatch.setattr(harness, "_TOTALS", memo)
    ((first,),) = harness._besov_totals([f], 0.5, (2.0, 4.0), 2.0, 0.02, 200, 1)
    harness._besov_totals([f], 0.5, (2.0,), 2.0, 0.02, 200, 1)  # p = 2 is now the most recent
    harness._besov_totals([f], 0.5, (3.0,), 2.0, 0.02, 200, 1)  # evicts p = 4
    assert (memo.hits, memo.misses) == (1, 3)
    assert harness._besov_totals([f], 0.5, (2.0,), 2.0, 0.02, 200, 1) == [[first[:1]]]
    assert harness._besov_totals([f], 0.5, (4.0,), 2.0, 0.02, 200, 1) == [[first[1:]]]
    assert (memo.hits, memo.misses) == (2, 4)


def test_wide_row_makes_one_basis_product_per_member_resolution_q_and_grid(monkeypatch):
    # in d = 2, p = 1 and 3 share the m = 4 deg + 8 grid and p = 4 takes the
    # exact m = 2 deg + 1 grid; the A_k polish (19 time nodes per resolution,
    # in one call for both) is per p
    from gausscalc import harness, hermite

    cfg = ExperimentConfig(dimension=2, family_size=2, max_degree=4, ps=(1.0, 3.0, 4.0))
    products = []
    kernel = hermite._quadrature_norms

    def spy(phi, bound, coef, ps, weights):
        if coef.shape[1] > 38:
            products.append(tuple(ps))
        return kernel(phi, bound, coef, ps, weights)

    monkeypatch.setattr(hermite, "_quadrature_norms", spy)
    harness._TOTALS.cache_clear()
    assert run_experiment("riesz-derivative-bounded", cfg).passed
    # per q: the scaled one x (image, source) at the coarse resolution and
    # 2 members x (image, source) at both resolutions at once, since the
    # refined grid nests the coarse one; each evaluation with one call per grid
    evaluations = (1 * 2 + 2 * 2) * 2
    assert sorted(products) == sorted([(4.0,), (1.0, 3.0)] * evaluations)


@pytest.mark.parametrize("family_size", (3, 8))
def test_row_makes_a_fixed_number_of_besov_term_calls_per_q(monkeypatch, family_size):
    # per q: the members' images in one call at both resolutions, the scaled
    # image at the coarse one, and on a cold memo the same two for the
    # sources; never one call per member
    from gausscalc import besov, harness

    cfg = ExperimentConfig(family_size=family_size)
    calls = []
    terms = besov._besov_terms

    def spy(fs, alpha, ps, q, k, step, points, refine):
        calls.append((q, len(fs), refine))
        return terms(fs, alpha, ps, q, k, step, points, refine)

    monkeypatch.setattr(besov, "_besov_terms", spy)
    harness._TOTALS.cache_clear()
    assert run_experiment("riesz-potential-bounded", cfg).passed
    evaluations = [(family_size, cfg.refine), (1, 1)]
    assert sorted(calls) == sorted((q, n, r) for q in (2.0, math.inf) for n, r in evaluations * 2)
    calls.clear()
    assert run_experiment("riesz-potential-bounded", cfg).passed  # warm: every source total is a memo hit
    assert sorted(calls) == sorted((q, n, r) for q in (2.0, math.inf) for n, r in evaluations)


def test_lemmas_nested_space_records_are_besov_total_bits():
    # one memo call per (alpha, q) for the whole sample gives each member's
    # coarse total, the bits of a besov_total call for it alone
    from gausscalc import harness

    cfg = ExperimentConfig(family_size=12, max_degree=8)
    sample = gen_family(cfg.seed, cfg.dimension, cfg.family_size, cfg.max_degree)[:10]
    harness._TOTALS.cache_clear()
    ratios = {r["label"]: r["ratio"] for r in run_experiment("lemmas", cfg).ratios}
    harness._TOTALS.cache_clear()

    def worst(a_low, q_low, a_high, q_high):
        mx = 0.0
        for f in sample:
            low, high = besov_total(f, a_low, 2.0, q_low, cfg.t_step), besov_total(f, a_high, 2.0, q_high, cfg.t_step)
            mx = max(mx, low / high)
        return mx

    for (a1, a2) in ((0.9, 0.4), (1.5, 0.7)):
        for (q1, q2) in ((1.0, 4.0), (2.0, 2.0)):
            assert ratios[f"inclusion[{a1:g},q{q1:g}->{a2:g},q{q2:g}]"] == worst(a2, q2, a1, q1)
    assert ratios["inclusion[q1->q2]"] == worst(0.5, 2.0, 0.5, 1.0)
    assert ratios["inclusion[q2->qinf]"] == worst(0.5, math.inf, 0.5, 2.0)


def test_verify_all_builds_the_family_once(monkeypatch):
    # verify_all builds the family and its hash once for its nine
    # experiments; an experiment run on its own builds its own, after its
    # hypothesis checks
    from gausscalc import harness

    cfg = ExperimentConfig(family_size=2, max_degree=2)
    calls = []
    gen = harness.gen_family
    monkeypatch.setattr(harness, "gen_family", lambda *args: calls.append(args) or gen(*args))
    reports = harness.verify_all(cfg)
    assert calls == [(cfg.seed, cfg.dimension, cfg.family_size, cfg.max_degree)]
    shared = {json.dumps(r.payload(), sort_keys=True) for r in reports}
    for name, experiment in harness.EXPERIMENTS.items():
        for run in (lambda: run_experiment(name, cfg), lambda: experiment(cfg)):
            calls.clear()
            assert json.dumps(run().payload(), sort_keys=True) in shared
            assert len(calls) == 1


def test_row_shares_p2_tables_at_q_inf(monkeypatch):
    # in a default-config row the q = inf terms of each family call go in
    # chunks that share one orbit table for the sup grid and one for the
    # polish; the scaled source and its image, one-member calls, are chunks
    # of one, and nothing polishes by norm_curve
    from gausscalc import besov, harness

    cfg = ExperimentConfig(qs=(math.inf,))
    family = gen_family(cfg.seed, cfg.dimension, cfg.family_size, cfg.max_degree)
    calls, members = [], []

    def count(name):
        fn = getattr(besov, name)
        monkeypatch.setattr(besov, name, lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs))

    def spy(f, supports, *rest):
        members.append(len(supports))
        return orbit_curves(f, supports, *rest)

    count("_lp_norms")
    count("norm_curve")
    orbit_curves = besov._orbit_curves
    monkeypatch.setattr(besov, "_orbit_curves", spy)
    harness._TOTALS.cache_clear()
    assert run_experiment("riesz-potential-bounded", cfg).passed
    grid, polish = members[::2], members[1::2]
    assert grid == polish  # each chunk: one _orbit_curves call for its grid, then one for its polish
    assert sorted(grid)[:2] == [1, 1] and min(sorted(grid)[2:]) > 1
    assert sum(grid) == 2 * len(family) + 2  # images and sources, the scaled pair
    # each _orbit_curves call makes one _lp_norms call: two per chunk, over the
    # image chunks, the source chunks and the scaled pair's two chunks of one;
    # at p = 2 every polish runs in its chunk, so norm_curve is not called
    assert (calls.count("_lp_norms"), calls.count("norm_curve")) == (len(members), 0)


def test_row_gives_equal_images_equal_ratios(monkeypatch):
    # members 1 and 36 of the default family are equal, so are their images;
    # each member is evaluated in the family calls, and the two get equal ratios
    from gausscalc import besov, harness

    cfg = ExperimentConfig()
    family = gen_family(cfg.seed, cfg.dimension, cfg.family_size, cfg.max_degree)
    assert family[1] == family[36]
    sizes = []
    terms = besov._besov_terms
    monkeypatch.setattr(besov, "_besov_terms", lambda fs, *rest: sizes.append(len(fs)) or terms(fs, *rest))
    harness._TOTALS.cache_clear()
    report = run_experiment("riesz-potential-bounded", cfg)
    assert sorted(sizes) == [1, 1, 1, 1, 50, 50, 50, 50]  # per q: images and sources, the scaled pair
    ratios = {r["label"]: r["ratio"] for r in report.ratios}
    for q in ("2", "inf"):
        assert ratios[f"f001[alpha=0.5,p=2,q={q}]"] == ratios[f"f036[alpha=0.5,p=2,q={q}]"]


# -- command line ---------------------------------------------------------------------


def test_cli_list(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    assert "inversion" in out and "laguerre/" in out


def test_cli_run_inversion(capsys, tmp_path):
    out = tmp_path / "rep.json"
    code = cli_main(
        ["run", "inversion", "--family-size", "6", "--max-degree", "6", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["experiment"] == "inversion" and doc["passed"]


def test_cli_run_text_format(capsys):
    code = cli_main(["run", "inversion", "--family-size", "4", "--format", "text"])
    assert code == 0
    assert "overall: PASS" in capsys.readouterr().out


def test_cli_unknown_experiment_is_usage_error(capsys):
    assert cli_main(["run", "nonsense"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_cli_reserved_namespace_is_usage_error(capsys):
    assert cli_main(["run", "laguerre/foo"]) == 2


def test_cli_bad_config_path(capsys):
    assert cli_main(["run", "inversion", "--config", "/nonexistent.cfg"]) == 2


def test_cli_config_file_applies(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("family_size = 5\nmax_degree = 5\n")
    code = cli_main(["run", "inversion", "--config", str(cfg), "--format", "text"])
    assert code == 0


def test_cli_passes_at_degree_60(tmp_path, capsys):
    # |f|^p of the degree-60 members overflowed on the quadrature route at p = 7.5
    cfg = tmp_path / "c.cfg"
    cfg.write_text("ps = 7.5\nfamily_size = 2\nmax_degree = 60\n")
    assert cli_main(["run", "bessel-potential-bounded", "--config", str(cfg), "--format", "text"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_cli_passes_at_alpha_near_one(tmp_path, capsys):
    # (k - alpha) q = 0.02 put the seminorm's time window below t = e^(-709),
    # and every ratio came out NaN
    cfg = tmp_path / "c.cfg"
    cfg.write_text("alphas = 0.99\nfamily_size = 5\n")
    assert cli_main(["run", "riesz-potential-bounded", "--config", str(cfg), "--format", "text"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_cli_failing_invariant_exits_one(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("tol_inversion = 0\nfamily_size = 4\n")
    assert cli_main(["run", "inversion", "--config", str(cfg)]) == 1


@pytest.mark.parametrize(
    "experiment,beta,message",
    [
        ("oracles", "200", "beta must be <= 50 in the integral forms, got beta = 200"),
        ("inversion", "1e300", "beta = 1e+300 takes a spectral multiplier of f past the float range"),
    ],
)
def test_cli_beta_out_of_range_is_usage_error(tmp_path, capsys, experiment, beta, message):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"betas = {beta}\nfamily_size = 2\nmax_degree = 4\n")
    assert cli_main(["run", experiment, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"gausscalc: {message}\n"


@pytest.mark.parametrize(
    "experiment,lines,code",
    [
        # a q-th power of t^(k-alpha) ||u^(k)||_p is taken after a power-of-two
        # scale, so q = 1000 stays finite; past MAX_Q = 1000 q is refused
        ("riesz-derivative-bounded", "qs = 1000\nfamily_size = 2\n", 0),
        ("riesz-derivative-bounded", "qs = 1e308\nfamily_size = 2\n", 2),
        # orbit factors of 2^750 at degree 2, and their squares past the float range before the scale
        ("riesz-potential-bounded", "alphas = 1500\nbetas = 0.5\nfamily_size = 2\nmax_degree = 3\n", 0),
        ("riesz-potential-bounded", "alphas = 1000\nbetas = 0.5\nfamily_size = 2\nmax_degree = 3\n", 0),
        # at degree 8 the factors sqrt(n)^k themselves leave the float range
        ("riesz-potential-bounded", "alphas = 1500\nbetas = 0.5\nfamily_size = 2\n", 2),
    ],
    ids=["q-1000", "q-1e308", "alpha-1500-degree-3", "alpha-1000-degree-3", "alpha-1500-degree-8"],
)
def test_cli_large_q_and_alpha_give_finite_values_or_a_usage_error(tmp_path, capsys, experiment, lines, code):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(lines)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli_main(["run", experiment, "--config", str(cfg)]) == code
    out, err = capsys.readouterr()
    if code == 0:
        report = json.loads(out)
        assert report["ratios"] and all(math.isfinite(r["ratio"]) for r in report["ratios"])
    elif "qs" in lines:
        assert err == "gausscalc: q = 1e+308 beyond the supported range (q <= 1000, or q = inf)\n"
    else:
        assert err.startswith("gausscalc: alpha = 150") and "(k = 1501)" in err and "beyond the float range" in err


def test_cli_verify_all_prints_each_runtime_in_milliseconds(tmp_path, capsys):
    # one progress line per experiment, its runtime in ms to 0.1 ms: the
    # report's meta.runtime_s, in seconds, is unchanged
    out = tmp_path / "all.json"
    assert cli_main(["verify-all", "--family-size", "2", "--max-degree", "3", "--out", str(out)]) == 0
    text, decoder, docs = out.read_text(), json.JSONDecoder(), []
    while text.strip():
        doc, end = decoder.raw_decode(text.lstrip())
        docs.append(doc)
        text = text.lstrip()[end:]
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(docs) == 9
    for line, doc in zip(lines, docs):
        assert line == f"[PASS] {doc['experiment']}  ({doc['meta']['runtime_s'] * 1e3:.1f} ms)"


def test_cli_verify_all_hypothesis_violation_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("alphas = 0.1\nfamily_size = 2\nmax_degree = 2\n")
    assert cli_main(["verify-all", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gausscalc: ") and "0 < beta < alpha < 1" in err


@pytest.mark.parametrize("argv", [["run", "inversion"], ["verify-all"]], ids=["run", "verify-all"])
def test_cli_unwritable_out_is_usage_error(tmp_path, capsys, argv):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("family_size = 2\nmax_degree = 2\n")
    out = tmp_path / "missing" / "rep.json"
    assert cli_main([*argv, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"gausscalc: cannot write {out}: ")


@pytest.mark.parametrize("argv", [["run", "inversion"], ["verify-all"]], ids=["run", "verify-all"])
def test_cli_unwritable_out_fails_before_any_experiment(tmp_path, capsys, monkeypatch, argv):
    def must_not_run(*args, **kwargs):
        raise AssertionError("an experiment ran before --out was checked")

    monkeypatch.setattr("gausscalc.harness.run_experiment", must_not_run)
    monkeypatch.setattr("gausscalc.cli.run_experiment", must_not_run)
    out = tmp_path / "missing" / "rep.json"
    assert cli_main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"gausscalc: cannot write {out}: ")


def test_cli_write_failure_after_the_run_is_usage_error(tmp_path, capsys, monkeypatch):
    # the directory vanishes between the check and the write
    monkeypatch.setattr("gausscalc.cli._unwritable", lambda path: None)
    out = tmp_path / "missing" / "rep.json"
    assert cli_main(["run", "inversion", "--family-size", "2", "--max-degree", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"gausscalc: cannot write {out}: ")


def test_cli_derivative_at_small_order(tmp_path, capsys):
    # beta = 0.02 puts the time rule's algebraic tail past e^709
    cfg = tmp_path / "c.cfg"
    cfg.write_text("alphas = 0.7\nbetas = 0.02\n")
    out = tmp_path / "rep.json"
    assert cli_main(["run", "riesz-derivative-bounded-lt1", "--config", str(cfg), "--out", str(out)]) == 0
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["difference-path-agreement[beta=0.02]"]["passed"]


@pytest.mark.parametrize(
    "experiment,line", [("riesz-potential-bounded", "alphas = inf"), ("bessel-potential-bounded", "betas = inf")]
)
def test_cli_infinite_smoothness_is_usage_error(tmp_path, capsys, experiment, line):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(line + "\nfamily_size = 2\nmax_degree = 2\n")
    assert cli_main(["run", experiment, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gausscalc: ") and "finite" in err
    assert line.split(" = ")[0] in err  # the message names the offending key


@pytest.mark.parametrize("value", ("inf", "nan"))
def test_cli_rejects_a_t_step_that_is_not_finite(tmp_path, capsys, value):
    # t_step = inf used to pass the config check and fail in log_time_rule,
    # with a message that did not name the key
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"t_step = {value}\nfamily_size = 2\nmax_degree = 2\n")
    assert cli_main(["run", "lemmas", "--config", str(cfg)]) == 2
    assert "invalid config: requires finite t_step > 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line,requirement",
    [
        ("refine = 0", "refine >= 2"),
        ("refine = 1", "refine >= 2"),
        ("fmt = xml", "fmt in"),
        ("dimension = 3", "dimension in"),
        ("family_size = 0", "family_size >= 1"),
        ("max_degree = -1", "max_degree >= 0"),
        ("sup_points = 1", "sup_points >= 16"),
        ("t_step = 0", "t_step > 0"),
        ("tol_ratio_stability = nan", "tol_ratio_stability >= 0"),
        ("tol_inversion = -1", "tol_inversion >= 0"),
    ],
)
def test_config_validation(tmp_path, capsys, line, requirement):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(line + "\n")
    with pytest.raises(ValueError, match=requirement):
        load_config(str(cfg))
    assert cli_main(["run", "inversion", "--config", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err
