import json
import math
from dataclasses import replace

import pytest

from gausscalc import (
    ExperimentConfig,
    HermiteExpansion,
    emit_report,
    gen_family,
    l2_norm_coeffs,
    list_experiments,
    lp_norm_gamma,
    run_experiment,
)
from gausscalc.cli import main as cli_main
from gausscalc.harness import besov_total, load_config, parse_config_file

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


def test_json_report_round_trips_floats(tmp_path):
    rep = run_experiment("riesz-potential-bounded", CFG_SMALL)
    path = tmp_path / "rep.json"
    emit_report(rep, "json", str(path))
    doc = json.loads(path.read_text())
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
        harness._besov_totals.cache_clear()
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
    from gausscalc.harness import _besov_totals, besov_total
    from gausscalc.timequad import DEFAULT_STEP

    f = gen_family(5, 1, 1, 6)[0]
    base = (f, 0.5, 4.0, 2.0, DEFAULT_STEP, SUP_POINTS)
    _besov_totals.cache_clear()
    value = besov_total(*base)
    for i, changed in ((1, 0.6), (2, 3.0), (2, 4), (3, 3.0), (3, math.inf), (4, DEFAULT_STEP / 2), (5, 2 * SUP_POINTS)):
        args = base[:i] + (changed,) + base[i + 1 :]
        misses = _besov_totals.misses
        besov_total(*args)
        assert _besov_totals.misses == misses + 1, args[1:]
    # an equal expansion with its coefficients in another order is a hit, and
    # a cold call on it gives the same bits
    reordered = HermiteExpansion(1, dict(reversed(list(f.coeffs.items()))))
    hits = _besov_totals.hits
    assert besov_total(reordered, *base[1:]) == value
    assert _besov_totals.hits == hits + 1
    _besov_totals.cache_clear()
    assert besov_total(reordered, *base[1:]) == value
    # several ps: only the missing ones are computed, and each is the bits of its one-p call
    misses = _besov_totals.misses
    both = _besov_totals(f, 0.5, (4.0, 3.0), 2.0, DEFAULT_STEP, SUP_POINTS)
    assert _besov_totals.misses == misses + 1
    assert both == [value, besov_total(f, 0.5, 3.0, 2.0, DEFAULT_STEP, SUP_POINTS)]


@pytest.mark.parametrize("q", (0.5, math.nan))
def test_totals_reject_q_below_one(q):
    from gausscalc.besov import SUP_POINTS
    from gausscalc.harness import _besov_totals
    from gausscalc.timequad import DEFAULT_STEP

    f = gen_family(5, 1, 1, 6)[0]
    for ps in ((2.0,), (1.0, 3.0)):
        with pytest.raises(ValueError, match="q must be >= 1"):
            _besov_totals(f, 0.5, ps, q, DEFAULT_STEP, SUP_POINTS)


def test_totals_memo_keeps_the_most_recent_entries():
    from gausscalc.harness import _TotalsMemo

    f = gen_family(5, 1, 1, 6)[0]
    memo = _TotalsMemo(maxsize=2)
    first = memo(f, 0.5, (2.0, 4.0), 2.0, 0.02, 200)
    memo(f, 0.5, (2.0,), 2.0, 0.02, 200)  # p = 2 is now the most recent
    memo(f, 0.5, (3.0,), 2.0, 0.02, 200)  # evicts p = 4
    assert (memo.hits, memo.misses) == (1, 3)
    assert memo(f, 0.5, (2.0,), 2.0, 0.02, 200) == first[:1]
    assert memo(f, 0.5, (4.0,), 2.0, 0.02, 200) == first[1:]
    assert (memo.hits, memo.misses) == (2, 4)


def test_wide_row_makes_one_basis_product_per_member_resolution_q_and_grid(monkeypatch):
    # in d = 2, p = 1 and 3 share the m = 4 deg + 8 grid and p = 4 takes the
    # exact m = 2 deg + 1 grid; the A_k polish (19 time nodes) is per p
    from gausscalc import besov, harness

    cfg = ExperimentConfig(dimension=2, family_size=2, max_degree=4, ps=(1.0, 3.0, 4.0))
    products = []
    kernel = besov._quadrature_norms

    def spy(phi, bound, coef, ps, weights):
        if coef.shape[1] > 19:
            products.append(tuple(ps))
        return kernel(phi, bound, coef, ps, weights)

    monkeypatch.setattr(besov, "_quadrature_norms", spy)
    harness._besov_totals.cache_clear()
    assert run_experiment("riesz-derivative-bounded", cfg).passed
    # per q: (2 members + the scaled one) x (image, source) at the coarse
    # resolution and 2 members x (image, source) at the refined one, each
    # evaluation with one call per grid
    evaluations = (3 * 2 + 2 * 2) * 2
    assert sorted(products) == sorted([(4.0,), (1.0, 3.0)] * evaluations)


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
    ],
)
def test_config_validation(tmp_path, capsys, line, requirement):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(line + "\n")
    with pytest.raises(ValueError, match=requirement):
        load_config(str(cfg))
    assert cli_main(["run", "inversion", "--config", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err
