import json
import math

import pytest

from gausscalc import (
    ExperimentConfig,
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


@pytest.mark.parametrize(
    "experiment,line", [("riesz-potential-bounded", "alphas = inf"), ("bessel-potential-bounded", "betas = inf")]
)
def test_cli_infinite_smoothness_is_usage_error(tmp_path, capsys, experiment, line):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(line + "\nfamily_size = 2\nmax_degree = 2\n")
    assert cli_main(["run", experiment, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gausscalc: ") and "finite" in err


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
