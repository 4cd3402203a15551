"""Experiment harness: seeded test families, named property experiments, reports.

Each experiment checks one operator property (a boundedness statement, an
identity, or an oracle-agreement suite) on a deterministic family of random
Hermite expansions.  Boundedness statements come with no explicit constants,
so they are verified as bounded-ratio-with-grid-stability: every norm ratio
must be finite, the max ratio must be stable under refinement of the time
grid, and scaling f must leave ratios unchanged.  The refined time rule and
sup grid nest the coarse ones, so one norm curve gives the terms of both
resolutions.  Reported max ratios double as a regression baseline.  Every
check value and worst-ratio record is the worst over its cases, floored at
0 (_worst): a NaN anywhere makes it NaN, and so fails the check.

Determinism contract: families come from a counter-based generator (Philox),
so identical configs produce byte-identical reports; wall-clock metadata is
kept in a separate block that comparisons can drop.  Every Besov term comes
from besov._besov_terms, which picks the seminorm or A_k by q and builds the
grids of both resolutions; the harness only names k = smallest_k(alpha).  A
boundedness row evaluates the terms of all its members and ps at once for
each (alpha, beta, q): one _besov_terms call for the images and one for
the sources make the time grids once (and, in a large family, the
Poisson factors), and norm curves for several p share one orbit table and
one basis product per Gauss-Hermite grid.  The lemmas' nested-space and
k-independence records likewise make one call per setting for the whole
sample.  verify_all builds the family and its hash once for all experiments;
an experiment run on its own builds its own.  Only denominators, the Besov
norm totals of the source functions, are memoized per process
(_besov_totals); a memoized total is the same bits as a cold call, so a
report does not depend on which experiments ran before it.
"""

from __future__ import annotations

import contextvars
import csv
import functools
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field, fields, replace
from itertools import product

import numpy as np

from . import besov as bz
from . import fractional as fr
from . import semigroups as sg
from .hermite import HermiteExpansion, _LRUCache, _lp_norms, gauss_hermite_grid, l2_norm_coeffs
from .timequad import DEFAULT_STEP

__all__ = [
    "ExperimentConfig",
    "TheoremReport",
    "gen_family",
    "run_experiment",
    "verify_all",
    "emit_report",
    "list_experiments",
    "HARDY_BATTERY",
    "RESERVED_NAMESPACES",
]

RESERVED_NAMESPACES = ("laguerre", "jacobi")  # analogous expansions, not implemented


# -- configuration ------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat run configuration; per-experiment defaults fill unset lists."""

    seed: int = 20260809
    dimension: int = 1
    family_size: int = 50
    max_degree: int = 8
    alphas: tuple = ()
    betas: tuple = ()
    ps: tuple = ()
    qs: tuple = ()
    t_step: float = DEFAULT_STEP
    sup_points: int = bz.SUP_POINTS
    refine: int = 2
    tol_ratio_stability: float = 0.005
    tol_inversion: float = 1e-12
    tol_mehler: float = 1e-8
    tol_subordination: float = 1e-6
    tol_kernel_mass: float = 1e-6
    tol_operator_rel: float = 1e-6
    out: str = ""
    fmt: str = "json"

    def __post_init__(self):
        for ok, requirement in (
            (self.dimension in (1, 2), "dimension in {1, 2}"),
            (self.family_size >= 1, "family_size >= 1"),
            (self.max_degree >= 0, "max_degree >= 0"),
            (all(math.isfinite(a) for a in self.alphas), "finite alphas"),
            (all(math.isfinite(b) for b in self.betas), "finite betas"),
            (self.refine >= 2, "refine >= 2"),
            (self.sup_points >= 16, "sup_points >= 16"),
            (0 < self.t_step < math.inf, "finite t_step > 0"),
            (self.fmt in ("", "json", "csv", "text"), "fmt in {json, csv, text}"),
            *((getattr(self, f.name) >= 0, f"{f.name} >= 0") for f in fields(self) if f.name.startswith("tol_")),
        ):
            if not ok:
                raise ValueError(f"invalid config: requires {requirement}")

    def canonical(self) -> dict:
        d = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = ["inf" if isinstance(x, float) and math.isinf(x) else x for x in v]
            d[f.name] = v
        return d


_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}


def _parse_value(key: str, raw: str):
    """raw parsed as the type of the field's default: str, int, float, or a tuple of floats."""
    raw = raw.strip()
    kind = type(_DEFAULTS[key])
    if kind is tuple:
        return tuple(math.inf if tok.strip() == "inf" else float(tok) for tok in raw.split(",") if tok.strip())
    return kind(raw)


def parse_config_file(path: str) -> dict:
    """Flat key/value grammar: one `key = value` per line, `#` comments,
    comma-separated lists, the token `inf` for an infinite q."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in _DEFAULTS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            out[key] = _parse_value(key, raw)
    return out


def load_config(path: str | None = None, **overrides) -> ExperimentConfig:
    """Precedence: explicit overrides > config file > defaults."""
    cfg = ExperimentConfig()
    if path:
        cfg = replace(cfg, **parse_config_file(path))
    overrides = {k: v for k, v in overrides.items() if v is not None}
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg


# -- seeded test families -----------------------------------------------------------


def _indices_up_to(d: int, degree: int):
    """All multi-indices with |nu| <= degree, graded lexicographic order."""
    cube = product(range(degree + 1), repeat=d)
    return sorted((nu for nu in cube if sum(nu) <= degree), key=lambda nu: (sum(nu), nu))


def gen_family(seed: int, d: int, M: int, N: int) -> list[HermiteExpansion]:
    """M random expansions, sparse support of degree <= N, unit L^2 norm.

    Coefficients are i.i.d. uniform[-1, 1] on a random support, then rescaled
    to coefficient norm 1.  Philox (counter-based) keeps this reproducible
    across platforms.  With N >= 1 a nonconstant mode is always present so
    derivative-based norms do not degenerate.
    """
    if M < 1 or N < 0:
        raise ValueError("need M >= 1 and N >= 0")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    idxs = _indices_up_to(d, N)
    family = []
    for _ in range(M):
        size = int(rng.integers(1, min(len(idxs), 10) + 1))
        chosen = rng.choice(len(idxs), size=size, replace=False)
        support = {idxs[i]: float(c) for i, c in zip(chosen, rng.uniform(-1.0, 1.0, size))}
        if N >= 1 and all(sum(idx) == 0 for idx in support):
            j = int(rng.integers(1, len(idxs)))
            support[idxs[j]] = float(rng.uniform(-1.0, 1.0))
        f = HermiteExpansion(d, support)
        norm = l2_norm_coeffs(f)
        if norm == 0.0:  # all uniform draws exactly zero; essentially unreachable
            f = HermiteExpansion.basis((1,) + (0,) * (d - 1))
            norm = 1.0
        family.append((1.0 / norm) * f)
    return family


def _family_hash(family) -> str:
    payload = json.dumps([f.to_dict() for f in family]).encode()
    return hashlib.sha1(b"blob %d\0" % len(payload) + payload).hexdigest()


def _seeded_family(cfg: ExperimentConfig) -> tuple[list[HermiteExpansion], str]:
    """cfg's family and its family_sha1."""
    family = gen_family(cfg.seed, cfg.dimension, cfg.family_size, cfg.max_degree)
    return family, _family_hash(family)


# How an experiment gets cfg's family and family_sha1 (_new_report): built
# anew, or, during a verify_all call, from that call's cache, so its nine
# experiments build them once; the cache goes when the call returns
_FAMILY_SOURCE = contextvars.ContextVar("_FAMILY_SOURCE", default=_seeded_family)


def _config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(json.dumps(cfg.canonical(), sort_keys=True).encode()).hexdigest()


# -- reports --------------------------------------------------------------------------


@dataclass
class TheoremReport:
    experiment: str
    statement: str
    config: dict
    provenance: dict
    checks: list = field(default_factory=list)
    ratios: list = field(default_factory=list)
    max_ratio: float | None = None
    passed: bool = True
    runtime_s: float = 0.0

    def add_check(self, name: str, passed: bool, value=None, bound=None):
        self.checks.append({"name": name, "passed": bool(passed), "value": value, "bound": bound})
        self.passed = self.passed and bool(passed)

    def payload(self) -> dict:
        """Deterministic content; wall-clock data lives in the meta block."""
        return {
            "experiment": self.experiment,
            "statement": self.statement,
            "config": self.config,
            "provenance": self.provenance,
            "checks": self.checks,
            "ratios": self.ratios,
            "max_ratio": self.max_ratio,
            "passed": self.passed,
        }


def _fmt_float(x) -> str:
    return "" if x is None else format(float(x), ".17g")


def emit_report(report: TheoremReport, fmt: str = "json") -> str:
    """Serialize a report (stable field order, lossless float formatting)."""
    if fmt == "json":
        doc = report.payload()
        doc["meta"] = {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"), "runtime_s": report.runtime_s}
        text = json.dumps(doc, indent=2) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["kind", "name", "passed", "value", "bound"])
        for c in report.checks:
            writer.writerow(["check", c["name"], int(c["passed"]), _fmt_float(c["value"]), _fmt_float(c["bound"])])
        for r in report.ratios:
            writer.writerow(["ratio", r["label"], "", _fmt_float(r["ratio"]), ""])
        if report.max_ratio is not None:
            writer.writerow(["summary", "max_ratio", "", _fmt_float(report.max_ratio), ""])
        writer.writerow(["summary", "passed", int(report.passed), "", ""])
        text = buf.getvalue()
    elif fmt == "text":
        lines = [f"experiment: {report.experiment}", f"statement: {report.statement}"]
        for c in report.checks:
            mark = "PASS" if c["passed"] else "FAIL"
            extra = ""
            if c["value"] is not None:
                extra = f"  value={_fmt_float(c['value'])}"
                if c["bound"] is not None:
                    extra += f" bound={_fmt_float(c['bound'])}"
            lines.append(f"  [{mark}] {c['name']}{extra}")
        if report.max_ratio is not None:
            lines.append(f"  max ratio: {_fmt_float(report.max_ratio)}")
        lines.append(f"  overall: {'PASS' if report.passed else 'FAIL'}")
        text = "\n".join(lines) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r} (expected json, csv or text)")
    return text


# -- shared machinery ----------------------------------------------------------------


# Only source totals repeat, a whole family call at a time: rows that share a
# source smoothness (the two potentials at alpha = 0.5, the two derivatives
# at 0.7 and at 1.6) make the same call.  Numerators never repeat.  The
# budget counts totals, not entries, so it bounds the memo at any family
# size.  A default verify-all pass keeps 716 totals in 23 entries: per alpha
# and q, 100 for the 50 members' two resolutions and 1 for the scaled source,
# and 110 in lemmas' 11 calls on its sample of 10; at three ps, 1,928.
_TOTALS = _LRUCache(2048, lambda totals: len(totals) * len(totals[0]))


def _coeff_key(f: HermiteExpansion) -> tuple:
    """f's dimension and exact coefficients as bytes, in f's own order: equal keys are equal expansions."""
    return f.dimension, np.array([(*nu, c) for nu, c in f.coeffs.items()]).tobytes()


def _besov_totals(fs, alpha, ps, q, step, sup_points, refine) -> list[list[list[float]]]:
    """Besov norm totals memoized in _TOTALS, per member of fs as in besov._besov_terms: per resolution, per p.

    An entry is keyed by (fs, alpha, p, q, step, sup_points, refine) and
    holds every member's totals for that p, one per resolution.  A call
    computes the ps that miss in one _besov_terms call for the whole family.
    Keys are typed, like lru_cache(typed=True), so an int and a float
    argument never share an entry.  A key holds each member's exact
    coefficients as bytes, in its own order, the order lp_norm sums them in:
    a hit is always the bits a cold call gives, and the memo keeps no
    expansion alive.
    """
    members = tuple(_coeff_key(f) for f in fs)
    keys = [(members, alpha, p, q, step, sup_points, refine) for p in ps]
    keys = [key + tuple(map(type, key[1:])) for key in keys]
    totals = [_TOTALS.get(key) for key in keys]
    new = [i for i, entry in enumerate(totals) if entry is None]
    if new:
        new_ps = tuple(ps[i] for i in new)
        terms = bz._besov_terms(fs, alpha, new_ps, q, bz.smallest_k(alpha), step, sup_points, refine)
        lps = [[bz.lp_norm(f, p) for p in new_ps] for f in fs]
        for j, i in enumerate(new):
            totals[i] = [[lp[j] + level[j] for level in member_terms] for lp, member_terms in zip(lps, terms)]
            _TOTALS.put(keys[i], totals[i])
    return [[list(level) for level in zip(*member)] for member in zip(*totals)]


def besov_total(f, alpha, p, q, step=DEFAULT_STEP, sup_points=bz.SUP_POINTS) -> float:
    """Besov norm total with explicit resolution knobs (stability checks): the memo's one-member, one-p, coarse call."""
    return _besov_totals([f], alpha, (p,), q, step, sup_points, 1)[0][0][0]


def _q_label(q) -> str:
    return "inf" if math.isinf(q) else f"{q:g}"


def _ratio_suites(report, cfg, family, operator, source_alpha, target_alpha, ps, qs):
    """Norm ratios target/source for one operator, one suite per (p, q), p-major.

    Each member's image and its L^p norms are computed once.  At each q one
    besov._besov_terms call for the members' images, and one memo call for
    their sources (_besov_totals), give the Besov terms of every member and
    every p at both time resolutions.  The scaled source and its image are
    coarse-only calls of their own: in a small family, a refined curve for
    them would be a large share of the work.
    """
    f0 = 10.0 * family[0]  # absolute homogeneity: scaling f must leave the ratio untouched
    images = [operator(f) for f in (*family, f0)]
    lp_images = [[bz.lp_norm(g, p) for p in ps] for g in images]
    k = bz.smallest_k(target_alpha)
    step, points = cfg.t_step, cfg.sup_points
    suites = {}
    for q in qs:
        terms = bz._besov_terms(images[:-1], target_alpha, ps, q, k, step, points, cfg.refine)
        terms += bz._besov_terms(images[-1:], target_alpha, ps, q, k, step, points, 1)
        dens = _besov_totals(family, source_alpha, ps, q, step, points, cfg.refine)
        dens += _besov_totals([f0], source_alpha, ps, q, step, points, 1)
        # per member, one list per resolution (coarse first; the scaled source's coarse only), one ratio per p
        ratios = [
            [[(lp + term) / den for lp, term, den in zip(lps, *level)] for level in zip(member_terms, member_dens)]
            for lps, member_terms, member_dens in zip(lp_images, terms, dens)
        ]
        coarse, refined = zip(*ratios[:-1])
        (scaled,) = ratios[-1]
        for j in range(len(ps)):
            suites[j, q] = [row[j] for row in coarse], [row[j] for row in refined], scaled[j]
    for j, p in enumerate(ps):
        for q in qs:
            _record_suite(report, cfg, f"alpha={source_alpha:g},p={p:g},q={_q_label(q)}", *suites[j, q])


def _worst(values) -> float:
    """The largest of values and 0.0, or NaN if any value is NaN: every check value and worst-ratio record."""
    values = [0.0, *values]
    return math.nan if any(v != v for v in values) else float(max(values))


def _record_suite(report, cfg, label, ratios, ratios_fine, scaled):
    """The ratio rows and the three checks of one suite; scaled is the scaled source's ratio."""
    for i, r in enumerate(ratios):
        report.ratios.append({"label": f"f{i:03d}[{label}]", "ratio": r})
    report.add_check(f"ratios-finite[{label}]", all(map(math.isfinite, ratios)))
    mx, mx_fine = _worst(ratios), _worst(ratios_fine)
    drift = abs(mx_fine - mx) / mx if mx != 0 else 0.0
    report.add_check(f"grid-stability[{label}]", drift < cfg.tol_ratio_stability, drift, cfg.tol_ratio_stability)
    dev = abs(scaled - ratios[0]) / ratios[0] if ratios[0] != 0 else 0.0
    report.add_check(f"scale-invariance[{label}]", dev <= 1e-12, dev, 1e-12)
    report.max_ratio = _worst(r["ratio"] for r in report.ratios)


def _new_report(name, cfg) -> tuple[list[HermiteExpansion], TheoremReport]:
    """The family of cfg and a new report of experiment name on it.

    An experiment calls this after its hypothesis checks, so a config that
    violates them builds no family.
    """
    family, family_sha1 = _FAMILY_SOURCE.get()(cfg)
    report = TheoremReport(
        experiment=name,
        statement=EXPERIMENTS[name].statement,
        config=cfg.canonical(),
        provenance={"config_sha256": _config_hash(cfg), "family_sha1": family_sha1},
    )
    return family, report


def _require(cond: bool, hypothesis: str):
    if not cond:
        raise ValueError(f"config violates the experiment hypothesis: requires {hypothesis}")


# -- experiments ----------------------------------------------------------------------


def _coefficient_table(family) -> tuple[np.ndarray, np.ndarray]:
    """The members' coefficients, a row each in its own order zero-padded at the end, and the entries' orders."""
    coef, orders = np.zeros((2, len(family), max(map(len, family))))
    for row, order, f in zip(coef, orders, family):
        row[: len(f)], order[: len(f)] = list(f.coeffs.values()), [nu.order for nu in f.coeffs]
    return coef, orders.astype(int)


def _multipliers(op, beta, orders, dimension: int) -> np.ndarray:
    """The public diagonal op's multiplier m(n) at each entry of orders: the coefficient 1.0 m(n) of h_(n,0,...) in op(sum of h_(n,0,...))."""
    units = [(n,) + (0,) * (dimension - 1) for n in range(orders.max(initial=0) + 1)]  # np.unique here raised a d = 2 pass's peak RSS by 0.2-0.3 MiB
    image = op(HermiteExpansion(dimension, dict.fromkeys(units, 1.0)), beta)
    return np.array([image.coefficient(nu) for nu in units])[orders]


def _operator_agreement(family, betas, op, integral_op) -> float:
    """Worst relative coefficient error of integral_op against the spectral op, over betas, members and coefficients in order."""
    coef, orders = _coefficient_table(family)
    errors = []
    for b in betas:  # c m(n): the products each op forms for a member
        exact, approx = (coef * _multipliers(fn, b, orders, family[0].dimension) for fn in (op, integral_op))
        kept = exact != 0.0
        errors += (np.abs(approx[kept] - exact[kept]) / np.abs(exact[kept])).tolist()
    return _worst(errors)


@dataclass(frozen=True)
class Boundedness:
    """One boundedness statement: `operator` maps B^alpha_p,q into B^(alpha + shift beta)_p,q.

    Operators are named by their attribute in `fractional` and looked up at
    call time.  Calling a row with a config checks the hypotheses, then
    records the norm ratios and, for the derivatives, the agreement of
    `integral_operator` with the spectral form.
    """

    name: str
    statement: str
    operator: str
    integral_operator: str | None
    shift: int  # +1: smoothness rises by beta; -1: it drops by beta
    p_hypothesis: tuple  # (text, predicate on p)
    ab_hypotheses: tuple  # ((text, predicate on (alpha, beta)), ...), checked in order
    alphas: tuple
    betas: tuple

    def __call__(self, cfg: ExperimentConfig) -> TheoremReport:
        alphas, betas = cfg.alphas or self.alphas, cfg.betas or self.betas
        ps, qs = cfg.ps or (2.0,), cfg.qs or (2.0, math.inf)
        for text, holds in self.ab_hypotheses:
            for a in alphas:
                for b in betas:
                    _require(holds(a, b), text)
        text, holds = self.p_hypothesis
        for p in ps:
            _require(holds(p), text)
        for q in qs:
            _require(q >= 1, "1 <= q <= inf")
        family, rep = _new_report(self.name, cfg)
        op = getattr(fr, self.operator)
        for a in alphas:
            for b in betas:
                _ratio_suites(rep, cfg, family, lambda f, b=b: op(f, b), a, a + self.shift * b, ps, qs)
        if self.integral_operator is not None:
            # exercise the forward-difference integral representation alongside
            for b in betas:
                worst = _operator_agreement(family[:5], (b,), op, getattr(fr, self.integral_operator))
                rep.add_check(
                    f"difference-path-agreement[beta={b:g}]", worst <= cfg.tol_operator_rel, worst, cfg.tol_operator_rel
                )
        return rep


_P_ABOVE_1 = ("1 < p < inf", lambda p: 1 < p < math.inf)
_P_FROM_1 = ("1 <= p < inf", lambda p: 1 <= p < math.inf)
_POTENTIAL_AB = (("alpha >= 0", lambda a, b: a >= 0), ("beta > 0", lambda a, b: b > 0))
_DERIVATIVE_LT1_AB = (("0 < beta < alpha < 1", lambda a, b: 0 < b < a < 1),)
_DERIVATIVE_AB = (("0 < beta < alpha", lambda a, b: 0 < b < a),)

BOUNDEDNESS = (
    Boundedness(
        "riesz-potential-bounded",
        "fractional integration raises Besov smoothness by its order, with bounded norm ratios",
        "riesz_potential", None, +1, _P_ABOVE_1, _POTENTIAL_AB, (0.5,), (0.5,),
    ),
    Boundedness(
        "bessel-potential-bounded",
        "the resolvent-type potential raises Besov smoothness by its order, with bounded norm ratios",
        "bessel_potential", None, +1, _P_FROM_1, _POTENTIAL_AB, (0.5,), (0.5,),
    ),
    Boundedness(
        "riesz-derivative-bounded-lt1",
        "fractional differentiation (orders below 1) lowers Besov smoothness by its order",
        "riesz_derivative", "riesz_derivative_integral", -1, _P_FROM_1, _DERIVATIVE_LT1_AB, (0.7,), (0.4,),
    ),
    Boundedness(
        "riesz-derivative-bounded",
        "fractional differentiation (any order below alpha) lowers Besov smoothness by its order",
        "riesz_derivative", "riesz_derivative_integral", -1, _P_FROM_1, _DERIVATIVE_AB, (1.6,), (1.2,),
    ),
    Boundedness(
        "bessel-derivative-bounded-lt1",
        "damped fractional differentiation (orders below 1) lowers Besov smoothness by its order",
        "bessel_derivative", "bessel_derivative_integral", -1, _P_FROM_1, _DERIVATIVE_LT1_AB, (0.7,), (0.4,),
    ),
    Boundedness(
        "bessel-derivative-bounded",
        "damped fractional differentiation (any order below alpha) lowers Besov smoothness by its order",
        "bessel_derivative", "bessel_derivative_integral", -1, _P_FROM_1, _DERIVATIVE_AB, (1.6,), (1.2,),
    ),
)


def _exp_inversion(cfg: ExperimentConfig) -> TheoremReport:
    betas = cfg.betas or (0.3, 0.5, 0.9, 1.5, 2.5)
    for b in betas:
        _require(b > 0, "beta > 0")
    family, rep = _new_report("inversion", cfg)
    # each norm sums a member's squares left to right in its own order, then the padding, as l2_norm_coeffs does
    coef, orders = _coefficient_table(family)
    target = np.where(orders == 0, 0.0, coef)
    norms = np.sqrt(np.cumsum(coef * coef, axis=1)[:, -1])
    for b in betas:
        i, d = (_multipliers(op, b, orders, cfg.dimension) for op in (fr.riesz_potential, fr.riesz_derivative))
        e1, e2 = (np.sqrt(np.cumsum((c - target) ** 2, axis=1)[:, -1]) / norms for c in ((coef * i) * d, (coef * d) * i))
        worst = _worst(np.stack([e1, e2], axis=1).ravel().tolist())
        rep.add_check(f"inversion[beta={b:g}]", worst <= cfg.tol_inversion, worst, cfg.tol_inversion)
    return rep


def _seeded_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, stream))))


def _kernel_mass(t: float) -> float:
    """int p(t, 0, y) dy over R: the trapezoid in w, y = sinh(w), on 161 nodes in [-4, 4].

    The substitution makes the Gaussian tails of the kernel decay double
    exponentially in w, so the rule converges geometrically; its y-window
    reaches sinh(4) = 27.3, where the kernel underflows to 0.  It agrees
    with adaptive quadrature (scipy.integrate.quad) to 3.4e-15 at t = 0.5,
    1 and 2.
    """
    w = np.linspace(-4.0, 4.0, 161)
    dw = np.full(w.size, w[1] - w[0])
    dw[[0, -1]] *= 0.5
    kernel = sg.ph_kernel(t, 0.0, np.sinh(w)[:, None])
    return float(np.dot(dw, kernel * np.cosh(w)))


# Mehler points per chunk of oracle samples (25 samples on the default grid):
# the chunk's basis table has about this many rows, so it stays small
ORACLE_CHUNK_POINTS = 1000


def _exp_oracles(cfg: ExperimentConfig) -> TheoremReport:
    family, rep = _new_report("oracles", cfg)
    rng = _seeded_rng(cfg.seed, 1)
    grid = gauss_hermite_grid(cfg.dimension, 4 * cfg.max_degree + 8)

    fs, ts, xs = [], [], []
    for i in range(100):  # drawn in the order t, then x, per sample; evaluated a chunk at a time
        fs.append(family[i % len(family)])
        ts.append(float(rng.uniform(0.05, 5.0)))
        xs.append(rng.uniform(-2.0, 2.0, cfg.dimension))
    size = max(1, ORACLE_CHUNK_POINTS // grid.weights.size)
    mehler, sub = [], []
    for a in range(0, 100, size):
        f, t, x = fs[a : a + size], ts[a : a + size], xs[a : a + size]
        mehler += np.abs(sg._ou_mehler_rows(f, t, x, grid) - sg._spectral_rows(f, map(sg._ou_multiplier, t), x)).tolist()
        sub += np.abs(sg._ph_subordination_rows(f, t, x) - sg._spectral_rows(f, map(sg._orbit_multiplier, t), x)).tolist()
    worst_mehler, worst_sub = _worst(mehler), _worst(sub)
    rep.add_check("mehler-vs-spectral", worst_mehler <= cfg.tol_mehler, worst_mehler, cfg.tol_mehler)
    rep.add_check("subordination-vs-spectral", worst_sub <= cfg.tol_subordination, worst_sub, cfg.tol_subordination)

    worst_mass = _worst(abs(_kernel_mass(t) - 1.0) for t in (0.5, 1.0, 2.0))
    rep.add_check("kernel-mass", worst_mass <= cfg.tol_kernel_mass, worst_mass, cfg.tol_kernel_mass)

    betas = cfg.betas or (0.3, 0.5, 0.9, 1.5, 2.5)
    pairs = [
        ("riesz-potential", fr.riesz_potential, fr.riesz_potential_integral),
        ("bessel-potential", fr.bessel_potential, fr.bessel_potential_integral),
        ("riesz-derivative", fr.riesz_derivative, fr.riesz_derivative_integral),
        ("bessel-derivative", fr.bessel_derivative, fr.bessel_derivative_integral),
    ]
    for label, op, integral_op in pairs:
        worst = _operator_agreement(family[:10], betas, op, integral_op)
        rep.add_check(f"integral-path[{label}]", worst <= cfg.tol_operator_rel, worst, cfg.tol_operator_rel)

    c_half = fr.c_beta(0.5)
    err = abs(c_half + 2.0 * math.sqrt(math.pi))
    rep.add_check("c-half-closed-form", err <= 1e-7, err, 1e-7)
    return rep


# a nonnegative battery for the averaging inequalities: every member vanishes
# at least quadratically at 0 and decays (super)exponentially, so both sides
# converge for all p in {1, 2}, r in {0.5, 1, 2}
HARDY_BATTERY = [
    ("y^2 e^-y", lambda y: y**2 * np.exp(-y)),
    ("y^3 e^-y", lambda y: y**3 * np.exp(-y)),
    ("y^4 e^-y", lambda y: y**4 * np.exp(-y)),
    ("y^2.5 e^-y", lambda y: y**2.5 * np.exp(-y)),
    ("y^2 e^-2y", lambda y: y**2 * np.exp(-2.0 * y)),
    ("y^3 e^-y/2", lambda y: y**3 * np.exp(-0.5 * y)),
    ("y^2 e^-y^2", lambda y: y**2 * np.exp(-(y**2))),
    ("y^4 e^-y^2", lambda y: y**4 * np.exp(-(y**2))),
    ("y^2 e^-y/(1+y)", lambda y: y**2 * np.exp(-y) / (1.0 + y)),
    ("y^2 e^-y/(1+y^2)", lambda y: y**2 * np.exp(-y) / (1.0 + y**2)),
    ("y^2 (2+sin y) e^-y", lambda y: y**2 * (2.0 + np.sin(y)) * np.exp(-y)),
    ("y^2 (1+cos^2 y) e^-y", lambda y: y**2 * (1.0 + np.cos(y) ** 2) * np.exp(-y)),
    ("(1-cos y) e^-y", lambda y: (1.0 - np.cos(y)) * np.exp(-y)),
    ("y^2 log(1+y) e^-y", lambda y: y**2 * np.log1p(y) * np.exp(-y)),
    ("y^2 tanh(y) e^-y", lambda y: y**2 * np.tanh(y) * np.exp(-y)),
    ("y^2 e^-3y", lambda y: y**2 * np.exp(-3.0 * y)),
    ("y^5 e^-y", lambda y: y**5 * np.exp(-y)),
    ("y^3.5 e^-1.5y", lambda y: y**3.5 * np.exp(-1.5 * y)),
    ("y^2 (1+y)^2 e^-2y", lambda y: y**2 * (1.0 + y) ** 2 * np.exp(-2.0 * y)),
    ("y^2 e^-y cosh(y/2)", lambda y: y**2 * 0.5 * (np.exp(-0.5 * y) + np.exp(-1.5 * y))),
]


def _exp_lemmas(cfg: ExperimentConfig) -> TheoremReport:
    family, rep = _new_report("lemmas", cfg)
    sample = family[: min(10, len(family))]

    # decay of t -> ||u^(k)(., t)||_p: monotone, with a finite grid-stable
    # constant; one fitted constant is recorded per (k, p) across the sample.
    # decay_grid(119) nests decay_grid(60) as its even nodes, so one curve per
    # (member, k) for all ps gives both records, the bits of kdecay_report
    ps, ks = (1.0, 2.0, 4.0), (1, 2, 3)
    ts119 = bz.decay_grid(119)
    lps = [[bz.lp_norm(f, p) for p in ps] for f in sample]
    curves = [[bz._norm_curves(f, k, ps, ts119) for k in ks] for f in sample]
    all_monotone = True
    drifts = []
    for j, p in enumerate(ps):
        for m, k in enumerate(ks):
            fitted = []
            for f_lps, f_curves in zip(lps, curves):
                r60, r119 = (bz._decay_report(ts119[::s], f_curves[m][j][::s], k, f_lps[j]) for s in (2, 1))
                all_monotone = all_monotone and r60.non_increasing and math.isfinite(r60.fitted_c)
                fitted.append(r60.fitted_c)
                if r60.fitted_c != 0:
                    drifts.append(abs(r119.fitted_c - r60.fitted_c) / r60.fitted_c)
            rep.ratios.append({"label": f"decay-constant[k={k},p={p:g}]", "ratio": _worst(fitted)})
    rep.add_check("derivative-norm-decay-monotone", all_monotone)
    worst_drift = _worst(drifts)
    rep.add_check("decay-constant-grid-stable", worst_drift < 0.01, worst_drift, 0.01)

    # ||Delta_s^k(u^(n), t)||_p <= s^k ||u^(k+n)(., t)||_p: per (member, t), the 18
    # differences and the 4 distinct derivatives go to _lp_norms as one table
    excess = []
    steps = (0.1, 0.5, 1.0)
    pairs = [(k, n) for k in (1, 2, 3) for n in (0, 1)]
    orders = sorted({k + n for k, n in pairs})
    for f in sample[:5]:
        support = sorted(f.coeffs)
        for t in (0.0, 0.3):
            columns = [sg.orbit_difference(f, s, k, t, n) for k, n in pairs for s in steps]
            columns += [sg.time_derivative(f, t, j) for j in orders]
            table = np.array([[g.coefficient(nu) for g in columns] for nu in support])
            norms = _lp_norms(f, support, table, ps)
            derivatives = dict(zip(orders, norms[:, -len(orders) :].T))
            for col, ((k, n), s) in enumerate(product(pairs, steps)):
                excess += [lhs / rhs - 1.0 for lhs, rhs in zip(norms[:, col], s**k * derivatives[k + n]) if rhs != 0]
    worst_excess = _worst(excess)
    rep.add_check("difference-bounded-by-derivative", worst_excess <= 1e-9, worst_excess, 1e-9)

    # d/ds Delta_s^k(g, t) = k Delta_s^(k-1)(g', t+s), checked by central differences
    ok = True
    g, gp = (lambda u: np.exp(-1.3 * u)), (lambda u: -1.3 * np.exp(-1.3 * u))
    for k in (2, 3):
        for s in (0.4, 1.1):
            for t in (0.0, 0.7):
                exact = k * sg.forward_difference(gp, s, k - 1, t + s)
                errs = []
                for h in (1e-2, 1e-3):
                    fd = (sg.forward_difference(g, s + h, k, t) - sg.forward_difference(g, s - h, k, t)) / (2 * h)
                    errs.append(abs(fd - exact))
                ok = ok and errs[0] / max(errs[1], 1e-300) > 25.0  # second-order shrink
    rep.add_check("difference-derivative-identity", ok)

    rel, eq_dev = [], []
    pairs = list(product((1.0, 2.0), (0.5, 1.0, 2.0)))  # (p, r)
    for _, fn in HARDY_BATTERY:
        for kind in ("head", "tail"):
            for (p, _), (lhs, rhs) in zip(pairs, bz._hardy_sides(fn, pairs, kind)):
                if not math.isinf(rhs):
                    rel.append(lhs / rhs - 1.0)
                    if p == 1.0 and kind == "head":
                        eq_dev.append(abs(lhs - rhs) / rhs)
    worst_rel, worst_eq = _worst(rel), _worst(eq_dev)
    rep.add_check("averaging-inequalities", worst_rel <= 1e-6, worst_rel, 1e-6)
    rep.add_check("averaging-equality-at-p1", worst_eq <= 1e-6, worst_eq, 1e-6)

    # nested-space ratios: higher smoothness controls lower, and larger q is
    # weaker; one memo call per (alpha, q) gives the sample's coarse totals,
    # the bits of besov_total's
    def totals(alpha, q):
        return [member[0][0] for member in _besov_totals(sample, alpha, (2.0,), q, cfg.t_step, cfg.sup_points, 1)]

    inclusions = {}  # label -> (weaker totals, stronger totals)
    for (a1, a2) in ((0.9, 0.4), (1.5, 0.7)):
        for (q1, q2) in ((1.0, 4.0), (2.0, 2.0)):
            inclusions[f"inclusion[{a1:g},q{q1:g}->{a2:g},q{q2:g}]"] = totals(a2, q2), totals(a1, q1)
    for q1, q2 in ((1.0, 2.0), (2.0, math.inf)):
        inclusions[f"inclusion[q{_q_label(q1)}->q{_q_label(q2)}]"] = totals(0.5, q2), totals(0.5, q1)
    recorded = [_worst(weak / strong for weak, strong in zip(*sides)) for sides in inclusions.values()]
    rep.ratios += [{"label": label, "ratio": r} for label, r in zip(inclusions, recorded)]
    rep.add_check("inclusion-ratios-finite", all(map(math.isfinite, recorded)))

    # the norm computed with k and with k+1 stays comparable across the family;
    # one _besov_terms call per (alpha, q, k) gives the sample's seminorms, the
    # bits of besov_seminorm's; the record, the worst ratio or reciprocal, is max(max, 1/min) bit for bit
    recorded = []
    for (a, p, q) in ((0.5, 2.0, 2.0), (0.5, 2.0, 1.0), (1.3, 2.0, 2.0)):
        k = bz.smallest_k(a)
        semis = [
            [member[0][0] for member in bz._besov_terms(sample, a, (p,), q, j, cfg.t_step, bz.SUP_POINTS, 1)]
            for j in (k, k + 1)
        ]
        ratios = [(bz.lp_norm(f, p) + semi_k1) / (bz.lp_norm(f, p) + semi_k) for f, semi_k, semi_k1 in zip(sample, *semis)]
        recorded.append(_worst([*ratios, *(1.0 / r for r in ratios)]))
        rep.ratios.append({"label": f"k-independence[alpha={a:g},q={q:g}]", "ratio": recorded[-1]})
    rep.add_check("k-independence-ratios-finite", all(map(math.isfinite, recorded)))
    return rep


_exp_inversion.statement = "derivative and potential of matching order invert each other on mean-free expansions"
_exp_oracles.statement = "kernel, subordination and singular-integral quadratures agree with the spectral forms"
_exp_lemmas.statement = "decay, forward-difference and averaging lemmas plus nested-space ratio records"

# id -> callable(cfg) -> TheoremReport; each callable carries its `statement`
EXPERIMENTS = {row.name: row for row in BOUNDEDNESS}
EXPERIMENTS.update({"inversion": _exp_inversion, "oracles": _exp_oracles, "lemmas": _exp_lemmas})


def list_experiments() -> list[tuple[str, str]]:
    rows = [(name, experiment.statement) for name, experiment in EXPERIMENTS.items()]
    rows += [(f"{ns}/...", "reserved for analogous expansion families; not implemented") for ns in RESERVED_NAMESPACES]
    return rows


def run_experiment(name: str, cfg: ExperimentConfig | None = None) -> TheoremReport:
    cfg = cfg or ExperimentConfig()
    ns = name.split("/", 1)[0]
    if ns in RESERVED_NAMESPACES:
        raise ValueError(f"experiment id {name!r} is reserved for a future expansion family and not implemented")
    if name not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ValueError(f"unknown experiment {name!r}; known: {known}")
    start = time.perf_counter()
    report = EXPERIMENTS[name](cfg)
    report.runtime_s = time.perf_counter() - start
    return report


def verify_all(cfg: ExperimentConfig | None = None) -> list[TheoremReport]:
    """Every experiment's report on cfg, in EXPERIMENTS order.

    The family and its family_sha1 are built once, when the first
    experiment has passed its hypothesis checks, and the others take them
    from this call's cache (_FAMILY_SOURCE); a run_experiment call of its
    own builds its own.
    """
    cfg = cfg or ExperimentConfig()
    token = _FAMILY_SOURCE.set(functools.cache(_seeded_family))
    try:
        return [run_experiment(name, cfg) for name in EXPERIMENTS]
    finally:
        _FAMILY_SOURCE.reset(token)
