"""The benchmark's workloads: inputs built from a seed, one timed pass, checked outputs.

Each workload is a class whose constructor is the set-up (configs and seeded
families) and whose `run()` is one pass.  A pass returns an `Outcome`: how
many operations it attempted and how many failed, one sha256 digest per
output, and the problems the output checks found.  Every call into gausscalc
goes through a module attribute at call time, so a tracer installed after
set-up sees it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import warnings
from dataclasses import dataclass, field

import gausscalc
import gausscalc.cli
import gausscalc.harness
import numpy as np
from scipy.special import gamma as gamma_fn

DEFAULT_SEED = 20260809  # the package default (ExperimentConfig.seed)
DEGREE = 8

# verify-all spends most of its time in `lemmas`, on the first ten members
VERIFY_SAMPLE_SIZE = 10

BOUNDEDNESS_PS = {
    # ROADMAP's wide config is ps = 1, 3, 4; riesz-potential-bounded requires
    # 1 < p < inf, so it runs on the two admissible values only
    "riesz-potential-bounded": (3.0, 4.0),
    "bessel-potential-bounded": (1.0, 3.0, 4.0),
    "riesz-derivative-bounded-lt1": (1.0, 3.0, 4.0),
    "riesz-derivative-bounded": (1.0, 3.0, 4.0),
    "bessel-derivative-bounded-lt1": (1.0, 3.0, 4.0),
    "bessel-derivative-bounded": (1.0, 3.0, 4.0),
}
BOUNDEDNESS_FAMILY_SIZE = 2

SWEEP_ALPHA = 0.7
SWEEP_PS = (1.0, 2.0, 3.0, 4.0)
SWEEP_QS = (2.0, math.inf)
SWEEP_FAMILY_SIZE_D2 = 6
# member 0 of the package-default d = 1 family: besov_norm at p = 3, q = 2
# returns NaN on it (a known program defect), so every sweep includes it
SWEEP_REGRESSION_MEMBER = (DEFAULT_SEED, 0)


def family_seed(workload: str, seed: int) -> int:
    """The gen_family seed a workload runs at for benchmark seed `seed`.

    It is the first of seed, h(seed, 1), h(seed, 2), ... whose family has
    degree-8 members in the first `size` places (the members the workload
    spends its time on).  A member's cost grows steeply with its degree
    (Gauss-Hermite grids of (4 deg + 8)^d nodes, sign-split pieces of degree
    p deg), so full-degree families make every benchmark seed give inputs of
    one size; the seed still picks supports and coefficients.  h is numpy's
    SeedSequence, so nearby benchmark seeds give unrelated families.
    """
    d, size = WORKLOADS[workload].family
    for j in range(100_000):
        s = seed if j == 0 else int(np.random.SeedSequence([seed, j]).generate_state(1, np.uint64)[0])
        if all(f.degree == DEGREE for f in gausscalc.harness.gen_family(s, d, size, DEGREE)):
            return s
    raise RuntimeError(f"no full-degree family found from seed {seed}")


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    digests: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.digests).encode()).hexdigest()


def payload_digest(doc: dict) -> str:
    """sha256 of a report document without its wall-clock `meta` block."""
    body = {k: v for k, v in doc.items() if k != "meta"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def _read_reports(path: str) -> list[dict]:
    """The JSON documents `verify-all --out` writes back to back."""
    decoder = json.JSONDecoder()
    with open(path) as fh:
        text = fh.read()
    docs, pos = [], 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            return docs
        doc, pos = decoder.raw_decode(text, pos)
        docs.append(doc)


def _count_checks(outcome: Outcome, doc: dict):
    outcome.attempted += len(doc["checks"])
    outcome.failed += sum(not c["passed"] for c in doc["checks"])


class VerifyDefault:
    """`gausscalc verify-all --seed S --out <file>` in-process, default config."""

    name = "verify-default"
    family = (1, VERIFY_SAMPLE_SIZE)

    def __init__(self, seed: int, workdir: str):
        # the path is echoed in every report's config, so keep it the same in every checkout
        self.out = os.path.relpath(os.path.join(workdir, "verify-all.json"))
        self.argv = ["verify-all", "--seed", str(seed), "--out", self.out]
        self.expected = list(gausscalc.harness.EXPERIMENTS)

    def run(self) -> Outcome:
        outcome = Outcome()
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                code = gausscalc.cli.main(self.argv)
            except Exception as exc:  # the whole command failed: every experiment counts
                outcome.attempted = outcome.failed = len(self.expected)
                outcome.problems.append(f"verify-all raised {type(exc).__name__}: {exc}")
                return outcome
        docs = _read_reports(self.out)
        os.remove(self.out)
        names = [d["experiment"] for d in docs]
        if names != self.expected:
            outcome.problems.append(f"reports {names} != experiments {self.expected}")
        outcome.attempted += len(self.expected)
        outcome.failed += len(self.expected) - len(docs)
        for doc in docs:
            _count_checks(outcome, doc)
            outcome.digests.append(payload_digest(doc))
        if code != (0 if all(d["passed"] for d in docs) else 1):
            outcome.problems.append(f"exit code {code} disagrees with the reports")
        return outcome


class BoundednessWide:
    """The six boundedness experiments on the wide config: d = 2, ps = 1, 3, 4, full-degree family."""

    name = "boundedness-wide-d2"
    family = (2, BOUNDEDNESS_FAMILY_SIZE)

    def __init__(self, seed: int, workdir: str):
        self.configs = [
            (exp, gausscalc.harness.ExperimentConfig(
                seed=seed, dimension=2, family_size=BOUNDEDNESS_FAMILY_SIZE, max_degree=DEGREE, ps=ps))
            for exp, ps in BOUNDEDNESS_PS.items()
        ]

    def run(self) -> Outcome:
        outcome = Outcome()
        for exp, cfg in self.configs:
            outcome.attempted += 1
            try:
                report = gausscalc.harness.run_experiment(exp, cfg)
            except Exception as exc:
                outcome.failed += 1
                outcome.digests.append(f"{exp}: raised {type(exc).__name__}")
                continue
            doc = report.payload()
            if doc["config"]["ps"] != list(cfg.ps) or doc["config"]["dimension"] != 2:
                outcome.problems.append(f"{exp}: report config does not echo the requested config")
            _count_checks(outcome, doc)
            outcome.digests.append(payload_digest(doc))
        return outcome


def _closed_form_p2q2(f, alpha: float, k: int) -> float:
    """Besov norm at p = q = 2: ||f||_2 + sqrt(Gamma(2(k-a)) sum c^2 n^k (2 sqrt n)^(-2(k-a)))."""
    s = 2.0 * (k - alpha)
    lp = math.sqrt(sum(c * c for c in f.coeffs.values()))
    semi = sum(c * c * nu.order**k * (2.0 * math.sqrt(nu.order)) ** (-s) for nu, c in f.coeffs.items() if nu.order > 0)
    return lp + math.sqrt(gamma_fn(s) * semi)


class BesovSweep:
    """Public `besov_norm` over p x q x d, default rules.

    d = 1: the regression member only.  The odd-exact route's cost follows the
    number of real roots of the orbit derivative across ~2500 time nodes,
    which varies up to ~1.7x between seeded members of one degree, so seeded d = 1
    members would make runs at different seeds incomparable.
    d = 2: a seeded full-degree family.
    """

    name = "besov-sweep"
    family = (2, SWEEP_FAMILY_SIZE_D2)

    def __init__(self, seed: int, workdir: str):
        regression_seed, index = SWEEP_REGRESSION_MEMBER
        d1 = gausscalc.harness.gen_family(regression_seed, 1, index + 1, DEGREE)[index:]
        d2 = gausscalc.harness.gen_family(seed, 2, SWEEP_FAMILY_SIZE_D2, DEGREE)
        self.families = [(1, d1), (2, d2)]
        self.params = [(p, q, gausscalc.besov_params(SWEEP_ALPHA, p, q)) for p in SWEEP_PS for q in SWEEP_QS]

    def run(self) -> Outcome:
        outcome = Outcome()
        for d, family in self.families:
            for i, f in enumerate(family):
                lp = {}
                for p, q, params in self.params:
                    where = f"d{d} f{i} p={p:g} q={q:g}"
                    outcome.attempted += 1
                    try:
                        with warnings.catch_warnings():
                            warnings.simplefilter("ignore", RuntimeWarning)
                            r = gausscalc.besov_norm(f, params)
                    except Exception as exc:
                        outcome.failed += 1
                        outcome.digests.append(f"{where}: raised {type(exc).__name__}")
                        continue
                    values = [r.lp_part, r.seminorm, r.ak, r.total]
                    outcome.digests.append(" ".join("-" if v is None else format(v, ".17g") for v in values))
                    if not math.isfinite(r.total):
                        outcome.failed += 1
                        continue
                    lp[p] = r.lp_part
                    if p == 2 and q == 2:
                        exact = _closed_form_p2q2(f, SWEEP_ALPHA, params.k)
                        if abs(r.total - exact) > 1e-8 * exact:
                            outcome.problems.append(f"{where}: {r.total!r} != closed form {exact!r}")
                # L^p(gamma) norms grow with p; compare only the exact routes
                exact_ps = (1.0, 2.0, 3.0, 4.0) if d == 1 else (2.0, 4.0)
                chain = [lp[p] for p in exact_ps if p in lp]
                if any(b < a * (1.0 - 1e-12) for a, b in zip(chain, chain[1:])):
                    outcome.problems.append(f"d{d} f{i}: L^p norms {chain} decrease with p")
        return outcome


WORKLOADS = {cls.name: cls for cls in (VerifyDefault, BoundednessWide, BesovSweep)}
