import math

import numpy as np
import pytest

from gausscalc import SubordinationRule, TimeQuadrature, log_time_rule
from gausscalc.besov import decay_grid, seminorm_rule, smallest_k, sup_grid
from gausscalc.fractional import BETA_MAX
from gausscalc.harness import BOUNDEDNESS
from gausscalc.timequad import DEFAULT_STEP, EXP_ZERO, X_KNEE, X_TAIL, end_summed_integral


def test_validation():
    with pytest.raises(ValueError):
        TimeQuadrature(2.0, 1.0, 100)
    with pytest.raises(ValueError):
        TimeQuadrature(-1.0, 1.0, 8)


@pytest.mark.parametrize("kind,n", [("log_uniform", 2048)])
def test_exponential_moments(kind, n):
    rule = TimeQuadrature(-24.0, 7.0, n)  # head truncation e^v_min must sit below tol
    assert rule.kind == kind
    t, w = rule.nodes_weights()
    assert abs(np.dot(w, np.exp(-t)) - 1.0) < 1e-9
    assert abs(np.dot(w, t**4 * np.exp(-t)) - 24.0) < 1e-7


def test_rules_are_cached_and_read_only():
    t, w = TimeQuadrature(-16.0, 7.0, 1151).nodes_weights()
    again = TimeQuadrature(-16.0, 7.0, 1151).nodes_weights()
    assert again[0] is t and again[1] is w
    with pytest.raises(ValueError):
        t[0] = 1.0
    with pytest.raises(ValueError):
        w[0] = 1.0
    # the stable-measure masses do not depend on t, so they are cached with the rule
    masses = SubordinationRule().stable_measure(1.0)[1]
    assert SubordinationRule().stable_measure(2.0)[1] is masses
    with pytest.raises(ValueError):
        masses[0] = 1.0


def test_log_rule_head_adaptation():
    # t^0.3 e^(-t) dt/t is t^0.3 to rounding below t = 1e-17, so the head's
    # run of nodes, folded into the first weight, makes the rule exact
    t, w = log_time_rule(math.log(1e-17), math.log(48.6), math.log(X_KNEE), 0.1, 0.3)
    val = float(np.dot(w, t**0.3 * np.exp(-t)))
    assert abs(val - math.gamma(0.3)) / math.gamma(0.3) < 1e-14


def test_log_rule_tail_adaptation():
    # t^0.7 / (1 + t) dt/t is t^0.7 below t = 1e-17 and t^(-0.3) above 1e17,
    # to rounding: int_0^inf t^(a-1) / (1 + t) dt = pi / sin(pi a)
    t, w = log_time_rule(math.log(1e-17), math.log(1e17), math.log(X_KNEE), 0.1, 0.7, 0.3)
    assert t[-1] >= 1e17
    val = float(np.dot(w, t**0.7 / (1.0 + t)))
    want = math.pi / math.sin(0.7 * math.pi)
    assert abs(val - want) < 1e-14 * want


def test_seminorm_and_fractional_integrals_share_one_rule_factory(monkeypatch):
    # the seminorm's rule and the fractional multiplier integrals' rules are
    # log_time_rule's, the one factory of end-summed rules
    from gausscalc import HermiteExpansion, besov, besov_params, besov_seminorm, fractional, timequad

    calls = []
    factory = timequad.log_time_rule

    def spy(*args):
        calls.append(args)
        return factory(*args)

    monkeypatch.setattr(timequad, "log_time_rule", spy)
    monkeypatch.setattr(besov, "log_time_rule", spy)
    besov_seminorm(HermiteExpansion.basis((2,)), besov_params(0.7, 3, 2))
    # the seminorm's knee sits at x = SEMINORM_KNEE in its x = q RATE_BOUND t, the integrals' at X_KNEE
    assert besov.SEMINORM_KNEE == 20.0 and X_KNEE == 0.2
    knee = math.log(besov.SEMINORM_KNEE / (2.0 * besov.RATE_BOUND))
    assert [c[2:] for c in calls] == [(knee, DEFAULT_STEP, (1.0 - 0.7) * 2.0, None, 1)]
    t, w = besov.seminorm_rule(0.7, 1, 2.0, DEFAULT_STEP, 1)
    assert t is factory(*calls[0])[0] and w is factory(*calls[0])[1]
    calls.clear()
    fractional._derivative_integral(0.5, 1, 2.0)
    fractional._order_multiplier.__wrapped__(False, 1.0, 0.5, 4)
    knee = math.log(X_KNEE)
    assert [c[2:] for c in calls] == [(knee, 0.1, 0.5, 0.5), (knee, 0.1, 0.5, None)]


def test_end_weights_add_the_dropped_runs():
    # past each end the integrand is a pure power, so the trapezoid's nodes
    # beyond it, s_end -/+ j step, add their run of mapped terms
    # step v'(s) e^(+/-a (v(s) - v(s_end))), a = head or tail; the interior
    # weights are step v'(s) at nodes one step apart in s
    for a, b, knee, step, refine in (
        (0.01, 0.02, -20.0, DEFAULT_STEP, 1),
        (0.05, 2.5, -20.0, DEFAULT_STEP, 3),
        (4.0, 0.3, -35.0, 0.1, 2),
        (0.01, 0.02, 30.0, 0.1, 1),  # the whole window at or below the knee
    ):
        t, w = log_time_rule(-30.0, 30.0, knee, step, a, b, refine)
        h = step / refine
        s = np.log(t[1:-1]) + (w[1:-1] / h - 1.0)  # log t = s - e^(-(s - knee)), w = h (1 + e^(-(s - knee)))
        assert np.allclose(w[1:-1], h * (1.0 + np.exp(knee - s)), rtol=1e-13, atol=0.0)
        assert np.allclose(np.diff(s), h, rtol=0.0, atol=1e-12)
        v = lambda x: x - np.exp(knee - x)  # noqa: E731
        first, last = s[0] - h, s[-1] + h
        assert abs(v(first) - -30.0) <= 1e-12 and v(last) >= 30.0 > v(last - step)
        j = np.arange(1, int(80.0 / (b * h)) + 1)  # the tail run to e^(-80)
        head = s[0] - h - h * np.arange(1, int(400.0 / h))  # stretch <= e^(400 + 5): the run underflows well before
        head_run = h * (1.0 + np.exp(knee - head)) * np.exp(a * (v(head) - v(first)))
        tail = last + h * j
        tail_run = h * (1.0 + np.exp(knee - tail)) * np.exp(-b * (h * j + np.exp(knee - last) * -np.expm1(-h * j)))
        for weight, node, run in ((w[0], first, head_run), (w[-1], last, tail_run)):
            dropped = math.fsum(run)
            assert abs((weight - h * (1.0 + math.exp(knee - node))) - dropped) <= 1e-13 * dropped, (a, b, knee, refine)
    # a whole rule against its integral: t^(h-1) e^(-t) for h = 0.01 gives Gamma(h)
    h = 0.01
    t, w = log_time_rule(math.log(1e-17), math.log(48.0 + 2.0 * h), math.log(X_KNEE), DEFAULT_STEP, h)
    val = float(np.dot(w, t**h * np.exp(-t)))
    assert abs(val - math.gamma(h)) <= 1e-14 * math.gamma(h)


@pytest.mark.parametrize("refine", (1, 2, 3))
def test_rule_weights_are_finite_without_warnings(refine):
    # end runs of a tiny head exponent reach stretches near 1e8 before they
    # die out, and a knee far below the window makes the stretch 0; no exp
    # may overflow and nothing divide by 0 (pyproject makes a RuntimeWarning
    # an error)
    for knee in (-800.0, -40.0, -20.0, math.log(X_KNEE), 4.0):
        for head in (1e-6, 0.01, 1.0, 150.0):
            for tail in (None, 0.02, 3.0):
                t, w = log_time_rule(-37.0, 4.0, knee, DEFAULT_STEP, head, tail, refine)
                assert np.all(np.isfinite(t)) and np.all(np.isfinite(w)) and np.all(w > 0), (knee, head, tail)


def test_end_summed_rules_stay_short():
    # the fractional integrals' window [1e-17, x_tail] in x = root t thins out below the knee: x_tail is
    # X_TAIL with a tail and X_TAIL + 2 head without one, 92 nodes at head 1 and 103 at BETA_MAX
    ends, sizes = [], []

    def fn(head):
        def at(t):
            ends.append(2.0 * t[-1])
            sizes.append(t.size)
            return t**head * np.exp(-2.0 * t)  # int_0^inf t^(head-1) e^(-2t) dt = Gamma(head) / 2^head

        return at

    for head in (1.0, BETA_MAX):
        want = math.gamma(head) / 2.0**head
        assert abs(end_summed_integral(fn(head), 2.0, head) - want) <= 1e-14 * want
    assert abs(end_summed_integral(fn(1.0), 2.0, 1.0, 1.0) - 0.5) <= 1e-15
    assert X_TAIL + 2.0 <= ends[0] and X_TAIL + 2.0 * BETA_MAX <= ends[1] and X_TAIL <= ends[2] <= ends[0]
    assert max(sizes) <= 110, sizes


def _seminorm_windows():
    """(alpha, k, q) of every boundedness row's seminorm at q = 1 and 2, and alpha = 0.99 at q = 2."""
    alphas = {x for row in BOUNDEDNESS for a in row.alphas for b in row.betas for x in (a, a + row.shift * b)}
    alphas.add(0.99)
    return sorted({(a, smallest_k(a), q) for a in alphas for q in (1.0, 2.0)} - {(0.99, 1, 1.0)})


@pytest.mark.parametrize("refine", (2, 3))
def test_refined_rules_nest_the_coarse_ones_bit_for_bit(refine):
    windows = _seminorm_windows()
    assert len(windows) == 13
    for alpha, k, q in windows:
        t, w = seminorm_rule(alpha, k, q, DEFAULT_STEP, 1)
        fine, fine_w = seminorm_rule(alpha, k, q, DEFAULT_STEP, refine)
        assert fine.size == refine * (t.size - 1) + 1
        assert np.array_equal(fine[::refine], t), (alpha, q)
        # the trapezoid on the finer grid: away from the head, the weight dv over refine
        assert np.allclose(refine * fine_w[refine::refine], w[1:], rtol=1e-13, atol=0.0)
    assert np.array_equal(sup_grid(200, refine)[::refine], sup_grid(200, 1))
    assert sup_grid(200, refine).size == refine * 199 + 1
    assert np.array_equal(decay_grid(119)[::2], decay_grid(60))


def test_sup_grid_is_one_shared_read_only_array():
    grid = sup_grid(200, 2)
    assert sup_grid(200, 2) is grid
    assert not grid.flags.writeable


def test_log_rule_rejects_nonpositive_exponents():
    with pytest.raises(ValueError):
        log_time_rule(-1.0, 1.0, -2.0, 0.1, 0.0)
    with pytest.raises(ValueError):
        log_time_rule(-1.0, 1.0, -2.0, 0.1, 1.0, -1.0)


def test_log_rule_rejects_a_knee_above_the_window():
    # the tail sum's series would overflow to NaN weights for a knee far above v_max
    log_time_rule(-1.0, 1.0, 1.0, 0.1, 1.0, 1.0)
    with pytest.raises(ValueError, match="knee must not lie above v_max"):
        log_time_rule(-1.0, 1.0, 1.5, 0.1, 1.0, 1.0)


@pytest.mark.parametrize("step", (-0.1, 0.0, math.nan, math.inf))
def test_rules_reject_a_step_that_is_not_finite_and_positive(step):
    # a negative step used to give a 16-node rule, 0 a ZeroDivisionError and
    # NaN a failed int conversion; log_time_rule refuses them for every caller
    from gausscalc import HermiteExpansion, besov_params, besov_seminorm

    f = HermiteExpansion(1, {(1,): 1.0, (3,): -0.5})
    calls = (
        lambda: log_time_rule(-1.0, 1.0, -2.0, step, 1.0),
        lambda: log_time_rule(-1.0, 1.0, -2.0, step, 1.0, 1.0, 2),
        lambda: seminorm_rule(0.5, 1, 2.0, step, 1),
        lambda: seminorm_rule(0.5, 1, 2.0, step, 2),
        lambda: besov_seminorm(f, besov_params(0.5, 2, 2), step=step),
    )
    for call in calls:
        with pytest.raises(ValueError, match="step must be finite and > 0"):
            call()


@pytest.mark.parametrize("t", [1e-2, 0.1, 1.0, 10.0])
def test_stable_measure_mass_is_one(t):
    rule = SubordinationRule()
    assert abs(rule.mass(t) - 1.0) <= 1e-15
    assert abs(math.fsum(rule.stable_measure(t)[1]) - 1.0) <= 1e-15


def test_stable_measure_median_scaling():
    # the order-1/2 stable law has cdf erfc(t / 2 sqrt(s)): quadrupling s
    # doubles t at fixed quantile, so mass below s0 at t equals mass below
    # 4 s0 at 2t
    rule = SubordinationRule()
    s1, m1 = rule.stable_measure(1.0)
    s2, m2 = rule.stable_measure(2.0)
    below1 = m1[s1 <= 0.7].sum()
    below2 = m2[s2 <= 2.8].sum()
    assert abs(below1 - below2) < 1e-9


def test_stable_measure_rejects_nonpositive_time():
    with pytest.raises(ValueError):
        SubordinationRule().stable_measure(0.0)


@pytest.mark.parametrize("t", [SubordinationRule().t_min(), 1e-4, 1e-2, 0.05, 0.5, 5.0])
def test_stable_measure_matches_its_laplace_transform(t):
    # int e^(-n s) mu_t(ds) = e^(-t sqrt(n)); the folded far tail carries mass only (n = 0)
    s, masses = SubordinationRule().stable_measure(t)
    assert abs(masses.sum() - 1.0) <= 1e-14
    for n in (1, 4, 8, 16):
        want = math.exp(-t * math.sqrt(n))
        assert abs(float(np.dot(masses, np.exp(-n * s))) - want) <= 1e-14 * want, n


def test_stable_measure_is_exact_from_t_min():
    # at t_min the first node, which carries the folded far tail, has s = t^2 / 4u >= EXP_ZERO, so
    # e^(-s n) is 0 there for every n >= 1; below it the rule refuses
    rule = SubordinationRule()
    t = rule.t_min()
    assert t == 4.799950626044176e-07
    s, masses = rule.stable_measure(t)
    assert s.size == 427 and s[0] == s.max() >= EXP_ZERO and np.exp(-s[0]) == 0.0
    with pytest.raises(ValueError, match="where the stable-measure rule is exact"):
        rule.stable_measure(0.99 * t)
