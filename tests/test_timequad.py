import math

import numpy as np
import pytest

from gausscalc import SubordinationRule, TimeQuadrature, log_time_rule
from gausscalc.timequad import clipped_time_rule


def test_validation():
    with pytest.raises(ValueError):
        TimeQuadrature(2.0, 1.0, 100)
    with pytest.raises(ValueError):
        TimeQuadrature(-1.0, 1.0, 8)
    with pytest.raises(ValueError):
        SubordinationRule(2.0, 1.0, 100)


@pytest.mark.parametrize("kind,n", [("log_uniform", 2048)])
def test_exponential_moments(kind, n):
    rule = TimeQuadrature(-24.0, 7.0, n)  # head truncation e^v_min must sit below tol
    assert rule.kind == kind
    assert abs(rule.integrate(lambda t: np.exp(-t)) - 1.0) < 1e-9
    assert abs(rule.integrate(lambda t: t**4 * np.exp(-t)) - 24.0) < 1e-7


def test_rules_are_cached_and_read_only():
    t, w = TimeQuadrature(-16.0, 7.0, 1151).nodes_weights()
    again = TimeQuadrature(-16.0, 7.0, 1151).nodes_weights()
    assert again[0] is t and again[1] is w
    assert SubordinationRule(-16.0, 7.0, 1151).nodes_weights()[0] is t  # keyed by the window, not the class
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
    # head exponent 0.3: the default window -16 would truncate ~1e-2 of mass
    rule = log_time_rule(head_exponent=0.3)
    assert rule.v_min < -60
    val = rule.integrate(lambda t: t ** (0.3 - 1.0) * np.exp(-t))
    assert abs(val - math.gamma(0.3)) / math.gamma(0.3) < 1e-9


def test_log_rule_tail_adaptation():
    rule = log_time_rule(head_exponent=0.7, tail_exponent=0.3)
    # int_1^inf t^(-1.3) dt = 1/0.3, plus head piece int_0^1 t^(-0.3-1+1) ... use a
    # closed form instead: int_0^inf t^(-0.3) e^(-t) dt = Gamma(0.7)
    val = rule.integrate(lambda t: t ** (-0.3) * np.exp(-t))
    assert abs(val - math.gamma(0.7)) / math.gamma(0.7) < 1e-9
    assert rule.v_max > 60


def test_clipped_rule_is_log_time_rule_where_no_clip_binds():
    t, w, head_rest, tail_rest = clipped_time_rule(0.7, 1.0, 0.3, step=0.01)
    t0, w0 = log_time_rule(head_exponent=0.7, tail_exponent=0.3, step=0.01).nodes_weights()
    assert t is t0 and w is w0
    assert head_rest == tail_rest == 0.0


def test_clipped_rule_adds_the_dropped_ends():
    # head 0.01 would start the window at e^(-2304), where t^(-1) overflows;
    # tail 0.02 would end it at e^(1154), past the largest double
    h, b = 0.01, 0.02
    t, w, head_rest, _ = clipped_time_rule(h, 1.0)
    assert t[0] == math.exp(-700.0)
    val = float(np.dot(w, t ** (h - 1.0) * np.exp(-t))) + head_rest
    assert abs(val - math.gamma(h)) / math.gamma(h) < 1e-10
    t, w, _, tail_rest = clipped_time_rule(1.0 - b, b, b)
    assert t[-1] == math.exp(700.0)
    val = float(np.dot(w, t ** (-b) / (1.0 + t))) + tail_rest
    assert abs(val - math.pi / math.sin(math.pi * (1.0 - b))) < 1e-9 * val


def test_log_rule_rejects_nonpositive_exponents():
    with pytest.raises(ValueError):
        log_time_rule(head_exponent=0.0)
    with pytest.raises(ValueError):
        log_time_rule(head_exponent=1.0, tail_exponent=-1.0)


@pytest.mark.parametrize("t", [1e-2, 0.1, 1.0, 10.0])
def test_stable_measure_mass_is_one(t):
    rule = SubordinationRule()
    assert abs(rule.mass(t) - 1.0) < 1e-8


def test_stable_measure_median_scaling():
    # the order-1/2 stable law has cdf erfc(t / 2 sqrt(s)): quadrupling s
    # doubles t at fixed quantile, so mass below s0 at t equals mass below
    # 4 s0 at 2t
    rule = SubordinationRule()
    s1, m1, _ = rule.stable_measure(1.0)
    s2, m2, _ = rule.stable_measure(2.0)
    below1 = m1[s1 <= 0.7].sum()
    below2 = m2[s2 <= 2.8].sum()
    assert abs(below1 - below2) < 1e-9


def test_stable_measure_rejects_nonpositive_time():
    with pytest.raises(ValueError):
        SubordinationRule().stable_measure(0.0)
