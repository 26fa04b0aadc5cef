"""Verdict matrix of the boundary/integrability checks on the presets."""

import dataclasses
import time

import numpy as np
import pytest
from scipy import integrate
from scipy.special import exp1

from qsdlab import (check_all, check_h4, check_h5, check_hh,
                    drift_from_growth, inv_q_criterion, linear_growth,
                    logistic_growth, ou_drift, preset_model, report_to_rows)
from qsdlab.hypotheses import inner_head, inner_tail


@pytest.fixture(scope="module")
def logistic_report():
    return check_all(preset_model("logistic", "growth",
                                  {"r": 1.0, "c": 1.0, "gamma": 1.0}))


def test_logistic_all_checks_hold(logistic_report):
    assert logistic_report.verdicts == {name: "holds" for name in
                                        ("h1", "h2", "h3", "h4", "h5", "hh")}
    assert logistic_report.all_hold()


def test_ou_return_time_check_fails():
    rep = check_all(preset_model("ou", "drift", {"theta": 1.0}))
    v = rep.verdicts
    assert v["h1"] == v["h2"] == v["h3"] == v["h4"] == "holds"
    assert v["h5"] == "fails"
    # no growth form attached: the growth check cannot run
    assert v["hh"] == "inconclusive"
    assert not rep.all_hold()


def test_zero_growth_fails_growth_check():
    rep = check_all(preset_model("linear", "growth",
                                 {"r": 0.0, "gamma": 1.0}))
    assert rep.verdicts["hh"] == "fails"


def test_h5_two_forms_agree_on_presets(logistic_report):
    # the return-time integral has two equivalent double-integral forms;
    # both are computed and must reach the same verdict
    assert "agreement=yes" in logistic_report.checks["h5"].detail
    for model in (preset_model("ou", "drift", {"theta": 1.0}),
                  preset_model("linear", "growth", {"r": 0.0, "gamma": 1.0}),
                  preset_model("linear", "growth", {"r": -1.0, "gamma": 1.0})):
        c = check_h5(model.drift)
        assert "agreement=yes" in c.detail, c.detail


def test_subcritical_linear_matrix():
    # pull-in drift passes the boundary checks, but the return-time
    # integrand only decays like 1/y: convergence is not uniform here
    rep = check_all(preset_model("linear", "growth",
                                 {"r": -1.0, "gamma": 1.0}))
    v = rep.verdicts
    assert v["h1"] == v["h2"] == v["h3"] == v["h4"] == "holds"
    assert v["h5"] == "fails"
    assert v["hh"] == "holds"   # -z/sqrt(z) does run off to -infinity


def test_growth_check_flags_weak_decline():
    assert check_hh(logistic_growth(1.0, 1.0, 1.0)).verdict == "holds"
    assert check_hh(linear_growth(-1.0, 1.0)).verdict == "holds"
    # decline like -sqrt(z) plateaus in the probe: too slow
    weak = preset_model("custom", "growth",
                        {"expression": "0 - sqrt(z)", "gamma": 1.0})
    assert check_hh(weak.growth).verdict == "fails"


def test_inverse_drift_integrability_split():
    # cubic-growth drift: 1/q integrable at infinity; linear drift: not
    d_log = drift_from_growth(logistic_growth(1.0, 1.0, 1.0))
    assert bool(inv_q_criterion(d_log).verdict)
    assert not bool(inv_q_criterion(ou_drift(1.0)).verdict)


def test_report_rows_shape(logistic_report):
    rows = report_to_rows(logistic_report)
    assert [r[0] for r in rows] == ["h1", "h2", "h3", "h4", "h5", "hh"]
    assert all(r[1] in ("holds", "fails", "inconclusive") for r in rows)
    assert all(isinstance(r[4], str) for r in rows)  # json trail


def test_inner_integrals_solve_arrays_like_scalars():
    ys = np.concatenate([np.geomspace(1e-3, 1.0, 6),
                         np.geomspace(1.0, 300.0, 9)])
    solves = ((inner_tail, {}), (inner_tail, {"hi": 1.0}),
              (inner_head, {"lo": 1.0}))
    models = (preset_model("logistic", "growth",
                           {"r": 1.0, "c": 1.0, "gamma": 1.0}),
              preset_model("ou", "drift", {"theta": 1.0}),
              preset_model("custom", "growth",
                           {"expression": "z - z^2", "gamma": 1.0}))
    for model in models:
        for f, kw in solves:
            whole = f(model.drift, ys, **kw)
            assert isinstance(f(model.drift, ys[3], **kw), float)
            np.testing.assert_array_equal(
                f(model.drift, ys.reshape(3, 5), **kw), whole.reshape(3, 5))
            np.testing.assert_array_equal(
                f(model.drift, ys[::-1], **kw), whole[::-1])
            # the sweep sums each node's gap to its neighbour, so a lone
            # point rounds differently from the same point among others
            one = np.array([f(model.drift, y, **kw) for y in ys])
            np.testing.assert_allclose(whole, one, rtol=1e-13, atol=0.0)


def _split_quad(f, a, b):
    """quad on a ladder of sub-intervals, then on the rest up to b."""
    cuts = [a]
    for step in (0.25, 1.0, 4.0):
        if cuts[-1] + step < b:
            cuts.append(cuts[-1] + step)
    if np.isfinite(b):
        cuts.append(b)
    total = sum(integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-13,
                               limit=200)[0]
                for lo, hi in zip(cuts[:-1], cuts[1:]))
    if np.isinf(b):
        total += integrate.quad(f, cuts[-1], b, epsabs=0.0, epsrel=1e-13,
                                limit=200)[0]
    return total


def _refuse(x):
    raise AssertionError("the inner integrals read q only")


@pytest.mark.parametrize("preset,kind,params", [
    ("logistic", "growth", {"r": 1.0, "c": 1.0, "gamma": 1.0}),
    ("ou", "drift", {"theta": 1.0}),
    ("allee", "growth", {"r": 1.0, "K0": 1.0, "K": 4.0, "gamma": 1.0}),
])
def test_inner_integrals_match_split_quad(preset, kind, params):
    d = preset_model(preset, kind, params).drift   # closed-form Q
    sweep = dataclasses.replace(d, Q=_refuse)
    wide = np.linspace(1.0, 10.0, 601)
    near = np.geomspace(1e-6, 1.0, 202)[1:-1]
    forms = (
        (inner_tail(sweep, wide), wide,
         lambda y: _split_quad(lambda z: np.exp(d.Q(y) - d.Q(z)), y, np.inf)),
        (inner_head(sweep, wide, lo=1.0), wide,
         lambda y: _split_quad(lambda z: np.exp(d.Q(z) - d.Q(y)), 1.0, y)),
        (inner_tail(sweep, near, hi=1.0), near,
         lambda y: _split_quad(lambda z: np.exp(d.Q(y) - d.Q(z)), y, 1.0)),
    )
    for values, nodes, reference in forms:
        for i in range(0, nodes.size, 20):
            np.testing.assert_allclose(values[i], reference(nodes[i]),
                                       rtol=1e-10, atol=0.0)
    # where tanhsinh once stopped at 0.9682537 on logistic (0.9682649)
    np.testing.assert_allclose(inner_tail(sweep, 1.56925),
                               forms[0][2](1.56925), rtol=1e-10, atol=0.0)
    assert inner_head(sweep, 1.0, lo=1.0) == 0.0
    assert inner_tail(sweep, 1.0, hi=1.0) == 0.0


def test_inner_integrals_hold_past_the_spacing_of_doubles():
    # on logistic, 2q(y) grows like y^3: past y ~ 2e4 a panel 4/|2q| wide
    # is narrower than the spacing of doubles at y, and both inner
    # integrals are 1/(2q(y)) to leading order
    d = preset_model("logistic", "growth",
                     {"r": 1.0, "c": 1.0, "gamma": 1.0}).drift
    ys = np.array([2.5e4, 1e5, 1e6])
    rate = 2.0 * d.q(ys)
    np.testing.assert_allclose(inner_tail(d, ys) * rate, 1.0,
                               rtol=0.0, atol=1e-6)
    np.testing.assert_allclose(inner_head(d, ys, lo=1.0) * rate, 1.0,
                               rtol=0.0, atol=1e-6)
    for y in ys:
        assert abs(inner_tail(d, y) * 2.0 * d.q(y) - 1.0) <= 1e-6


@pytest.mark.parametrize("expression, Q", [
    ("1/(2*x) + x^3/1e12", lambda x: np.log(x) + (x ** 4 - 1.0) / 2e12),
    ("1/(2*x) + x^3/1e15", lambda x: np.log(x) + (x ** 4 - 1.0) / 2e15),
    ("1/(2*x) + x/1e10", lambda x: np.log(x) + (x ** 2 - 1.0) / 1e10),
])
def test_slowly_fading_tails_stay_finite(expression, Q):
    # like the pure Feller tail y/z out to z ~ 1e3-1e5, then cut off: a
    # tail whose increments do not shrink for a while is not yet infinite
    d = preset_model("custom", "drift", {"expression": expression}).drift
    for y in (1.0, 5.0, 30.0):
        np.testing.assert_allclose(
            inner_tail(d, y),
            _split_quad(lambda z: np.exp(Q(y) - Q(z)), y, np.inf),
            rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("p", [0.55, 0.6, 0.7, 0.75, 1.0, 2.0, 3.0])
def test_power_tails_match_closed_form(p):
    # q = p/x: the far tail, marched in ln(1 + z), is int (y/z)^2p = y/(2p - 1);
    # below p = 0.726 it is still open at z = 1e48, and its end rule
    # closes it as a power
    d = preset_model("custom", "drift", {"expression": f"{p}/x"}).drift
    ys = np.array([1.0, 5.0, 30.0, 100.0])
    np.testing.assert_allclose(inner_tail(d, ys), ys / (2.0 * p - 1.0),
                               rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("preset, params", [
    ("custom", {"expression": "0*z", "gamma": 1.0}),
    ("linear", {"r": 0.0, "gamma": 1.0}),
])
def test_critical_feller_tail_is_infinite(preset, params):
    # q = 1/(2x): the tail int_y^inf y/z dz diverges like a logarithm
    d = preset_model(preset, "growth", params).drift
    assert np.all(np.isposinf(inner_tail(d, np.array([1.0, 5.0, 30.0]))))
    assert np.isposinf(inner_tail(d, 1.0))


def test_flat_growth_check_stays_within_its_drift_budget():
    # the heavy tail ends at z = 1e48 after a few dozen log panels, not
    # 160 doublings: 1157 calls of q, against 7599 with doublings only
    model = preset_model("custom", "growth",
                         {"expression": "0*z", "gamma": 1.0})
    calls = []

    def q(x):
        calls.append(1)
        return model.drift.q(x)
    counted = dataclasses.replace(
        model, drift=dataclasses.replace(model.drift, q=q))
    assert check_all(counted).verdicts == check_all(model).verdicts
    assert len(calls) <= 2000


def test_root_decline_checks_finish_and_agree():
    # h(z) = -sqrt(z) gives q = 1/(2x) + 1, Q = ln x + 2(x - 1): the exit
    # integral is 0.17018416096 (dblquad on the closed form), and the
    # weighted speed measure at the origin converges
    model = preset_model("custom", "growth",
                         {"expression": "0 - sqrt(z)", "gamma": 1.0})
    t0 = time.perf_counter()
    rep = check_all(model)
    assert time.perf_counter() - t0 < 10.0
    h1 = rep.checks["h1"]
    assert h1.verdict == "holds", h1.detail
    assert abs(h1.trail["origin"][-1][1] - 0.17018416096) < 1e-9
    h3 = rep.checks["h3"]
    assert h3.verdict == "holds", h3.detail
    # quad on the closed form: 0.58203994941
    assert abs(h3.trail[-1][1] - 0.58203994941) < 1e-9
    assert rep.checks["h5"].verdict == "fails"
    assert "agreement=yes" in rep.checks["h5"].detail


def test_verdict_matrix_runs_the_designed_rule():
    expected = {
        "logistic": ("logistic", "growth", {"r": 1.0, "c": 1.0, "gamma": 1.0},
                     "h1 h2 h3 h4 h5 hh", ""),
        "ou": ("ou", "drift", {"theta": 1.0}, "h1 h2 h3 h4", "h5"),
        "linear": ("linear", "growth", {"r": -1.0, "gamma": 1.0},
                   "h1 h2 h3 h4 hh", "h5"),
        "allee": ("allee", "growth",
                  {"r": 1.0, "K0": 1.0, "K": 4.0, "gamma": 1.0},
                  "h1 h2 h3 h4 h5 hh", ""),
        "flat": ("custom", "growth", {"expression": "0*z", "gamma": 1.0},
                 "h1 h3", "h2 h4 h5 hh"),
        "critical": ("linear", "growth", {"r": 0.0, "gamma": 1.0},
                     "h1 h3", "h2 h4 h5 hh"),
        # q = p/x: exp(-Q) = x^(-2p), so h3's integrand is
        # x^(2-2p)/(p(p+1)) + ..., divergent at 0 for p >= 1.5; h4's
        # speed tail int_1^inf x^(-2p) converges iff p > 1/2, and its
        # root moment int_0^1 y^(1-p) diverges for p >= 2
        "p=0.4": ("custom", "drift", {"expression": "0.4/x"},
                  "h1 h3", "h2 h4 h5"),
        "p=0.5": ("custom", "drift", {"expression": "0.5/x"},
                  "h1 h3", "h2 h4 h5"),
        "p=0.55": ("custom", "drift", {"expression": "0.55/x"},
                   "h1 h3 h4", "h2 h5"),
        "p=0.6": ("custom", "drift", {"expression": "0.6/x"},
                  "h1 h3 h4", "h2 h5"),
        "p=1": ("custom", "drift", {"expression": "1.0/x"},
                "h1 h3 h4", "h2 h5"),
        "p=1.2": ("custom", "drift", {"expression": "1.2/x"},
                  "h1 h3 h4", "h2 h5"),
        "p=1.5": ("custom", "drift", {"expression": "1.5/x"},
                  "h1 h4", "h2 h3 h5"),
        "p=2": ("custom", "drift", {"expression": "2.0/x"},
                "h1", "h2 h3 h4 h5"),
        "p=3": ("custom", "drift", {"expression": "3.0/x"},
                "h1", "h2 h3 h4 h5"),
        # the Feller tail 1/x cut off near x = 1e5: h4's speed tail is
        # 11.22, although its partials grow like ln x up to 1e4
        "cut": ("custom", "drift", {"expression": "1/(2*x) + x/1e10"},
                "h1 h3 h4", "h2 h5"),
    }
    for name, (preset, kind, params, holds, fails) in expected.items():
        verdicts = check_all(preset_model(preset, kind, params)).verdicts
        assert [k for k, v in verdicts.items() if v == "holds"] == \
            holds.split(), name
        assert [k for k, v in verdicts.items() if v == "fails"] == \
            fails.split(), name


@pytest.mark.parametrize("expression, value", [
    ("1/(2*x) + x/1e10", 0.5 * np.exp(1e-10) * exp1(1e-10)),
    ("0.6/x", 5.0),
    ("1.0/x", 1.0),
    ("3.0/x", 0.2),
    ("1/(2*x) + x^3/1e15", 0.25 * (np.log(2e15) - np.euler_gamma)),
])
def test_speed_tail_matches_closed_form(expression, value):
    # h4's speed tail int_1^inf exp(-Q): the last trail entry holds it
    d = preset_model("custom", "drift", {"expression": expression}).drift
    _, tail = check_h4(d).trail["tail"][-1]
    np.testing.assert_allclose(tail, value, rtol=1e-10, atol=0.0)
