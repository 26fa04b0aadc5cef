"""Verdict matrix of the boundary/integrability checks on the presets."""

import numpy as np
import pytest

from qsdlab import (check_all, check_h5, check_hh, drift_from_growth,
                    inv_q_criterion, linear_growth, logistic_growth, ou_drift,
                    preset_model, report_to_rows)
from qsdlab import hypotheses, quadrature
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
    exact = (preset_model("logistic", "growth",
                          {"r": 1.0, "c": 1.0, "gamma": 1.0}),
             preset_model("ou", "drift", {"theta": 1.0}))
    for model in exact:
        for f, kw in solves:
            one = np.array([f(model.drift, y, **kw) for y in ys])
            assert isinstance(f(model.drift, ys[3], **kw), float)
            np.testing.assert_array_equal(f(model.drift, ys, **kw), one)
            np.testing.assert_array_equal(
                f(model.drift, ys.reshape(3, 5), **kw), one.reshape(3, 5))
    # a numeric potential integrates along the whole request at once, so
    # an array call rounds differently from per-point calls
    custom = preset_model("custom", "growth",
                          {"expression": "z - z^2", "gamma": 1.0})
    for f, kw in solves:
        one = np.array([f(custom.drift, y, **kw) for y in ys])
        np.testing.assert_allclose(f(custom.drift, ys.reshape(1, -1), **kw),
                                   one.reshape(1, -1), rtol=1e-14, atol=0.0)


class _CountingIntegrate:
    """scipy.integrate stand-in that counts tanhsinh calls and raises."""

    def __init__(self, module):
        self.module = module
        self.calls = 0
        self.raised = 0
        self.maxlevels = []

    def __getattr__(self, name):
        return getattr(self.module, name)

    def tanhsinh(self, *args, **kwargs):
        self.calls += 1
        self.maxlevels.append(kwargs.get("maxlevel"))
        try:
            return self.module.tanhsinh(*args, **kwargs)
        except Exception:
            self.raised += 1
            raise


def test_verdict_matrix_runs_the_designed_rule(monkeypatch):
    # every outer and inner integral goes through tanhsinh without an
    # exception to fall back from
    counter = _CountingIntegrate(quadrature._si)
    monkeypatch.setattr(quadrature, "_si", counter)
    monkeypatch.setattr(hypotheses, "_si", counter)
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
    }
    for name, (preset, kind, params, holds, fails) in expected.items():
        verdicts = check_all(preset_model(preset, kind, params)).verdicts
        assert [k for k, v in verdicts.items() if v == "holds"] == \
            holds.split(), name
        assert [k for k, v in verdicts.items() if v == "fails"] == \
            fails.split(), name
    assert counter.calls > 0
    assert counter.raised == 0


def test_heavy_tails_skip_the_deep_inner_solve(monkeypatch):
    # an inner point the tail probe calls divergent after the batched
    # solve is not solved again alone to the deepest level
    counter = _CountingIntegrate(hypotheses._si)
    monkeypatch.setattr(hypotheses, "_si", counter)
    flat = preset_model("custom", "growth", {"expression": "0*z",
                                             "gamma": 1.0})
    assert check_h5(flat.drift).verdict == "fails"
    assert counter.maxlevels.count(hypotheses._MAXLEVEL) == 0
    # points short of convergence without a heavy tail still are
    allee = preset_model("allee", "growth",
                         {"r": 1.0, "K0": 1.0, "K": 4.0, "gamma": 1.0})
    assert check_h5(allee.drift).verdict == "holds"
    assert counter.maxlevels.count(hypotheses._MAXLEVEL) > 0
