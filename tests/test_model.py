"""Drift fields, growth forms, and the square-root coordinate change."""

import warnings

import numpy as np
import pytest

from qsdlab import (ConfigError, DomainError, ModelError, allee_growth, drift_from_growth,
                    linear_growth, logistic_growth, ou_drift, potential,
                    preset_model, x_from_z, z_from_x)
from qsdlab.expr import compile_expression
from qsdlab.model import (_PROBE_HI, _PROBE_LO, _PROBE_N, curvature_floor,
                          in_place, scratch_rows)
from qsdlab.montecarlo import _conditioned_drift, _located


def test_coordinate_round_trip():
    z = np.array([1e-6, 0.3, 1.0, 7.5, 400.0])
    for gamma in (0.5, 1.0, 3.0):
        x = x_from_z(z, gamma)
        assert np.allclose(z_from_x(x, gamma), z, rtol=1e-14)
    # the map sends z to 2 sqrt(z/gamma)
    assert x_from_z(1.0, 1.0) == pytest.approx(2.0)
    assert z_from_x(2.0, 4.0) == pytest.approx(4.0)


def test_ou_drift_and_potential():
    d = ou_drift(2.0)
    xs = np.linspace(0.1, 5.0, 40)
    assert np.allclose(d.q(xs), 2.0 * xs)
    assert np.allclose(d.q_prime(xs), 2.0)
    # potential of the symmetrized operator: (q^2 - q')/2
    w = potential(d)
    assert np.allclose(w(xs), 0.5 * (4.0 * xs ** 2 - 2.0))
    # Q is twice the antiderivative of q: theta x^2 for this drift
    assert d.Q(2.0) - d.Q(1.0) == pytest.approx(2.0 * (4.0 - 1.0),
                                                rel=1e-10)


def test_growth_to_drift_identity():
    # q(x) = 1/(2x) - (2/(gamma x)) h(gamma x^2/4), checked pointwise
    for g in (logistic_growth(1.0, 1.0, 1.0),
              linear_growth(-1.0, 2.0),
              allee_growth(1.0, 1.0, 10.0, 1.0)):
        d = drift_from_growth(g)
        xs = np.linspace(0.05, 4.0, 60)
        z = g.gamma * xs * xs / 4.0
        expect = 1.0 / (2.0 * xs) - (2.0 / (g.gamma * xs)) * np.asarray(g.h(z))
        assert np.allclose(d.q(xs), expect, rtol=1e-10), g
        # q' agrees with a centered difference of q
        eps = 1e-6
        num = (np.asarray(d.q(xs + eps)) - np.asarray(d.q(xs - eps))) / (2 * eps)
        assert np.allclose(d.q_prime(xs), num, rtol=1e-5, atol=1e-5)


def test_logistic_drift_terms():
    # r=1, c=1, gamma=1: q(x) = 1/(2x) - x/2 + x^3/8
    d = drift_from_growth(logistic_growth(1.0, 1.0, 1.0))
    xs = np.array([0.2, 1.0, 2.0, 3.0])
    assert np.allclose(d.q(xs), 0.5 / xs - xs / 2.0 + xs ** 3 / 8.0,
                       rtol=1e-12)


def test_origin_exponent_of_population_drifts():
    # near 0 the drift looks like 1/(2x): exponent 1/2 singular pull-in
    d = drift_from_growth(logistic_growth(1.0, 1.0, 1.0))
    assert d.origin_exponent > 0
    assert ou_drift(1.0).origin_exponent == 0.0


def test_preset_model_surface():
    m = preset_model("logistic", "growth", {"r": "1", "c": "1", "gamma": "1"})
    assert m.kind == "growth"
    assert m.growth is not None
    xs = np.array([0.5, 1.5])
    d2 = drift_from_growth(m.growth)
    assert np.allclose(m.drift.q(xs), d2.q(xs), rtol=1e-12)

    m_ou = preset_model("ou", "drift", {"theta": "1.5"})
    assert m_ou.growth is None
    assert np.allclose(m_ou.drift.q(xs), 1.5 * xs)

    with pytest.raises(ConfigError):
        preset_model("nope", "growth", {})
    with pytest.raises(ModelError):
        preset_model("logistic", "growth", {"r": "1", "c": "-2", "gamma": "1"})
    with pytest.raises(ConfigError):
        preset_model("ou", "growth", {"theta": "1"})


def test_custom_expression_model():
    # expression route reproduces the linear preset
    m = preset_model("custom", "growth",
                     {"expression": "0.5*z - 0*z", "gamma": "1"})
    ref = linear_growth(0.5, 1.0)
    zs = np.linspace(0.01, 5.0, 30)
    assert np.allclose(m.growth.h(zs), ref.h(zs), rtol=1e-12)
    d1 = drift_from_growth(m.growth)
    d2 = drift_from_growth(ref)
    xs = np.linspace(0.1, 3.0, 20)
    assert np.allclose(d1.q(xs), d2.q(xs), rtol=1e-8)


@pytest.mark.parametrize("gamma", [1.0, 0.37])
@pytest.mark.parametrize("growth", ["logistic", "allee", "custom"])
def test_growth_drift_is_the_unfactored_formula_bit_for_bit(growth, gamma):
    # q forms gamma x once; every value, the infinities and NaNs of the
    # edge points included, stays the formula's
    g = {"logistic": lambda: logistic_growth(1.0, 1.0, gamma),
         "allee": lambda: allee_growth(1.0, 1.0, 4.0, gamma),
         "custom": lambda: preset_model(
             "custom", "growth",
             {"expression": "z + 0.1*z^1.5 - 0.3*z^2", "gamma": gamma}
         ).growth}[growth]()
    x = np.concatenate([[0.0, 1e-300, 1e300, np.inf],
                        np.geomspace(1e-12, 1e12, 97),
                        np.linspace(0.0, 12.0, 121)])
    with np.errstate(all="ignore"):
        ref = (0.5 / x - (2.0 / (gamma * x))
               * np.asarray(g.h(gamma * x * x / 4.0), dtype=float))
    q = drift_from_growth(g).q
    assert np.array_equal(q(x).view(np.uint64), ref.view(np.uint64))
    for xi, ri in zip(x[:4], ref[:4]):
        assert np.array(q(xi)).view(np.uint64) == ri.view(np.uint64), xi


# the allocating drift closures the package had before each drift got one
# in-place evaluator, kept verbatim: every package drift must still be
# them, bit for bit, called as q(x) and stepped in place alike
def _frozen_ou(theta):
    def q(x):
        return theta * np.asarray(x, dtype=float)
    return q


def _frozen_logistic_h(r, c):
    def h(z):
        z = np.asarray(z, dtype=float)
        out = r * z - c * z * z
        return float(out) if out.ndim == 0 else out
    return h


def _frozen_allee_h(r, K0, K):
    def h(z):
        z = np.asarray(z, dtype=float)
        out = r * z * (z / K0 - 1.0) * (1.0 - z / K)
        return float(out) if out.ndim == 0 else out
    return h


def _frozen_growth_drift(h, gamma):
    def q(x):
        # 0.5/x - (2/(gamma x)) h(gamma x^2/4), with gamma x formed once
        x = np.asarray(x, dtype=float)
        gx = gamma * x
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = 0.5 / x - (2.0 / gx) * np.asarray(h(gx * x / 4.0),
                                                    dtype=float)
        return float(out) if out.ndim == 0 else out
    return q


def _frozen_drifts():
    """(name, package drift q, frozen q) for every drift kind."""
    custom_h = "z + 0.1*z^1.5 - 0.3*z^2"
    custom_q = "x + 1/(2*x) - 0.2*x^2"
    return [
        ("ou", preset_model("ou", "drift", {"theta": 1.5}).drift.q,
         _frozen_ou(1.5)),
        ("logistic", preset_model("logistic", "growth",
                                  {"r": 1.3, "c": 0.7, "gamma": 0.9}).drift.q,
         _frozen_growth_drift(_frozen_logistic_h(1.3, 0.7), 0.9)),
        ("linear", preset_model("linear", "growth",
                                {"r": -1.0, "gamma": 1.2}).drift.q,
         _frozen_growth_drift(lambda z: -1.0 * np.asarray(z, dtype=float),
                              1.2)),
        ("allee", preset_model("allee", "growth",
                               {"r": 1.0, "K0": 1.0, "K": 4.0,
                                "gamma": 0.37}).drift.q,
         _frozen_growth_drift(_frozen_allee_h(1.0, 1.0, 4.0), 0.37)),
        ("custom-growth", preset_model("custom", "growth",
                                       {"expression": custom_h,
                                        "gamma": 0.8}).drift.q,
         _frozen_growth_drift(compile_expression(custom_h, "z", {}), 0.8)),
        ("custom-drift", preset_model("custom", "drift",
                                      {"expression": custom_q}).drift.q,
         compile_expression(custom_q, "x", {})),
    ]


# near the default absorption threshold 1e-4, zero and the subnormals,
# a log sweep, large x up to overflow, the infinities, NaN and x < 0
_DRIFT_XS = np.concatenate([
    1e-4 * (1.0 + np.array([-1e-3, -1e-12, -2.2e-16, 0.0, 2.2e-16, 1e-12,
                            1e-3])),
    [0.0, -0.0, 5e-324, 1e-310, 1e-300, 1e-8],
    np.geomspace(1e-6, 1e6, 97),
    [3.7, 1e77, 1e103, 1e154, 1e200, 1e300, 1.7e308],
    [np.inf, -np.inf, np.nan, -1.0]])


def _assert_bits(got, ref, what):
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    assert got.shape == ref.shape, what
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64)), what


def _assert_in_place_is_frozen(q, frozen, xs, scalars=True):
    """q(x), on the array and (when scalars) on each scalar, and q's
    in-place evaluator into a row it is given, are frozen(x) bit for bit."""
    with np.errstate(all="ignore"):
        ref = np.asarray(frozen(xs), dtype=float)
        _assert_bits(q(xs), ref, "array")
        for xi, ri in zip(xs if scalars else (), ref):
            _assert_bits(q(xi), ri, xi)
        # the path engine's call: a row and the scratch rows q declares,
        # already holding other values, under the march's errstate
        row = np.full_like(xs, 7.0)
        work = np.full((scratch_rows(q),) + xs.shape, -3.0)
        assert in_place(q)(xs, row, work) is row
    _assert_bits(row, ref, "in place")


@pytest.mark.parametrize("name", [d[0] for d in _frozen_drifts()])
def test_every_drift_is_its_frozen_closure_bit_for_bit(name):
    _, q, frozen = next(d for d in _frozen_drifts() if d[0] == name)
    _assert_in_place_is_frozen(q, frozen, _DRIFT_XS)


@pytest.mark.parametrize("sd_name", ["logistic_sd", "ou_sd"])
def test_conditioned_drift_is_its_frozen_closure_bit_for_bit(sd_name,
                                                              request):
    # the Q-process drift d.q - dlog, on the grid, between its nodes, past
    # its edges and at the points above; the path engine only steps it on
    # arrays, so it is not called on scalars
    from scipy.interpolate import PchipInterpolator
    s = request.getfixturevalue(sd_name)
    dq = {"logistic_sd": _frozen_growth_drift(_frozen_logistic_h(1.0, 1.0),
                                              1.0),
          "ou_sd": _frozen_ou(1.0)}[sd_name]
    logeta = 0.5 * s.Qgrid + np.log(np.maximum(np.abs(s.psis[:, 0]), 1e-280))
    dlog = _located(PchipInterpolator(s.grid, logeta).derivative(), s.domain)

    def frozen(x):
        return dq(x) - dlog(x)
    g = s.grid
    xs = np.concatenate([g, 0.5 * (g[:-1] + g[1:]), [0.5 * g[0], 2 * g[-1]],
                         _DRIFT_XS])
    _assert_in_place_is_frozen(_conditioned_drift(s.drift, s), frozen, xs,
                               scalars=False)


def test_allee_growth_shape():
    g = allee_growth(1.0, 1.0, 10.0, 1.0)
    # negative below the low threshold, positive in the window
    assert g.h(0.5) < 0
    assert g.h(5.0) > 0
    assert g.h(20.0) < 0
    assert g.h(0.0) == pytest.approx(0.0, abs=1e-14)


def test_numeric_potential_takes_any_shape():
    # quadrature rules hand integrands node arrays such as (1, n)
    xs = np.array([[0.3, 1.7, 0.9], [2.5, 0.05, 1.0]])
    growth = preset_model("custom", "growth",
                          {"expression": "z - z^2", "gamma": "1"}).drift
    closed = np.log(xs) - 0.5 * (xs ** 2 - 1.0) + (xs ** 4 - 1.0) / 16.0
    assert growth.Q(xs).shape == xs.shape
    assert np.allclose(growth.Q(xs), closed, rtol=1e-12, atol=1e-12)
    drift = preset_model("custom", "drift", {"expression": "x"}).drift
    assert np.allclose(drift.Q(xs), xs ** 2 - 1.0, rtol=1e-12, atol=1e-12)


def test_numeric_potential_near_the_origin():
    # gamma x^2 / 4 underflows to z = 0 below x ~ 1e-154; the growth
    # integrand extends continuously there
    d = preset_model("custom", "growth",
                     {"expression": "z - z^2", "gamma": "1"}).drift
    for x in (1e-170, 4.45e-308):
        assert d.Q(x) == pytest.approx(np.log(x) + 0.5 - 1.0 / 16.0,
                                       rel=1e-12)
    # a drift singular at the origin keeps its potential off x = 0
    singular = preset_model("custom", "drift",
                            {"expression": "1/(2*x) + x"}).drift
    with pytest.raises(DomainError):
        singular.Q(np.array([0.0, 1.0]))


def test_root_growth_potential_matches_closed_form():
    # h(z) = -sqrt(z), gamma = 1: q = 1/(2x) + 1 and Q = ln x + 2(x - 1);
    # h(z)/z is singular at the origin, the integrand in x is not
    d = preset_model("custom", "growth",
                     {"expression": "0 - sqrt(z)", "gamma": "1"}).drift
    xs = np.geomspace(1e-3, 2.0, 200)
    closed = np.log(xs) + 2.0 * (xs - 1.0)
    np.testing.assert_allclose(d.Q(xs), closed, rtol=0.0, atol=1e-8)
    np.testing.assert_allclose([d.Q(x) for x in xs], closed,
                               rtol=0.0, atol=1e-8)


def test_potential_integral_near_a_singular_origin():
    # Q = ln x + x^2 - 1 for q = 1/(2x) + x; a lone or sparse request
    # spans decades on one gap, near the origin or far from it, which is
    # split by decade
    d = preset_model("custom", "drift", {"expression": "1/(2*x) + x"}).drift
    xs = np.geomspace(1e-3, 2.0, 200)
    exact = np.log(xs) + xs ** 2 - 1.0
    np.testing.assert_allclose(d.Q(xs), exact, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(d.Q(xs[::37]), exact[::37], rtol=1e-12,
                               atol=1e-12)
    np.testing.assert_allclose([d.Q(x) for x in xs], exact, rtol=1e-12,
                               atol=1e-12)
    far = np.array([10.0, 1000.0])
    exact = np.log(far) + far ** 2 - 1.0
    np.testing.assert_allclose(d.Q(far), exact, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose([d.Q(x) for x in far], exact, rtol=1e-12,
                               atol=0.0)


@pytest.mark.parametrize("preset, kind, expression, C", [
    # q^2 - q' falls to its minimum at the probe grid's last node ...
    ("custom", "growth", "0*z", 0.0),
    ("custom", "drift", "3.0/x", 0.0),
    # ... or at its first: -q' of the finite difference, as the grid has it
    ("custom", "drift", "x", 1.0000000000155733)])
def test_an_end_minimum_of_the_curvature_floor_is_kept_as_it_is(
        preset, kind, expression, C):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = preset_model(preset, kind, {"expression": expression}).drift
        assert d.C == C


def test_a_rejected_interior_bracket_keeps_the_grid_minimum_and_warns():
    # q^2 - q' is -1 at one interior probe node and 0 everywhere else, so
    # the golden search finds no point of the bracket below its ends
    node = np.geomspace(_PROBE_LO, _PROBE_HI, _PROBE_N)[2000]

    def q(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def q_prime(x):
        return np.where(np.asarray(x, dtype=float) == node, 1.0, 0.0)

    with pytest.warns(RuntimeWarning, match="curvature floor: the golden "
                                            "search rejected the bracket"):
        assert curvature_floor(q, q_prime) == 1.0
