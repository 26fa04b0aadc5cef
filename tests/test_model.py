"""Drift fields, growth forms, and the square-root coordinate change."""

import numpy as np
import pytest

from qsdlab import (ConfigError, DomainError, ModelError, allee_growth, drift_from_growth,
                    linear_growth, logistic_growth, ou_drift, potential,
                    preset_model, scale_functions, x_from_z, z_from_x)


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


def test_scale_functions_derivative():
    d = ou_drift(1.0)
    sf = scale_functions(d)
    # Lambda' = exp(Q), both anchored to vanish at 1
    eps = 1e-5
    for x in (0.5, 1.0, 1.5):
        dl = (sf.Lambda(x + eps) - sf.Lambda(x - eps)) / (2 * eps)
        assert dl == pytest.approx(np.exp(d.Q(x)), rel=1e-7)
    assert sf.Lambda(1.0) == 0.0
    assert sf.kappa(1.0) == 0.0
    assert sf.mu_density(1.0) == pytest.approx(np.exp(-d.Q(1.0)))


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
