"""Improper integrals with verdicts and growth-shape calls."""

import numpy as np
import pytest

from qsdlab import IntegralVerdict, QuadratureSpec, classify_growth, integrate
from qsdlab.quadrature import _finite_panel, positive_integrand


def test_convergent_exponential_tail():
    v = integrate(lambda x: np.exp(-x), 0.0, np.inf)
    assert v.status == "converges"
    assert v.value == pytest.approx(1.0, rel=1e-9)
    assert bool(v)


def test_convergent_heavy_tail():
    v = integrate(lambda x: 1.0 / (1.0 + x * x), 0.0, np.inf)
    assert v.status == "converges"
    assert v.value == pytest.approx(np.pi / 2.0, rel=1e-8)


def test_integrable_origin_singularity():
    v = integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0)
    assert v.status == "converges"
    assert v.value == pytest.approx(2.0, rel=1e-8)


def test_gaussian_both_tails():
    v = integrate(lambda x: np.exp(-x * x), -np.inf, np.inf)
    assert v.status == "converges"
    assert v.value == pytest.approx(np.sqrt(np.pi), rel=1e-8)


def test_logarithmic_divergence_is_flagged():
    v = integrate(lambda x: 1.0 / x, 1.0, np.inf)
    assert v.status == "diverges"
    assert v.growth_model == "log"
    assert not bool(v)


def test_power_divergence_is_flagged():
    v = integrate(lambda x: np.ones_like(np.asarray(x, dtype=float)),
                  1.0, np.inf)
    assert v.status == "diverges"
    assert v.growth_model in ("power", "exp")


def test_exponential_divergence_is_flagged():
    v = integrate(lambda x: np.exp(x), 1.0, np.inf)
    assert v.status == "diverges"
    assert v.growth_model == "exp"


def test_divergence_at_origin():
    v = integrate(lambda x: 1.0 / (x * x), 0.0, 1.0)
    assert v.status == "diverges"


def test_trail_records_the_cutoff_ladder():
    v = integrate(lambda x: np.exp(-x), 0.0, np.inf)
    assert len(v.trail) >= 4
    assert all(np.isfinite(c) and np.isfinite(p) for c, p in v.trail)
    # head panel plus the saturated tail ladder reassemble the value
    assert v.trail[0][1] + v.trail[-1][1] == pytest.approx(v.value, rel=1e-6)


def test_classify_growth_edge_cases():
    # built for decade ladders: increments ~const -> log, ~cutoff -> power
    cuts = [10.0 ** k for k in range(8)]
    status, growth = classify_growth(cuts, [1.0] * 8)
    assert status == "converges"
    # non-finite partials are an immediate blow-up
    status, growth = classify_growth(cuts, [1.0] * 7 + [np.inf])
    assert status == "diverges" and growth == "exp"
    # too few points to call
    status, _ = classify_growth([1.0, 2.0], [1.0, 2.0])
    assert status == "inconclusive"
    # log growth: partials ~ log(cutoff)
    status, growth = classify_growth(cuts, list(np.log(np.asarray(cuts) + 1.0)))
    assert status == "diverges" and growth == "log"
    # power growth: partials ~ cutoff
    status, growth = classify_growth(cuts, list(np.asarray(cuts, dtype=float)))
    assert status == "diverges" and growth == "power"


def test_positive_integrand_maps_nan_to_inf():
    f = positive_integrand(lambda x: np.full_like(np.asarray(x, float), np.nan))
    out = f(np.array([1.0, 2.0]))
    assert np.all(np.isposinf(out))


def test_panel_with_non_finite_nodes_reads_infinite():
    # exp(1e3/x) overflows at every node of [0.5, 1], so tanhsinh has no
    # finite value to stand in and returns NaN; the panel reports +inf,
    # not converged, and is not solved again another way
    f = positive_integrand(lambda x: np.exp(1e3 / np.asarray(x, dtype=float)))
    assert _finite_panel(f, 0.5, 1.0, QuadratureSpec()) == \
        (np.inf, np.inf, False)


def test_spec_tolerances_respected():
    spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-15)
    v = integrate(lambda x: np.exp(-x), 0.0, np.inf, spec=spec)
    assert v.value == pytest.approx(1.0, rel=1e-11)


def test_wrong_shape_integrand_raises():
    # a shape (1,) answer to a scalar node is a caller bug, not a
    # quadrature failure to fall back from
    with pytest.raises(ValueError):
        integrate(lambda x: np.atleast_1d(np.exp(-np.asarray(x))), 0.0, 1.0)


def test_verdict_truthiness():
    good = IntegralVerdict("converges", 1.0, (), "bounded")
    bad = IntegralVerdict("diverges", np.inf, (), "exp")
    maybe = IntegralVerdict("inconclusive", 1.0, (), None)
    assert bool(good) and not bool(bad) and not bool(maybe)
