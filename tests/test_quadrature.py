"""Improper integrals with verdicts and growth-shape calls."""

import numpy as np
import pytest

from qsdlab import IntegralVerdict, classify_growth, integrate
from qsdlab.quadrature import positive_integrand


def test_convergent_exponential_tail():
    v = integrate(lambda x: np.exp(-x), 0.0, np.inf)
    assert v.status == "converges"
    assert v.value == pytest.approx(1.0, rel=1e-11)
    assert bool(v)


def test_convergent_heavy_tail():
    v = integrate(lambda x: 1.0 / (1.0 + x * x), 0.0, np.inf)
    assert v.status == "converges"
    assert v.value == pytest.approx(np.pi / 2.0, rel=1e-8)


def test_integrable_origin_singularity():
    v = integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0)
    assert v.status == "converges"
    assert v.value == pytest.approx(2.0, rel=1e-8)


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


def test_trail_records_each_decade_crossed():
    # [0, inf) is marched inward from 1, then outward on the same total;
    # each march records its partial at every decade mark it crosses and
    # ends with (where it stopped, its value)
    v = integrate(lambda x: np.exp(-x), 0.0, np.inf)
    head = [(z, p) for z, p in v.trail if z < 1.0]
    tail = [(z, p) for z, p in v.trail if z > 1.0]
    assert head + tail == list(v.trail)
    for k, (z, p) in enumerate(head[:-1], start=1):
        assert z == pytest.approx(10.0 ** -k, rel=1e-12)
        assert p == pytest.approx(np.exp(-z) - np.exp(-1.0), rel=1e-12)
    assert head[-1][1] == pytest.approx(1.0 - np.exp(-1.0), rel=1e-12)
    assert tail[0][0] == pytest.approx(10.0, rel=1e-12)
    assert tail[0][1] == pytest.approx(1.0 - np.exp(-10.0), rel=1e-12)
    assert v.trail[-1] == (tail[-1][0], v.value)


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


@pytest.mark.parametrize("f, growth", [
    pytest.param(lambda x: x ** 6.0, "power", id="x^6"),
    pytest.param(np.exp, "exp", id="exp(x)"),
    pytest.param(lambda x: np.exp(x * x), "exp", id="exp(x^2)"),
])
def test_overflow_reads_growth_from_the_slope(f, growth):
    # each overflows before 1e48; the slope of ln(f z) on the last two
    # finite panels is level for the power and grows for the exponentials
    v = integrate(f, 1.0, np.inf)
    assert v.status == "diverges" and v.growth_model == growth
    assert v.trail[-1][0] < 1e48


def test_non_finite_nodes_read_divergent():
    # a value the march reaches that is not finite is never stood in for:
    # +inf on (0.5, 1] is divergence, not the 1.0 of the finite nodes
    def f(x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0.5, np.inf, 1.0)
    v = integrate(f, 0.0, 1.0)
    assert v.status == "diverges" and v.growth_model == "exp"


def test_slow_power_tail_converges():
    # ln(f z) falls by 0.2 per unit ln z: the end rule closes the tail
    # past 1e48 as f z / 0.2
    v = integrate(lambda x: x ** -1.2, 1.0, np.inf)
    assert v.status == "converges"
    assert v.value == pytest.approx(5.0, rel=1e-12)


def test_wrong_shape_integrand_raises():
    # a flattened answer to the march's panel-by-node array is a caller
    # bug, not a quadrature failure to fall back from
    with pytest.raises(ValueError):
        integrate(lambda x: np.exp(-np.asarray(x)).ravel(), 0.0, 1.0)
    with pytest.raises(ValueError):
        integrate(lambda x: np.exp(-np.asarray(x)), -1.0, 1.0)


def test_verdict_truthiness():
    good = IntegralVerdict("converges", 1.0, (), "bounded")
    bad = IntegralVerdict("diverges", np.inf, (), "exp")
    maybe = IntegralVerdict("inconclusive", 1.0, (), None)
    assert bool(good) and not bool(bad) and not bool(maybe)
