"""Path ensembles: exact laws, determinism, honest error bars."""

import numpy as np
import pytest
from scipy.special import erf

from qsdlab import (DomainError, DriftField, PreconditionError, SimConfig,
                    condition_on_extinction, conditional_histogram,
                    drift_field, estimate_lambda1, ks_distance,
                    linear_growth, ou_drift, sample_yaglom,
                    simulate_qprocess, simulate_x, simulate_z, yaglom_cdf)


def _free_drift():
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return drift_field(zero, zero, origin_exponent=0.0, name="free")


def _wall_drift():
    # OU inside, q = inf past x = 10: a step from beyond the wall is not
    # finite
    def q(x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 10.0, np.inf, x)
    return DriftField(q=q, q_prime=None, Q=None, C=0.0, origin_exponent=None,
                      name="wall")


@pytest.mark.parametrize("engine, crn_substeps", [
    pytest.param("simulate_x", 1, id="simulate_x"),
    pytest.param("simulate_x", 2, id="simulate_x-crn2"),
    pytest.param("simulate_qprocess", 1, id="simulate_qprocess"),
])
def test_bitwise_determinism_and_block_independence(engine, crn_substeps,
                                                    request):
    if engine == "simulate_x":
        def run(cfg):
            return simulate_x(ou_drift(1.0), 1.0, cfg)
    else:
        sd = request.getfixturevalue("logistic_sd")

        def run(cfg):
            return simulate_qprocess(sd.drift, sd, 1.0, cfg)
    base = dict(dt=1e-3, t_max=0.5, n_paths=600, seed=3, record_dt=0.25,
                crn_substeps=crn_substeps)
    a = run(SimConfig(**base))
    b = run(SimConfig(**base))
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.T0, b.T0, equal_nan=True)
    # the per-path streams make the block partition irrelevant
    c = run(SimConfig(block_size=7, **base))
    assert np.array_equal(a.states, c.states)
    assert np.array_equal(a.T0, c.T0, equal_nan=True)
    # and the seed is load-bearing
    d = run(SimConfig(**{**base, "seed": 4}))
    assert not np.array_equal(a.states, d.states)


@pytest.mark.parametrize("wall_path, n_paths", [(0, 201), (2, 13)])
def test_non_finite_steps_do_not_depend_on_block_size(wall_path, n_paths):
    # one path starts beyond the wall, so its first step is not finite;
    # the steps and refills of the other paths must not notice
    x0 = np.full(n_paths, 1.5)
    x0[wall_path] = 10.5
    runs = [simulate_x(_wall_drift(), x0,
                       SimConfig(dt=1e-3, t_max=1.5, n_paths=n_paths, seed=3,
                                 block_size=bs)) for bs in (1, 4096)]
    assert np.array_equal(runs[0].T0, runs[1].T0)
    assert np.array_equal(runs[0].states, runs[1].states)
    assert runs[1].T0[wall_path] == 0.5e-3
    assert np.all(runs[1].states[wall_path, 1:] == 0.0)


def test_non_finite_step_absorbs_at_mid_step():
    b = simulate_x(_wall_drift(), 9.95,
                   SimConfig(dt=1e-3, t_max=0.5, n_paths=50, seed=3))
    steps = b.T0[np.isfinite(b.T0)] / 1e-3 - 0.5
    assert np.any(steps >= 1)
    assert np.allclose(steps, np.round(steps), rtol=0.0, atol=1e-6)


def test_driftless_survival_matches_reflection_law():
    # from x0=1 the survival at t is erf(x0 / sqrt(2 t))
    cfg = SimConfig(dt=1e-3, t_max=1.0, n_paths=20000, seed=5, record_dt=0.5)
    b = simulate_x(_free_drift(), 1.0, cfg)
    target = float(erf(1.0 / np.sqrt(2.0)))
    se = np.sqrt(target * (1.0 - target) / cfg.n_paths)
    assert abs(b.survival(1.0) - target) < 3.0 * se


def test_crossing_correction_only_adds_absorptions():
    cfg = SimConfig(dt=1e-3, t_max=1.0, n_paths=20000, seed=5, record_dt=0.5)
    with_fix = simulate_x(_free_drift(), 1.0, cfg)
    without = simulate_x(_free_drift(), 1.0,
                         SimConfig(dt=1e-3, t_max=1.0, n_paths=20000, seed=5,
                                   record_dt=0.5, bridge_correction=False))
    n_with = int(np.sum(np.isfinite(with_fix.T0)))
    n_without = int(np.sum(np.isfinite(without.T0)))
    assert n_with > n_without
    # between-step crossings the end-point test cannot see: sizable share
    assert (n_with - n_without) > 0.01 * n_without


def test_critical_population_extinction_law():
    # no growth: absorbed by t with probability exp(-2 z0 / (gamma t))
    cfg = SimConfig(dt=1e-3, t_max=1.0, n_paths=20000, seed=9, record_dt=0.5)
    b = simulate_z(linear_growth(0.0, 1.0), 0.5, cfg)
    target = 1.0 - np.exp(-2.0 * 0.5 / 1.0)
    se = np.sqrt(target * (1.0 - target) / cfg.n_paths)
    assert abs(b.survival(1.0) - target) < 3.0 * se


def test_population_start_at_zero_is_instantly_absorbed():
    cfg = SimConfig(dt=1e-3, t_max=0.5, n_paths=50, seed=1)
    b = simulate_z(linear_growth(0.0, 1.0), 0.0, cfg)
    assert np.all(b.T0 == 0.0)
    assert np.all(b.states == 0.0)


def test_decay_rate_estimator_with_honest_errors():
    cfg = SimConfig(dt=2.5e-4, t_max=4.0, n_paths=10000, seed=5,
                    record_dt=0.125)
    b = simulate_x(ou_drift(1.0), 1.0, cfg)
    est = estimate_lambda1(b, (2.0, 4.0))
    assert abs(est.rate - 1.0) < 3.0 * est.stderr
    assert est.r_squared > 0.99
    # a window past extinction is refused rather than extrapolated
    with pytest.raises(PreconditionError):
        estimate_lambda1(b, (3.9, 4.0) if b.n_alive(3.9) < 100 else (9, 10))


def test_common_randomness_across_step_sizes():
    # halving dt while halving the pooled draws rides the same Brownian
    # path: the survival difference is pure discretization, not noise
    base = dict(t_max=2.0, n_paths=4000, seed=13, record_dt=1.0)
    coarse = simulate_x(ou_drift(1.0), 1.0,
                        SimConfig(dt=2e-3, crn_substeps=2, **base))
    fine = simulate_x(ou_drift(1.0), 1.0,
                      SimConfig(dt=1e-3, crn_substeps=1, **base))
    s_c, s_f = coarse.survival(2.0), fine.survival(2.0)
    one_run_se = np.sqrt(s_c * (1.0 - s_c) / 4000)
    assert abs(s_c - s_f) < one_run_se


def test_conditional_histogram_and_ks():
    cfg = SimConfig(dt=1e-3, t_max=1.0, n_paths=5000, seed=21, record_dt=0.5)
    b = simulate_x(ou_drift(1.0), 1.0, cfg)
    edges = np.linspace(0.0, 4.0, 33)
    law = conditional_histogram(b, 1.0, edges)
    assert law.n_survivors > 100
    assert np.sum(law.masses) == pytest.approx(1.0, abs=1e-12)
    assert law.ecdf()[0] == 0.0 and law.ecdf()[-1] == pytest.approx(1.0)
    with pytest.raises(PreconditionError):
        conditional_histogram(b, 1.0, edges[::-1])


def test_yaglom_sampling_round_trip(logistic_ym):
    xs = sample_yaglom(logistic_ym, 40000, seed=2)
    assert np.all((xs >= logistic_ym.grid[0]) & (xs <= logistic_ym.grid[-1]))
    F = yaglom_cdf(logistic_ym)
    srt = np.sort(xs)
    n = len(srt)
    gaps = np.maximum(np.arange(1, n + 1) / n - F(srt),
                      F(srt) - np.arange(0, n) / n)
    assert float(np.max(gaps)) < 0.015  # ~2 sigma for this n


def test_conditioned_process_stays_alive(logistic_sd):
    cfg = SimConfig(dt=1e-3, t_max=1.0, n_paths=200, seed=6, record_dt=0.5)
    b = simulate_qprocess(logistic_sd.drift, logistic_sd, 1.0, cfg)
    assert np.all(np.isinf(b.T0))
    assert np.all(b.states > logistic_sd.grid[0] - 1e-12)
    assert np.all(b.states < logistic_sd.grid[-1] + 1e-12)
    with pytest.raises(PreconditionError):
        simulate_qprocess(logistic_sd.drift, logistic_sd, 100.0, cfg)
    with pytest.raises(DomainError):
        simulate_qprocess(logistic_sd.drift, logistic_sd, np.nan, cfg)


def test_extinction_conditioning_flips_linear_growth():
    cg = condition_on_extinction(linear_growth(1.0, 1.0))
    for z in (0.1, 1.0, 10.0):
        assert abs(cg.h(z) + z) <= 1e-10 * z
    assert 1e4 in cg.probe_points
    ratio = cg.drift_ratio[cg.probe_points.index(1e4)]
    assert ratio == pytest.approx(1.0, abs=1e-6)
    # a dying model has nothing to condition on
    with pytest.raises(PreconditionError):
        condition_on_extinction(linear_growth(-1.0, 1.0))


def test_sim_config_validation():
    with pytest.raises(PreconditionError):
        SimConfig(dt=0.0, t_max=1.0, n_paths=10, seed=0).validate()
    with pytest.raises(PreconditionError):
        SimConfig(dt=1e-3, t_max=1.0, n_paths=0, seed=0).validate()
    with pytest.raises(PreconditionError):
        SimConfig(dt=1e-3, t_max=1e-4, n_paths=10, seed=0).validate()
