"""Full-scale acceptance gate.

Twelve go/no-go checks: closed-form oracles, self-consistency
identities, and simulation cross-validations, each with a wall-clock
ceiling.  Every test builds what it measures inside its own timer, so
a pass certifies both the numbers and the cost of producing them.
"""

import time

import numpy as np

from qsdlab.birthdeath import preset_chain, s_criterion, scaling_limit_check
from qsdlab.hypotheses import check_all
from qsdlab.model import linear_growth, preset_model
from qsdlab.montecarlo import (SimConfig, condition_on_extinction,
                               estimate_lambda1, simulate_qprocess,
                               simulate_x, survival_grid, yaglom_cdf)
from qsdlab.spectral import (TruncationDomain, appendix_bound_sweep,
                             build_and_solve, flux_check, kernel_r,
                             l2_bound_check, qprocess_row,
                             qprocess_stationary, rate_report, survival,
                             yaglom_measure, yaglom_to_z)

OU_DOMAIN = TruncationDomain(x_min=1e-4, x_max=8.0, n=4096,
                             grid_kind="uniform")
LOGISTIC_DOMAIN = TruncationDomain(x_min=1e-3, x_max=6.0, n=4096,
                                   grid_kind="sqrt")
LINEAR_DOMAIN = TruncationDomain(x_min=1e-3, x_max=8.0, n=4096,
                                 grid_kind="sqrt")


def _ou_model():
    return preset_model("ou", "drift", {"theta": 1.0})


def _logistic_model():
    return preset_model("logistic", "growth",
                        {"r": 1.0, "c": 1.0, "gamma": 1.0})


def _ks_sample(sample, cdf):
    """Two-sided sup distance between a sample's ecdf and a cdf callable."""
    s = np.sort(np.asarray(sample, dtype=float))
    n = len(s)
    F = np.asarray(cdf(s), dtype=float)
    up = np.max(np.arange(1, n + 1) / n - F)
    dn = np.max(F - np.arange(0, n) / n)
    return float(max(up, dn))


def _grid_cdf(sd, density):
    """Interpolating cdf of a density given on the decomposition grid."""
    cum = np.concatenate([[0.0], np.cumsum(density * sd.cell)])
    cum /= cum[-1]
    knots = np.concatenate([[sd.domain.x_min], sd.grid])

    def F(v):
        return np.interp(v, knots, cum)

    return F


def test_c01_ou_levels_and_ground_profile():
    # linear restoring drift: levels 1 and 3, ground mode ~ x, profile
    # density 2 x exp(-x^2)
    t0 = time.perf_counter()
    sd = build_and_solve(_ou_model().drift, OU_DOMAIN, K=8)
    assert abs(float(sd.lambdas[0]) - 1.0) < 1e-3
    assert abs(float(sd.lambdas[1]) - 3.0) < 1e-3

    eta1 = sd.etas[:, 0]
    w = sd.mu_weights
    a = float(np.sum(eta1 * sd.grid * w) / np.sum(sd.grid ** 2 * w))
    num = float(np.sum((eta1 - a * sd.grid) ** 2 * w))
    den = float(np.sum((a * sd.grid) ** 2 * w))
    assert np.sqrt(num / den) < 1e-3

    ym = yaglom_measure(sd)
    win = (sd.grid >= 0.05) & (sd.grid <= 3.0)
    exact = 2.0 * sd.grid[win] * np.exp(-sd.grid[win] ** 2)
    assert float(np.max(np.abs(ym.density[win] - exact))) < 1e-3
    assert time.perf_counter() - t0 < 10.0


def test_c02_subcritical_feller_exponential_profile():
    # pure decline h(z) = -z at gamma = 1: decay rate 1, population-scale
    # profile Exponential(2)
    t0 = time.perf_counter()
    model = preset_model("linear", "growth", {"r": -1.0, "gamma": 1.0})
    sd = build_and_solve(model.drift, LINEAR_DOMAIN, K=8)
    assert abs(float(sd.lambdas[0]) - 1.0) < 1e-3

    ymz = yaglom_to_z(yaglom_measure(sd), gamma=1.0)
    win = (ymz.grid >= 0.05) & (ymz.grid <= 3.0)
    exact = 2.0 * np.exp(-2.0 * ymz.grid[win])
    assert float(np.max(np.abs(ymz.density[win] - exact))) < 1e-2
    assert time.perf_counter() - t0 < 10.0


def test_c03_quasi_stationary_survival_fixed_point():
    # started from its own profile, survival decays exactly exponentially
    t0 = time.perf_counter()
    sd = build_and_solve(_logistic_model().drift, LOGISTIC_DOMAIN, K=32)
    ym = yaglom_measure(sd)
    for t in (0.5, 1.0, 2.0, 5.0):
        s = survival(sd, t, ("yaglom", ym))
        exact = np.exp(-sd.lambda1 * t)
        assert abs(s - exact) <= 1e-6 * exact, t
    assert time.perf_counter() - t0 < 5.0


def test_c04_orthonormality_and_kernel_consistency():
    t0 = time.perf_counter()
    model = _logistic_model()
    sd8 = build_and_solve(model.drift, LOGISTIC_DOMAIN, K=8)
    gram = (sd8.etas.T * sd8.mu_weights) @ sd8.etas
    off = gram - np.diag(np.diag(gram))
    assert float(np.max(np.abs(off))) < 1e-8

    sd = build_and_solve(model.drift, LOGISTIC_DOMAIN, K=32)
    probes = [0.5, 1.0, 2.0]
    for s, u in ((0.5, 0.5), (1.0, 1.0)):
        direct = kernel_r(sd, s + u, probes, probes)
        left = kernel_r(sd, s, probes, sd.grid)
        right = kernel_r(sd, u, sd.grid, probes)
        comp = (left * sd.mu_weights) @ right
        resid = np.max(np.abs(comp - direct)) / np.max(np.abs(direct))
        assert float(resid) < 1e-6, (s, u)

    R = kernel_r(sd, 1.0, sd.grid, sd.grid)
    assert np.array_equal(R, R.T)
    assert time.perf_counter() - t0 < 10.0


def test_c05_convergence_rate_and_prefactor():
    # conditioned interval mass approaches its limit at the gap rate with
    # the two-mode prefactor
    t0 = time.perf_counter()
    sd = build_and_solve(_logistic_model().drift, LOGISTIC_DOMAIN, K=32)
    rr = rate_report(sd, 1.0, (0.0, 1.0), ts=np.linspace(1.0, 4.0, 25))
    assert abs(rr.slope + rr.gap) / rr.gap < 0.05
    assert abs(np.exp(rr.intercept) / abs(rr.coefficient) - 1.0) < 0.10
    assert time.perf_counter() - t0 < 30.0


def test_c06_qprocess_rows_law_and_domination():
    t0 = time.perf_counter()
    model = _logistic_model()
    sd = build_and_solve(model.drift, LOGISTIC_DOMAIN, K=32)
    for x0 in (0.5, 1.0, 2.0):
        _, row_sum = qprocess_row(sd, 1.0, x0)
        assert abs(row_sum - 1.0) < 1e-6, x0

    sim = SimConfig(dt=1e-3, t_max=10.0, n_paths=20000, seed=21)
    batch = simulate_qprocess(model.drift, sd, 1.0, sim)
    sample = batch.states
    assert np.all(np.isinf(batch.T0))

    stat = _grid_cdf(sd, qprocess_stationary(sd))
    assert _ks_sample(sample, stat) < 0.05

    # the conditioned law sits to the right of the quasi-stationary one
    ym = yaglom_measure(sd)
    n = len(sample)
    for p in np.arange(0.1, 0.95, 0.1):
        qp = ym.quantile(p)
        emp = float(np.mean(sample <= qp))
        se = np.sqrt(p * (1.0 - p) / n)
        assert emp <= p + 3.0 * se, p
    assert time.perf_counter() - t0 < 120.0


def test_c07_monte_carlo_cross_validation():
    t0 = time.perf_counter()
    model = _logistic_model()
    sd = build_and_solve(model.drift, LOGISTIC_DOMAIN, K=32)
    ym = yaglom_measure(sd)

    sim = SimConfig(dt=1e-3, t_max=6.0, n_paths=100000, seed=42)
    batch = simulate_x(model.drift, 1.0, sim)
    alive = np.isinf(batch.T0)
    assert int(np.count_nonzero(alive)) > 1000
    sample = batch.states[alive]
    assert _ks_sample(sample, yaglom_cdf(ym)) < 0.05

    est = estimate_lambda1(batch, (2.0, 6.0), survival_grid(sim))
    assert abs(est.rate - sd.lambda1) / sd.lambda1 < 0.05
    assert time.perf_counter() - t0 < 300.0


def test_c08_hypothesis_engine_matrix():
    t0 = time.perf_counter()
    logi = check_all(_logistic_model())
    assert all(logi.checks[n].verdict == "holds"
               for n in ("h1", "h2", "h3", "h4", "h5", "hh"))

    ou = check_all(_ou_model())
    assert ou.checks["h5"].verdict == "fails"

    flat = check_all(preset_model("custom", "growth",
                                  {"expression": "0*z", "gamma": 1.0}))
    assert flat.checks["hh"].verdict == "fails"

    # both return-time formulations must reach the same conclusion
    for rep in (logi, ou, flat):
        assert "agreement=yes" in rep.checks["h5"].detail, rep.label
    assert time.perf_counter() - t0 < 30.0


def test_c09_flux_identity_and_monotonicity():
    t0 = time.perf_counter()
    for model, domain in ((_ou_model(), OU_DOMAIN),
                          (_logistic_model(), LOGISTIC_DOMAIN)):
        sd = build_and_solve(model.drift, domain, K=16)
        fr = flux_check(sd)
        assert fr.rel_discrepancy < 0.01, model.label
        assert fr.flux_decreasing, model.label
        assert fr.eta1_nondecreasing, model.label
    assert time.perf_counter() - t0 < 5.0


def test_c10_kernel_bounds():
    t0 = time.perf_counter()
    xs = np.linspace(0.1, 5.0, 50)
    for model, domain, K in ((_ou_model(), OU_DOMAIN, 16),
                             (_logistic_model(), LOGISTIC_DOMAIN, 32)):
        sd = build_and_solve(model.drift, domain, K=K)
        sweep = appendix_bound_sweep(sd, xs=xs, t=1.0)
        assert sweep.n_violations == 0, (model.label, sweep.detail)
        assert sweep.max_ratio <= 1.0 + 1e-6, model.label
        l2 = l2_bound_check(sd, xs=(0.5, 1.0, 2.0), ts=(0.5, 1.0))
        assert l2.n_violations == 0, (model.label, l2.detail)
    assert time.perf_counter() - t0 < 30.0


def test_c11_lattice_prelimit_and_series_criterion():
    t0 = time.perf_counter()
    sr = scaling_limit_check(
        "logistic_branching",
        {"lam": 1.0, "mu": 1.0, "c": 1.0, "gamma": 1.0},
        [10, 30, 100], z0=1.0, t=1.0)
    ks = [k for _, k, _ in sr.rows]
    assert ks[0] > ks[1] > ks[2], ks
    assert ks[2] < 0.1, ks

    lin = s_criterion(preset_chain("linear", {"lam": 1.0, "mu": 2.0}), 10000)
    assert lin.verdict["iv"] == "fails"       # the series diverges
    logi = s_criterion(preset_chain("logistic",
                                    {"lam": 1.0, "mu": 1.0, "c": 1.0}),
                       10000)
    assert logi.verdict["iv"] == "holds"      # the series converges
    assert lin.agreement_iii_iv and logi.agreement_iii_iv
    assert time.perf_counter() - t0 < 300.0


def test_c12_extinction_conditioned_drift():
    # conditioning h(z) = z on dying out flips the drift sign exactly
    t0 = time.perf_counter()
    cond = condition_on_extinction(linear_growth(1.0, 1.0))
    for z in (0.1, 1.0, 10.0):
        assert abs(cond.h(z) + z) <= 1e-6 * z, z
    assert cond.probe_points[-1] == 1e4
    assert abs(cond.drift_ratio[-1] - 1.0) < 0.02
    assert time.perf_counter() - t0 < 10.0
