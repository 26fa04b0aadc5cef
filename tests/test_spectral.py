"""Eigensolve, quasi-stationary profiles, kernels, and their audits."""

import numpy as np
import pytest

from qsdlab import (PreconditionError, TailDominatedError, TruncationDomain,
                    appendix_bound_sweep, build_and_solve, conditional_density,
                    conditional_law, default_domain, drift_from_growth,
                    eta1_mass_trail, flux_check, kernel_r, l2_bound_check,
                    linear_growth, logistic_growth, ou_drift, qprocess_row,
                    qprocess_stationary, rate_report, survival,
                    yaglom_measure, yaglom_to_z)

# low levels of the reference population model, frozen from a grid
# refinement study (n = 1024/2048/4096 agree to the digits shown)
LOGISTIC_LEVELS = [0.260975579, 1.831576625, 3.936693162,
                   6.542910627, 9.579245439, 12.999310778]


def test_logistic_levels_frozen(logistic_sd):
    got = logistic_sd.lambdas[:6]
    assert np.allclose(got, LOGISTIC_LEVELS, rtol=1e-6, atol=0)
    gap = logistic_sd.lambdas[1] - logistic_sd.lambdas[0]
    assert gap == pytest.approx(1.5706010451695243, rel=1e-9)
    assert np.all(np.diff(logistic_sd.lambdas) > 0)


def test_ou_levels_are_odd_integers(ou_sd):
    for k in range(4):
        assert abs(ou_sd.lambdas[k] - (2 * k + 1)) < 1e-3
    # the profile is normalized by the stored ground mass, to the last bit
    assert yaglom_measure(ou_sd).mass_norm == ou_sd.eta1_mass


def test_subcritical_linear_levels_are_integers():
    d = drift_from_growth(linear_growth(-1.0, 1.0))
    sd = build_and_solve(d, TruncationDomain(1e-3, 8.0, 4096, "sqrt"), K=4)
    assert np.allclose(sd.lambdas, [1.0, 2.0, 3.0, 4.0], atol=1e-4)


def test_mode_equation_residual(ou_sd):
    # -psi''/2 + w psi = lambda psi, checked by second differences
    x = ou_sd.grid
    h = x[1] - x[0]
    w = 0.5 * (x * x - 1.0)
    sel = (x > 0.5) & (x < 3.0)
    for k in (0, 1):
        psi = ou_sd.psis[:, k]
        lam = ou_sd.lambdas[k]
        d2 = (psi[2:] - 2 * psi[1:-1] + psi[:-2]) / (h * h)
        resid = -0.5 * d2 + (w[1:-1] - lam) * psi[1:-1]
        sup = np.max(np.abs(resid[sel[1:-1]]))
        assert sup < 1e-3 * np.max(np.abs(psi)), (k, sup)


def test_discrete_orthonormality(logistic_sd):
    sd = logistic_sd
    G = (sd.psis.T * sd.cell) @ sd.psis
    assert np.max(np.abs(G - np.eye(sd.K))) < 1e-8
    # same statement for the unweighted profiles in the killed measure
    G2 = (sd.etas.T * sd.mu_weights) @ sd.etas
    assert np.max(np.abs(G2 - np.eye(sd.K))) < 1e-8


def test_kernel_honesty_windows(logistic_sd):
    tm_full = logistic_sd.t_min()
    tm_8 = logistic_sd.t_min(8)
    assert tm_full == pytest.approx(0.12326183582466868, rel=1e-6)
    assert tm_8 == pytest.approx(1.1176961749254135, rel=1e-6)
    assert tm_8 > tm_full  # fewer modes are honest only later


def test_yaglom_profile_frozen(logistic_sd, logistic_ym):
    ym = logistic_ym
    assert ym.mass_norm == pytest.approx(1.3510841754029088, rel=1e-8)
    assert ym.mean() == pytest.approx(1.760761342981613, rel=1e-8)
    for p, want in ((0.1, 0.84930459), (0.5, 1.79717515), (0.9, 2.59683225)):
        assert ym.quantile(p) == pytest.approx(want, rel=1e-6)
    assert np.all(ym.density >= 0)
    assert np.sum(ym.density * ym.cell) == pytest.approx(1.0, rel=1e-12)
    assert ym.cdf[-1] == pytest.approx(1.0, abs=1e-12)


def test_population_scale_pushforward():
    d = drift_from_growth(linear_growth(-1.0, 1.0))
    sd = build_and_solve(d, TruncationDomain(1e-3, 8.0, 2048, "sqrt"), K=4)
    ymz = yaglom_to_z(yaglom_measure(sd), 1.0)
    assert np.sum(ymz.density * ymz.cell) == pytest.approx(1.0, rel=1e-3)
    sel = (ymz.grid > 0.1) & (ymz.grid < 2.0)
    target = 2.0 * np.exp(-2.0 * ymz.grid[sel])
    assert np.max(np.abs(ymz.density[sel] - target)) < 1e-2


def test_survival_from_quasistationary_start(logistic_sd, logistic_ym):
    lam1 = logistic_sd.lambda1
    s = survival(logistic_sd, 3.0, ("yaglom", logistic_ym))
    assert s == pytest.approx(np.exp(-3.0 * lam1), rel=1e-9)
    # a quasi-stationary start is exact even below the point-start window
    s_small = survival(logistic_sd, 0.01, ("yaglom", logistic_ym))
    assert s_small == pytest.approx(np.exp(-0.01 * lam1), rel=1e-9)


def test_survival_point_start_window(logistic_sd):
    with pytest.raises(TailDominatedError):
        survival(logistic_sd, 0.05, ("point", 1.0))
    s = survival(logistic_sd, np.array([0.5, 1.0, 2.0]), ("point", 1.0))
    assert np.all(np.diff(s) < 0)
    assert np.all((s > 0) & (s < 1))


def test_kernel_guard_and_symmetry(logistic_sd):
    with pytest.raises(TailDominatedError):
        kernel_r(logistic_sd, 0.05, [1.0], [1.0])
    pts = np.array([0.5, 1.0, 2.0, 3.0])
    M = kernel_r(logistic_sd, 1.0, pts, pts)
    assert np.array_equal(M, M.T)
    assert np.all(np.isfinite(M))


def test_two_step_composition(logistic_sd):
    sd = logistic_sd
    pts = np.array([0.5, 1.0, 2.0])
    direct = kernel_r(sd, 1.0, pts, pts)
    left = kernel_r(sd, 0.5, pts, sd.grid)
    right = kernel_r(sd, 0.5, sd.grid, pts)
    comp = (left * sd.mu_weights) @ right
    resid = np.max(np.abs(comp - direct)) / np.max(np.abs(direct))
    assert resid < 1e-10


def test_conditioned_rows_are_stochastic(logistic_sd):
    rows = np.vstack([qprocess_row(logistic_sd, 1.0, x0)[0]
                      for x0 in (0.5, 1.0, 2.0)])
    assert np.max(np.abs(rows.sum(axis=1) - 1.0)) < 1e-8
    assert np.all(rows > -1e-12)
    with pytest.raises(TailDominatedError):
        qprocess_row(logistic_sd, 0.05, 1.0)


@pytest.mark.parametrize("call", [
    lambda sd, K: kernel_r(sd, 1.0, [1.0], [1.0], K=K),
    lambda sd, K: conditional_density(sd, 1.0, 1.0, K=K),
    lambda sd, K: qprocess_row(sd, 1.0, 1.0, K=K),
], ids=["kernel_r", "conditional_density", "qprocess_row"])
@pytest.mark.parametrize("K", [0, 33])        # the fixture has 32 modes
def test_mode_count_out_of_range_is_refused(logistic_sd, call, K):
    assert logistic_sd.K == 32
    with pytest.raises(PreconditionError, match=f"K={K} not in 1..32"):
        call(logistic_sd, K)


def test_conditioned_stationary_dominates_yaglom(logistic_sd, logistic_ym):
    dens = qprocess_stationary(logistic_sd)
    assert np.sum(dens * logistic_sd.cell) == pytest.approx(1.0, rel=1e-12)
    cdf_q = np.cumsum(dens * logistic_sd.cell)
    # size-biased reweighting pushes mass to the right, node by node
    assert np.all(cdf_q <= logistic_ym.cdf + 1e-9)


def test_ground_mass_trail_saturates(logistic_sd):
    cuts, partials = eta1_mass_trail(logistic_sd)
    assert len(cuts) >= 4
    # increments collapse by orders of magnitude toward the wall
    last = abs(partials[-1] - partials[-2])
    prev = abs(partials[-2] - partials[-3])
    assert last < 0.01 * prev


def test_conditional_objects_normalize(logistic_sd):
    cd = conditional_density(logistic_sd, 1.0, 1.0)
    assert np.sum(cd.density * logistic_sd.cell) == pytest.approx(1.0,
                                                                  rel=1e-9)
    assert np.all(cd.density > -1e-12)
    val = conditional_law(logistic_sd, ("point", 1.0), 1.0, (0.0, 1.0))
    assert 0.0 <= val <= 1.0


def test_rate_report_matches_gap(logistic_sd):
    rep = rate_report(logistic_sd, 1.0, (0.0, 1.0))
    assert rep.gap == pytest.approx(
        logistic_sd.lambdas[1] - logistic_sd.lambdas[0], rel=1e-12)
    assert abs(-rep.slope / rep.gap - 1.0) < 0.05
    assert 0.0 < rep.limit_value < 1.0


def test_flux_audit(logistic_sd):
    rep = flux_check(logistic_sd)
    assert rep.rel_discrepancy < 0.01
    assert rep.flux_decreasing
    assert rep.eta1_nondecreasing
    assert rep.F0 > rep.Finf


def test_kernel_bounds_unit(logistic_sd):
    sweep = appendix_bound_sweep(logistic_sd, xs=[1.0, 2.0], t=1.0)
    assert sweep.n_violations == 0 and sweep.max_ratio <= 1 + 1e-9
    rep = l2_bound_check(logistic_sd)
    assert rep.n_violations == 0
    assert rep.max_ratio < 1.0


def test_square_sum_envelope_matches_probe_by_probe_loop(logistic_sd):
    sd, xs, ts = logistic_sd, (0.3, 1, 2.5), (0.2, 0.5, 1.0)
    C = max(sd.drift.C, 0.0)
    ratios, lines = [], []
    for t in ts:
        for x in xs:
            i = sd.node_index(float(x))
            val = float(np.sum(np.exp(-2.0 * sd.lambdas * t)
                               * sd.etas[i, :] ** 2))
            bound = float(np.exp(C * t + float(sd.Qgrid[i]))
                          / np.sqrt(2.0 * np.pi * t))
            ratios.append(val / bound)
            lines.append(f"(x={x:g}, t={t:g}): {val / bound:.3e}")
    rep = l2_bound_check(sd, xs=xs, ts=ts)
    assert rep.max_ratio == max(ratios)
    assert rep.n_violations == sum(r > 1.0 + 1e-9 for r in ratios)
    assert rep.detail == "; ".join(lines)


def test_domain_stability_of_ground_level(logistic_sd):
    lam1 = logistic_sd.lambda1
    d = logistic_sd.drift
    # wall twice closer to the origin: level moves below a micro-shift
    sd_lo = build_and_solve(d, TruncationDomain(5e-4, 6.0, 4096, "sqrt"), K=4)
    assert abs(sd_lo.lambda1 - lam1) < 1e-6
    # box pushed out: confinement already dwarfs the low modes
    sd_hi = build_and_solve(d, TruncationDomain(1e-3, 8.0, 4096, "sqrt"), K=4)
    assert abs(sd_hi.lambda1 - lam1) < 1e-6
    # dyadic refinement converges monotonically in gap size
    lam = {n: build_and_solve(d, TruncationDomain(1e-3, 6.0, n, "sqrt"),
                              K=4).lambda1 for n in (1024, 2048)}
    assert abs(lam[2048] - lam1) < abs(lam[1024] - lam[2048])


def test_default_domain_heuristics():
    dom_ou = default_domain(ou_drift(1.0))
    assert dom_ou.grid_kind == "uniform"
    assert dom_ou.x_max >= 4.0
    d = drift_from_growth(logistic_growth(1.0, 1.0, 1.0))
    dom_l = default_domain(d)
    assert dom_l.grid_kind == "sqrt"
    g = dom_l.full_grid()
    assert g[0] == pytest.approx(dom_l.x_min, rel=1e-12)
    assert g[-1] == pytest.approx(dom_l.x_max, rel=1e-12)
    assert g[1] - g[0] < g[-1] - g[-2]  # compressed toward the origin


def test_build_guards():
    d = ou_drift(1.0)
    dom = TruncationDomain(1e-3, 8.0, 128, "uniform")
    with pytest.raises(PreconditionError):
        build_and_solve(d, dom, K=64)   # more modes than n/4
    with pytest.raises(PreconditionError):
        build_and_solve(d, dom, K=0)
    with pytest.raises(PreconditionError):
        TruncationDomain(2.0, 8.0, 128, "uniform").validate()
    with pytest.raises(PreconditionError):
        TruncationDomain(1e-3, 8.0, 128, "exotic").validate()
