"""Eigensolve, quasi-stationary profiles, kernels, and their audits."""

import os

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from qsdlab import spectral
from qsdlab import (PreconditionError, TailDominatedError, TruncationDomain,
                    appendix_bound_sweep, build_and_solve, conditional_density,
                    conditional_law, default_domain, drift_from_growth,
                    eta1_mass_trail, flux_check, kernel_r, l2_bound_check,
                    linear_growth, logistic_growth, ou_drift, qprocess_row,
                    preset_model, qprocess_stationary, rate_report,
                    survival, yaglom_measure, yaglom_to_z)
from qsdlab.errors import TruncationError
from qsdlab.config import load_config
from qsdlab.model import potential

# low levels of the reference population model, frozen from a grid
# refinement study (n = 1024/2048/4096 agree to the digits shown)
LOGISTIC_LEVELS = [0.260975579, 1.831576625, 3.936693162,
                   6.542910627, 9.579245439, 12.999310778]


def test_logistic_levels_frozen(logistic_sd):
    got = logistic_sd.lambdas[:6]
    assert np.allclose(got, LOGISTIC_LEVELS, rtol=1e-6, atol=0)
    gap = logistic_sd.lambdas[1] - logistic_sd.lambdas[0]
    assert gap == pytest.approx(1.570601162522507, rel=1e-9)
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


@pytest.mark.parametrize("sd_name", ["logistic_sd", "ou_sd"])
def test_diagonal_kernel_forms_eta_once_and_is_unchanged(sd_name, request,
                                                         monkeypatch):
    # a diagonal query reads one set of eta rows for both sides; the result
    # is bitwise the sum over rows formed separately for x and y
    sd = request.getfixturevalue(sd_name)
    calls = []
    real = spectral._eta_rows

    def counted(sd, rows):
        calls.append(rows)
        return real(sd, rows)
    for xs, t, K in ((sd.grid, 1.0, None),
                     (np.array([0.5, 1.0, 2.0, 3.0]), 4.0, 4)):
        ix = sd.node_index(xs)
        out = spectral._spectral_sum(sd, t, real(sd, ix), real(sd, ix).T, K)
        was = 0.5 * (out + out.T)
        monkeypatch.setattr(spectral, "_eta_rows", counted)
        calls.clear()
        got = kernel_r(sd, t, xs, xs, K=K)
        monkeypatch.setattr(spectral, "_eta_rows", real)
        assert len(calls) == 1
        assert np.array_equal(got.view(np.uint64), was.view(np.uint64))


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


# every caller of the mode sum, as call(sd, K, t); K reaches the callers
# that take one, and the others sum every level
_MODE_SUM_CALLERS = {
    "kernel_r": lambda sd, K, t: kernel_r(sd, t, [1.0], [1.0], K=K),
    "conditional_density":
        lambda sd, K, t: conditional_density(sd, t, 1.0, K=K),
    "qprocess_row": lambda sd, K, t: qprocess_row(sd, t, 1.0, K=K),
    "survival": lambda sd, K, t: survival(sd, t, ("point", 1.0)),
    "conditional_law":
        lambda sd, K, t: conditional_law(sd, ("point", 1.0), t, (0.0, 1.0)),
    "appendix_bound_sweep":
        lambda sd, K, t: appendix_bound_sweep(sd, xs=[1.0], t=t),
    # its square sum at t is r(2t, x, x): refused where 2t < t_min
    "l2_bound_check": lambda sd, K, t: l2_bound_check(sd, ts=(t / 2,)),
}


@pytest.mark.parametrize("K, name", [
    (K, name) for K in (0, 33)                # the fixture has 32 modes
    for name in ("kernel_r", "conditional_density", "qprocess_row")
] + [(None, name) for name in _MODE_SUM_CALLERS])
def test_mode_count_out_of_range_is_refused(logistic_sd, K, name):
    # the mode sum's refusals reach every caller: a level count outside
    # 1..32 and, with K None, a time below t_min (0.123)
    assert logistic_sd.K == 32
    call = _MODE_SUM_CALLERS[name]
    if K is None:
        with pytest.raises(TailDominatedError):
            call(logistic_sd, None, 0.1)
    else:
        with pytest.raises(PreconditionError, match=f"K={K} not in 1..32"):
            call(logistic_sd, K, 1.0)


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


@pytest.mark.parametrize("sd_name, interval", [
    ("logistic_sd", (0.0, 1.0)), ("logistic_sd", (0.5, 3.0)),
    ("ou_sd", (0.0, 1.0))])
def test_rate_report_diffs_are_conditional_law_less_limit(sd_name, interval,
                                                          request):
    # the report projects the interval once; its differences are what
    # conditional_law, which projects it again, gives, bit for bit
    sd = request.getfixturevalue(sd_name)
    ts = np.linspace(1.0, 4.0, 25)
    rep = rate_report(sd, 1.0, interval, ts)
    want = conditional_law(sd, ("point", 1.0), ts, interval) - rep.limit_value
    assert np.array_equal(rep.diffs.view(np.uint64), want.view(np.uint64))


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
    for horizon in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(PreconditionError, match="horizon"):
            build_and_solve(d, dom, K=4, horizon=horizon)
    with pytest.raises(PreconditionError):
        TruncationDomain(2.0, 8.0, 128, "uniform").validate()
    with pytest.raises(PreconditionError):
        TruncationDomain(1e-3, 8.0, 128, "exotic").validate()


def _norm1(drift, domain):
    """||T||_1 of the symmetrized operator build_and_solve assembles."""
    xf = domain.full_grid()
    h = np.diff(xf)
    dcell = 0.5 * (h[:-1] + h[1:])
    diag = (1.0 / h[:-1] + 1.0 / h[1:]) / (2.0 * dcell) \
        + potential(drift)(xf[1:-1])
    off = 1.0 / (2.0 * h[1:-1] * np.sqrt(dcell[:-1] * dcell[1:]))
    return float(np.max(np.abs(diag) + np.pad(off, 1)[:-1]
                        + np.pad(off, 1)[1:]))


@pytest.mark.parametrize("model", ["logistic", "ou", "linear", "allee"])
def test_ground_pair_solve_matches_the_capped_solve(model):
    # yaglom, compare and qprocess solve the ground pair alone; the two
    # solves bisect and polish the ground level apart
    cfg = load_config(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "examples", model + ".cfg"))
    full = build_and_solve(cfg.model.drift, cfg.domain, K=cfg.K)
    ground = build_and_solve(cfg.model.drift, cfg.domain, K=1)
    assert ground.K == 1
    tol = np.finfo(float).eps * _norm1(cfg.model.drift, cfg.domain)
    assert abs(ground.lambda1 - full.lambda1) <= tol
    gap = ground.psis[:, 0] - full.psis[:, 0]
    assert np.sqrt(np.sum(gap * gap * full.cell)) < 1e-10


@pytest.mark.parametrize("model", ["logistic", "ou", "linear", "allee"])
def test_eta_on_demand_is_the_eager_eta(model):
    # eta is formed where it is read, from the formula build_and_solve
    # once applied to every node: rows read alone equal the rows of the
    # whole table, and the table equals that eager formula, bit for bit
    cfg = load_config(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "examples", model + ".cfg"))
    sd = build_and_solve(cfg.model.drift, cfg.domain, K=cfg.K)
    assert "etas" not in vars(sd)             # nothing formed by the solve
    amp = np.abs(sd.psis)
    with np.errstate(divide="ignore"):
        eager = np.sign(sd.psis) * np.exp(0.5 * sd.Qgrid[:, None]
                                          + np.log(amp))
    eager[amp < spectral._PSI_FLOOR] = 0.0
    etas = sd.etas
    assert etas is sd.etas                    # formed once, then kept
    assert np.array_equal(etas, eager)
    idx = sd.node_index(np.array([0.5, 1.0, 2.0]))
    assert np.array_equal(spectral._eta_rows(sd, idx), etas[idx])
    assert np.array_equal(spectral._eta_rows(sd, int(idx[1])),
                          etas[idx[1]])
    assert np.array_equal(spectral._eta_rows(sd, slice(7, 900)),
                          etas[7:900])


# the four grids of the benchmark's analysis workload: (model, box, K)
_ANALYSIS_GRIDS = {
    "logistic": (("logistic", {"r": 1.0, "c": 1.0, "gamma": 1.0}),
                 TruncationDomain(1e-3, 6.0, 4096, "sqrt"), 32),
    "ou": (("ou", {"theta": 1.0}),
           TruncationDomain(1e-4, 8.0, 4096, "uniform"), 16),
    "linear": (("linear", {"r": -1.0, "gamma": 1.0}),
               TruncationDomain(1e-3, 8.0, 4096, "sqrt"), 32),
    "allee": (("allee", {"r": 1.0, "K0": 1.0, "K": 4.0, "gamma": 1.0}),
              None, 16),
}
_TINY_TOL = 2 * np.finfo(float).tiny


def _bisected_to_tiny(sd, K):
    """The lowest K levels of sd's operator, bisected to 2 * tiny."""
    return eigh_tridiagonal(*sd.operator, eigvals_only=True, select="i",
                            select_range=(0, K - 1), tol=_TINY_TOL)


@pytest.mark.parametrize("model", list(_ANALYSIS_GRIDS))
def test_levels_match_tiny_tolerance_bisection(model):
    # the Ritz levels are accurate to the square of their residuals, not to
    # the bisection width: every solve of one operator, by count, for the
    # ground pair or by horizon, reads the same levels to 1e-10
    (preset, params), box, K = _ANALYSIS_GRIDS[model]
    kind = "drift" if preset == "ou" else "growth"
    drift = preset_model(preset, kind, params).drift
    box = box or default_domain(drift, n=4096)
    sd = build_and_solve(drift, box, K=K)
    ref = _bisected_to_tiny(sd, K)
    assert np.max(np.abs(sd.lambdas - ref)) <= 1e-10
    assert abs(build_and_solve(drift, box, K=1).lambda1 - ref[0]) <= 1e-10
    horizon = build_and_solve(drift, box, K=K, horizon=1.5)
    assert 2 <= horizon.K <= K
    assert np.max(np.abs(horizon.lambdas - ref[:horizon.K])) <= 1e-10
    assert abs(horizon.lambda_cap - ref[-1]) <= 1e-10
    assert sd.eigen_residual < 1e-8 and sd.orthonormality_defect < 1e-12


def _joined_blocks(m=12, join=1e-6):
    """Two copies of one tridiagonal block joined by a tiny off-diagonal:
    each level of the block splits into a pair about join apart."""
    diag = np.full(2 * m, 2.5)
    off = np.concatenate([-np.ones(m - 1), [join], -np.ones(m - 1)])
    return diag, off


def test_close_pairs_come_apart_in_the_ritz_step(monkeypatch):
    diag, off = _joined_blocks()
    ref = eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                           select_range=(0, 7), tol=_TINY_TOL)
    assert np.all(np.diff(ref)[::2] < spectral.BISECTION_WIDTH)
    modes = spectral.tridiagonal_modes(diag, off, "hint", count=8)
    assert np.max(np.abs(modes.levels - ref)) <= 1e-10
    V = modes.vectors
    assert np.max(np.abs(V.T @ V - np.eye(8))) <= 1e-12
    assert modes.defect <= 1e-12

    dstein = spectral.dstein

    def unconverged(*args):
        return dstein(*args)[0], 1

    # a vector that inverse iteration leaves unconverged is refused: no
    # fallback solver
    monkeypatch.setattr(spectral, "dstein", unconverged)
    with pytest.raises(TruncationError, match="inverse iteration left 1"):
        spectral.tridiagonal_modes(diag, off, "hint", count=8)
