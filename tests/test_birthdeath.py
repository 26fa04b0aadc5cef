"""Lattice populations: exact simulation, diffusion limits, summability."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.sparse import diags
from scipy.sparse.linalg import expm_multiply

from qsdlab import (BDModel, DomainError, PreconditionError, TruncationError,
                    deterministic_limit_check, gillespie, lattice_law,
                    preset_chain, preset_family, s_criterion,
                    scaling_limit_check)
from qsdlab.birthdeath import _gillespie_batch


@pytest.fixture(scope="module")
def linear_chain_report():
    return s_criterion(preset_chain("linear", {"lam": 1.0, "mu": 2.0}), 10000)


@pytest.fixture(scope="module")
def logistic_chain_report():
    return s_criterion(preset_chain("logistic",
                                    {"lam": 1.0, "mu": 1.0, "c": 1.0}), 10000)


def test_stationary_weights_match_direct_products(linear_chain_report):
    rep = linear_chain_report
    # lam_n = n, mu_n = 2n: pi_5 = (1/2)^5 / 5 = 0.00625 exactly
    assert abs(np.exp(rep.log_pi[4]) - 0.00625) < 1e-15
    pi_direct, p = [], 1.0
    for n in range(1, 21):
        p = 0.5 if n == 1 else p * (n - 1.0) / (2.0 * n)
        pi_direct.append(p)
    assert np.allclose(np.exp(rep.log_pi[:20]), pi_direct, rtol=1e-12)


def test_weight_recursion_invariant(linear_chain_report):
    ch = preset_chain("linear", {"lam": 1.0, "mu": 2.0})
    rep = linear_chain_report
    ns = np.arange(1, rep.n_max)
    inc = rep.log_pi[1:] - rep.log_pi[:-1]
    expect = np.log(ch.lambda_n(ns)) - np.log(ch.mu_n(ns + 1))
    assert np.max(np.abs(inc - expect)) < 1e-12 * np.max(np.abs(expect))


def test_absorption_time_closed_forms(linear_chain_report,
                                      logistic_chain_report):
    # lam=1, mu=2: E[T0 from 1] = sum (1/2)^n / n = ln 2
    assert abs(linear_chain_report.E1T0_value - math.log(2.0)) < 1e-12
    # lam=mu=c=1: mu_n = n^2, pi_n = 1/(n n!), E = sum 1/(n n!)
    e1_direct = sum(1.0 / (n * math.factorial(n)) for n in range(1, 40))
    assert abs(logistic_chain_report.E1T0_value - e1_direct) < 1e-12


def test_summability_verdicts(linear_chain_report, logistic_chain_report):
    rep = linear_chain_report
    assert rep.verdict == {"i": "fails", "ii": "fails",
                           "iii": "fails", "iv": "fails"}
    assert rep.sure_absorption == "holds"
    assert rep.agreement_iii_iv

    rep2 = logistic_chain_report
    assert rep2.verdict == {"i": "holds", "ii": "holds",
                            "iii": "holds", "iv": "holds"}
    assert rep2.sure_absorption == "holds"
    assert rep2.agreement_iii_iv


def test_double_sum_prefix_matches_hand_sum(logistic_chain_report):
    rep = logistic_chain_report
    cut0 = rep.cutoffs[0]
    pis = [1.0 / (n * math.factorial(n)) for n in range(1, cut0 + 1)]
    S_direct = sum(pis)
    for n in range(1, cut0):
        S_direct += math.factorial(n) * sum(pis[n:])
    assert abs(rep.S_partial[0][1] - S_direct) / S_direct < 1e-12


def test_double_sum_tail_increments(logistic_chain_report):
    # terms settle to 1/(n+1)^2, so the last rung adds exactly that tail
    rep = logistic_chain_report
    inc_last = rep.S_partial[-1][1] - rep.S_partial[-2][1]
    lo, hi = rep.cutoffs[-2], rep.cutoffs[-1]
    approx = sum(1.0 / (n + 1.0) ** 2 for n in range(lo + 1, hi + 1))
    assert abs(inc_last - approx) / approx < 1e-3


def test_pure_death_mean_absorption_time():
    # deaths at rate n: E[T0 from n0] is the harmonic number H_{n0}
    m = preset_family("pure_branching",
                      {"lam": 0.0, "mu": 1.0, "gamma": 0.0}, 1)
    for n0 in (1, 3):
        t0s = np.asarray([gillespie(m, float(n0), 1e9, seed=7, replica=j).T0
                          for j in range(4000)])
        exact = sum(1.0 / j for j in range(1, n0 + 1))
        se = t0s.std(ddof=1) / math.sqrt(len(t0s))
        assert abs(t0s.mean() - exact) < 3.0 * se


def test_batch_equals_scalar_replica_by_replica():
    m = preset_family("logistic_branching",
                      {"lam": 2.0, "mu": 1.0, "c": 1.0, "gamma": 1.0}, 20)
    counts, T0, _ = _gillespie_batch(m, 1.0, 2.0, 12, seed=42)
    for j in range(12):
        p = gillespie(m, 1.0, 2.0, seed=42, replica=j)
        assert p.counts[-1] == counts[j]
        assert (math.isinf(p.T0) and math.isinf(T0[j])) \
            or abs(p.T0 - T0[j]) < 1e-12
    again, _, _ = _gillespie_batch(m, 1.0, 2.0, 12, seed=42)
    assert np.array_equal(counts, again)


def test_ensemble_matches_master_equation():
    # five reachable states: forward equations integrate to the exact mean
    lam_, mu_ = 1.0, 1.2

    def b5(x):
        n = np.rint(np.asarray(x, dtype=float))
        out = np.where(n >= 4, 0.0, lam_ * n)
        return float(out) if out.ndim == 0 else out

    def d5(x):
        n = np.rint(np.asarray(x, dtype=float))
        out = mu_ * n
        return float(out) if out.ndim == 0 else out

    m5 = BDModel(N=1, b=b5, d=d5, state_scale=1.0)
    Q = np.zeros((5, 5))
    for n in range(1, 5):
        bn = lam_ * n if n < 4 else 0.0
        Q[n, n] = -(bn + mu_ * n)
        if n + 1 <= 4:
            Q[n, n + 1] = bn
        Q[n, n - 1] = mu_ * n
    p0 = np.zeros(5)
    p0[2] = 1.0
    sol = solve_ivp(lambda t, p: p @ Q, (0.0, 1.5), p0,
                    rtol=1e-10, atol=1e-12)
    mean_exact = float(np.arange(5) @ sol.y[:, -1])
    counts, _, _ = _gillespie_batch(m5, 2.0, 1.5, 20000, seed=3)
    se = counts.std(ddof=1) / math.sqrt(len(counts))
    assert abs(counts.mean() - mean_exact) < 3.0 * se


@pytest.mark.parametrize("N", [10, 30])
def test_lattice_law_matches_master_equation(N):
    # the chain of acceptance check C11
    m = preset_family("logistic_branching",
                      {"lam": 1.0, "mu": 1.0, "c": 1.0, "gamma": 1.0}, N)
    p = lattice_law(m, 1.0, 1.0)
    M = len(p) - 1
    assert M == 12 * N
    # forward equation on {0..M}: 0 absorbs, births stop at M
    x = np.arange(M + 1) / N
    b = np.asarray(m.b(x), dtype=float)
    d = np.asarray(m.d(x), dtype=float)
    b[-1] = 0.0
    Q = diags([-(b + d), b[:-1], d[1:]], [0, 1, -1], format="csr")
    p0 = np.zeros(M + 1)
    p0[N] = 1.0
    exact = expm_multiply(Q.T, p0)
    assert np.max(np.abs(p - exact)) < 1e-12
    assert p[0] > 0.5 and abs(p.sum() - 1.0) < 1e-12


def test_lattice_truncation_doubles_until_its_mass_vanishes():
    # without competition, 12 N leaves 5.9e-8 of the mass at M
    m = preset_family("pure_branching",
                      {"lam": 1.0, "mu": 2.0, "gamma": 1.0}, 10)
    p = lattice_law(m, 1.0, 1.0)
    assert len(p) - 1 == 24 * 10
    assert p[-1] <= 1e-12 and p.min() >= -1e-12


def test_lattice_law_refuses_unresolved_chain():
    # without noise, absorption from near N is far too rare for doubles
    m = preset_family("logistic_branching",
                      {"lam": 2.0, "mu": 1.0, "c": 1.0, "gamma": 0.0}, 1000)
    with pytest.raises(TruncationError):
        lattice_law(m, 0.5, 1.0)


def test_sampler_mean_matches_exact_law():
    m = preset_family("logistic_branching",
                      {"lam": 2.0, "mu": 1.0, "c": 1.0, "gamma": 0.1}, 10)
    p = lattice_law(m, 1.0, 1.0)
    exact = float(np.arange(len(p)) @ p) / m.N
    z = np.asarray([gillespie(m, 1.0, 1.0, seed=9, replica=j).states[-1]
                    for j in range(1000)])
    se = z.std(ddof=1) / math.sqrt(len(z))
    assert abs(z.mean() - exact) < 3.0 * se


def test_noise_free_family_follows_growth_flow():
    det = deterministic_limit_check(
        "logistic_branching", {"lam": 2.0, "mu": 1.0, "c": 1.0}, N=1000,
        z0=0.5, ts=[0.5, 1.0, 2.0], n_reps=400, seed=5)
    for _, emp, ode, rel in det.rows:
        assert rel < 0.02, (emp, ode, rel)


def test_scaling_rows_shrink_with_lattice_size():
    # small smoke version; the full criterion run lives in the gate
    sr = scaling_limit_check(
        "pure_branching", {"lam": 1.0, "mu": 2.0, "gamma": 1.0},
        [10, 100], z0=1.0, t=1.0, n_reps=4000, seed=11)
    ks = [k for _, k, _ in sr.rows]
    assert ks[1] < ks[0]
    assert ks[1] < 0.1


def test_rate_family_identities_exact():
    mm = preset_family("logistic_branching",
                       {"lam": 2.0, "mu": 1.0, "c": 1.5, "gamma": 1.0}, 50)
    for x, gap, hx, noise, gx in mm.limit_report:
        expect = 1.0 * x - 1.5 * x * x + 1.5 * x / 50
        assert abs(gap - expect) < 1e-9 * max(1.0, abs(expect))
    mp = preset_family("pure_branching",
                       {"lam": 2.0, "mu": 1.0, "gamma": 1.0}, 50)
    for x, gap, hx, noise, gx in mp.limit_report:
        assert abs(gap - x) < 1e-12
        assert abs(noise - (x + 3.0 * x / 100.0)) < 1e-12
    assert np.isfinite(mm.B_N) and mm.B_N > 0


def test_family_and_chain_guards():
    with pytest.raises(PreconditionError):
        preset_family("exotic", {}, 10)
    with pytest.raises(PreconditionError):
        preset_family("pure_branching", {"lam": -1.0}, 10)
    with pytest.raises(PreconditionError):
        preset_chain("exotic", {})
    with pytest.raises(PreconditionError):
        s_criterion(preset_chain("linear", {}), 50)   # needs n_max >= 100
    m = preset_family("pure_branching", {"lam": 1.0, "mu": 1.0}, 10)
    with pytest.raises(DomainError):
        gillespie(m, 0.55, 1.0, seed=0)   # 5.5 lattice units: off-grid


def test_truncated_chain_is_never_absorbed():
    # lambda_n = 0 cuts the ladder: every statement holds trivially
    ch = preset_chain("logistic", {"lam": 0.0, "mu": 1.0, "c": 1.0})
    rep = s_criterion(ch, 1000)
    assert all(v == "holds" for v in rep.verdict.values())
