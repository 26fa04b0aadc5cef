"""Lattice populations: exact simulation, diffusion limits, summability."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import eigh_tridiagonal
from scipy.sparse import diags
from scipy.sparse.linalg import expm_multiply
from scipy.stats import gamma as gamma_law, poisson

from qsdlab import (BDModel, DomainError, PreconditionError,
                    TailDominatedError, TruncationError, gillespie,
                    lattice_law, preset_chain, preset_family, rng,
                    s_criterion, scaling_limit_check)
from qsdlab import birthdeath, spectral
from qsdlab.birthdeath import _CHUNK, _MAX_EVENTS, _diffusion_cdf, _snap_count


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


def _reference_batch(m: BDModel, z0, t_max, n_reps, seed, record_ts=None,
                     first=0, log=None):
    """The lockstep batch sampler that `gillespie` replaced, kept verbatim
    as the oracle of its draws."""
    N = m.N
    n0 = _snap_count(z0, N)
    n = np.full(n_reps, n0, dtype=np.int64)
    t = np.zeros(n_reps)
    T0 = np.full(n_reps, np.inf if n0 > 0 else 0.0)
    gens = [rng.stream(seed, first + j) for j in range(n_reps)]
    # every live replica draws two uniforms per lockstep event, so all
    # share one position in their refill buffers
    buf = np.empty((n_reps, _CHUNK))
    pos = _CHUNK                                    # force initial refill
    events = None if log is None else [([0.0], [n0]) for _ in range(n_reps)]
    # rates are tabulated past the top live count; counts move by one per
    # event, so the table stays valid for `safe` more events
    safe = 0

    recorded = None
    if record_ts is not None:
        recorded = np.zeros((n_reps, len(record_ts)), dtype=np.int64)
        rec_idx = np.zeros(n_reps, dtype=np.int64)
        # a replica past its last record time waits for t = inf
        record_ts = np.append(np.asarray(record_ts, dtype=float), np.inf)

    act = np.nonzero(n > 0)[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_MAX_EVENTS):
            if act.size == 0:
                break
            if pos == _CHUNK:
                for i in act:
                    gens[i].random(out=buf[i])
                pos = 0
            cur = n[act]
            if safe == 0:
                top = int(cur.max())
                x = np.arange(2 * top + 2) / N
                birth = np.asarray(m.b(x), dtype=float)
                total = birth + np.asarray(m.d(x), dtype=float)
                tame = bool(np.all(total <= 1e300))
                safe = len(total) - top
            safe -= 1
            bn = birth[cur]
            tot = total[cur]
            if not (tame or np.all(tot <= 1e300)):
                raise TruncationError("total jump rate exceeds the "
                                      "representable scale in a replica")
            u1 = buf[act, pos]
            u2 = buf[act, pos + 1]
            pos += 2
            t_new = t[act] - np.log(u1) / tot
            t_new[tot <= 0] = np.inf      # isolated state: nothing fires

            if recorded is not None:
                # snapshot the pre-event count at every record time crossed
                while True:
                    cross = t_new > record_ts[rec_idx[act]]
                    if not cross.any():
                        break
                    rows = act[cross]
                    recorded[rows, rec_idx[rows]] = n[rows]
                    rec_idx[rows] += 1

            fire = t_new <= t_max
            rows = act[fire]
            t[rows] = t_new[fire]
            n[rows] += 2 * (u2[fire] * tot[fire] < bn[fire]) - 1
            if events is not None:
                for j in rows:
                    events[j][0].append(float(t[j]))
                    events[j][1].append(int(n[j]))
            alive = n[rows] > 0
            T0[rows[~alive]] = t[rows[~alive]]
            act = rows[alive]
        else:
            raise TruncationError(f"more than {_MAX_EVENTS} lockstep events "
                                  "before t_max; rates outpace the clock")

    if recorded is not None:
        # times past the last event of a replica see its final count
        for j in range(n_reps):
            recorded[j, rec_idx[j]:] = n[j]
    if events is not None:
        log.extend((np.asarray(ts, dtype=float),
                    np.asarray(ns, dtype=np.int64)) for ts, ns in events)
    return n, T0, recorded


def _assert_matches_reference(m, z0, t_max, n_reps, seed, first=0):
    """gillespie against the lockstep batch, replica by replica; returns
    the longest path's event count."""
    log = []
    _, T0, _ = _reference_batch(m, z0, t_max, n_reps, seed, first=first,
                                log=log)
    for j, (times, counts) in enumerate(log):
        p = gillespie(m, z0, t_max, seed=seed, replica=first + j)
        assert np.array_equal(p.times, times)
        assert np.array_equal(p.counts, counts)
        assert p.counts.dtype == counts.dtype
        assert np.array_equal(p.states, counts / m.N)
        assert p.T0 == T0[j] and p.N == m.N
    return max(len(times) for times, _ in log) - 1


_FAMILIES = {
    # the lattice workload's family, the example's lam = 2 at its top N,
    # a small lam = 2 chain run longer, subcritical pure branching, and
    # pure death run to an effectively infinite horizon
    "workload": ("logistic_branching",
                 {"lam": 1.0, "mu": 1.0, "c": 1.0, "gamma": 0.1}, 100, 1.0,
                 1.0),
    "example": ("logistic_branching",
                {"lam": 2.0, "mu": 1.0, "c": 1.0, "gamma": 1.0}, 100, 1.0,
                0.05),
    "lam2_N20": ("logistic_branching",
                 {"lam": 2.0, "mu": 1.0, "c": 1.0, "gamma": 1.0}, 20, 1.0,
                 2.0),
    "subcritical": ("pure_branching",
                    {"lam": 1.0, "mu": 2.0, "gamma": 1.0}, 10, 3.0, 1.0),
    "pure_death": ("pure_branching",
                   {"lam": 0.0, "mu": 1.0, "gamma": 0.0}, 1, 300.0, 1e9),
}


@pytest.mark.parametrize("seed, first", [(1, 0), (42, 5)])
@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_gillespie_draws_what_the_lockstep_batch_drew(family, seed, first):
    kind, params, N, z0, t_max = _FAMILIES[family]
    m = preset_family(kind, params, N)
    longest = _assert_matches_reference(m, z0, t_max, 4, seed, first)
    assert 2 * longest > _CHUNK       # two uniforms per event: two refills


def _custom_model(b_of_n, d_of_n):
    def rates(f):
        return lambda x: f(np.rint(np.asarray(x, dtype=float)))
    return BDModel(N=1, b=rates(b_of_n), d=rates(d_of_n), state_scale=1.0)


def test_gillespie_edge_cases_match_the_lockstep_batch():
    m = preset_family("pure_branching", {"lam": 1.0, "mu": 1.0}, 10)
    for model, z0, T0 in [
            (m, 0.0, 0.0),              # starts absorbed
            # no event can fire from count 2: alive at t_max
            (_custom_model(lambda n: np.where(n == 2, 0.0, n),
                           lambda n: np.where(n == 2, 0.0, n)), 2.0, np.inf)]:
        _assert_matches_reference(model, z0, 1.0, 2, seed=7)
        p = gillespie(model, z0, 1.0, seed=7)
        assert len(p.times) == 1 and p.times[0] == 0.0
        assert p.T0 == T0
    huge = _custom_model(lambda n: 1e301 * n, lambda n: 1e301 * n)
    with pytest.raises(TruncationError):
        _reference_batch(huge, 1.0, 1.0, 1, seed=7)
    with pytest.raises(TruncationError):
        gillespie(huge, 1.0, 1.0, seed=7)


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
    counts = np.asarray([gillespie(m5, 2.0, 1.5, seed=3, replica=j).counts[-1]
                         for j in range(20000)])
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


def test_scaling_rows_shrink_with_lattice_size():
    # small smoke version; the full criterion run lives in the gate
    sr = scaling_limit_check(
        "pure_branching", {"lam": 1.0, "mu": 2.0, "gamma": 1.0},
        [10, 100], z0=1.0, t=1.0)
    ks = [k for _, k, _ in sr.rows]
    assert ks[1] < ks[0]
    assert ks[1] < 0.1


@pytest.mark.parametrize("lam, mu, gamma", [(1.0, 2.0, 1.0), (1.0, 1.5, 0.5),
                                             (1.0, 1.0, 1.0),
                                             (1.0, 2.0, 0.02)])
def test_diffusion_reference_matches_feller_closed_form(lam, mu, gamma):
    # dZ = r Z dt + sqrt(2 gamma Z) dB at t: a Poisson(m) number of
    # Exponential(B) summands, A = e^{rt}, B = gamma (A - 1) / r, m = z0 A / B.
    # At gamma = 0.02 the start x0 = 10 sits far up the potential and the
    # reference reads 1.68e-3 off the closed form: 2e-3 there
    tol = 2e-3 if gamma == 0.02 else 1e-3
    z0, t, z_max = 1.0, 1.0, 12.0
    r = lam - mu
    A = math.exp(r * t)
    B = gamma * t if r == 0 else gamma * (A - 1.0) / r
    m = z0 * A / B
    z = np.linspace(0.0, z_max, 2401)
    k = np.arange(1, int(m + 40.0 * math.sqrt(m)) + 60)[:, None]
    exact = math.exp(-m) + (poisson.pmf(k, m)
                            * gamma_law.cdf(z, a=k, scale=B)).sum(axis=0)
    G, _ = _diffusion_cdf("pure_branching", {"lam": lam, "mu": mu,
                                             "gamma": gamma}, z0, t, z_max)
    assert np.max(np.abs(G(z) - exact)) <= tol


@pytest.mark.parametrize("gamma, t, error, match", [
    (1.0, 0.001, TailDominatedError, "below t_min"),
    # weaker noise starts the diffusion farther up its potential, where the
    # mode sum cancels past double precision: at 0.012 its negative lobes
    # outweigh the rounding bound, at 0.011 the survival itself is negative
    (0.012, 1.0, TruncationError, "cancels"),
    (0.011, 1.0, TruncationError, "cancels")])
def test_scaling_check_refuses_an_unresolved_reference(gamma, t, error,
                                                       match):
    with pytest.raises(error, match=match):
        scaling_limit_check("pure_branching",
                            {"lam": 1.0, "mu": 2.0, "gamma": gamma},
                            [10], z0=1.0, t=t)


def test_survival_refuses_the_reference_sum_that_cancels(monkeypatch):
    # the gamma = 0.011 reference above: its survival from the start sums
    # to about -0.72, and survival() says it cancels, from a point or from
    # a density at that node, where it once returned the negative number
    seen = {}

    def capture(sd, t, x0):
        seen.update(sd=sd, t=t, x0=x0)
        return spectral.conditional_density(sd, t, x0)

    monkeypatch.setattr(birthdeath, "conditional_density", capture)
    with pytest.raises(TruncationError, match="cancels"):
        scaling_limit_check("pure_branching",
                            {"lam": 1.0, "mu": 2.0, "gamma": 0.011},
                            [10], z0=1.0, t=1.0)
    sd, t = seen["sd"], seen["t"]
    i0 = sd.node_index(seen["x0"])
    spike = np.zeros_like(sd.grid)
    spike[i0] = 1.0 / sd.cell[i0]
    for init in (("point", seen["x0"]), ("density", spike)):
        with pytest.raises(TruncationError, match="cancels to a survival"):
            spectral.survival(sd, t, init)
    # underflow is still a value: nothing divides by it here
    assert spectral.survival(sd, 1e5, ("point", seen["x0"])) == 0.0


_REFERENCE_CHAINS = {
    "c11": ("logistic_branching",
            {"lam": 1.0, "mu": 1.0, "c": 1.0, "gamma": 1.0}),
    "lattice": ("logistic_branching",
                {"lam": 1.0, "mu": 1.0, "c": 1.0, "gamma": 0.1}),
    "pure": ("pure_branching", {"lam": 1.0, "mu": 2.0, "gamma": 1.0}),
}


@pytest.mark.parametrize("t", [0.001, 0.01, 0.02, 0.03, 0.1, 0.3, 1.0, 5.0,
                               25.0, 40.0])
@pytest.mark.parametrize("chain", list(_REFERENCE_CHAINS))
def test_reference_levels_at_the_horizon_agree_with_64(chain, t,
                                                       monkeypatch):
    # the reference solve keeps the levels that weigh at t; it must refuse
    # exactly where the 64-level solve does, and agree with it elsewhere
    kind, params = _REFERENCE_CHAINS[chain]
    z = np.linspace(0.0, 12.0, 2401)

    def reference():
        try:
            G, sd = _diffusion_cdf(kind, params, 1.0, t, 12.0)
        except TailDominatedError as exc:
            return str(exc), None, None
        return None, G(z), sd

    refused, G, sd = reference()
    full = []

    def forced(d, box, K, horizon):
        full.append(spectral.build_and_solve(d, box, K=K))
        return full[-1]

    monkeypatch.setattr(birthdeath, "build_and_solve", forced)
    refused64, G64, sd64 = reference()
    assert refused == refused64
    if refused is not None:
        return
    levels = sd.K
    assert sd64.K == 64 and 1 <= levels <= 64
    assert np.max(np.abs(G - G64)) <= 1e-6
    # both solves read the operator's levels to 1e-10 of bisection to the
    # smallest tolerance
    exact = eigh_tridiagonal(*sd64.operator, eigvals_only=True, select="i",
                             select_range=(0, 63),
                             tol=2 * np.finfo(float).tiny)
    assert np.max(np.abs(sd64.lambdas - exact)) <= 1e-10
    assert np.max(np.abs(sd.lambdas - exact[:levels])) <= 1e-10
    if (chain, t) == ("lattice", 25.0):
        # the doubling path: the first cut, 42/25, keeps only 0.351 and
        # 1.241, whose t_min 25.9 exceeds t; one doubling keeps a third
        assert np.count_nonzero(full[0].lambdas <= spectral.LEVEL_CUT / t) \
            == 2 and levels == 3
    if (chain, t) == ("lattice", 0.1):
        # the cap: 42/0.1 is past the 64th level 258.2, so the solve is
        # the 64-level one, byte for byte
        assert levels == 64 and G.tobytes() == G64.tobytes()


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
    for z0 in (math.nan, math.inf):
        with pytest.raises(DomainError, match="finite"):
            gillespie(m, z0, 1.0, seed=0)
        with pytest.raises(DomainError, match="finite"):
            lattice_law(m, z0, 1.0)


def test_truncated_chain_is_never_absorbed():
    # lambda_n = 0 cuts the ladder: every statement holds trivially
    ch = preset_chain("logistic", {"lam": 0.0, "mu": 1.0, "c": 1.0})
    rep = s_criterion(ch, 1000)
    assert all(v == "holds" for v in rep.verdict.values())
