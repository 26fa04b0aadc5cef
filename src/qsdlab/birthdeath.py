"""Birth-death prelimits of the population diffusion, and their audits.

Builds the standard branching-style rate families on the lattice of
counts over N, simulates them exactly with event-driven jumps, checks
weak convergence toward the population diffusion as N grows, and
evaluates the summability series that decides uniqueness of the
quasi-stationary law for an unscaled chain.
"""

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from . import rng
from .errors import DomainError, PreconditionError, TruncationError
from .model import linear_growth, logistic_growth
from .montecarlo import SimConfig, simulate_z
from .quadrature import classify_growth
from .spectral import tridiagonal_modes

_CHUNK = 512                      # uniforms per stream refill (2 per event)
_MAX_EVENTS = 100_000_000


# ---------------------------------------------------------------------------
# rate families on the lattice of counts over N

@dataclass(frozen=True)
class BDModel:
    """Scaled birth-death family: rates evaluated at lattice states n/N."""

    N: int
    b: Callable
    d: Callable
    state_scale: float
    name: str = "bd"
    B_N: float = float("nan")      # smallest probed constant with
    #                                b(x) <= (x+1) B_N on the probe range
    limit_report: tuple = ()       # (x, (b-d)/N, h(x), (b+d)/2N^2, gamma*x)


@dataclass(frozen=True)
class BDChainSpec:
    """Unscaled chain rates for the summability criterion; state 0 absorbs."""

    lambda_n: Callable
    mu_n: Callable
    name: str = "chain"


def preset_family(kind, params, N) -> BDModel:
    """The two branching-style rate families on the count lattice.

    pure_branching: births at (gamma N + lam) n, deaths at
    (gamma N + mu) n from count n.  logistic_branching adds the pairwise
    competition kill rate (c/N) n (n-1).  States are snapped to the
    nearest count so lattice arithmetic never drifts.
    """
    problems = []
    if kind not in ("pure_branching", "logistic_branching"):
        raise PreconditionError(f"unknown family kind {kind!r}")
    N = int(N)
    if N < 1:
        problems.append(f"N must be a positive integer, got {N}")
    p = dict(params)
    lam = float(p.get("lam", 1.0))
    mu = float(p.get("mu", 1.0))
    gamma = float(p.get("gamma", 1.0))
    c = float(p.get("c", 1.0)) if kind == "logistic_branching" else 0.0
    problems += [f"{k} must be nonnegative" for k, v in
                 (("lam", lam), ("mu", mu), ("gamma", gamma), ("c", c))
                 if v < 0]
    if problems:
        raise PreconditionError("; ".join(problems))

    birth_per_count = (gamma * N + lam) * N
    death_per_count = (gamma * N + mu) * N

    def b(x):
        n = np.rint(np.asarray(x, dtype=float) * N)
        return birth_per_count * n / N

    def d(x):
        n = np.rint(np.asarray(x, dtype=float) * N)
        out = death_per_count * n / N
        return out + (c / N) * n * (n - 1.0) if c > 0 else out

    r = lam - mu

    def h(x):
        return r * x - c * x * x

    probes = np.array([0.5, 1.0, 2.0, 5.0])
    lattice = np.rint(probes * N) / N
    rows = tuple(
        (float(x), float((b(x) - d(x)) / N), float(h(x)),
         float((b(x) + d(x)) / (2.0 * N * N)), float(gamma * x))
        for x in lattice)
    big = np.rint(np.linspace(0, 100, 401) * N) / N
    with np.errstate(invalid="ignore", divide="ignore"):
        B_N = float(np.max(np.asarray(b(big)) / (big + 1.0)))

    return BDModel(N=N, b=b, d=d, state_scale=1.0 / N,
                   name=f"{kind}(lam={lam:g},mu={mu:g},gamma={gamma:g}"
                        + (f",c={c:g})" if kind == "logistic_branching"
                           else ")"),
                   B_N=B_N, limit_report=rows)


def preset_chain(kind, params) -> BDChainSpec:
    """Unscaled chain presets for the summability criterion."""
    if kind not in ("linear", "logistic"):
        raise PreconditionError(f"unknown chain kind {kind!r}")
    p = dict(params)
    lam = float(p.get("lam", 1.0))
    mu = float(p.get("mu", 1.0))
    c = float(p.get("c", 1.0)) if kind == "logistic" else 0.0
    if min(lam, mu) < 0 or c < 0:
        raise PreconditionError("chain rates must be nonnegative")

    def lambda_n(n):
        return lam * np.asarray(n, dtype=float)

    def mu_n(n):
        n = np.asarray(n, dtype=float)
        return mu * n + c * n * (n - 1.0)

    return BDChainSpec(lambda_n=lambda_n, mu_n=mu_n,
                       name=f"{kind}(lam={lam:g},mu={mu:g}"
                            + (f",c={c:g})" if c else ")"))


# ---------------------------------------------------------------------------
# exact event-driven simulation

@dataclass(frozen=True)
class BDPath:
    """One exact trajectory: post-event counts on the event-time grid."""

    times: np.ndarray
    counts: np.ndarray
    states: np.ndarray            # counts * state_scale
    T0: float                     # absorption time; inf if alive at t_max
    N: int


def _snap_count(z0, N):
    n0 = float(np.rint(z0 * N))
    if abs(z0 * N - n0) > 1e-6:
        raise DomainError(f"z0={z0!r} is not on the lattice of counts "
                          f"over N={N}")
    if n0 < 0:
        raise DomainError("initial count must be nonnegative")
    return int(n0)


def gillespie(m: BDModel, z0, t_max, seed, replica=0) -> BDPath:
    """Exact jump-chain trajectory from lattice state z0 up to t_max.

    One replica of the lockstep sampler, with its event log kept, so a
    batch run and a rerun of the same replica agree event for event.
    """
    events = []
    _, T0, _ = _gillespie_batch(m, z0, t_max, 1, seed, first=replica,
                                log=events)
    times, counts = events[0]
    return BDPath(times=times, counts=counts, states=counts / m.N,
                  T0=float(T0[0]), N=m.N)


def _gillespie_batch(m: BDModel, z0, t_max, n_reps, seed, record_ts=None,
                     first=0, log=None):
    """March replicas first .. first + n_reps - 1 in lockstep.

    Waiting times are exponential with the total rate at the current
    count; a uniform then picks birth against death.  Absorption at 0 is
    permanent.  Replica j draws from stream (seed, j), so results do not
    depend on which replicas share a batch.  Returns (final_counts, T0,
    recorded), where recorded is the pre-crossing count at every
    requested record time (or None).  When log is a list, one
    (times, counts) pair per replica is appended to it, starting at
    (0, initial count) and holding every event up to t_max.
    """
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


# ---------------------------------------------------------------------------
# the exact lattice law

def _log_weights(lam, mu):
    """log pi_n, n = 1..len(mu): pi_1 mu_1 = 1, pi_n lam_n = pi_n+1 mu_n+1."""
    log_pi = np.empty(len(mu))
    log_pi[0] = -np.log(mu[0])
    log_pi[1:] = log_pi[0] + np.cumsum(np.log(lam[:-1]) - np.log(mu[1:]))
    return log_pi


def lattice_law(m: BDModel, z0, t) -> np.ndarray:
    """Exact law at time t of the count started from lattice state z0.

    p[0] is the absorbed mass, p[m] that of count m <= M.  Births stop at
    M, which starts at max(12 N, 2 n0) and doubles, at most five times,
    until the mass at M is at most 1e-12.  Symmetrized by the weights pi,
    the generator on {1..M} is tridiagonal with off-diagonal
    sqrt(b_n d_{n+1}); with its levels lambda_k and orthonormal vectors
    phi_k (Karlin-McGregor 1957), unweighted in log space,

        p[m] = sqrt(pi_m / pi_n0) sum_k exp(-lambda_k t) phi_k(n0) phi_k(m).

    Levels with lambda t > 42 weigh below 1e-18 and are left out.  Mass
    left at the last M, an unresolved spectrum, and an entry below -1e-12
    (cancellation) raise TruncationError; nothing is clipped.
    """
    N = m.N
    n0 = _snap_count(z0, N)
    t = float(t)
    if not t > 0:
        raise PreconditionError(f"t must be positive, got {t!r}")
    for M in max(12 * N, 2 * n0) * 2 ** np.arange(6):
        x = np.arange(1, M + 1) / N
        b = np.array(m.b(x), dtype=float)
        d = np.asarray(m.d(x), dtype=float)
        b[-1] = 0.0
        if not (np.all(np.isfinite(b + d)) and np.all(b[:-1] > 0)
                and np.all(d > 0)):
            raise DomainError("the exact law needs finite positive birth "
                              f"and death rates on 1..{M}")
        log_pi = _log_weights(b, d)
        lam, phi = tridiagonal_modes(
            b + d, -np.sqrt(b[:-1] * d[1:]),
            "this chain's spectrum is not resolved in double precision",
            select="v", select_range=(-np.inf, 42.0 / t),
            lapack_driver="stemr")
        p = np.zeros(M + 1)
        if n0 > 0:
            v = phi @ (np.exp(-lam * t) * phi[n0 - 1])
            with np.errstate(divide="ignore"):
                p[1:] = np.sign(v) * np.exp(
                    np.log(np.abs(v)) + 0.5 * (log_pi - log_pi[n0 - 1]))
        p[0] = 1.0 - p[1:].sum()
        if p[-1] <= 1e-12:
            break
    else:
        raise TruncationError(f"mass {p[-1]:.3g} at the truncation "
                              f"M = {M} exceeds 1e-12")
    if p.min() < -1e-12:
        raise TruncationError(
            f"law entry {p.min():.3g} is below -1e-12: the weighted "
            "spectral sum cancels past double precision")
    return p


# ---------------------------------------------------------------------------
# convergence toward the diffusion

@dataclass(frozen=True)
class ScalingReport:
    rows: tuple                 # (N, ks_distance, n_reps)
    t: float
    z0: float
    reference_size: int


def scaling_limit_check(kind, params, N_list, z0, t, n_reps, seed=0,
                        dt=1e-3) -> ScalingReport:
    """Endpoint laws of the lattice families against the diffusion's.

    For each N the exact lattice law (atom at 0 included) is compared
    with the empirical law of a simulated diffusion ensemble at the same
    time, through the sup distance between their cdfs; the distances
    should shrink as N grows.  The ensemble has max(10000, n_reps) paths.
    """
    N_list = [int(N) for N in N_list]
    if len(N_list) < 1 or any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise PreconditionError("N_list must be strictly increasing")
    p = dict(params)
    gamma = float(p.get("gamma", 1.0))
    if gamma <= 0:
        raise PreconditionError("the diffusion comparison needs gamma > 0")
    r = float(p.get("lam", 1.0)) - float(p.get("mu", 1.0))
    # jump variance of the lattice family per unit time is (b+d)/N^2,
    # which tends to 2*gamma*x: the weak limit of these rates is the
    # population diffusion whose squared noise coefficient is 2*gamma*z
    gamma_sde = 2.0 * gamma
    if kind == "logistic_branching":
        g = logistic_growth(r, float(p.get("c", 1.0)), gamma_sde)
    elif kind == "pure_branching":
        g = linear_growth(r, gamma_sde)
    else:
        raise PreconditionError(f"unknown family kind {kind!r}")

    n_ref = max(10000, int(n_reps))
    cfg = SimConfig(dt=dt, t_max=t, n_paths=n_ref, seed=seed + 1_000_003)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ref = np.sort(simulate_z(g, z0, cfg).states[:, -1])

    rows = []
    for N in N_list:
        law = lattice_law(preset_family(kind, params, N), z0, t)
        support = np.arange(len(law)) / N
        # both cdfs are right-continuous steps: the sup sits at a jump
        pool = np.concatenate([support, ref])
        F = np.concatenate([[0.0], np.cumsum(law)])[
            np.searchsorted(support, pool, side="right")]
        G = np.searchsorted(ref, pool, side="right") / n_ref
        rows.append((N, float(np.max(np.abs(F - G))), n_reps))
    return ScalingReport(rows=tuple(rows), t=float(t), z0=float(z0),
                         reference_size=n_ref)


@dataclass(frozen=True)
class DeterministicReport:
    rows: tuple                 # (t, empirical_mean, ode_value, rel_gap)
    N: int
    n_reps: int


def deterministic_limit_check(kind, params, N, z0, ts, n_reps,
                              seed=0) -> DeterministicReport:
    """Fluctuation-free limit: mean lattice path against the growth flow.

    Drops the noise term from the rate family (the part that scales like
    N^2) and compares the empirical mean path with the solution of the
    plain growth equation.
    """
    p = dict(params)
    p["gamma"] = 0.0
    m = preset_family(kind, p, N)
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1 or len(ts) < 1 or np.any(np.diff(ts) <= 0):
        raise PreconditionError("ts must be strictly increasing")

    _, _, rec = _gillespie_batch(m, z0, float(ts[-1]) + 1e-9, n_reps, seed,
                                 record_ts=ts)
    means = rec.mean(axis=0) / N

    r = float(p.get("lam", 1.0)) - float(p.get("mu", 1.0))
    c = float(p.get("c", 1.0)) if kind == "logistic_branching" else 0.0
    sol = solve_ivp(lambda _, y: r * y - c * y * y, (0.0, float(ts[-1])),
                    [float(z0)], t_eval=ts, rtol=1e-10, atol=1e-12)
    ode = sol.y[0]
    rows = tuple((float(tv), float(mv), float(ov),
                  float(abs(mv - ov) / max(abs(ov), 1e-300)))
                 for tv, mv, ov in zip(ts, means, ode))
    return DeterministicReport(rows=rows, N=int(N), n_reps=int(n_reps))


# ---------------------------------------------------------------------------
# the summability criterion for the unscaled chain

@dataclass(frozen=True)
class SCriterionReport:
    """Partial-sum audit of the uniqueness series for a birth-death chain.

    verdict holds the four equivalent statements: descent from infinity,
    uniqueness of the quasi-stationary law, bounded mean absorption time
    from high states, and summability of the series itself.
    """

    n_max: int
    cutoffs: tuple
    log_pi: np.ndarray
    pi: np.ndarray
    S_partial: tuple
    A_partial: tuple
    E1T0_partial: tuple
    En_partial: tuple
    S_value: float
    E1T0_value: float
    sure_absorption: str          # A diverges <=> absorption is certain
    verdict: dict                 # keys i..iv -> holds | fails | inconclusive
    agreement_iii_iv: bool


def _status_word(status):
    return {"converges": "holds", "diverges": "fails"}.get(status,
                                                           "inconclusive")


def s_criterion(c: BDChainSpec, n_max) -> SCriterionReport:
    """Classify the uniqueness series of a birth-death chain.

    All products live in log space: pi overflows and underflows double
    precision long before interesting chains stop being interesting.
    Partial sums on geometric prefixes are classified with the same
    growth heuristic the quadrature ladder uses.
    """
    n_max = int(n_max)
    if n_max < 100:
        raise PreconditionError("n_max must be at least 100")
    ns = np.arange(1, n_max + 1)
    lam = np.asarray(c.lambda_n(ns), dtype=float)
    mu = np.asarray(c.mu_n(ns), dtype=float)
    if np.any(~np.isfinite(lam)) or np.any(~np.isfinite(mu)):
        raise DomainError("rates must be finite on 1..n_max")
    if np.any(mu <= 0):
        bad = int(ns[mu <= 0][0])
        raise DomainError(f"death rate must be positive for n >= 1; "
                          f"mu_{bad} is not")
    if np.any(lam < 0):
        raise DomainError("birth rates must be nonnegative")
    zero = np.nonzero(lam == 0)[0]
    if zero.size:
        # birth stops at some level: the chain truncates and every series
        # below is a finite sum
        n_max = int(ns[zero[0]])
        lam = lam[:n_max]
        mu = mu[:n_max]

    log_pi = _log_weights(lam, mu)
    with np.errstate(divide="ignore"):
        log_lam = np.log(lam)

    # constant-ratio rungs: the growth classifier reads increment ratios,
    # so the ladder must halve exactly all the way down
    cutoffs = [n_max]
    while cutoffs[-1] > 20 and len(cutoffs) < 24:
        cutoffs.append((cutoffs[-1] + 1) // 2)
    cutoffs = sorted(set(cutoffs))

    def safe_exp_sum(logs):
        with np.errstate(over="ignore"):
            return float(np.sum(np.exp(logs)))

    # inverse weights 1/(lambda_n pi_n) in log form
    log_inv = -(log_lam + log_pi)

    S_trail, A_trail, E1_trail, En_trail = [], [], [], []
    # suffix mass over the full range, for the mean-absorption formula
    suffix_full = np.full(n_max + 1, -np.inf)
    suffix_full[n_max - 1:0:-1] = np.logaddexp.accumulate(log_pi[:0:-1])
    E1_total = safe_exp_sum(log_pi)
    with np.errstate(over="ignore", invalid="ignore"):
        en_terms = np.exp(log_inv[:-1] + suffix_full[1:-1])
    en_cum = np.cumsum(en_terms)

    for cut in cutoffs:
        lp = log_pi[:cut]
        E1_trail.append((cut, safe_exp_sum(lp)))
        A_trail.append((cut, safe_exp_sum(log_inv[:cut])))
        # suffix sums inside the prefix for the doubly truncated series
        suf = np.full(cut + 1, -np.inf)
        suf[cut - 1:0:-1] = np.logaddexp.accumulate(lp[:0:-1])
        with np.errstate(over="ignore", invalid="ignore"):
            inner = np.exp(log_inv[:cut - 1] + suf[1:cut])
        S_trail.append((cut, safe_exp_sum(lp) + float(np.sum(inner))))
        En_trail.append((cut, E1_total + float(en_cum[cut - 2])
                         if cut >= 2 else E1_total))

    def classify(trail):
        cs, vs = zip(*trail)
        return classify_growth(np.asarray(cs, float), np.asarray(vs, float),
                               rel_tol=1e-9, abs_tol=1e-300)

    s_status, _ = classify(S_trail)
    a_status, _ = classify(A_trail)
    en_status, _ = classify(En_trail)

    iii = _status_word(en_status)
    iv = _status_word(s_status)
    agreement = iii == iv
    common = iv if iv != "inconclusive" else iii
    if not agreement and "inconclusive" not in (iii, iv):
        common = "inconclusive"
    verdict = {"i": common, "ii": common, "iii": iii, "iv": iv}
    sure = {"diverges": "holds",
            "converges": "fails"}.get(a_status, "inconclusive")
    if zero.size:
        # a truncated chain surely dies and trivially descends
        sure = "holds"
        verdict = {k: "holds" for k in verdict}
        agreement = True

    with np.errstate(over="ignore"):
        pi = np.exp(log_pi)
    return SCriterionReport(
        n_max=n_max, cutoffs=tuple(cutoffs), log_pi=log_pi, pi=pi,
        S_partial=tuple(S_trail), A_partial=tuple(A_trail),
        E1T0_partial=tuple(E1_trail), En_partial=tuple(En_trail),
        S_value=S_trail[-1][1], E1T0_value=E1_trail[-1][1],
        sure_absorption=sure, verdict=verdict, agreement_iii_iv=agreement)
