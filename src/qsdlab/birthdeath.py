"""Birth-death prelimits of the population diffusion, and their audits.

Builds the standard branching-style rate families on the lattice of
counts over N, simulates them exactly with event-driven jumps, checks
weak convergence toward the population diffusion as N grows, and
evaluates the summability series that decides uniqueness of the
quasi-stationary law for an unscaled chain.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import rng
from .errors import (DomainError, PreconditionError, TailDominatedError,
                     TruncationError)
from .model import preset_model, x_from_z, z_from_x
from .quadrature import classify_growth
from .spectral import (LEVEL_CUT, TruncationDomain, build_and_solve,
                       conditional_density, tridiagonal_modes)

_CHUNK = 512                      # uniforms per stream refill (2 per event)
_MAX_EVENTS = 100_000_000
_REF_X_MIN, _REF_N, _REF_K = 1e-3, 4096, 64   # the limit diffusion's solve


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
    if not np.isfinite(z0):
        raise DomainError(f"z0={z0!r} must be finite")
    n0 = float(np.rint(z0 * N))
    if abs(z0 * N - n0) > 1e-6:
        raise DomainError(f"z0={z0!r} is not on the lattice of counts "
                          f"over N={N}")
    if n0 < 0:
        raise DomainError("initial count must be nonnegative")
    return int(n0)


def gillespie(m: BDModel, z0, t_max, seed, replica=0) -> BDPath:
    """Exact jump-chain trajectory from lattice state z0 up to t_max.

    Waiting times are exponential with the total rate at the current
    count; a uniform then picks birth against death.  Absorption at 0 is
    permanent, and a count whose total rate is 0 keeps the path alive.
    The path draws two uniforms per event from stream (seed, replica),
    refilled _CHUNK at a time, so a rerun agrees event for event.
    """
    N = m.N
    n = _snap_count(z0, N)
    t, T0 = 0.0, (np.inf if n > 0 else 0.0)
    times, counts = [t], [n]
    gen = rng.stream(seed, replica)
    buf = np.empty(_CHUNK)
    pos = _CHUNK                                    # force initial refill
    total = ()
    for _ in range(_MAX_EVENTS):
        if n == 0:
            break
        if n >= len(total):
            # rates are tabulated up to twice the count, rebuilt when the
            # count leaves the table; every entry is elementwise in x
            x = np.arange(2 * n + 2) / N
            with np.errstate(divide="ignore", invalid="ignore"):
                b = np.asarray(m.b(x), dtype=float)
                birth = b.tolist()
                total = (b + np.asarray(m.d(x), dtype=float)).tolist()
        tot = total[n]
        if not tot <= 1e300:
            raise TruncationError(f"total jump rate {tot:.3g} at count {n} "
                                  "exceeds the representable scale")
        if tot <= 0:
            break                           # isolated state: nothing fires
        if pos == _CHUNK:
            gen.random(out=buf)
            u = buf.tolist()
            with np.errstate(divide="ignore"):
                log_u = np.log(buf).tolist()
            pos = 0
        t_new = t - log_u[pos] / tot
        if not t_new <= t_max:
            break
        t = t_new
        n += 1 if u[pos + 1] * tot < birth[n] else -1
        pos += 2
        times.append(t)
        counts.append(n)
        if n == 0:
            T0 = t
    else:
        raise TruncationError(f"more than {_MAX_EVENTS} events before "
                              "t_max; rates outpace the clock")
    counts = np.asarray(counts, dtype=np.int64)
    return BDPath(times=np.asarray(times, dtype=float), counts=counts,
                  states=counts / N, T0=float(T0), N=N)


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

    Levels with lambda t > LEVEL_CUT = 42 weigh below 1e-18 and are left
    out.  Mass left at the last M, an unresolved spectrum, and an entry
    below -1e-12 (cancellation) raise TruncationError; nothing is
    clipped.
    """
    return _lattice_solve(m, z0, t)[0]


def _lattice_solve(m: BDModel, z0, t):
    """lattice_law's law, with the Modes of its last solve."""
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
        solved = tridiagonal_modes(
            b + d, -np.sqrt(b[:-1] * d[1:]),
            "this chain's spectrum is not resolved in double precision",
            cut=LEVEL_CUT / t)
        lam, phi = solved.levels, solved.vectors
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
    return p, solved


# ---------------------------------------------------------------------------
# convergence toward the diffusion

@dataclass(frozen=True)
class ScalingReport:
    rows: tuple                 # (N, ks_distance, M)
    reference_levels: int       # levels the diffusion reference kept
    eigen_residual: float       # largest ||T v - lambda v|| of every solve
    orthonormality_defect: float    # largest max |V^T V - I| of every solve


def _diffusion_cdf(kind, params, z0, t, z_max):
    """Exact cdf at time t of the diffusion limit of a lattice family.

    The family's jump variance per unit time, (b+d)/N^2, tends to
    2 gamma z: the limit has growth (lam - mu) z - c z^2 at noise scale
    2 gamma.  One solve (sqrt grid, 4096 nodes) on (1e-3, x(z_max))
    gives S(t) and the conditional law; the law at t is the atom 1 - S(t)
    at 0 plus S(t) times that law, mapped to z.  The solve keeps the
    levels that still weigh at t, as lattice_law does, up to 64.  A t
    below the solve's t_min raises TailDominatedError; K is the cap, so
    the only remedy is a later t.  Returns the cdf and the decomposition.
    """
    p = dict(params)
    noise = 2.0 * float(p.get("gamma", 1.0))
    box = TruncationDomain(x_min=_REF_X_MIN, x_max=x_from_z(z_max, noise),
                           n=_REF_N)
    model = preset_model(
        {"logistic_branching": "logistic", "pure_branching": "linear"}[kind],
        "growth", {"r": float(p.get("lam", 1.0)) - float(p.get("mu", 1.0)),
                   "c": float(p.get("c", 1.0)), "gamma": noise})
    sd = build_and_solve(model.drift, box, K=_REF_K, horizon=t)
    try:
        law = conditional_density(sd, t, x_from_z(z0, noise))
    except TailDominatedError as exc:
        raise TailDominatedError(exc.t, exc.t_min, exc.K,
                                 "use t >= t_min") from None
    S, zs = law.survival, z_from_x(law.grid, noise)
    return (lambda z: 1.0 - S + S * np.interp(z, zs, law.cdf, left=0.0),
            sd)


def scaling_limit_check(kind, params, N_list, z0, t) -> ScalingReport:
    """Endpoint laws of the lattice families against the diffusion's.

    For each N the exact lattice law (atom at 0 included), truncated at
    M, is compared with the limit diffusion's exact law at the same time
    through the sup distance between their cdfs, taken on both sides of
    every lattice step (the diffusion's cdf is continuous past its atom
    at 0); the distances should shrink as N grows.
    """
    N_list = [int(N) for N in N_list]
    if len(N_list) < 1 or any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise PreconditionError("N_list must be strictly increasing")
    laws, solves = zip(*(_lattice_solve(preset_family(kind, params, N),
                                        z0, t) for N in N_list))
    G, sd = _diffusion_cdf(
        kind, params, z0, t,
        max((len(law) - 1) / N for N, law in zip(N_list, laws)))
    rows = []
    for N, law in zip(N_list, laws):
        F, g = np.cumsum(law), G(np.arange(len(law)) / N)
        ks = np.max(np.abs(np.concatenate([F - g, F[:-1] - g[1:]])))
        rows.append((N, float(ks), len(law) - 1))
    return ScalingReport(
        rows=tuple(rows), reference_levels=sd.K,
        eigen_residual=max(sd.eigen_residual,
                           *(s.residual for s in solves)),
        orthonormality_defect=max(sd.orthonormality_defect,
                                  *(s.defect for s in solves)))


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

    S_trail, A_trail, En_trail = [], [], []
    # suffix mass over the full range, for the mean-absorption formula
    suffix_full = np.full(n_max + 1, -np.inf)
    suffix_full[n_max - 1:0:-1] = np.logaddexp.accumulate(log_pi[:0:-1])
    E1_total = safe_exp_sum(log_pi)
    with np.errstate(over="ignore", invalid="ignore"):
        en_terms = np.exp(log_inv[:-1] + suffix_full[1:-1])
    en_cum = np.cumsum(en_terms)

    for cut in cutoffs:
        lp = log_pi[:cut]
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
        E1T0_value=E1_total,
        sure_absorption=sure, verdict=verdict, agreement_iii_iv=agreement)
