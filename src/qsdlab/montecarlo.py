"""Path simulation for the absorbed diffusions and their conditionings.

Simulates the unit-diffusion process dX = dB - q(X) dt with absorption
below a small threshold, estimates survivor-conditioned laws and decay
rates from path ensembles, runs the never-absorbed companion process by
an eigenfunction change of drift, and builds the drift of a
supercritical population model conditioned on eventual extinction.
"""

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import CubicSpline, PchipInterpolator

from .errors import DomainError, PreconditionError
from .model import DriftField, GrowthModel, drift_from_growth, x_from_z, z_from_x
from .quadrature import QuadratureSpec, integrate
from .spectral import SpectralDecomposition, YaglomMeasure

_MASK64 = (1 << 64) - 1
_CHUNK = 512              # steps drawn per RNG refill
_UNIFORM_REGION = np.uint64(1) << np.uint64(62)
_RESCUE_REGION = np.uint64(2) << np.uint64(62)
_MAX_HALVINGS = 10


# ---------------------------------------------------------------------------
# configuration and results

@dataclass(frozen=True)
class SimConfig:
    """Step-level controls shared by every simulation entry point."""

    dt: float
    t_max: float
    n_paths: int
    seed: int
    absorb_threshold: float = 1e-4
    bridge_correction: bool = True
    record_dt: Optional[float] = None   # None: about 128 snapshots
    block_size: int = 4096
    crn_substeps: int = 1

    # crn_substeps pools that many Gaussian draws into each step's
    # increment, so runs at (dt, 2k) and (dt/2, k) consume the per-path
    # streams identically and ride the same Brownian path - the standard
    # common-random-numbers setup for step-size sensitivity audits.

    def validate(self):
        problems = []
        if not self.dt > 0:
            problems.append(f"dt must be positive, got {self.dt!r}")
        if not self.t_max > self.dt:
            problems.append("t_max must exceed dt")
        if self.n_paths < 1:
            problems.append(f"need at least one path, got {self.n_paths}")
        if not self.absorb_threshold > 0:
            problems.append("absorb_threshold must be positive")
        if self.record_dt is not None and not self.record_dt > 0:
            problems.append("record_dt must be positive when given")
        if self.block_size < 1:
            problems.append("block_size must be positive")
        if self.crn_substeps < 1:
            problems.append("crn_substeps must be a positive integer")
        if problems:
            raise PreconditionError("; ".join(problems))


@dataclass(frozen=True)
class PathBatch:
    """An ensemble of trajectories on a shared snapshot grid.

    states holds the recorded positions, one row per path, frozen at 0
    from absorption onward.  T0 is the per-path absorption time with an
    infinity sentinel for paths still alive at t_max.
    """

    scheme: str
    times: np.ndarray
    states: np.ndarray
    T0: np.ndarray

    @property
    def n_paths(self):
        return self.states.shape[0]

    def n_alive(self, t):
        return int(np.count_nonzero(self.T0 > t))

    def survival(self, ts):
        ts = np.asarray(ts, dtype=float)
        frac = np.mean(self.T0[None, :] > np.atleast_1d(ts)[:, None], axis=1)
        return frac if ts.ndim else float(frac[0])


@dataclass(frozen=True)
class EmpiricalLaw:
    """Survivor-conditioned histogram with per-bin sampling error."""

    edges: np.ndarray
    masses: np.ndarray
    n_survivors: int
    stderr: np.ndarray
    status: str = "ok"          # "ok" | "empty"

    def ecdf(self):
        """Cumulative mass at every bin edge."""
        return np.concatenate([[0.0], np.cumsum(self.masses)])


@dataclass(frozen=True)
class LambdaEstimate:
    rate: float
    stderr: float
    r_squared: float
    window: tuple
    n_points: int


# ---------------------------------------------------------------------------
# counter-based streams: one key per (seed, path), disjoint counter regions
# for the Gaussian draws, the crossing-test uniforms, and step rescues

def _stream_key(seed, path):
    return ((int(seed) & _MASK64) << 64) | (int(path) & _MASK64)


def _normal_gen(seed, path):
    return np.random.Generator(np.random.Philox(key=_stream_key(seed, path)))


def _region_gen(seed, path, region):
    counter = np.zeros(4, dtype=np.uint64)
    counter[3] = region
    return np.random.Generator(
        np.random.Philox(counter=counter, key=_stream_key(seed, path)))


def _record_steps(n_steps, dt, record_dt):
    """Snapshot step indices: always step 0 and the final step."""
    if record_dt is None:
        every = max(1, n_steps // 128)
    else:
        every = max(1, int(round(record_dt / dt)))
    steps = list(range(0, n_steps, every))
    if steps[-1] != n_steps:
        steps.append(n_steps)
    return np.asarray(steps, dtype=np.int64)


def _rescue_step(d, x, dt, delta, gen):
    """Retry one step with halved substeps; (new_state, absorbed).

    Used when a full step produced a non-finite drift or state.  Gives up
    after 10 halvings and declares the path absorbed.
    """
    for halving in range(1, _MAX_HALVINGS + 1):
        n_sub = 2 ** halving
        h = dt / n_sub
        sq = np.sqrt(h)
        y = float(x)
        ok = True
        for _ in range(n_sub):
            with np.errstate(all="ignore"):
                qv = float(d.q(y))
            if not np.isfinite(qv):
                ok = False
                break
            y = y - qv * h + sq * gen.standard_normal()
            if not np.isfinite(y):
                ok = False
                break
            if y <= delta:
                return 0.0, True
        if ok:
            return y, False
    return 0.0, True


def _simulate_block(d, x0, paths, cfg, n_steps, rec_steps):
    """March one block of paths; returns (states, T0)."""
    B = len(paths)
    delta = cfg.absorb_threshold
    dt = cfg.dt
    sqdt = np.sqrt(dt)

    gens = [_normal_gen(cfg.seed, p) for p in paths]
    ugens = ([_region_gen(cfg.seed, p, _UNIFORM_REGION) for p in paths]
             if cfg.bridge_correction else None)
    rescue_gens = {}

    x = np.array(x0, dtype=float, copy=True)
    T0 = np.full(B, np.inf)
    alive = np.ones(B, dtype=bool)
    states = np.zeros((B, len(rec_steps)))
    k = cfg.crn_substeps
    raw_buf = np.empty((B, _CHUNK * k))
    unif_buf = np.empty((B, _CHUNK)) if cfg.bridge_correction else None
    sqk = np.sqrt(float(k))

    rp = 0
    if rec_steps[rp] == 0:
        states[:, rp] = x
        rp += 1

    for start in range(0, n_steps, _CHUNK):
        m = min(_CHUNK, n_steps - start)
        for i in range(B):
            gens[i].standard_normal(out=raw_buf[i, :m * k])
            if ugens is not None:
                ugens[i].random(out=unif_buf[i, :m])
        norm_buf = (raw_buf[:, :m * k].reshape(B, m, k).sum(axis=2) / sqk
                    if k > 1 else raw_buf)

        for j in range(m):
            s = start + j
            act = np.nonzero(alive)[0]
            if act.size:
                t = s * dt
                xa = x[act]
                with np.errstate(all="ignore"):
                    qa = np.asarray(d.q(xa), dtype=float)
                    xn = xa - qa * dt + sqdt * norm_buf[act, j]
                bad = ~np.isfinite(xn)
                if np.any(bad):
                    for k in np.nonzero(bad)[0]:
                        p = paths[act[k]]
                        if p not in rescue_gens:
                            rescue_gens[p] = _region_gen(cfg.seed, p,
                                                         _RESCUE_REGION)
                        y, dead = _rescue_step(d, xa[k], dt, delta,
                                               rescue_gens[p])
                        xn[k] = 0.0 if dead else y
                        if dead:
                            T0[act[k]] = t + 0.5 * dt

                hit = xn <= delta
                hit &= ~np.isfinite(T0[act])  # rescue already dated its hits
                if np.any(hit):
                    xa_h = xa[hit]
                    xn_h = xn[hit]
                    frac = (xa_h - delta) / np.maximum(xa_h - xn_h, 1e-300)
                    T0[act[hit]] = t + dt * np.clip(frac, 0.0, 1.0)
                dead = hit | ~np.isfinite(xn) | (T0[act] < np.inf)

                if cfg.bridge_correction:
                    open_ = ~dead
                    if np.any(open_):
                        # crossing probability for a pinned Brownian path
                        pcross = np.exp(-2.0 * (xa[open_] - delta)
                                        * (xn[open_] - delta) / dt)
                        bhit = unif_buf[act[open_], j] < pcross
                        if np.any(bhit):
                            idx = np.nonzero(open_)[0][bhit]
                            T0[act[idx]] = t + 0.5 * dt
                            dead[idx] = True

                xn[dead] = 0.0
                x[act] = xn
                alive[act] = ~dead

            while rp < len(rec_steps) and rec_steps[rp] == s + 1:
                states[:, rp] = x
                rp += 1

    # anything that never crossed stays censored at t_max
    return states, T0


def simulate_x(d: DriftField, x0, cfg: SimConfig) -> PathBatch:
    """Euler-Maruyama ensemble for dX = dB - q(X) dt absorbed near 0.

    x0 may be a scalar or one value per path.  Absorption is declared
    when a step lands at or below the threshold, and additionally (when
    bridge_correction is on) with the pinned-path crossing probability
    exp(-2 (X_t - d)(X_{t+dt} - d)/dt) for steps that stay above it.
    Identical (seed, n_paths, dt) reproduce the ensemble bit for bit
    regardless of blocking: every path owns counter-based substreams
    keyed by (seed, path index).
    """
    cfg.validate()
    try:
        x0 = np.broadcast_to(np.asarray(x0, dtype=float),
                             (cfg.n_paths,)).copy()
    except ValueError:
        raise PreconditionError("x0 must be a scalar or one value per path")
    if not np.all(np.isfinite(x0)):
        raise DomainError("initial states must be finite")
    if np.any(x0 <= cfg.absorb_threshold):
        raise PreconditionError(
            "every initial state must exceed the absorption threshold")

    n_steps = int(np.ceil(cfg.t_max / cfg.dt - 1e-12))
    rec_steps = _record_steps(n_steps, cfg.dt, cfg.record_dt)
    times = rec_steps * cfg.dt

    all_states = np.empty((cfg.n_paths, len(rec_steps)))
    all_T0 = np.empty(cfg.n_paths)
    for lo in range(0, cfg.n_paths, cfg.block_size):
        hi = min(lo + cfg.block_size, cfg.n_paths)
        paths = np.arange(lo, hi, dtype=np.int64)
        st, t0 = _simulate_block(d, x0[lo:hi], paths, cfg, n_steps, rec_steps)
        all_states[lo:hi] = st
        all_T0[lo:hi] = t0

    censored = np.mean(~np.isfinite(all_T0))
    if censored > 0.9:
        warnings.warn(
            f"{100 * censored:.0f}% of paths were still alive at t_max; "
            "absorption statistics will be censoring-dominated",
            stacklevel=2)

    for arr in (all_states, all_T0, times):
        arr.setflags(write=False)
    return PathBatch(scheme="em-x", times=times, states=all_states,
                     T0=all_T0)


def simulate_z(g: GrowthModel, z0, cfg: SimConfig) -> PathBatch:
    """Population-scale ensemble, marched in the unit-diffusion coordinates.

    The square-root state map removes the degenerate diffusion
    coefficient at 0, so the stepping error near extinction is governed
    by the drift alone; states are mapped back to the population scale.
    """
    cfg.validate()
    try:
        z0 = np.broadcast_to(np.asarray(z0, dtype=float), (cfg.n_paths,))
    except ValueError:
        raise PreconditionError("z0 must be a scalar or one value per path")
    if np.any(z0 < 0):
        raise DomainError("population states must be nonnegative")
    n_steps = int(np.ceil(cfg.t_max / cfg.dt - 1e-12))
    rec_steps = _record_steps(n_steps, cfg.dt, cfg.record_dt)
    times = rec_steps * cfg.dt

    if np.all(z0 == 0.0):
        # already extinct: every path sits at the absorbing state
        states = np.zeros((cfg.n_paths, len(rec_steps)))
        T0 = np.zeros(cfg.n_paths)
        for arr in (states, T0, times):
            arr.setflags(write=False)
        return PathBatch(scheme="em-z", times=times, states=states, T0=T0)

    d = drift_from_growth(g)
    batch = simulate_x(d, x_from_z(z0, g.gamma), cfg)
    zstates = z_from_x(batch.states, g.gamma)
    zstates.setflags(write=False)
    return PathBatch(scheme="em-z", times=batch.times, states=zstates,
                     T0=batch.T0)


# ---------------------------------------------------------------------------
# ensemble summaries

def conditional_histogram(b: PathBatch, t, edges) -> EmpiricalLaw:
    """Histogram of survivors at the recorded time nearest t.

    Survivor states are clipped into the edge range so the conditioned
    masses always sum to one; the two boundary bins absorb any excess.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or len(edges) < 2 or np.any(np.diff(edges) <= 0):
        raise PreconditionError("edges must be strictly increasing")
    i = int(np.argmin(np.abs(b.times - t)))
    surv = b.T0 > b.times[i]
    n = int(np.count_nonzero(surv))
    if n == 0:
        z = np.zeros(len(edges) - 1)
        return EmpiricalLaw(edges=edges, masses=z, n_survivors=0,
                            stderr=z.copy(), status="empty")
    vals = np.clip(b.states[surv, i], edges[0], edges[-1])
    counts, _ = np.histogram(vals, bins=edges)
    masses = counts / n
    stderr = np.sqrt(masses * (1.0 - masses) / n)
    return EmpiricalLaw(edges=edges, masses=masses, n_survivors=n,
                        stderr=stderr)


def ks_distance(law: EmpiricalLaw, cdf: Callable) -> float:
    """Sup gap between the law's edge-wise cdf and a reference cdf."""
    if law.status == "empty":
        raise PreconditionError("no survivors: the conditioned law is empty")
    ref = np.asarray(cdf(law.edges), dtype=float)
    return float(np.max(np.abs(law.ecdf() - ref)))


def yaglom_cdf(ym: YaglomMeasure) -> Callable:
    """The measure's cdf as an interpolating callable (0 left, 1 right)."""
    def F(x):
        x = np.asarray(x, dtype=float)
        out = np.interp(x, ym.grid, ym.cdf, left=0.0, right=1.0)
        return float(out) if out.ndim == 0 else out
    return F


def sample_yaglom(ym: YaglomMeasure, n, seed) -> np.ndarray:
    """Inverse-cdf draws from a computed quasi-stationary profile."""
    gen = _region_gen(seed, 0, _UNIFORM_REGION)
    return np.interp(gen.random(int(n)), ym.cdf, ym.grid)


def estimate_lambda1(b: PathBatch, window) -> LambdaEstimate:
    """Decay rate of the empirical survival on a time window.

    Ordinary least squares on log survival over the recorded times inside
    the window; the sign-flipped slope estimates the leading decay rate.
    """
    lo, hi = float(window[0]), float(window[1])
    if not hi > lo >= 0:
        raise PreconditionError(f"bad window {window!r}")
    sel = (b.times >= lo) & (b.times <= hi)
    ts = b.times[sel]
    if len(ts) < 3:
        raise PreconditionError("window covers fewer than 3 recorded times")
    counts = np.array([np.count_nonzero(b.T0 > t) for t in ts], dtype=float)
    if counts[-1] < 100:
        raise PreconditionError(
            f"only {int(counts[-1])} survivors at the window end; "
            "need at least 100 for a usable rate")
    frac = counts / b.n_paths
    y = np.log(frac)
    n = len(ts)
    slope, intercept = np.polyfit(ts, y, 1)
    fit = slope * ts + intercept
    ssr = float(np.sum((y - fit) ** 2))
    sst = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if sst == 0 else 1.0 - ssr / sst
    denom = float(np.sum((ts - np.mean(ts)) ** 2))
    # the curve's points share paths: log-survival has nested increments,
    # so cov(y_i, y_j) = (1 - S(t_min(i,j))) / (n S(t_min(i,j))) and the
    # naive residual formula understates the slope error badly
    w = (ts - np.mean(ts)) / denom
    v = (1.0 - frac) / (b.n_paths * frac)
    cov = v[np.minimum.outer(np.arange(n), np.arange(n))]
    stderr = float(np.sqrt(max(w @ cov @ w, 0.0)))
    if r2 < 0.99:
        warnings.warn(
            f"log survival is not linear on {window} (R^2 = {r2:.4f}); "
            "widen or shift the window past the transient",
            stacklevel=2)
    return LambdaEstimate(rate=float(-slope), stderr=float(stderr),
                          r_squared=float(r2), window=(lo, hi), n_points=n)


# ---------------------------------------------------------------------------
# the never-absorbed companion process

def simulate_qprocess(d: DriftField, s: SpectralDecomposition, x0,
                      cfg: SimConfig) -> PathBatch:
    """Ensemble of the process conditioned to survive forever.

    The drift gains the logarithmic gradient of the ground profile,
    interpolated monotonically in log scale so the added term stays
    smooth and the profile's positivity is never violated.  Paths are
    never absorbed; excursions past the spectral grid are reflected.
    """
    cfg.validate()
    try:
        x0 = np.broadcast_to(np.asarray(x0, dtype=float), (cfg.n_paths,))
    except ValueError:
        raise PreconditionError("x0 must be a scalar or one value per path")
    g_lo, g_hi = float(s.grid[0]), float(s.grid[-1])
    if np.any((x0 <= g_lo) | (x0 >= g_hi)):
        raise PreconditionError("initial states must lie inside the "
                                "spectral grid")
    logeta = 0.5 * s.Qgrid + np.log(np.maximum(np.abs(s.psis[:, 0]), 1e-280))
    dlog = PchipInterpolator(s.grid, logeta).derivative()

    n_steps = int(np.ceil(cfg.t_max / cfg.dt - 1e-12))
    rec_steps = _record_steps(n_steps, cfg.dt, cfg.record_dt)
    times = rec_steps * cfg.dt
    sqdt = np.sqrt(cfg.dt)
    reflections = 0

    all_states = np.empty((cfg.n_paths, len(rec_steps)))
    for lo in range(0, cfg.n_paths, cfg.block_size):
        hi = min(lo + cfg.block_size, cfg.n_paths)
        paths = np.arange(lo, hi, dtype=np.int64)
        gens = [_normal_gen(cfg.seed, p) for p in paths]
        B = hi - lo
        x = np.array(x0[lo:hi], dtype=float, copy=True)
        k = cfg.crn_substeps
        raw_buf = np.empty((B, _CHUNK * k))
        sqk = np.sqrt(float(k))
        rp = 0
        if rec_steps[rp] == 0:
            all_states[lo:hi, rp] = x
            rp += 1
        for start in range(0, n_steps, _CHUNK):
            m = min(_CHUNK, n_steps - start)
            for i in range(B):
                gens[i].standard_normal(out=raw_buf[i, :m * k])
            norm_buf = (raw_buf[:, :m * k].reshape(B, m, k).sum(axis=2) / sqk
                        if k > 1 else raw_buf)
            for j in range(m):
                with np.errstate(all="ignore"):
                    drift = -np.asarray(d.q(x), dtype=float) + dlog(x)
                x = x + drift * cfg.dt + sqdt * norm_buf[:, j]
                out_lo = x < g_lo
                out_hi = x > g_hi
                if np.any(out_lo) or np.any(out_hi):
                    reflections += int(np.count_nonzero(out_lo)
                                       + np.count_nonzero(out_hi))
                    x[out_lo] = 2.0 * g_lo - x[out_lo]
                    x[out_hi] = 2.0 * g_hi - x[out_hi]
                    np.clip(x, g_lo, g_hi, out=x)
                s_idx = start + j
                while rp < len(rec_steps) and rec_steps[rp] == s_idx + 1:
                    all_states[lo:hi, rp] = x
                    rp += 1

    if reflections:
        warnings.warn(f"{reflections} excursions were reflected at the "
                      "spectral-grid edges", stacklevel=2)
    T0 = np.full(cfg.n_paths, np.inf)
    for arr in (all_states, T0, times):
        arr.setflags(write=False)
    return PathBatch(scheme="qprocess", times=times, states=all_states,
                     T0=T0)


# ---------------------------------------------------------------------------
# conditioning a supercritical population model on extinction

@dataclass(frozen=True)
class ConditionedGrowth(GrowthModel):
    """Growth model conditioned on eventual extinction.

    Carries the extinction-probability profile u (normalized to u(0)=1)
    and the drift ratio (conditioned drift)/(-original drift) at decade
    probes, which approaches 1 when conditioning simply flips the sign
    of the growth at large states.
    """

    probe_points: tuple = ()
    drift_ratio: tuple = ()
    u: Optional[Callable] = None


_GL10_NODES, _GL10_WEIGHTS = np.polynomial.legendre.leggauss(10)


def _panel_gl10(f, a, b):
    """Fixed 10-point Gauss-Legendre on [a, b]; a, b may be arrays."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vals = f(mid[..., None] + half[..., None] * _GL10_NODES)
    return half * (vals @ _GL10_WEIGHTS)


def condition_on_extinction(g: GrowthModel,
                            quad: Optional[QuadratureSpec] = None
                            ) -> ConditionedGrowth:
    """Drift of the population model conditioned to die out.

    Requires growth strong enough that survival has positive probability
    (probed as h(z)/sqrt(z) increasing without bound); the conditioned
    drift is h(y) + gamma y u'(y)/u(y) with u the extinction probability,
    computed from the cumulated growth-to-fluctuation ratio.
    """
    quad = quad or QuadratureSpec(rel_tol=1e-12, abs_tol=1e-15)
    gamma = g.gamma
    h = g.h

    # growth-strength probe: h(z)/sqrt(z) must climb without sign of a cap
    zs = np.array([1e2, 1e4, 1e6])
    with np.errstate(all="ignore"):
        ratio = np.asarray(h(zs), dtype=float) / np.sqrt(zs)
    if not (np.all(np.isfinite(ratio)) and np.all(np.diff(ratio) > 0)
            and ratio[-1] > 1.0):
        raise PreconditionError(
            "growth is too weak for certain survival: h(z)/sqrt(z) must "
            f"increase without bound, probed values {ratio}")

    def f(z):
        # integrand of the cumulated ratio J; finite at 0 since h(0)=0
        z = np.asarray(z, dtype=float)
        with np.errstate(all="ignore"):
            out = 2.0 * np.asarray(h(z), dtype=float) / (gamma * z)
        return np.where(z == 0.0, 2.0 * np.asarray(g.h_prime(0.0)) / gamma,
                        out)

    # locate the scale beyond which exp(-J) is dead (J > 750)
    z_hi = 8.0 / gamma
    head = integrate(f, 0.0, z_hi, spec=quad)
    if not head:
        raise PreconditionError("cumulated growth ratio did not integrate "
                                "over the head interval")
    J_hi = head.value
    for _ in range(60):
        if J_hi > 750.0:
            break
        step = integrate(f, z_hi, 2.0 * z_hi, spec=quad)
        if not step or not np.isfinite(step.value) or step.value <= 0:
            raise PreconditionError(
                "cumulated growth ratio stopped increasing; the "
                "extinction profile is not integrable")
        J_hi += step.value
        z_hi *= 2.0
    else:
        raise PreconditionError(
            "exp(-J) shows no decay out to huge states; the extinction "
            "profile is not integrable")

    # cumulative J on a dense log grid, then its decreasing tail integral
    z_lo = min(1e-8, z_hi * 1e-12)
    nodes = np.concatenate([[0.0],
                            np.geomspace(z_lo, z_hi, 4000)])
    J_panels = _panel_gl10(f, nodes[:-1], nodes[1:])
    J_nodes = np.concatenate([[0.0], np.cumsum(J_panels)])
    J_spline = CubicSpline(nodes, J_nodes)

    def emj(z):
        return np.exp(-J_spline(z))

    I_panels = _panel_gl10(emj, nodes[:-1], nodes[1:])
    # suffix sums: I_nodes[i] = integral of exp(-J) from nodes[i] to z_hi
    I_nodes = np.concatenate([np.cumsum(I_panels[::-1])[::-1], [0.0]])
    u_total = float(I_nodes[0])
    if not (np.isfinite(u_total) and u_total > 0):
        raise PreconditionError("extinction profile integral is not a "
                                "positive finite number")

    def tail_integral(y):
        y = float(y)
        if y >= z_hi:
            return 0.0
        i = int(np.searchsorted(nodes, y, side="right"))
        i = min(i, len(nodes) - 1)
        return float(_panel_gl10(emj, y, nodes[i])) + float(I_nodes[i])

    def log_slope(y):
        # u'(y)/u(y); Laplace asymptotics past the dead zone
        y = float(y)
        if y >= z_hi:
            return -float(f(y))
        I = tail_integral(y)
        if I <= 0.0:
            return -float(f(y))
        return -float(np.exp(-J_spline(y))) / I

    def u(y):
        y = np.asarray(y, dtype=float)
        out = np.array([tail_integral(v) / u_total
                        for v in np.atleast_1d(y)])
        return float(out[0]) if y.ndim == 0 else out

    def h_cond(y):
        y = np.asarray(y, dtype=float)
        flat = np.atleast_1d(y).astype(float)
        out = np.empty_like(flat)
        for i, v in enumerate(flat):
            if v == 0.0:
                out[i] = 0.0
            else:
                out[i] = float(np.asarray(h(v))) + gamma * v * log_slope(v)
        return float(out[0]) if y.ndim == 0 else out.reshape(y.shape)

    def h_cond_prime(y):
        y = np.asarray(y, dtype=float)
        flat = np.atleast_1d(y).astype(float)
        out = np.empty_like(flat)
        for i, v in enumerate(flat):
            if v == 0.0:
                out[i] = float(np.asarray(g.h_prime(0.0)))
                continue
            phi = log_slope(v)
            Jp = float(f(v))
            phi_p = -phi * Jp - phi * phi if v < z_hi else -float(
                (f(v * (1 + 1e-6)) - f(v * (1 - 1e-6))) / (2e-6 * v))
            out[i] = (float(np.asarray(g.h_prime(v))) + gamma * phi
                      + gamma * v * phi_p)
        return float(out[0]) if y.ndim == 0 else out.reshape(y.shape)

    probes = tuple(10.0 ** k for k in range(-1, 5))
    ratios = []
    for p in probes:
        hv = float(np.asarray(h(p)))
        ratios.append(h_cond(p) / (-hv) if hv != 0 else np.nan)

    return ConditionedGrowth(h=h_cond, h_prime=h_cond_prime, gamma=gamma,
                             name=f"conditioned({g.name})",
                             probe_points=probes, drift_ratio=tuple(ratios),
                             u=u)
