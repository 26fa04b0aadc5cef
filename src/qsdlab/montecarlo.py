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

from . import rng
from .errors import DomainError, PreconditionError
from .model import (DriftField, GrowthModel, drift_from_growth, panel_gl10,
                    x_from_z, z_from_x)
from .quadrature import QuadratureSpec, integrate
from .spectral import SpectralDecomposition, YaglomMeasure

_CHUNK = 512              # steps drawn per RNG refill


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

    def problems(self):
        """(field, complaint) for every field outside its range."""
        rules = ((self.dt > 0, "dt", "must be positive"),
                 (self.dt < self.t_max < np.inf, "t_max",
                  "must exceed dt and be finite"),
                 (self.n_paths >= 1, "n_paths", "must be at least 1"),
                 (self.absorb_threshold > 0, "absorb_threshold",
                  "must be positive"),
                 (self.record_dt is None or 0 < self.record_dt < np.inf,
                  "record_dt", "must be positive and finite when given"),
                 (self.block_size >= 1, "block_size", "must be at least 1"),
                 (self.crn_substeps >= 1, "crn_substeps",
                  "must be at least 1"))
        return [(name, f"{rule}, got {getattr(self, name)!r}")
                for ok, name, rule in rules if not ok]

    def validate(self):
        problems = self.problems()
        if problems:
            raise PreconditionError("; ".join(f"{name} {text}"
                                              for name, text in problems))


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
# the path engine: one Euler-Maruyama stepper, absorbing or reflecting

def _record_steps(cfg):
    """Snapshot step indices: always step 0 and the final step."""
    n_steps = int(np.ceil(cfg.t_max / cfg.dt - 1e-12))
    if cfg.record_dt is None:
        every = max(1, n_steps // 128)
    else:
        every = max(1, int(round(cfg.record_dt / cfg.dt)))
    steps = list(range(0, n_steps, every))
    if steps[-1] != n_steps:
        steps.append(n_steps)
    return np.asarray(steps, dtype=np.int64)


def _euler_paths(v, x0, cfg, edges=None):
    """Ensemble of x' = x + v(x) dt + sqrt(dt) N, one stream per path.

    Without edges the paths are absorbed: when a step lands at or below
    cfg.absorb_threshold (dated by linear interpolation), when a step is
    not finite (dated at mid-step), and, with cfg.bridge_correction, with
    the pinned-path crossing probability exp(-2 (x - d)(x' - d)/dt) for
    steps that stay above it.  With edges (lo, hi) the paths live forever
    and excursions past an edge are mirrored back inside.  Returns the
    read-only (times, states, T0) and the number of reflections.
    """
    cfg.validate()
    try:
        x0 = np.broadcast_to(np.asarray(x0, dtype=float), (cfg.n_paths,))
    except ValueError:
        raise PreconditionError("x0 must be a scalar or one value per path")
    if not np.all(np.isfinite(x0)):
        raise DomainError("initial states must be finite")
    if edges is None:
        if np.any(x0 <= cfg.absorb_threshold):
            raise PreconditionError(
                "every initial state must exceed the absorption threshold")
    elif np.any((x0 <= edges[0]) | (x0 >= edges[1])):
        raise PreconditionError("initial states must lie inside the "
                                "spectral grid")

    rec_steps = _record_steps(cfg)
    times = rec_steps * cfg.dt
    states = np.zeros((cfg.n_paths, len(rec_steps)))
    T0 = np.full(cfg.n_paths, np.inf)
    reflections = 0
    for lo in range(0, cfg.n_paths, cfg.block_size):
        hi = min(lo + cfg.block_size, cfg.n_paths)
        reflections += _march_block(v, x0[lo:hi], lo, cfg, edges, rec_steps,
                                    states[lo:hi], T0[lo:hi])
    for arr in (times, states, T0):
        arr.setflags(write=False)
    return times, states, T0, reflections


def _march_block(v, x0, first, cfg, edges, rec_steps, states, T0):
    """Step paths first, first + 1, ... into their rows of states and T0.

    Only live paths are stepped and refilled: ids lists them (row in the
    block) and x holds their states.  A dead path's stream is never read
    again, so dropping it leaves every other path's draws unchanged.
    Returns the number of reflections.
    """
    dt, delta, k = cfg.dt, cfg.absorb_threshold, cfg.crn_substeps
    sqdt, sqk = np.sqrt(dt), np.sqrt(float(k))
    bridge = edges is None and cfg.bridge_correction
    B = len(x0)
    gens = [rng.stream(cfg.seed, first + i) for i in range(B)]
    ugens = ([rng.stream(cfg.seed, first + i, rng.UNIFORM) for i in range(B)]
             if bridge else None)
    raw = np.empty((B, _CHUNK * k))
    unif = np.empty((B, _CHUNK)) if bridge else None

    ids = np.arange(B)
    x = np.array(x0, dtype=float)
    states[:, 0] = x
    rp = 1
    reflections = 0
    n_steps = int(rec_steps[-1])
    for start in range(0, n_steps, _CHUNK):
        m = min(_CHUNK, n_steps - start)
        n = len(ids)
        for r, i in enumerate(ids):
            gens[i].standard_normal(out=raw[r, :m * k])
            if bridge:
                ugens[i].random(out=unif[r, :m])
        noise = (raw[:n, :m * k].reshape(n, m, k).sum(axis=2) / sqk
                 if k > 1 else raw)
        row = np.arange(n)                 # each live path's buffer row
        for j in range(m):
            s = start + j
            with np.errstate(all="ignore"):
                xn = x + v(x) * dt + sqdt * noise[row, j]
            if edges is None:
                t = s * dt
                bad = ~np.isfinite(xn)
                hit = (xn <= delta) & ~bad
                dead = hit | bad
                if np.any(bad):
                    T0[ids[bad]] = t + 0.5 * dt
                if np.any(hit):
                    frac = (x[hit] - delta) / np.maximum(x[hit] - xn[hit],
                                                         1e-300)
                    T0[ids[hit]] = t + dt * np.clip(frac, 0.0, 1.0)
                if bridge:
                    open_ = np.nonzero(~dead)[0]
                    # crossing probability for a pinned Brownian path
                    pcross = np.exp(-2.0 * (x[open_] - delta)
                                    * (xn[open_] - delta) / dt)
                    bhit = open_[unif[row[open_], j] < pcross]
                    if bhit.size:
                        T0[ids[bhit]] = t + 0.5 * dt
                        dead[bhit] = True
                if np.any(dead):
                    live = ~dead
                    ids, row, xn = ids[live], row[live], xn[live]
                    if not ids.size:
                        return reflections
            else:
                out_lo = xn < edges[0]
                out_hi = xn > edges[1]
                if np.any(out_lo) or np.any(out_hi):
                    reflections += int(np.count_nonzero(out_lo)
                                       + np.count_nonzero(out_hi))
                    xn[out_lo] = 2.0 * edges[0] - xn[out_lo]
                    xn[out_hi] = 2.0 * edges[1] - xn[out_hi]
                    np.clip(xn, edges[0], edges[1], out=xn)
            x = xn
            if rec_steps[rp] == s + 1:
                states[ids, rp] = x
                rp += 1
    return reflections


def simulate_x(d: DriftField, x0, cfg: SimConfig) -> PathBatch:
    """Euler-Maruyama ensemble for dX = dB - q(X) dt absorbed near 0.

    x0 may be a scalar or one value per path.  Absorption is declared
    when a step lands at or below the threshold or is not finite, and
    additionally (when bridge_correction is on) with the pinned-path
    crossing probability exp(-2 (X_t - d)(X_{t+dt} - d)/dt) for steps
    that stay above it.  Identical (seed, n_paths, dt) reproduce the
    ensemble bit for bit regardless of blocking: every path owns
    counter-based substreams keyed by (seed, path index).
    """
    times, states, T0, _ = _euler_paths(
        lambda x: -np.asarray(d.q(x), dtype=float), x0, cfg)
    censored = np.mean(~np.isfinite(T0))
    if censored > 0.9:
        warnings.warn(
            f"{100 * censored:.0f}% of paths were still alive at t_max; "
            "absorption statistics will be censoring-dominated",
            stacklevel=2)
    return PathBatch(scheme="em-x", times=times, states=states, T0=T0)


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
    if np.all(z0 == 0.0):
        # already extinct: every path sits at the absorbing state
        times = _record_steps(cfg) * cfg.dt
        states = np.zeros((cfg.n_paths, len(times)))
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
    gen = rng.stream(seed, 0, rng.UNIFORM)
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
    logeta = 0.5 * s.Qgrid + np.log(np.maximum(np.abs(s.psis[:, 0]), 1e-280))
    dlog = PchipInterpolator(s.grid, logeta).derivative()

    def v(x):
        return -np.asarray(d.q(x), dtype=float) + dlog(x)

    times, states, T0, reflections = _euler_paths(
        v, x0, cfg, edges=(float(s.grid[0]), float(s.grid[-1])))
    if reflections:
        warnings.warn(f"{reflections} excursions were reflected at the "
                      "spectral-grid edges", stacklevel=2)
    return PathBatch(scheme="qprocess", times=times, states=states, T0=T0)


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
    J_panels = panel_gl10(f, nodes[:-1], nodes[1:])
    J_nodes = np.concatenate([[0.0], np.cumsum(J_panels)])
    J_spline = CubicSpline(nodes, J_nodes)

    def emj(z):
        return np.exp(-J_spline(z))

    I_panels = panel_gl10(emj, nodes[:-1], nodes[1:])
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
        return float(panel_gl10(emj, y, nodes[i])) + float(I_nodes[i])

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
