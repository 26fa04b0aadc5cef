"""Spectral decomposition of the absorbed generator on a truncated domain.

The generator (1/2) d^2/dx^2 - q d/dx with absorption at 0 is unitarily
equivalent, through multiplication by exp(-Q/2), to a Schrodinger operator
-(1/2) d^2/dx^2 + w with w = (q^2 - q')/2.  That operator is discretized
by a finite-volume scheme on a graded grid with Dirichlet walls at both
truncation points, symmetrized by the cell-length weights, and solved with
the tridiagonal bisection + inverse-iteration eigensolver.

Discrete structure everything downstream relies on: with cell lengths d_i,
the returned psi vectors satisfy sum_i psi_k(i) psi_l(i) d_i = delta_kl to
machine precision, so the eta vectors (eta = exp(Q/2) psi) are orthonormal
in the discrete absorption measure mu_i = d_i exp(-Q(x_i)).  Semigroup
identities (survival started from the quasi-stationary profile, kernel
composition, conditioned-process row sums) then hold exactly on the grid,
and their checks probe floating-point noise only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Optional

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import (IntegrabilityError, PreconditionError,
                     SurvivalUnderflowError, TailDominatedError,
                     TruncationError)
from .model import DriftField, potential
from .quadrature import classify_growth

_PSI_FLOOR = 1e-200          # below this, a mode amplitude is numerical dust
_TAIL_RATIO = 1e10           # kernel refuses t where the dropped tail could
                             # still be within this factor of the lead mode


@dataclass(frozen=True)
class TruncationDomain:
    """Dirichlet box (x_min, x_max) with n interior nodes.

    grid_kind "sqrt" compresses nodes toward the origin (mode amplitudes
    of population-style drifts vanish like a fractional power there);
    "uniform" spaces them evenly.  The sqrt compression bottoms out at the
    scale of x_min itself: clustering finer than the wall position buys no
    resolution (nothing varies below that scale) and inflates the matrix
    norm until eigenvalues drown in roundoff.
    """
    x_min: float
    x_max: float
    n: int = 2048
    grid_kind: str = "sqrt"

    def problems(self):
        """(field, complaint) for every field outside its range."""
        rules = ((0.0 < self.x_min < 1.0, "x_min", "must sit in (0, 1)"),
                 (self.x_max > 1.0, "x_max", "must exceed 1"),
                 (self.n >= 64, "n", "must be at least 64"),
                 (self.grid_kind in ("uniform", "sqrt"), "grid_kind",
                  "must be uniform or sqrt"))
        return [(name, f"{rule}, got {getattr(self, name)!r}")
                for ok, name, rule in rules if not ok]

    def validate(self):
        problems = self.problems()
        if problems:
            raise PreconditionError("; ".join(f"{name} {text}"
                                              for name, text in problems))

    def full_grid(self):
        """All n+2 nodes including the two Dirichlet walls."""
        self.validate()
        u = np.linspace(0.0, 1.0, self.n + 2)
        if self.grid_kind == "sqrt":
            L = self.x_max - self.x_min
            s = self.x_min
            v = np.sqrt(s) + u * (np.sqrt(L + s) - np.sqrt(s))
            return self.x_min + (v * v - s)
        return self.x_min + (self.x_max - self.x_min) * u


def default_domain(d: DriftField, n: int = 2048, x_min: float = 1e-3) -> TruncationDomain:
    """Pick a box large enough that the confinement wall dwarfs the low modes."""
    w = potential(d)
    x_max = 4.0
    while x_max < 512.0:
        wv = float(w(x_max))
        if np.isfinite(wv) and wv > 200.0:
            break
        x_max *= 1.5
    kind = "sqrt" if d.origin_exponent > 0 else "uniform"
    return TruncationDomain(x_min=x_min, x_max=x_max, n=n, grid_kind=kind)


@dataclass(frozen=True)
class SpectralDecomposition:
    domain: TruncationDomain
    drift: DriftField
    K: int
    grid: np.ndarray          # (n,) interior nodes
    cell: np.ndarray          # (n,) finite-volume cell lengths d_i
    lambdas: np.ndarray       # (K,) increasing positive levels
    psis: np.ndarray          # (n, K), sum_i psi_k psi_l d_i = delta_kl
    etas: np.ndarray          # (n, K), eta = exp(Q/2) psi
    Qgrid: np.ndarray         # (n,) potential on the grid
    mu_weights: np.ndarray    # (n,) d_i exp(-Q_i)
    diag: np.ndarray = field(repr=False, default=None)
    off: np.ndarray = field(repr=False, default=None)

    @property
    def lambda1(self):
        return float(self.lambdas[0])

    @cached_property
    def eta_masses(self):
        """(K,) <eta_k, 1> in the absorption measure."""
        return _project(self, 1.0)

    @property
    def eta1_mass(self):
        return float(self.eta_masses[0])

    def node_index(self, x):
        """Nearest interior node to x (vectorized over x)."""
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        idx = np.searchsorted(self.grid, xs)
        idx = np.clip(idx, 1, len(self.grid) - 1)
        left = self.grid[idx - 1]
        right = self.grid[idx]
        out = np.where(xs - left <= right - xs, idx - 1, idx)
        return out if np.ndim(x) else int(out[0])

    def require_time(self, t, K: Optional[int] = None):
        """Refuse t below t_min(K): the dropped modes may still matter."""
        k = self.K if K is None else K
        tm = self.t_min(k)
        if t < tm:
            raise TailDominatedError(t, tm, k)

    def t_min(self, K: Optional[int] = None) -> float:
        """Shortest time the K-mode kernel can honestly represent."""
        k = self.K if K is None else K
        if k < 2:
            return np.inf
        gap = float(self.lambdas[k - 1] - self.lambdas[0])
        if gap <= 0:
            return np.inf
        return float(np.log(_TAIL_RATIO) / gap)


def tridiagonal_modes(diag, off, hint, scale=None, **select):
    """Eigenpairs, lowest first, of the symmetric tridiagonal (diag, off).

    ``select`` goes to scipy's eigh_tridiagonal and picks the levels.  Each
    eigenvector is divided entrywise by ``scale`` when one is given (the
    square roots of a discretised operator's cell weights, which turn
    l2-orthonormal columns into measure-orthonormal profiles), then signed
    so that its largest-amplitude entry is positive.  A ground level that
    is not positive, or two levels within 1e-10 of each other, is not
    resolved: both raise TruncationError, with ``hint`` appended.
    """
    lam, phi = eigh_tridiagonal(diag, off, **select)
    if lam.size and lam[0] <= 0:
        raise TruncationError(
            f"ground level {lam[0]:.6g} is not positive; {hint}")
    gaps = np.diff(lam)
    tol = 1e-10 * np.maximum(1.0, np.abs(lam[:-1]))
    if np.any(gaps < tol):
        k = int(np.argmax(gaps < tol))
        raise TruncationError(
            f"levels {k + 1} and {k + 2} cluster within 1e-10 "
            f"({lam[k]:.12g} vs {lam[k + 1]:.12g}); {hint}")
    if scale is not None:
        phi = phi / scale[:, None]
    top = phi[np.argmax(np.abs(phi), axis=0), np.arange(phi.shape[1])]
    phi[:, top < 0] *= -1.0
    return lam, phi


def build_and_solve(d: DriftField, domain: Optional[TruncationDomain] = None,
                    K: int = 16) -> SpectralDecomposition:
    """Assemble the symmetrized operator and extract the lowest K modes."""
    if domain is None:
        domain = default_domain(d)
    domain.validate()
    if K < 1:
        raise PreconditionError(f"need K >= 1 modes, got {K}")
    if K > domain.n // 4:
        raise PreconditionError(
            f"K={K} modes from n={domain.n} nodes: discrete levels above "
            f"n/4 carry no continuum meaning; enlarge n or reduce K")

    xf = domain.full_grid()
    x = xf[1:-1]
    h = np.diff(xf)                      # n+1 spacings
    dcell = 0.5 * (h[:-1] + h[1:])       # n cell lengths

    with np.errstate(all="ignore"):
        w = np.asarray(potential(d)(x), dtype=float)
    if not np.all(np.isfinite(w)):
        raise TruncationError("confinement term not finite on the grid; "
                              "shrink the box or inspect the drift")

    diag = (1.0 / h[:-1] + 1.0 / h[1:]) / (2.0 * dcell) + w
    off = -1.0 / (2.0 * h[1:-1] * np.sqrt(dcell[:-1] * dcell[1:]))

    lam, psi = tridiagonal_modes(
        diag, off, "enlarge the box or n, or check that the drift is "
        "admissible", scale=np.sqrt(dcell), select="i",
        select_range=(0, K - 1))

    Qg = np.asarray(d.Q(x), dtype=float)
    amp = np.abs(psi)
    tiny = amp < _PSI_FLOOR
    with np.errstate(divide="ignore", over="ignore"):
        eta = np.sign(psi) * np.exp(0.5 * Qg[:, None] + np.log(amp))
    eta[tiny] = 0.0
    if not np.all(np.isfinite(eta)):
        raise TruncationError("mode profile overflowed while unweighting; "
                              "the box extends past representable range")

    return SpectralDecomposition(
        domain=domain, drift=d, K=K, grid=x, cell=dcell,
        lambdas=lam, psis=psi, etas=eta, Qgrid=Qg,
        mu_weights=dcell * np.exp(-Qg), diag=diag, off=off)


def _half_weights(sd: SpectralDecomposition, weights, half=-1):
    return weights * np.exp(half * 0.5 * sd.Qgrid) * sd.cell


def _project(sd: SpectralDecomposition, weights, half=-1) -> np.ndarray:
    """<eta_k, weights> in mu (half=-1), or eta_k against the density
    weights (half=+1), in the half-weighted form (never huge x tiny)."""
    return (sd.psis * _half_weights(sd, weights, half)[:, None]).sum(axis=0)


def _modes(sd: SpectralDecomposition, t: float, K: Optional[int] = None,
           relative: bool = False):
    """k and exp(-lambda_k t) for the lowest k modes (levels measured from
    lambda_1 when relative); refuses k outside 1..sd.K and t < t_min(k)."""
    k = sd.K if K is None else int(K)
    if not 1 <= k <= sd.K:
        raise PreconditionError(f"K={k} not in 1..{sd.K}")
    sd.require_time(t, k)
    lam = sd.lambdas[:k] - sd.lambdas[0] if relative else sd.lambdas[:k]
    return k, np.exp(-lam * t)


# ---------------------------------------------------------------------------
# quasi-stationary profile

@dataclass(frozen=True)
class YaglomMeasure:
    grid: np.ndarray
    density: np.ndarray       # nonnegative, integrates to 1 against cell
    cdf: np.ndarray
    cell: np.ndarray
    mass_norm: float          # <eta_1, 1>_mu before normalization
    lambda1: float            # decay rate the profile belongs to

    def mean(self):
        return float(np.sum(self.grid * self.density * self.cell))

    def quantile(self, p):
        ps = np.atleast_1d(np.asarray(p, dtype=float))
        idx = np.searchsorted(self.cdf, ps)
        idx = np.clip(idx, 0, len(self.grid) - 1)
        out = self.grid[idx]
        return out if np.ndim(p) else float(out[0])


def eta1_mass_trail(sd: SpectralDecomposition):
    """Partial masses of the ground profile on geometric prefixes."""
    cum = np.cumsum(sd.psis[:, 0] * _half_weights(sd, 1.0))
    cuts = []
    partials = []
    for c in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0):
        if c <= sd.grid[0]:
            continue
        if c >= sd.grid[-1]:
            cuts.append(float(sd.grid[-1]))
            partials.append(float(cum[-1]))
            break
        i = int(np.searchsorted(sd.grid, c))
        cuts.append(c)
        partials.append(float(cum[i - 1]))      # c > grid[0], so i >= 1
    return cuts, partials


def yaglom_measure(sd: SpectralDecomposition) -> YaglomMeasure:
    """Normalized ground-mode profile in the absorption measure."""
    cuts, partials = eta1_mass_trail(sd)
    status, growth = classify_growth(cuts, partials,
                                     rel_tol=1e-6, abs_tol=1e-12)
    if status == "diverges":
        raise IntegrabilityError(
            f"ground-profile mass keeps growing across the box "
            f"(growth model: {growth}); the quasi-stationary profile is "
            f"not normalizable for this drift")
    dens = sd.psis[:, 0] * np.exp(-0.5 * sd.Qgrid)
    mass = sd.eta1_mass
    if not (mass > 0 and np.isfinite(mass)):
        raise IntegrabilityError("ground-profile mass is not a positive "
                                 "finite number")
    dens = np.maximum(dens, 0.0) / mass
    cdf = np.cumsum(dens * sd.cell)
    cdf /= cdf[-1]
    return YaglomMeasure(grid=sd.grid, density=dens, cdf=cdf,
                         cell=sd.cell, mass_norm=mass, lambda1=sd.lambda1)


def yaglom_to_z(ym: YaglomMeasure, gamma: float) -> YaglomMeasure:
    """Push the profile to the population coordinate z = gamma x^2 / 4."""
    if gamma <= 0:
        raise PreconditionError(f"gamma must be positive, got {gamma!r}")
    zg = gamma * ym.grid * ym.grid / 4.0
    dens = ym.density * 2.0 / (gamma * ym.grid)
    zcell = np.gradient(zg)
    return YaglomMeasure(grid=zg, density=dens, cdf=ym.cdf.copy(),
                         cell=zcell, mass_norm=ym.mass_norm,
                         lambda1=ym.lambda1)


# ---------------------------------------------------------------------------
# kernels and semigroup identities

def kernel_r(sd: SpectralDecomposition, t: float, xs, ys,
             K: Optional[int] = None) -> np.ndarray:
    """Mode-sum transition kernel density against mu, at nearest grid nodes.

    Refuses times shorter than t_min(K): there the dropped modes are not
    provably negligible and the truncated sum would silently misrepresent
    the kernel.
    """
    k, decay = _modes(sd, t, K)
    ix = sd.node_index(np.atleast_1d(xs))
    iy = sd.node_index(np.atleast_1d(ys))
    ex = sd.etas[ix][:, :k]
    ey = sd.etas[iy][:, :k]
    out = (ex * decay) @ ey.T
    if ix.shape == iy.shape and np.array_equal(ix, iy):
        # a diagonal query is symmetric by construction; the matrix
        # product rounds the two triangles independently, so enforce it
        out = 0.5 * (out + out.T)
    return out


def survival(sd: SpectralDecomposition, t, init) -> np.ndarray:
    """Survival probability at times t for an initial condition.

    init is ("point", x0), ("yaglom", YaglomMeasure), or ("density", values)
    with values a nonnegative density on the grid (normalized internally).

    Point and density starts are refused below t_min (the dropped modes
    could still matter there); a quasi-stationary start is exact at every
    t >= 0 because only the ground mode survives the projection.
    """
    out = _mode_sum(sd, t, init, sd.eta_masses)
    return out if np.ndim(t) else float(out[0])


def _mode_sum(sd: SpectralDecomposition, t, init, masses) -> np.ndarray:
    """sum_k exp(-lambda_k t) <eta_k, init> masses_k at each time t, for
    the initial conditions and with the time checks of survival()."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(ts < 0):
        raise PreconditionError("survival needs t >= 0")
    kind = init[0]
    if kind != "yaglom":
        sd.require_time(float(ts.min(initial=np.inf)))
    if kind == "point":
        coeffs = sd.etas[sd.node_index(float(init[1])), :]
    elif kind == "yaglom":
        ym = init[1]
        if ym.grid.shape != sd.grid.shape or not np.allclose(ym.grid, sd.grid):
            raise PreconditionError("profile grid does not match the "
                                    "decomposition grid")
        coeffs = _project(sd, ym.density, half=1)
    elif kind == "density":
        vals = np.asarray(init[1], dtype=float)
        if vals.shape != sd.grid.shape:
            raise PreconditionError("density values must live on the grid")
        if np.any(vals < 0):
            raise PreconditionError("density values must be nonnegative")
        mass = float(np.sum(vals * sd.cell))
        if mass <= 0:
            raise PreconditionError("density has no mass on the grid")
        coeffs = _project(sd, vals / mass, half=1)
    else:
        raise PreconditionError(f"unknown initial condition kind {kind!r}")
    return np.exp(-np.outer(ts, sd.lambdas)) @ (coeffs * masses)


@dataclass(frozen=True)
class ConditionalDensity:
    t: float
    grid: np.ndarray
    density: np.ndarray
    cdf: np.ndarray
    cell: np.ndarray
    survival: float


def conditional_density(sd: SpectralDecomposition, t: float, x0: float,
                        K: Optional[int] = None) -> ConditionalDensity:
    """Full grid density of the process at time t given it still lives."""
    k, decay = _modes(sd, t, K)
    i0 = sd.node_index(float(x0))
    # r(t, x0, y) exp(-Q(y)) = sum_k decay_k eta_k(x0) psi_k(y) exp(-Q(y)/2)
    coef = decay * sd.etas[i0, :k]
    vals = (sd.psis[:, :k] @ coef) * np.exp(-0.5 * sd.Qgrid)
    surv = float(np.sum(vals * sd.cell))
    if not np.isfinite(surv) or surv < 1e-300:
        raise SurvivalUnderflowError(
            f"survival from x0={x0:g} at t={t:g} underflowed "
            f"({surv!r}); condition on a shorter horizon")
    dens = np.maximum(vals, 0.0)
    mass = float(np.sum(dens * sd.cell))
    dens = dens / mass
    cdf = np.cumsum(dens * sd.cell)
    cdf /= cdf[-1]
    return ConditionalDensity(t=t, grid=sd.grid, density=dens, cdf=cdf,
                              cell=sd.cell, survival=surv)


def _interval_mass(sd: SpectralDecomposition, interval) -> np.ndarray:
    """<eta_k, 1_(a, b]> in the absorption measure, for every mode."""
    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise PreconditionError(f"interval needs b > a, got ({a!r}, {b!r})")
    return _project(sd, ((sd.grid > a) & (sd.grid <= b)).astype(float))


def conditional_law(sd: SpectralDecomposition, init, t, interval):
    """Probability the surviving process sits in the interval at times t.

    Ratio of the interval-restricted to the full survival sum; the initial
    condition union and the time checks match survival().
    """
    den = _mode_sum(sd, t, init, sd.eta_masses)
    if not np.all(np.isfinite(den) & (den >= 1e-300)):
        raise SurvivalUnderflowError(
            f"survival at t={np.max(t):g} underflowed "
            f"({float(np.min(den))!r}); condition on a shorter horizon")
    out = np.clip(_mode_sum(sd, t, init, _interval_mass(sd, interval)) / den,
                  0.0, 1.0)
    return out if np.ndim(t) else float(out[0])


# ---------------------------------------------------------------------------
# convergence-rate forecast

@dataclass(frozen=True)
class RateReport:
    gap: float                # spectral gap between the two lowest levels
    coefficient: float        # leading-order prefactor for the interval
    ts: np.ndarray
    diffs: np.ndarray         # conditional probability minus limit value
    slope: float
    intercept: float
    limit_value: float


def rate_report(sd: SpectralDecomposition, x0: float, interval,
                ts: Optional[np.ndarray] = None) -> RateReport:
    """Exponential approach of the conditioned interval mass to its limit.

    The conditioned probability of the interval approaches the limit like
    coefficient * exp(-gap * t) with the two-mode prefactor
    (eta_2(x)/eta_1(x)) (<1,eta_1><1_A,eta_2> - <1,eta_2><1_A,eta_1>) / <1,eta_1>^2;
    the report also carries the exact spectral differences (conditional_law
    from x, so ts below t_min are refused) and the straight-line fit of
    their logs.
    """
    if sd.K < 3:
        raise PreconditionError("need at least three modes for a rate")
    mA = _interval_mass(sd, interval)
    if ts is None:
        ts = np.linspace(1.0, 4.0, 25)
    ts = np.asarray(ts, dtype=float)

    m = sd.eta_masses
    limit = mA[0] / m[0]
    eta_x = sd.etas[sd.node_index(float(x0)), :]
    gap = float(sd.lambdas[1] - sd.lambdas[0])
    coef = (eta_x[1] / eta_x[0]) * (mA[1] * m[0] - mA[0] * m[1]) / (m[0] ** 2)
    diffs = conditional_law(sd, ("point", x0), ts, interval) - limit

    good = np.abs(diffs) > 0
    if np.count_nonzero(good) < 3:
        raise PreconditionError("interval does not separate the modes; "
                                "pick a different one")
    slope, intercept = np.polyfit(ts[good], np.log(np.abs(diffs[good])), 1)
    return RateReport(gap=gap, coefficient=float(coef), ts=ts, diffs=diffs,
                      slope=float(slope), intercept=float(intercept),
                      limit_value=float(limit))


# ---------------------------------------------------------------------------
# probability-flux audit

@dataclass(frozen=True)
class FluxReport:
    F0: float                 # flux at the left edge of the measure bulk
    Finf: float               # flux at the right edge of the measure bulk
    lhs: float                # <eta_1, 1> in the absorption measure
    rhs: float                # (F0 - Finf) / (2 lambda_1)
    rel_discrepancy: float
    flux_decreasing: bool
    eta1_nondecreasing: bool
    bulk: tuple               # (left index, right index) of the trimmed bulk


def flux_check(sd: SpectralDecomposition, tail_mass: float = 1e-9) -> FluxReport:
    """Audit the ground mode through its probability flux.

    The flux F = eta_1' exp(-Q) is computed in the stable half-weighted
    form (psi' + q psi) exp(-Q/2); integrating the eigenvalue equation
    turns the total mass of the ground profile into a boundary-flux
    difference.  Both the identity and the monotonicity statements are
    checked on the measure-bulk of the grid: the Dirichlet collars force
    the computed mode to bend toward the walls, a truncation artifact with
    measure below tail_mass on each side.
    """
    ym = yaglom_measure(sd)
    lo = int(np.searchsorted(ym.cdf, tail_mass))
    hi = int(np.searchsorted(ym.cdf, 1.0 - tail_mass))
    hi = min(max(hi, lo + 8), len(sd.grid) - 1)

    psi1 = sd.psis[:, 0]
    dpsi = np.gradient(psi1, sd.grid)
    qg = np.asarray(sd.drift.q(sd.grid), dtype=float)
    F = (dpsi + qg * psi1) * np.exp(-0.5 * sd.Qgrid)

    F0 = float(F[lo])
    Finf = float(F[hi])
    rhs = (F0 - Finf) / (2.0 * sd.lambda1)
    lhs = sd.eta1_mass
    rel = abs(rhs - lhs) / abs(lhs)

    Fb = F[lo:hi + 1]
    # the gradient is second-order accurate; near-flat stretches of F show
    # truncation wiggles around 1e-8 of the flux scale, so the monotonicity
    # slack must sit above that noise floor
    slack = 1e-6 * max(1.0, float(np.max(np.abs(Fb))))
    flux_dec = bool(np.all(np.diff(Fb) <= slack))

    eta1b = sd.etas[lo:hi + 1, 0]
    slack_e = 1e-9 * max(1.0, float(np.max(np.abs(eta1b))))
    eta_inc = bool(np.all(np.diff(eta1b) >= -slack_e))

    return FluxReport(F0=F0, Finf=Finf, lhs=float(lhs), rhs=float(rhs),
                      rel_discrepancy=float(rel), flux_decreasing=flux_dec,
                      eta1_nondecreasing=eta_inc, bulk=(lo, hi))


# ---------------------------------------------------------------------------
# conditioned process (never absorbed)

def qprocess_row(sd: SpectralDecomposition, t: float, x0: float,
                 K: Optional[int] = None):
    """One transition row of the never-absorbed process on the grid.

    Returns (probabilities, row_sum): probabilities against the grid cells.
    The row sum is exactly 1 up to rounding because the mode profiles are
    discretely orthonormal.
    """
    k, u = _modes(sd, t, K, relative=True)
    i0 = sd.node_index(float(x0))
    eta_x = sd.etas[i0, :k]
    if eta_x[0] == 0.0:
        raise PreconditionError(f"ground profile vanishes at x0={x0:g}; "
                                f"start the conditioned process in the bulk")
    c = u * eta_x / eta_x[0]
    probs = sd.psis[:, 0] * (sd.psis[:, :k] @ c) * sd.cell
    return probs, float(np.sum(probs))


def qprocess_stationary(sd: SpectralDecomposition):
    """Stationary density of the conditioned process: the squared ground mode."""
    dens = sd.psis[:, 0] ** 2
    mass = float(np.sum(dens * sd.cell))
    return dens / mass


# ---------------------------------------------------------------------------
# kernel bounds

@dataclass(frozen=True)
class BoundReport:
    name: str
    max_ratio: float          # largest value / bound over the probes
    n_violations: int
    detail: str


def appendix_bound_sweep(sd: SpectralDecomposition, xs=None,
                         t: float = 1.0) -> BoundReport:
    """The symmetrized kernel r(t,x,y) exp(-(Q(x)+Q(y))/2), the plain mode
    sum over psi, against exp(C t / 2) times the half-line heat kernel with
    an absorbing wall at 0, over every probe pair (x, y)."""
    _, decay = _modes(sd, t)
    if xs is None:
        xs = np.linspace(0.1, 5.0, 50)
    xs = np.asarray(xs, dtype=float)
    idx = sd.node_index(xs)
    xn = sd.grid[idx]
    P = sd.psis[idx, :]
    val = (P * decay) @ P.T

    Xm, Ym = np.meshgrid(xn, xn, indexing="ij")
    heat = (np.exp(-(Xm - Ym) ** 2 / (2.0 * t))
            - np.exp(-(Xm + Ym) ** 2 / (2.0 * t))) / np.sqrt(2.0 * np.pi * t)
    C = max(sd.drift.C, 0.0)
    bound = np.exp(0.5 * C * t) * heat

    ok = bound > 1e-300
    ratio = np.where(ok, val / np.where(ok, bound, 1.0), 0.0)
    max_ratio = float(np.max(ratio))
    viol = int(np.count_nonzero(ratio > 1.0 + 1e-6))
    return BoundReport(
        name="image-kernel comparison",
        max_ratio=max_ratio, n_violations=viol,
        detail=f"{len(xs)}x{len(xs)} probes at t={t:g}, C={C:.6g}")


def l2_bound_check(sd: SpectralDecomposition, xs=(0.5, 1.0, 2.0),
                   ts=(0.5, 1.0)) -> BoundReport:
    """On-diagonal square sum against its closed-form envelope."""
    i = sd.node_index(np.asarray(xs, dtype=float))
    T = np.asarray(ts, dtype=float)[:, None]             # (t, x) probes
    val = (np.exp(-2.0 * sd.lambdas * T[:, :, None])
           * sd.etas[i, :] ** 2).sum(axis=-1)
    C = max(sd.drift.C, 0.0)
    ratio = val / (np.exp(C * T + sd.Qgrid[i]) / np.sqrt(2.0 * np.pi * T))
    return BoundReport(
        name="square-sum envelope", max_ratio=float(ratio.max(initial=0.0)),
        n_violations=int(np.count_nonzero(ratio > 1.0 + 1e-9)),
        detail="; ".join(f"(x={x:g}, t={t:g}): {r:.3e}" for (t, x), r
                         in zip(product(ts, xs), ratio.ravel())))
