"""Spectral decomposition of the absorbed generator on a truncated domain.

The generator (1/2) d^2/dx^2 - q d/dx with absorption at 0 is unitarily
equivalent, through multiplication by exp(-Q/2), to a Schrodinger operator
-(1/2) d^2/dx^2 + w with w = (q^2 - q')/2.  That operator is discretized
by a finite-volume scheme on a graded grid with Dirichlet walls at both
truncation points, symmetrized by the cell-length weights, and solved with
one tridiagonal eigen core: coarse bisection, inverse iteration and a
Rayleigh-Ritz step.

Discrete structure everything downstream relies on: with cell lengths d_i,
the returned psi vectors satisfy sum_i psi_k(i) psi_l(i) d_i = delta_kl to
machine precision, so the eta vectors (eta = exp(Q/2) psi) are orthonormal
in the discrete absorption measure mu_i = d_i exp(-Q(x_i)).  Semigroup
identities (survival started from the quasi-stationary profile, kernel
composition, conditioned-process row sums) then hold exactly on the grid,
and their checks probe floating-point noise only.

eta is formed only at the rows read (_eta_rows), and refused there if it
overflows.  Every mode sum, such as r(t, x, y) = sum_k exp(-lambda_k t)
eta_k(x) eta_k(y), goes through _spectral_sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import NamedTuple, Optional

import numpy as np
from scipy.linalg import eigh
from scipy.linalg.lapack import dstebz, dstein

from .errors import (IntegrabilityError, PreconditionError,
                     SurvivalUnderflowError, TailDominatedError,
                     TruncationError)
from .model import DriftField, potential
from .quadrature import classify_growth

_PSI_FLOOR = 1e-200          # below this, a mode amplitude is numerical dust
_TAIL_RATIO = 1e10           # kernel refuses t where the dropped tail could
                             # still be within this factor of the lead mode
# A level with lambda t above this weighs exp(-42) < 1e-18 at time t, below
# double precision against any level that still matters: a mode sum at t
# leaves it out.
LEVEL_CUT = 42.0
# Absolute width dstebz bisects each wanted level to.  It only has to keep
# the levels apart: the Rayleigh-Ritz step places each level to the square
# of its vector's residual.
BISECTION_WIDTH = 1e-4
# Bisected levels closer than this share one Ritz step.  dstein's three
# solves from a shift within half a width of a level leave a neighbour
# farther away in its vector at most (5e-5 / 0.5)^3 = 1e-12.
_CLUSTER_GAP = 0.5


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

    def node_position(self, x, out=None):
        """Fractional index of x among full_grid's n+2 nodes: the grid map
        inverted, up to rounding, and nondecreasing in x (each of its
        operations rounds monotonically).  Written into out when given."""
        scale = self.n + 1
        if self.grid_kind == "sqrt":
            lo, hi = np.sqrt(self.x_min), np.sqrt(self.x_max)
            out = np.sqrt(x, out=out)
            out -= lo
            out *= scale / (hi - lo)
            return out
        out = np.subtract(x, self.x_min, out=out)
        out *= scale / (self.x_max - self.x_min)
        return out


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
    Qgrid: np.ndarray         # (n,) potential on the grid
    mu_weights: np.ndarray    # (n,) d_i exp(-Q_i)
    cap: int                  # the level cap the solve was asked for
    operator: tuple           # (diag, off) of the symmetrized operator
    eigen_residual: float     # largest ||T v - lambda v|| of the solve
    orthonormality_defect: float   # max |V^T V - I| of its vectors

    @property
    def lambda1(self):
        return float(self.lambdas[0])

    @cached_property
    def lambda_cap(self) -> float:
        """The cap's top level: lambdas[-1], or the level a horizon solve
        stopped short of, solved at first read."""
        if self.K == self.cap:
            return float(self.lambdas[-1])
        return _cap_level(*self.operator, self.cap)

    @cached_property
    def etas(self):
        """(n, K) eta = exp(Q/2) psi on every node, formed at first read."""
        return _eta_rows(self, slice(None))

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

    def t_min(self, K: Optional[int] = None) -> float:
        """Shortest time the K-mode kernel can honestly represent."""
        return _t_min(self.lambdas[:self.K if K is None else K])

    def t_min_cap(self) -> float:
        """t_min of the level cap the solve was asked for: below it a
        horizon solve keeps the whole cap and refuses."""
        return _t_min(np.array([self.lambdas[0], self.lambda_cap]))


def _t_min(lam) -> float:
    """Shortest time a sum over the increasing levels lam can honestly
    represent: the first level left out may be as low as the last kept."""
    if lam.size < 2:
        return np.inf
    gap = float(lam[-1] - lam[0])
    if gap <= 0:
        return np.inf
    return float(np.log(_TAIL_RATIO) / gap)


class Modes(NamedTuple):
    levels: np.ndarray        # (K,) increasing
    vectors: np.ndarray       # (n, K), divided by the scale and signed
    residual: float           # largest ||T v - lambda v|| over the levels
    defect: float             # max |V^T V - I|, V the l2-normed vectors


def _bisect(diag, off, top=np.inf, index=None, width=BISECTION_WIDTH):
    """dstebz: the levels at most top, or the index-th level (from 1)
    alone, each inside an interval of the given width, ordered by block
    as dstein reads them."""
    if index is None:
        m, w, iblock, isplit, info = dstebz(diag, off, 1, -np.inf, top, 1, 1,
                                            width, b"B")
    else:
        m, w, iblock, isplit, info = dstebz(diag, off, 2, 0.0, 0.0, index,
                                            index, width, b"B")
    if info != 0:
        raise TruncationError(f"bisection failed (dstebz info {info})")
    return w[:m], iblock, isplit


def _level_count(diag, off, top) -> int:
    """How many levels are at most top: a Sturm count, nothing bisected."""
    return _bisect(diag, off, top, width=np.inf)[0].size


def _apply(diag, off, V):
    """T V for the symmetric tridiagonal T = (diag, off)."""
    TV = diag[:, None] * V
    TV[:-1] += off[:, None] * V[1:]
    TV[1:] += off[:, None] * V[:-1]
    return TV


def _inverse_iteration(diag, off, bisected, hint):
    V, info = dstein(diag, off, *bisected)
    if info != 0:
        raise TruncationError(f"inverse iteration left {info} vectors "
                              f"unconverged; {hint}")
    return V


def _cap_level(diag, off, k) -> float:
    """The k-th level alone: its bisected vector's Rayleigh quotient."""
    v = _inverse_iteration(diag, off, _bisect(diag, off, index=k),
                           "the cap's level is not resolved")
    return float(v[:, 0] @ _apply(diag, off, v)[:, 0])


def tridiagonal_modes(diag, off, hint, scale=None, *, cut=np.inf,
                      count=None) -> Modes:
    """Eigenpairs, lowest first, of the symmetric tridiagonal (diag, off):
    the levels at most ``cut``, or the lowest ``count`` levels.

    dstebz bisects the wanted levels to BISECTION_WIDTH: up to the cut,
    or up to the count-th level (bisected alone first), plus two widths.
    dstein computes their vectors V, and a Rayleigh-Ritz step gives the
    levels: a lone level is its vector's Rayleigh quotient, and a cluster
    of levels closer than _CLUSTER_GAP takes the eigendecomposition of
    its block of V^T T V, which also rotates its vectors, so levels
    closer than the width, whose vectors together span their cluster,
    come apart.  A Ritz level is accurate to the square of its vector's
    residual.  Well-separated vectors are not rotated: that would only
    mix each into the others at the rounding level of V^T T V.  Levels
    past the cut, or past the count, are then dropped.  The largest
    residual ||T v - lambda v|| and the orthonormality defect
    max |V^T V - I| are returned with the pairs.

    Each eigenvector is divided entrywise by ``scale`` when one is given
    (the square roots of a discretised operator's cell weights, which turn
    l2-orthonormal columns into measure-orthonormal profiles), then signed
    so that its largest-amplitude entry is positive.  A ground level that
    is not positive, two levels within 1e-10 of each other, or a vector
    whose inverse iteration does not converge is not resolved: each raises
    TruncationError, with ``hint`` appended.
    """
    if count is not None:
        cut = _bisect(diag, off, index=count)[0][0]
    bisected = _bisect(diag, off, cut + 2.0 * BISECTION_WIDTH)
    order = np.argsort(bisected[0], kind="stable")
    w = bisected[0][order]
    V = _inverse_iteration(diag, off, bisected, hint)[:, order]
    TV = _apply(diag, off, V)
    lam = np.einsum("ij,ij->j", V, TV)
    starts = np.flatnonzero(np.diff(w, prepend=-np.inf) >= _CLUSTER_GAP)
    for a, b in zip(starts, np.append(starts[1:], w.size)):
        if b - a > 1:
            Q = np.linalg.qr(V[:, a:b])[0]
            TQ = _apply(diag, off, Q)
            lam[a:b], Y = eigh(Q.T @ TQ)
            V[:, a:b], TV[:, a:b] = Q @ Y, TQ @ Y
    keep = count if count is not None else int(np.searchsorted(
        lam, cut, side="right"))
    lam, V, TV = lam[:keep], V[:, :keep], TV[:, :keep]
    residual = float(np.max(np.linalg.norm(TV - V * lam, axis=0),
                            initial=0.0))
    defect = float(np.max(np.abs(V.T @ V - np.eye(keep)), initial=0.0))

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
    phi = V if scale is None else V / scale[:, None]
    top = phi[np.argmax(np.abs(phi), axis=0), np.arange(phi.shape[1])]
    phi[:, top < 0] *= -1.0
    return Modes(lam, phi, residual, defect)


def require_levels(domain: TruncationDomain, K: int):
    """Refuse a cap of K levels that the domain's grid cannot carry."""
    domain.validate()
    if K < 1:
        raise PreconditionError(f"need K >= 1 modes, got {K}")
    if K > domain.n // 4:
        raise PreconditionError(
            f"K={K} modes from n={domain.n} nodes: discrete levels above "
            f"n/4 carry no continuum meaning; enlarge n or reduce K")


def build_and_solve(d: DriftField, domain: Optional[TruncationDomain] = None,
                    K: int = 16, *,
                    horizon: Optional[float] = None) -> SpectralDecomposition:
    """Assemble the symmetrized operator and extract its lowest modes.

    Without a horizon these are the lowest K.  With horizon=t they are the
    levels that still weigh at time t, K being the cap: those with
    lambda t <= LEVEL_CUT, the cut doubled while their t_min exceeds t,
    and the lowest K once the cut reaches the K-th level (so a t below
    t_min(K) is refused exactly as without a horizon).  The result's K is
    the number of levels kept, and its lambda_cap the K-th level, solved
    only when read.
    """
    if domain is None:
        domain = default_domain(d)
    require_levels(domain, K)
    if horizon is not None and not 0.0 < horizon < np.inf:
        raise PreconditionError(
            f"horizon must be positive and finite, got {horizon!r}")

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

    def modes(**select):
        return tridiagonal_modes(
            diag, off, "enlarge the box or n, or check that the drift is "
            "admissible", scale=np.sqrt(dcell), **select)

    cut = np.inf if horizon is None else LEVEL_CUT / horizon
    while cut < np.inf and _level_count(diag, off, cut) < K:
        solved = modes(cut=cut)
        if _t_min(solved.levels) <= horizon:
            break
        cut *= 2.0
    else:
        solved = modes(count=K)
    lam, psi = solved.levels, solved.vectors

    Qg = np.asarray(d.Q(x), dtype=float)
    return SpectralDecomposition(
        domain=domain, drift=d, K=lam.size, grid=x, cell=dcell,
        lambdas=lam, psis=psi, Qgrid=Qg,
        mu_weights=dcell * np.exp(-Qg), cap=K, operator=(diag, off),
        eigen_residual=solved.residual,
        orthonormality_defect=solved.defect)


def _half_weights(sd: SpectralDecomposition, weights, half=-1):
    return weights * np.exp(half * 0.5 * sd.Qgrid) * sd.cell


def _project(sd: SpectralDecomposition, weights, half=-1) -> np.ndarray:
    """<eta_k, weights> in mu (half=-1), or eta_k against the density
    weights (half=+1), in the half-weighted form (never huge x tiny)."""
    return (sd.psis * _half_weights(sd, weights, half)[:, None]).sum(axis=0)


def _eta_rows(sd: SpectralDecomposition, rows) -> np.ndarray:
    """eta = sign(psi) exp(Q/2 + ln|psi|) at the grid rows given (index,
    array or slice), zero below _PSI_FLOOR; refused where a row overflows."""
    psi = sd.psis[rows]
    amp = np.abs(psi)
    with np.errstate(divide="ignore", over="ignore"):
        eta = np.sign(psi) * np.exp(0.5 * sd.Qgrid[rows, None] + np.log(amp))
    eta[amp < _PSI_FLOOR] = 0.0
    if not np.all(np.isfinite(eta)):
        raise TruncationError("mode profile overflowed while unweighting; "
                              "the box extends past representable range")
    return eta


def _spectral_sum(sd: SpectralDecomposition, t, left, right=None, K=None,
                  relative=False, exact=False):
    """sum_k exp(-lambda_k t) left_k right_k over the lowest K levels (all
    by default) as (left * decay) @ right, or summed over the levels in
    NumPy's order where right is None; relative levels count from
    lambda_1.  Refuses K outside 1..sd.K and, unless exact (a start in the
    ground level), t below t_min(K)."""
    k = sd.K if K is None else int(K)
    if not 1 <= k <= sd.K:
        raise PreconditionError(f"K={k} not in 1..{sd.K}")
    if not exact and np.min(t) < sd.t_min(k):
        raise TailDominatedError(float(np.min(t)), sd.t_min(k), k)
    lam = sd.lambdas[:k] - sd.lambdas[0] if relative else sd.lambdas[:k]
    terms = left[..., :k] * np.exp(-lam * t)
    return terms.sum(axis=-1) if right is None else terms @ right[:k]


def _conditioning(surv, where, divide=True):
    """Refuse a survival sum that cancelled (a value below 0) and, where a
    caller divides by it, one that underflowed (below 1e-300 or not finite)."""
    low = float(np.min(surv))
    if low < 0:
        raise TruncationError(f"the mode sum {where} cancels to a survival "
                              f"of {low:.6g}")
    if divide and not np.all(np.isfinite(surv) & (surv >= 1e-300)):
        raise SurvivalUnderflowError(f"survival {where} underflowed "
                                     f"({low!r}); condition on a shorter "
                                     f"horizon")


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
    """Mode-sum transition kernel density against mu, at nearest grid nodes;
    refused below t_min(K), where the dropped modes may still matter."""
    ix = sd.node_index(np.atleast_1d(xs))
    iy = sd.node_index(np.atleast_1d(ys))
    diagonal = ix.shape == iy.shape and np.array_equal(ix, iy)
    left = _eta_rows(sd, ix)
    right = left if diagonal else _eta_rows(sd, iy)
    out = _spectral_sum(sd, t, left, right.T, K)
    if diagonal:
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
    t >= 0 because only the ground mode survives the projection.  A sum
    that cancels to a negative survival is refused; an underflow is a value.
    """
    return _from_start(sd, t, init, sd.eta_masses[:, None], divide=False)[0]


def _from_start(sd: SpectralDecomposition, t, init, right, divide=True):
    """The mode sums from survival()'s init to each column of right at the
    times t, a row per column; the first, the survival, is conditioned."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(ts < 0):
        raise PreconditionError("survival needs t >= 0")
    kind = init[0]
    if kind == "point":
        coeffs = _eta_rows(sd, sd.node_index(float(init[1])))
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
    out = _spectral_sum(sd, ts[:, None], coeffs, right,
                        exact=kind == "yaglom").T
    _conditioning(out[0], f"at t={np.max(t):g}", divide)
    return out if np.ndim(t) else out[:, 0].tolist()


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
    """Full grid density of the process at time t given it still lives;
    a sum whose survival is negative, or whose negative lobes exceed
    1e-6 of its mass (rounding noise, the discrete kernel being
    nonnegative), cancels and raises TruncationError."""
    # r(t, x0, y) exp(-Q(y)) = sum_k decay_k eta_k(x0) psi_k(y) exp(-Q(y)/2)
    eta0 = _eta_rows(sd, sd.node_index(float(x0)))
    vals = _spectral_sum(sd, t, eta0, sd.psis.T, K) * np.exp(-0.5 * sd.Qgrid)
    surv = float(np.sum(vals * sd.cell))
    _conditioning(surv, f"from x0={x0:g} at t={t:g}")
    dens = np.maximum(vals, 0.0)
    mass = float(np.sum(dens * sd.cell))
    if mass - surv > 1e-6 * mass:
        raise TruncationError(f"the mode sum from x0={x0:g} cancels: "
                              f"negative lobes hold {1 - surv / mass:.3g}")
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
    """Probability the surviving process sits in the interval at times t:
    the interval-restricted over the full survival sum, with survival()'s
    starts and refusals, and refused where that survival underflows."""
    out = _interval_law(sd, init, t, _interval_mass(sd, interval))
    return out if np.ndim(t) else float(out)


def _interval_law(sd: SpectralDecomposition, init, t, mA):
    """conditional_law's value from the interval's mode masses mA."""
    den, num = _from_start(sd, t, init, np.column_stack((sd.eta_masses, mA)))
    return np.clip(num / den, 0.0, 1.0)


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
    eta_x = _eta_rows(sd, sd.node_index(float(x0)))
    gap = float(sd.lambdas[1] - sd.lambdas[0])
    coef = (eta_x[1] / eta_x[0]) * (mA[1] * m[0] - mA[0] * m[1]) / (m[0] ** 2)
    diffs = _interval_law(sd, ("point", x0), ts, mA) - limit

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

    eta1b = _eta_rows(sd, slice(lo, hi + 1))[:, 0]
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
    eta_x = _eta_rows(sd, sd.node_index(float(x0)))
    if eta_x[0] == 0.0:
        raise PreconditionError(f"ground profile vanishes at x0={x0:g}; "
                                f"start the conditioned process in the bulk")
    row = _spectral_sum(sd, t, eta_x / eta_x[0], sd.psis.T, K, relative=True)
    probs = sd.psis[:, 0] * row * sd.cell
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
    if xs is None:
        xs = np.linspace(0.1, 5.0, 50)
    xs = np.asarray(xs, dtype=float)
    idx = sd.node_index(xs)
    xn = sd.grid[idx]
    P = sd.psis[idx, :]
    val = _spectral_sum(sd, t, P, P.T)

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
    """On-diagonal square sum r(2t, x, x) against its closed-form envelope;
    refused where 2t is below t_min."""
    i = sd.node_index(np.asarray(xs, dtype=float))
    T = np.asarray(ts, dtype=float)[:, None]             # (t, x) probes
    val = _spectral_sum(sd, 2.0 * T[:, :, None], _eta_rows(sd, i) ** 2)
    C = max(sd.drift.C, 0.0)
    ratio = val / (np.exp(C * T + sd.Qgrid[i]) / np.sqrt(2.0 * np.pi * T))
    return BoundReport(
        name="square-sum envelope", max_ratio=float(ratio.max(initial=0.0)),
        n_violations=int(np.count_nonzero(ratio > 1.0 + 1e-9)),
        detail="; ".join(f"(x={x:g}, t={t:g}): {r:.3e}" for (t, x), r
                         in zip(product(ts, xs), ratio.ravel())))
