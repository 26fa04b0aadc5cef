"""Drift fields, growth models, and the transforms between them.

The absorbed diffusion on (0, inf) is dX = dB - q(X) dt with absorption at
the origin.  A population model dZ = sqrt(gamma Z) dB + h(Z) dt is carried
to that form by X = 2 sqrt(Z / gamma), which sends the growth function h to
the drift q(x) = 1/(2x) - (2/(gamma x)) h(gamma x^2 / 4).

Every drift field carries:

* q, q_prime: the drift and its derivative; every drift the package
  builds is an InPlace, whose into(x, out, work) writes q(x) into a
  given row,
* Q: the accumulated potential Q(x) = int_1^x 2 q(u) du, anchored Q(1) = 0,
* C: the curvature floor, the smallest constant with q^2 - q' >= -C,
  given in closed form (C_closed) or found on a probe grid at first read,
* origin_exponent: a when q(x) ~ a/x near the origin (None if unknown).

The growth functions h of the logistic, linear and two-threshold presets
are InPlace too, so a growth drift fills its row without allocating.

PRESETS declares each named model once (kind, parameters with their
defaults, builder); preset_model and the config's [model] keys read it.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DomainError, ModelError
from .expr import compile_expression, fd_derivative

# Probe grid used to locate the infimum of q^2 - q'.
_PROBE_LO = 1e-6
_PROBE_HI = 1e6
_PROBE_N = 4096


class InPlace:
    """A function of one array that is evaluated into rows it is given.

    into(x, out, work) writes f(x) into out, an array of x's shape, and
    returns it, allocating nothing; work is an array of scratch rows of
    that shape, at least scratch of them.  Called as f(x), on a scalar or
    an array, it is the allocating form: it makes out and work, runs into
    (under an errstate that ignores floating-point warnings when quiet)
    and returns a float or an array.
    """

    __slots__ = ("into", "scratch", "quiet")

    def __init__(self, into, scratch, quiet=False):
        self.into = into
        self.scratch = scratch
        self.quiet = quiet

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            return float(self(x.reshape(1))[0])
        out = np.empty_like(x)
        work = np.empty((self.scratch,) + x.shape)
        if self.quiet:
            with np.errstate(divide="ignore", over="ignore",
                             invalid="ignore"):
                self.into(x, out, work)
        else:
            self.into(x, out, work)
        return out


def in_place(f):
    """The evaluator into(x, out, work) of f: its own when f is an
    InPlace, else the adapter that copies f(x) into out."""
    if isinstance(f, InPlace):
        return f.into

    def into(x, out, work):
        np.copyto(out, f(x))
        return out
    return into


def scratch_rows(f):
    """The scratch rows in_place(f) uses: an InPlace's own count, none
    for the adapter."""
    return f.scratch if isinstance(f, InPlace) else 0


@dataclass(frozen=True)
class DriftField:
    q: Callable
    q_prime: Callable
    Q: Callable
    origin_exponent: Optional[float]
    name: str = "drift"
    C_closed: Optional[float] = None

    @cached_property
    def C(self) -> float:
        """The curvature floor: C_closed when given, else curvature_floor
        at first read (only h2, h3 and the kernel bounds read it)."""
        if self.C_closed is not None:
            return self.C_closed
        return curvature_floor(self.q, self.q_prime)


@dataclass(frozen=True)
class GrowthModel:
    h: Callable
    h_prime: Callable
    gamma: float
    name: str = "growth"


@dataclass(frozen=True)
class Model:
    """A configured model: the drift field plus its growth form, if any."""

    kind: str                      # 'drift' or 'growth'
    drift: DriftField
    growth: Optional[GrowthModel]
    label: str


def x_from_z(z, gamma):
    """Map population state z >= 0 to diffusion scale x = 2 sqrt(z/gamma)."""
    z = np.asarray(z, dtype=float)
    if gamma <= 0:
        raise DomainError("gamma must be positive")
    if np.any(z < 0):
        raise DomainError("population state must be nonnegative")
    out = 2.0 * np.sqrt(z / gamma)
    return float(out) if out.ndim == 0 else out


def z_from_x(x, gamma):
    """Inverse state map, z = gamma x^2 / 4."""
    x = np.asarray(x, dtype=float)
    if gamma <= 0:
        raise DomainError("gamma must be positive")
    if np.any(x < 0):
        raise DomainError("diffusion state must be nonnegative")
    out = gamma * x * x / 4.0
    return float(out) if out.ndim == 0 else out


def potential(d: DriftField):
    """Schroedinger potential w = (q^2 - q')/2 of the transformed generator."""

    def w(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            out = np.asarray(0.5 * (d.q(x) ** 2 - d.q_prime(x)))
        return float(out) if out.ndim == 0 else out

    return w


def curvature_floor(q, q_prime):
    """Estimate C = max(0, -inf (q^2 - q')) on a log probe grid.

    A minimum inside the grid is refined by golden-section search between
    its two neighbours.  A minimum at either end of the grid has no such
    bracket and is kept as it is.  An interior bracket the search rejects
    keeps the grid minimum too, with a RuntimeWarning.
    """
    xs = np.geomspace(_PROBE_LO, _PROBE_HI, _PROBE_N)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        vals = np.asarray(q(xs), dtype=float) ** 2 - np.asarray(q_prime(xs), dtype=float)
    finite = np.isfinite(vals)
    if not finite.any():
        raise ModelError("q^2 - q' not finite anywhere on the probe grid")
    idx = int(np.nanargmin(np.where(finite, vals, np.inf)))
    best = vals[idx]
    if 0 < idx < len(xs) - 1:
        from scipy.optimize import minimize_scalar   # loaded at first use
        lo, hi = xs[idx - 1], xs[idx + 1]

        def f(x):
            return float(q(x)) ** 2 - float(q_prime(x))
        try:
            res = minimize_scalar(f, bracket=(lo, 0.5 * (lo + hi), hi), method="golden",
                                  options={"xtol": 1e-10})
            if np.isfinite(res.fun):
                best = min(best, float(res.fun))
        except ValueError as exc:
            warnings.warn(f"curvature floor: the golden search rejected the "
                          f"bracket [{lo:.6g}, {hi:.6g}] ({exc}); C is the "
                          f"probe grid's minimum", RuntimeWarning)
    return max(0.0, -float(best))


_GL10_NODES, _GL10_WEIGHTS = np.polynomial.legendre.leggauss(10)
_PANELS_PER_DECADE = 8


def _gauss_legendre_panels(f, nodes):
    """Cumulative integral of f along sorted nodes, one 10-point
    Gauss-Legendre panel per gap; f is called once, on all panel nodes."""
    mid = 0.5 * (nodes[:-1] + nodes[1:])
    half = 0.5 * (nodes[1:] - nodes[:-1])
    pts = mid[:, None] + half[:, None] * _GL10_NODES
    panels = half * (f(pts.ravel()).reshape(pts.shape) @ _GL10_WEIGHTS)
    return np.concatenate(([0.0], np.cumsum(panels)))


def make_potential_integral(q, singular_origin=False):
    """Build Q(x) = int_1^x 2 q(u) du by cumulative panel quadrature.

    Array calls (of any shape) integrate once along the sorted request;
    scalar calls pay one small quadrature.  Gaps wider than an eighth of
    a decade are subdivided in log space so 1/x-type drifts integrate
    accurately.  Q is defined on x > 0 when the origin is singular, on
    x >= 0 otherwise.
    """

    def f(u):
        return 2.0 * np.asarray(q(u), dtype=float)

    def Q(x):
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        flat = arr.reshape(-1)
        if np.any(flat < 0) or (singular_origin and np.any(flat == 0)):
            raise DomainError("Q is defined on x > 0")
        order = np.argsort(flat)
        xs = flat[order]
        chain = np.unique(np.concatenate((xs, [1.0])))
        # split each gap into geometric panels, _PANELS_PER_DECADE to a
        # decade, so a 1/x term integrates as well far out as near 0
        lo = chain[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = chain[1:] / lo
        # a gap from 0, or to an infinite or NaN request, stays one panel
        ratio = np.where(np.isfinite(ratio), ratio, 1.0)
        n = np.maximum(np.ceil(_PANELS_PER_DECADE * np.log10(ratio)),
                       1.0).astype(int)
        k = n - 1                       # the points inside each gap
        gap = np.repeat(np.arange(lo.size), k)
        j = np.arange(gap.size) - np.repeat(np.cumsum(k) - k, k) + 1
        chain = np.unique(np.concatenate(
            (chain, lo[gap] * ratio[gap] ** (j / n[gap]))))
        cum = _gauss_legendre_panels(f, chain)
        anchor = cum[np.searchsorted(chain, 1.0)]
        out = np.interp(xs, chain, cum) - anchor
        result = np.empty_like(flat)
        result[order] = out
        if scalar:
            return float(result[0])
        return result.reshape(arr.shape)

    return Q


def drift_field(q, q_prime, Q=None, origin_exponent=None, name="drift",
                singular_origin=False):
    """Assemble a DriftField, filling in Q; its curvature floor is found
    at first read."""
    if Q is None:
        Q = make_potential_integral(q, singular_origin=singular_origin)
    return DriftField(q=q, q_prime=q_prime, Q=Q,
                      origin_exponent=origin_exponent, name=name)


def drift_from_growth(g: GrowthModel) -> DriftField:
    """Transport a growth model to its drift field on the diffusion scale."""
    gamma = g.gamma
    if gamma <= 0:
        raise ModelError("gamma must be positive")
    h0 = float(g.h(0.0))
    if not math.isfinite(h0) or abs(h0) > 1e-9:
        raise ModelError(f"growth must vanish at zero population, got h(0)={h0!r}")

    h_into = in_place(g.h)

    def q_into(x, out, work):
        # 0.5/x - (2/(gamma x)) h(gamma x^2/4), with gamma x formed once
        # in gx, then 2/(gamma x) and 0.5/x; a product by 0.25 is the
        # quotient by 4.0 bit for bit, the exact value being the same
        gx, z = work[0], work[1]
        np.multiply(x, gamma, out=gx)
        np.multiply(gx, x, out=z)
        z *= 0.25
        h_into(z, out, work[2:])
        np.divide(2.0, gx, out=gx)
        out *= gx
        np.divide(0.5, x, out=gx)
        return np.subtract(gx, out, out=out)

    def q_prime(x):
        x = np.asarray(x, dtype=float)
        z = gamma * x * x / 4.0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = (-0.5 / (x * x)
                   + (2.0 / (gamma * x * x)) * np.asarray(g.h(z), dtype=float)
                   - np.asarray(g.h_prime(z), dtype=float))
        return float(out) if out.ndim == 0 else out

    # Q(x) = ln x - int_1^x 2 p(s) ds with p(s) = 2 h(gamma s^2/4)/(gamma s),
    # integrated in x: p stays bounded at the origin for h = O(sqrt(z)),
    # where the same integral in z, of 2 h(z)/(gamma z), is singular
    def pull(s):
        s = np.asarray(s, dtype=float)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return (2.0 / (gamma * s)) * np.asarray(g.h(gamma * s * s / 4.0),
                                                    dtype=float)

    G = make_potential_integral(pull)

    def Q(x):
        x = np.asarray(x, dtype=float)
        out = np.log(x) - G(x)
        return float(out) if out.ndim == 0 else out

    return drift_field(InPlace(q_into, 2 + scratch_rows(g.h), quiet=True),
                       q_prime, Q=Q,
                       origin_exponent=0.5, name=f"{g.name}-drift",
                       singular_origin=True)


# ---------------------------------------------------------------------------
# presets

def ou_drift(theta=1.0):
    """Linear restoring drift q(x) = theta x."""
    if theta <= 0:
        raise ModelError("theta must be positive")

    def q_into(x, out, work):
        return np.multiply(x, theta, out=out)

    def q_prime(x):
        x = np.asarray(x, dtype=float)
        return np.full_like(x, theta) if x.ndim else theta

    def Q(x):
        x = np.asarray(x, dtype=float)
        out = theta * (x * x - 1.0)
        return float(out) if out.ndim == 0 else out

    return DriftField(q=InPlace(q_into, 0), q_prime=q_prime, Q=Q,
                      origin_exponent=0.0, name=f"ou(theta={theta:g})",
                      C_closed=float(theta))


def logistic_growth(r, c, gamma):
    """h(z) = r z - c z^2."""
    if gamma <= 0:
        raise ModelError("gamma must be positive")
    if c < 0:
        raise ModelError("c must be nonnegative")

    def h_into(z, out, work):
        # r z - (c z) z
        tmp = work[0]
        np.multiply(z, r, out=out)
        np.multiply(z, c, out=tmp)
        tmp *= z
        return np.subtract(out, tmp, out=out)

    def h_prime(z):
        z = np.asarray(z, dtype=float)
        out = r - 2.0 * c * z
        return float(out) if out.ndim == 0 else out

    return GrowthModel(h=InPlace(h_into, 1), h_prime=h_prime, gamma=gamma,
                       name=f"logistic(r={r:g},c={c:g},gamma={gamma:g})")


def linear_growth(r, gamma):
    """h(z) = r z."""
    def h_into(z, out, work):
        return np.multiply(z, r, out=out)

    return GrowthModel(
        h=InPlace(h_into, 0),
        h_prime=lambda z: np.full_like(np.asarray(z, dtype=float), r)
        if np.ndim(z) else float(r),
        gamma=gamma,
        name=f"linear(r={r:g},gamma={gamma:g})",
    )


def allee_growth(r, K0, K, gamma):
    """h(z) = r z (z/K0 - 1)(1 - z/K): negative growth below K0, above K."""
    if not (0 < K0 < K):
        raise ModelError("need 0 < K0 < K for the two-threshold growth")

    def h_into(z, out, work):
        # ((r z) (z/K0 - 1)) (1 - z/K)
        tmp = work[0]
        np.multiply(z, r, out=out)
        np.divide(z, K0, out=tmp)
        tmp -= 1.0
        out *= tmp
        np.divide(z, K, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        return np.multiply(out, tmp, out=out)

    def h_prime(z):
        z = np.asarray(z, dtype=float)
        A = z / K0 - 1.0
        B = 1.0 - z / K
        out = r * (A * B + z * (B / K0 - A / K))
        return float(out) if out.ndim == 0 else out

    return GrowthModel(h=InPlace(h_into, 1), h_prime=h_prime, gamma=gamma,
                       name=f"allee(r={r:g},K0={K0:g},K={K:g},gamma={gamma:g})")


def _closed_polynomial(g: GrowthModel, r, c):
    """g and its drift, with the closed-form potential of h = r z - c z^2;
    keeps Q cheap and exact."""
    gamma = g.gamma

    def Q(x):
        x = np.asarray(x, dtype=float)
        out = np.log(x) - 0.5 * r * (x * x - 1.0) + (c * gamma / 16.0) * (x ** 4 - 1.0)
        return float(out) if out.ndim == 0 else out

    return g, dataclasses.replace(drift_from_growth(g), Q=Q)


def _closed_allee(g: GrowthModel, r, K0, K):
    """g and its drift, with the closed-form potential of the
    two-threshold cubic growth."""
    gamma = g.gamma

    def G(z):
        # antiderivative of 2 h(s) / (gamma s)
        return (2.0 * r / gamma) * (z * z / (2.0 * K0) + z * z / (2.0 * K)
                                    - z ** 3 / (3.0 * K0 * K) - z)

    def Q(x):
        x = np.asarray(x, dtype=float)
        z = gamma * x * x / 4.0
        out = np.log(x) - (G(z) - G(gamma / 4.0))
        return float(out) if out.ndim == 0 else out

    return g, dataclasses.replace(drift_from_growth(g), Q=Q)


# name -> (kind, {parameter: default} in the order their problems are
# reported, build(**parameters) -> (growth or None, drift))
PRESETS = {
    "logistic": ("growth", {"gamma": 1.0, "r": 1.0, "c": 1.0},
                 lambda gamma, r, c: _closed_polynomial(
                     logistic_growth(r, c, gamma), r, c)),
    "linear": ("growth", {"gamma": 1.0, "r": 1.0},
               lambda gamma, r: _closed_polynomial(linear_growth(r, gamma),
                                                   r, 0.0)),
    "allee": ("growth", {"gamma": 1.0, "r": 1.0, "K0": 1.0, "K": 10.0},
              lambda gamma, r, K0, K: _closed_allee(
                  allee_growth(r, K0, K, gamma), r, K0, K)),
    "ou": ("drift", {"theta": 1.0}, lambda theta: (None, ou_drift(theta))),
}


def preset_model(preset, kind, params) -> Model:
    """Build a Model from a preset name (one of PRESETS, or custom), a
    kind, and a parameter mapping."""
    problems = []
    p = dict(params)

    def num(key, default):
        if key in p:
            try:
                return float(p[key])
            except (TypeError, ValueError):
                problems.append(f"model.{key}: not a number ({p[key]!r})")
        return default

    if kind not in ("drift", "growth"):
        raise ConfigError([f"model.kind: must be drift or growth, got {kind!r}"])

    if preset in PRESETS:
        need, defaults, build = PRESETS[preset]
        if kind != need:
            problems.append(f"model.preset: {preset} requires kind = {need}")
        values = {key: num(key, value) for key, value in defaults.items()}
        if problems:
            raise ConfigError(problems)
        g, d = build(**values)
        return Model(kind=need, drift=d, growth=g, label=(g or d).name)

    if preset == "custom":
        text = p.get("expression")
        if not text:
            raise ConfigError(["model.expression: required for preset = custom"])
        names = {k: float(v) for k, v in p.items()
                 if k not in ("expression",) and _is_number(v)}
        if kind == "growth":
            gamma = names.pop("gamma", 1.0)
            h = compile_expression(text, "z", names)
            g = GrowthModel(h=h, h_prime=fd_derivative(h), gamma=gamma,
                            name=f"custom-growth({text})")
            d = drift_from_growth(g)
            return Model(kind="growth", drift=d, growth=g, label=g.name)
        q = compile_expression(text, "x", names)
        qp = fd_derivative(q)
        a = _estimate_origin_exponent(q)
        d = drift_field(q, qp, origin_exponent=a,
                        name=f"custom-drift({text})",
                        singular_origin=(a is None or a > 0))
        return Model(kind="drift", drift=d, growth=None, label=d.name)

    raise ConfigError([f"model.preset: unknown preset {preset!r} "
                       f"(expected {', '.join(PRESETS)}, custom)"])


def _is_number(v):
    try:
        float(v)
        return True
    except (TypeError, ValueError):
        return False


def _estimate_origin_exponent(q):
    """Probe a = lim x q(x) at the origin; None when the trend is unstable."""
    xs = np.array([1e-5, 1e-6, 1e-7])
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            vals = xs * np.asarray(q(xs), dtype=float)
    except Exception:
        return None
    if not np.all(np.isfinite(vals)):
        return None
    if np.max(np.abs(vals)) < 1e-6:
        return 0.0
    spread = np.max(np.abs(vals - vals.mean()))
    if spread < 1e-3 * max(1.0, abs(vals.mean())):
        return float(vals.mean())
    return None
