"""Drift fields, growth models, and the transforms between them.

The absorbed diffusion on (0, inf) is dX = dB - q(X) dt with absorption at
the origin.  A population model dZ = sqrt(gamma Z) dB + h(Z) dt is carried
to that form by X = 2 sqrt(Z / gamma), which sends the growth function h to
the drift q(x) = 1/(2x) - (2/(gamma x)) h(gamma x^2 / 4).

Every drift field carries:

* q, q_prime: the drift and its derivative,
* Q: the accumulated potential Q(x) = int_1^x 2 q(u) du, anchored Q(1) = 0,
* C: the curvature floor, the smallest constant with q^2 - q' >= -C,
* origin_exponent: a when q(x) ~ a/x near the origin (None if unknown).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import ConfigError, DomainError, ModelError
from .expr import compile_expression, fd_derivative

# Probe grid used to locate the infimum of q^2 - q'.
_PROBE_LO = 1e-6
_PROBE_HI = 1e6
_PROBE_N = 4096


@dataclass(frozen=True)
class DriftField:
    q: Callable
    q_prime: Callable
    Q: Callable
    C: float
    origin_exponent: Optional[float]
    name: str = "drift"


@dataclass(frozen=True)
class GrowthModel:
    h: Callable
    h_prime: Callable
    gamma: float
    name: str = "growth"


@dataclass(frozen=True)
class ScaleFunctions:
    Lambda: Callable   # scale integral, Lambda(1) = 0
    kappa: Callable    # exit-measure integral, kappa(1) = 0
    mu_density: Callable  # speed density exp(-Q)


@dataclass(frozen=True)
class Model:
    """A configured model: the drift field plus its growth form, if any."""

    kind: str                      # 'drift' or 'growth'
    drift: DriftField
    growth: Optional[GrowthModel]
    params: dict
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

    The coarse minimum is refined by golden-section search in the
    bracketing interval.
    """
    xs = np.geomspace(_PROBE_LO, _PROBE_HI, _PROBE_N)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        vals = np.asarray(q(xs), dtype=float) ** 2 - np.asarray(q_prime(xs), dtype=float)
    finite = np.isfinite(vals)
    if not finite.any():
        raise ModelError("q^2 - q' not finite anywhere on the probe grid")
    idx = int(np.nanargmin(np.where(finite, vals, np.inf)))
    lo = xs[max(idx - 1, 0)]
    hi = xs[min(idx + 1, len(xs) - 1)]
    best = vals[idx]
    if hi > lo:
        def f(x):
            return float(q(x)) ** 2 - float(q_prime(x))
        try:
            res = minimize_scalar(f, bracket=(lo, 0.5 * (lo + hi), hi), method="golden",
                                  options={"xtol": 1e-10})
            if np.isfinite(res.fun):
                best = min(best, float(res.fun))
        except ValueError:
            pass  # keep the grid minimum when the bracket is degenerate
    return max(0.0, -float(best))


_GL10_NODES, _GL10_WEIGHTS = np.polynomial.legendre.leggauss(10)


def panel_gl10(f, a, b):
    """Fixed 10-point Gauss-Legendre on each panel [a, b]; a, b may be arrays.

    f is called once, on the flat array of all panel nodes.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    pts = mid[..., None] + half[..., None] * _GL10_NODES
    vals = f(pts.ravel()).reshape(pts.shape)
    return half * (vals @ _GL10_WEIGHTS)


def _gauss_legendre_panels(f, nodes):
    """Cumulative integral of f along sorted nodes, one panel per gap."""
    panels = panel_gl10(f, nodes[:-1], nodes[1:])
    return np.concatenate(([0.0], np.cumsum(panels)))


def make_potential_integral(q, singular_origin=False):
    """Build Q(x) = int_1^x 2 q(u) du by cumulative panel quadrature.

    Array calls (of any shape) integrate once along the sorted request;
    scalar calls pay one small quadrature.  Panels near a singular origin
    are subdivided in log space so 1/x-type drifts integrate accurately.
    Q is defined on x > 0 when the origin is singular, on x >= 0 otherwise.
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
        if singular_origin and chain[0] < 0.5:
            # refine each sub-unit gap geometrically to tame 1/x growth
            extra = []
            for aa, bb in zip(chain[:-1], chain[1:]):
                if bb <= 0.5 and bb / aa > 1.02:
                    extra.append(np.geomspace(aa, bb, 8)[1:-1])
            if extra:
                chain = np.unique(np.concatenate([chain] + extra))
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
    """Assemble a DriftField, filling in Q and the curvature floor."""
    if Q is None:
        Q = make_potential_integral(q, singular_origin=singular_origin)
    C = curvature_floor(q, q_prime)
    return DriftField(q=q, q_prime=q_prime, Q=Q, C=C,
                      origin_exponent=origin_exponent, name=name)


def drift_from_growth(g: GrowthModel) -> DriftField:
    """Transport a growth model to its drift field on the diffusion scale."""
    gamma = g.gamma
    if gamma <= 0:
        raise ModelError("gamma must be positive")
    h0 = float(g.h(0.0))
    if not math.isfinite(h0) or abs(h0) > 1e-9:
        raise ModelError(f"growth must vanish at zero population, got h(0)={h0!r}")

    def q(x):
        x = np.asarray(x, dtype=float)
        z = gamma * x * x / 4.0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = 0.5 / x - (2.0 / (gamma * x)) * np.asarray(g.h(z), dtype=float)
        return float(out) if out.ndim == 0 else out

    def q_prime(x):
        x = np.asarray(x, dtype=float)
        z = gamma * x * x / 4.0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = (-0.5 / (x * x)
                   + (2.0 / (gamma * x * x)) * np.asarray(g.h(z), dtype=float)
                   - np.asarray(g.h_prime(z), dtype=float))
        return float(out) if out.ndim == 0 else out

    # Q(x) = ln x - int over z of 2 h / (gamma z), anchored at x = 1.
    def growth_part(z):
        z = np.asarray(z, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.asarray(g.h(z), dtype=float) / z
        # h is C^1 with h(0) = 0, so h(z)/z extends continuously
        small = np.abs(z) < 1e-12
        if np.any(small):
            ratio = np.where(small, float(g.h_prime(0.0)), ratio)
        return (2.0 / gamma) * ratio

    Gz = make_potential_integral(lambda z: growth_part(z) / 2.0)
    z_anchor = gamma / 4.0

    def Q(x):
        x = np.asarray(x, dtype=float)
        z = gamma * x * x / 4.0
        out = np.log(x) - (Gz(z) - Gz(z_anchor))
        return float(out) if out.ndim == 0 else out

    return drift_field(q, q_prime, Q=Q, origin_exponent=0.5,
                       name=f"{g.name}-drift", singular_origin=True)


def scale_functions(d: DriftField) -> ScaleFunctions:
    """Scale integral, exit-measure integral, and speed density.

    Lambda(x) = int_1^x e^Q, kappa(x) = int_1^x e^Q(y) int_1^y e^-Q dy.
    Values may overflow to inf far out; boundary classification uses the
    hypothesis engine instead of these raw callables.
    """

    def eQ(y):
        with np.errstate(over="ignore"):
            return np.exp(d.Q(y))

    def emQ(y):
        with np.errstate(over="ignore"):
            return np.exp(-np.asarray(d.Q(y), dtype=float))

    def Lambda(x):
        x = float(x)
        if x <= 0:
            raise DomainError("Lambda is defined on x > 0")
        lo, hi, sign = (1.0, x, 1.0) if x >= 1.0 else (x, 1.0, -1.0)
        nodes = np.geomspace(lo, hi, 512) if hi / lo > 1.0001 else np.linspace(lo, hi, 8)
        return sign * float(_gauss_legendre_panels(eQ, nodes)[-1])

    def inner(y):
        y = float(y)
        lo, hi, sign = (1.0, y, 1.0) if y >= 1.0 else (y, 1.0, -1.0)
        if abs(hi - lo) < 1e-300:
            return 0.0
        nodes = np.geomspace(lo, hi, 256) if hi / lo > 1.0001 else np.linspace(lo, hi, 8)
        return sign * float(_gauss_legendre_panels(emQ, nodes)[-1])

    def kappa(x):
        x = float(x)
        if x <= 0:
            raise DomainError("kappa is defined on x > 0")
        lo, hi, sign = (1.0, x, 1.0) if x >= 1.0 else (x, 1.0, -1.0)
        if abs(hi - lo) < 1e-300:
            return 0.0
        nodes = np.geomspace(lo, hi, 192) if hi / lo > 1.0001 else np.linspace(lo, hi, 16)

        def f(ys):
            ys = np.atleast_1d(ys)
            return np.array([eQ(y) * inner(y) for y in ys])

        return sign * float(_gauss_legendre_panels(f, nodes)[-1])

    return ScaleFunctions(Lambda=Lambda, kappa=kappa, mu_density=emQ)


# ---------------------------------------------------------------------------
# presets

def ou_drift(theta=1.0):
    """Linear restoring drift q(x) = theta x."""
    if theta <= 0:
        raise ModelError("theta must be positive")

    def q(x):
        return theta * np.asarray(x, dtype=float)

    def q_prime(x):
        x = np.asarray(x, dtype=float)
        return np.full_like(x, theta) if x.ndim else theta

    def Q(x):
        x = np.asarray(x, dtype=float)
        out = theta * (x * x - 1.0)
        return float(out) if out.ndim == 0 else out

    return DriftField(q=q, q_prime=q_prime, Q=Q, C=float(theta),
                      origin_exponent=0.0, name=f"ou(theta={theta:g})")


def logistic_growth(r, c, gamma):
    """h(z) = r z - c z^2."""
    if gamma <= 0:
        raise ModelError("gamma must be positive")
    if c < 0:
        raise ModelError("c must be nonnegative")

    def h(z):
        z = np.asarray(z, dtype=float)
        out = r * z - c * z * z
        return float(out) if out.ndim == 0 else out

    def h_prime(z):
        z = np.asarray(z, dtype=float)
        out = r - 2.0 * c * z
        return float(out) if out.ndim == 0 else out

    return GrowthModel(h=h, h_prime=h_prime, gamma=gamma,
                       name=f"logistic(r={r:g},c={c:g},gamma={gamma:g})")


def linear_growth(r, gamma):
    return GrowthModel(
        h=lambda z: r * np.asarray(z, dtype=float),
        h_prime=lambda z: np.full_like(np.asarray(z, dtype=float), r)
        if np.ndim(z) else float(r),
        gamma=gamma,
        name=f"linear(r={r:g},gamma={gamma:g})",
    )


def allee_growth(r, K0, K, gamma):
    """h(z) = r z (z/K0 - 1)(1 - z/K): negative growth below K0, above K."""
    if not (0 < K0 < K):
        raise ModelError("need 0 < K0 < K for the two-threshold growth")

    def h(z):
        z = np.asarray(z, dtype=float)
        out = r * z * (z / K0 - 1.0) * (1.0 - z / K)
        return float(out) if out.ndim == 0 else out

    def h_prime(z):
        z = np.asarray(z, dtype=float)
        A = z / K0 - 1.0
        B = 1.0 - z / K
        out = r * (A * B + z * (B / K0 - A / K))
        return float(out) if out.ndim == 0 else out

    return GrowthModel(h=h, h_prime=h_prime, gamma=gamma,
                       name=f"allee(r={r:g},K0={K0:g},K={K:g},gamma={gamma:g})")


def _logistic_drift_closed(g: GrowthModel, r, c):
    """Closed-form potential for polynomial growth; keeps Q cheap and exact."""
    base = drift_from_growth(g)
    gamma = g.gamma

    def Q(x):
        x = np.asarray(x, dtype=float)
        out = np.log(x) - 0.5 * r * (x * x - 1.0) + (c * gamma / 16.0) * (x ** 4 - 1.0)
        return float(out) if out.ndim == 0 else out

    return DriftField(q=base.q, q_prime=base.q_prime, Q=Q, C=base.C,
                      origin_exponent=0.5, name=base.name)


def _allee_drift_closed(g: GrowthModel, r, K0, K):
    """Closed-form potential for the two-threshold cubic growth."""
    base = drift_from_growth(g)
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

    return DriftField(q=base.q, q_prime=base.q_prime, Q=Q, C=base.C,
                      origin_exponent=0.5, name=base.name)


def preset_model(preset, kind, params) -> Model:
    """Build a Model from a preset name, a kind, and a parameter mapping."""
    problems = []
    p = dict(params)

    def num(key, default=None):
        if key in p:
            try:
                return float(p[key])
            except (TypeError, ValueError):
                problems.append(f"model.{key}: not a number ({p[key]!r})")
                return default
        return default

    if kind not in ("drift", "growth"):
        raise ConfigError([f"model.kind: must be drift or growth, got {kind!r}"])

    if preset == "ou":
        if kind != "drift":
            problems.append("model.preset: ou requires kind = drift")
        theta = num("theta", 1.0)
        if problems:
            raise ConfigError(problems)
        d = ou_drift(theta)
        return Model(kind="drift", drift=d, growth=None,
                     params={"theta": theta}, label=d.name)

    if preset in ("logistic", "linear", "allee"):
        if kind != "growth":
            problems.append(f"model.preset: {preset} requires kind = growth")
        gamma = num("gamma", 1.0)
        r = num("r", 1.0)
        if preset == "logistic":
            c = num("c", 1.0)
            if problems:
                raise ConfigError(problems)
            g = logistic_growth(r, c, gamma)
            d = _logistic_drift_closed(g, r, c)
            used = {"r": r, "c": c, "gamma": gamma}
        elif preset == "linear":
            if problems:
                raise ConfigError(problems)
            g = linear_growth(r, gamma)
            d = _logistic_drift_closed(g, r, 0.0)
            used = {"r": r, "gamma": gamma}
        else:
            K0 = num("K0", 1.0)
            K = num("K", 10.0)
            if problems:
                raise ConfigError(problems)
            g = allee_growth(r, K0, K, gamma)
            d = _allee_drift_closed(g, r, K0, K)
            used = {"r": r, "K0": K0, "K": K, "gamma": gamma}
        return Model(kind="growth", drift=d, growth=g, params=used, label=g.name)

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
            return Model(kind="growth", drift=d, growth=g,
                         params={**names, "gamma": gamma, "expression": text},
                         label=g.name)
        q = compile_expression(text, "x", names)
        qp = fd_derivative(q)
        a = _estimate_origin_exponent(q)
        d = drift_field(q, qp, origin_exponent=a,
                        name=f"custom-drift({text})",
                        singular_origin=(a is None or a > 0))
        return Model(kind="drift", drift=d, growth=None,
                     params={**names, "expression": text}, label=d.name)

    raise ConfigError([f"model.preset: unknown preset {preset!r} "
                       "(expected logistic, linear, allee, ou, custom)"])


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
