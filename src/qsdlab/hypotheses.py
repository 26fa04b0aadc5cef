"""Admissibility checks for absorbed diffusions and their growth forms.

The laboratory needs five structural properties of a drift field before the
spectral machinery applies, plus one growth-side property:

* h1: absorption is reachable and certain (infinite scale integral at
  infinity, finite exit integral at the origin),
* h2: the transformed generator confines (q^2 - q' bounded below, growing
  at infinity), so the spectrum is discrete,
* h3: the speed measure weighted by the confinement denominator is finite
  near the origin,
* h4: the speed measure has a finite tail and a finite square-root moment
  at the origin,
* h5: the return-time integral is finite (two equivalent double-integral
  forms; both are computed and must agree),
* hh: on the population scale, growth is eventually strongly negative
  (h(x)/sqrt(x) -> -inf) with vanishing relative curvature (x h'/h^2 -> 0).

All exp(Q) arithmetic is shift-stabilized: double integrals are evaluated
as integrals of exp(Q(y) - Q(z)), never as products of huge and tiny
factors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import integrate as _si

from .errors import PreconditionError
from .model import DriftField, GrowthModel, Model
from .quadrature import IntegralVerdict, QuadratureSpec, integrate, positive_integrand

_H2_PROBE_DECADES = range(0, 7)
_HH_PROBE_DECADES = range(2, 9)
_H2_THRESHOLD = 100.0


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    verdict: str            # holds | fails | inconclusive
    key_quantity: str
    detail: str
    trail: object           # json-serializable probe or partial-integral trail


@dataclass(frozen=True)
class HypothesisReport:
    label: str
    checks: dict

    @property
    def verdicts(self):
        return {k: v.verdict for k, v in self.checks.items()}

    def all_hold(self, names=("h1", "h2", "h3", "h4", "h5")):
        return all(self.checks[n].verdict == "holds" for n in names)


# ---------------------------------------------------------------------------
# shift-stabilized inner integrals

def _decay_length(d: DriftField, y):
    with np.errstate(all="ignore"):
        qy = np.asarray(d.q(y), dtype=float)
        return np.where(np.isfinite(qy) & (qy > 0.5 / (1.0 + y)),
                        1.0 / (2.0 * qy), 1.0 + y)


_GL2_A = 0.5 - 0.5 / np.sqrt(3.0)
_GL2_B = 0.5 + 0.5 / np.sqrt(3.0)

# Inner solves run in batches of at most _BATCH points up to level
# _BATCH_LEVEL; points still short of convergence there (status -2) are
# solved again one at a time up to _MAXLEVEL.  scipy's tanhsinh holds
# about 5 MB for each element it runs to level 13, so one batch of all of
# an outer rule's nodes would hold gigabytes on a divergent inner integral.
_BATCH = 128
_BATCH_LEVEL = 6
_MAXLEVEL = 13


def _potential_step(d: DriftField, y, delta, sign: int, Qy):
    """Q(y + sign*delta) - Q(y) without cancellation, elementwise.

    Short steps integrate 2q locally by two-point Gauss (exact through
    cubic drifts); long steps fall back to the potential difference,
    with Qy = Q(y).
    """
    delta = np.asarray(delta, dtype=float)
    y = np.broadcast_to(y, delta.shape)
    out = np.empty_like(delta)
    # step must stay well inside the drift's own scale: q may be singular
    # like 1/(2y) at the origin, so the panel width is tied to y itself
    small = delta <= 0.05 * np.abs(y)
    if np.any(small):
        ds = delta[small]
        ys = y[small]
        z1 = ys + sign * _GL2_A * ds
        z2 = ys + sign * _GL2_B * ds
        out[small] = sign * ds * (np.asarray(d.q(z1), dtype=float)
                                  + np.asarray(d.q(z2), dtype=float))
    if np.any(~small):
        db = delta[~small]
        out[~small] = (np.asarray(d.Q(y[~small] + sign * db), dtype=float)
                       - np.broadcast_to(Qy, delta.shape)[~small])
    return out


def inner_tail(d: DriftField, y, hi: float = np.inf,
               spec: Optional[QuadratureSpec] = None):
    """int_y^hi exp(Q(y) - Q(z)) dz, evaluated in the decay-length coordinate.

    y is a scalar (the result is a float) or an array of any shape (the
    result has that shape); all points of an array are solved together.
    """
    y = np.asarray(y, dtype=float)
    return _inner(d, y, hi - y, +1, spec)


def inner_head(d: DriftField, y, lo: float = 1.0,
               spec: Optional[QuadratureSpec] = None):
    """int_lo^y exp(Q(z) - Q(y)) dz, evaluated in the decay-length coordinate.

    y is a scalar (the result is a float) or an array of any shape (the
    result has that shape); all points of an array are solved together.
    """
    y = np.asarray(y, dtype=float)
    return _inner(d, y, y - lo, -1, spec)


def _inner(d, y, width, sign, spec):
    """int_0^smax exp(-sign (Q(y + sign L s) - Q(y))) L ds for every y,
    with L the decay length at y and smax = width / L (0 when width <= 0)."""
    spec = spec or QuadratureSpec()
    ys = y.reshape(-1)
    L = _decay_length(d, ys)
    with np.errstate(all="ignore"):
        smax = np.maximum(width.reshape(-1) / L, 0.0)
    out = np.zeros_like(ys)
    todo = np.flatnonzero(smax > 0.0)

    def g(s, y, L, Qy):
        with np.errstate(all="ignore"):
            out = np.exp(-sign * _potential_step(d, y, L * s, sign, Qy)) * L
        return np.where(np.isnan(out), np.inf, out)

    if todo.size:
        with np.errstate(all="ignore"):
            Qy = np.asarray(d.Q(ys[todo]), dtype=float)
        args = (ys[todo], L[todo], Qy)
        out[todo] = _inner_values(g, smax[todo], args, spec)
    return float(out[0]) if y.ndim == 0 else out.reshape(y.shape)


def _inner_values(g, smax, args, spec):
    """int_0^smax[i] g(s, *args[i]) ds for every point i; inf if divergent."""
    tol = dict(rtol=min(1e-11, spec.rel_tol), atol=spec.abs_tol * 1e-3)
    val = np.empty_like(smax)
    ok = np.empty(smax.shape, dtype=bool)
    with np.errstate(all="ignore"):
        for lo in range(0, smax.size, _BATCH):
            part = slice(lo, lo + _BATCH)
            res = _si.tanhsinh(g, 0.0, smax[part],
                               args=tuple(a[part] for a in args),
                               maxlevel=_BATCH_LEVEL, **tol)
            val[part], ok[part] = res.integral, res.success
            short = lo + np.flatnonzero(res.status == -2)
            # a heavy tail would not converge at any level either
            heavy = _heavy_tail(g, smax, args, val, short, spec)
            val[short[heavy]] = np.inf
            for i in short[~heavy]:
                res = _si.tanhsinh(g, 0.0, smax[i],
                                   args=tuple(a[i] for a in args),
                                   maxlevel=_MAXLEVEL, **tol)
                val[i], ok[i] = res.integral, res.success
    val[~np.isfinite(val)] = np.inf
    # unconverged: decide between a heavy tail and a quadrature hiccup
    unconverged = np.flatnonzero(~ok & np.isfinite(val))
    val[unconverged[_heavy_tail(g, smax, args, val, unconverged,
                                spec)]] = np.inf
    return val


def _heavy_tail(g, smax, args, val, idx, spec):
    """For the points idx, whether the integrand at the end of the range
    (at most s = 1e6), times s, is still significant against the value."""
    probe_s = np.minimum(smax[idx], 1e6)
    with np.errstate(all="ignore"):
        tail = g(probe_s, *[a[idx] for a in args]) * probe_s
    return tail > np.maximum(spec.abs_tol, 1e-6 * np.abs(val[idx]))


# ---------------------------------------------------------------------------
# individual checks

def check_h1(d: DriftField, spec: Optional[QuadratureSpec] = None) -> HypothesisCheck:
    """Certain absorption: scale integral diverges, origin exit integral finite."""
    spec = spec or QuadratureSpec()

    @positive_integrand
    def eQ(y):
        return np.exp(np.asarray(d.Q(y), dtype=float))

    scale = integrate(eQ, 1.0, np.inf, spec)

    origin = integrate(positive_integrand(
        lambda ys: inner_tail(d, ys, hi=1.0, spec=spec)), 0.0, 1.0, spec)

    if scale.status == "diverges" and origin.status == "converges":
        verdict = "holds"
    elif scale.status == "converges" or origin.status == "diverges":
        verdict = "fails"
    else:
        verdict = "inconclusive"
    detail = (f"scale@inf: {scale.status}({scale.growth_model}); "
              f"exit@0: {origin.status}"
              + (f", value={origin.value:.6g}" if origin.status == "converges" else
                 f"({origin.growth_model})"))
    return HypothesisCheck("h1", verdict, "scale integral / origin exit integral",
                           detail, {"scale": list(scale.trail),
                                    "origin": list(origin.trail)})


def check_h2(d: DriftField) -> HypothesisCheck:
    """Discrete spectrum: q^2 - q' bounded below and growing along probes."""
    xs = np.array([10.0 ** k for k in _H2_PROBE_DECADES])
    with np.errstate(all="ignore"):
        vals = np.asarray(d.q(xs), dtype=float) ** 2 - np.asarray(d.q_prime(xs), dtype=float)
    trail = list(zip(xs.tolist(), [float(v) for v in vals]))
    if not np.all(np.isfinite(vals)):
        # overflow upward is growth, not failure
        if np.any(np.isnan(vals)):
            return HypothesisCheck("h2", "inconclusive", "q^2 - q' probes",
                                   "non-finite probe values", trail)
        vals = np.where(np.isinf(vals), np.finfo(float).max, vals)
    tail_start = 0
    for i in range(len(vals) - 1):
        if vals[i + 1] <= vals[i]:
            tail_start = i + 1
    tail = vals[tail_start:]
    increasing_tail = len(tail) >= 3
    unbounded = increasing_tail and tail[-1] > _H2_THRESHOLD and tail[-1] > 1.2 * tail[0]
    verdict = "holds" if (increasing_tail and unbounded and np.isfinite(d.C)) else "fails"
    detail = (f"C={d.C:.6g}; probes rise from 10^{tail_start} on, "
              f"last={vals[-1]:.6g}" if verdict == "holds" else
              f"C={d.C:.6g}; probe trend not increasing to infinity "
              f"(last={vals[-1]:.6g})")
    return HypothesisCheck("h2", verdict, "q^2 - q' probes", detail, trail)


def check_h3(d: DriftField, spec: Optional[QuadratureSpec] = None) -> HypothesisCheck:
    """Weighted speed measure finite near the origin."""
    spec = spec or QuadratureSpec()
    C = d.C

    @positive_integrand
    def f(y):
        y = np.asarray(y, dtype=float)
        den = np.asarray(d.q(y), dtype=float) ** 2 - np.asarray(d.q_prime(y), dtype=float) + C + 2.0
        return np.exp(-np.asarray(d.Q(y), dtype=float)) / den

    v = integrate(f, 0.0, 1.0, spec)
    verdict = {"converges": "holds", "diverges": "fails"}.get(v.status, "inconclusive")
    detail = (f"value={v.value:.6g}" if v.status == "converges"
              else f"{v.status}({v.growth_model})")
    return HypothesisCheck("h3", verdict, "weighted speed measure at origin",
                           detail, list(v.trail))


def check_h4(d: DriftField, spec: Optional[QuadratureSpec] = None) -> HypothesisCheck:
    """Finite speed tail and finite root-moment at the origin."""
    spec = spec or QuadratureSpec()

    @positive_integrand
    def emQ(y):
        y = np.asarray(y, dtype=float)
        return np.exp(-np.asarray(d.Q(y), dtype=float))

    @positive_integrand
    def root_moment(y):
        y = np.asarray(y, dtype=float)
        return y * np.exp(-0.5 * np.asarray(d.Q(y), dtype=float))

    tail = integrate(emQ, 1.0, np.inf, spec)
    origin = integrate(root_moment, 0.0, 1.0, spec)
    if tail.status == "converges" and origin.status == "converges":
        verdict = "holds"
    elif tail.status == "diverges" or origin.status == "diverges":
        verdict = "fails"
    else:
        verdict = "inconclusive"
    detail = (f"speed tail: {tail.status}; root moment at 0: {origin.status}")
    return HypothesisCheck("h4", verdict, "speed tail / origin root moment", detail,
                           {"tail": list(tail.trail), "origin": list(origin.trail)})


def check_h5(d: DriftField, spec: Optional[QuadratureSpec] = None) -> HypothesisCheck:
    """Finite return-time integral, in both equivalent double-integral forms."""
    spec = spec or QuadratureSpec()

    va = integrate(positive_integrand(
        lambda ys: inner_tail(d, ys, spec=spec)), 1.0, np.inf, spec)
    vb = integrate(positive_integrand(
        lambda ys: inner_head(d, ys, lo=1.0, spec=spec)), 1.0, np.inf, spec)
    agree = va.status == vb.status
    if va.status == "converges" and vb.status == "converges":
        verdict = "holds"
    elif va.status == "diverges" and vb.status == "diverges":
        verdict = "fails"
    elif "diverges" in (va.status, vb.status) and "converges" in (va.status, vb.status):
        verdict = "inconclusive"  # the two forms must agree; disagreement is numerical
    else:
        verdict = "inconclusive"
    detail = (f"tail form: {va.status}({va.growth_model}); "
              f"entrance form: {vb.status}({vb.growth_model}); "
              f"agreement={'yes' if agree else 'NO'}")
    return HypothesisCheck("h5", verdict, "return-time integral (two forms)", detail,
                           {"tail_form": list(va.trail), "entrance_form": list(vb.trail)})


def check_hh(g: GrowthModel) -> HypothesisCheck:
    """Strong eventual decline of growth on the population scale."""
    xs = np.array([10.0 ** k for k in _HH_PROBE_DECADES])
    with np.errstate(all="ignore"):
        h = np.asarray(g.h(xs), dtype=float)
        hp = np.asarray(g.h_prime(xs), dtype=float)
        v1 = h / np.sqrt(xs)
        v2 = xs * hp / (h * h)
    trail = {"decline": list(zip(xs.tolist(), [float(v) for v in v1])),
             "curvature": list(zip(xs.tolist(), [float(v) for v in v2]))}
    tail1 = v1[-4:]
    cond1 = (np.all(np.isfinite(tail1)) and np.all(tail1 < 0)
             and np.all(np.diff(tail1) < 0) and tail1[-1] < -_H2_THRESHOLD)
    tail2 = v2[-4:]
    cond2 = (np.all(np.isfinite(tail2))
             and np.all(np.diff(np.abs(tail2)) <= 0) and abs(tail2[-1]) < 1e-2)
    verdict = "holds" if (cond1 and cond2) else "fails"
    detail = (f"decline last={v1[-1]:.6g} (want -> -inf); "
              f"relative curvature last={v2[-1]:.6g} (want -> 0)")
    return HypothesisCheck("hh", verdict, "growth decline / curvature probes",
                           detail, trail)


# ---------------------------------------------------------------------------
# extra diagnostics

@dataclass(frozen=True)
class InvQReport:
    x0: Optional[float]
    verdict: IntegralVerdict
    eventually_monotone: bool
    first_violation: Optional[float]


def inv_q_criterion(d: DriftField, spec: Optional[QuadratureSpec] = None,
                    window: int = 64) -> InvQReport:
    """For eventually positive drifts: finiteness of int dx / q.

    x0 is the first probe node from which q stays positive on `window`
    consecutive log-spaced nodes; the integral verdict then matches the
    return-time check for eventually monotone drifts.
    """
    spec = spec or QuadratureSpec()
    nodes = np.geomspace(1.0, 1e8, 513)
    with np.errstate(all="ignore"):
        qv = np.asarray(d.q(nodes), dtype=float)
    pos = qv > 0
    x0 = None
    start = None
    run = 0
    for i, p in enumerate(pos):
        run = run + 1 if p else 0
        if run >= window:
            start = i - window + 1
            break
    if start is None:
        raise PreconditionError("q has no positivity window on the probe grid")
    x0 = float(nodes[start])
    tail_q = qv[start:]
    viol = np.nonzero(np.diff(tail_q) < -1e-12 * np.abs(tail_q[:-1]))[0]
    monotone = viol.size == 0
    first_violation = float(nodes[start + 1 + viol[0]]) if viol.size else None

    @positive_integrand
    def inv_q(x):
        x = np.asarray(x, dtype=float)
        return 1.0 / np.asarray(d.q(x), dtype=float)

    v = integrate(inv_q, x0, np.inf, spec)
    return InvQReport(x0=x0, verdict=v, eventually_monotone=bool(monotone),
                      first_violation=first_violation)


# ---------------------------------------------------------------------------
# assembly

def check_all(model, spec: Optional[QuadratureSpec] = None) -> HypothesisReport:
    """Run every check on a Model (or bare DriftField)."""
    spec = spec or QuadratureSpec()
    if isinstance(model, Model):
        d = model.drift
        g = model.growth
        label = model.label
    elif isinstance(model, DriftField):
        d, g, label = model, None, model.name
    else:
        raise TypeError("expected a Model or DriftField")
    checks = {
        "h1": check_h1(d, spec),
        "h2": check_h2(d),
        "h3": check_h3(d, spec),
        "h4": check_h4(d, spec),
        "h5": check_h5(d, spec),
    }
    if g is not None:
        checks["hh"] = check_hh(g)
    else:
        checks["hh"] = HypothesisCheck(
            "hh", "inconclusive", "growth probes",
            "no growth form attached to this model", [])
    return HypothesisReport(label=label, checks=checks)


def report_to_rows(rep: HypothesisReport):
    """Rows for the hypotheses CSV: name, status, quantity, detail, trail json."""
    rows = []
    for name in ("h1", "h2", "h3", "h4", "h5", "hh"):
        c = rep.checks[name]
        rows.append((c.name, c.verdict, c.key_quantity, c.detail,
                     json.dumps(c.trail)))
    return rows
