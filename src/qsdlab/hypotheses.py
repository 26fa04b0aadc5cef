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

Every outer integral is one quadrature.integrate march of Gauss-Legendre
panels in ln z.  All exp(Q) arithmetic is shift-stabilized: double
integrals are evaluated as integrals of exp(Q(y) - Q(z)), never as
products of huge and tiny factors.  The inner integrals of h1 and h5 at
all of a march's nodes come from one quadrature.sweep over the sorted
nodes, with the exponent's rate 2 q.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import PreconditionError
from .model import DriftField, GrowthModel, Model
from .quadrature import (IntegralVerdict, integrate, positive_integrand,
                         sweep)

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

def inner_tail(d: DriftField, y, hi: float = np.inf):
    """int_y^hi exp(Q(y) - Q(z)) dz at every point of y (a float for a
    scalar y, else an array of y's shape)."""
    return sweep(_rate(d), y, hi, +1)


def inner_head(d: DriftField, y, lo: float = 1.0):
    """int_lo^y exp(Q(z) - Q(y)) dz at every point of y (a float for a
    scalar y, else an array of y's shape)."""
    return sweep(_rate(d), y, lo, -1)


def _rate(d):
    """Q' = 2 q, the rate of the inner integrals' exponent."""
    return lambda z: 2.0 * np.asarray(d.q(z), dtype=float)


# ---------------------------------------------------------------------------
# individual checks

def check_h1(d: DriftField) -> HypothesisCheck:
    """Certain absorption: scale integral diverges, origin exit integral finite."""

    @positive_integrand
    def eQ(y):
        return np.exp(np.asarray(d.Q(y), dtype=float))

    scale = integrate(eQ, 1.0, np.inf)

    origin = integrate(positive_integrand(
        lambda ys: inner_tail(d, ys, hi=1.0)), 0.0, 1.0)

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


def check_h3(d: DriftField) -> HypothesisCheck:
    """Weighted speed measure finite near the origin."""
    C = d.C

    @positive_integrand
    def f(y):
        y = np.asarray(y, dtype=float)
        den = np.asarray(d.q(y), dtype=float) ** 2 - np.asarray(d.q_prime(y), dtype=float) + C + 2.0
        return np.exp(-np.asarray(d.Q(y), dtype=float)) / den

    v = integrate(f, 0.0, 1.0)
    verdict = {"converges": "holds", "diverges": "fails"}.get(v.status, "inconclusive")
    detail = (f"value={v.value:.6g}" if v.status == "converges"
              else f"{v.status}({v.growth_model})")
    return HypothesisCheck("h3", verdict, "weighted speed measure at origin",
                           detail, list(v.trail))


def check_h4(d: DriftField) -> HypothesisCheck:
    """Finite speed tail and finite root-moment at the origin."""

    @positive_integrand
    def emQ(y):
        y = np.asarray(y, dtype=float)
        return np.exp(-np.asarray(d.Q(y), dtype=float))

    @positive_integrand
    def root_moment(y):
        y = np.asarray(y, dtype=float)
        return y * np.exp(-0.5 * np.asarray(d.Q(y), dtype=float))

    tail = integrate(emQ, 1.0, np.inf)
    origin = integrate(root_moment, 0.0, 1.0)
    if tail.status == "converges" and origin.status == "converges":
        verdict = "holds"
    elif tail.status == "diverges" or origin.status == "diverges":
        verdict = "fails"
    else:
        verdict = "inconclusive"
    detail = (f"speed tail: {tail.status}; root moment at 0: {origin.status}")
    return HypothesisCheck("h4", verdict, "speed tail / origin root moment", detail,
                           {"tail": list(tail.trail), "origin": list(origin.trail)})


def check_h5(d: DriftField) -> HypothesisCheck:
    """Finite return-time integral, in both equivalent double-integral forms."""

    va = integrate(positive_integrand(
        lambda ys: inner_tail(d, ys)), 1.0, np.inf)
    vb = integrate(positive_integrand(
        lambda ys: inner_head(d, ys, lo=1.0)), 1.0, np.inf)
    agree = va.status == vb.status
    # the two forms must agree; a disagreement is numerical
    verdict = ({"converges": "holds", "diverges": "fails"}.get(
        va.status, "inconclusive") if agree else "inconclusive")
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


def inv_q_criterion(d: DriftField, window: int = 64) -> InvQReport:
    """For eventually positive drifts: finiteness of int dx / q.

    x0 is the last node of the first run of `window` consecutive
    log-spaced probe nodes on which q is positive; the integral verdict
    then matches the return-time check for eventually monotone drifts.
    The integral starts at the end of the run, not at its start, because
    q may touch zero between probes: the logistic drift (r = c = gamma =
    1) is positive at every probe but has a double zero at sqrt(2), where
    1/q is not integrable.
    """
    nodes = np.geomspace(1.0, 1e8, 513)
    with np.errstate(all="ignore"):
        qv = np.asarray(d.q(nodes), dtype=float)
    pos = qv > 0
    start = None
    run = 0
    for i, p in enumerate(pos):
        run = run + 1 if p else 0
        if run >= window:
            start = i
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

    v = integrate(inv_q, x0, np.inf)
    return InvQReport(x0=x0, verdict=v, eventually_monotone=bool(monotone),
                      first_violation=first_violation)


# ---------------------------------------------------------------------------
# assembly

def check_all(model) -> HypothesisReport:
    """Run every check on a Model (or bare DriftField)."""
    if isinstance(model, Model):
        d = model.drift
        g = model.growth
        label = model.label
    elif isinstance(model, DriftField):
        d, g, label = model, None, model.name
    else:
        raise TypeError("expected a Model or DriftField")
    checks = {
        "h1": check_h1(d),
        "h2": check_h2(d),
        "h3": check_h3(d),
        "h4": check_h4(d),
        "h5": check_h5(d),
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
