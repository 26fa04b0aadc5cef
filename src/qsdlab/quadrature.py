"""Verdict-producing quadrature.

integrate() returns an IntegralVerdict instead of a bare number: improper
integrals are pushed through a ladder of growing cutoffs and the partial
integrals are classified as converging or as growing like a constant, a
logarithm, a power, or an exponential.  A divergence verdict requires two
consecutive consistent classifications.

Finite panels use the double-exponential rule (scipy tanhsinh).  A panel
on which that rule does not converge is handed to adaptive panels (scipy
quad); an integrand that fails, or returns the wrong shape, raises.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import integrate as _si

DEFAULT_CUTOFFS = tuple(float(10.0 ** k) for k in range(1, 9))


@dataclass(frozen=True)
class QuadratureSpec:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_depth: int = 40
    cutoffs: tuple = DEFAULT_CUTOFFS


@dataclass(frozen=True)
class IntegralVerdict:
    status: str                      # converges | diverges | inconclusive
    value: float                     # value when converges, last partial otherwise
    trail: tuple                     # ((cutoff, partial), ...)
    growth_model: Optional[str]      # bounded | log | power | exp
    error: float = float("nan")      # estimate for the convergent part

    def __bool__(self):
        return self.status == "converges"


def _finite_panel(f, a, b, spec):
    """Integrate f on a finite panel. Returns (value, error_estimate, ok)."""
    if b <= a:
        return 0.0, 0.0, True
    maxlevel = int(min(14, max(9, spec.max_depth // 3)))
    with np.errstate(all="ignore"):
        # at the default minlevel of 2 a smooth panel can stop after 67
        # nodes with an error estimate far below its true error
        res = _si.tanhsinh(f, a, b, rtol=spec.rel_tol, atol=spec.abs_tol,
                           minlevel=3, maxlevel=maxlevel)
    val, err, ok = float(res.integral), float(res.error), bool(res.success)
    if ok and np.isfinite(val):
        return val, err, True
    if not np.isfinite(val) and not np.isnan(val):
        return val, np.inf, False  # genuine overflow: keep the sign of infinity
    # the double-exponential rule did not converge: fall back to adaptive panels
    def scalar(x):
        out = f(np.array([x], dtype=float))
        return float(np.asarray(out, dtype=float).reshape(-1)[0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val2, err2 = _si.quad(scalar, a, b, epsabs=spec.abs_tol,
                              epsrel=spec.rel_tol,
                              limit=max(50, spec.max_depth * 5))
    ok2 = np.isfinite(val2) and err2 <= 10.0 * max(spec.abs_tol, spec.rel_tol * abs(val2))
    if ok2 and np.isfinite(val) and abs(val) > 1e3 * max(1.0, abs(val2)):
        # the double-exponential rule saw an endpoint blowup that the
        # adaptive-panel rule never samples; distrust the panel answer
        ok2 = False
    return float(val2), float(err2), bool(ok2)


def classify_growth(cuts, partials, rel_tol=1e-9, abs_tol=1e-12):
    """Classify a partial-integral (or partial-sum) trail.

    Returns (status, growth_model).  The trail is produced on geometrically
    spaced cutoffs, so per-rung increments discriminate sharply: a limit is
    approached through geometrically decaying increments, logarithmic growth
    gives near-constant increments, power growth gives geometrically growing
    increments, and exponential growth gives accelerating ratios.  Divergence
    requires two consecutive increment ratios in the same growth regime.
    """
    cuts = np.asarray(cuts, dtype=float)
    vals = np.asarray(partials, dtype=float)
    if len(vals) >= 1 and not np.all(np.isfinite(vals)):
        return "diverges", "exp"
    if len(vals) >= 3:
        inc = np.diff(vals)
        tol = np.maximum(abs_tol, rel_tol * np.abs(vals[1:]))
        if abs(inc[-1]) <= tol[-1] and abs(inc[-2]) <= tol[-2]:
            return "converges", "bounded"
    if len(vals) < 4:
        return "inconclusive", None
    inc = np.diff(vals)
    tol = np.maximum(abs_tol, rel_tol * np.abs(vals[1:]))
    last = inc[-3:]
    if np.any(last <= tol[-3:]):
        return "inconclusive", None   # increments sinking into the noise floor
    r1 = last[1] / last[0]
    r2 = last[2] / last[1]
    if r1 <= 0.6 and r2 <= 0.6:
        return "converges", "bounded"   # geometric decay: tail is summable
    if r2 < 0.97 or r1 < 0.97:
        return "inconclusive", None   # shrinking, but too slowly to call
    if r1 < 2.5 and r2 < 2.5:
        return "diverges", "log"
    if r1 >= 2.5 and r2 >= 2.5:
        return "diverges", "exp" if r2 / r1 >= 3.0 else "power"
    return "inconclusive", None


def integrate(f, a, b, spec=None) -> IntegralVerdict:
    """Integrate f over (a, b) with a and/or b possibly singular or infinite.

    f must be vectorized: it maps an array of any shape to an array of the
    same shape.
    """
    spec = spec or QuadratureSpec()
    a = float(a)
    b = float(b)
    if not b > a:
        raise ValueError("need b > a")

    lower_singular = a == 0.0
    upper_infinite = np.isinf(b)

    if lower_singular and upper_infinite:
        split = 1.0
        low = integrate(f, a, split, spec)
        up = integrate(f, split, b, spec)
        return _combine(low, up)

    if upper_infinite:
        return _ladder(f, a, spec, direction="up")

    if lower_singular:
        val, err, ok = _finite_panel(f, a, b, spec)
        if ok:
            return IntegralVerdict("converges", val, ((b, val),), "bounded", err)
        return _ladder(f, b, spec, direction="down")

    val, err, ok = _finite_panel(f, a, b, spec)
    status = "converges" if ok else "inconclusive"
    return IntegralVerdict(status, val, ((b, val),), "bounded" if ok else None, err)


def _ladder(f, anchor, spec, direction):
    """Cutoff ladder toward +inf (direction up) or toward 0 (down).

    Toward 0 the growth fit runs in the coordinate 1/epsilon, so a power
    blowup at the origin still reads as power growth.
    """
    if direction == "up":
        cuts = [c for c in spec.cutoffs if c > anchor * (1 + 1e-9)]
        if not cuts:
            cuts = [anchor * 10.0 ** k for k in range(1, 9)]
        segments = [(anchor, cuts[0])] + list(zip(cuts[:-1], cuts[1:]))
        fit_cuts = cuts
    else:
        eps = [1.0 / c for c in spec.cutoffs if 1.0 / c < anchor * (1 - 1e-9)]
        if not eps:
            eps = [anchor / 10.0 ** k for k in range(1, 9)]
        cuts = eps
        segments = [(cuts[0], anchor)] + [(e2, e1) for e1, e2 in zip(cuts[:-1], cuts[1:])]
        fit_cuts = [1.0 / e for e in eps]

    total = 0.0
    err_sum = 0.0
    trail = []
    fits = []
    for (lo, hi), cut, fcut in zip(segments, cuts, fit_cuts):
        val, err, ok = _finite_panel(f, lo, hi, spec)
        total += val
        err_sum += err if np.isfinite(err) else 0.0
        trail.append((cut, total))
        fits.append((fcut, total))
        if not np.isfinite(total):
            return IntegralVerdict("diverges", total, tuple(trail), "exp")
        status, growth = classify_growth([t[0] for t in fits],
                                         [t[1] for t in fits],
                                         spec.rel_tol, spec.abs_tol)
        if status == "converges":
            vals = [t[1] for t in fits]
            total, tail_err = _geometric_tail(vals, total)
            return IntegralVerdict("converges", total, tuple(trail), "bounded",
                                   err_sum + tail_err)
        if status == "diverges":
            return IntegralVerdict("diverges", total, tuple(trail), growth)
    return IntegralVerdict("inconclusive", total, tuple(trail), growth, err_sum)


def _geometric_tail(vals, total):
    """Extrapolate the remaining tail when increments decay geometrically."""
    if len(vals) < 3:
        return total, 0.0
    inc = np.diff(vals)
    if inc[-1] <= 0 or inc[-2] <= 0:
        return total, 0.0
    r = inc[-1] / inc[-2]
    if not 0.0 < r < 0.9:
        return total, 0.0
    tail = float(inc[-1] * r / (1.0 - r))
    return total + tail, tail


def _combine(low: IntegralVerdict, up: IntegralVerdict) -> IntegralVerdict:
    trail = low.trail + up.trail
    for part in (low, up):
        if part.status == "diverges":
            return IntegralVerdict("diverges", part.value, trail, part.growth_model)
    if low.status == "converges" and up.status == "converges":
        return IntegralVerdict("converges", low.value + up.value, trail, "bounded",
                               low.error + up.error)
    growth = up.growth_model or low.growth_model
    return IntegralVerdict("inconclusive", low.value + up.value, trail, growth)


def positive_integrand(f):
    """Wrap a nonnegative integrand: never emit NaN, map blowups to +inf.

    NaN arises only from inf/inf races deep inside endpoint zones; for
    nonnegative integrands +inf is the conservative reading and the
    cutoff ladder makes the actual divergence call.
    """
    def g(x):
        with np.errstate(all="ignore"):
            out = np.asarray(f(x), dtype=float)
        bad = ~np.isfinite(out)
        if np.any(bad):
            out = np.where(np.isnan(out), np.inf, out)
        return out

    return g
