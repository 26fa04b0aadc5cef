"""Verdict-producing quadrature.

integrate() returns an IntegralVerdict instead of a bare number.  It
marches 20-point Gauss-Legendre panels in s = ln z, one per decade to
begin with: outward from a to +inf, inward from b to 0, or across a
finite [a, b]; [0, +inf) is marched inward from 1 and then outward.  A
panel is halved while ln(f z) moves by more than 8 across its nodes, or
while the last two Legendre coefficients of its interpolant weigh more
than 1e-10 of the total, and the march stops once f z has faded e^-50
below the running total.  A march still
open at z = 1e48 (or 1e-48) is read from the slope kappa of ln(f z) per
unit s on its last panel: for kappa <= -0.05 it converges, and the rest
is closed as f z / |kappa|; otherwise it diverges, like a logarithm for
|kappa| < 0.05 and like a power above.  A non-finite value at a node the
march reaches reads as divergence, never as a value: like a power when
the slope of ln(f z) held level across the last two finite panels, and
exponential when it grew.  An integrand that fails, or returns the wrong
shape, raises.

sweep() integrates exp(-R), R the integral of a rate r, from every
point of an array toward one end, in one pass over the sorted points:
each point's gap to its neighbour is integrated on the same
Gauss-Legendre panels, with the exponent built from r alone, and the
gaps are summed from the far end inward.  A heavy far tail, such as
the critical Feller diffusion's y/z, is marched in ln(1 + z); still
open past z = 1e48, it is closed by the march's end rule, and infinite
unless it decays there like a power.

classify_growth() reads the partial-sum trails of the series criteria.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

# 20-point Gauss-Legendre on [-1, 1], and the map from values at its
# nodes to the Legendre coefficients of their interpolant
_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)
_GL_COEF = np.linalg.inv(np.polynomial.legendre.legvander(_GL_X, 19))
_FADE = 50.0            # a march stops once its integrand is e^-50 below it
_FAR_END = 1e48         # a march still open here is closed by its end rule
_DELTA = 0.05           # the end rule's margin on the slope of ln(f z)
_LEVEL = 0.01           # a slope that grows by less than this share of
                        # itself per unit s is a power's; exp(z^a), whose
                        # slope grows by a share a, overflows by 1e48 only
                        # for a > 0.058
_ROUGH = 1e-10          # a panel is halved when its last two Legendre
                        # coefficients weigh this share of the total
_MAX_ROUNDS = 40        # a march still halving panels after this many
_MAX_PANELS = 2000      # rounds, or past this many panels, is inconclusive
_LN10 = np.log(10.0)


@dataclass(frozen=True)
class IntegralVerdict:
    status: str                      # converges | diverges | inconclusive
    value: float                     # value when converges, last partial otherwise
    trail: tuple                     # ((z, partial), ...), one per decade
    growth_model: Optional[str]      # bounded | log | power | exp

    def __bool__(self):
        return self.status == "converges"


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


def integrate(f, a, b) -> IntegralVerdict:
    """Integrate f over (a, b), 0 <= a < b <= inf, by the march above.

    f must be vectorized: it maps an array of any shape to an array of the
    same shape.
    """
    a = float(a)
    b = float(b)
    if not 0.0 <= a < b:
        raise ValueError("need 0 <= a < b")
    if a > 0.0:
        return _march(f, a, b)
    if b < np.inf:
        return _march(f, b, 0.0)
    head = _march(f, 1.0, 0.0)
    if head.status != "converges":
        return head
    return _march(f, 1.0, b, head.value, head.trail)


def _march(f, start, end, total=0.0, trail=()):
    """The march from start toward end, adding to total and trail.

    Every panel up to where the march stops is evaluated in one call of f
    per round of halving.  Panels start at decade marks, and the trail
    gets the running total at each mark the march crosses, then
    (where it stopped, the returned value).
    """
    lo, hi = sorted((np.log(start), np.log(np.clip(end, 1 / _FAR_END,
                                                   _FAR_END))))
    marks = np.arange(np.floor(lo / _LN10 + 1e-9) + 1,
                      np.ceil(hi / _LN10 - 1e-9)) * _LN10
    edges = np.concatenate([[lo], marks, [hi]])
    if end < start:
        edges = edges[::-1]
    a, b = edges[:-1], edges[1:]
    decade = np.ones(a.size, dtype=bool)      # the panel ends on a mark
    g = _values(f, a, b)
    for rounds in range(_MAX_ROUNDS + 1):
        half = 0.5 * np.abs(b - a)
        run = total + np.cumsum(half * (g @ _GL_W))
        with np.errstate(all="ignore"):
            lg = np.log(np.abs(g))
            finite = np.isfinite(g).all(axis=1)
            stop = ~finite | (np.abs(g[:, -1]) <= np.exp(-_FADE) * np.abs(run))
        n = int(np.argmax(stop)) if stop.any() else a.size - 1
        m = n + finite[n]       # a non-finite panel is a verdict, not halved
        with np.errstate(invalid="ignore"):
            rough = (half[:m] * np.abs(g[:m] @ _GL_COEF[-2:].T).sum(axis=1)
                     > _ROUGH * np.abs(run[n]))
            i = np.flatnonzero(rough | (np.ptp(lg[:m], axis=1) > 8.0))
        if (not i.size or rounds == _MAX_ROUNDS
                or a.size + i.size > _MAX_PANELS):
            break
        mid = 0.5 * (a[i] + b[i])
        a, b = np.insert(a, i + 1, mid), np.insert(b, i, mid)
        decade = np.insert(decade, i, False)
        g = np.insert(g, i, 0.0, axis=0)
        new = np.concatenate([i, i + 1]) + np.tile(np.arange(i.size), 2)
        g[new] = _values(f, a[new], b[new])

    def slope(j):          # of ln(f z) per unit s across panel j
        return (lg[j, -1] - lg[j, 0]) / (half[j] * (_GL_X[-1] - _GL_X[0]))
    status, growth, value = "converges", "bounded", float(run[n])
    if i.size:
        status, growth = "inconclusive", None
    elif not finite[n]:
        status, growth, value = "diverges", "exp", np.inf
        # a power's slope is level, an exponential's grows
        if n >= 2:
            k1, k2 = slope(n - 2), slope(n - 1)
            if k2 - k1 <= _LEVEL * abs(k2) * (half[n - 2] + half[n - 1]):
                growth = "power"
    elif not stop[n] and end in (0.0, np.inf):
        kappa = slope(n)
        if kappa <= -_DELTA:
            value += g[n, -1] * np.exp(kappa * half[n] * (1 - _GL_X[-1])) \
                / -kappa
        else:
            status, growth = "diverges", "log" if kappa < _DELTA else "power"
    ends = np.exp(b[:n])
    trail = (*trail, *((float(ends[j]), float(run[j]))
                       for j in np.flatnonzero(decade[:n])),
             (float(np.exp(b[n])), float(value)))
    return IntegralVerdict(status, float(value), trail, growth)


def _values(f, a, b):
    """f z at the Gauss-Legendre nodes of the panels (a, b) in s = ln z,
    one row per panel, in the direction of the march."""
    z = np.exp(a[:, None] + 0.5 * (b - a)[:, None] * (_GL_X + 1.0))
    with np.errstate(all="ignore"):
        fz = np.asarray(f(z), dtype=float)
        if fz.shape != z.shape:
            raise ValueError(f"integrand returned shape {fz.shape} "
                             f"for nodes of shape {z.shape}")
        return fz * z


def positive_integrand(f):
    """Wrap a nonnegative integrand: never emit NaN, map blowups to +inf.

    NaN arises only from inf/inf races deep inside endpoint zones; for
    nonnegative integrands +inf is the conservative reading, and the
    march reads a non-finite node as divergence.
    """
    def g(x):
        with np.errstate(all="ignore"):
            out = np.asarray(f(x), dtype=float)
        bad = ~np.isfinite(out)
        if np.any(bad):
            out = np.where(np.isnan(out), np.inf, out)
        return out

    return g


# the 20-point Gauss-Legendre rule's integration matrix: row i integrates
# the rule's interpolant from -1 to node i
_GL_INT = (np.polynomial.legendre.legval(
    _GL_X, np.polynomial.legendre.legint(np.eye(20), lbnd=-1)).T @ _GL_COEF)
_GAP_PANELS = 160       # a gap still open after this many panels is inf
_FAR = 64.0             # the open tail's log panels start past this z
_LOG_REACH = 8.0        # widest log panel, in ln(1 + z): where R grows like
                        # ln z, R moves by just under 8 on it, and a wider
                        # try would be rejected on every other panel


def sweep(r, y, end, sign):
    """int of exp(-R(z)) from each y toward end, R(z) = sign int_y^z r,
    at every point of y (a float for a scalar y, else an array of y's
    shape).

    r must be vectorized.  In u = sign z the unique nodes are sorted
    toward end.  Each node's gap to the next (the last node's to end) is
    covered by Gauss-Legendre panels, marched in offsets t = u - u_i from
    the gap's start, so that panels narrower than the spacing of doubles
    at z still add up; R at the panel nodes comes from r alone by the
    rule's integration matrix.  A panel is at most four decay lengths
    min((1 + z)/4, 1/|r|) wide, and going down at most 0.8 z, so an r
    singular like 1/z at the origin stays resolved; a panel over which
    R moves by more than 8 is halved.  A gap stops once
    exp(-R), times the distance covered, is e^-50 below its integral G;
    a gap not stopped after _GAP_PANELS panels is a heavy tail, and inf.
    The open gap to +inf, once past _FAR where the reach 1 + z binds
    rather than 4/|r|, is marched in s = ln(1 + z) instead,
    dz = (1 + z) ds, on panels at most _LOG_REACH wide under the same
    rules.  Still open past _FAR_END, it is closed by integrate's end
    rule, with the slope kappa = 1 - r (1 + z) of ln(exp(-R) (1 + z)) at
    its last node: the rest is exp(-R) (1 + z) / |kappa| for
    kappa <= -0.05, and inf otherwise.  The gaps are then summed from
    end outward, I_i = G_i + exp(-R_i(u_i+1)) I_i+1.
    """
    y = np.asarray(y, dtype=float)
    u, back = np.unique(sign * y.reshape(-1), return_inverse=True)
    a = u[u < sign * end]
    span = np.append(a[1:], sign * end) - a
    t, R, G = np.zeros(a.size), np.zeros(a.size), np.zeros(a.size)
    step = np.zeros(a.size)         # exp(-R) at a gap's end; 0 if stopped short
    cap = np.full(a.size, np.inf)   # panel width cap, in s on a log panel
    todo = np.arange(a.size)
    last = a.size - 1 if sign > 0 and end == np.inf else -1   # the open gap
    in_s = False                    # the open gap's cap is in s
    with np.errstate(all="ignore"):
        for _ in range(_GAP_PANELS):
            if not todo.size:
                break
            at, tt = a[todo], t[todo]
            zt, left = at + tt, span[todo] - tt
            reach = 1.0 + zt if sign > 0 else -0.8 * zt
            rt = np.abs(np.asarray(r(sign * zt), dtype=float))
            far = (todo[-1] == last and zt[-1] >= _FAR
                   and 4.0 / rt[-1] >= reach[-1])
            if far != in_s:         # a log panel starts as wide as a doubling
                cap[last] = (np.log(2.0) if far
                             else reach[-1] * np.expm1(cap[last]))
                in_s = far
            w = np.minimum(np.fmin(reach, 4.0 / rt),
                           np.minimum(cap[todo], left))
            if far:
                w[-1] = min(cap[last], _LOG_REACH)
            half = 0.5 * w
            loc = half[:, None] * (_GL_X + 1.0)
            nodes = at[:, None] + (tt[:, None] + loc)
            if far:
                jac = reach[-1] * np.exp(loc[-1])   # 1 + z at the s nodes
                nodes[-1] = jac - 1.0
            p = np.asarray(r(sign * nodes), dtype=float)
            if far:
                p[-1] *= jac
            dR = half[:, None] * (p @ _GL_INT.T)
            keep = np.abs(dR).max(axis=1) > 8.0       # rejected: too wide
            cap[todo] = np.where(keep, 0.5, 2.0) * w
            ok, i = ~keep, todo[~keep]
            f = np.exp(-(R[i, None] + dR[ok]))
            far = far and ok[-1]                      # a log panel taken
            if far:
                f[-1] *= jac
            G[i] += half[ok] * (f @ _GL_W)
            R[i] += half[ok] * (p[ok] @ _GL_W)
            reached = w[ok] >= left[ok]
            t[i] = np.where(reached, span[i], tt[ok] + w[ok])
            if far:
                z1 = reach[-1] * np.exp(w[-1])      # 1 + z at the panel's end
                t[last] = z1 - 1.0 - a[last]
            step[i[reached]] = np.exp(-R[i[reached]])
            faded = np.exp(-R[i]) * t[i] <= np.exp(-_FADE) * G[i]
            if far and not faded[-1] and z1 > _FAR_END:
                kappa = 1.0 - p[-1, -1]     # slope of ln(f (1 + z)) in s
                G[last] += (np.exp(-R[last]) * z1 / -kappa
                            if kappa <= -_DELTA else np.inf)
                faded[-1] = True
            keep[ok] = ~(reached | faded)
            todo = todo[keep]
            # a gap runs several panels: free this panel's node arrays
            # before the next one's are made
            del loc, nodes, p, dR, f
    G[todo] = np.inf
    out = np.zeros(u.size)
    acc = 0.0
    for k in range(a.size - 1, -1, -1):
        acc = G[k] + (step[k] * acc if step[k] > 0.0 else 0.0)
        out[k] = acc
    out[np.isnan(out)] = np.inf
    out = out[back]
    return float(out[0]) if y.ndim == 0 else out.reshape(y.shape)
