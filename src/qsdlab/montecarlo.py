"""Path simulation for the absorbed diffusions and their conditionings.

Simulates the unit-diffusion process dX = dB - q(X) dt with absorption
below a small threshold, estimates survivor-conditioned laws and decay
rates from path ensembles, runs the never-absorbed companion process by
an eigenfunction change of drift, and builds the drift of a
supercritical population model conditioned on eventual extinction,
h(y) - gamma y/I(y) with I(y) = int_y^inf exp(J(y) - J(z)) dz and
J' = 2 h/(gamma z).
"""

import functools
import math
import mmap
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import rng
from .errors import DomainError, PreconditionError
from .model import (DriftField, GrowthModel, InPlace, drift_from_growth,
                    in_place, make_potential_integral, scratch_rows, x_from_z,
                    z_from_x)
from .quadrature import sweep
from .spectral import SpectralDecomposition, YaglomMeasure

# steps drawn per RNG refill; a multiple of 4, so that a chunk of
# crossing-test uniforms fills whole Philox blocks of four doubles
_CHUNK = 512
_WIN = 32                 # steps marched between settlements
_GROUP = 128              # lanes whose normals are drawn, then transposed
_BLOCK = 3072             # lanes marched together, each fed paths in turn
# exp(-2 y / dt) underflows to exactly 0.0 once y >= 373 dt (the bound is
# 372.57 dt), so no crossing test is needed past it
_CROSS_SKIP = 373.0
# and it is below 2**-53, the smallest nonzero uniform, once y > 18.4 dt
_CROSS_NARROW = 19.0
# the step events _euler_paths counts, one int each
PATH_EVENTS = ("landings", "non_finite_steps", "crossing_kills",
               "reflections")


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

    @property
    def n_steps(self):
        """Steps of dt to t_max, the last one ending at or past it."""
        return int(np.ceil(self.t_max / self.dt - 1e-12))

    def problems(self):
        """(field, complaint) for every field outside its range."""
        rules = ((self.dt > 0, "dt", "must be positive"),
                 (self.dt < self.t_max < np.inf, "t_max",
                  "must exceed dt and be finite"),
                 (self.n_paths >= 1, "n_paths", "must be at least 1"),
                 (self.absorb_threshold > 0, "absorb_threshold",
                  "must be positive"))
        return [(name, f"{rule}, got {getattr(self, name)!r}")
                for ok, name, rule in rules if not ok]

    def validate(self):
        problems = self.problems()
        if problems:
            raise PreconditionError("; ".join(f"{name} {text}"
                                              for name, text in problems))


@dataclass(frozen=True)
class PathBatch:
    """An ensemble's absorption times and final states.

    states holds each path's position after the final step, 0 for a path
    absorbed before it.  T0 is the per-path absorption time with an
    infinity sentinel for paths still alive at the final step.  events
    counts the steps that ended a path (landings, non-finite steps,
    crossing-test kills) and the reflections, by the names in
    PATH_EVENTS.  The batch makes states and T0 read-only.
    """

    states: np.ndarray
    T0: np.ndarray
    events: dict

    def __post_init__(self):
        for arr in (self.states, self.T0):
            arr.setflags(write=False)

    @property
    def n_paths(self):
        return len(self.T0)

    @functools.cached_property
    def _sorted_T0(self):
        return np.sort(self.T0)

    def n_alive(self, ts):
        """Paths with T0 > t, at a time or at each of an array of times."""
        return self.n_paths - np.searchsorted(self._sorted_T0, ts,
                                              side="right")

    def survival(self, ts):
        frac = self.n_alive(np.asarray(ts, dtype=float)) / self.n_paths
        return frac if np.ndim(ts) else float(frac)


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

def _euler_paths(q, x0, cfg, edges=None):
    """Ensemble of x' = x - q(x) dt + sqrt(dt) N, one stream per path.

    Without edges the paths are absorbed: when a step lands at or below
    cfg.absorb_threshold (dated by linear interpolation), when a step is
    not finite (dated at mid-step), and with the pinned-path crossing
    probability exp(-2 (x - d)(x' - d)/dt) for steps that stay above it.
    With edges (lo, hi) the paths live forever and excursions past an
    edge are mirrored back inside.  q is stepped through its in-place
    evaluator (model.in_place): an InPlace's own, or the adapter that
    copies q(x).  The paths are marched on _BLOCK lanes fed from a queue
    (_march_block).
    Returns the states after the final step (0 for an absorbed path),
    T0 and the step events counted by name (PATH_EVENTS).
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

    # a mapping of its own: freed, it goes back to the system whole and
    # leaves the heap (and malloc's mmap threshold) as it found them
    states, = _mapped([(cfg.n_paths,)])
    T0 = np.full(cfg.n_paths, np.inf)
    events = dict.fromkeys(PATH_EVENTS, 0)
    with _Buffers(min(_BLOCK, cfg.n_paths), edges is None, cfg.seed,
                  1 + scratch_rows(q)) as buf:
        _march_block(in_place(q), x0, cfg, edges, states, T0, events, buf)
    return states, T0, events


# lane generators no ensemble holds: built at first use, then kept for
# the process, since a lane re-keys its generator before every path
_IDLE_GENS = []


class _Buffers:
    """What the lanes are marched in, made once per ensemble.

    gens are Philox generators, one per lane, that a lane re-keys to each
    path it takes (seek): re-keying costs a fifth of building a stream.
    They are taken from the process's idle pool on entry and given back on
    exit, so an ensemble running at the same time builds its own.  The
    arrays are the zeroed pages of one anonymous mapping: slab, the
    time-major chunk, one row per step; raw, a group of lanes' normals;
    room for the row each step's drift is written into and the drift's
    R - 1 scratch rows (drift_rows); and for absorbed paths u, room for a
    chunk of crossing-test uniforms per lane, filled from its start
    (_Uniforms), and _settle's rows.  The mapping goes back to the system
    whole when the ensemble is done, so its rows never stay resident in
    the heap, and what is resident while it lives is what this ensemble
    touched.  The final states the lanes write are a mapping of their own
    (_euler_paths), which lives as long as the batch.
    """

    def __init__(self, B, absorbed, seed, R):
        self.seek = rng.Seek(seed)
        try:
            self.gens = _IDLE_GENS.pop()
        except IndexError:
            self.gens = []
        self.gens += [rng.stream(0, i) for i in range(len(self.gens), B)]
        self.R = R
        shapes = [(_CHUNK + 1, B), (min(_GROUP, B), _CHUNK), (R * B,)]
        if absorbed:
            shapes += [(B * _CHUNK,), ((_WIN + 1) * B,), (_WIN * B,)]
        self.slab, self.raw, self.rows, *settle = _mapped(shapes)
        self.u, self.diffs, self.prods = settle or (None, None, None)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        _IDLE_GENS.append(self.gens)

    def drift_rows(self, n):
        """The drift row and the scratch rows of n lanes, cut from the
        front of the room so that each, and every run of them, is
        C-contiguous: an evaluator reshaping them copies nothing."""
        rows = self.rows[:self.R * n].reshape(self.R, n)
        return rows[0], rows[1:]


def _mapped(shapes):
    """Zeroed float arrays of the given shapes, cut from one anonymous
    mapping that is unmapped when the last of them is freed."""
    sizes = [math.prod(shape) for shape in shapes]
    flat = np.frombuffer(mmap.mmap(-1, 8 * sum(sizes)), dtype=float)
    ends = np.cumsum(sizes).tolist()
    return [flat[end - size:end].reshape(shape)
            for shape, size, end in zip(shapes, sizes, ends)]


@np.errstate(all="ignore")
def _march_block(into, x0, cfg, edges, states, T0, events, buf):
    """Step paths 0, 1, ... from x0 to cfg.n_steps on buf's lanes; write
    the final state of each path alive after its last step into states,
    and each absorbed path's absorption time into T0.

    The lanes are fed from a queue, in path order.  At each refill a lane
    whose path died or finished is dropped, and while paths wait every
    free lane takes the next one: its state from x0, its generator re-keyed
    to its normal stream at step 0, and its own chunk 0.  Paths enter only
    at refills, so a path's own chunks stay aligned with the chunk's rows:
    row j holds the state after step own * _CHUNK + j - 1 of the lane's
    path.  Once the queue is empty lanes are only dropped.  A path's
    streams are its own, so the lane it runs in never changes its draws.

    Each refill draws the next chunk of Gaussian steps for the lanes: the
    normals are drawn a group of _GROUP lanes at a time, scaled by
    sqrt(dt) in place while the group is lane-major, and copied into the
    time-major slab, transposed: row 0 holds the lanes' states, row j the
    noise of the chunk's step j.  The chunk is marched in windows of _WIN
    steps, each a range of the slab's rows; a step writes q(x) into buf's
    drift row (into, the drift's in-place evaluator, with buf's scratch
    rows), scales it by -dt, adds x and adds the sum to its row,
    allocating nothing.  With edges each row is reflected (_reflect)
    right after its step.  Without, after each window _settle dates every
    lane's first event in it; a lane that died inside a window was
    stepped on to the window's end: those states are discarded, and until
    the next refill the lane is held at its state at the window's start,
    by resetting the first row of the next window.  A path's last own
    chunk is short (tail steps, the rest of n_steps): a window also ends
    at its row tail, where such a path finishes, its final state is
    written, and its lane is held like a dead one.  The chunk is full
    length while any lane has a full own chunk; its normals past a
    finished path's end are drawn and stepped, and never read.  Reflected
    paths never die, so each set of them enters and finishes together.
    Floating-point warnings are off for the whole march, not per step: a
    step that overflows is a non-finite step.  Adds the step events to
    the events counts.  buf holds what the lanes are marched in
    (_Buffers).
    """
    mdt = -cfg.dt
    sqdt = np.sqrt(cfg.dt)
    n_steps = cfg.n_steps
    last = (n_steps - 1) // _CHUNK           # a path's last own chunk
    tail = n_steps - last * _CHUNK           # and its steps
    slab, raw = buf.slab, buf.raw
    B, G = slab.shape[1], len(raw)
    normals = [gen.standard_normal for gen in buf.gens[:B]]
    free = list(range(B))                    # generators no lane holds
    unif = _Uniforms(cfg.seed, buf.u)

    ids = np.empty(0, dtype=np.intp)         # each lane's path,
    own = np.empty(0, dtype=np.intp)         # the own chunk it is in
    gen = np.empty(0, dtype=np.intp)         # and its generator
    x = np.empty(0)
    queued = 0
    while True:
        k = min(B - len(ids), cfg.n_paths - queued)
        if k:
            new = np.arange(queued, queued + k)
            taken = [free.pop() for _ in range(k)]
            for i, g in zip(new.tolist(), taken):
                buf.seek.put(buf.gens[g], i, 0)
            ids = np.concatenate([ids, new])
            own = np.concatenate([own, np.zeros(k, dtype=np.intp)])
            gen = np.concatenate([gen, taken])
            x = np.concatenate([x, x0[queued:queued + k]])
            queued += k
        n = len(ids)
        if not n:
            return
        final = own == last
        ends = np.where(final, tail, _CHUNK)     # each lane's own rows
        m = int(ends.max())
        slab[0, :n] = x
        rows = list(raw[:, :m])        # a lane's row of raw, cut once a chunk
        for g0 in range(0, n, G):
            lanes = gen[g0:g0 + G].tolist()
            for row, g in zip(rows, lanes):
                normals[g](out=row)
            group = raw[:len(lanes), :m]
            group *= sqdt
            slab[1:m + 1, g0:g0 + len(lanes)] = group.T
        unif.refill(ids, own, ends)
        base = own * _CHUNK
        step, work = buf.drift_rows(n)
        cuts = {*range(0, m, _WIN), m}
        if final.any():
            cuts.add(tail)
        cuts = sorted(cuts)
        dead = np.zeros(n, dtype=bool)
        for j0, j1 in zip(cuts, cuts[1:]):
            W = j1 - j0
            X = slab[j0:j1 + 1, :n]
            # (x + q(x) (-dt)) + noise, the per-step sum: IEEE addition
            # commutes, and q(x) (-dt) is (-q(x)) dt bit for bit
            for w in range(W):
                xw = X[w]
                into(xw, step, work)
                step *= mdt
                step += xw
                X[w + 1] += step
                if edges is not None:
                    _reflect(X[w + 1], edges, events)
            if edges is None:
                dead = _settle(X, dead, ids, base, j0, cfg, unif, T0, events,
                               buf) < W
            if j1 == tail:
                done = final & ~dead
                states[ids[done]] = X[W, done]
                dead |= final
            if dead.all():
                break
            np.copyto(X[W], X[0], where=dead)
        live = ~dead
        x = slab[m, :n][live]
        free += gen[dead].tolist()
        ids, own, gen = ids[live], own[live] + 1, gen[live]


def _reflect(x, edges, events):
    """Mirror the states in x that left [lo, hi] = edges back inside, in
    place, and count them as reflections.  A row with no excursion is
    told by its least and greatest state alone (fmin and fmax skip NaN,
    which no edge test counts), and builds no masks."""
    if not (np.fmin.reduce(x) < edges[0] or np.fmax.reduce(x) > edges[1]):
        return
    out_lo = x < edges[0]
    out_hi = x > edges[1]
    events["reflections"] += int(np.count_nonzero(out_lo)
                                 + np.count_nonzero(out_hi))
    x[out_lo] = 2.0 * edges[0] - x[out_lo]
    x[out_hi] = 2.0 * edges[1] - x[out_hi]
    np.clip(x, edges[0], edges[1], out=x)


def _settle(X, dead, ids, base, j0, cfg, unif, T0, events, buf):
    """Date each lane's first event in the window X, where X[w] holds the
    states after the chunk's step j0 + w - 1, own step base + j0 + w - 1
    of path ids, and dead marks lanes that died earlier.  The differences
    to the threshold and their products go to buf.

    Returns stop: the window step at which each lane died, len(X) - 1 for
    a lane alive at the window's end and -1 for a dead one.  A step ends
    a path when its end is not finite (dated at mid-step), when it lands
    at or below the threshold (dated by linear interpolation) or when it
    fails the pinned-path crossing test, read with unif's uniforms; each
    lane's first such step in step order counts, by the rules the
    per-step test used.
    """
    dt, delta = cfg.dt, cfg.absorb_threshold
    W = len(X) - 1
    stop = np.where(dead, -1, W)
    near = _CROSS_SKIP * dt
    # every step of a lane whose lowest state is delta + lo, lo > 0, has
    # (x - delta)(x' - delta) >= lo^2; if that clears the band and the last
    # state is finite (one that is not stays so to the window's end), the
    # lane can neither end its path nor need uniforms in this window
    lo = X.min(axis=0) - delta
    far = (lo > 0.0) & (lo * lo >= near) & np.isfinite(X[W])
    sub = np.flatnonzero(~(far | dead))
    if not sub.size:
        return stop
    # mode "clip" writes straight to out; every index is in range
    D = np.take(X, sub, axis=1, mode="clip",
                out=buf.diffs[:(W + 1) * sub.size].reshape(W + 1, sub.size))
    D -= delta
    P = np.multiply(D[:-1], D[1:],
                    out=buf.prods[:W * sub.size].reshape(W, sub.size))
    # a lane draws the chunk's uniforms the first time it comes near
    lanes = sub[(P < near).any(axis=0)]
    lanes = lanes[~unif.drawn[lanes]]
    if lanes.size:
        unif.draw(lanes, j0)
    cand = ~(P >= (_CROSS_SKIP if unif.wide else _CROSS_NARROW) * dt)
    # a step can end its path only when it lands (P <= 0), its end is not
    # finite or it is in the crossing-test band; P misses an end at +inf
    if not np.isfinite(X[W, sub]).all():
        cand |= D[1:] == np.inf
    ws, ls = np.divmod(np.flatnonzero(cand), sub.size)
    ls = sub[ls]
    if not ws.size:
        return stop
    end = X[ws + 1, ls]
    hard = ~((end > delta) & (end < np.inf))
    hl, first = np.unique(ls[hard], return_index=True)
    hw = ws[hard][first]
    stop[hl] = hw
    soft = ~hard
    soft &= ws < stop[ls]
    ws, ls = ws[soft], ls[soft]
    # crossing probability for a pinned Brownian path
    pcross = np.exp(-2.0 * (X[ws, ls] - delta) * (X[ws + 1, ls] - delta) / dt)
    kill = unif.u[unif.at[ls] + (j0 + ws)] < pcross
    kl, first = np.unique(ls[kill], return_index=True)
    kw = ws[kill][first]
    stop[kl] = kw
    T0[ids[kl]] = (base[kl] + (j0 + kw)) * dt + 0.5 * dt
    events["crossing_kills"] += kl.size
    keep = stop[hl] == hw
    hl, hw = hl[keep], hw[keep]
    t = (base[hl] + (j0 + hw)) * dt
    x, xn = X[hw, hl], X[hw + 1, hl]
    bad = ~np.isfinite(xn)
    T0[ids[hl[bad]]] = t[bad] + 0.5 * dt
    hit = ~bad
    frac = (x[hit] - delta) / np.maximum(x[hit] - xn[hit], 1e-300)
    T0[ids[hl[hit]]] = t[hit] + dt * np.clip(frac, 0.0, 1.0)
    events["non_finite_steps"] += int(np.count_nonzero(bad))
    events["landings"] += int(np.count_nonzero(hit))
    return stop


class _Uniforms:
    """The crossing-test uniforms of the lanes' paths, an own chunk per
    draw.

    Path p's uniform for its own step s sits at a fixed place in its
    stream (seed, p, UNIFORM): its double number s, in Philox block
    s // 4.  So a lane draws its own chunk's uniforms only when it first
    comes near the threshold in it, from one generator re-keyed to its
    path's stream at that chunk's counter; every uniform read is the one
    a chunk-by-chunk draw gives.  The draws are packed into u one after
    another: a lane's uniform for the chunk's step j is u[at + j].  A
    draw from column a written from u[start] has at = start - a, which
    can be negative, so drawn, not at's sign, tells the lanes that drew.
    Only the part of u drawn into is ever touched.
    """

    def __init__(self, seed, u):
        self.seek = rng.Seek(seed, rng.UNIFORM)
        self.u = u                     # flat, at least _CHUNK per lane

    def refill(self, ids, own, ends):
        """Start a chunk: lane l marches path ids[l] in its own chunk
        own[l], which ends at the chunk's row ends[l]."""
        self.ids, self.own, self.ends = ids, own, ends
        n = len(ids)
        self.drawn = np.zeros(n, dtype=bool)
        self.at = np.zeros(n, dtype=np.intp)
        self.used = 0                  # u[:used] holds the chunk's draws
        # past _CROSS_NARROW dt only a uniform of 0.0 can fail the test
        self.wide = False

    def draw(self, lanes, j0):
        """Draw the given lanes' uniforms into the next free stretches of
        u, from the Philox block holding the chunk's step j0 to each lane's
        end: the lanes first came near in the window starting there, so no
        earlier step of theirs is tested."""
        a = j0 - j0 % 4
        size = self.ends[lanes] - a
        stops = self.used + np.cumsum(size)
        starts = stops - size
        begin, self.used = self.used, int(stops[-1])
        self.drawn[lanes] = True
        self.at[lanes] = starts - a
        blocks = (self.own[lanes] * _CHUNK + a) // 4
        for s, e, i, block in zip(starts.tolist(), stops.tolist(),
                                  self.ids[lanes].tolist(), blocks.tolist()):
            self.seek.at(i, block).random(out=self.u[s:e])
        self.wide = self.wide or bool(
            np.any(self.u[begin:self.used] == 0.0))


def simulate_x(d: DriftField, x0, cfg: SimConfig) -> PathBatch:
    """Euler-Maruyama ensemble for dX = dB - q(X) dt absorbed near 0.

    d.q goes to the stepper as it is: each step is
    (x + q(x) (-dt)) + sqrt(dt) N, which is (x - q(x) dt) + sqrt(dt) N
    bit for bit.  x0 may be a scalar or one value per path.  Absorption
    is declared when a step lands at or below the threshold or is not
    finite, and with the pinned-path crossing probability
    exp(-2 (X_t - d)(X_{t+dt} - d)/dt) for steps that stay above it.
    Identical (seed, n_paths, dt) reproduce the ensemble bit for bit
    regardless of blocking or window layout: every path owns
    counter-based substreams keyed by (seed, path index).
    """
    states, T0, events = _euler_paths(d.q, x0, cfg)
    censored = np.mean(~np.isfinite(T0))
    if censored > 0.9:
        warnings.warn(
            f"{100 * censored:.0f}% of paths were still alive at t_max; "
            "absorption statistics will be censoring-dominated",
            stacklevel=2)
    return PathBatch(states=states, T0=T0, events=events)


def simulate_z(g: GrowthModel, z0, cfg: SimConfig) -> PathBatch:
    """Population-scale ensemble, marched in the unit-diffusion coordinates.

    The square-root state map removes the degenerate diffusion
    coefficient at 0, so the stepping error near extinction is governed
    by the drift alone; the final states are mapped back to the
    population scale (z_from_x, which refuses x < 0).
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
        return PathBatch(states=np.zeros(cfg.n_paths),
                         T0=np.zeros(cfg.n_paths),
                         events=dict.fromkeys(PATH_EVENTS, 0))

    batch = simulate_x(drift_from_growth(g), x_from_z(z0, g.gamma), cfg)
    return PathBatch(states=z_from_x(batch.states, g.gamma), T0=batch.T0,
                     events=batch.events)


# ---------------------------------------------------------------------------
# ensemble summaries

def survival_grid(cfg, record_dt=None):
    """The times a survival curve is read at: step 0, every record_dt
    (about 128 points when it is None) and the final step."""
    n_steps = cfg.n_steps
    if record_dt is None:
        every = max(1, n_steps // 128)
    else:
        every = max(1, int(round(record_dt / cfg.dt)))
    return np.append(np.arange(0, n_steps, every), n_steps) * cfg.dt


def conditional_histogram(b: PathBatch, edges) -> EmpiricalLaw:
    """Histogram of the survivors' final states.

    Survivor states are clipped into the edge range so the conditioned
    masses always sum to one; the two boundary bins absorb any excess.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or len(edges) < 2 or np.any(np.diff(edges) <= 0):
        raise PreconditionError("edges must be strictly increasing")
    surv = np.isinf(b.T0)
    n = int(np.count_nonzero(surv))
    if n == 0:
        z = np.zeros(len(edges) - 1)
        return EmpiricalLaw(edges=edges, masses=z, n_survivors=0,
                            stderr=z.copy(), status="empty")
    vals = np.clip(b.states[surv], edges[0], edges[-1])
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


def estimate_lambda1(b: PathBatch, window, times) -> LambdaEstimate:
    """Decay rate of the empirical survival on a time window.

    Ordinary least squares on log survival over the grid times inside
    the window (survival_grid's, say).  The sign-flipped slope estimates
    the leading decay rate.
    """
    lo, hi = float(window[0]), float(window[1])
    if not hi > lo >= 0:
        raise PreconditionError(f"bad window {window!r}")
    grid = np.asarray(times, dtype=float)
    ts = grid[(grid >= lo) & (grid <= hi)]
    if len(ts) < 3:
        raise PreconditionError("window covers fewer than 3 grid times")
    counts = b.n_alive(ts).astype(float)
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
    states, T0, events = _euler_paths(
        _conditioned_drift(d, s), x0, cfg,
        edges=(float(s.grid[0]), float(s.grid[-1])))
    if events["reflections"]:
        warnings.warn(f"{events['reflections']} excursions were reflected "
                      "at the spectral-grid edges", stacklevel=2)
    return PathBatch(states=states, T0=T0, events=events)


def _conditioned_drift(d: DriftField, s: SpectralDecomposition):
    """The Q-process drift d.q(x) - dlog(x) as an InPlace on 1-D rows, with
    dlog the PCHIP derivative of log eta_1 on s's grid (_located)."""
    from scipy.interpolate import PchipInterpolator   # loaded at first use
    logeta = 0.5 * s.Qgrid + np.log(np.maximum(np.abs(s.psis[:, 0]), 1e-280))
    dlog = _located(PchipInterpolator(s.grid, logeta).derivative(), s.domain)
    d_into, dlog_into = in_place(d.q), dlog.into

    def q_into(x, out, work):
        d_into(x, out, work)
        # dlog goes to the first scratch row, on the rows after it
        return np.subtract(out, dlog_into(x, work[0], work[1:]), out=out)
    return InPlace(q_into, max(scratch_rows(d.q), 1 + dlog.scratch),
                   quiet=True)


def _located(pp, domain):
    """The piecewise quadratic pp on domain's interior nodes as an InPlace
    on 1-D rows whose values are exactly pp(x)'s.

    The piece comes from inverting the grid map, not from a binary
    search: p, x's node position less one, is nondecreasing in x, and
    each breakpoint's p is within guard of its index, so a lane whose p
    is farther than guard from an integer lies in piece floor(p).  Only
    when some lane is that near is every lane checked one step against
    the breakpoints.  Outside the nodes the end pieces extrapolate.  Each
    lane's (breakpoint, coefficients) row is gathered at once, and the
    value is summed in PPoly's order.  Scratch: six rows, the last four
    the gathered rows, read as one (n, 4) block: whole rows of a
    C-contiguous array, as the reflecting march's are (its lanes never
    die), or reshape copies them.
    """
    guard = 1e-6
    bp = pp.x
    c0, c1, c2 = pp.c
    last = len(bp) - 2
    # each piece's left breakpoint and coefficients, one row per piece;
    # PPoly's sum starts at 0.0 (-0.0 -> 0.0)
    table = np.stack([bp[:-1], 0.0 + c2, c1, c0], axis=1)
    right = bp[1:]
    p = domain.node_position(bp) - 1.0
    if not np.all(np.abs(p - np.arange(len(bp))) < guard):
        raise PreconditionError("the breakpoints are not the domain's "
                                "interior nodes")

    def into(x, out, work):
        p, f = work[0], work[1]
        rows = work[2:6].reshape(-1, 4)
        domain.node_position(x, out=p)
        p -= 1.0
        np.fmax(p, 0.0, out=p)
        np.fmin(p, last, out=p)
        # p's whole part goes to f, its fraction stays in p
        np.floor(p, out=f)
        p -= f
        near = (np.minimum.reduce(p) < guard
                or np.maximum.reduce(p) > 1.0 - guard)
        i = p.view(np.intp)
        np.copyto(i, f, casting="unsafe")
        if near:
            # -1 where x < bp[i], +1 where x >= bp[i + 1] (exact signs of
            # the differences); a NaN lane's piece is immaterial, and take's
            # "clip" keeps a step past either end on the end piece
            lo, hi = work[2], work[3]
            bp.take(i, out=lo, mode="clip")
            np.subtract(x, lo, out=lo)
            np.sign(lo, out=lo)
            np.fmin(lo, 0.0, out=lo)
            right.take(i, out=hi, mode="clip")
            np.subtract(x, hi, out=hi)
            np.sign(hi, out=hi)
            hi += 1.0
            np.fmin(hi, 1.0, out=hi)
            f += lo
            f += hi
            np.copyto(i, f, casting="unsafe")
        table.take(i, axis=0, out=rows, mode="clip")
        b, k2, k1, k0 = rows.T
        s = np.subtract(x, b, out=f)
        # (k2 + k1 s) + k0 (s s), each sum and product in either order
        np.multiply(k1, s, out=out)
        out += k2
        s *= s
        s *= k0
        out += s
        return out
    return InPlace(into, 6, quiet=True)


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


def condition_on_extinction(g: GrowthModel) -> ConditionedGrowth:
    """Drift of the population model conditioned to die out.

    Requires growth strong enough that survival has positive probability
    (probed as h(z)/sqrt(z) increasing without bound).  With
    J' = 2 h/(gamma z), the extinction probability is
    u(y) = exp(-J(y)) I(y)/I(0), I(y) = int_y^inf exp(J(y) - J(z)) dz, so
    u'/u = -1/I and the conditioned drift is h(y) - gamma y/I(y).  I at
    every requested point is one quadrature.sweep of J'.
    """
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

    def half_rate(z):
        # J'/2 = h/(gamma z), finite at 0 since h(0) = 0
        z = np.asarray(z, dtype=float)
        with np.errstate(all="ignore"):
            out = np.asarray(h(z), dtype=float) / (gamma * z)
        return np.where(z == 0.0, np.asarray(g.h_prime(0.0)) / gamma, out)

    def rate(z):
        return 2.0 * half_rate(z)

    def tail(y):
        return sweep(rate, y, np.inf, +1)

    u_total = tail(0.0)
    if not (np.isfinite(u_total) and u_total > 0):
        raise PreconditionError("extinction profile integral is not a "
                                "positive finite number")
    J = make_potential_integral(half_rate)      # J(y) - J(1)
    J0 = J(0.0)

    def u(y):
        y = np.asarray(y, dtype=float)
        return (np.exp(J0 - J(y)) * tail(y) / u_total)[()]

    def h_cond(y):
        y = np.asarray(y, dtype=float)
        return (np.asarray(h(y), dtype=float) - gamma * y / tail(y))[()]

    def h_cond_prime(y):
        # phi = u'/u = -1/I, and I' = J' I - 1 gives phi' = -phi J' - phi^2
        y = np.asarray(y, dtype=float)
        phi = -1.0 / tail(y)
        phi_p = -phi * rate(y) - phi * phi
        return (np.asarray(g.h_prime(y), dtype=float) + gamma * phi
                + gamma * y * phi_p)[()]

    probes = tuple(10.0 ** k for k in range(-1, 5))
    hv = np.asarray(h(np.array(probes)), dtype=float)
    with np.errstate(all="ignore"):
        ratios = np.where(hv != 0, h_cond(np.array(probes)) / -hv, np.nan)

    return ConditionedGrowth(h=h_cond, h_prime=h_cond_prime, gamma=gamma,
                             name=f"conditioned({g.name})",
                             probe_points=probes,
                             drift_ratio=tuple(ratios.tolist()), u=u)
