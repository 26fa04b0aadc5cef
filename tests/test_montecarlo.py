"""Path ensembles: exact laws, determinism, honest error bars."""

import collections
import tracemalloc

import numpy as np
import pytest
from scipy import integrate
from scipy.interpolate import PchipInterpolator
from scipy.special import erf

from qsdlab import (DomainError, DriftField, PreconditionError, SimConfig,
                    condition_on_extinction, conditional_histogram,
                    drift_field, estimate_lambda1, ks_distance,
                    linear_growth, montecarlo, ou_drift, preset_model,
                    rng, simulate_qprocess, simulate_x, simulate_z)
from qsdlab.montecarlo import (PATH_EVENTS, _CHUNK, _CROSS_NARROW,
                               _CROSS_SKIP, PathBatch, _located)


def _free_drift():
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return drift_field(zero, zero, origin_exponent=0.0, name="free")


def _wall_drift(push=np.inf):
    # OU inside, q = push past x = 10: a step from beyond the wall is not
    # finite (-inf for push = inf, +inf for push = -inf)
    def q(x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 10.0, push, x)
    return DriftField(q=q, q_prime=None, Q=None, origin_exponent=None,
                      name="wall", C_closed=0.0)


# the per-step-compacting stepper the engine replaced, kept verbatim but
# for the steps it records: the engine must reproduce its final states and
# absorption times bit for bit
def _reference_march(v, x0, first, cfg, edges, rec_steps, states, T0):
    """Step paths first, first + 1, ... into their rows of states and T0.

    Only live paths are stepped and refilled: ids lists them (row in the
    block) and x holds their states.  A dead path's stream is never read
    again, so dropping it leaves every other path's draws unchanged.
    Returns the number of reflections.
    """
    dt, delta = cfg.dt, cfg.absorb_threshold
    sqdt = np.sqrt(dt)
    bridge = edges is None
    B = len(x0)
    gens = [rng.stream(cfg.seed, first + i) for i in range(B)]
    ugens = ([rng.stream(cfg.seed, first + i, rng.UNIFORM) for i in range(B)]
             if bridge else None)
    raw = np.empty((B, _CHUNK))
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
            gens[i].standard_normal(out=raw[r, :m])
            if bridge:
                ugens[i].random(out=unif[r, :m])
        row = np.arange(n)                 # each live path's buffer row
        for j in range(m):
            s = start + j
            with np.errstate(all="ignore"):
                xn = x + v(x) * dt + sqdt * raw[row, j]
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


def _reference_paths(v, x0, cfg, edges=None, every_step=False):
    """The reference's (states, T0, reflections): states holds step 0 and
    the final step, or every step with every_step, one column each."""
    n_steps = cfg.n_steps
    rec_steps = (np.arange(n_steps + 1) if every_step
                 else np.array([0, n_steps]))
    x0 = np.broadcast_to(np.asarray(x0, dtype=float), (cfg.n_paths,))
    states = np.zeros((cfg.n_paths, len(rec_steps)))
    T0 = np.full(cfg.n_paths, np.inf)
    reflections = 0
    for lo in range(0, cfg.n_paths, montecarlo._BLOCK):
        hi = min(lo + montecarlo._BLOCK, cfg.n_paths)
        reflections += _reference_march(v, x0[lo:hi], lo, cfg, edges,
                                        rec_steps, states[lo:hi], T0[lo:hi])
    return states, T0, reflections


def _pchip_drift(sd):
    logeta = 0.5 * sd.Qgrid + np.log(np.maximum(np.abs(sd.psis[:, 0]),
                                                1e-280))
    return PchipInterpolator(sd.grid, logeta).derivative()


# (_WIN, _CHUNK) pairs the engine must agree under: the defaults,
# windows that do not divide the chunk, one-step windows in four-step
# chunks, and windows longer than the chunk
_LAYOUTS = ((32, 512), (7, 64), (1, 4), (64, 32))


def _layout_runs(monkeypatch, q, x0, cfg, layouts=_LAYOUTS, edges=None):
    """The engine's (final states, T0, events) under each window and chunk
    size; the engine takes the drift q of dX = dB - q dt."""
    default = montecarlo._WIN, montecarlo._CHUNK
    for win, chunk in layouts:
        monkeypatch.setattr(montecarlo, "_WIN", win)
        monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
        states, T0, events = montecarlo._euler_paths(q, x0, cfg, edges)
        yield (win, chunk), states, T0, events
    monkeypatch.setattr(montecarlo, "_WIN", default[0])
    monkeypatch.setattr(montecarlo, "_CHUNK", default[1])


def _minus(q):
    """The reference stepper's velocity -q."""
    return lambda x: -np.asarray(q(x), dtype=float)


# lane group sizes the engine must agree under: one lane, a size that
# divides neither n_paths below, and the default
_GROUPS = (1, 3, montecarlo._GROUP)


def _step_products(states, delta):
    """(x - d)(x' - d) of every recorded step, for a record every step."""
    return (states[:, :-1] - delta) * (states[:, 1:] - delta)


# OU from x0 = 0.05: paths land and fail the crossing test mid-chunk, and
# t_max = 1.2 at dt = 1e-3 takes two refills
_NEAR = dict(dt=1e-3, t_max=1.2, n_paths=61, seed=3)


@pytest.mark.parametrize("drift, x0, extra, block", [
    pytest.param(ou_drift(1.0), 0.05, {}, 4096, id="ou-near"),
    pytest.param(ou_drift(1.0), 0.05, {}, 1, id="block-1"),
    pytest.param(ou_drift(1.0), 0.05, {}, 7, id="block-7"),
    pytest.param(ou_drift(1.0), 0.05, {"n_paths": 5000}, 4096,
                 id="block-4096"),
    # 1201 steps: the last one ends half a step past t_max
    pytest.param(ou_drift(1.0), 0.05, {"t_max": 1.2005}, 4096,
                 id="t_max-off-grid"),
    pytest.param(_wall_drift(), np.r_[10.5, 9.99, np.full(59, 1.5)], {},
                 4096, id="wall"),
    pytest.param(_wall_drift(-np.inf), np.r_[10.5, 9.99, np.full(59, 1.5)],
                 {}, 4096, id="wall-up"),
])
def test_engine_matches_reference_stepper(drift, x0, extra, block,
                                          monkeypatch):
    monkeypatch.setattr(montecarlo, "_BLOCK", block)
    cfg = SimConfig(**{**_NEAR, **extra})
    assert cfg.n_steps > 2 * _CHUNK
    states, T0, _ = _reference_paths(_minus(drift.q), x0, cfg)
    final = states[:, -1]
    # paths die after a refill, and some outlive t_max
    assert np.any(np.isfinite(T0) & (T0 > _CHUNK * cfg.dt))
    assert np.any(np.isinf(T0))
    layouts = _LAYOUTS if cfg.n_paths <= 61 else _LAYOUTS[:2]
    for group in _GROUPS:
        assert cfg.n_paths % group or group == 1
        monkeypatch.setattr(montecarlo, "_GROUP", group)
        b = simulate_x(drift, x0, cfg)
        assert np.array_equal(b.T0, T0), group
        assert np.array_equal(b.states, final), group
        for layout, s, t, events in _layout_runs(monkeypatch, drift.q, x0,
                                                 cfg, layouts):
            assert np.array_equal(t, T0), (group, layout)
            assert np.array_equal(s, final), (group, layout)
            assert events == b.events, (group, layout)


def test_deaths_at_window_and_chunk_edges(monkeypatch):
    # a pull of one unit per step against noise of 1e-3 per step lands
    # the path started at k + 0.5 at step k, whatever the draws
    dt = 1e-6
    cfg = SimConfig(dt=dt, t_max=1200 * dt, n_paths=12, seed=4)

    def q(x):
        return np.full_like(x, 1.0 / dt)
    for win, chunk in _LAYOUTS:
        # the first and last step of windows, the steps either side of
        # refills, and a path that lives into the last chunk
        k = np.array([0, 1, win - 1, win, 2 * win - 1, 2 * win, chunk - 1,
                      chunk, chunk + win - 1, 2 * chunk - 1, 2 * chunk,
                      1150])
        states, T0, _ = _reference_paths(_minus(q), k + 0.5, cfg)
        assert np.array_equal(np.floor(T0 / dt + 1e-9), k)
        monkeypatch.setattr(montecarlo, "_WIN", win)
        monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
        s, t, events = montecarlo._euler_paths(q, k + 0.5, cfg)
        assert np.array_equal(t, T0), (win, chunk)
        assert np.array_equal(s, states[:, -1]), (win, chunk)
        assert events["landings"] == k.size


def test_waiting_paths_keep_every_lane_busy(monkeypatch):
    # the deterministic pull above on four lanes: a freed lane takes the
    # next path at the refill, so while paths wait every step marches all
    # four lanes, and once none waits lanes only leave
    dt = 1e-6
    cfg = SimConfig(dt=dt, t_max=1200 * dt, n_paths=12, seed=4)
    monkeypatch.setattr(montecarlo, "_BLOCK", 4)
    real = rng.Seek.put
    entered = []

    def put(seek, gen, index, block):
        if seek.region == 0:
            entered.append(index)
        return real(seek, gen, index, block)
    monkeypatch.setattr(rng.Seek, "put", put)
    for win, chunk in _LAYOUTS:
        k = np.array([0, 1, win - 1, win, 2 * win - 1, 2 * win, chunk - 1,
                      chunk, chunk + win - 1, 2 * chunk - 1, 2 * chunk,
                      1150])
        monkeypatch.setattr(montecarlo, "_WIN", win)
        monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
        entered.clear()
        widths = []                    # (lanes stepped, paths entered)

        def q(x):
            widths.append((x.size, len(entered)))
            return np.full_like(x, 1.0 / dt)
        _, T0, _ = montecarlo._euler_paths(q, k + 0.5, cfg)
        assert np.array_equal(np.floor(T0 / dt + 1e-9), k)
        assert entered == list(range(cfg.n_paths))
        waiting = [n for n, e in widths if e < cfg.n_paths]
        assert waiting and set(waiting) == {4}, (win, chunk)
        rest = [n for n, e in widths if e == cfg.n_paths]
        assert rest == sorted(rest, reverse=True), (win, chunk)


def test_lane_generators_are_built_once_per_process(monkeypatch):
    monkeypatch.setattr(montecarlo, "_IDLE_GENS", [])
    real = rng.stream
    built = []

    def stream(seed, index, region=0):
        built.append(index)
        return real(seed, index, region)
    monkeypatch.setattr(rng, "stream", stream)
    cfg = SimConfig(**_NEAR)
    a = simulate_x(ou_drift(1.0), 0.05, cfg)
    assert len(built) == cfg.n_paths
    b = simulate_x(ou_drift(1.0), 0.05, cfg)
    assert len(built) == cfg.n_paths
    # an ensemble marched while another holds the pool builds its own
    with montecarlo._Buffers(cfg.n_paths, True, cfg.seed, 1):
        c = simulate_x(ou_drift(1.0), 0.05, cfg)
    assert len(built) == 2 * cfg.n_paths
    for other in (b, c):
        assert np.array_equal(other.T0, a.T0)
        assert np.array_equal(other.states, a.states)


@pytest.mark.parametrize("win, chunk", [(32, 512), (7, 64)])
def test_crossing_after_skipped_uniform_chunks(win, chunk, monkeypatch):
    # a steady pull from x0 = 3 keeps paths out of the crossing band for
    # two chunks and more; their first uniforms are read at an advanced
    # stream position
    dt = 1e-4
    n_steps = 2 * chunk + 300
    cfg = SimConfig(dt=dt, t_max=n_steps * dt, n_paths=40, seed=8)

    def q(x):
        return np.full_like(x, 2.8 / (2 * chunk * dt))
    states, T0, _ = _reference_paths(_minus(q), 3.0, cfg, every_step=True)
    monkeypatch.setattr(montecarlo, "_WIN", win)
    monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
    s, t, events = montecarlo._euler_paths(q, 3.0, cfg)
    assert np.array_equal(t, T0)
    assert np.array_equal(s, states[:, -1])
    # some path stayed out of the band through two chunks, then failed the
    # crossing test: such a death is dated at mid-step
    p = _step_products(states, cfg.absorb_threshold)
    far = np.all(p[:, :2 * chunk] >= _CROSS_SKIP * dt, axis=1)
    u = np.where(np.isfinite(T0), T0 / dt, 0.0)
    mid = np.abs(u - np.floor(u) - 0.5) < 1e-6
    assert np.any(far & mid & (T0 > 2 * chunk * dt))
    assert events["crossing_kills"] == np.count_nonzero(mid)


def test_one_uniform_draw_per_lane_per_chunk(monkeypatch):
    # one path per block: a lane's first draw in a chunk goes to the start
    # of u although it starts at a column past 0, so its offset into u is
    # negative; it must still count as drawn, and never draw again in
    # that chunk
    monkeypatch.setattr(montecarlo, "_BLOCK", 1)
    cfg = SimConfig(**_NEAR)
    real = rng.Seek.at
    draws = []

    def at(seek, index, block):
        if seek.region == rng.UNIFORM:
            draws.append((index, block))
        return real(seek, index, block)
    monkeypatch.setattr(rng.Seek, "at", at)
    b = simulate_x(ou_drift(1.0), 0.05, cfg)
    per_chunk = collections.Counter((index, 4 * block // _CHUNK)
                                    for index, block in draws)
    assert max(per_chunk.values()) == 1
    assert {chunk for _, chunk in per_chunk} == {0, 1, 2}
    assert any(4 * block % _CHUNK for _, block in draws)
    monkeypatch.undo()
    assert np.array_equal(b.T0, simulate_x(ou_drift(1.0), 0.05, cfg).T0)


class _ZeroUniforms:
    """A path's crossing-test stream whose every uniform reads 0.0."""

    def __init__(self, gen):
        self.gen = gen
        self.bit_generator = gen.bit_generator

    def random(self, out):
        self.gen.random(out=out)
        out[:] = 0.0


def test_zero_uniform_widens_the_crossing_band(monkeypatch):
    # a uniform of 0.0 fails the test wherever the crossing probability is
    # positive, so path 0 dies on its first step within 373 dt, which is
    # outside the 19 dt band the other paths are tested in
    cfg = SimConfig(dt=1e-3, t_max=1.2, n_paths=30, seed=3)
    q = ou_drift(1.0).q
    plain, _, _ = _reference_paths(_minus(q), 1.0, cfg, every_step=True)
    real, real_at = rng.stream, rng.Seek.at

    def stream(seed, index, region=0):
        gen = real(seed, index, region)
        return (_ZeroUniforms(gen) if region == rng.UNIFORM and index == 0
                else gen)

    def at(seek, index, block):
        gen = real_at(seek, index, block)
        return (_ZeroUniforms(gen) if seek.region == rng.UNIFORM
                and index == 0 else gen)
    # the reference reads path 0's stream, the engine re-keys one generator
    monkeypatch.setattr(rng, "stream", stream)
    monkeypatch.setattr(rng.Seek, "at", at)
    states, T0, _ = _reference_paths(_minus(q), 1.0, cfg)
    # the same normals without the zeros: path 0 lived on past that step
    step = int(T0[0] / cfg.dt)
    p = _step_products(plain, cfg.absorb_threshold)[0]
    assert np.all(p[:step] >= _CROSS_SKIP * cfg.dt)
    assert _CROSS_NARROW * cfg.dt <= p[step] < _CROSS_SKIP * cfg.dt
    for layout, s, t, _ in _layout_runs(monkeypatch, q, 1.0, cfg):
        assert np.array_equal(t, T0), layout
        assert np.array_equal(s, states[:, -1]), layout


def test_qprocess_matches_reference_stepper(logistic_sd, monkeypatch):
    cfg = SimConfig(dt=1e-2, t_max=12.0, n_paths=400, seed=5)
    sd = logistic_sd
    dlog = _pchip_drift(sd)
    v = lambda x: -np.asarray(sd.drift.q(x), dtype=float) + dlog(x)
    q = lambda x: sd.drift.q(x) - dlog(x)
    edges = (float(sd.grid[0]), float(sd.grid[-1]))
    states, T0, reflections = _reference_paths(v, 0.05, cfg, edges)
    assert reflections > 0
    for group in _GROUPS:
        assert cfg.n_paths % group or group == 1
        monkeypatch.setattr(montecarlo, "_GROUP", group)
        with pytest.warns(UserWarning, match="reflected"):
            b = simulate_qprocess(sd.drift, sd, 0.05, cfg)
        assert b.events["reflections"] == reflections
        assert np.array_equal(b.T0, T0), group
        assert np.array_equal(b.states, states[:, -1]), group
        for layout, s, t, events in _layout_runs(monkeypatch, q, 0.05, cfg,
                                                 edges=edges):
            assert np.array_equal(t, T0), (group, layout)
            assert np.array_equal(s, states[:, -1]), (group, layout)
            assert events == b.events, (group, layout)


@pytest.mark.parametrize("block", [7, 128])
def test_qprocess_lane_generations_match_reference_stepper(block, logistic_sd,
                                                           monkeypatch):
    # 400 never-dying paths on fewer lanes: sets of them enter together,
    # finish at their last own step, short of a full chunk, and free
    # their lanes for the next
    monkeypatch.setattr(montecarlo, "_BLOCK", block)
    test_qprocess_matches_reference_stepper(logistic_sd, monkeypatch)


def test_reflections_at_window_and_chunk_edges(monkeypatch):
    # a push of one unit per step against noise of 1e-3 per step carries
    # the path started k + 0.5 inside an edge across it at step k, and
    # across it again at every later step, whatever the draws: lanes
    # reflect at the first and last step of windows, either side of
    # refills, and at every step of a window
    dt = 1e-6
    cfg = SimConfig(dt=dt, t_max=1200 * dt, n_paths=12, seed=4)
    n_steps = cfg.n_steps
    edges = (0.0, float(n_steps))
    for win, chunk in _LAYOUTS:
        k = np.array([0, 1, win - 1, win, 2 * win - 1, 2 * win, chunk - 1,
                      chunk, chunk + win - 1, 2 * chunk - 1, 2 * chunk,
                      1150])
        for push, x0 in ((-1.0, k + 0.5), (1.0, n_steps - k - 0.5)):
            def q(x):
                return np.full_like(x, -push / dt)
            states, T0, reflections = _reference_paths(_minus(q), x0, cfg,
                                                       edges)
            assert reflections == np.sum(n_steps - k)
            monkeypatch.setattr(montecarlo, "_WIN", win)
            monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
            s, t, events = montecarlo._euler_paths(q, x0, cfg, edges)
            assert np.array_equal(t, T0), (win, chunk, push)
            assert np.array_equal(s, states[:, -1]), (win, chunk, push)
            assert events["reflections"] == reflections


def _assert_same_bits(got, ref):
    """got is ref bit for bit, a NaN matching any NaN."""
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), ref[~nan].view(np.uint64))


@pytest.mark.parametrize("sd_name", ["logistic_sd", "ou_sd"])
def test_located_drift_equals_pchip_derivative(sd_name, request):
    sd = request.getfixturevalue(sd_name)
    pp = _pchip_drift(sd)
    g = sd.grid
    lo, hi = sd.domain.x_min, sd.domain.x_max
    # every breakpoint and its neighbours up to three ulps either side
    ulps = np.concatenate([(g.view(np.int64) + k).view(float)
                           for k in range(-3, 4)])
    xs = np.concatenate([
        ulps, np.random.default_rng(7).uniform(g[0], g[-1], 100000),
        [lo, hi], 0.5 * (g[:-1] + g[1:]),
        # past both walls, and the non-finite
        [0.5 * lo, 1e-300, 5e-324, 0.0, -0.0, -lo, -1.0, -1e300,
         np.nextafter(hi, np.inf), 1.5 * hi, 1e300, 1.7e308],
        [np.nan, np.inf, -np.inf]])
    dlog = _located(pp, sd.domain)
    ref = pp(xs)
    _assert_same_bits(dlog(xs), ref)
    # in place, into rows that hold other values, a row at a time: each
    # row with one non-finite lane, one on a breakpoint or none
    out = np.full(4096, 7.0)
    work = np.full((dlog.scratch, 4096), -3.0)
    with np.errstate(all="ignore"):
        for a in range(0, len(xs) - 4096, 4096):
            assert dlog.into(xs[a:a + 4096], out, work) is out
            _assert_same_bits(out, ref[a:a + 4096])


def test_located_refuses_breakpoints_off_the_nodes(ou_sd):
    sd = ou_sd
    pp = PchipInterpolator(sd.grid * (1.0 + 1e-6), sd.grid).derivative()
    with pytest.raises(PreconditionError, match="interior nodes"):
        _located(pp, sd.domain)


@pytest.mark.parametrize("sd_name", ["logistic_sd", "ou_sd"])
def test_conditioned_drift_allocates_no_array(sd_name, request):
    # a step of 4096 lanes, on interior points and on rows that send
    # every lane through the one-step breakpoint check
    sd = request.getfixturevalue(sd_name)
    q = montecarlo._conditioned_drift(sd.drift, sd)
    g = sd.grid
    rows = [np.random.default_rng(3).uniform(0.5, 2.0, 4096),
            np.r_[g[:4094], np.nan, 2.0 * g[-1]]]
    plain = np.empty(4096), np.empty((q.scratch, 4096))
    # and in the engine's own rows, at a lane count short of its lanes
    buf = montecarlo._Buffers(montecarlo._BLOCK, False, 0, 1 + q.scratch)
    with buf, np.errstate(all="ignore"):
        for out, work in (plain, buf.drift_rows(1904)):
            for x in rows:
                x = x[-out.size:]
                q.into(x, out, work)
                tracemalloc.start()
                try:
                    for _ in range(5):
                        q.into(x, out, work)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                # a 4096-row temporary alone would be 32 KiB
                assert peak < 8192, (out.size, peak)
                _assert_same_bits(out, q(x))


def _mirror_and_clip(x, edges):
    """The reference stepper's reflection rule, kept verbatim: the
    reflected row and the number of reflections."""
    xn = x.copy()
    reflections = 0
    out_lo = xn < edges[0]
    out_hi = xn > edges[1]
    if np.any(out_lo) or np.any(out_hi):
        reflections += int(np.count_nonzero(out_lo)
                           + np.count_nonzero(out_hi))
        xn[out_lo] = 2.0 * edges[0] - xn[out_lo]
        xn[out_hi] = 2.0 * edges[1] - xn[out_hi]
        np.clip(xn, edges[0], edges[1], out=xn)
    return xn, reflections


@pytest.mark.parametrize("row", [
    pytest.param([np.nan, -0.5, 0.3, 2.5, np.nan, 1.0, -np.inf, 7.0, np.inf],
                 id="nan-and-both-edges"),
    pytest.param([np.nan, 0.5, -0.5], id="nan-then-low"),
    pytest.param([2.5, np.nan], id="high-then-nan"),
    pytest.param([0.1, 0.5, 1.0, 1.9, 2.0, 0.1], id="inside"),
    pytest.param([np.nan, np.nan, np.nan], id="all-nan"),
])
def test_reflect_is_the_reference_mirror_and_clip(row):
    edges = (0.1, 2.0)
    x = np.array(row)
    ref, reflections = _mirror_and_clip(x, edges)
    events = dict.fromkeys(PATH_EVENTS, 0)
    montecarlo._reflect(x, edges, events)
    _assert_same_bits(x, ref)
    assert events["reflections"] == reflections


def test_path_event_counts():
    cfg = SimConfig(**_NEAR)
    b = simulate_x(_wall_drift(), np.r_[10.5, np.full(60, 0.05)], cfg)
    absorbed = [b.events[name] for name in PATH_EVENTS[:3]]
    assert sum(absorbed) == np.count_nonzero(np.isfinite(b.T0))
    assert min(absorbed) > 0 and b.events["reflections"] == 0


@pytest.mark.parametrize("engine", ["simulate_x", "simulate_qprocess"])
def test_bitwise_determinism_and_block_independence(engine, request,
                                                    monkeypatch):
    if engine == "simulate_x":
        def run(cfg):
            return simulate_x(ou_drift(1.0), 1.0, cfg)
    else:
        sd = request.getfixturevalue("logistic_sd")

        def run(cfg):
            return simulate_qprocess(sd.drift, sd, 1.0, cfg)
    base = dict(dt=1e-3, t_max=0.5, n_paths=600, seed=3)
    a = run(SimConfig(**base))
    b = run(SimConfig(**base))
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.T0, b.T0, equal_nan=True)
    # the per-path streams make the block partition irrelevant
    monkeypatch.setattr(montecarlo, "_BLOCK", 7)
    c = run(SimConfig(**base))
    monkeypatch.undo()
    assert np.array_equal(a.states, c.states)
    assert np.array_equal(a.T0, c.T0, equal_nan=True)
    # and the seed is load-bearing
    d = run(SimConfig(**{**base, "seed": 4}))
    assert not np.array_equal(a.states, d.states)


@pytest.mark.parametrize("wall_path, n_paths", [(0, 201), (2, 13)])
def test_non_finite_steps_do_not_depend_on_block_size(wall_path, n_paths,
                                                      monkeypatch):
    # one path starts beyond the wall, so its first step is not finite;
    # the steps and refills of the other paths must not notice
    x0 = np.full(n_paths, 1.5)
    x0[wall_path] = 10.5
    runs = []
    for block in (1, 4096):
        monkeypatch.setattr(montecarlo, "_BLOCK", block)
        runs.append(simulate_x(_wall_drift(), x0,
                               SimConfig(dt=1e-3, t_max=1.5, n_paths=n_paths,
                                         seed=3)))
    assert np.array_equal(runs[0].T0, runs[1].T0)
    assert np.array_equal(runs[0].states, runs[1].states)
    assert runs[1].T0[wall_path] == 0.5e-3
    assert runs[1].states[wall_path] == 0.0


def test_non_finite_step_absorbs_at_mid_step():
    b = simulate_x(_wall_drift(), 9.95,
                   SimConfig(dt=1e-3, t_max=0.5, n_paths=50, seed=3))
    steps = b.T0[np.isfinite(b.T0)] / 1e-3 - 0.5
    assert np.any(steps >= 1)
    assert np.allclose(steps, np.round(steps), rtol=0.0, atol=1e-6)


def test_driftless_survival_matches_reflection_law():
    # from x0=1 the survival at t is erf(x0 / sqrt(2 t))
    cfg = SimConfig(dt=1e-3, t_max=1.0, n_paths=20000, seed=5)
    b = simulate_x(_free_drift(), 1.0, cfg)
    target = float(erf(1.0 / np.sqrt(2.0)))
    se = np.sqrt(target * (1.0 - target) / cfg.n_paths)
    assert abs(b.survival(1.0) - target) < 3.0 * se


def test_critical_population_extinction_law():
    # no growth: absorbed by t with probability exp(-2 z0 / (gamma t))
    cfg = SimConfig(dt=1e-3, t_max=1.0, n_paths=20000, seed=9)
    b = simulate_z(linear_growth(0.0, 1.0), 0.5, cfg)
    target = 1.0 - np.exp(-2.0 * 0.5 / 1.0)
    se = np.sqrt(target * (1.0 - target) / cfg.n_paths)
    assert abs(b.survival(1.0) - target) < 3.0 * se


def test_population_start_at_zero_is_instantly_absorbed():
    cfg = SimConfig(dt=1e-3, t_max=0.5, n_paths=50, seed=1)
    b = simulate_z(linear_growth(0.0, 1.0), 0.0, cfg)
    assert np.all(b.T0 == 0.0)
    assert np.all(b.states == 0.0)


def test_decay_rate_estimator_with_honest_errors():
    cfg = SimConfig(dt=2.5e-4, t_max=4.0, n_paths=10000, seed=5)
    b = simulate_x(ou_drift(1.0), 1.0, cfg)
    times = montecarlo.survival_grid(cfg, 0.125)
    est = estimate_lambda1(b, (2.0, 4.0), times)
    assert abs(est.rate - 1.0) < 3.0 * est.stderr
    assert est.r_squared > 0.99
    # a window past extinction is refused rather than extrapolated
    with pytest.raises(PreconditionError):
        estimate_lambda1(b, (3.9, 4.0) if b.n_alive(3.9) < 100 else (9, 10),
                         times)


def test_survivor_counts_match_brute_force():
    # ties, paths alive at the end (inf) and absorbed at once (0.0), read
    # at times equal to T0 entries, between them and past both ends
    T0 = np.array([0.5, np.inf, 0.0, 0.25, 0.5, np.inf, 1.0, 0.0, 0.25, 0.5])
    b = PathBatch(states=np.zeros(T0.size), T0=T0, events={})
    ts = np.array([-1.0, 0.0, 0.1, 0.25, 0.3, 0.5, 0.75, 1.0, 2.0, np.inf])
    brute = np.array([np.count_nonzero(T0 > t) for t in ts])
    assert np.array_equal(b.n_alive(ts), brute)
    # the mean of the (time, path) comparisons, bit for bit
    frac = np.mean(T0[None, :] > ts[:, None], axis=1)
    assert np.array_equal(b.survival(ts), frac)
    assert np.array_equal(b.survival(ts.tolist()), frac)
    for t, n, f in zip(ts, brute, frac):
        assert b.n_alive(t) == n
        assert b.survival(t) == f and isinstance(b.survival(t), float)


def test_conditional_histogram_and_ks():
    cfg = SimConfig(dt=1e-3, t_max=1.0, n_paths=5000, seed=21)
    b = simulate_x(ou_drift(1.0), 1.0, cfg)
    edges = np.linspace(0.0, 4.0, 33)
    law = conditional_histogram(b, edges)
    assert law.n_survivors > 100
    assert np.sum(law.masses) == pytest.approx(1.0, abs=1e-12)
    assert law.ecdf()[0] == 0.0 and law.ecdf()[-1] == pytest.approx(1.0)
    with pytest.raises(PreconditionError):
        conditional_histogram(b, edges[::-1])


def test_conditioned_process_stays_alive(logistic_sd):
    cfg = SimConfig(dt=1e-3, t_max=1.0, n_paths=200, seed=6)
    b = simulate_qprocess(logistic_sd.drift, logistic_sd, 1.0, cfg)
    assert np.all(np.isinf(b.T0))
    assert np.all(b.states > logistic_sd.grid[0] - 1e-12)
    assert np.all(b.states < logistic_sd.grid[-1] + 1e-12)
    with pytest.raises(PreconditionError):
        simulate_qprocess(logistic_sd.drift, logistic_sd, 100.0, cfg)
    with pytest.raises(DomainError):
        simulate_qprocess(logistic_sd.drift, logistic_sd, np.nan, cfg)


def test_extinction_conditioning_flips_linear_growth():
    cg = condition_on_extinction(linear_growth(1.0, 1.0))
    for z in (0.1, 1.0, 10.0):
        assert abs(cg.h(z) + z) <= 1e-10 * z
    assert 1e4 in cg.probe_points
    ratio = cg.drift_ratio[cg.probe_points.index(1e4)]
    assert ratio == pytest.approx(1.0, abs=1e-6)
    # a dying model has nothing to condition on
    with pytest.raises(PreconditionError):
        condition_on_extinction(linear_growth(-1.0, 1.0))


def test_extinction_conditioned_derivative_at_the_origin():
    # the conditioned drift of h = z is exactly -z, so h_cond' = -1
    # everywhere, the origin included
    cg = condition_on_extinction(linear_growth(1.0, 1.0))
    for z in (0.0, 1e-6, 1.0):
        assert cg.h_prime(z) == pytest.approx(-1.0, rel=1e-12, abs=0.0), z


@pytest.mark.parametrize("gamma", [1.0, 2.0])
def test_extinction_probability_of_linear_growth(gamma):
    # h = r z dies out with probability u(z) = exp(-2 r z/gamma)
    cg = condition_on_extinction(linear_growth(1.0, gamma))
    assert cg.u(0.0) == 1.0
    zs = np.array([1e-3, 0.1, 1.0, 5.0, 20.0])
    np.testing.assert_allclose(cg.u(zs), np.exp(-2.0 * zs / gamma),
                               rtol=1e-10, atol=0.0)
    for z in zs:
        assert cg.u(z) == pytest.approx(np.exp(-2.0 * z / gamma),
                                        rel=1e-10, abs=0.0)


def _quad(f, a, b):
    return integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]


def _conditioned_reference(h, gamma, y):
    """h(y) - gamma y / I(y), I(y) = int_y^inf exp(J(y) - J(z)) dz with
    J' = 2h/(gamma z), by nested quad in offsets t = z - y."""
    def rate(z):
        return 2.0 * h(z) / (gamma * z)

    def integrand(t):
        return np.exp(-_quad(lambda s: rate(y + s), 0.0, t))

    scale = 1.0 / rate(y)
    cuts = [0.0, scale, 4.0 * scale, 16.0 * scale]
    tail = sum(_quad(integrand, lo, hi) for lo, hi in zip(cuts, cuts[1:]))
    tail += _quad(integrand, cuts[-1], np.inf)
    return h(y) - gamma * y / tail


@pytest.mark.parametrize("expression, h, gamma", [
    ("z + 0.1*z^1.5", lambda z: z + 0.1 * z ** 1.5, 1.0),
    ("0.5*z + z*log(1 + z)", lambda z: 0.5 * z + z * np.log1p(z), 2.0),
])
def test_extinction_conditioning_matches_nested_quad(expression, h, gamma):
    g = preset_model("custom", "growth",
                     {"expression": expression, "gamma": gamma}).growth
    cg = condition_on_extinction(g)
    ys = np.array(cg.probe_points)
    assert ys[0] == 0.1 and ys[-1] == 1e4
    reference = np.array([_conditioned_reference(h, gamma, y) for y in ys])
    np.testing.assert_allclose(cg.h(ys), reference, rtol=1e-10, atol=0.0)
    np.testing.assert_allclose(cg.drift_ratio, reference / -h(ys),
                               rtol=1e-10, atol=0.0)
    # h_cond' against a central difference of h_cond
    step = 1e-4 * ys
    central = (cg.h(ys + step) - cg.h(ys - step)) / (2.0 * step)
    np.testing.assert_allclose(cg.h_prime(ys), central, rtol=1e-6, atol=0.0)


def test_sim_config_validation():
    with pytest.raises(PreconditionError):
        SimConfig(dt=0.0, t_max=1.0, n_paths=10, seed=0).validate()
    with pytest.raises(PreconditionError):
        SimConfig(dt=1e-3, t_max=1.0, n_paths=0, seed=0).validate()
    with pytest.raises(PreconditionError):
        SimConfig(dt=1e-3, t_max=1e-4, n_paths=10, seed=0).validate()
