"""Command-line entry point: one config in, CSV artifacts and a report out.

Subcommands cover the whole pipeline — hypothesis checks, the
eigensolve, the quasi-stationary profile, kernel slices, path
ensembles, the conditioned process, the lattice prelimits, and the
spectral-versus-Monte-Carlo comparison.  Numeric imports happen inside
main() on purpose: QSD_NUM_THREADS must cap the linear-algebra thread
pools before numpy first loads.
"""

import argparse
import os
import sys
import time
import warnings

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_PRECONDITION = 3
_EXIT_NUMERICAL = 4
_EXIT_INTERNAL = 5

def _cap_threads():
    """Propagate QSD_NUM_THREADS to the BLAS/OpenMP pools (speed only).

    Returns the cap, or None when the variable is unset or blank; raises
    ValueError when it is not a positive integer.
    """
    val = os.environ.get("QSD_NUM_THREADS", "").strip()
    if not val:
        return None
    try:
        cap = int(val)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"QSD_NUM_THREADS: must be a positive integer, "
                         f"got {val!r}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = str(cap)
    return cap


def _parser():
    p = argparse.ArgumentParser(
        prog="qsd",
        description="Quasi-stationary laboratory for absorbed diffusions")
    sub = p.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("check", "verify the integrability hypotheses"),
            ("spectrum", "solve the killed generator's eigenproblem"),
            ("yaglom", "compute the quasi-stationary profile"),
            ("kernel", "write one transition-kernel slice"),
            ("simulate", "run the absorbed path ensemble"),
            ("qprocess", "simulate the never-absorbed conditioned process"),
            ("bd", "lattice prelimit: scaling check and series criterion"),
            ("compare", "overlay spectral profile against simulation")):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("config", help="run configuration file")
        sp.add_argument("--output-dir", default="qsd_out",
                        help="artifact directory (created if missing)")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
        sp.add_argument("--quick", action="store_true",
                        help="tenfold smaller sizes for smoke runs")
        if name == "kernel":
            sp.add_argument("--t", type=float, default=1.0,
                            help="kernel time")
            sp.add_argument("--x", type=float, default=1.0,
                            help="kernel source point")
    return p


def main(argv=None):
    try:
        thread_cap = _cap_threads()
    except ValueError as exc:
        print(f"configuration errors:\n  - {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    args = _parser().parse_args(argv)

    from .errors import (ConfigError, DomainError, ModelError,
                         PreconditionError, QsdError)
    from .config import load_config, require_seed

    try:
        cfg = load_config(args.config, quick=args.quick,
                          seed_override=args.seed)
        require_seed(cfg, args.command)
    except ConfigError as exc:
        print("configuration errors:", file=sys.stderr)
        for problem in exc.problems:
            print(f"  - {problem}", file=sys.stderr)
        return _EXIT_CONFIG

    out_dir = args.output_dir
    try:
        os.makedirs(out_dir, exist_ok=True)
        probe = os.path.join(out_dir, ".write_probe")
        with open(probe, "w"):
            pass
        os.remove(probe)
    except OSError as exc:
        print(f"configuration errors:\n  - output dir not writable: {exc}",
              file=sys.stderr)
        return _EXIT_CONFIG

    from .report import RunReport
    rep = RunReport(command=args.command, label=cfg.model.label,
                    seed=cfg.seed, thread_cap=thread_cap)
    stage = [args.command]
    code = _EXIT_OK
    try:
        _run(args, cfg, out_dir, rep, stage)
    except Exception as exc:          # noqa: BLE001 - the last-resort rail
        if isinstance(exc, (PreconditionError, DomainError, ModelError)):
            code = _EXIT_PRECONDITION
        elif isinstance(exc, QsdError):   # truncation, underflow, ...
            code = _EXIT_NUMERICAL
        else:
            code = _EXIT_INTERNAL
        rep.status = "error" if code == _EXIT_INTERNAL else "refused"
        rep.failure = {"stage": stage[-1], "type": type(exc).__name__,
                       "message": str(exc)}
        for msg in rep.messages:
            print(f"note: {msg}", file=sys.stderr)
        print(f"{'internal error' if code == _EXIT_INTERNAL else 'error'} "
              f"[{stage[-1]}]: {type(exc).__name__}: {exc}", file=sys.stderr)

    rep.write_json(out_dir)
    if code == _EXIT_OK:
        print(rep.render_text())
    return code


def _run(args, cfg, out_dir, rep, stage):
    """Run the command's handler, timing it and recording each warning it
    raises in the report (every occurrence, so reruns report alike)."""
    t0 = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            _HANDLERS[args.command](args, cfg, out_dir, rep, stage)
        finally:
            rep.wall_time_s = time.perf_counter() - t0
            rep.messages.extend(f"{w.category.__name__}: {w.message}"
                                for w in caught)


# ---------------------------------------------------------------------------
# shared pipeline pieces

def _decomposition(cfg, stage):
    from .spectral import build_and_solve
    stage.append("spectral solve")
    sd = build_and_solve(cfg.model.drift, cfg.domain, K=cfg.K)
    stage.pop()
    return sd


def _hist_edges(cfg):
    import numpy as np
    from .model import z_from_x
    hi = cfg.mc["hist_max"]
    if hi is None:
        hi = cfg.domain.x_max
        if cfg.model.kind == "growth":
            hi = z_from_x(cfg.domain.x_max, cfg.model.growth.gamma)
    return np.linspace(0.0, float(hi), cfg.mc["bins"] + 1)


def _native_batch(cfg, stage):
    from .montecarlo import simulate_x, simulate_z
    stage.append("path simulation")
    if cfg.model.kind == "growth":
        batch = simulate_z(cfg.model.growth, cfg.mc["z0"], cfg.sim)
    else:
        batch = simulate_x(cfg.model.drift, cfg.mc["x0"], cfg.sim)
    stage.pop()
    return batch


def _lambda_window(cfg):
    win = cfg.mc["lambda_window"]
    if win is not None:
        return win
    t_max = cfg.sim.t_max
    return (t_max / 3.0, t_max)


def _batch_files(rep, out_dir, batch, law):
    import numpy as np
    rep.add_file(out_dir, "paths_summary.csv",
                 ("path_id", "T0", "censored"),
                 [np.arange(batch.n_paths), batch.T0, np.isinf(batch.T0)])
    alive = batch.survival(batch.times)
    rep.add_file(out_dir, "survival.csv", ("t", "n_alive", "fraction"),
                 [batch.times, np.rint(alive * batch.n_paths).astype(int),
                  alive])
    rep.add_file(out_dir, "conditional_hist.csv",
                 ("bin_lo", "bin_hi", "mass", "stderr"),
                 [law.edges[:-1], law.edges[1:], law.masses, law.stderr])


# ---------------------------------------------------------------------------
# the eight commands

def _cmd_check(args, cfg, out_dir, rep, stage):
    from .hypotheses import check_all, report_to_rows
    stage.append("hypothesis checks")
    hr = check_all(cfg.model)
    stage.pop()
    rep.add_file(out_dir, "hypotheses.csv",
                 ("hypothesis", "status", "key_integral",
                  "value_or_growth", "cutoff_trail_json"),
                 list(zip(*report_to_rows(hr))))
    for name in ("h1", "h2", "h3", "h4", "h5", "hh"):
        rep.scalars[name] = hr.checks[name].verdict
    rep.scalars["all_core_hold"] = hr.all_hold()


def _cmd_spectrum(args, cfg, out_dir, rep, stage):
    import numpy as np
    from .spectral import yaglom_measure
    sd = _decomposition(cfg, stage)
    rep.add_file(out_dir, "spectrum.csv", ("k", "lambda_k"),
                 [np.arange(1, sd.K + 1), sd.lambdas])
    header = (["x"] + [f"eta_{k + 1}" for k in range(sd.K)]
              + [f"psi_{k + 1}" for k in range(sd.K)] + ["mu_weight"])
    rep.add_file(out_dir, "eigenfunctions.csv", header,
                 [sd.grid, *sd.etas.T, *sd.psis.T, sd.mu_weights])
    ym = yaglom_measure(sd)
    rep.add_file(out_dir, "yaglom.csv", ("x", "density", "cdf"),
                 [ym.grid, ym.density, ym.cdf])
    rep.scalars["lambda_1"] = sd.lambda1
    rep.scalars["lambda_2"] = float(sd.lambdas[1])
    rep.scalars["spectral_gap"] = float(sd.lambdas[1] - sd.lambdas[0])
    rep.scalars["eta1_mass"] = sd.eta1_mass
    rep.scalars["t_min_K"] = sd.t_min()


def _cmd_yaglom(args, cfg, out_dir, rep, stage):
    from .spectral import yaglom_measure
    sd = _decomposition(cfg, stage)
    ym = yaglom_measure(sd)
    rep.add_file(out_dir, "yaglom.csv", ("x", "density", "cdf"),
                 [ym.grid, ym.density, ym.cdf])
    rep.scalars["lambda_1"] = ym.lambda1
    rep.scalars["mass_norm"] = ym.mass_norm
    rep.scalars["mean"] = ym.mean()
    for p in (0.1, 0.5, 0.9):
        rep.scalars[f"quantile_{int(p * 100)}"] = ym.quantile(p)


def _cmd_kernel(args, cfg, out_dir, rep, stage):
    import numpy as np
    from .spectral import kernel_r
    sd = _decomposition(cfg, stage)
    stage.append("kernel slice")
    row = kernel_r(sd, args.t, [args.x], sd.grid)[0]
    stage.pop()
    density = row * np.exp(-sd.Qgrid)
    rep.add_file(out_dir, "kernel_slice.csv",
                 ("y", "kernel_vs_mu", "transition_density"),
                 [sd.grid, row, density])
    rep.scalars["t"] = float(args.t)
    rep.scalars["x"] = float(args.x)
    rep.scalars["t_min_K"] = sd.t_min()
    rep.scalars["survival_from_x"] = float(row @ sd.mu_weights)


def _cmd_simulate(args, cfg, out_dir, rep, stage):
    import numpy as np
    from .errors import PreconditionError
    from .montecarlo import conditional_histogram, estimate_lambda1
    batch = _native_batch(cfg, stage)
    law = conditional_histogram(batch, cfg.sim.t_max, _hist_edges(cfg))
    _batch_files(rep, out_dir, batch, law)
    frac_absorbed = float(np.mean(np.isfinite(batch.T0)))
    rep.scalars["n_paths"] = batch.n_paths
    rep.scalars["absorbed_fraction"] = frac_absorbed
    rep.scalars["survivors_at_t_max"] = int(law.n_survivors)
    try:
        est = estimate_lambda1(batch, _lambda_window(cfg))
        rep.scalars["lambda1_hat"] = est.rate
        rep.scalars["lambda1_stderr"] = est.stderr
    except PreconditionError as exc:
        rep.messages.append(f"decay-rate estimate unavailable: {exc}")


def _cmd_qprocess(args, cfg, out_dir, rep, stage):
    import numpy as np
    from .montecarlo import conditional_histogram, ks_distance, \
        simulate_qprocess
    from .spectral import qprocess_stationary
    sd = _decomposition(cfg, stage)
    stage.append("conditioned-path simulation")
    batch = simulate_qprocess(cfg.model.drift, sd, cfg.mc["x0"], cfg.sim)
    stage.pop()
    edges = np.linspace(sd.domain.x_min, sd.domain.x_max,
                        cfg.mc["bins"] + 1)
    law = conditional_histogram(batch, cfg.sim.t_max, edges)
    _batch_files(rep, out_dir, batch, law)
    dens = qprocess_stationary(sd)
    cum = np.concatenate([[0.0], np.cumsum(dens * sd.cell)])
    cum /= cum[-1]
    knots = np.concatenate([[sd.domain.x_min], sd.grid])

    def stat_cdf(v):
        return np.interp(v, knots, cum)

    rep.scalars["n_paths"] = batch.n_paths
    rep.scalars["ks_vs_stationary"] = ks_distance(law, stat_cdf)


def _cmd_bd(args, cfg, out_dir, rep, stage):
    import numpy as np
    from .birthdeath import (gillespie, preset_chain, preset_family,
                             s_criterion, scaling_limit_check)
    bd = cfg.bd
    stage.append("scaling check")
    sr = scaling_limit_check(bd["kind"], bd["params"], bd["n_list"],
                             bd["z0"], bd["t"], bd["n_reps"],
                             seed=cfg.seed, dt=cfg.sim.dt)
    stage.pop()
    rep.add_file(out_dir, "scaling_ks.csv", ("N", "ks_distance", "n_reps"),
                 list(zip(*sr.rows)))
    for N, ks, _ in sr.rows:
        rep.scalars[f"ks_N{N}"] = ks

    biggest = preset_family(bd["kind"], bd["params"], bd["n_list"][-1])
    paths = [gillespie(biggest, bd["z0"], bd["t"], seed=cfg.seed,
                       replica=replica) for replica in range(3)]
    rep.add_file(out_dir, "bd_paths.csv", ("replica", "t", "count", "state"),
                 [np.repeat(np.arange(3), [len(p.times) for p in paths]),
                  np.concatenate([p.times for p in paths]),
                  np.concatenate([p.counts for p in paths]),
                  np.concatenate([p.states for p in paths])])

    stage.append("series criterion")
    sc = s_criterion(preset_chain(bd["chain"], bd["chain_params"]),
                     bd["n_max"])
    stage.pop()
    cuts, s_vals = zip(*sc.S_partial)
    _, a_vals = zip(*sc.A_partial)
    rep.add_file(out_dir, "s_criterion.csv",
                 ("n", "pi_n", "S_partial", "A_partial"),
                 [cuts, sc.pi[np.array(cuts) - 1], s_vals, a_vals])
    for key, verdict in sc.verdict.items():
        rep.scalars[f"statement_{key}"] = verdict
    rep.scalars["sure_absorption"] = sc.sure_absorption
    rep.scalars["iii_iv_agree"] = sc.agreement_iii_iv


def _cmd_compare(args, cfg, out_dir, rep, stage):
    import numpy as np
    from .errors import PreconditionError
    from .montecarlo import (conditional_histogram, estimate_lambda1,
                             ks_distance, yaglom_cdf)
    from .spectral import yaglom_measure, yaglom_to_z
    sd = _decomposition(cfg, stage)
    ym = yaglom_measure(sd)
    if cfg.model.kind == "growth":
        ym = yaglom_to_z(ym, cfg.model.growth.gamma)
    batch = _native_batch(cfg, stage)
    edges = _hist_edges(cfg)
    law = conditional_histogram(batch, cfg.sim.t_max, edges)
    cdf = yaglom_cdf(ym)
    rep.add_file(out_dir, "compare.csv",
                 ("bin_lo", "bin_hi", "empirical_mass", "empirical_stderr",
                  "spectral_mass"),
                 [edges[:-1], edges[1:], law.masses, law.stderr,
                  np.diff(cdf(edges))])
    rep.scalars["ks_distance"] = ks_distance(law, cdf)
    rep.scalars["lambda1_spectral"] = sd.lambda1
    try:
        est = estimate_lambda1(batch, _lambda_window(cfg))
        rep.scalars["lambda1_mc"] = est.rate
        rep.scalars["lambda1_mc_stderr"] = est.stderr
        rep.scalars["lambda1_rel_gap"] = abs(est.rate - sd.lambda1) \
            / sd.lambda1
    except PreconditionError as exc:
        rep.messages.append(f"decay-rate estimate unavailable: {exc}")
    rep.scalars["survivors_at_t_max"] = int(law.n_survivors)


_HANDLERS = {
    "check": _cmd_check,
    "spectrum": _cmd_spectrum,
    "yaglom": _cmd_yaglom,
    "kernel": _cmd_kernel,
    "simulate": _cmd_simulate,
    "qprocess": _cmd_qprocess,
    "bd": _cmd_bd,
    "compare": _cmd_compare,
}


if __name__ == "__main__":
    sys.exit(main())
