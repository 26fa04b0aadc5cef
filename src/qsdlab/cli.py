"""Command-line entry point: one config in, CSV artifacts and a report out.

Subcommands cover the whole pipeline — hypothesis checks, the
eigensolve, the quasi-stationary profile, kernel slices, path
ensembles, the conditioned process, the lattice prelimits, and the
spectral-versus-Monte-Carlo comparison, each declared once in
_COMMANDS.  A failure is labelled by the innermost RunReport.span open:
a handler's step, or the command.  Numeric imports happen inside
main() on purpose, and the package resolves its exports lazily:
QSD_NUM_THREADS must cap the linear-algebra thread pools before numpy
first loads.
"""

import argparse
import functools
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


@functools.cache
def _parser():
    p = argparse.ArgumentParser(
        prog="qsd",
        description="Quasi-stationary laboratory for absorbed diffusions")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
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
    code = _EXIT_OK
    try:
        _run(args, cfg, out_dir, rep)
    except Exception as exc:          # noqa: BLE001 - the last-resort rail
        if isinstance(exc, (PreconditionError, DomainError, ModelError)):
            code = _EXIT_PRECONDITION
        elif isinstance(exc, QsdError):   # truncation, underflow, ...
            code = _EXIT_NUMERICAL
        else:
            code = _EXIT_INTERNAL
        rep.status = "error" if code == _EXIT_INTERNAL else "refused"
        rep.failure = {"stage": rep.stage, "type": type(exc).__name__,
                       "message": str(exc)}
        for msg in rep.messages:
            print(f"note: {msg}", file=sys.stderr)
        print(f"{'internal error' if code == _EXIT_INTERNAL else 'error'} "
              f"[{rep.stage}]: {type(exc).__name__}: {exc}", file=sys.stderr)

    rep.write_json(out_dir)
    if code == _EXIT_OK:
        print(rep.render_text())
    return code


def _run(args, cfg, out_dir, rep):
    """Run the command's handler in a span of its name, timing it and
    recording each warning it raises in the report (every occurrence, so
    reruns report alike)."""
    t0 = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            with rep.span(args.command):
                _COMMANDS[args.command][1](args, cfg, out_dir, rep)
        finally:
            rep.wall_time_s = time.perf_counter() - t0
            rep.messages.extend(f"{w.category.__name__}: {w.message}"
                                for w in caught)


# ---------------------------------------------------------------------------
# shared pipeline pieces

def _decomposition(cfg, rep, K=1, horizon=None):
    """The levels a command reads: K of them, or those of the K that weigh
    at horizon.  A cap [spectral] k the grid cannot carry is refused by
    every command.  The solve's largest residual and its orthonormality
    defect go into the report."""
    from .spectral import build_and_solve, require_levels
    with rep.span("spectral solve"):
        require_levels(cfg.domain, cfg.K)
        sd = build_and_solve(cfg.model.drift, cfg.domain, K=K,
                             horizon=horizon)
    rep.scalars["eigen_residual"] = sd.eigen_residual
    rep.scalars["orthonormality_defect"] = sd.orthonormality_defect
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


def _native_batch(cfg, rep):
    from .montecarlo import simulate_x, simulate_z
    with rep.span("path simulation"):
        if cfg.model.kind == "growth":
            return simulate_z(cfg.model.growth, cfg.mc["z0"], cfg.sim)
        return simulate_x(cfg.model.drift, cfg.mc["x0"], cfg.sim)


def _lambda_window(cfg):
    win = cfg.mc["lambda_window"]
    if win is not None:
        return win
    t_max = cfg.sim.t_max
    return (t_max / 3.0, t_max)


def _batch_files(rep, out_dir, batch, law, times):
    import numpy as np
    rep.add_file(out_dir, "paths_summary.csv",
                 ("path_id", "T0", "censored"),
                 [np.arange(batch.n_paths), batch.T0, np.isinf(batch.T0)])
    rep.add_file(out_dir, "survival.csv", ("t", "n_alive", "fraction"),
                 [times, batch.n_alive(times), batch.survival(times)])
    rep.add_file(out_dir, "conditional_hist.csv",
                 ("bin_lo", "bin_hi", "mass", "stderr"),
                 [law.edges[:-1], law.edges[1:], law.masses, law.stderr])


# ---------------------------------------------------------------------------
# the eight commands

def _cmd_check(args, cfg, out_dir, rep):
    from .hypotheses import check_all, report_to_rows
    with rep.span("hypothesis checks"):
        hr = check_all(cfg.model)
    rep.add_file(out_dir, "hypotheses.csv",
                 ("hypothesis", "status", "key_integral",
                  "value_or_growth", "cutoff_trail_json"),
                 list(zip(*report_to_rows(hr))))
    for name in ("h1", "h2", "h3", "h4", "h5", "hh"):
        rep.scalars[name] = hr.checks[name].verdict
    rep.scalars["all_core_hold"] = hr.all_hold()


def _cmd_spectrum(args, cfg, out_dir, rep):
    import numpy as np
    from .spectral import yaglom_measure
    sd = _decomposition(cfg, rep, K=cfg.K)
    rep.add_file(out_dir, "spectrum.csv", ("k", "lambda_k"),
                 [np.arange(1, sd.K + 1), sd.lambdas])
    header = (["x"] + [f"eta_{k + 1}" for k in range(sd.K)]
              + [f"psi_{k + 1}" for k in range(sd.K)] + ["mu_weight"])
    with rep.span("eigenfunction table"):
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


def _cmd_yaglom(args, cfg, out_dir, rep):
    from .spectral import yaglom_measure
    sd = _decomposition(cfg, rep)
    ym = yaglom_measure(sd)
    rep.add_file(out_dir, "yaglom.csv", ("x", "density", "cdf"),
                 [ym.grid, ym.density, ym.cdf])
    rep.scalars["lambda_1"] = ym.lambda1
    rep.scalars["mass_norm"] = ym.mass_norm
    rep.scalars["mean"] = ym.mean()
    for p in (0.1, 0.5, 0.9):
        rep.scalars[f"quantile_{int(p * 100)}"] = ym.quantile(p)


def _cmd_kernel(args, cfg, out_dir, rep):
    import numpy as np
    from .spectral import kernel_r
    sd = _decomposition(cfg, rep, K=cfg.K, horizon=args.t)
    with rep.span("kernel slice"):
        row = kernel_r(sd, args.t, [args.x], sd.grid)[0]
    density = row * np.exp(-sd.Qgrid)
    rep.add_file(out_dir, "kernel_slice.csv",
                 ("y", "kernel_vs_mu", "transition_density"),
                 [sd.grid, row, density])
    rep.scalars["t"] = float(args.t)
    rep.scalars["x"] = float(args.x)
    rep.scalars["t_min_K"] = sd.t_min_cap()
    rep.scalars["levels"] = sd.K
    rep.scalars["survival_from_x"] = float(row @ sd.mu_weights)


def _cmd_simulate(args, cfg, out_dir, rep):
    import numpy as np
    from .errors import PreconditionError
    from .montecarlo import (conditional_histogram, estimate_lambda1,
                             survival_grid)
    times = survival_grid(cfg.sim, cfg.mc["record_dt"])
    batch = _native_batch(cfg, rep)
    law = conditional_histogram(batch, _hist_edges(cfg))
    _batch_files(rep, out_dir, batch, law, times)
    frac_absorbed = float(np.mean(np.isfinite(batch.T0)))
    rep.scalars["n_paths"] = batch.n_paths
    rep.scalars["absorbed_fraction"] = frac_absorbed
    rep.scalars["survivors_at_t_max"] = int(law.n_survivors)
    rep.scalars.update(batch.events)
    try:
        est = estimate_lambda1(batch, _lambda_window(cfg), times)
        rep.scalars["lambda1_hat"] = est.rate
        rep.scalars["lambda1_stderr"] = est.stderr
    except PreconditionError as exc:
        rep.messages.append(f"decay-rate estimate unavailable: {exc}")


def _cmd_qprocess(args, cfg, out_dir, rep):
    import numpy as np
    from .montecarlo import (conditional_histogram, ks_distance,
                             simulate_qprocess, survival_grid)
    from .spectral import qprocess_stationary
    sd = _decomposition(cfg, rep)
    times = survival_grid(cfg.sim, cfg.mc["record_dt"])
    with rep.span("conditioned-path simulation"):
        batch = simulate_qprocess(cfg.model.drift, sd, cfg.mc["x0"],
                                  cfg.sim)
    edges = np.linspace(sd.domain.x_min, sd.domain.x_max,
                        cfg.mc["bins"] + 1)
    law = conditional_histogram(batch, edges)
    _batch_files(rep, out_dir, batch, law, times)
    dens = qprocess_stationary(sd)
    cum = np.concatenate([[0.0], np.cumsum(dens * sd.cell)])
    cum /= cum[-1]
    knots = np.concatenate([[sd.domain.x_min], sd.grid])

    def stat_cdf(v):
        return np.interp(v, knots, cum)

    rep.scalars["n_paths"] = batch.n_paths
    rep.scalars["ks_vs_stationary"] = ks_distance(law, stat_cdf)
    rep.scalars.update(batch.events)


def _cmd_bd(args, cfg, out_dir, rep):
    import numpy as np
    from .birthdeath import (gillespie, preset_chain, preset_family,
                             s_criterion, scaling_limit_check)
    bd = cfg.bd
    if bd["n_reps"] is not None:
        rep.messages.append("bd.n_reps is ignored: the scaling check samples "
                            "nothing")
    with rep.span("scaling check"):
        sr = scaling_limit_check(bd["kind"], bd["params"], bd["n_list"],
                                 bd["z0"], bd["t"])
    rep.add_file(out_dir, "scaling_ks.csv", ("N", "ks_distance", "M"),
                 list(zip(*sr.rows)))
    for N, ks, _ in sr.rows:
        rep.scalars[f"ks_N{N}"] = ks
    rep.scalars["reference_levels"] = sr.reference_levels
    rep.scalars["eigen_residual"] = sr.eigen_residual
    rep.scalars["orthonormality_defect"] = sr.orthonormality_defect

    biggest = preset_family(bd["kind"], bd["params"], bd["n_list"][-1])
    paths = [gillespie(biggest, bd["z0"], bd["t"], seed=cfg.seed,
                       replica=replica) for replica in range(3)]
    rep.add_file(out_dir, "bd_paths.csv", ("replica", "t", "count", "state"),
                 [np.repeat(np.arange(3), [len(p.times) for p in paths]),
                  np.concatenate([p.times for p in paths]),
                  np.concatenate([p.counts for p in paths]),
                  np.concatenate([p.states for p in paths])])

    with rep.span("series criterion"):
        sc = s_criterion(preset_chain(bd["chain"], bd["chain_params"]),
                         bd["n_max"])
    cuts, s_vals = zip(*sc.S_partial)
    _, a_vals = zip(*sc.A_partial)
    rep.add_file(out_dir, "s_criterion.csv",
                 ("n", "pi_n", "S_partial", "A_partial"),
                 [cuts, sc.pi[np.array(cuts) - 1], s_vals, a_vals])
    for key, verdict in sc.verdict.items():
        rep.scalars[f"statement_{key}"] = verdict
    rep.scalars["sure_absorption"] = sc.sure_absorption
    rep.scalars["iii_iv_agree"] = sc.agreement_iii_iv


def _cmd_compare(args, cfg, out_dir, rep):
    import numpy as np
    from .errors import PreconditionError
    from .montecarlo import (conditional_histogram, estimate_lambda1,
                             ks_distance, survival_grid, yaglom_cdf)
    from .spectral import yaglom_measure, yaglom_to_z
    sd = _decomposition(cfg, rep)
    ym = yaglom_measure(sd)
    if cfg.model.kind == "growth":
        ym = yaglom_to_z(ym, cfg.model.growth.gamma)
    times = survival_grid(cfg.sim, cfg.mc["record_dt"])
    batch = _native_batch(cfg, rep)
    edges = _hist_edges(cfg)
    law = conditional_histogram(batch, edges)
    cdf = yaglom_cdf(ym)
    rep.add_file(out_dir, "compare.csv",
                 ("bin_lo", "bin_hi", "empirical_mass", "empirical_stderr",
                  "spectral_mass"),
                 [edges[:-1], edges[1:], law.masses, law.stderr,
                  np.diff(cdf(edges))])
    rep.scalars["ks_distance"] = ks_distance(law, cdf)
    rep.scalars["lambda1_spectral"] = sd.lambda1
    try:
        est = estimate_lambda1(batch, _lambda_window(cfg), times)
        rep.scalars["lambda1_mc"] = est.rate
        rep.scalars["lambda1_mc_stderr"] = est.stderr
        rep.scalars["lambda1_rel_gap"] = abs(est.rate - sd.lambda1) \
            / sd.lambda1
    except PreconditionError as exc:
        rep.messages.append(f"decay-rate estimate unavailable: {exc}")
    rep.scalars["survivors_at_t_max"] = int(law.n_survivors)
    rep.scalars.update(batch.events)


# name -> (help text, handler), in the parser's order
_COMMANDS = {
    "check": ("verify the integrability hypotheses", _cmd_check),
    "spectrum": ("solve the killed generator's eigenproblem", _cmd_spectrum),
    "yaglom": ("compute the quasi-stationary profile", _cmd_yaglom),
    "kernel": ("write one transition-kernel slice", _cmd_kernel),
    "simulate": ("run the absorbed path ensemble", _cmd_simulate),
    "qprocess": ("simulate the never-absorbed conditioned process",
                 _cmd_qprocess),
    "bd": ("lattice prelimit: scaling check and series criterion", _cmd_bd),
    "compare": ("overlay spectral profile against simulation",
                _cmd_compare),
}


if __name__ == "__main__":
    sys.exit(main())
