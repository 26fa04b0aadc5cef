"""Traced runs: spans around qsdlab's public functions, per-layer metrics.

The tracer wraps each function at every module attribute that binds
it, because a caller looks a name up in its own module: ``hypotheses``
binds ``integrate`` at import, ``birthdeath`` binds ``simulate_z``, and
``cli`` imports its layers inside each command.  SciPy's ``tanhsinh``
and ``quad`` are counted at the ``scipy.integrate`` handle that each
qsdlab module calls them through.  Spans stay in memory until the run
ends; ``Tracer.dump`` writes them out.

A layer's self time is its span's duration minus the durations of the
spans nested directly inside it.  Time the speed probe (speed.py) takes
while a span is open is left out of the span, and every time is scaled
by the pass's speed factor, as the untraced pass time is.
"""

import functools
import importlib
import json
import os
import sys
import time

import numpy as np

# (layer, function): the spans the per-layer metrics are computed from.
# A function is found by name in the layer's module; methods are given
# as "Class.method".
SPANS = (
    ("cli", "main"),
    ("config", "load_config"),
    ("hypotheses", "check_all"),
    ("hypotheses", "inner_tail"),
    ("hypotheses", "inner_head"),
    ("quadrature", "integrate"),
    ("spectral", "build_and_solve"),
    ("spectral", "yaglom_measure"),
    ("spectral", "yaglom_to_z"),
    ("spectral", "kernel_r"),
    ("spectral", "qprocess_stationary"),
    ("montecarlo", "simulate_x"),
    ("montecarlo", "simulate_z"),
    ("montecarlo", "simulate_qprocess"),
    ("montecarlo", "conditional_histogram"),
    ("montecarlo", "estimate_lambda1"),
    ("montecarlo", "ks_distance"),
    ("montecarlo", "yaglom_cdf"),
    ("montecarlo", "PathBatch.survival"),
    ("birthdeath", "scaling_limit_check"),
    ("birthdeath", "gillespie"),
    ("birthdeath", "s_criterion"),
    ("report", "write_csv"),
    ("report", "RunReport.write_json"),
)

PROFILE_FUNCS = ("spectral.yaglom_measure", "spectral.yaglom_to_z",
                 "spectral.kernel_r", "spectral.qprocess_stationary")
SUMMARY_FUNCS = ("montecarlo.conditional_histogram",
                 "montecarlo.estimate_lambda1", "montecarlo.ks_distance",
                 "montecarlo.yaglom_cdf", "montecarlo.PathBatch.survival")

# every per-layer metric with its unit, in report order
LAYER_METRICS = (
    ("hypotheses.check_all_s", "s"),
    ("hypotheses.inner_s", "s"),
    ("hypotheses.inner_solves", "count"),
    ("quadrature.outer_self_s", "s"),
    ("quadrature.tanhsinh_calls", "count"),
    ("quadrature.tanhsinh_errors", "count"),
    ("quadrature.quad_calls", "count"),
    ("spectral.solve_s", "s"),
    ("spectral.solve_calls", "count"),
    ("spectral.profile_s", "s"),
    ("montecarlo.absorbed_s", "s"),
    ("montecarlo.absorbed_ns_per_path_step", "ns"),
    ("montecarlo.absorbed_ns_per_live_step", "ns"),
    ("montecarlo.conditioned_s", "s"),
    ("montecarlo.conditioned_ns_per_path_step", "ns"),
    ("montecarlo.summary_s", "s"),
    ("birthdeath.scaling_self_s", "s"),
    ("birthdeath.us_per_replica", "us"),
    ("birthdeath.paths_s", "s"),
    ("birthdeath.series_s", "s"),
    ("report.write_s", "s"),
    ("report.mb_per_s", "MB/s"),
    ("cli.self_s", "s"),
    ("config.load_s", "s"),
    ("trace.wall_s", "s"),
)


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self):
        self.spans = []       # this pass: [name, parent, start, end, probe s]
        self.counts = {}      # this pass: counter name -> increment
        self.stack = []
        self.passes = []      # finished passes: (spans, counts)
        self._undo = []

    def next_pass(self):
        """Close the current pass; later spans and counts start afresh."""
        self.passes.append((self.spans, self.counts))
        self.spans, self.counts = [], {}

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def exclude(self, seconds):
        """Leave probe time out of every span open right now."""
        for idx in self.stack:
            self.spans[idx][4] += seconds

    def wrap(self, name, fn, on_exit=None):
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, 0.0]
            spans.append(span)
            stack.append(idx)
            span[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if on_exit is not None:
                on_exit(self, args, kwargs, out)
            return out

        return traced

    # -- installing and removing the wrappers --------------------------

    def install(self):
        import scipy.integrate
        for layer, _ in SPANS:
            importlib.import_module(f"qsdlab.{layer}")
        mods = [m for key, m in sorted(sys.modules.items())
                if (key == "qsdlab" or key.startswith("qsdlab."))
                and m is not None]
        hooks = {"montecarlo.simulate_x": _absorbed_hook,
                 "montecarlo.simulate_qprocess": _conditioned_hook,
                 "birthdeath.scaling_limit_check": _scaling_hook,
                 "report.write_csv": _bytes_hook}
        for layer, func in SPANS:
            mod = sys.modules[f"qsdlab.{layer}"]
            name = f"{layer}.{func}"
            if "." in func:
                cls_name, meth = func.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, self.wrap(name, orig, hooks.get(name)))
                continue
            orig = getattr(mod, func)
            wrapped = self.wrap(name, orig, hooks.get(name))
            # wrap the name wherever it is bound, not only where defined
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._set(m, attr, wrapped)
        proxy = _CountingIntegrate(self, scipy.integrate)
        for m in mods:
            for attr, val in list(vars(m).items()):
                if val is scipy.integrate:
                    self._set(m, attr, proxy)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- output --------------------------------------------------------

    def dump(self, path):
        """Write every finished pass's spans and counters, one JSON line
        per pass."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (spans, counts) in enumerate(self.passes):
                fh.write(json.dumps({"pass": i, "counts": counts,
                                     "spans": spans}))
                fh.write("\n")


class _CountingIntegrate:
    """Stand-in for the scipy.integrate module that counts its calls."""

    def __init__(self, tracer, module):
        self._tracer = tracer
        self._module = module

    def __getattr__(self, attr):
        return getattr(self._module, attr)

    def tanhsinh(self, *args, **kwargs):
        self._tracer.count("tanhsinh_calls")
        try:
            return self._module.tanhsinh(*args, **kwargs)
        except Exception:
            self._tracer.count("tanhsinh_errors")
            raise

    def quad(self, *args, **kwargs):
        self._tracer.count("quad_calls")
        return self._module.quad(*args, **kwargs)


# -- work counters recorded as the wrapped calls return -----------------

def _steps(cfg):
    return int(np.ceil(cfg.t_max / cfg.dt - 1e-12))


def _absorbed_hook(tracer, args, kwargs, batch):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    n_steps = _steps(cfg)
    tracer.count("absorbed_path_steps", cfg.n_paths * n_steps)
    lived = np.minimum(np.asarray(batch.T0), n_steps * cfg.dt) / cfg.dt
    tracer.count("absorbed_live_steps", int(np.ceil(lived).sum()))


def _conditioned_hook(tracer, args, kwargs, batch):
    cfg = args[3] if len(args) > 3 else kwargs["cfg"]
    tracer.count("conditioned_path_steps", cfg.n_paths * _steps(cfg))


def _scaling_hook(tracer, args, kwargs, report):
    tracer.count("lattice_replicas",
                 sum(n_reps for _, _, n_reps in report.rows))


def _bytes_hook(tracer, args, kwargs, digest):
    tracer.count("bytes_written", os.path.getsize(args[0]))


# -- per-layer metrics of one pass ---------------------------------------

def layer_metrics(spans, counts, wall_s, factor):
    """Per-layer metrics from one pass's spans and counter increments.

    wall_s is the calibrated pass time; factor scales span durations
    the same way.
    """
    dur = [(end - start - probe) * factor
           for _, _, start, end, probe in spans]
    names = [s[0] for s in spans]
    parents = [s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += dur[i]

    def total(*want):
        return sum((d for n, d in zip(names, dur) if n in want), 0.0)

    def self_time(name):
        return sum((d - c for n, d, c in zip(names, dur, child)
                    if n == name), 0.0)

    def nested_in(name, parent_name):
        return sum((d for n, p, d in zip(names, parents, dur)
                    if n == name and p >= 0 and names[p] == parent_name), 0.0)

    def outermost(*want):
        return sum((d for n, p, d in zip(names, parents, dur)
                    if n in want and not (p >= 0 and names[p] in want)), 0.0)

    def per(value, base_count, scale):
        return value * scale / base_count if base_count else 0.0

    c = counts.get
    inner = ("hypotheses.inner_tail", "hypotheses.inner_head")
    absorbed = outermost("montecarlo.simulate_x", "montecarlo.simulate_z")
    conditioned = total("montecarlo.simulate_qprocess")
    scaling_self = (total("birthdeath.scaling_limit_check")
                    - nested_in("montecarlo.simulate_z",
                                "birthdeath.scaling_limit_check"))
    write = total("report.write_csv", "report.RunReport.write_json")
    values = {
        "hypotheses.check_all_s": total("hypotheses.check_all"),
        "hypotheses.inner_s": outermost(*inner),
        "hypotheses.inner_solves": sum(1 for n in names if n in inner),
        "quadrature.outer_self_s": self_time("quadrature.integrate"),
        "quadrature.tanhsinh_calls": c("tanhsinh_calls", 0),
        "quadrature.tanhsinh_errors": c("tanhsinh_errors", 0),
        "quadrature.quad_calls": c("quad_calls", 0),
        "spectral.solve_s": total("spectral.build_and_solve"),
        "spectral.solve_calls": names.count("spectral.build_and_solve"),
        "spectral.profile_s": outermost(*PROFILE_FUNCS),
        "montecarlo.absorbed_s": absorbed,
        "montecarlo.absorbed_ns_per_path_step":
            per(absorbed, c("absorbed_path_steps", 0), 1e9),
        "montecarlo.absorbed_ns_per_live_step":
            per(absorbed, c("absorbed_live_steps", 0), 1e9),
        "montecarlo.conditioned_s": conditioned,
        "montecarlo.conditioned_ns_per_path_step":
            per(conditioned, c("conditioned_path_steps", 0), 1e9),
        "montecarlo.summary_s": outermost(*SUMMARY_FUNCS),
        "birthdeath.scaling_self_s": scaling_self,
        "birthdeath.us_per_replica":
            per(scaling_self, c("lattice_replicas", 0), 1e6),
        "birthdeath.paths_s": total("birthdeath.gillespie"),
        "birthdeath.series_s": total("birthdeath.s_criterion"),
        "report.write_s": write,
        "report.mb_per_s": per(c("bytes_written", 0), write, 1e-6)
        if write else 0.0,
        "cli.self_s": self_time("cli.main"),
        "config.load_s": total("config.load_config"),
        "trace.wall_s": wall_s,
    }
    return values

