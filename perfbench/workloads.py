"""The three workloads: the qsd calls of one pass and the configs they read.

Every input is derived from the workload seed, so the same seed always
produces byte-identical configs and calls.  A call is one invocation of
``qsdlab.cli.main``; its ``group`` names the per-command metric that
its time is charged to.
"""

import os
import random
from dataclasses import dataclass

WORKLOADS = ("analysis", "paths", "lattice")


@dataclass(frozen=True)
class Call:
    name: str           # unique within a pass; also the output directory
    group: str          # per-command metric the call's time counts toward
    argv: tuple         # arguments of qsdlab.cli.main, without --output-dir


# ---------------------------------------------------------------------------
# model sections shared by the workloads

_MODELS = {
    "logistic": """[model]
kind = growth
preset = logistic
r = 1.0
c = 1.0
gamma = 1.0

[domain]
x_min = 0.001
x_max = 6.0
n = {n}
grid_kind = sqrt

[spectral]
k = 32
""",
    "ou": """[model]
kind = drift
preset = ou
theta = 1.0

[domain]
x_min = 0.0001
x_max = 8.0
n = {n}
grid_kind = uniform

[spectral]
k = 16
""",
    "linear": """[model]
kind = growth
preset = linear
r = -1.0
gamma = 1.0

[domain]
x_min = 0.001
x_max = 8.0
n = {n}
grid_kind = sqrt

[spectral]
k = 32
""",
    "allee": """[model]
kind = growth
preset = allee
r = 1.0
K0 = 1.0
K = 4.0
gamma = 1.0

[domain]
n = {n}

[spectral]
k = 16
""",
    "flat": """[model]
kind = growth
preset = custom
expression = 0*z
gamma = 1.0
""",
}


@dataclass(frozen=True)
class Sizes:
    """Every size knob of the three workloads."""

    grid_n: int = 4096              # analysis and paths eigensolves
    kernel_slices: int = 2          # (t, x) kernel slices per model
    simulate_paths: int = 12000     # paths: absorbed OU ensemble
    compare_paths: int = 24000      # paths: absorbed logistic ensemble
    qprocess_paths: int = 6000      # paths: conditioned OU ensemble
    bd_reps: int = 10000            # lattice: replicas per N
    bd_n_max: int = 10000           # lattice: series cutoff


FULL = Sizes()
# the self-test's pass of all three workloads: every call still runs,
# at sizes that finish in seconds
TINY = Sizes(kernel_slices=1, simulate_paths=3000, compare_paths=2000,
             qprocess_paths=1000, bd_reps=1000, bd_n_max=1000)

# OU paths run to t = 3, logistic paths to t = 6 (the C07 window)
OU_T_MAX = 3.0
OU_WINDOW = (1.5, 3.0)
LOGISTIC_T_MAX = 6.0
LOGISTIC_WINDOW = (2.0, 6.0)
DT = 1e-3

# lattice: logistic_branching with noise scale gamma = 0.1 observed at
# t = 1 (see README: the lattice-noise excess 2/N over 2*gamma is what
# the KS distance resolves as N grows)
BD_PARAMS = {"lam": 1.0, "mu": 1.0, "c": 1.0, "gamma": 0.1}
BD_N_LIST = (10, 30, 100)
BD_T = 1.0


def _montecarlo(seed, n_paths, t_max, window, start_key, start):
    return f"""
[montecarlo]
{start_key} = {start}
dt = {DT}
t_max = {t_max}
n_paths = {n_paths}
seed = {seed}
bins = 60
lambda_window = {window[0]}, {window[1]}
"""


def _bd_section(seed, sizes):
    p = BD_PARAMS
    return f"""[model]
kind = growth
preset = logistic
r = 1.0
c = 1.0
gamma = 1.0

[montecarlo]
dt = {DT}
seed = {seed}

[bd]
kind = logistic_branching
lam = {p['lam']}
mu = {p['mu']}
c = {p['c']}
gamma = {p['gamma']}
n_list = {', '.join(str(n) for n in BD_N_LIST)}
z0 = 1.0
t = {BD_T}
n_reps = {sizes.bd_reps}
chain = logistic
chain_lam = 1.0
chain_mu = 1.0
chain_c = 1.0
n_max = {sizes.bd_n_max}
"""


def kernel_slices(seed, count):
    """Seed-drawn (t, x) kernel slices, each model gets its own draws.

    t stays in [1, 2]: above every analysis decomposition's t_min (the
    largest is OU at K = 16, t_min = 0.76), so no slice is refused.
    """
    rng = random.Random(f"kernel-{seed}")
    out = {}
    for model in ("logistic", "ou", "linear", "allee"):
        out[model] = [(round(rng.uniform(1.0, 2.0), 6),
                       round(rng.uniform(0.5, 2.0), 6))
                      for _ in range(count)]
    return out


def write_configs(workload, seed, cfg_dir, sizes=FULL):
    """Write the workload's config files; returns {name: path}."""
    os.makedirs(cfg_dir, exist_ok=True)
    texts = {}
    n = sizes.grid_n
    if workload == "analysis":
        for model in ("logistic", "ou", "linear", "allee", "flat"):
            texts[model] = _MODELS[model].format(n=n)
    elif workload == "paths":
        texts["ou_simulate"] = (_MODELS["ou"].format(n=n) + _montecarlo(
            seed, sizes.simulate_paths, OU_T_MAX, OU_WINDOW, "x0", 1.0))
        texts["logistic_compare"] = (
            _MODELS["logistic"].format(n=n) + _montecarlo(
                seed, sizes.compare_paths, LOGISTIC_T_MAX, LOGISTIC_WINDOW,
                "z0", 1.0))
        texts["ou_qprocess"] = (_MODELS["ou"].format(n=n) + _montecarlo(
            seed, sizes.qprocess_paths, OU_T_MAX, OU_WINDOW, "x0", 1.0))
    elif workload == "lattice":
        texts["bd"] = _bd_section(seed, sizes)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    paths = {}
    for name, text in texts.items():
        path = os.path.join(cfg_dir, f"{name}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths[name] = path
    return paths


def calls(workload, seed, cfgs, sizes=FULL):
    """The qsd calls of one pass, in the order they run."""
    if workload == "analysis":
        out = []
        slices = kernel_slices(seed, sizes.kernel_slices)
        for model in ("logistic", "ou", "linear", "allee", "flat"):
            out.append(Call(f"check_{model}", "check",
                            ("check", cfgs[model])))
        for model in ("logistic", "ou", "linear", "allee"):
            cfg = cfgs[model]
            out.append(Call(f"spectrum_{model}", "spectrum",
                            ("spectrum", cfg)))
            out.append(Call(f"yaglom_{model}", "profile", ("yaglom", cfg)))
            for i, (t, x) in enumerate(slices[model]):
                out.append(Call(f"kernel_{model}_{i}", "profile",
                                ("kernel", cfg, "--t", repr(t),
                                 "--x", repr(x))))
        return out
    if workload == "paths":
        return [Call("simulate_ou", "simulate",
                     ("simulate", cfgs["ou_simulate"])),
                Call("compare_logistic", "compare",
                     ("compare", cfgs["logistic_compare"])),
                Call("qprocess_ou", "qprocess",
                     ("qprocess", cfgs["ou_qprocess"]))]
    if workload == "lattice":
        return [Call("bd_logistic", "bd", ("bd", cfgs["bd"]))]
    raise ValueError(f"unknown workload {workload!r}")

