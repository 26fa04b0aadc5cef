"""Run configuration: the INI surface of the command-line pipeline.

One file configures a whole run.  The [model] section picks the drift or
growth preset (or a custom expression), [domain] and [spectral] shape the
eigensolve, [montecarlo] holds the path-ensemble settings, and [bd] the
lattice prelimit.  Validation is collective: every violated key is
reported in one error, not just the first.
"""

import configparser
import dataclasses
import os
from dataclasses import dataclass
from typing import Optional

from .errors import ConfigError
from .model import Model, preset_model
from .montecarlo import SimConfig
from .spectral import TruncationDomain, default_domain

_SECTIONS = ("model", "domain", "spectral", "montecarlo", "bd")

_MODEL_KEYS = {"kind", "preset", "expression", "r", "c", "gamma", "k",
               "k0", "theta"}
_DOMAIN_KEYS = {"x_min", "x_max", "n", "grid_kind"}
_SPECTRAL_KEYS = {"k", "n_modes"}
_MC_KEYS = {"x0", "z0", "dt", "t_max", "n_paths", "seed", "record_dt",
            "absorb_threshold", "bridge_correction", "block_size",
            "crn_substeps", "bins", "hist_max", "lambda_window"}
_BD_KEYS = {"kind", "lam", "mu", "c", "gamma", "n_list", "z0", "t",
            "n_reps", "chain", "chain_lam", "chain_mu", "chain_c", "n_max"}

_STOCHASTIC = ("simulate", "qprocess", "bd", "compare")


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs, already validated and typed."""

    model: Model
    domain: Optional[TruncationDomain]   # None: derive from the drift
    K: int
    mc: dict                             # montecarlo settings
    bd: dict                             # lattice-prelimit settings
    seed: Optional[int]
    quick: bool
    path: str

    def sim_config(self, t_max=None, n_paths=None, record_dt=None):
        """A SimConfig from the [montecarlo] section, with overrides."""
        m = self.mc
        return SimConfig(
            dt=m["dt"],
            t_max=m["t_max"] if t_max is None else float(t_max),
            n_paths=m["n_paths"] if n_paths is None else int(n_paths),
            seed=0 if self.seed is None else self.seed,
            absorb_threshold=m["absorb_threshold"],
            bridge_correction=m["bridge_correction"],
            record_dt=m["record_dt"] if record_dt is None else record_dt,
            block_size=m["block_size"],
            crn_substeps=m["crn_substeps"])

    def start_state(self):
        """Initial state in the model's native coordinate."""
        if self.model.kind == "growth":
            return self.mc["z0"]
        return self.mc["x0"]


def _get_float(cp, section, key, default, problems):
    if not cp.has_option(section, key):
        return default
    raw = cp.get(section, key)
    try:
        return float(raw)
    except ValueError:
        problems.append(f"{section}.{key}: not a number ({raw!r})")
        return default


def _get_int(cp, section, key, default, problems):
    if not cp.has_option(section, key):
        return default
    raw = cp.get(section, key)
    try:
        return int(raw)
    except ValueError:
        problems.append(f"{section}.{key}: not an integer ({raw!r})")
        return default


def _get_bool(cp, section, key, default, problems):
    if not cp.has_option(section, key):
        return default
    try:
        return cp.getboolean(section, key)
    except ValueError:
        problems.append(f"{section}.{key}: not a boolean "
                        f"({cp.get(section, key)!r})")
        return default


def _unknown_keys(cp, section, known, problems):
    if not cp.has_section(section):
        return
    for key in cp.options(section):
        if key not in known:
            problems.append(f"{section}.{key}: unknown key")


def load_config(path, quick=False, seed_override=None) -> RunConfig:
    """Parse and validate a run configuration file.

    quick scales the expensive sizes (grid n, path counts, series depth)
    down tenfold for smoke runs; seed_override wins over the file.
    """
    problems = []
    if not os.path.isfile(path):
        raise ConfigError([f"config file not found: {path}"])
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError([f"config parse error: {exc}"]) from None

    for section in cp.sections():
        if section not in _SECTIONS:
            problems.append(f"[{section}]: unknown section")

    # --- model ---
    if not cp.has_section("model"):
        problems.append("[model]: section required")
        model = None
    else:
        _unknown_keys(cp, "model", _MODEL_KEYS, problems)
        kind = cp.get("model", "kind", fallback="growth").strip()
        preset = cp.get("model", "preset", fallback=None)
        if preset is None:
            problems.append("model.preset: required")
            model = None
        else:
            params = {}
            for key in ("r", "c", "gamma", "theta"):
                if cp.has_option("model", key):
                    params[key] = cp.get("model", key)
            # configparser lowercases option names; map back
            if cp.has_option("model", "k"):
                params["K"] = cp.get("model", "k")
            if cp.has_option("model", "k0"):
                params["K0"] = cp.get("model", "k0")
            if cp.has_option("model", "expression"):
                params["expression"] = cp.get("model", "expression")
            try:
                model = preset_model(preset.strip(), kind, params)
            except ConfigError as exc:
                problems.extend(exc.problems)
                model = None

    # --- domain ---
    domain = None
    if cp.has_section("domain"):
        _unknown_keys(cp, "domain", _DOMAIN_KEYS, problems)
        x_min = _get_float(cp, "domain", "x_min", None, problems)
        x_max = _get_float(cp, "domain", "x_max", None, problems)
        n = _get_int(cp, "domain", "n", None, problems)
        gk = cp.get("domain", "grid_kind", fallback=None)
        section_ok = True
        if gk is not None and gk not in ("uniform", "sqrt"):
            problems.append(f"domain.grid_kind: must be uniform or sqrt, "
                            f"got {gk!r}")
            gk = None
            section_ok = False
        if x_min is not None and not x_min > 0:
            problems.append(f"domain.x_min: must be positive, got {x_min}")
            section_ok = False
        if x_max is not None and x_min is not None and not x_max > x_min:
            problems.append(f"domain.x_max: must exceed x_min, got {x_max}")
            section_ok = False
        if n is not None and n < 16:
            problems.append(f"domain.n: must be at least 16, got {n}")
            section_ok = False
        if model is not None and section_ok:
            base = default_domain(model.drift)
            domain = dataclasses.replace(
                base,
                x_min=base.x_min if x_min is None else x_min,
                x_max=base.x_max if x_max is None else x_max,
                n=base.n if n is None else n,
                grid_kind=base.grid_kind if gk is None else gk)
            try:
                domain.validate()
            except Exception as exc:
                problems.append(f"domain: {exc}")
                domain = None

    # --- spectral ---
    K = 16
    if cp.has_section("spectral"):
        _unknown_keys(cp, "spectral", _SPECTRAL_KEYS, problems)
        K = _get_int(cp, "spectral", "k",
                     _get_int(cp, "spectral", "n_modes", 16, problems),
                     problems)
    if K < 2:
        problems.append(f"spectral.k: need at least 2 modes, got {K}")

    # --- montecarlo ---
    _unknown_keys(cp, "montecarlo", _MC_KEYS, problems)
    sec = "montecarlo"
    mc = {
        "x0": _get_float(cp, sec, "x0", 1.0, problems),
        "z0": _get_float(cp, sec, "z0", 1.0, problems),
        "dt": _get_float(cp, sec, "dt", 1e-3, problems),
        "t_max": _get_float(cp, sec, "t_max", 6.0, problems),
        "n_paths": _get_int(cp, sec, "n_paths", 100000, problems),
        "record_dt": _get_float(cp, sec, "record_dt", None, problems),
        "absorb_threshold": _get_float(cp, sec, "absorb_threshold", 1e-4,
                                       problems),
        "bridge_correction": _get_bool(cp, sec, "bridge_correction", True,
                                       problems),
        "block_size": _get_int(cp, sec, "block_size", 4096, problems),
        "crn_substeps": _get_int(cp, sec, "crn_substeps", 1, problems),
        "bins": _get_int(cp, sec, "bins", 60, problems),
        "hist_max": _get_float(cp, sec, "hist_max", None, problems),
    }
    for key in ("dt", "t_max"):
        if mc[key] <= 0:
            problems.append(f"montecarlo.{key}: must be positive")
    for key in ("n_paths", "bins", "block_size", "crn_substeps"):
        if mc[key] < 1:
            problems.append(f"montecarlo.{key}: must be at least 1")
    window = None
    if cp.has_option(sec, "lambda_window"):
        raw = cp.get(sec, "lambda_window")
        parts = [s.strip() for s in raw.split(",")]
        try:
            window = (float(parts[0]), float(parts[1]))
            if not window[0] < window[1]:
                raise ValueError
        except (ValueError, IndexError):
            problems.append(f"montecarlo.lambda_window: expected "
                            f"'lo, hi' with lo < hi, got {raw!r}")
            window = None
    mc["lambda_window"] = window

    seed = None
    if cp.has_option(sec, "seed"):
        seed = _get_int(cp, sec, "seed", None, problems)
    if seed_override is not None:
        seed = int(seed_override)

    # --- bd ---
    _unknown_keys(cp, "bd", _BD_KEYS, problems)
    sec = "bd"
    bd_kind = cp.get(sec, "kind", fallback="logistic_branching")
    if bd_kind not in ("pure_branching", "logistic_branching"):
        problems.append(f"bd.kind: must be pure_branching or "
                        f"logistic_branching, got {bd_kind!r}")
    chain = cp.get(sec, "chain", fallback="logistic")
    if chain not in ("linear", "logistic"):
        problems.append(f"bd.chain: must be linear or logistic, "
                        f"got {chain!r}")
    raw_nlist = cp.get(sec, "n_list", fallback="10, 30, 100")
    try:
        n_list = tuple(int(s) for s in raw_nlist.split(","))
        if not n_list or any(b <= a for a, b in zip(n_list, n_list[1:])):
            raise ValueError
    except ValueError:
        problems.append(f"bd.n_list: expected increasing integers, "
                        f"got {raw_nlist!r}")
        n_list = (10, 30, 100)
    bd = {
        "kind": bd_kind,
        "params": {
            "lam": _get_float(cp, sec, "lam", 2.0, problems),
            "mu": _get_float(cp, sec, "mu", 1.0, problems),
            "c": _get_float(cp, sec, "c", 1.0, problems),
            "gamma": _get_float(cp, sec, "gamma", 1.0, problems),
        },
        "n_list": n_list,
        "z0": _get_float(cp, sec, "z0", 1.0, problems),
        "t": _get_float(cp, sec, "t", 1.0, problems),
        "n_reps": _get_int(cp, sec, "n_reps", 10000, problems),
        "chain": chain,
        "chain_params": {
            "lam": _get_float(cp, sec, "chain_lam", 1.0, problems),
            "mu": _get_float(cp, sec, "chain_mu", 1.0, problems),
            "c": _get_float(cp, sec, "chain_c", 1.0, problems),
        },
        "n_max": _get_int(cp, sec, "n_max", 10000, problems),
    }
    if bd["n_reps"] < 1:
        problems.append("bd.n_reps: must be at least 1")
    if bd["n_max"] < 100:
        problems.append("bd.n_max: must be at least 100")

    if quick:
        # tenfold smoke-run reduction of the expensive sizes
        if domain is None and model is not None:
            domain = default_domain(model.drift)
        if domain is not None:
            domain = dataclasses.replace(domain,
                                         n=max(256, domain.n // 10))
        mc["n_paths"] = max(1000, mc["n_paths"] // 10)
        bd["n_reps"] = max(500, bd["n_reps"] // 10)
        bd["n_max"] = max(100, bd["n_max"] // 10)

    if problems or model is None:
        if model is None and not problems:
            problems.append("[model]: could not be built")
        raise ConfigError(problems)

    return RunConfig(model=model, domain=domain, K=K, mc=mc, bd=bd,
                     seed=seed, quick=bool(quick),
                     path=os.path.abspath(path))


def require_seed(cfg: RunConfig, command) -> None:
    """Stochastic commands must not run on an implicit seed."""
    if command in _STOCHASTIC and cfg.seed is None:
        raise ConfigError(
            [f"montecarlo.seed: required for the {command} command "
             "(set it in the config or pass --seed)"])
