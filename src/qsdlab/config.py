"""Run configuration: the INI surface of the command-line pipeline.

One file configures a whole run.  The [model] section picks the drift or
growth preset (or a custom expression), [domain] and [spectral] shape the
eigensolve, [montecarlo] holds the path-ensemble settings, and [bd] the
lattice prelimit.  One table lists every key with its parser and
default, the [model] parameters as model.PRESETS declares them;
TruncationDomain and SimConfig hold their own range rules.
Validation is collective: every violated key is reported in one error.
"""

import configparser
import dataclasses
import math
import os
from dataclasses import dataclass
from typing import Optional

from .errors import ConfigError, ModelError
from .model import PRESETS, Model, preset_model
from .montecarlo import SimConfig
from .spectral import TruncationDomain, default_domain

_STOCHASTIC = ("simulate", "qprocess", "bd", "compare")


def _parser(convert, what, ok=None, rule=None):
    """A key parser: raw text -> value, or ValueError with the complaint."""
    def parse(raw):
        try:
            value = convert(raw)
        except ValueError:
            raise ValueError(f"not {what} ({raw!r})") from None
        if ok is not None and not ok(value):
            raise ValueError(f"{rule}, got {value!r}")
        return value
    return parse


def _at_least(low):
    return _parser(int, "an integer", lambda v: v >= low,
                   f"must be at least {low}")


def _choice(*options):
    return _parser(str, "text", lambda v: v in options,
                   f"must be {' or '.join(options)}")


def _window(raw):
    try:
        parts = raw.split(",")
        lo, hi = float(parts[0]), float(parts[1])
        if lo < hi:
            return lo, hi
    except (ValueError, IndexError):
        pass
    raise ValueError(f"expected 'lo, hi' with lo < hi, got {raw!r}")


def _increasing(raw):
    try:
        values = tuple(int(s) for s in raw.split(","))
        if values[0] >= 1 and all(a < b for a, b in zip(values, values[1:])):
            return values
    except ValueError:
        pass
    raise ValueError(f"expected increasing positive integers, got {raw!r}")


_FLOAT = _parser(float, "a number")
_INT = _parser(int, "an integer")
_NONNEGATIVE = _parser(float, "a number", lambda v: 0 <= v < math.inf,
                       "must be nonnegative and finite")
_POSITIVE = _parser(float, "a number", lambda v: 0 < v < math.inf,
                    "must be positive and finite")

# configparser lowercases option names: each preset parameter's key,
# mapped to the parameter's own name (K0 and K keep their case)
_MODEL_PARAMS = {key.lower(): key for _, params, _ in PRESETS.values()
                 for key in params}

# section -> key -> (parser, default).  Model parameters stay text:
# preset_model parses the ones its preset uses.
_SCHEMA = {
    "model": {"kind": (str, "growth"),
              **{key: (str, None) for key in ("preset", "expression",
                                              *_MODEL_PARAMS)}},
    "domain": {"x_min": (_FLOAT, None), "x_max": (_FLOAT, None),
               "n": (_INT, None), "grid_kind": (str, None)},
    "spectral": {"k": (_at_least(2), 16)},
    "montecarlo": {
        "x0": (_FLOAT, 1.0), "z0": (_FLOAT, 1.0), "dt": (_FLOAT, 1e-3),
        "t_max": (_FLOAT, 6.0), "n_paths": (_INT, 100000),
        "seed": (_INT, None), "record_dt": (_POSITIVE, None),
        "absorb_threshold": (_FLOAT, 1e-4),
        "bins": (_at_least(1), 60), "hist_max": (_POSITIVE, None),
        "lambda_window": (_window, None)},
    "bd": {
        "kind": (_choice("pure_branching", "logistic_branching"),
                 "logistic_branching"),
        "lam": (_NONNEGATIVE, 2.0), "mu": (_NONNEGATIVE, 1.0),
        "c": (_NONNEGATIVE, 1.0),
        "gamma": (_POSITIVE, 1.0), "n_list": (_increasing, (10, 30, 100)),
        "z0": (_NONNEGATIVE, 1.0), "t": (_POSITIVE, 1.0),
        "n_reps": (_at_least(1), None),  # read by nothing; qsd bd says so
        "chain": (_choice("linear", "logistic"), "logistic"),
        "chain_lam": (_NONNEGATIVE, 1.0), "chain_mu": (_NONNEGATIVE, 1.0),
        "chain_c": (_NONNEGATIVE, 1.0), "n_max": (_at_least(100), 10000)},
}
_SIM_KEYS = [f.name for f in dataclasses.fields(SimConfig) if f.name != "seed"]


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs, already validated and typed."""

    model: Model
    domain: TruncationDomain   # [domain] over the model's default box
    K: int
    sim: SimConfig             # the [montecarlo] step controls
    mc: dict                   # x0, z0, record_dt, bins, hist_max,
                               # lambda_window
    bd: dict                   # lattice-prelimit settings
    seed: Optional[int]


def _read(cp, problems):
    """Every schema key's value (its default when absent or unparsable)."""
    values = {}
    for section in cp.sections():
        if section not in _SCHEMA:
            problems.append(f"[{section}]: unknown section")
            continue
        for key in cp.options(section):
            if key not in _SCHEMA[section]:
                problems.append(f"{section}.{key}: unknown key")
    for section, keys in _SCHEMA.items():
        values[section] = out = {}
        for key, (parse, default) in keys.items():
            out[key] = default
            if cp.has_option(section, key):
                try:
                    out[key] = parse(cp.get(section, key))
                except ValueError as exc:
                    problems.append(f"{section}.{key}: {exc}")
    return values


def _model(cp, m, problems):
    if not cp.has_section("model"):
        problems.append("[model]: section required")
        return None
    if m["preset"] is None:
        problems.append("model.preset: required")
        return None
    params = {_MODEL_PARAMS.get(key, key): raw for key, raw in m.items()
              if key not in ("kind", "preset") and raw is not None}
    try:
        return preset_model(m["preset"], m["kind"], params)
    except ConfigError as exc:
        problems.extend(exc.problems)
    except ModelError as exc:        # a parameter outside the model's range
        problems.append(f"model: {exc}")
    return None


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
    values = _read(cp, problems)
    model = _model(cp, values["model"], problems)

    # without a model there is no default box: the given fields are
    # checked inside a stand-in that passes every range rule
    base = (default_domain(model.drift) if model is not None
            else TruncationDomain(x_min=1e-3, x_max=4.0))
    domain = dataclasses.replace(base, **{
        key: value for key, value in values["domain"].items()
        if value is not None})
    mc = values["montecarlo"]
    seed = mc.pop("seed")
    if seed_override is not None:
        seed = int(seed_override)
    sim = SimConfig(seed=0 if seed is None else seed,
                    **{key: mc.pop(key) for key in _SIM_KEYS})
    for section, obj in (("domain", domain), ("montecarlo", sim)):
        problems.extend(f"{section}.{field}: {text}"
                        for field, text in obj.problems())

    bd = values["bd"]
    bd["params"] = {key: bd.pop(key) for key in ("lam", "mu", "c", "gamma")}
    bd["chain_params"] = {key: bd.pop("chain_" + key)
                          for key in ("lam", "mu", "c")}

    if problems:          # a model that could not be built is among them
        raise ConfigError(problems)

    if quick:
        # tenfold smoke-run reduction of the expensive sizes
        domain = dataclasses.replace(domain, n=max(256, domain.n // 10))
        sim = dataclasses.replace(sim, n_paths=max(1000, sim.n_paths // 10))
        bd["n_max"] = max(100, bd["n_max"] // 10)

    return RunConfig(model=model, domain=domain, K=values["spectral"]["k"],
                     sim=sim, mc=mc, bd=bd, seed=seed)


def require_seed(cfg: RunConfig, command) -> None:
    """Stochastic commands must not run on an implicit seed."""
    if command in _STOCHASTIC and cfg.seed is None:
        raise ConfigError(
            [f"montecarlo.seed: required for the {command} command "
             "(set it in the config or pass --seed)"])
