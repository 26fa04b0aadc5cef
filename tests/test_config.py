"""INI surface: collective validation, smoke scaling, seed policy."""

import dataclasses
import os

import numpy as np
import pytest

from qsdlab import ConfigError, default_domain, load_config
from qsdlab.cli import main
from qsdlab.config import require_seed
from qsdlab.model import (allee_growth, drift_from_growth, linear_growth,
                          logistic_growth, ou_drift)

EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "examples")


def _write(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_shipped_examples_parse():
    for name in ("logistic", "ou", "linear", "allee"):
        cfg = load_config(os.path.join(EXAMPLES, name + ".cfg"))
        assert cfg.model is not None
        assert cfg.K >= 2


def test_missing_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError) as exc:
        load_config(str(tmp_path / "absent.cfg"))
    assert "not found" in exc.value.problems[0]


def test_every_violation_is_listed(tmp_path):
    path = _write(tmp_path, """
[model]
preset = logistic
bogus = 1

[domain]
x_min = -2
n = 4

[montecarlo]
dt = -1
""")
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    text = "\n".join(exc.value.problems)
    assert "model.bogus" in text
    assert "domain.x_min" in text
    assert "domain.n" in text
    assert "montecarlo.dt" in text


def test_unknown_section_flagged(tmp_path):
    path = _write(tmp_path, """
[model]
preset = ou
kind = drift

[extras]
foo = 1

[run]
commands = check, spectrum
""")
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert any("[extras]" in p for p in exc.value.problems)
    assert any("[run]" in p for p in exc.value.problems)


def test_quick_scales_the_expensive_sizes(tmp_path):
    path = _write(tmp_path, """
[model]
preset = logistic

[domain]
x_min = 0.001
x_max = 6
n = 4096

[montecarlo]
n_paths = 100000
seed = 1

[bd]
n_reps = 10000
n_max = 10000
""")
    cfg = load_config(path, quick=True)
    assert cfg.domain.n == 409
    assert cfg.sim.n_paths == 10000
    assert cfg.bd["n_max"] == 1000
    full = load_config(path)
    assert full.domain.n == 4096 and full.sim.n_paths == 100000


def test_quick_shrinks_the_default_grid(tmp_path):
    path = _write(tmp_path, """
[model]
preset = logistic
""")
    full = load_config(path)
    base = default_domain(full.model.drift)
    assert full.domain == base
    quick = load_config(path, quick=True)
    assert quick.domain == dataclasses.replace(base,
                                               n=max(256, base.n // 10))
    assert quick.domain.n < base.n


def test_seed_policy(tmp_path):
    path = _write(tmp_path, """
[model]
preset = logistic
""")
    cfg = load_config(path)
    assert cfg.seed is None
    for command in ("simulate", "qprocess", "bd", "compare"):
        with pytest.raises(ConfigError):
            require_seed(cfg, command)
    for command in ("check", "spectrum", "yaglom", "kernel"):
        require_seed(cfg, command)
    assert load_config(path, seed_override=7).seed == 7

    seeded = _write(tmp_path, """
[model]
preset = logistic

[montecarlo]
seed = 42
""")
    cfg2 = load_config(seeded)
    assert cfg2.seed == 42
    require_seed(cfg2, "simulate")
    # an explicit override beats the file
    assert load_config(seeded, seed_override=3).seed == 3


def test_sim_config_and_start_state(tmp_path):
    path = _write(tmp_path, """
[model]
preset = logistic

[montecarlo]
x0 = 1.5
z0 = 0.75
dt = 0.002
t_max = 3
n_paths = 1234
seed = 8
lambda_window = 1, 3
""")
    cfg = load_config(path)
    sc = cfg.sim
    assert (sc.dt, sc.t_max, sc.n_paths, sc.seed) == (0.002, 3.0, 1234, 8)
    assert cfg.mc["lambda_window"] == (1.0, 3.0)
    assert (cfg.mc["x0"], cfg.mc["z0"]) == (1.5, 0.75)


def test_bad_lambda_window(tmp_path):
    path = _write(tmp_path, """
[model]
preset = logistic

[montecarlo]
lambda_window = 6, 2
""")
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert any("lambda_window" in p for p in exc.value.problems)


def test_custom_expression_through_ini(tmp_path):
    path = _write(tmp_path, """
[model]
preset = custom
kind = growth
expression = 2*z - z^2
gamma = 1
""")
    cfg = load_config(path)
    assert cfg.model.growth is not None
    assert cfg.model.growth.h(1.0) == pytest.approx(1.0)
    assert cfg.model.growth.h(2.0) == pytest.approx(0.0)


# every preset parameter a config gives reaches the model, K0 and K in
# either case; an absent one takes the preset's default
@pytest.mark.parametrize("preset, given, label, ref", [
    ("ou", {"theta": 2.5}, "ou(theta=2.5)", lambda: ou_drift(2.5)),
    ("ou", {}, "ou(theta=1)", lambda: ou_drift(1.0)),
    ("logistic", {"r": 1.5, "c": 0.5, "gamma": 2},
     "logistic(r=1.5,c=0.5,gamma=2)", lambda: logistic_growth(1.5, 0.5, 2.0)),
    ("logistic", {}, "logistic(r=1,c=1,gamma=1)",
     lambda: logistic_growth(1.0, 1.0, 1.0)),
    ("linear", {"r": -0.5, "gamma": 0.5}, "linear(r=-0.5,gamma=0.5)",
     lambda: linear_growth(-0.5, 0.5)),
    ("allee", {"r": 2, "k0": 0.5, "k": 4, "gamma": 1.5},
     "allee(r=2,K0=0.5,K=4,gamma=1.5)",
     lambda: allee_growth(2.0, 0.5, 4.0, 1.5)),
    ("allee", {"K0": 0.25, "K": 8}, "allee(r=1,K0=0.25,K=8,gamma=1)",
     lambda: allee_growth(1.0, 0.25, 8.0, 1.0)),
    ("allee", {}, "allee(r=1,K0=1,K=10,gamma=1)",
     lambda: allee_growth(1.0, 1.0, 10.0, 1.0))])
def test_every_preset_parameter_reaches_the_model(tmp_path, preset, given,
                                                  label, ref):
    kind = "drift" if preset == "ou" else "growth"
    lines = "".join(f"{key} = {value}\n" for key, value in given.items())
    model = load_config(_write(tmp_path, f"""
[model]
preset = {preset}
kind = {kind}
{lines}""")).model
    assert model.label == label
    xs = np.linspace(0.2, 3.0, 15)
    if kind == "drift":
        assert np.array_equal(model.drift.q(xs), ref().q(xs))
        assert model.drift.C == ref().C
        return
    zs = np.linspace(0.0, 5.0, 21)
    assert np.array_equal(model.growth.h(zs), ref().h(zs))
    assert model.growth.gamma == ref().gamma
    # the closed-form potential against the one integrated from h
    assert np.allclose(model.drift.Q(xs), drift_from_growth(ref()).Q(xs),
                       rtol=1e-8, atol=1e-10)


def test_custom_expression_reads_preset_parameters(tmp_path):
    drift = load_config(_write(tmp_path, """
[model]
preset = custom
kind = drift
expression = theta*x
theta = 2.5
""")).model.drift
    assert drift.q(2.0) == 5.0
    growth = load_config(_write(tmp_path, """
[model]
preset = custom
kind = growth
expression = r*z*(z/K0 - 1)*(1 - z/K)
r = 2
k0 = 0.5
k = 4
""")).model.growth
    assert growth.h(2.0) == pytest.approx(2.0 * 2.0 * 3.0 * 0.5)


# step controls that used to pass the config and stop the run later
OUT_OF_RANGE = [("absorb_threshold", "-1"), ("record_dt", "0"),
                ("t_max", "0.0005"), ("hist_max", "-1"), ("t_max", "inf"),
                ("record_dt", "inf"), ("hist_max", "inf")]


def _montecarlo(tmp_path, key, value):
    return _write(tmp_path, f"""
[model]
preset = logistic

[montecarlo]
seed = 1
{key} = {value}
""")


@pytest.mark.parametrize("key, value", OUT_OF_RANGE)
def test_out_of_range_step_control_is_a_config_error(tmp_path, key, value):
    with pytest.raises(ConfigError) as exc:
        load_config(_montecarlo(tmp_path, key, value))
    assert any(p.startswith(f"montecarlo.{key}:") for p in exc.value.problems)


@pytest.mark.parametrize("key, value", OUT_OF_RANGE)
def test_out_of_range_step_control_exits_two_before_any_work(tmp_path, key,
                                                              value):
    out = tmp_path / "out"
    assert main(["simulate", _montecarlo(tmp_path, key, value),
                 "--output-dir", str(out), "--quick"]) == 2
    assert not out.exists()


# step controls that are no longer settable: a config that still sets one
# is refused, not run with the setting ignored
REMOVED = [("crn_substeps", "2"), ("block_size", "7"),
           ("bridge_correction", "false")]


@pytest.mark.parametrize("key, value", REMOVED)
def test_removed_step_control_is_refused(tmp_path, key, value):
    path = _montecarlo(tmp_path, key, value)
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert exc.value.problems == [f"montecarlo.{key}: unknown key"]
    out = tmp_path / "out"
    assert main(["simulate", path, "--output-dir", str(out), "--quick"]) == 2
    assert not out.exists()


# lattice settings that used to stop the run only after work and artifacts
BD_OUT_OF_RANGE = [(key, "-1") for key in ("lam", "mu", "c", "chain_lam",
                                           "chain_mu", "chain_c")] + [
    ("gamma", "0"), ("gamma", "-1"), ("t", "0"), ("t", "-1"), ("t", "inf"),
    ("z0", "nan"), ("z0", "inf"), ("z0", "-1"), ("lam", "inf"),
    ("chain_mu", "inf"), ("n_list", "0, 10")]


@pytest.mark.parametrize("key, value", BD_OUT_OF_RANGE)
def test_out_of_range_bd_value_exits_two_before_any_work(tmp_path, key,
                                                         value):
    out = tmp_path / "out"
    path = _write(tmp_path, f"""
[model]
preset = logistic

[montecarlo]
seed = 1

[bd]
{key} = {value}
""")
    assert main(["bd", path, "--output-dir", str(out), "--quick"]) == 2
    assert not out.exists()


def test_domain_checked_without_a_model(tmp_path):
    path = _write(tmp_path, """
[model]
preset = nosuch

[domain]
x_min = -2
""")
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    text = "\n".join(exc.value.problems)
    assert "model.preset" in text
    assert "domain.x_min" in text


def test_model_parameter_out_of_range_is_a_config_error(tmp_path):
    path = _write(tmp_path, """
[model]
preset = ou
kind = drift
theta = -1
""")
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert exc.value.problems == ["model: theta must be positive"]
