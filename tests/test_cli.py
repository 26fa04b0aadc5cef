"""End-to-end runs of the qsd command surface."""

import argparse
import csv
import importlib
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from qsdlab import montecarlo
from qsdlab.cli import _cap_threads, _hist_edges, _parser, main
from qsdlab.config import load_config
from qsdlab.errors import PreconditionError
from qsdlab.spectral import build_and_solve, kernel_r

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
EXAMPLES = os.path.join(ROOT, "examples")


def _cfg(name):
    return os.path.join(EXAMPLES, name + ".cfg")


def _read_csv(out_dir, name):
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_spectrum_example_levels(tmp_path):
    out = str(tmp_path / "out")
    assert main(["spectrum", _cfg("ou"), "--output-dir", out]) == 0
    header, rows = _read_csv(out, "spectrum.csv")
    assert header == ["k", "lambda_k"]
    assert abs(float(rows[0][1]) - 1.0) < 1e-3
    assert abs(float(rows[1][1]) - 3.0) < 1e-3
    # companion outputs and the machine-readable report
    for name in ("eigenfunctions.csv", "yaglom.csv", "run_report.json"):
        assert os.path.exists(os.path.join(out, name))
    with open(os.path.join(out, "run_report.json"), encoding="utf-8") as fh:
        rep = json.load(fh)
    assert rep["status"] == "ok"
    assert abs(float(rep["scalars"]["lambda_1"]) - 1.0) < 1e-3


def test_check_writes_hypotheses_table(tmp_path):
    out = str(tmp_path / "out")
    assert main(["check", _cfg("logistic"), "--output-dir", out,
                 "--quick"]) == 0
    header, rows = _read_csv(out, "hypotheses.csv")
    assert header[0] == "hypothesis"
    assert [r[0] for r in rows] == ["h1", "h2", "h3", "h4", "h5", "hh"]
    assert all(r[1] == "holds" for r in rows)


def test_yaglom_scalars(tmp_path):
    out = str(tmp_path / "out")
    assert main(["yaglom", _cfg("logistic"), "--output-dir", out]) == 0
    with open(os.path.join(out, "run_report.json"), encoding="utf-8") as fh:
        rep = json.load(fh)
    assert float(rep["scalars"]["mass_norm"]) == pytest.approx(
        1.3510841754029088, rel=1e-6)
    assert float(rep["scalars"]["mean"]) == pytest.approx(
        1.760761342981613, rel=1e-6)
    header, rows = _read_csv(out, "yaglom.csv")
    assert header == ["x", "density", "cdf"]
    assert float(rows[-1][2]) == pytest.approx(1.0, abs=1e-9)


def test_kernel_slice_and_guard(tmp_path):
    out = str(tmp_path / "out")
    assert main(["kernel", _cfg("logistic"), "--output-dir", out,
                 "--t", "1.0", "--x", "1.0"]) == 0
    header, rows = _read_csv(out, "kernel_slice.csv")
    assert header == ["y", "kernel_vs_mu", "transition_density"]
    assert all(np.isfinite(float(r[1])) for r in rows[:50])
    # below the honest-time floor the run refuses with the numeric code
    assert main(["kernel", _cfg("logistic"), "--output-dir", out,
                 "--t", "0.01"]) == 4
    # a time that is not positive and finite is a precondition
    for t in ("0", "-1", "inf", "nan"):
        assert main(["kernel", _cfg("logistic"), "--output-dir", out,
                     "--t", t]) == 3
        assert _report(out)["failure"]["stage"] == "spectral solve"


def test_one_parser_serves_every_call(tmp_path, capsys):
    # the parser is built once per process: an option one call gives must
    # not carry into the next, and a bad option still exits 2
    out = str(tmp_path / "out")
    assert _parser() is _parser()
    assert main(["kernel", _cfg("logistic"), "--output-dir", out,
                 "--quick", "--t", "1.5"]) == 0
    assert _report(out)["scalars"]["t"] == 1.5
    assert main(["kernel", _cfg("logistic"), "--output-dir", out,
                 "--quick"]) == 0
    assert _report(out)["scalars"]["t"] == 1.0
    with pytest.raises(SystemExit) as exc:
        main(["kernel", _cfg("logistic"), "--output-dir", out, "--bogus"])
    assert exc.value.code == 2
    assert "--bogus" in capsys.readouterr().err


def test_parser_lists_the_eight_commands_in_order():
    sub = next(a for a in _parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert [(a.dest, a.help) for a in sub._choices_actions] == [
        ("check", "verify the integrability hypotheses"),
        ("spectrum", "solve the killed generator's eigenproblem"),
        ("yaglom", "compute the quasi-stationary profile"),
        ("kernel", "write one transition-kernel slice"),
        ("simulate", "run the absorbed path ensemble"),
        ("qprocess", "simulate the never-absorbed conditioned process"),
        ("bd", "lattice prelimit: scaling check and series criterion"),
        ("compare", "overlay spectral profile against simulation")]
    common = {"-h", "--help", "--output-dir", "--seed", "--quick"}
    for name, sp in sub.choices.items():
        options = {o for a in sp._actions for o in a.option_strings}
        assert options == common | ({"--t", "--x"} if name == "kernel"
                                    else set()), name


def test_simulate_quick(tmp_path):
    out = str(tmp_path / "out")
    assert main(["simulate", _cfg("logistic"), "--output-dir", out,
                 "--quick"]) == 0
    header, rows = _read_csv(out, "survival.csv")
    assert header == ["t", "n_alive", "fraction"]
    fracs = [float(r[2]) for r in rows]
    assert fracs[0] >= fracs[-1]
    header, rows = _read_csv(out, "conditional_hist.csv")
    assert header == ["bin_lo", "bin_hi", "mass", "stderr"]
    assert sum(float(r[2]) for r in rows) == pytest.approx(1.0, abs=1e-9)
    header, rows = _read_csv(out, "paths_summary.csv")
    assert header == ["path_id", "T0", "censored"]
    assert len(rows) == 10000   # quick tenfold cut of 100000


def test_qprocess_quick(tmp_path):
    out = str(tmp_path / "out")
    assert main(["qprocess", _cfg("logistic"), "--output-dir", out,
                 "--quick"]) == 0
    with open(os.path.join(out, "run_report.json"), encoding="utf-8") as fh:
        rep = json.load(fh)
    assert float(rep["scalars"]["ks_vs_stationary"]) < 0.05


def test_compare_quick(tmp_path):
    out = str(tmp_path / "out")
    assert main(["compare", _cfg("logistic"), "--output-dir", out,
                 "--quick"]) == 0
    with open(os.path.join(out, "run_report.json"), encoding="utf-8") as fh:
        rep = json.load(fh)
    assert float(rep["scalars"]["ks_distance"]) < 0.05
    assert float(rep["scalars"]["lambda1_rel_gap"]) < 0.05
    assert rep["scalars"]["landings"] > 0
    header, _ = _read_csv(out, "compare.csv")
    assert header[0] == "bin_lo"


def test_bd_quick(tmp_path):
    out = str(tmp_path / "out")
    assert main(["bd", _cfg("logistic"), "--output-dir", out,
                 "--quick"]) == 0
    header, rows = _read_csv(out, "scaling_ks.csv")
    assert header == ["N", "ks_distance", "M"]
    ks = [float(r[1]) for r in rows]
    assert ks[-1] < 0.2
    header, rows = _read_csv(out, "s_criterion.csv")
    assert header == ["n", "pi_n", "S_partial", "A_partial"]
    with open(os.path.join(out, "run_report.json"), encoding="utf-8") as fh:
        rep = json.load(fh)
    assert rep["scalars"]["iii_iv_agree"] is True
    assert not any("n_reps" in m for m in rep["messages"])
    # at t = 1 the diffusion reference keeps the levels with lambda <= 42,
    # well under its cap of 64
    assert rep["scalars"]["reference_levels"] == 9 < 64

    # the sampling-size key still parses, and the report says it does nothing
    with open(_cfg("logistic"), encoding="utf-8") as fh:
        text = fh.read().replace("[bd]\n", "[bd]\nn_reps = 10000\n")
    out = str(tmp_path / "out_reps")
    assert main(["bd", _write(tmp_path, text), "--output-dir", out,
                 "--quick"]) == 0
    with open(os.path.join(out, "run_report.json"), encoding="utf-8") as fh:
        rep = json.load(fh)
    assert any(m.startswith("bd.n_reps is ignored") for m in rep["messages"])


def test_config_errors_exit_two(tmp_path):
    out = str(tmp_path / "out")
    assert main(["spectrum", str(tmp_path / "missing.cfg"),
                 "--output-dir", out]) == 2
    bad = _write(tmp_path, """
[model]
preset = logistic
bogus = 1

[domain]
x_min = -2
""")
    assert main(["spectrum", bad, "--output-dir", out]) == 2
    # stochastic commands refuse to run unseeded
    noseed = _write(tmp_path, "[model]\npreset = logistic\n", "noseed.cfg")
    assert main(["simulate", noseed, "--output-dir", out]) == 2
    # but an explicit flag rescues the run
    assert main(["simulate", noseed, "--output-dir", out, "--seed", "1",
                 "--quick"]) == 0


def test_collective_violations_printed(tmp_path, capsys):
    bad = _write(tmp_path, """
[model]
preset = logistic
bogus = 1

[domain]
x_min = -2
""")
    main(["spectrum", bad, "--output-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert "model.bogus" in err
    assert "domain.x_min" in err


_TOO_MANY_LEVELS = """
[model]
preset = logistic

[domain]
x_min = 0.001
x_max = 6
n = 64

[spectral]
k = 32

[montecarlo]
seed = 1
"""


def test_precondition_exit_three(tmp_path):
    # more modes than the grid can honestly resolve
    bad = _write(tmp_path, _TOO_MANY_LEVELS)
    assert main(["spectrum", bad, "--output-dir",
                 str(tmp_path / "out")]) == 3


@pytest.mark.parametrize("command", ["yaglom", "kernel", "compare",
                                     "qprocess"])
def test_k_above_n_over_4_is_refused_by_every_spectral_command(tmp_path,
                                                                command):
    # also by the commands that solve fewer levels than the cap
    out = str(tmp_path / "out")
    assert main([command, _write(tmp_path, _TOO_MANY_LEVELS),
                 "--output-dir", out]) == 3
    failure = _report(out)["failure"]
    assert failure["stage"] == "spectral solve"
    assert failure["type"] == "PreconditionError"
    assert "n/4" in failure["message"]


@pytest.mark.parametrize("model", ["logistic", "linear"])
def test_kernel_sums_the_levels_that_weigh_at_t(tmp_path, model):
    out = str(tmp_path / "out")
    assert main(["kernel", _cfg(model), "--output-dir", out,
                 "--t", "1.5", "--x", "1.0"]) == 0
    sc = _report(out)["scalars"]
    _, rows = _read_csv(out, "kernel_slice.csv")
    density = np.array([float(r[2]) for r in rows])
    cfg = load_config(_cfg(model))
    full = build_and_solve(cfg.model.drift, cfg.domain, K=cfg.K)
    row = kernel_r(full, 1.5, [1.0], full.grid)[0]
    want = row * np.exp(-full.Qgrid)
    # the levels left out weigh below e^-42; what is left is the two
    # solves' own error
    assert np.max(np.abs(density - want)) <= 1e-6 * np.max(want)
    assert sc["survival_from_x"] == pytest.approx(row @ full.mu_weights,
                                                  rel=1e-6)
    assert sc["levels"] < cfg.K
    # t_min_K is the refusal threshold: the cap's, as spectrum reports it
    assert sc["t_min_K"] == pytest.approx(full.t_min(), rel=1e-6)


@pytest.mark.parametrize("error, code", [(RuntimeError, 5),
                                         (PreconditionError, 0)])
def test_only_a_refused_decay_rate_becomes_a_note(tmp_path, monkeypatch,
                                                 error, code):
    def estimate(batch, window, times=None):
        raise error("no decay rate")

    monkeypatch.setattr(montecarlo, "estimate_lambda1", estimate)
    cfg = _write(tmp_path, """
[model]
preset = ou
kind = drift

[montecarlo]
x0 = 1.0
dt = 0.01
t_max = 1.0
n_paths = 1000
seed = 1
""")
    out = str(tmp_path / "out")
    assert main(["simulate", cfg, "--output-dir", out, "--quick"]) == code
    if code == 0:
        with open(os.path.join(out, "run_report.json"),
                  encoding="utf-8") as fh:
            assert json.load(fh)["messages"] == [
                "decay-rate estimate unavailable: no decay rate"]


def _report(out_dir):
    with open(os.path.join(out_dir, "run_report.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def test_refused_run_writes_its_report(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["kernel", _cfg("logistic"), "--output-dir", out,
                 "--t", "0.01"]) == 4
    rep = _report(out)
    assert rep["status"] == "refused"
    assert rep["failure"]["stage"] == "kernel slice"
    assert rep["failure"]["type"] == "TailDominatedError"
    assert rep["failure"]["message"] in capsys.readouterr().err


# a failure inside a labelled stage is reported under that stage, in the
# report and on stderr; each library call is replaced by one that raises
@pytest.mark.parametrize("command, model, module, name, stage", [
    ("check", "logistic", "hypotheses", "check_all", "hypothesis checks"),
    ("simulate", "ou", "montecarlo", "simulate_x", "path simulation"),
    ("compare", "logistic", "montecarlo", "simulate_z", "path simulation"),
    ("qprocess", "ou", "montecarlo", "simulate_qprocess",
     "conditioned-path simulation"),
    ("bd", "logistic", "birthdeath", "scaling_limit_check", "scaling check"),
    ("bd", "logistic", "birthdeath", "s_criterion", "series criterion")])
def test_a_failure_is_reported_under_its_stage(tmp_path, monkeypatch, capsys,
                                               command, model, module, name,
                                               stage):
    def fail(*args, **kwargs):
        raise PreconditionError(f"forced in {name}")

    monkeypatch.setattr(importlib.import_module(f"qsdlab.{module}"), name,
                        fail)
    out = str(tmp_path / "out")
    assert main([command, _cfg(model), "--output-dir", out, "--quick"]) == 3
    rep = _report(out)
    assert rep["status"] == "refused"
    assert rep["failure"] == {"stage": stage, "type": "PreconditionError",
                              "message": f"forced in {name}"}
    assert (f"error [{stage}]: PreconditionError: forced in {name}"
            in capsys.readouterr().err)


def test_bd_below_t_min_asks_for_a_later_time(tmp_path, capsys):
    # C11's family at t = 0.01: the diffusion reference's K is fixed, so
    # the refusal may only ask for a later t
    with open(_cfg("logistic"), encoding="utf-8") as fh:
        text = fh.read()
    text = text.replace("lam = 2.0", "lam = 1.0").replace(
        "t = 1.0", "t = 0.01")
    out = str(tmp_path / "out")
    assert main(["bd", _write(tmp_path, text), "--output-dir", out,
                 "--quick"]) == 4
    failure = _report(out)["failure"]
    assert failure["type"] == "TailDominatedError"
    assert "t_min" in failure["message"]
    assert "increase K" not in failure["message"]
    assert failure["message"] in capsys.readouterr().err


def test_a_box_too_long_for_eta_is_refused_only_where_eta_is_read(tmp_path):
    # at x_max = 24, exp(Q/2) psi overflows far up the potential: the
    # commands that never read eta run, and those that write eta on every
    # node (eigenfunctions.csv, every y of a kernel slice) still refuse
    with open(_cfg("logistic"), encoding="utf-8") as fh:
        text = fh.read()
    cfg = _write(tmp_path, text.replace("x_max = 6.0 ", "x_max = 24.0 "))
    for command, code in (("yaglom", 0), ("compare", 0), ("qprocess", 0),
                          ("spectrum", 4), ("kernel", 4)):
        out = str(tmp_path / command)
        assert main([command, cfg, "--quick", "--output-dir", out]) == code
        if code:
            failure = _report(out)["failure"]
            assert failure["type"] == "TruncationError"
            assert "overflowed while unweighting" in failure["message"]
            # the stage that formed eta, not the command or the solve
            assert failure["stage"] == {"spectrum": "eigenfunction table",
                                        "kernel": "kernel slice"}[command]


def test_path_event_scalars(tmp_path):
    # the report counts the steps that ended a path, and the reflections
    for command in ("simulate", "qprocess"):
        out = str(tmp_path / command)
        assert main([command, _cfg("ou"), "--output-dir", out,
                     "--quick"]) == 0
        sc = _report(out)["scalars"]
        absorbed = (sc["landings"] + sc["non_finite_steps"]
                    + sc["crossing_kills"])
        _, rows = _read_csv(out, "paths_summary.csv")
        assert absorbed == sum(row[2] == "0" for row in rows)
        if command == "qprocess":
            assert absorbed == 0 and sc["reflections"] > 0
        else:
            assert sc["landings"] > 0 and sc["crossing_kills"] > 0
            assert sc["reflections"] == 0


@pytest.mark.parametrize("record_dt", [None, 0.05])
def test_path_commands_hold_only_the_final_snapshot(tmp_path, monkeypatch,
                                                    record_dt):
    # a path command holds T0 and the final states alone, and what it
    # writes is a direct library run read on survival_grid: record_dt sets
    # that grid and nothing else
    runs = (("simulate", "ou"), ("compare", "logistic"), ("qprocess", "ou"))
    cfgs, lib = {}, {}
    for command, model in runs:
        with open(_cfg(model), encoding="utf-8") as fh:
            text = fh.read()
        if record_dt is not None:
            text = text.replace("[montecarlo]\n",
                                f"[montecarlo]\nrecord_dt = {record_dt}\n")
        path = cfgs[command] = _write(tmp_path, text, f"{command}.cfg")
        cfg = load_config(path, quick=True)
        assert cfg.mc["record_dt"] == record_dt
        times = montecarlo.survival_grid(cfg.sim, record_dt)
        assert times[0] == 0.0 and times[-1] == cfg.sim.n_steps * cfg.sim.dt
        if record_dt is not None:
            assert np.allclose(np.diff(times), record_dt)
        if command == "qprocess":
            sd = build_and_solve(cfg.model.drift, cfg.domain, K=1)
            with pytest.warns(UserWarning, match="reflected"):
                b = montecarlo.simulate_qprocess(cfg.model.drift, sd,
                                                 cfg.mc["x0"], cfg.sim)
            edges = np.linspace(sd.domain.x_min, sd.domain.x_max,
                                cfg.mc["bins"] + 1)
        elif cfg.model.kind == "growth":
            b = montecarlo.simulate_z(cfg.model.growth, cfg.mc["z0"], cfg.sim)
            edges = _hist_edges(cfg)
        else:
            b = montecarlo.simulate_x(cfg.model.drift, cfg.mc["x0"], cfg.sim)
            edges = _hist_edges(cfg)
        law = montecarlo.conditional_histogram(b, edges)
        est = (None if command == "qprocess" else
               montecarlo.estimate_lambda1(b, cfg.mc["lambda_window"], times))
        lib[command] = b, times, law, est

    held = []
    for name in ("simulate_x", "simulate_qprocess"):
        def keep(*args, _run=getattr(montecarlo, name), **kwargs):
            held.append(_run(*args, **kwargs))
            return held[-1]
        monkeypatch.setattr(montecarlo, name, keep)
    for command, _ in runs:
        out = str(tmp_path / command)
        assert main([command, cfgs[command], "--output-dir", out,
                     "--quick"]) == 0
        b, times, law, est = lib[command]
        assert held[-1].states.shape == (b.n_paths,)
        assert np.array_equal(held[-1].T0, b.T0)
        sc = _report(out)["scalars"]
        if command == "compare":
            _, rows = _read_csv(out, "compare.csv")
            masses = np.array(rows, dtype=float)[:, 2:4].T
            assert sc["lambda1_mc"] == est.rate
            assert sc["lambda1_mc_stderr"] == est.stderr
        else:
            _, rows = _read_csv(out, "paths_summary.csv")
            assert np.array_equal(np.array(rows, dtype=float)[:, 1], b.T0)
            _, rows = _read_csv(out, "survival.csv")
            t, n_alive, frac = np.array(rows, dtype=float).T
            assert np.array_equal(t, times)
            assert np.array_equal(
                n_alive, [np.count_nonzero(b.T0 > ti) for ti in times])
            assert np.array_equal(frac, b.survival(times))
            _, rows = _read_csv(out, "conditional_hist.csv")
            masses = np.array(rows, dtype=float)[:, 2:4].T
        assert np.array_equal(masses, [law.masses, law.stderr])
        if command == "simulate":
            assert sc["lambda1_hat"] == est.rate
            assert sc["lambda1_stderr"] == est.stderr
        assert sc.get("survivors_at_t_max", law.n_survivors) \
            == law.n_survivors


def test_internal_error_writes_its_report(tmp_path, monkeypatch):
    def estimate(batch, window, times=None):
        raise RuntimeError("no decay rate")

    monkeypatch.setattr(montecarlo, "estimate_lambda1", estimate)
    cfg = _write(tmp_path, """
[model]
preset = ou
kind = drift

[montecarlo]
x0 = 1.0
dt = 0.01
t_max = 1.0
n_paths = 1000
seed = 1
""")
    out = str(tmp_path / "out")
    assert main(["simulate", cfg, "--output-dir", out, "--quick"]) == 5
    rep = _report(out)
    assert rep["status"] == "error"
    assert rep["failure"] == {"stage": "simulate", "type": "RuntimeError",
                              "message": "no decay rate"}
    # the artifacts written before the failure are in the manifest
    assert [f["name"] for f in rep["files"]] == [
        "paths_summary.csv", "survival.csv", "conditional_hist.csv"]


def test_warnings_reach_the_report(tmp_path, capsys):
    messages = []
    for i in range(2):     # a repeated warning is recorded again
        out = str(tmp_path / f"q{i}")
        assert main(["qprocess", _cfg("ou"), "--output-dir", out,
                     "--quick"]) == 0
        messages.append(_report(out)["messages"])
    assert messages[0] == messages[1]
    assert len(messages[0]) == 1
    assert re.fullmatch(r"UserWarning: [1-9]\d* excursions were reflected "
                        r"at the spectral-grid edges", messages[0][0])
    assert "note: " + messages[0][0] in capsys.readouterr().out


@pytest.mark.parametrize("command", ["spectrum", "qprocess"])
def test_no_cell_falls_back_to_python_formatting(tmp_path, command):
    out = str(tmp_path / "out")
    assert main([command, _cfg("ou"), "--output-dir", out, "--quick"]) == 0
    files = _report(out)["files"]
    assert files and all(f["fallback_cells"] == 0 for f in files)


def test_reruns_are_byte_identical(tmp_path):
    # the lattice and diffusion paths are sampled: their reruns must agree
    # too
    runs = (("spectrum", "logistic"), ("bd", "logistic"),
            ("simulate", "ou"), ("compare", "logistic"), ("qprocess", "ou"))
    for rerun in ("a", "b"):
        for command, model in runs:
            assert main([command, _cfg(model), "--output-dir",
                         str(tmp_path / rerun / command), "--quick"]) == 0
    names = set()
    for command, _ in runs:
        first, second = tmp_path / "a" / command, tmp_path / "b" / command
        csvs = sorted(p.name for p in first.glob("*.csv"))
        assert csvs == sorted(p.name for p in second.glob("*.csv"))
        for name in csvs:
            same = (first / name).read_bytes() == (second / name).read_bytes()
            assert same, (command, name)
        names.update(csvs)
    assert {"spectrum.csv", "eigenfunctions.csv", "yaglom.csv",
            "scaling_ks.csv", "bd_paths.csv", "s_criterion.csv",
            "paths_summary.csv", "survival.csv", "conditional_hist.csv",
            "compare.csv"} <= names


def test_thread_cap_does_not_change_output(tmp_path):
    # the env knob may only affect speed; outputs must match byte-for-byte
    outs = []
    for i, threads in enumerate(("1", "4")):
        out = str(tmp_path / f"t{i}")
        env = dict(os.environ, QSD_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        for args in (("spectrum", _cfg("logistic"), "--quick"),
                     ("check", _cfg("logistic")),
                     ("qprocess", _cfg("ou"), "--quick")):
            r = subprocess.run(
                [sys.executable, "-m", "qsdlab.cli", *args,
                 "--output-dir", out],
                env=env, capture_output=True, text=True, cwd=ROOT)
            assert r.returncode == 0, r.stderr
        outs.append(out)
    for name in ("spectrum.csv", "eigenfunctions.csv", "hypotheses.csv",
                 "paths_summary.csv", "survival.csv",
                 "conditional_hist.csv"):
        with open(os.path.join(outs[0], name), "rb") as fh:
            b1 = fh.read()
        with open(os.path.join(outs[1], name), "rb") as fh:
            b2 = fh.read()
        assert b1 == b2, name


def test_thread_cap_overrides_preset_pools(monkeypatch):
    pools = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
    for var in pools:
        monkeypatch.setenv(var, "8")
    monkeypatch.setenv("QSD_NUM_THREADS", "1")
    _cap_threads()
    assert [os.environ[var] for var in pools] == ["1"] * len(pools)


@pytest.mark.parametrize("value", ["four", "0", "-2", "1.5"])
def test_thread_cap_must_be_a_positive_integer(monkeypatch, tmp_path, capsys,
                                               value):
    monkeypatch.setenv("QSD_NUM_THREADS", value)
    assert main(["spectrum", _cfg("ou"), "--output-dir",
                 str(tmp_path / "out"), "--quick"]) == 2
    err = capsys.readouterr().err
    assert "configuration errors" in err and "QSD_NUM_THREADS" in err


def test_run_report_records_thread_cap(monkeypatch, tmp_path):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        monkeypatch.setenv(var, "8")     # restored when the test ends
    for value, cap in (("", None), ("2", 2)):
        monkeypatch.setenv("QSD_NUM_THREADS", value)
        out = str(tmp_path / f"cap{value}")
        assert main(["spectrum", _cfg("ou"), "--output-dir", out,
                     "--quick"]) == 0
        with open(os.path.join(out, "run_report.json"),
                  encoding="utf-8") as fh:
            assert json.load(fh)["thread_cap"] == cap


def _cli_import_loads(module):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    r = subprocess.run(
        [sys.executable, "-c",
         f"import sys, qsdlab.cli; sys.exit({module!r} in sys.modules)"],
        env=env, capture_output=True, text=True, cwd=ROOT)
    assert r.returncode in (0, 1), r.stderr
    return r.returncode == 1


def test_cli_import_leaves_numpy_unloaded():
    # the package resolves its exports at first access, so QSD_NUM_THREADS
    # still caps the thread pools when main() runs
    assert not _cli_import_loads("numpy")


def test_package_import_leaves_scipy_integrate_unloaded():
    # every integral is marched on the package's own Gauss-Legendre
    # panels, so start-up does not pay for scipy.integrate
    assert not _cli_import_loads("scipy.integrate")


def test_package_import_leaves_scipy_interpolate_unloaded():
    # the conditioned drift's PCHIP is the one use: only qprocess loads it
    assert not _cli_import_loads("scipy.interpolate")


def test_package_import_leaves_scipy_optimize_unloaded():
    # the curvature floor's golden search is the one use, at C's first
    # read: only check and the kernel bounds load it
    assert not _cli_import_loads("scipy.optimize")


def test_bd_builds_its_drifts_without_the_curvature_floor(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    r = subprocess.run(
        [sys.executable, "-c",
         "import sys, qsdlab.cli as c; sys.exit(c.main(['bd', "
         f"'examples/logistic.cfg', '--quick', '--output-dir', "
         f"{str(tmp_path)!r}]) or 'scipy.optimize' in sys.modules)"],
        env=env, capture_output=True, text=True, cwd=ROOT)
    assert r.returncode == 0, r.stderr
