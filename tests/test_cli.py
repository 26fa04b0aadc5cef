"""End-to-end runs of the qsd command surface."""

import csv
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from qsdlab import montecarlo
from qsdlab.cli import _cap_threads, main
from qsdlab.errors import PreconditionError

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
    header, _ = _read_csv(out, "compare.csv")
    assert header[0] == "bin_lo"


def test_bd_quick(tmp_path):
    out = str(tmp_path / "out")
    assert main(["bd", _cfg("logistic"), "--output-dir", out,
                 "--quick"]) == 0
    header, rows = _read_csv(out, "scaling_ks.csv")
    assert header == ["N", "ks_distance", "n_reps"]
    ks = [float(r[1]) for r in rows]
    assert ks[-1] < 0.2
    header, rows = _read_csv(out, "s_criterion.csv")
    assert header == ["n", "pi_n", "S_partial", "A_partial"]
    with open(os.path.join(out, "run_report.json"), encoding="utf-8") as fh:
        rep = json.load(fh)
    assert rep["scalars"]["iii_iv_agree"] is True


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


def test_precondition_exit_three(tmp_path):
    # more modes than the grid can honestly resolve
    bad = _write(tmp_path, """
[model]
preset = logistic

[domain]
x_min = 0.001
x_max = 6
n = 64

[spectral]
k = 32
""")
    assert main(["spectrum", bad, "--output-dir",
                 str(tmp_path / "out")]) == 3


@pytest.mark.parametrize("error, code", [(RuntimeError, 5),
                                         (PreconditionError, 0)])
def test_only_a_refused_decay_rate_becomes_a_note(tmp_path, monkeypatch,
                                                 error, code):
    def estimate(batch, window):
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


def test_internal_error_writes_its_report(tmp_path, monkeypatch):
    def estimate(batch, window):
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


def test_reruns_are_byte_identical(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["spectrum", _cfg("logistic"), "--output-dir", out1,
                 "--quick"]) == 0
    assert main(["spectrum", _cfg("logistic"), "--output-dir", out2,
                 "--quick"]) == 0
    for name in ("spectrum.csv", "eigenfunctions.csv", "yaglom.csv"):
        with open(os.path.join(out1, name), "rb") as fh:
            b1 = fh.read()
        with open(os.path.join(out2, name), "rb") as fh:
            b2 = fh.read()
        assert b1 == b2, name


def test_thread_cap_does_not_change_output(tmp_path):
    # the env knob may only affect speed; outputs must match byte-for-byte
    outs = []
    for i, threads in enumerate(("1", "4")):
        out = str(tmp_path / f"t{i}")
        env = dict(os.environ, QSD_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        r = subprocess.run(
            [sys.executable, "-m", "qsdlab.cli", "spectrum",
             _cfg("logistic"), "--output-dir", out, "--quick"],
            env=env, capture_output=True, text=True, cwd=ROOT)
        assert r.returncode == 0, r.stderr
        outs.append(out)
    for name in ("spectrum.csv", "eigenfunctions.csv"):
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
