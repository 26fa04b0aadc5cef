"""The CSV cell format of every artifact, and the run report's JSON."""

import json

import numpy as np
import pytest

from qsdlab.report import _BLOCK, RunReport, write_csv


def test_cell_format_is_pinned(tmp_path):
    path = str(tmp_path / "cells.csv")
    write_csv(path, ("f", "i", "b", "t"),
              [np.array([0.1, -0.0, 1e-300, np.inf, np.nan]),
               np.array([0, -7, 2**62, 42, 1], dtype=np.int64),
               np.array([True, False, False, True, False]),
               ["plain", "a,b", 'say "hi"', "two\nlines", ""]])
    with open(path, "rb") as fh:
        assert fh.read() == (
            b'f,i,b,t\n'
            b'0.10000000000000001,0,1,plain\n'
            b'-0,-7,0,"a,b"\n'
            b'1e-300,4611686018427387904,0,"say ""hi"""\n'
            b'inf,42,1,"two\nlines"\n'
            b'nan,1,0,\n')


def test_rows_span_blocks_in_order(tmp_path):
    path = str(tmp_path / "long.csv")
    n = 2 * _BLOCK + 3
    x = np.linspace(0.0, 1.0, n)
    write_csv(path, ("k", "x"), [np.arange(n), x])
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    assert lines[0] == "k,x"
    assert lines[1:-1] == ["%d,%.17g" % kv for kv in enumerate(x.tolist())]
    assert lines[-1] == ""


def test_columns_must_match_the_header(tmp_path):
    path = str(tmp_path / "bad.csv")
    with pytest.raises(ValueError):
        write_csv(path, ("a", "b"), [np.zeros(3)])
    with pytest.raises(ValueError):
        write_csv(path, ("a", "b"), [np.zeros(3), np.zeros(4)])


def test_report_is_strict_json():
    rep = RunReport(command="spectrum", label="m", scalars={
        "a": np.inf, "b": float("nan"), "c": 1.5, "d": True})

    def refuse(name):
        raise ValueError(f"non-standard constant {name}")

    payload = json.loads(rep.to_json(), parse_constant=refuse)
    assert payload["scalars"] == {"a": None, "b": None, "c": 1.5, "d": True}
    assert payload["messages"] == ["scalar a is inf; written as null",
                                   "scalar b is nan; written as null"]
    assert rep.scalars["a"] == np.inf      # the report itself is unchanged
