"""The CSV cell format of every artifact, and the run report's JSON."""

import csv
import hashlib
import json
import os

import numpy as np
import pytest

from qsdlab.report import _BLOCK, RunReport, write_csv


# the csv-module writer the row templates replaced, kept verbatim (with
# its helpers): every artifact must come out byte for byte as it wrote it
def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _cell_format(col):
    """A column's cell formatter, picked once from its dtype: floats at
    round-trip precision, integers and booleans as decimals, anything
    else as text (which the csv writer quotes where needed)."""
    if col.dtype.kind == "f":
        return "%.17g".__mod__
    if col.dtype.kind in "biu":
        return "%d".__mod__
    return str


def _reference_write_csv(path, header, columns):
    """Write one artifact from one equal-length 1-D column per header
    name, in blocks of _BLOCK rows; returns its content hash."""
    columns = [np.asarray(c) for c in columns]
    n = len(columns[0]) if columns else 0
    if len(columns) != len(header) or any(
            c.ndim != 1 or len(c) != n for c in columns):
        raise ValueError(f"{os.path.basename(path)}: expected "
                         f"{len(header)} 1-D columns of equal length")
    cells = [_cell_format(c) for c in columns]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for lo in range(0, n, _BLOCK):
            w.writerows(zip(*(map(f, c[lo:lo + _BLOCK].tolist())
                              for f, c in zip(cells, columns))))
    return file_sha256(path)


def _assert_as_reference(tmp_path, header, columns):
    new, ref = str(tmp_path / "new.csv"), str(tmp_path / "ref.csv")
    digest = write_csv(new, header, columns)
    assert digest == _reference_write_csv(ref, header, columns)
    with open(new, "rb") as fa, open(ref, "rb") as fb:
        data = fa.read()
        assert data == fb.read()
    assert digest == hashlib.sha256(data).hexdigest()
    return data


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


_FLOATS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324,
           1.7976931348623157e308, 0.1, -2.5e-310, 1.0 / 3.0]
_INTS = [np.iinfo(np.int64).min, np.iinfo(np.int64).max, -1, 0]
_UINTS = [2**63, 2**63 + 1, 2**64 - 1, 0]
_TEXT = ["a,b", 'say "hi"', "two\nlines", "car\rreturn", " leading",
         "naïve ∞ λ₁", "100%", "%d", "%s", "%.17g%%", ""]


@pytest.mark.parametrize("values,dtype", [
    (_FLOATS, np.float64), (_INTS, np.int64), (_UINTS, np.uint64),
    ([True, False, True, False], np.bool_), (_TEXT, None)],
    ids=["float", "int64", "uint64", "bool", "text"])
def test_cells_match_the_csv_module(tmp_path, values, dtype):
    col = np.array(values, dtype=dtype)
    idx = np.arange(len(col))
    for header, columns in ((("v",), [col]), (("i", "v"), [idx, col]),
                            (("v", "x"), [col, idx * 0.5])):
        _assert_as_reference(tmp_path, header, columns)


def test_mixed_table_and_odd_headers_match_the_csv_module(tmp_path):
    n = len(_TEXT)
    columns = [np.resize(np.array(_FLOATS), n),
               np.resize(np.array(_INTS, dtype=np.int64), n),
               np.resize(np.array(_UINTS, dtype=np.uint64), n),
               np.arange(n) % 2 == 0,
               np.array(_TEXT, dtype=object),
               tuple(_TEXT)]
    header = ("rate %", "a,b", "%d", 'q"uote', " x", "")
    _assert_as_reference(tmp_path, header, columns)


def test_one_empty_text_cell_is_quoted_alone(tmp_path):
    data = _assert_as_reference(tmp_path, ("t",), [["", "x", ""]])
    assert data == b't\n""\nx\n""\n'
    assert _assert_as_reference(tmp_path, ("",), [[""]]) == b'""\n""\n'
    assert _assert_as_reference(tmp_path, ("a", "b"), [[""], [""]]) \
        == b'a,b\n,\n'


@pytest.mark.parametrize("n", [0, 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
def test_block_edges_match_the_csv_module(tmp_path, n):
    x = np.random.default_rng(n).standard_normal(n) * 1e5
    text = [f"r{i}" + ("," if i % 3 == 0 else "") for i in range(n)]
    data = _assert_as_reference(
        tmp_path, ("k", "x", "flag", "label"),
        [np.arange(n), x, x > 0, np.array(text, dtype=str)])
    assert data.count(b"\n") == n + 1
    wide = [np.full(n, 0.1 * j) for j in range(66)]
    _assert_as_reference(tmp_path, [f"c{j}" for j in range(66)], wide)


def test_report_lists_bytes_written(tmp_path):
    rep = RunReport(command="spectrum", label="m")
    digest = rep.add_file(str(tmp_path), "a.csv", ("x", "t"),
                          [np.linspace(0, 1, 5), ["a"] * 5])
    size = os.path.getsize(tmp_path / "a.csv")
    assert json.loads(rep.to_json())["files"] == [
        {"name": "a.csv", "sha256": digest, "bytes": size}]
    assert size == len((tmp_path / "a.csv").read_bytes())
