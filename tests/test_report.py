"""The CSV cell format of every artifact, and the run report's JSON."""

import csv
import hashlib
import json
import os

import numpy as np
import pytest

from qsdlab.report import _BLOCK_CELLS as _BLOCK, RunReport, write_csv


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
    # a subnormal, a value past the fast range, a rounding tie where
    # 10**(16 - E) is not a double (so the scaled product is not exact)
    # and an int beyond 2**53 are formatted by Python, and counted; an
    # exact tie is settled in NumPy
    odd = rep.add_file(str(tmp_path), "b.csv", ("x", "i"),
                       [[5e-324, 1e300, 3 * 2.0**-24, 1 + 3 * 2.0**-17],
                        np.array([2**60, 1, 2, 3], dtype=np.int64)])
    assert json.loads(rep.to_json())["files"] == [
        {"name": "a.csv", "sha256": digest, "bytes": size,
         "fallback_cells": 0},
        {"name": "b.csv", "sha256": odd,
         "bytes": os.path.getsize(tmp_path / "b.csv"), "fallback_cells": 4}]
    assert size == len((tmp_path / "a.csv").read_bytes())


def _python_cells(values, fmt):
    return "".join(fmt % x + "\n" for x in values.tolist()).encode()


def _ties(rng, e, count=200):
    """Exact ties of the 17th digit in decade e: a = q 2**(e - 17) with
    q odd, so a * 10**(16 - e) = q 5**(16 - e) / 2."""
    q = 2.0 * np.floor(rng.uniform(10.0**e, 10.0**(e + 1), count)
                       * 2.0**(16 - e)) + 1.0
    return q[q < 2.0**53] * 2.0**(e - 17)


def test_cells_match_python_formatting(tmp_path):
    """Every float comes out as '%.17g' and every int as '%d' writes
    it, on inputs that probe the digit kernel's rounding and range."""
    path = str(tmp_path / "cells.csv")
    rng = np.random.default_rng(20071)
    bits = rng.integers(0, 2**64, size=10**6, dtype=np.uint64)
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    fast_edges = np.array([1e-280, 1e280])
    floats = {
        "bit patterns": bits.view(np.float64),      # both signs already
        "powers of two": 2.0 ** np.arange(-1074, 1024),
        "powers of ten": np.concatenate(
            [tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf)]),
        "ties 1 + j 2**-17": 1 + np.arange(1, 2**17, 2) * 2.0**-17,
        "ties q 2**(E - 17)": np.concatenate([_ties(rng, e)
                                              for e in range(-6, 16)]),
        "tie in an eigenfunction": np.array([420190845569.390625]),
        "specials": np.array(
            [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324,
             -5e-324, 2.2250738585072009e-308, 1.5e-310,
             *fast_edges, *np.nextafter(fast_edges, 0),
             *np.nextafter(fast_edges, np.inf)]),
    }
    for name, x in floats.items():
        if name != "bit patterns":
            x = np.concatenate([x, -x])
        digest = write_csv(path, ("x",), [x])
        with open(path, "rb") as fh:
            assert fh.read() == b"x\n" + _python_cells(x, "%.17g"), name
        if name.startswith("tie"):
            # exact ties are settled half to even in NumPy
            assert digest.fallback_cells == 0, name
    near = np.arange(-300, 301)
    ints = np.concatenate([sign * (base + near) for base in
                           (2**53, 10**16, 10**17) for sign in (1, -1)])
    for col in (ints, ints[ints > 0].astype(np.uint64),
                np.array([0, 1, -1, 2**63 - 1, -2**63], dtype=np.int64),
                np.array([0, 2**64 - 1], dtype=np.uint64)):
        write_csv(path, ("i",), [col])
        with open(path, "rb") as fh:
            assert fh.read() == b"i\n" + _python_cells(col, "%d")


def _cell_rows(ncols):
    """Row counts that put a table's cells one row short of a block, at
    a block, one row past it, and three rows past two blocks."""
    rows = _BLOCK // ncols
    return [(ncols, n) for n in (rows - 1, rows, rows + 1, 2 * rows + 3)]


@pytest.mark.parametrize("ncols,n", _cell_rows(4) + _cell_rows(66))
def test_cell_blocks_match_the_csv_module(tmp_path, ncols, n):
    rng = np.random.default_rng(n)
    cols = [rng.standard_normal(n) * 10.0 ** rng.integers(-9, 20, n)
            for _ in range(ncols - 1)]
    cols.append(np.arange(n) - n // 2)
    data = _assert_as_reference(tmp_path, [f"c{j}" for j in range(ncols)],
                                cols)
    assert data.count(b"\n") == n + 1


def test_mixed_kinds_across_blocks_match_the_csv_module(tmp_path):
    n = 2 * (_BLOCK // 7) + 3
    i = np.arange(n)
    x = np.where(i % 5 == 0, 0.0, np.where(i % 5 == 1, -0.0, i * 0.1))
    x[i % 11 == 0] = np.inf
    x[i % 13 == 0] = np.nan
    x[i % 17 == 0] = -np.inf
    text = np.array([f'r"{k}",' if k % 3 else "" for k in range(n)],
                    dtype=object)
    _assert_as_reference(tmp_path, ("x", "big", "u", "flag", "t", "y", "k"),
                         [x, np.where(i % 2 == 0, 2**53 + i, i - 5),
                          np.where(i % 3 == 0, np.uint64(2**64 - 1),
                                   np.uint64(7)),
                          i % 2 == 0, text, -x, i])


# one pool of awkward floats: signed zeros, specials, subnormals, the
# edges of the fast range, near-ties of the 17th digit (10**(16 - E) not
# a double) and integer-valued floats
_AWKWARD = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
     2.2250738585072009e-308, -1.5e-310, 1e-280, -1e280,
     *np.nextafter([1e-280, 1e280], 0), *np.nextafter([1e-280, 1e280], 2e280),
     3 * 2.0**-24, -(1 + 3 * 2.0**-17), 420190845569.390625,
     1.0, -42.0, 2.0**53, -2.0**53 - 2, 1e16, 1e17, 123456789012345678.0])


@pytest.mark.parametrize("n", [_BLOCK // 66 - 1, _BLOCK // 66,
                               _BLOCK // 66 + 1])
def test_all_float_table_at_a_block_edge_matches_the_csv_module(tmp_path, n):
    rng = np.random.default_rng(n)
    cols = []
    for j in range(66):
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        pick = rng.random(n) < 0.3
        x[pick] = rng.choice(_AWKWARD, int(pick.sum()))
        cols.append(x)
    header = [f"c{j}" for j in range(66)]
    _assert_as_reference(tmp_path, header, cols)
    assert write_csv(str(tmp_path / "again.csv"), header,
                     cols).fallback_cells > 0


def test_control_and_non_ascii_text_cells_match_the_csv_module(tmp_path):
    n = _BLOCK // 4 + 1
    i = np.arange(n)
    text = np.array(["\0", "a\0b", "\r", "x\ry", "\x7f", "naïve ∞ λ₁",
                     "ü,\0", ""], dtype=object)
    t, u = np.resize(text, n), np.resize(text[::-1], n)
    data = _assert_as_reference(
        tmp_path, ("t", "x", "big", "u"),
        [t, np.resize(_AWKWARD, n), np.where(i % 3 == 0, 2**60 + i, i), u])
    assert data.count(b"\0") == sum(c.count("\0") for c in [*t, *u])
