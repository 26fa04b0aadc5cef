"""Run artifacts: full-precision CSV emission and the per-run report.

Every float is serialized with 17 significant digits so a rerun with the
same seed produces byte-identical files; the report carries a sha256
manifest of everything written, which is what the reproducibility tests
diff against.

Each file's numeric columns go into one float table, and its text
cells and integers of 2**53 or more are formatted by Python once.  The
table is formatted in NumPy a block of rows at a time, byte for byte
as Python's '%.17g' (floats) and '%d' (integers and flags) write it:
each cell fills a fixed template, whose slots its layout does not keep
are zeroed and then deleted.  A float's digits come from Dekker's exact
product of |x| with 10**p held as two doubles, within 1e-14 of the
exact scaled value, so where its fraction lies more than 1e-9 from one
half the rounding is decided and the digits are those '%.17g' writes.
Where 10**p is itself a double the product is exact, and a fraction of
exactly one half is a true tie, rounded half to even as '%.17g' rounds
it.  Any other cell (a near-tie, a subnormal, a magnitude outside
[1e-280, 1e280], an integer of 2**53 or more) is formatted by Python
and counted in the manifest as a fallback cell.
"""

import contextlib
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

_BLOCK_CELLS = 4096    # cells formatted and written as one block

# 10**p as a double-double H + L for p in [-300, 300], from exact
# integers: H is 10**p rounded, L is 10**p - H rounded
_P0 = 300


def _ten_powers():
    hi, lo = [], []
    for p in range(-_P0, _P0 + 1):
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        h = num / den                       # correctly rounded
        hn, hd = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * hd - hn * den) / (den * hd))
    return np.array(hi), np.array(lo)


_TEN_HI, _TEN_LO = _ten_powers()
_SPLIT = 2.0**27 + 1.0                  # Dekker's splitter for doubles
_FAST_MIN, _FAST_MAX = 1e-280, 1e280    # keep the scaled parts normal
_INT_EXACT = 2**53                      # |int| below this is a float

# one cell's character slots: sign, "0.000" for -4 <= E < 0, the 17
# digits with a point slot after each of the first 16, the exponent
# "e+XXX", and the separator
_SIGN, _LEAD, _DIGIT, _EXP, _SEP = 0, 1, 6, 39, 44
_WIDTH = 45
_TEMPLATE = np.frombuffer(
    b"-0.000" + b"0." * 16 + b"0" + b"e+000,", dtype=np.uint8)
_QUADS = (np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + 48
          ).astype(np.uint8).view(np.uint32).ravel()   # "0000" .. "9999"
_INF, _NAN = np.frombuffer(b"inf", np.uint8), np.frombuffer(b"nan", np.uint8)


def _exponents():
    """'e+XXX' / 'e-XXX' for exponents -_P0 .. _P0, one row each."""
    e = np.arange(-_P0, _P0 + 1)
    ae = np.abs(e)
    return np.stack([np.full_like(e, ord("e")), np.where(e < 0, 45, 43),
                     ae // 100 + 48, ae // 10 % 10 + 48, ae % 10 + 48],
                    axis=1).astype(np.uint8)


def _layouts():
    """The slots a cell keeps under %g's rules, one row per layout key
    ((negative * 23 + cls) * 17 + digits - 1): cls 0..20 is fixed
    notation at exponent cls - 4, 21 and 22 exponent notation with two
    and three exponent digits, digits the significant digits left once
    trailing zeros are cut.  The last row keeps only the separator."""
    neg = np.arange(2)[:, None, None, None]
    cls = np.arange(23)[None, :, None, None]
    nz = np.arange(1, 18)[None, None, :, None]
    slot = np.arange(_WIDTH)
    fixed = cls < 21
    e = cls - 4
    below = fixed & (e < 0)
    digit = (slot >= _DIGIT) & (slot < _EXP)
    i = (slot - _DIGIT) // 2            # the digit a slot holds or follows
    point = np.where(fixed, e, 0)
    keep = (((slot == _SIGN) & (neg == 1))
            | ((slot >= _LEAD) & (slot < _LEAD + 2) & below)
            | ((slot >= _LEAD + 2) & (slot < _DIGIT)
               & (slot - _LEAD - 2 < -e - 1))
            | (digit & (slot % 2 == 0)
               & (i < np.where(fixed, np.maximum(nz, e + 1), nz)))
            | (digit & (slot % 2 == 1) & (i == point) & (nz > point + 1))
            | ((slot >= _EXP) & (slot < _SEP) & ~fixed
               & ((slot != _EXP + 2) | (cls == 22)))
            | (slot == _SEP))
    return np.vstack([keep.reshape(-1, _WIDTH), slot == _SEP])


_EXPONENTS = _exponents()
_KEEP = _layouts().view(np.uint8)
_LENGTHS = _KEEP.sum(axis=1)
_TEXT_KEY = len(_KEEP) - 1


def _csv_text(value, alone):
    """One text cell as the csv module's minimal quoting writes it with
    an LF line end: quoted where it holds a comma, a quote or a line
    feed, and as "" where it is the row's only, empty cell."""
    text = str(value)
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text or ('""' if alone else "")


def _decimal17(a):
    """The 17-digit significand n and decimal exponent e of each a > 0
    in [_FAST_MIN, _FAST_MAX], with a == n * 10**(e - 16) rounded half
    to even, and where that rounding is decided with margin.

    D = a * 10**(16 - e) is formed as Dekker's exact product a * H
    plus a * L, within 1e-14 of its exact value, so n = round(D) is
    sure wherever D's fraction is not within 1e-9 of one half.  Where
    L is 0 (0 <= 16 - e <= 22) D is exact, and a fraction of exactly
    one half is a tie, settled to the even n.  A guess e that is one
    off puts floor(D) or n outside [1e16, 1e17)."""
    e = np.floor(np.log10(a)).astype(np.int64)
    h = _TEN_HI[_P0 + 16 - e]
    lo = _TEN_LO[_P0 + 16 - e]
    hi = a * h
    t = a * _SPLIT
    ah = t - (t - a)
    al = a - ah
    t = h * _SPLIT
    hh = t - (t - h)
    hl = h - hh
    s = ((ah * hh - hi) + ah * hl + al * hh) + al * hl + a * lo
    whole = np.floor(s)
    frac = s - whole
    n = hi.astype(np.int64) + whole.astype(np.int64)
    tie = (frac == 0.5) & (lo == 0.0)
    sure = (n >= 10**16) & ((np.abs(frac - 0.5) > 1e-9) | tie)
    n += (frac > 0.5) | (tie & (n % 2 == 1))
    return n, e, sure & (n < 10**17)


def _format_block(v, texts):
    """The bytes of one block of rows v of the numeric table, cells
    joined by commas and rows ended by LF, and the number of floats
    Python formatted; texts maps the flat index of a cell that is not
    v's (text, or an integer past 2**53) to its bytes.

    Every float whose 17 digits _decimal17 decides, and every zero,
    infinity and NaN, is laid out by %g's rules in NumPy: the template
    slots its layout does not keep are zeroed and then deleted.  The
    other floats are formatted by '%.17g'; they and the cells in texts
    are spliced in before their separators."""
    rows, width = v.shape
    v = v.ravel()
    python = np.zeros(len(v), dtype=bool)
    python[list(texts)] = True

    a = np.abs(v)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    n, e, sure = _decimal17(np.where(fast, a, 1.0))
    sure &= fast
    zero, inf, nan = a == 0, np.isinf(v), np.isnan(v)
    fallback = ~(sure | zero | inf | nan | python)
    formatted = int(np.count_nonzero(fallback))
    if formatted:
        cells = np.flatnonzero(fallback)
        texts.update(zip(cells.tolist(), (b"%.17g" % x
                                          for x in v[cells].tolist())))
        python |= fallback
    n[~sure] = 0
    e[~sure] = 0
    e[inf | nan] = 2

    # the 17 digit characters, four at a time from a table
    chars = np.empty((len(v), 20), dtype=np.uint8)
    quads = chars.view(np.uint32)
    for k in range(4, 0, -1):
        q = n // 10000
        quads[:, k] = _QUADS[n - q * 10000]
        n = q
    chars[:, 3] = n + 48
    digits = chars[:, 3:]
    digits[inf, :3] = _INF
    digits[nan, :3] = _NAN
    nz = 17 - np.argmax(digits[:, ::-1] != 48, axis=1)    # trailing 0s cut
    nz[zero] = 1
    nz[inf | nan] = 3

    fixed = (e >= -4) & (e < 17)
    out = np.empty((len(v), _WIDTH), dtype=np.uint8)
    out[:] = _TEMPLATE
    out[:, _DIGIT:_EXP:2] = digits
    out.reshape(rows, width, _WIDTH)[:, -1, _SEP] = 10
    expo = np.flatnonzero(~fixed)
    if len(expo):
        out[expo, _EXP:_SEP] = _EXPONENTS[_P0 + e[expo]]
    cls = np.where(fixed, e + 4, np.where(np.abs(e) < 100, 21, 22))
    key = ((np.signbit(v) & ~nan) * 23 + cls) * 17 + nz - 1
    key[python] = _TEXT_KEY
    out *= _KEEP.take(key, axis=0)
    data = out.tobytes().translate(None, b"\0")
    if not texts:
        return data, 0

    # Python's cells go in before their separators
    cells = sorted(texts)
    ends = np.cumsum(_LENGTHS[key])
    pieces, prev = [], 0
    for cell in cells:
        cut = int(ends[cell]) - 1
        pieces += [data[prev:cut], texts[cell]]
        prev = cut
    pieces.append(data[prev:])
    return b"".join(pieces), formatted


class Digest(str):
    """A CSV's sha256 hex digest that also carries fallback_cells, the
    number of numeric cells Python's '%.17g' or '%d' formatted."""

    def __new__(cls, hexdigest, fallback_cells):
        self = super().__new__(cls, hexdigest)
        self.fallback_cells = fallback_cells
        return self


def write_csv(path, header, columns):
    """Write one artifact from one equal-length 1-D column per header
    name; returns its content hash (a Digest).

    The numeric columns go into one (n, width) float table, and the
    text cells and integers of 2**53 or more are formatted by Python,
    once per file.  Each block of about _BLOCK_CELLS cells, a slice of
    the table's rows, is formatted by _format_block and written as one
    byte string; the hash is taken over the bytes as written."""
    columns = [np.asarray(c) for c in columns]
    n, width = (len(columns[0]) if columns else 0), len(columns)
    if width != len(header) or any(c.ndim != 1 or len(c) != n
                                   for c in columns):
        raise ValueError(f"{os.path.basename(path)}: expected "
                         f"{len(header)} 1-D columns of equal length")
    alone = width == 1
    table = np.zeros((n, width))
    texts = {}              # flat cell index -> bytes, for Python's cells
    fallback = 0
    for j, c in enumerate(columns):
        kind = c.dtype.kind
        if kind not in "biuf":
            texts.update(zip(range(j, n * width, width),
                             (_csv_text(x, alone).encode("utf-8")
                              for x in c.tolist())))
            continue
        if kind in "iu":
            big = c >= _INT_EXACT
            if kind == "i":
                big |= c <= -_INT_EXACT
            if big.any():
                texts.update(zip((np.flatnonzero(big) * width + j).tolist(),
                                 (b"%d" % x for x in c[big].tolist())))
                fallback += int(np.count_nonzero(big))
                c = np.where(big, 0, c)
        table[:, j] = c
    cells = np.array(sorted(texts), dtype=np.int64)
    step = max(1, _BLOCK_CELLS // max(1, width))
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        def emit(data):
            digest.update(data)
            fh.write(data)

        emit((",".join(_csv_text(h, alone) for h in header)
              + "\n").encode("utf-8"))
        for lo in range(0, n, step):
            first = lo * width
            a, b = np.searchsorted(cells, (first, first + step * width))
            data, k = _format_block(table[lo:lo + step], {
                cell - first: texts[cell] for cell in cells[a:b].tolist()})
            fallback += k
            emit(data)
    return Digest(digest.hexdigest(), fallback)


@dataclass
class RunReport:
    """What one command did: status, key scalars, and the file manifest."""

    command: str
    label: str
    status: str = "ok"
    wall_time_s: float = 0.0
    seed: object = None
    thread_cap: object = None     # QSD_NUM_THREADS as applied; None: unset
    scalars: dict = field(default_factory=dict)
    # (name, sha256, bytes, fallback_cells) of each CSV written
    files: list = field(default_factory=list)
    messages: list = field(default_factory=list)
    failure: object = None        # {stage, type, message} of a failed run
    stage: str = None             # the innermost span open

    @contextlib.contextmanager
    def span(self, name):
        """Name the stage its block runs.  The outer name comes back only
        when the block exits normally, so an exception that escapes it
        leaves the innermost name to label the failure."""
        outer, self.stage = self.stage, name
        yield
        self.stage = outer

    def add_file(self, out_dir, name, header, columns):
        path = os.path.join(out_dir, name)
        digest = write_csv(path, header, columns)
        self.files.append((name, digest, os.path.getsize(path),
                           digest.fallback_cells))
        return digest

    def render_text(self):
        lines = [f"qsd {self.command} — {self.label}",
                 f"  status: {self.status}    wall: {self.wall_time_s:.2f} s"
                 + (f"    seed: {self.seed}" if self.seed is not None
                    else "")]
        for key, val in self.scalars.items():
            if isinstance(val, float):
                lines.append(f"  {key}: {val:.12g}")
            else:
                lines.append(f"  {key}: {val}")
        for msg in self.messages:
            lines.append(f"  note: {msg}")
        if self.files:
            lines.append("  files:")
            for name, digest, *_ in self.files:
                lines.append(f"    {name}  sha256={digest[:16]}…")
        return "\n".join(lines)

    def to_json(self):
        """Strict JSON: a non-finite scalar is written as null, and a
        message names it."""
        scalars, messages = {}, list(self.messages)
        for key, val in self.scalars.items():
            if isinstance(val, float) and not math.isfinite(val):
                messages.append(f"scalar {key} is {float(val)!r}; "
                                f"written as null")
                val = None
            scalars[key] = val
        payload = {
            "command": self.command,
            "label": self.label,
            "status": self.status,
            "wall_time_s": round(self.wall_time_s, 3),
            "seed": self.seed,
            "thread_cap": self.thread_cap,
            "scalars": scalars,
            "files": [{"name": n, "sha256": d, "bytes": b,
                       "fallback_cells": k}
                      for n, d, b, k in self.files],
            "messages": messages,
        }
        if self.failure is not None:
            payload["failure"] = self.failure
        return json.dumps(payload, indent=2, sort_keys=False,
                          allow_nan=False)

    def write_json(self, out_dir, name="run_report.json"):
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(self.to_json())
            fh.write("\n")
        return path
