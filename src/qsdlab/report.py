"""Run artifacts: full-precision CSV emission and the per-run report.

Every float is serialized with 17 significant digits so a rerun with the
same seed produces byte-identical files; the report carries a sha256
manifest of everything written, which is what the reproducibility tests
diff against.
"""

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

_BLOCK = 1024          # rows formatted and written at a time


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


def write_csv(path, header, columns):
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
    files: list = field(default_factory=list)      # (name, sha256)
    messages: list = field(default_factory=list)
    failure: object = None        # {stage, type, message} of a failed run

    def add_file(self, out_dir, name, header, columns):
        digest = write_csv(os.path.join(out_dir, name), header, columns)
        self.files.append((name, digest))
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
            for name, digest in self.files:
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
            "files": [{"name": n, "sha256": d} for n, d in self.files],
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
