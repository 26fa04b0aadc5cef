"""Run artifacts: full-precision CSV emission and the per-run report.

Every float is serialized with 17 significant digits so a rerun with the
same seed produces byte-identical files; the report carries a sha256
manifest of everything written, which is what the reproducibility tests
diff against.
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

_BLOCK = 256           # rows formatted and written by one % operation

# cell formats by dtype kind: floats at round-trip precision, integers
# and booleans as decimals; any other kind is text
_FORMAT = {"f": "%.17g", "b": "%d", "i": "%d", "u": "%d"}


def _csv_text(value, alone):
    """One text cell as the csv module's minimal quoting writes it with
    an LF line end: quoted where it holds a comma, a quote or a line
    feed, and as "" where it is the row's only, empty cell."""
    text = str(value)
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text or ('""' if alone else "")


def write_csv(path, header, columns):
    """Write one artifact from one equal-length 1-D column per header
    name; returns its content hash.

    One row template, picked once from the column dtypes, formats each
    block of _BLOCK rows in a single % operation; text cells enter it
    pre-quoted through %s, so no cell is ever read as a format."""
    columns = [np.asarray(c) for c in columns]
    n = len(columns[0]) if columns else 0
    if len(columns) != len(header) or any(
            c.ndim != 1 or len(c) != n for c in columns):
        raise ValueError(f"{os.path.basename(path)}: expected "
                         f"{len(header)} 1-D columns of equal length")
    alone = len(columns) == 1
    fmts = [_FORMAT.get(c.dtype.kind, "%s") for c in columns]
    texts = [j for j, f in enumerate(fmts) if f == "%s"]
    row = ",".join(fmts) + "\n"
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        def emit(text):
            data = text.encode("utf-8")
            digest.update(data)
            fh.write(data)

        emit(",".join(_csv_text(h, alone) for h in header) + "\n")
        for lo in range(0, n, _BLOCK):
            cells = [c[lo:lo + _BLOCK].tolist() for c in columns]
            for j in texts:
                cells[j] = [_csv_text(v, alone) for v in cells[j]]
            emit((row * len(cells[0]))
                 % tuple(chain.from_iterable(zip(*cells))))
    return digest.hexdigest()


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
    files: list = field(default_factory=list)   # (name, sha256, bytes)
    messages: list = field(default_factory=list)
    failure: object = None        # {stage, type, message} of a failed run

    def add_file(self, out_dir, name, header, columns):
        path = os.path.join(out_dir, name)
        digest = write_csv(path, header, columns)
        self.files.append((name, digest, os.path.getsize(path)))
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
            for name, digest, _ in self.files:
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
            "files": [{"name": n, "sha256": d, "bytes": b}
                      for n, d, b in self.files],
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
