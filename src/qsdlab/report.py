"""Run artifacts: full-precision CSV emission and the per-run report.

Every float is serialized with 17 significant digits so a rerun with the
same seed produces byte-identical files; the report carries a sha256
manifest of everything written, which is what the reproducibility tests
diff against.
"""

import csv
import hashlib
import json
import numbers
import os
from dataclasses import dataclass, field

import numpy as np


def fmt_value(v):
    """One CSV cell: ints plain, floats at full round-trip precision."""
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return "%.17g" % float(v)
    if isinstance(v, numbers.Real):
        return "%.17g" % float(v)
    return str(v)


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_csv(path, header, rows):
    """Write one artifact; returns its content hash."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([fmt_value(v) for v in row])
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

    def add_file(self, out_dir, name, header, rows):
        digest = write_csv(os.path.join(out_dir, name), header, rows)
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
        payload = {
            "command": self.command,
            "label": self.label,
            "status": self.status,
            "wall_time_s": round(self.wall_time_s, 3),
            "seed": self.seed,
            "thread_cap": self.thread_cap,
            "scalars": {k: (v if not isinstance(v, float) else
                            float(fmt_value(v))) for k, v in
                        self.scalars.items()},
            "files": [{"name": n, "sha256": d} for n, d in self.files],
            "messages": list(self.messages),
        }
        return json.dumps(payload, indent=2, sort_keys=False)

    def write_json(self, out_dir, name="run_report.json"):
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(self.to_json())
            fh.write("\n")
        return path
