"""JSON and CSV input/output helpers.

Floats are written round-trip exact: CSV cells at 17 significant digits
(`fmt`), JSON numbers as Python's shortest repr that reads back as the
same double.  Outputs carry no timestamps, so identical configurations
produce byte-identical files.
"""

import csv
import json

import numpy as np

from .chloroform import TrajectorySample
from .errors import ValidationError


def _normalize(obj):
    """obj with numpy scalars and arrays unwrapped into Python numbers and lists."""
    if isinstance(obj, dict):
        return {k: _normalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_normalize(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _open(path, mode="r", **kwargs):
    """open() that reports a missing, unreadable or unwritable path as bad input."""
    try:
        return open(path, mode, **kwargs)
    except OSError as exc:  # no such file or directory, a directory, no permission
        raise ValidationError(f"cannot open {path}: {exc.strerror}") from exc


def dump_json(obj, path):
    with _open(path, "w") as fh:
        json.dump(_normalize(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path):
    with _open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # malformed JSON or undecodable bytes
            raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def fmt(x):
    """Full-precision text form of one float."""
    return f"{float(x):.17g}"


def write_csv(path, header, rows):
    with _open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) if isinstance(v, (float, np.floating)) else v
                             for v in row])


def write_trajectory_csv(path, traj):
    """Trajectory CSV: header t,<label>,... one row per time."""
    labels = sorted(traj.observables)
    rows = []
    for i, t in enumerate(traj.times):
        rows.append([t] + [traj.observables[lab][i] for lab in labels])
    write_csv(path, ["t"] + labels, rows)


def read_trajectory_csv(path):
    with _open(path, newline="") as fh:
        try:
            rows = list(csv.reader(fh))
        except (csv.Error, ValueError) as exc:  # undecodable bytes or a NUL byte
            raise ValidationError(f"cannot read {path}: {exc}") from exc
    header = rows[0] if rows else []
    if not header or header[0] != "t":
        raise ValidationError("trajectory CSV must start with a 't' column")
    labels = header[1:]
    if len(set(labels)) != len(labels):
        raise ValidationError("trajectory CSV repeats a column label")
    data = [row for row in rows[1:] if row]
    if not data:
        raise ValidationError("trajectory CSV carries no rows")
    if any(len(row) != len(header) for row in data):
        raise ValidationError("trajectory CSV rows must match its header")
    try:
        arr = np.asarray(data, dtype=float)
    except ValueError as exc:
        raise ValidationError(f"trajectory CSV holds a non-number: {exc}") from exc
    return TrajectorySample(
        times=arr[:, 0],
        observables={lab: arr[:, 1 + j] for j, lab in enumerate(labels)},
    )
