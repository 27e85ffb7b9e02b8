"""Persistence: binary field files, JSON result envelopes, branch CSV.

Field files use a fixed little-endian layout (magic "FCSF", version 1) so a
round trip is bit-exact.  Envelopes isolate every volatile quantity
(timestamp, wall time, and the numpy/scipy/BLAS build and FCS_THREADS the
run used) under the "runtime" key: two runs with identical config and seed
produce byte-identical JSON once that key is dropped.
"""

from __future__ import annotations

import csv
import datetime as _dt
import functools
import io as _io
import json
import math
import os
import struct
import subprocess
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .grid import Field, make_grid
from .params import ProblemParams

__all__ = [
    "FieldFormatError",
    "save_field",
    "load_field",
    "make_envelope",
    "envelope_to_json",
    "strip_runtime",
    "emit_branch_csv",
]

MAGIC = b"FCSF"
VERSION = 1
_HEADER = struct.Struct("<4sIIdddQ")


class FieldFormatError(ValueError):
    """Malformed or unsupported field file."""


def save_field(u: Field, path) -> None:
    """Write the field in the FCSF binary layout (bit-exact round trip)."""
    g = u.grid
    header = _HEADER.pack(
        MAGIC, VERSION, g.params.N, g.params.s, g.params.alpha, g.R, g.M
    )
    payload = np.ascontiguousarray(u.values, dtype="<f8").tobytes()
    Path(path).write_bytes(header + payload)


def load_field(path) -> Field:
    """Read an FCSF file; validates magic, version, and finiteness."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise FieldFormatError(f"{path}: truncated header")
    magic, version, N, s, alpha, R, M = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise FieldFormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise FieldFormatError(f"{path}: unsupported version {version}")
    expected = _HEADER.size + 8 * M
    if len(raw) != expected:
        raise FieldFormatError(
            f"{path}: truncated payload ({len(raw)} bytes, expected {expected})"
        )
    values = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).copy()
    if not np.all(np.isfinite(values)):
        raise FieldFormatError(f"{path}: payload contains non-finite values")
    grid = make_grid(ProblemParams(int(N), float(s), float(alpha)), float(R), int(M))
    return Field(grid, values)


# ---------------------------------------------------------------------------
# result envelopes
# ---------------------------------------------------------------------------

@functools.cache
def _commit_hash() -> str | None:
    # the code in memory cannot change commit within a process: look it up
    # once.  HEAD names this code only if its tree holds this file: a copy
    # of the package left untracked inside some other repository fails the
    # HEAD:./ lookup, and reports no commit rather than that repository's
    here = Path(__file__).resolve()
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD", f"HEAD:./{here.name}"],
            cwd=here.parent,
            capture_output=True,
            text=True,
            timeout=2.0,
        )
    except Exception:
        return None
    return out.stdout.split()[0] if out.returncode == 0 else None


@functools.cache
def _numerics() -> dict:
    # what the last bits of a result can depend on besides config and seed
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 takes no mode
        blas = {}
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
    }


def make_envelope(config_echo: dict, report: dict, wall_time_s: float) -> dict:
    return {
        "tool": {"name": "fcs", "version": __version__, "commit": _commit_hash()},
        "config": config_echo,
        "report": report,
        "runtime": {
            "timestamp": _dt.datetime.now(_dt.timezone.utc).isoformat(),
            "wall_time_s": wall_time_s,
            **_numerics(),
            "fcs_threads": os.environ.get("FCS_THREADS"),
        },
    }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return _jsonable(obj.item())
    if isinstance(obj, float) and not math.isfinite(obj):
        return None  # JSON has no NaN/inf; sentinel is null
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())  # a NaN inside it becomes null too
    return obj


def envelope_to_json(envelope: dict) -> str:
    return json.dumps(_jsonable(envelope), sort_keys=True, indent=2) + "\n"


def strip_runtime(envelope_json: str) -> str:
    """Canonical form for determinism comparisons: drop the volatile block."""
    data = json.loads(envelope_json)
    data.pop("runtime", None)
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# branch CSV
# ---------------------------------------------------------------------------

_CSV_HEADER = ["param", "energy", "I", "J", "multiplier", "residual", "converged"]


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float) and not math.isfinite(x):
        return ""
    return repr(float(x)) if isinstance(x, float) else str(x)


def emit_branch_csv(rows, path=None) -> str:
    """Serialize sweep rows; NaN and missing values become empty cells."""
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")  # RFC 4180 line endings
    writer.writerow(_CSV_HEADER)
    for row in rows:
        writer.writerow(
            [
                _cell(row.param),
                _cell(row.energy),
                _cell(row.I),
                _cell(row.J),
                _cell(row.multiplier),
                _cell(row.residual),
                _cell(row.converged),
            ]
        )
    text = buf.getvalue()
    if path is not None:
        Path(path).write_text(text)
    return text
