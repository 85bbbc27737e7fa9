"""Deterministic CSV/JSON emission and flat config files.

Floats are written with 17 significant digits (lossless for binary64) and
NaN or infinities abort serialization instead of leaking into output; a
CSV table is checked whole before its first byte is written.
Field order is fixed by the caller (insertion order for JSON objects), so
a repeated run produces byte-identical output.

Every float field is the string "%.17g" % x. JSON scalars get it from
format_float, the one per-value formatter. CSV tables get it from the
numpy kernel in _csv, chunk by chunk of _CSV_CHUNK_VALUES values: it
scales each |x| to a 17-digit integer in double-double arithmetic, lays
out sign, digits, point and exponent by the %g rules, writes zeros as
"0" or "-0", and hands the values it cannot round with certainty
(nonzero |x| outside [1e-250, 1e250), possible decimal ties) to
format_float. A level table, whose first column is exactly 0, 1, ...,
n - 1 (checked bit for bit, in O(n)), takes _csv's index route instead:
integer digits for the index, and each run of bit-equal values formatted
once, so a box of 2P levels pays for its distinct levels, not for 2P
fields. The kernel module and its tables load with the first table
written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import IO, Any

import numpy as np

from .errors import NumericalError, ValidationError
from .model import BulkParams, FiniteParams

SCHEMA_VERSION = 1

# values per CSV kernel call: keeps its transient arrays at a few MB
_CSV_CHUNK_VALUES = 1 << 14


def format_float(x: float) -> str:
    """17-significant-digit decimal form; rejects NaN and infinities."""
    x = float(x)
    if not math.isfinite(x):
        raise NumericalError(f"non-finite value {x!r} in output")
    return format(x, ".17g")


@dataclass
class Table:
    """Named columns over a 2-d array of floats; the CSV payload shape."""

    columns: list[str]
    rows: np.ndarray

    def __post_init__(self) -> None:
        self.rows = np.asarray(self.rows, dtype=float)
        if self.rows.ndim != 2 or self.rows.shape[1] != len(self.columns):
            raise ValidationError(
                f"rows must be (n, {len(self.columns)}), got {self.rows.shape}"
            )


def emit_csv(table: Table, stream: IO[str]) -> None:
    """Header plus one line per row, newline-terminated, no trailing padding.

    Raises NumericalError on the first non-finite value, before any
    byte is written. Each field is byte for byte format_float's string.
    """
    rows = table.rows
    finite = np.isfinite(rows)
    if not finite.all():
        raise NumericalError(f"non-finite value {float(rows[~finite][0])!r} in output")
    nrows, ncols = rows.shape
    stream.write(",".join(table.columns) + "\n")
    if ncols == 0:
        stream.write("\n" * nrows)
        return
    from . import _csv  # deferred to the first table: its import builds the tables

    # a level table (first column 0, 1, ..., n - 1, no -0.0) is written from its distinct values;
    # any other first entry rules it out without a pass over the column
    indexed = nrows > 0 and rows[0, 0] == 0.0 and np.array_equal(
        rows[:, 0].view(np.int64), np.arange(nrows, dtype=float).view(np.int64))
    step = max(1, _CSV_CHUNK_VALUES // ncols)
    for start in range(0, nrows, step):
        chunk = rows[start : start + step]
        text = _csv.indexed_rows_text(chunk, start) if indexed else _csv.rows_text(chunk)
        stream.write(text.decode("ascii"))


def _json_scalar(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    if isinstance(value, str):
        out = value.replace("\\", "\\\\").replace('"', '\\"')
        for ch, esc in (("\n", "\\n"), ("\r", "\\r"), ("\t", "\\t")):
            out = out.replace(ch, esc)
        return f'"{out}"'
    raise NumericalError(f"cannot serialize {type(value).__name__} to JSON")


def _json_value(value: Any) -> str:
    if isinstance(value, dict):
        items = ", ".join(f'{_json_scalar(str(k))}: {_json_value(v)}' for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        seq = value.tolist() if isinstance(value, np.ndarray) else value
        return "[" + ", ".join(_json_value(v) for v in seq) + "]"
    return _json_scalar(value)


def emit_json(payload: dict, stream: IO[str]) -> None:
    """One-line JSON document in insertion order, newline-terminated."""
    stream.write(_json_value(payload) + "\n")


def complex_fields(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def envelope(inputs: dict, result: dict) -> dict:
    """What a JSON-producing run writes: schema version, input echo, result.

    Timing never enters it (reruns must be byte-identical); the CLI reports
    elapsed time on stderr instead.
    """
    return {"schema": SCHEMA_VERSION, "inputs": inputs, "result": result}


def load_config(path: str) -> dict[str, float]:
    """Flat key = value parameter file; keys are the fields of BulkParams and FiniteParams.

    Blank lines and lines starting with '#' are ignored.
    """
    allowed = dict.fromkeys(f.name for cls in (BulkParams, FiniteParams) for f in fields(cls))
    out: dict[str, float] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in allowed:
            raise ValidationError(
                f"{path}:{lineno}: unknown key {key!r} (allowed: {', '.join(allowed)})"
            )
        try:
            out[key] = float(val.strip())
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: {val.strip()!r} is not a number") from None
    return out
