"""Command-line interface.

Subcommands: bands, zak, approx, berry, finite, edge, compare-ssh. Curve
data goes out as CSV, scalar results as single-line JSON. Parameters come
from flags or a flat key=value config file (--config), flags winning.

Output routing: a CSV-producing command (bands, approx, finite) writes its
table to --out (or stdout) and echoes the resolved inputs on stderr;
finite also writes its summary JSON to stderr, with or without --out.
edge and compare-ssh, which produce a table plus scalar diagnostics, write
the table to --out and the JSON to stdout, or, without --out, the table to
stdout and the JSON to stderr. Reruns with identical inputs are
byte-identical on every primary stream; elapsed time is reported only on
stderr.

Exit codes: 0 success, 2 validation error, 3 numerical failure, I/O
failure or exhausted memory.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import math
import os
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import approx, bulk, edge, finite
from .errors import NumericalError, ValidationError
from .model import BulkParams, FiniteParams
from .serialize import Table, complex_fields, emit_csv, emit_json, envelope, load_config

BULK_KEYS = tuple(f.name for f in dataclasses.fields(BulkParams))
BOX_KEYS = tuple(f.name for f in dataclasses.fields(FiniteParams))


def _add_common(p: argparse.ArgumentParser, keys) -> None:
    p.add_argument("--config", help="flat key = value parameter file")
    for key in keys:
        p.add_argument(f"--{key}", type=float, default=None)
    p.add_argument("--out", help="write the primary output to this file")


def _params(args, cls):
    """The record cls built from its fields' flags or the config file, flags winning."""
    config = load_config(args.config) if args.config else {}
    resolved = {}
    for field in dataclasses.fields(cls):
        key = field.name
        val = getattr(args, key)
        if val is None:
            val = config.get(key)
        if val is None:
            raise ValidationError(f"missing parameter {key!r} (flag --{key} or config file)")
        resolved[key] = float(val)
    return cls(**resolved)


@contextlib.contextmanager
def _replacing(out):
    """Text stream for the file `out` that replaces it only if the block succeeds.

    A regular (or not yet existing) target is written through a sibling
    temporary file that os.replace moves onto it at the end, so a refused
    run leaves an existing file as it was; the temporary file is removed on
    failure. Symlinks are followed, and a replaced file keeps its
    permission bits. Anything else (a device, a pipe) is opened directly,
    as there is no file to keep. An OSError that names a file names `out`
    as given, never the temporary file, so reruns report the same path.
    """
    if os.path.exists(out) and not os.path.isfile(out):
        with open(out, "w", encoding="utf-8", newline="") as fh:
            yield fh
        return
    target = Path(os.path.realpath(out))
    tmp = target.with_name(f".{target.name}.{os.urandom(4).hex()}.tmp")
    try:
        fh = open(tmp, "x", encoding="utf-8", newline="")
        try:
            with fh:
                yield fh
            if target.exists():  # keep the replaced file's permissions
                os.chmod(tmp, target.stat().st_mode & 0o7777)
            os.replace(tmp, target)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        if exc.filename is None:
            raise
        raise type(exc)(exc.errno, exc.strerror, os.fspath(out)) from None


def _write_table(table: Table, out: str | None, inputs: dict) -> None:
    emit_json({"inputs": inputs}, sys.stderr)
    if out:
        with _replacing(out) as fh:
            emit_csv(table, fh)
    else:
        emit_csv(table, sys.stdout)


def _write_table_and_json(table: Table, doc: dict, out: str | None) -> None:
    if out:
        with _replacing(out) as fh:
            emit_csv(table, fh)
        emit_json(doc, sys.stdout)
    else:
        emit_csv(table, sys.stdout)
        emit_json(doc, sys.stderr)


def _k_range(args, params: BulkParams) -> tuple[float, float]:
    """--kmin/--kmax, which must be finite, or one zone [-pi/a, pi/a].

    A default bound is refused, naming --a, where it leaves the float64
    range, and so is the default zone where its width 2*pi/a does; then
    the range is refused, naming the flags given, where a*kmin, a*kmax or
    kmax - kmin does.
    """
    given = {flag: val for flag, val in (("--kmin", args.kmin), ("--kmax", args.kmax))
             if val is not None}
    for flag, val in given.items():
        if not math.isfinite(val):
            raise ValidationError(f"{flag} must be finite, got {val}")
    if len(given) < 2 and not math.isfinite((2 - len(given)) * np.pi / params.a):
        raise ValidationError(
            f"the default k range [-pi/a, pi/a] at --a = {params.a!r} "
            "leaves the float64 range"
        )
    kmin = args.kmin if args.kmin is not None else -np.pi / params.a
    kmax = args.kmax if args.kmax is not None else np.pi / params.a
    if not all(map(math.isfinite, (params.a * kmin, params.a * kmax, kmax - kmin))):
        raise ValidationError(
            f"the k range {'/'.join(given)} = [{kmin!r}, {kmax!r}] at a = {params.a!r}: "
            "a*k and kmax - kmin must stay in the float64 range"
        )
    return kmin, kmax


def _zero_window(args, params: FiniteParams) -> float:
    """The absolute zero-mode window --tol-zero * |w0|; refused unless positive and finite."""
    tol_abs = args.tol_zero * abs(params.w0)
    if not 0.0 < tol_abs < math.inf:  # the inputs are named: the product may under- or overflow
        raise ValidationError(
            f"the zero-mode window --tol-zero * |w0| = {args.tol_zero!r} * {abs(params.w0)!r} "
            f"= {tol_abs!r} must be positive and finite"
        )
    return tol_abs


def _cmd_bands(args) -> int:
    params = _params(args, BulkParams)
    kmin, kmax = _k_range(args, params)
    if args.samples < 2:
        raise ValidationError("--samples must be >= 2")
    k = np.linspace(kmin, kmax, args.samples)
    bp = bulk.energy_bands(params, k)
    phi = bulk.phase_phi(params, k)
    inputs = {"command": "bands", **dataclasses.asdict(params),
              "kmin": float(kmin), "kmax": float(kmax), "samples": args.samples}
    table = Table(columns=["k", "E_minus", "E_plus", "phi"],
                  rows=np.column_stack([k, bp.e_minus, bp.e_plus, phi]))
    _write_table(table, args.out, inputs)
    return 0


def _cmd_zak(args) -> int:
    params = _params(args, BulkParams)
    if args.method == "analytic":
        res = bulk.zak_analytic(params)
    else:
        res = bulk.zak_wilson(params, band=args.band, nk=args.nk)
    inputs = {"command": "zak", **dataclasses.asdict(params),
              "band": args.band, "nk": args.nk, "method": args.method}
    _emit_envelope(envelope(inputs, {
        "gamma": res.value,
        "classification": res.classification,
        "k_points": res.k_points,
    }), args.out)
    return 0


def _cmd_approx(args) -> int:
    params = _params(args, BulkParams)
    if args.order != "all":
        kmin, kmax = _k_range(args, params)
    elif args.kmin is not None or args.kmax is not None:
        given = "/".join(flag for flag, val in (("--kmin", args.kmin), ("--kmax", args.kmax))
                         if val is not None)
        raise ValidationError(f"{given} applies to a single order only; "
                              "the all-orders table spans one zone")
    if args.samples < 2:
        raise ValidationError("--samples must be >= 2")
    inputs = {"command": "approx", **dataclasses.asdict(params),
              "order": args.order, "samples": args.samples}
    if args.order == "all":
        cols, rows = approx.comparison_table(params, k_samples=args.samples)
        table = Table(columns=cols, rows=rows)
    else:
        order = int(args.order)
        inputs["kmin"], inputs["kmax"] = float(kmin), float(kmax)
        k = np.linspace(kmin, kmax, args.samples)
        bp = approx.approx_bands(params, order, k)
        table = Table(columns=["k", "E_minus", "E_plus"],
                      rows=np.column_stack([k, bp.e_minus, bp.e_plus]))
    _write_table(table, args.out, inputs)
    return 0


def _cmd_berry(args) -> int:
    params = _params(args, BulkParams)
    if args.cutoff_k is None and not math.isfinite(2.0 * approx.BERRY_DEFAULT_CUTOFF / params.a):
        raise ValidationError(
            f"the default cutoff 1e4/a at --a = {params.a!r} leaves the float64 range"
        )
    res = approx.berry_integral(params, order=args.order, band=args.band,
                                cutoff_k=args.cutoff_k, nk=args.nk)
    inputs = {"command": "berry", **dataclasses.asdict(params),
              "order": args.order, "band": args.band,
              "cutoff_k": res.cutoff_k, "nk": args.nk}
    _emit_envelope(envelope(inputs, {
        "value": res.value,
        "cutoff_k": res.cutoff_k,
        "error": res.quadrature_error,
    }), args.out)
    return 0


def _cmd_finite(args) -> int:
    params = _params(args, FiniteParams)
    if args.vectors and not args.out:
        raise ValidationError("--vectors needs --out to place per-state files")
    finite.check_levels(params)  # a box above MAX_LEVELS is refused before its zero window
    op = finite.build_finite(params)
    tol_abs = _zero_window(args, params)
    res = finite.spectrum(op)
    n_zero = finite.zero_mode_count(res.eigenvalues, tol_abs)
    inputs = {"command": "finite", **dataclasses.asdict(params),
              "tol_zero": args.tol_zero, "vectors": bool(args.vectors)}
    table = Table(columns=["index", "eigenvalue"],
                  rows=np.column_stack([np.arange(res.eigenvalues.size), res.eigenvalues]))
    _write_table(table, args.out, inputs)
    emit_json({"zero_modes": n_zero, "levels": int(res.eigenvalues.size),
               "tol_zero_abs": tol_abs, "residual_bound": res.residual_bound}, sys.stderr)
    if args.vectors:
        base = Path(args.out)
        # res.vectors builds a state only when indexed: only midgap ones here
        x = params.grid_x()
        for j in np.flatnonzero(np.abs(res.eigenvalues) < tol_abs):
            psi_a, psi_b = res.vectors[j]
            st = Table(columns=["x", "abs_psi_a", "abs_psi_b"],
                       rows=np.column_stack([x, np.abs(psi_a), np.abs(psi_b)]))
            name = base.with_name(f"{base.stem}-state-{j:04d}{base.suffix or '.csv'}")
            with _replacing(name) as fh:
                emit_csv(st, fh)
    return 0


def _cmd_compare(args) -> int:
    params = _params(args, FiniteParams)
    cmp = finite.compare_ssh(params, tol_zero=_zero_window(args, params))
    idx = np.arange(cmp.e_box.size)
    table = Table(columns=["index", "E_box", "E_ssh"],
                  rows=np.column_stack([idx, cmp.e_box, cmp.e_chain]))
    inputs = {"command": "compare-ssh", **dataclasses.asdict(params), "tol_zero": args.tol_zero}
    doc = envelope(inputs, {
        "ks_distance": cmp.ks_distance,
        "zero_modes_box": cmp.zero_modes_box,
        "zero_modes_ssh": cmp.zero_modes_chain,
        "levels": int(cmp.e_box.size),
        "tol_zero_abs": cmp.tol_zero,
    })
    _write_table_and_json(table, doc, args.out)
    return 0


def _cmd_edge(args) -> int:
    params = _params(args, FiniteParams)
    op = finite.build_finite(params)
    mode_a = edge.build_zero_mode(params, "A", edge.EdgeLabels(n=args.n_a, m=args.m_a))
    mode_b = edge.build_zero_mode(params, "B", edge.EdgeLabels(n=args.n_b, m=args.m_b))
    res_a = edge.operator_residual(op, mode_a)
    res_b = edge.operator_residual(op, mode_b)
    fit_a = edge.localization_fit(params, mode_a.psi)
    fit_b = edge.localization_fit(params, mode_b.psi)
    table = Table(
        columns=["x", "abs_psi_a", "abs_psi_b", "re_psi_a", "re_psi_b"],
        rows=np.column_stack([
            params.grid_x(),
            np.abs(mode_a.psi), np.abs(mode_b.psi),
            np.real(mode_a.psi), np.real(mode_b.psi),
        ]),
    )
    inputs = {"command": "edge", **dataclasses.asdict(params),
              "n_a": args.n_a, "m_a": args.m_a, "n_b": args.n_b, "m_b": args.m_b}
    doc = envelope(inputs, {
        "q_a": complex_fields(mode_a.q),
        "q_b": complex_fields(mode_b.q),
        "residual_a": res_a,
        "residual_b": res_b,
        "residual": max(res_a, res_b),
        "fitted_slope_a": fit_a.slope,
        "fitted_slope_b": fit_b.slope,
    })
    _write_table_and_json(table, doc, args.out)
    return 0


def _emit_envelope(doc: dict, out: str | None) -> None:
    if out:
        with _replacing(out) as fh:
            emit_json(doc, fh)
    else:
        emit_json(doc, sys.stdout)


# CPython >= 3.12.7's matcher for option values that are negative numbers;
# the older one leaves out exponents, so "--w -3e299" read as a missing value
_NEGATIVE_NUMBER = re.compile(r"-\.?\d")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads "-1e-320" as a number on every Python version."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nonlocal-ssh",
        description="Bands, Zak phases, truncations, and finite-box spectra "
                    "of a dimerized chain with a non-local hop.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bands", help="bulk bands and off-diagonal phase over k")
    _add_common(p, BULK_KEYS)
    p.add_argument("--samples", type=int, default=201)
    p.add_argument("--kmin", type=float, default=None)
    p.add_argument("--kmax", type=float, default=None)
    p.set_defaults(func=_cmd_bands)

    p = sub.add_parser("zak", help="Zak phase (Wilson loop or quantized value)")
    _add_common(p, BULK_KEYS)
    p.add_argument("--band", choices=("plus", "minus"), default="plus")
    p.add_argument("--nk", type=int, default=2048)
    p.add_argument("--method", choices=("wilson", "analytic"), default="wilson")
    p.set_defaults(func=_cmd_zak)

    p = sub.add_parser("approx", help="gradient-truncated bands")
    _add_common(p, BULK_KEYS)
    p.add_argument("--order", choices=("0", "1", "2", "all"), default="all")
    p.add_argument("--samples", type=int, default=401)
    p.add_argument("--kmin", type=float, default=None)
    p.add_argument("--kmax", type=float, default=None)
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("berry", help="Berry integral of a truncated model")
    _add_common(p, BULK_KEYS)
    p.add_argument("--order", type=int, required=True, choices=(1, 2))
    p.add_argument("--band", choices=("plus", "minus"), default="plus")
    p.add_argument("--cutoff-k", type=float, default=None)
    p.add_argument("--nk", type=int, default=approx.BERRY_NK)
    p.set_defaults(func=_cmd_berry)

    p = sub.add_parser("finite", help="finite-box spectrum")
    _add_common(p, BOX_KEYS)
    p.add_argument("--tol-zero", type=float, default=finite.ZERO_TOL_DEFAULT,
                   help="zero-mode window as a fraction of |w0|")
    p.add_argument("--vectors", action="store_true",
                   help="also write per-midgap-state CSV files (needs --out)")
    p.set_defaults(func=_cmd_finite)

    p = sub.add_parser("compare-ssh", help="box spectrum vs. a single dimerized chain")
    _add_common(p, BOX_KEYS)
    p.add_argument("--tol-zero", type=float, default=finite.ZERO_TOL_DEFAULT)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("edge", help="analytic zero modes on the grid")
    _add_common(p, BOX_KEYS)
    p.add_argument("--n-a", "--nA", type=int, required=True, dest="n_a",
                   help="harmonic of the A mode")
    p.add_argument("--m-a", "--mA", type=int, default=0, dest="m_a",
                   help="phase branch of the A mode")
    p.add_argument("--n-b", "--nB", type=int, required=True, dest="n_b",
                   help="harmonic of the B mode")
    p.add_argument("--m-b", "--mB", type=int, default=0, dest="m_b",
                   help="phase branch of the B mode")
    p.set_defaults(func=_cmd_edge)

    return parser


# parse_args leaves a parser unchanged, so one parser serves every main()
# call in a process
_cached_parser = functools.lru_cache(maxsize=1)(build_parser)


def main(argv=None) -> int:
    parser = _cached_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    t0 = time.monotonic()
    try:
        code = args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 3
    print(f"[nonlocal-ssh] {args.command} finished in {time.monotonic() - t0:.3f} s",
          file=sys.stderr)
    return code


def app() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    app()
