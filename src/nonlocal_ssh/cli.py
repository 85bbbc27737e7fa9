"""Command-line interface.

Subcommands: bands, zak, approx, berry, finite, edge, compare-ssh. Curve
data goes out as CSV, scalar results as single-line JSON. Parameters come
from flags or a flat key=value config file (--config), flags winning.

Output routing: a CSV-producing command writes its table to --out (or
stdout) and echoes the resolved inputs on stderr. Commands that produce a
table plus scalar diagnostics (finite, edge, compare-ssh) write the table
to --out and the JSON to stdout, or, without --out, the table to stdout
and the JSON to stderr. Reruns with identical inputs are byte-identical on
every primary stream; elapsed time is reported only on stderr.

Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import approx, bulk, edge, finite
from .errors import ModelError, NumericalError, ValidationError
from .model import BulkParams, FiniteParams
from .serialize import (
    ResultEnvelope,
    Table,
    complex_fields,
    emit_csv,
    emit_json,
    load_config,
)

BULK_KEYS = ("v", "w", "a")
BOX_KEYS = ("v0", "w0", "a", "L", "dx")


def _add_common(p: argparse.ArgumentParser, keys) -> None:
    p.add_argument("--config", help="flat key = value parameter file")
    for key in keys:
        p.add_argument(f"--{key}", type=float, default=None)
    p.add_argument("--out", help="write the primary output to this file")


def _resolve(args, keys) -> dict[str, float]:
    config = load_config(args.config) if args.config else {}
    resolved = {}
    for key in keys:
        val = getattr(args, key)
        if val is None:
            val = config.get(key)
        if val is None:
            raise ValidationError(f"missing parameter {key!r} (flag --{key} or config file)")
        resolved[key] = float(val)
    return resolved


def _bulk_params(args) -> BulkParams:
    got = _resolve(args, BULK_KEYS)
    return BulkParams(v=got["v"], w=got["w"], a=got["a"])


def _box_params(args) -> FiniteParams:
    got = _resolve(args, BOX_KEYS)
    return FiniteParams(v0=got["v0"], w0=got["w0"], a=got["a"], L=got["L"], dx=got["dx"])


def _write_table(table: Table, out: str | None, inputs: dict) -> None:
    emit_json({"inputs": inputs}, sys.stderr)
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            emit_csv(table, fh)
    else:
        emit_csv(table, sys.stdout)


def _write_table_and_json(table: Table, doc: dict, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            emit_csv(table, fh)
        emit_json(doc, sys.stdout)
    else:
        emit_csv(table, sys.stdout)
        emit_json(doc, sys.stderr)


def _cmd_bands(args) -> int:
    params = _bulk_params(args)
    kmin = args.kmin if args.kmin is not None else -np.pi / params.a
    kmax = args.kmax if args.kmax is not None else np.pi / params.a
    if args.samples < 2:
        raise ValidationError("--samples must be >= 2")
    k = np.linspace(kmin, kmax, args.samples)
    bp = bulk.energy_bands(params, k)
    phi = bulk.phase_phi(params, k)
    inputs = {"command": "bands", "v": params.v, "w": params.w, "a": params.a,
              "kmin": float(kmin), "kmax": float(kmax), "samples": args.samples}
    table = Table(columns=["k", "E_minus", "E_plus", "phi"],
                  rows=np.column_stack([k, bp.e_minus, bp.e_plus, phi]))
    _write_table(table, args.out, inputs)
    return 0


def _cmd_zak(args) -> int:
    params = _bulk_params(args)
    if args.method == "analytic":
        res = bulk.zak_analytic(params)
    else:
        res = bulk.zak_wilson(params, band=args.band, nk=args.nk)
    inputs = {"command": "zak", "v": params.v, "w": params.w, "a": params.a,
              "band": args.band, "nk": args.nk, "method": args.method}
    envelope = ResultEnvelope(inputs=inputs, result={
        "gamma": res.value,
        "classification": res.classification,
        "k_points": res.k_points,
    })
    _emit_envelope(envelope, args.out)
    return 0


def _cmd_approx(args) -> int:
    params = _bulk_params(args)
    if args.samples < 2:
        raise ValidationError("--samples must be >= 2")
    inputs = {"command": "approx", "v": params.v, "w": params.w, "a": params.a,
              "order": args.order, "samples": args.samples}
    if args.order == "all":
        cols, rows = approx.comparison_table(params, k_samples=args.samples)
        table = Table(columns=cols, rows=rows)
    else:
        order = int(args.order)
        kmin = args.kmin if args.kmin is not None else -np.pi / params.a
        kmax = args.kmax if args.kmax is not None else np.pi / params.a
        inputs["kmin"], inputs["kmax"] = float(kmin), float(kmax)
        k = np.linspace(kmin, kmax, args.samples)
        bp = approx.approx_bands(params, order, k)
        table = Table(columns=["k", "E_minus", "E_plus"],
                      rows=np.column_stack([k, bp.e_minus, bp.e_plus]))
    _write_table(table, args.out, inputs)
    return 0


def _cmd_berry(args) -> int:
    params = _bulk_params(args)
    res = approx.berry_integral(params, order=args.order, band=args.band,
                                cutoff_k=args.cutoff_k, nk=args.nk)
    inputs = {"command": "berry", "v": params.v, "w": params.w, "a": params.a,
              "order": args.order, "band": args.band,
              "cutoff_k": res.cutoff_k, "nk": args.nk}
    envelope = ResultEnvelope(inputs=inputs, result={
        "value": res.value,
        "cutoff_k": res.cutoff_k,
        "error": res.quadrature_error,
    })
    _emit_envelope(envelope, args.out)
    return 0


def _box_inputs(command: str, params: FiniteParams, **extra) -> dict:
    doc = {"command": command, "v0": params.v0, "w0": params.w0,
           "a": params.a, "L": params.L, "dx": params.dx}
    doc.update(extra)
    return doc


def _check_tol(tol: float) -> float:
    if not tol > 0.0:
        raise ValidationError(f"--tol-zero must be positive, got {tol}")
    return tol


def _cmd_finite(args) -> int:
    params = _box_params(args)
    if args.compare_ssh:
        return _run_compare(args, params)
    if args.vectors and not args.out:
        raise ValidationError("--vectors needs --out to place per-state files")
    tol_abs = _check_tol(args.tol_zero) * abs(params.w0)
    op = finite.build_finite(params)
    res = finite.spectrum(op, want_vectors=args.vectors)
    n_zero = finite.zero_mode_count(res.eigenvalues, tol_abs)
    inputs = _box_inputs("finite", params, tol_zero=args.tol_zero, vectors=bool(args.vectors))
    table = Table(columns=["index", "eigenvalue"],
                  rows=np.column_stack([np.arange(res.eigenvalues.size), res.eigenvalues]))
    _write_table(table, args.out, inputs)
    emit_json({"zero_modes": n_zero, "levels": int(res.eigenvalues.size),
               "tol_zero_abs": tol_abs, "residual_bound": res.residual_bound,
               "method": res.method}, sys.stderr)
    if args.vectors:
        base = Path(args.out)
        # res.vectors builds a state only when indexed: only midgap ones here
        for j in np.flatnonzero(np.abs(res.eigenvalues) < tol_abs):
            state = res.vectors[j]
            st = Table(
                columns=["x", "abs_psi_a", "abs_psi_b"],
                rows=np.column_stack([op.grid.x, np.abs(state.psi_a), np.abs(state.psi_b)]),
            )
            name = base.with_name(f"{base.stem}-state-{j:04d}{base.suffix or '.csv'}")
            with open(name, "w", encoding="utf-8", newline="") as fh:
                emit_csv(st, fh)
    return 0


def _run_compare(args, params: FiniteParams) -> int:
    tol_abs = _check_tol(args.tol_zero) * abs(params.w0)
    cmp = finite.compare_ssh(params, tol_zero=tol_abs)
    idx = np.arange(cmp.e_box.size)
    table = Table(columns=["index", "E_box", "E_ssh"],
                  rows=np.column_stack([idx, cmp.e_box, cmp.e_chain]))
    inputs = _box_inputs("compare-ssh", params, tol_zero=args.tol_zero)
    doc = ResultEnvelope(inputs=inputs, result={
        "ks_distance": cmp.ks_distance,
        "zero_modes_box": cmp.zero_modes_box,
        "zero_modes_ssh": cmp.zero_modes_chain,
        "levels": int(cmp.e_box.size),
        "tol_zero_abs": cmp.tol_zero,
    }).payload()
    _write_table_and_json(table, doc, args.out)
    return 0


def _cmd_compare(args) -> int:
    return _run_compare(args, _box_params(args))


def _cmd_edge(args) -> int:
    params = _box_params(args)
    op = finite.build_finite(params)
    mode_a = edge.build_zero_mode(params, "A", edge.EdgeLabels(n=args.n_a, m=args.m_a))
    mode_b = edge.build_zero_mode(params, "B", edge.EdgeLabels(n=args.n_b, m=args.m_b))
    res_a = edge.operator_residual(op, mode_a.state)
    res_b = edge.operator_residual(op, mode_b.state)
    fit_a = edge.localization_fit(op.grid, mode_a.state.psi_a, params.a)
    fit_b = edge.localization_fit(op.grid, mode_b.state.psi_b, params.a)
    table = Table(
        columns=["x", "abs_psi_a", "abs_psi_b", "re_psi_a", "re_psi_b"],
        rows=np.column_stack([
            op.grid.x,
            np.abs(mode_a.state.psi_a), np.abs(mode_b.state.psi_b),
            np.real(mode_a.state.psi_a), np.real(mode_b.state.psi_b),
        ]),
    )
    inputs = _box_inputs("edge", params, n_a=args.n_a, m_a=args.m_a,
                         n_b=args.n_b, m_b=args.m_b)
    doc = ResultEnvelope(inputs=inputs, result={
        "q_a": complex_fields(mode_a.q),
        "q_b": complex_fields(mode_b.q),
        "residual_a": res_a,
        "residual_b": res_b,
        "residual": max(res_a, res_b),
        "fitted_slope_a": fit_a.slope,
        "fitted_slope_b": fit_b.slope,
    }).payload()
    _write_table_and_json(table, doc, args.out)
    return 0


def _emit_envelope(envelope: ResultEnvelope, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            emit_json(envelope.payload(), fh)
    else:
        emit_json(envelope.payload(), sys.stdout)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--compare-ssh", action="store_true",
                   help="emit the box vs. single-chain comparison instead")
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


def main(argv=None) -> int:
    parser = build_parser()
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
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    print(f"[nonlocal-ssh] {args.command} finished in {time.monotonic() - t0:.3f} s",
          file=sys.stderr)
    return code


def app() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    app()
