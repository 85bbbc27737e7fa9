"""Per-op correctness checks, each by a route independent of the program.

check() judges one finished op from its exit code and the bytes it wrote.
Nothing here runs inside the timed section. The routes:

- box eigenvalues: the benchmark's own chain oracle (the box is m open
  chains of two lengths; each length's spectrum comes from numpy's eigvalsh
  of a matrix built here), and the package's decoupled_spectrum, both to
  1e-9; the +-E pairing; the midgap count at the same tolerance;
- compare-ssh: the single-chain column from the singular values of the
  chain's bidiagonal block; ks_distance and the midgap counts recomputed
  from the emitted columns;
- zak, berry, bands, approx: closed forms;
- edge: the emitted columns must be the closed-form mode for the emitted q,
  whose residual under C = v0 I + w0 S_m (built here with numpy) is below
  1e-10; fitted slopes within 2% of -+(1/a) ln|w0/v0|.
"""

from __future__ import annotations

import json
import math
import os
import time

import numpy as np

ORACLE_TOL = 1e-9  # box and chain eigenvalues
PAIRING_RTOL = 1e-12  # |E_i + E_(2P-1-i)| relative to |v0| + |w0|
ZAK_TOL = 1e-6
BERRY_TOL = 1e-3
CURVE_TOL = 1e-9  # bands and approx columns
EDGE_RESIDUAL_TOL = 1e-10
EDGE_MATCH_RTOL = 1e-9  # emitted columns against the closed form
SLOPE_RTOL = 0.02
ZERO_TOL_DEFAULT = 1e-8  # the CLI's --tol-zero default, a share of |w0|


class CheckFailed(Exception):
    pass


def _require(cond, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def parse_csv(text: str, columns: list) -> np.ndarray:
    head, _, body = text.partition("\n")
    _require(head == ",".join(columns), f"header {head!r}, expected {','.join(columns)!r}")
    body = body.rstrip("\n")
    if not body:
        return np.empty((0, len(columns)))
    rows = body.count("\n") + 1
    values = np.fromstring(body.replace("\n", ","), sep=",")
    _require(values.size == rows * len(columns), "ragged or non-numeric CSV body")
    return values.reshape(rows, len(columns))


def json_lines(text: str) -> list:
    return [json.loads(line) for line in text.splitlines() if line.startswith("{")]


def _result_doc(text: str) -> dict:
    docs = [d for d in json_lines(text) if "result" in d]
    _require(len(docs) == 1, "expected one JSON result document")
    return docs[0]["result"]


def _wrap(x):
    return np.pi - np.mod(np.pi - np.asarray(x, dtype=float), 2.0 * np.pi)


# --- box spectra ---------------------------------------------------------

def box_shape(box: dict) -> tuple[int, int]:
    points = round(box["L"] / box["dx"]) + 1
    return points, round(box["a"] / box["dx"])


def open_chain_levels(n_cells: int, v: float, w: float) -> np.ndarray:
    """All 2n levels of an open chain, from eigvalsh of its interleaved matrix."""
    off = np.empty(2 * n_cells - 1)
    off[0::2], off[1::2] = v, w
    return np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))


def chain_oracle(box: dict) -> np.ndarray:
    """Box levels as m open chains: only two cell counts occur."""
    points, m = box_shape(box)
    long_cells, n_long = -(-points // m), points % m or m
    parts = [np.tile(open_chain_levels(long_cells, box["v0"], box["w0"]), n_long)]
    if n_long < m:
        parts.append(np.tile(open_chain_levels(long_cells - 1, box["v0"], box["w0"]), m - n_long))
    return np.sort(np.concatenate(parts))


def single_chain_levels(n_cells: int, v: float, w: float) -> np.ndarray:
    """Open chain levels as +- the singular values of its bidiagonal block."""
    block = np.diag(np.full(n_cells, v)) + np.diag(np.full(n_cells - 1, w), -1)
    s = np.linalg.svd(block, compute_uv=False)
    return np.sort(np.concatenate([-s, s]))


def _check_levels(box: dict, levels: np.ndarray, stats: dict) -> np.ndarray:
    points, _ = box_shape(box)
    _require(levels.size == 2 * points, f"{levels.size} levels, expected {2 * points}")
    scale = abs(box["v0"]) + abs(box["w0"])
    pairing = float(np.max(np.abs(levels + levels[::-1])))
    _require(pairing <= PAIRING_RTOL * scale, f"+-E pairing broken by {pairing:.1e}")
    oracle = chain_oracle(box)
    gap = float(np.max(np.abs(np.sort(levels) - oracle)))
    _require(gap <= ORACLE_TOL, f"levels differ from the chain oracle by {gap:.1e}")
    gap = float(np.max(np.abs(np.sort(levels) - _package_oracle(box, stats))))
    _require(gap <= ORACLE_TOL, f"levels differ from decoupled_spectrum by {gap:.1e}")
    return oracle


def _package_oracle(box: dict, stats: dict) -> np.ndarray:
    """The package's decoupled_spectrum, timed for finite.decoupled_spectrum_s."""
    from nonlocal_ssh import finite

    op = finite.build_finite(finite.FiniteParams(**box))
    t0 = time.perf_counter()
    levels = finite.decoupled_spectrum(op)
    stats["decoupled_spectrum_s"] = time.perf_counter() - t0
    return levels


def _midgap(levels: np.ndarray, box: dict) -> int:
    return int(np.sum(np.abs(levels) < ZERO_TOL_DEFAULT * abs(box["w0"])))


def check_finite(op, out: str, err: str, stats: dict) -> None:
    _check_finite_table(op, parse_csv(out, ["index", "eigenvalue"]), err, stats)


def _check_finite_table(op, table: np.ndarray, err: str, stats: dict) -> np.ndarray:
    box = op.params
    _require(np.array_equal(table[:, 0], np.arange(table.shape[0])), "index column is not 0..n-1")
    levels = table[:, 1]
    oracle = _check_levels(box, levels, stats)
    summary = [d for d in json_lines(err) if "zero_modes" in d]
    _require(len(summary) == 1, "no zero_modes summary on stderr")
    _require(summary[0]["zero_modes"] == _midgap(oracle, box),
             f"zero_modes {summary[0]['zero_modes']}, oracle {_midgap(oracle, box)}")
    return levels


def check_vectors(op, out: str, err: str, stats: dict) -> None:
    with open(op.out, encoding="utf-8") as fh:
        table = parse_csv(fh.read(), ["index", "eigenvalue"])
    levels = _check_finite_table(op, table, err, stats)
    points, _ = box_shape(op.params)
    stem, suffix = os.path.splitext(op.out)
    tol = ZERO_TOL_DEFAULT * abs(op.params["w0"])
    expected = [j for j, e in enumerate(levels) if abs(e) < tol]
    folder, base = os.path.split(stem)
    written = sorted(f for f in os.listdir(folder or ".") if f.startswith(base + "-state-"))
    _require(written == [f"{base}-state-{j:04d}{suffix}" for j in expected],
             f"{len(written)} state files for {len(expected)} midgap levels")
    x = -0.5 * op.params["L"] + op.params["dx"] * np.arange(points)
    for name in written:
        with open(os.path.join(folder, name), encoding="utf-8") as fh:
            state = parse_csv(fh.read(), ["x", "abs_psi_a", "abs_psi_b"])
        _require(state.shape[0] == points, f"{name}: {state.shape[0]} rows")
        _require(np.allclose(state[:, 0], x, rtol=0, atol=1e-9 * op.params["L"]), f"{name}: grid")
        norm = float(np.sum(state[:, 1] ** 2 + state[:, 2] ** 2))
        _require(abs(norm - 1.0) < 1e-9, f"{name}: norm {norm}")
    stats["states_written"] = len(written)


def check_compare(op, out: str, err: str, stats: dict) -> None:
    box = op.params
    table = parse_csv(out, ["index", "E_box", "E_ssh"])
    oracle = _check_levels(box, table[:, 1], stats)
    points, _ = box_shape(box)
    chain = single_chain_levels(points, box["v0"], box["w0"])
    gap = float(np.max(np.abs(table[:, 2] - chain)))
    _require(gap <= ORACLE_TOL, f"chain column differs from the bidiagonal route by {gap:.1e}")
    res = _result_doc(err)
    ks = kolmogorov(table[:, 1], table[:, 2])
    _require(abs(res["ks_distance"] - ks) <= 1e-12, f"ks_distance {res['ks_distance']}, recomputed {ks}")
    _require(res["zero_modes_box"] == _midgap(oracle, box), "zero_modes_box differs from the oracle")
    _require(res["zero_modes_ssh"] == _midgap(chain, box), "zero_modes_ssh differs from the chain route")
    _require(res["levels"] == 2 * points, "levels field")


def kolmogorov(a: np.ndarray, b: np.ndarray) -> float:
    xs, ys = np.sort(a), np.sort(b)
    at = np.union1d(xs, ys)
    fx = np.searchsorted(xs, at, side="right") / xs.size
    fy = np.searchsorted(ys, at, side="right") / ys.size
    return float(np.max(np.abs(fx - fy)))


# --- bulk ------------------------------------------------------------------

def _topological(p: dict) -> bool:
    return abs(p["v"]) < abs(p["w"])


def check_zak(op, out: str, err: str, stats: dict) -> None:
    doc = json.loads(out)["result"]
    expected = math.pi if _topological(op.params) else 0.0
    miss = abs(float(_wrap(doc["gamma"] - expected)))
    _require(miss <= ZAK_TOL, f"gamma {doc['gamma']} is {miss:.1e} from {expected}")
    cls = "topological" if expected else "trivial"
    _require(doc["classification"] == cls, f"classification {doc['classification']}")


def berry_closed_form(p: dict, order: int) -> float:
    v, w, a = p["v"], p["w"], p["a"]
    if order == 1:
        return -0.5 * math.pi * math.copysign(1.0, a * w * (v + w))
    return -math.pi if w * (v + w) > 0 else 0.0


def check_berry(op, out: str, err: str, stats: dict) -> None:
    doc = json.loads(out)["result"]
    expected = berry_closed_form(op.params, op.params["order"])
    _require(abs(doc["value"] - expected) <= BERRY_TOL, f"berry {doc['value']}, closed form {expected}")


def truncated_energy(p: dict, order: int, k: np.ndarray) -> np.ndarray:
    v, w, ak = p["v"], p["w"], p["a"] * k
    if order == 0:
        return np.full(k.shape, abs(v + w))
    re = (v + w) - (0.5 * w * ak * ak if order == 2 else 0.0)
    return np.hypot(re, w * ak)


def exact_energy(p: dict, k: np.ndarray) -> np.ndarray:
    v, w = p["v"], p["w"]
    return np.sqrt(v * v + w * w + 2.0 * v * w * np.cos(p["a"] * k))


def _check_band_pair(e_minus, e_plus, expected, what: str) -> None:
    scale = max(1.0, float(np.max(expected)))
    _require(np.max(np.abs(e_plus - expected)) <= CURVE_TOL * scale, f"{what} upper band")
    _require(np.max(np.abs(e_minus + expected)) <= CURVE_TOL * scale, f"{what} lower band")


def _zone(p: dict, n: int) -> np.ndarray:
    return np.linspace(-np.pi / p["a"], np.pi / p["a"], n)


def check_bands(op, out: str, err: str, stats: dict) -> None:
    p = op.params
    t = parse_csv(out, ["k", "E_minus", "E_plus", "phi"])
    _require(t.shape[0] == p["samples"], f"{t.shape[0]} rows")
    k = _zone(p, p["samples"])
    _require(np.allclose(t[:, 0], k, rtol=1e-12, atol=1e-12), "k column")
    _check_band_pair(t[:, 1], t[:, 2], exact_energy(p, k), "bands")
    phi = np.angle(p["v"] + p["w"] * np.exp(-1j * p["a"] * k))
    _require(np.max(np.abs(_wrap(t[:, 3] - phi))) <= CURVE_TOL, "phi column")


def check_approx(op, out: str, err: str, stats: dict) -> None:
    p = op.params
    n = p["samples"]
    if p["order"] == "all":
        cols = ["ka"] + [f"E{o}_{b}" for o in (0, 1, 2) for b in ("minus", "plus")] + ["E_minus", "E_plus"]
        t = parse_csv(out, cols)
        ka = np.linspace(-np.pi, np.pi, n)
        _require(t.shape[0] == n and np.allclose(t[:, 0], ka, rtol=1e-12, atol=1e-12), "ka column")
        k = ka / p["a"]
        for o in (0, 1, 2):
            _check_band_pair(t[:, 1 + 2 * o], t[:, 2 + 2 * o], truncated_energy(p, o, k), f"order {o}")
        _check_band_pair(t[:, 7], t[:, 8], exact_energy(p, k), "exact")
    else:
        t = parse_csv(out, ["k", "E_minus", "E_plus"])
        k = _zone(p, n)
        _require(t.shape[0] == n and np.allclose(t[:, 0], k, rtol=1e-12, atol=1e-12), "k column")
        _check_band_pair(t[:, 1], t[:, 2], truncated_energy(p, int(p["order"]), k), f"order {p['order']}")


# --- edge --------------------------------------------------------------------

def closed_form_mode(p: dict, q: complex, n: int, m: int, x: np.ndarray) -> np.ndarray:
    phase = (2 * m + 1) * np.pi / 2.0 + n * np.pi * p["L"] / p["a"]
    psi = np.cos(2.0 * np.pi * n * x / p["a"] + phase) * np.exp(q * x)
    return psi / np.linalg.norm(psi)


def apply_c(p: dict, psi: np.ndarray, transpose: bool) -> np.ndarray:
    """C psi or C^T psi for C = v0 I + w0 S_m, S[i, i - m] = 1."""
    m = round(p["a"] / p["dx"])
    out = p["v0"] * psi
    if transpose:
        out[:-m] += p["w0"] * psi[m:]
    else:
        out[m:] += p["w0"] * psi[:-m]
    return out


def check_edge(op, out: str, err: str, stats: dict) -> None:
    p = op.params
    t = parse_csv(out, ["x", "abs_psi_a", "abs_psi_b", "re_psi_a", "re_psi_b"])
    points, _ = box_shape(p)
    _require(t.shape[0] == points, f"{t.shape[0]} rows, expected {points}")
    x = -0.5 * p["L"] + p["dx"] * np.arange(points)
    _require(np.allclose(t[:, 0], x, rtol=0, atol=1e-9 * p["L"]), "x column")
    res = _result_doc(err)
    rate = math.log(abs(p["w0"] / p["v0"])) / p["a"]
    for comp, n, m, col, sign, transpose in (("a", p["n_a"], p["m_a"], 1, -1.0, True),
                                             ("b", p["n_b"], p["m_b"], 2, 1.0, False)):
        q = complex(res[f"q_{comp}"]["re"], res[f"q_{comp}"]["im"])
        psi = closed_form_mode(p, q, n, m, x)
        peak = float(np.max(np.abs(psi)))
        _require(np.max(np.abs(np.abs(psi) - t[:, col])) <= EDGE_MATCH_RTOL * peak,
                 f"abs_psi_{comp} is not the closed-form mode for q_{comp}")
        _require(np.max(np.abs(psi.real - t[:, col + 2])) <= EDGE_MATCH_RTOL * peak,
                 f"re_psi_{comp} is not the closed-form mode for q_{comp}")
        residual = float(np.linalg.norm(apply_c(p, psi, transpose)))
        _require(residual < EDGE_RESIDUAL_TOL, f"mode {comp}: residual {residual:.2e} under C")
        _require(res[f"residual_{comp}"] < EDGE_RESIDUAL_TOL, f"reported residual_{comp} {res[f'residual_{comp}']}")
        slope = res[f"fitted_slope_{comp}"]
        _require(abs(slope - sign * rate) <= SLOPE_RTOL * rate, f"slope_{comp} {slope}, expected {sign * rate}")


CHECKS = {
    "finite": check_finite,
    "vectors": check_vectors,
    "compare": check_compare,
    "zak": check_zak,
    "berry": check_berry,
    "bands": check_bands,
    "approx": check_approx,
    "edge": check_edge,
}


def check(op, code, out: str, err: str) -> tuple[bool, str, dict]:
    """(ok, reason, stats) for one op; a refusal is ok only where the op allows it."""
    stats: dict = {}
    if code != 0:
        if code in op.refusal_ok:
            return True, f"refused with exit {code}", stats
        tail = err.strip().splitlines()[-1:] or [""]
        return False, f"exit {code}: {tail[0][:200]}", stats
    try:
        CHECKS[op.kind](op, out, err, stats)
    except CheckFailed as exc:
        return False, str(exc), stats
    except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
        return False, f"unreadable output: {type(exc).__name__}: {exc}", stats
    return True, "", stats
