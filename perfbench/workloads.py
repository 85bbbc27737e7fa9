"""Seeded op generators for the benchmark workloads.

A workload is an endless sequence of cycles. A cycle is a fixed list of op
slots (op type, size, phase); the seed draws everything else (hop m = a/dx,
grid step, coupling magnitudes, sign pairs, labels) and the order of the
slots. A run executes whole cycles, so every run sees the same op sizes
whatever the seed, and latency quantiles do not depend on where the clock
stopped.

The program under test receives only the argv built here.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

WORKLOADS = ("cli-startup", "box-spectrum", "bulk-tables")

SIGN_PAIRS = ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))
SAME_SIGN_PAIRS = ((1.0, 1.0), (-1.0, -1.0))
OPPOSITE_SIGN_PAIRS = ((1.0, -1.0), (-1.0, 1.0))

# The 2002-level acceptance box of the package's release gate.
ACCEPTANCE_BOX = {"v0": 0.5, "w0": 1.0, "a": 0.2, "L": 10.0, "dx": 0.01}

DX_CHOICES = (0.01, 0.02, 0.025, 0.05)

# |v0/w0| ranges per phase. With at least MIN_CELLS cells per chain the
# topological edge splitting is below 0.5**40 ~ 1e-12 |w0|, four decades
# under the default zero window 1e-8 |w0|, so midgap counts never sit on
# the window's edge.
TOPOLOGICAL_RATIO = (0.3, 0.5)
TRIVIAL_RATIO = (2.0, 3.3)
MIN_CELLS, MAX_CELLS = 40, 100

# Edge boxes: ln|w0/v0| * (L/a) is drawn from this range, so the analytic
# modes are clean at the far wall (e^-40 ~ 4e-18) and exp(q x) stays far from
# overflow at the largest boxes.
EDGE_DECAY = (60.0, 150.0)
# Highest harmonic drawn for edge labels. The phase argument grows like
# n * L/a; past this the rounding of cos() alone nears the 1e-10 residual gate
# on 10^5-point boxes.
EDGE_MAX_HARMONIC = 6

BERRY_DEFAULT_NK = 200_001

# Dense routes hold about this many bytes per squared point count:
# SVD of C (C, U, Vt, work), the dense 2P x 2P single chain of compare-ssh,
# and 2P SpinorGrids of two complex P-vectors for --vectors.
DENSE_BYTES_PER_P2 = 8 * 4 + 8 * 8 + 16 * 4
# Share of the machine's memory one dense op may plan to use. The guard
# refuses the 80002-level box (the dense C alone is 12.8 GB); the 8002-level
# box fits but is left out because one op takes 24 s (compare-ssh 65 s).
# Both come back once the structure-exploiting solver lands (ROADMAP item 2).
DENSE_MEMORY_SHARE = 0.25

@dataclass
class Op:
    """One CLI invocation and what the check needs to judge it."""

    kind: str  # finite, vectors, compare, bands, approx, zak, berry, edge
    argv: list
    params: dict
    refusal_ok: tuple = ()  # exit codes that count as an accepted refusal
    out: str | None = None  # --out path, for ops that write files


def machine_memory_bytes() -> int:
    total = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    try:
        with open("/sys/fs/cgroup/memory.max", encoding="ascii") as fh:
            raw = fh.read().strip()
        if raw.isdigit():
            total = min(total, int(raw))
    except OSError:
        pass
    return total


def dense_route_bytes(levels: int) -> int:
    p = levels // 2
    return DENSE_BYTES_PER_P2 * p * p


def check_size(levels: int) -> None:
    """Refuse a box whose dense route would not fit in the machine's memory."""
    need = dense_route_bytes(levels)
    limit = DENSE_MEMORY_SHARE * machine_memory_bytes()
    if need > limit:
        raise ValueError(
            f"{levels}-level box needs ~{need / 1e9:.1f} GB on the dense route, "
            f"over the {limit / 1e9:.1f} GB guard"
        )


def _num(x: float) -> str:
    return repr(float(x))


def _couplings(rng: random.Random, phase: str, signs) -> tuple[float, float]:
    w = rng.uniform(0.8, 1.25)
    lo, hi = TOPOLOGICAL_RATIO if phase == "topological" else TRIVIAL_RATIO
    v = w * rng.uniform(lo, hi)
    return signs[0] * v, signs[1] * w


def _box_argv(box: dict) -> list:
    return ["--v0", _num(box["v0"]), "--w0", _num(box["w0"]), "--a", _num(box["a"]),
            "--L", _num(box["L"]), "--dx", _num(box["dx"])]


def _bulk_argv(bulk: dict) -> list:
    return ["--v", _num(bulk["v"]), "--w", _num(bulk["w"]), "--a", _num(bulk["a"])]


def spectrum_box(rng: random.Random, points: int, phase: str, signs) -> dict:
    """Box of 2 * points levels whose m chains each hold 40-100 cells."""
    check_size(2 * points)
    dx = rng.choice(DX_CHOICES)
    lo = max(2, math.ceil(points / MAX_CELLS))
    m = rng.randint(lo, max(lo, points // MIN_CELLS))
    v0, w0 = _couplings(rng, phase, signs)
    return {"v0": v0, "w0": w0, "a": m * dx, "L": (points - 1) * dx, "dx": dx}


def edge_box(rng: random.Random, points: int, signs) -> dict:
    """Topological box with L a whole number of hops, as the labels require."""
    dx = rng.choice(DX_CHOICES)
    m = rng.randint(8, 20)
    hops = max(1, round((points - 1) / m))
    ratio = math.exp(rng.uniform(*EDGE_DECAY) / hops)
    w = rng.uniform(0.8, 1.25)
    a = m * dx
    return {"v0": signs[0] * w / ratio, "w0": signs[1] * w, "a": a, "L": hops * a, "dx": dx}


def bulk_params(rng: random.Random, phase: str | None = None) -> dict:
    """Gapped bulk couplings, any sign pair; |v + w| >= 0.5 |w|."""
    phase = phase or rng.choice(("topological", "trivial"))
    v, w = _couplings(rng, phase, rng.choice(SIGN_PAIRS))
    return {"v": v, "w": w, "a": rng.uniform(0.5, 2.0)}


def finite_op(box: dict) -> Op:
    return Op("finite", ["finite", *_box_argv(box)], box)


def vectors_op(box: dict, out: str) -> Op:
    return Op("vectors", ["finite", *_box_argv(box), "--vectors", "--out", out], box, out=out)


def compare_op(box: dict) -> Op:
    return Op("compare", ["compare-ssh", *_box_argv(box)], box)


def edge_op(rng: random.Random, box: dict) -> Op:
    m = round(box["a"] / box["dx"])
    top = max(1, min(EDGE_MAX_HARMONIC, m // 2 - 1))
    labels = {"n_a": rng.randint(1, top), "m_a": rng.randint(0, 3),
              "n_b": rng.randint(1, top), "m_b": rng.randint(0, 3)}
    argv = ["edge", *_box_argv(box), "--n-a", str(labels["n_a"]), "--m-a", str(labels["m_a"]),
            "--n-b", str(labels["n_b"]), "--m-b", str(labels["m_b"])]
    opposite = box["v0"] * box["w0"] < 0
    # ROADMAP item 4 lets the program refuse opposite-sign couplings with exit 2.
    return Op("edge", argv, {**box, **labels}, refusal_ok=(2,) if opposite else ())


def bands_op(bulk: dict, samples: int) -> Op:
    return Op("bands", ["bands", *_bulk_argv(bulk), "--samples", str(samples)],
              {**bulk, "samples": samples})


def approx_op(bulk: dict, order: str, samples: int) -> Op:
    return Op("approx", ["approx", *_bulk_argv(bulk), "--order", order, "--samples", str(samples)],
              {**bulk, "order": order, "samples": samples})


def zak_op(bulk: dict, band: str, nk: int, method: str = "wilson") -> Op:
    argv = ["zak", *_bulk_argv(bulk), "--band", band, "--nk", str(nk), "--method", method]
    return Op("zak", argv, {**bulk, "band": band, "nk": nk, "method": method})


def berry_op(bulk: dict, order: int, band: str, nk: int) -> Op:
    argv = ["berry", *_bulk_argv(bulk), "--order", str(order), "--band", band, "--nk", str(nk)]
    return Op("berry", argv, {**bulk, "order": order, "band": band, "nk": nk})


def _signs_for(rng: random.Random, n: int, pairs=SIGN_PAIRS) -> list:
    """n sign pairs, each pair used equally often, in seeded order."""
    out = [pairs[i % len(pairs)] for i in range(n)]
    rng.shuffle(out)
    return out


# --- cycles -------------------------------------------------------------

def _sizes(n: int, lo: float, hi: float) -> list:
    """n sizes spaced evenly in log over [lo, hi], one mid-slice of each of n slices.

    The sizes are fixed, not seeded: every cycle of every seed holds the
    same op sizes, so the latency quantiles move with the program and the
    machine, not with the draw. The seed varies what does not set an op's
    cost.
    """
    span = math.log(hi / lo)
    return [int(round(lo * math.exp(span * (i + 0.5) / n))) for i in range(n)]


def _phase(i: int) -> str:
    return "topological" if i % 2 == 0 else "trivial"


def box_spectrum_cycle(rng: random.Random, work: str) -> list:
    signs = iter(_signs_for(rng, 21))
    # The acceptance box, and a 3002-level box: the largest op of the cycle.
    ops = [finite_op(dict(ACCEPTANCE_BOX)), compare_op(dict(ACCEPTANCE_BOX)),
           finite_op(spectrum_box(rng, 1501, _phase(rng.randint(0, 1)), next(signs)))]
    for i, levels in enumerate(_sizes(10, 1000, 2800)):
        ops.append(finite_op(spectrum_box(rng, levels // 2, _phase(i), next(signs))))
    for i, levels in enumerate(_sizes(4, 1000, 1500)):
        box = spectrum_box(rng, levels // 2, _phase(i), next(signs))
        ops.append(vectors_op(box, os.path.join(work, f"levels-{i}.csv")))
    for i, levels in enumerate(_sizes(6, 1000, 2000)):
        ops.append(compare_op(spectrum_box(rng, levels // 2, _phase(i), next(signs))))
    rng.shuffle(ops)
    return ops


def _band(rng: random.Random) -> str:
    return rng.choice(("plus", "minus"))


def bulk_tables_cycle(rng: random.Random, work: str) -> list:
    ops = [bands_op(bulk_params(rng), n) for n in _sizes(5, 1e4, 9e4) + [100_000]]
    # The largest table of each kind has 10^5 rows.
    ops += [approx_op(bulk_params(rng), "all", n) for n in _sizes(3, 1e4, 9e4) + [100_000]]
    ops += [approx_op(bulk_params(rng), order, n)
            for order, n in zip("012012", _sizes(6, 1e4, 1e5))]
    ops += [zak_op(bulk_params(rng), _band(rng), nk) for nk in _sizes(6, 2 ** 16, 2 ** 20)]
    ops += [berry_op(bulk_params(rng), order, _band(rng), factor * BERRY_DEFAULT_NK)
            for order in (1, 2) for factor in (1, 10)]
    signs = _signs_for(rng, 8, SAME_SIGN_PAIRS)
    sizes = _sizes(7, 1e4, 9e4) + [100_001]
    ops += [edge_op(rng, edge_box(rng, n, s)) for n, s in zip(sizes, signs)]
    rng.shuffle(ops)
    return ops


def cli_startup_cycle(rng: random.Random, work: str) -> list:
    ops = [zak_op(bulk_params(rng), _band(rng), nk, method)
           for nk, method in zip(_sizes(3, 256, 8192), ("wilson", "wilson", "analytic"))]
    ops += [bands_op(bulk_params(rng), n) for n in _sizes(3, 101, 2001)]
    ops += [approx_op(bulk_params(rng), order, n)
            for order, n in zip(("all", "all", "1", "2"), _sizes(4, 101, 2001))]
    ops += [berry_op(bulk_params(rng), order, _band(rng), BERRY_DEFAULT_NK) for order in (1, 2, 1, 2)]
    signs = _signs_for(rng, 4, SAME_SIGN_PAIRS)
    ops += [edge_op(rng, edge_box(rng, n, s)) for n, s in zip(_sizes(4, 1001, 4001), signs)]
    signs = _signs_for(rng, 4)
    ops += [finite_op(spectrum_box(rng, levels // 2, _phase(i), signs[i]))
            for i, levels in enumerate(_sizes(4, 200, 400))]
    rng.shuffle(ops)
    return ops


CYCLES = {
    "cli-startup": cli_startup_cycle,
    "box-spectrum": box_spectrum_cycle,
    "bulk-tables": bulk_tables_cycle,
}


def cycle(workload: str, seed: int, index: int, work: str) -> list:
    """The index-th cycle of a workload: same seed and index, same ops."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    return CYCLES[workload](rng, work)


def warmup_ops(workload: str, work: str) -> list:
    """Small, fixed ops that touch every code path of a workload once."""
    rng = random.Random(f"warmup:{workload}")
    bulk = {"v": 0.5, "w": 1.0, "a": 1.0}
    small_box = spectrum_box(rng, 101, "topological", (1.0, 1.0))
    if workload == "cli-startup":
        return [zak_op(bulk, "plus", 256)]
    if workload == "box-spectrum":
        return [finite_op(small_box), vectors_op(small_box, os.path.join(work, "warmup.csv")),
                compare_op(small_box)]
    return [bands_op(bulk, 101), approx_op(bulk, "all", 101), approx_op(bulk, "2", 101),
            zak_op(bulk, "plus", 256), berry_op(bulk, 1, "plus", BERRY_DEFAULT_NK),
            edge_op(rng, edge_box(rng, 1001, (1.0, 1.0)))]


def sign_defect_ops(seed: int) -> list:
    """Opposite-sign edge ops, which the seed program answers wrongly.

    They are kept out of the timed workloads (a workload's ops must all
    succeed at seed) and run by the traced run as a separate probe, so a fix
    shows as a drop in edge.sign_defect_failed_frac.
    """
    rng = random.Random(f"sign-defect:{seed}")
    pairs = _signs_for(rng, 4, OPPOSITE_SIGN_PAIRS)
    return [edge_op(rng, edge_box(rng, n, s)) for n, s in zip(_sizes(4, 1001, 4001), pairs)]
