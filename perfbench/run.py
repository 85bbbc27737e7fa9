"""Benchmark of the nonlocal-ssh CLI: three seeded, closed-loop workloads.

Usage, from the root of a checkout that holds src/nonlocal_ssh:

    python3 perfbench/run.py --workload box-spectrum --seed 1 --seconds 25 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run (see perfbench/README.md). The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}; the lines before it
give the environment, the op counts, the tail percentile and any failures.

The package is run from this checkout's src/, never from an installed copy,
with one BLAS thread and NONLOCAL_SSH_THREADS unset in every process.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_PROBES = 4  # extra fresh processes timed to set-up; the main one makes five
PROBE_RUNS = 5  # fresh interpreters per import probe in the traced run
# The tail is p75: with whole cycles of 22-34 ops a run has at least 44 ops,
# so p75 always has ten ops beyond it. A higher percentile would be
# resolvable only in some runs and would switch with the machine's speed.
# p50 is the fallback for a run too short to resolve p75.
TAIL_PERCENTILES = (50, 75)
MIN_BEYOND_TAIL = 10
RUN_LIMIT_S = 170.0
BLAS_THREADS = "1"


class BenchError(Exception):
    pass


def pinned_env() -> dict:
    env = dict(os.environ)
    env.pop("NONLOCAL_SSH_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Deadline:
    """Kills registered processes when the run's time limit passes."""

    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds
        self.procs: list = []
        self.expired = False
        self._timer = threading.Timer(seconds, self._expire)
        self._timer.daemon = True
        self._timer.start()

    def _expire(self) -> None:
        self.expired = True
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("run time limit reached")
        return left

    def cancel(self) -> None:
        self._timer.cancel()


def run_python(args: list, env: dict, deadline: Deadline) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=deadline.left())


def check_package() -> None:
    if not (SRC / "nonlocal_ssh" / "__init__.py").is_file():
        raise BenchError(f"no src/nonlocal_ssh under {ROOT}: run from a checkout of the repository")


def start_worker(args, env: dict, deadline: Deadline, setup_only: bool):
    """Start a fresh worker; returns (process, set-up seconds until READY)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(WORK / f"{args.workload}-{args.seed}")]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    deadline.procs.append(proc)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.wait()
        raise BenchError(f"worker failed during set-up (exit {proc.returncode}); see stderr")
    return proc, setup


def finish(proc) -> str:
    with proc.stdout:
        out = proc.stdout.read()
    proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out


def tail(latencies: list) -> tuple[float, float]:
    """Highest listed percentile with at least ten ops beyond it, and its value (nearest rank)."""
    xs = sorted(latencies)
    n = len(xs)
    best = TAIL_PERCENTILES[0]
    for q in TAIL_PERCENTILES:
        if n - math.ceil(q / 100 * n) >= MIN_BEYOND_TAIL:
            best = q
    return best, xs[max(0, math.ceil(best / 100 * n) - 1)]


def end_to_end(records: list, timed_s: float, setups: list, peak_rss_mb: float) -> tuple[dict, dict]:
    lat = [r["latency"] for r in records]
    ok = sum(r["ok"] for r in records)
    q, tail_s = tail(lat)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail_s,
        "ops_per_s": ok / timed_s,
        "peak_rss_mb": peak_rss_mb,
        "ops_ok_frac": ok / len(records),
    }
    return metrics, {"ops": len(records), "op_tail_percentile": q, "timed_s": timed_s,
                     "setup_samples_s": setups}


def import_probes(env: dict, deadline: Deadline) -> dict:
    """Fresh-interpreter costs: bare start, package import, scipy's share."""
    def wall(code):
        t0 = time.perf_counter()
        proc = run_python(["-c", code], env, deadline)
        if proc.returncode != 0:
            raise BenchError(f"probe failed: {proc.stderr.strip()[-300:]}")
        return time.perf_counter() - t0, proc

    interp = [wall("pass")[0] for _ in range(PROBE_RUNS)]
    code = "import time; t = time.perf_counter(); import nonlocal_ssh; print(time.perf_counter() - t)"
    imports = [float(wall(code)[1].stdout) for _ in range(PROBE_RUNS)]
    shares = []
    for _ in range(PROBE_RUNS):
        proc = run_python(["-X", "importtime", "-c", "import nonlocal_ssh"], env, deadline)
        shares.append(scipy_import_share(proc.stderr))
    return {"cli.interp_start_s": statistics.median(interp),
            "cli.import_s": statistics.median(imports),
            "cli.import_scipy_s": statistics.median(imports) * statistics.median(shares)}


def scipy_import_share(importtime: str) -> float:
    """Share of the package's import that the outermost scipy modules take.

    Read from -X importtime output, which lists modules children first, each
    with its cumulative microseconds and indented by nesting depth. The share
    is applied to the wall-clock import time, since importtime itself slows
    the import down.
    """
    stack: list = []  # (depth, scipy microseconds in that subtree)
    package_us = 0
    for line in importtime.splitlines():
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = len(name) - len(name.lstrip())
        name = name.strip()
        inner = 0
        while stack and stack[-1][0] > depth:
            inner += stack.pop()[1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        stack.append((depth, int(cumulative) if is_scipy else inner))
        if name == "nonlocal_ssh":
            package_us = int(cumulative)
    if not package_us:
        raise BenchError("-X importtime did not report nonlocal_ssh")
    return sum(us for _, us in stack) / package_us


def per_layer(result: dict, probes: dict) -> dict:
    layers = dict(result["layers"])
    layers.update(probes)
    untraced = [r["latency"] for r in result["records"] if not r["traced"]]
    traced = [r["latency"] for r in result["records"] if r["traced"]]
    layers["trace.op_p50_untraced_s"] = statistics.median(untraced)
    layers["trace.op_p50_traced_s"] = statistics.median(traced)
    layers["trace.overhead_s"] = layers["trace.op_p50_traced_s"] - layers["trace.op_p50_untraced_s"]
    return layers


def emit(spec_metrics: list, values: dict, records: list) -> None:
    names = [m["name"] for m in spec_metrics]
    missing = sorted(set(names) - set(values))
    extra = sorted(set(values) - set(names))
    if missing or extra:
        raise BenchError(f"metrics out of step with BENCHMARK.json: missing {missing}, extra {extra}")
    failed = sum(not r["ok"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics},
    }))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = Deadline(RUN_LIMIT_S)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        env = pinned_env()
        check_package()
        setups = []
        for _ in range(0 if args.trace else SETUP_PROBES):  # setup_s is an end-to-end metric
            proc, setup = start_worker(args, env, deadline, setup_only=True)
            finish(proc)
            setups.append(setup)
        proc, setup = start_worker(args, env, deadline, setup_only=False)
        setups.append(setup)
        result = json.loads(finish(proc).strip().splitlines()[-1])
        records = result["records"]
        print(json.dumps({"env": result["env"]}))
        failures = [(r["kind"], r["reason"], r["argv"]) for r in records if not r["ok"]]
        if args.trace:
            values = per_layer(result, import_probes(env, deadline))
            print(json.dumps({"ops": len(records), "traced_ops": sum(r["traced"] for r in records),
                              "sign_defect_probe": result["sign_defect"], "failures": failures[:10]}))
            emit(spec["per_layer"], values, records)
        else:
            values, info = end_to_end(records, result["timed_s"], setups, result["peak_rss_mb"])
            print(json.dumps({**info, "failures": failures[:10]}))
            emit(spec["end_to_end"], values, records)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        if deadline.expired:
            exc = BenchError("run time limit reached")
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        deadline.cancel()
        for proc in deadline.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        shutil.rmtree(WORK / f"{args.workload}-{args.seed}", ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
