"""One fresh benchmark process: set up, run the timed ops, check each one.

Started by run.py with the pinned environment. Set-up is importing the
package, generating the first cycle of inputs and running the warm-up ops;
the process then prints READY, so run.py can time set-up from process start.
It ends by printing one JSON line with a record per op and the run's facts.

Closed loop, one client: the next op starts when the previous one has been
checked. Only the op itself is timed; checks, input generation and clean-up
run between timed sections. Cycles run whole; the run stops after the cycle
whose end lies nearest to --seconds of timed op time (untraced: after two
cycles at least).

With --trace each op runs twice, once with the layer tracer installed and
once without, alternating which goes first; the difference of the two
medians is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from importlib import metadata

import checks
import tracing
import workloads

OP_TIMEOUT_S = 60.0
HERE = os.path.dirname(os.path.abspath(__file__))


def _fresh_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


class InProcess:
    """Calls cli.main(argv) in this process with stdout and stderr captured."""

    def __init__(self, tracer_wanted: bool):
        from nonlocal_ssh import cli

        self.cli = cli
        self.tracer = tracing.Tracer() if tracer_wanted else None

    def run(self, argv: list, op_id=None):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if op_id is None:
                    code = self.cli.main(argv)
                else:
                    code = self.tracer.run_op(op_id, lambda: self.cli.main(argv))
        except Exception:  # a crash is a failed op, not a failed run
            code = None
            err.write(traceback.format_exc())
        latency = time.perf_counter() - t0
        if latency > OP_TIMEOUT_S:
            code = "timeout"
        return latency, code, out.getvalue(), err.getvalue()

    def spans(self) -> list:
        return self.tracer.spans if self.tracer else []

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


class Subprocess:
    """Runs each op as a fresh `python -m nonlocal_ssh` process."""

    def __init__(self, work: str):
        self.work = work
        self.span_files: list = []

    def run(self, argv: list, op_id=None):
        env = dict(os.environ)
        if op_id is None:
            cmd = [sys.executable, "-m", "nonlocal_ssh", *argv]
        else:
            cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), *argv]
            spans = os.path.join(self.work, f"spans-{op_id}.jsonl")
            env.update(PERFBENCH_SPANS=spans, PERFBENCH_OP=str(op_id))
            self.span_files.append(spans)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, timeout=OP_TIMEOUT_S, env=env)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - t0, "timeout", "", ""
        latency = time.perf_counter() - t0
        return latency, proc.returncode, proc.stdout.decode(), proc.stderr.decode()

    def spans(self) -> list:
        return [s for path in self.span_files if os.path.exists(path) for s in tracing.load_spans(path)]

    def peak_rss_mb(self) -> float:
        # ru_maxrss of the children is the largest op process waited for
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nonlocal_ssh_threads": os.environ.get("NONLOCAL_SSH_THREADS", "unset"),
    }


class Run:
    def __init__(self, args):
        self.args = args
        self.work = args.work
        self.ops_dir = os.path.join(args.work, "ops")  # --out files, cleared per op
        self.runner = (Subprocess(self.work) if args.workload == "cli-startup"
                       else InProcess(tracer_wanted=args.trace))
        self.records: list = []
        self.oracle_times: list = []
        self.states_written: list = []

    def execute(self, op, op_id=None) -> dict:
        if op.kind == "vectors":
            _fresh_dir(os.path.dirname(op.out))
        latency, code, out, err = self.runner.run(op.argv, op_id)
        ok, reason, stats = checks.check(op, code, out, err)
        if "decoupled_spectrum_s" in stats:
            self.oracle_times.append(stats["decoupled_spectrum_s"])
        if op_id is not None and "states_written" in stats:
            self.states_written.append(stats["states_written"])
        return {"kind": op.kind, "latency": latency, "ok": ok, "reason": reason,
                "traced": op_id is not None, "argv": op.argv if not ok else None}

    def timed(self, first_cycle: list) -> float:
        total, index, ops = 0.0, 0, first_cycle
        while True:
            cycle_s = 0.0
            for op in ops:
                n = len(self.records)
                if self.args.trace:
                    order = (None, n) if (n // 2) % 2 == 0 else (n, None)
                    pair = [self.execute(op, op_id) for op_id in order]
                else:
                    pair = [self.execute(op)]
                self.records.extend(pair)
                cycle_s += sum(r["latency"] for r in pair)
            total += cycle_s
            # Stop at the whole cycle whose end lies nearest to --seconds. An
            # untraced run makes two cycles at least, so that its p75 has ten
            # ops beyond it; a traced run runs each op twice and needs no tail.
            enough = index >= 1 or self.args.trace
            if enough and total + cycle_s / 2 >= self.args.seconds:
                return total
            index += 1
            ops = workloads.cycle(self.args.workload, self.args.seed, index, self.ops_dir)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import nonlocal_ssh  # set-up covers the package import

    here = os.path.dirname(os.path.abspath(nonlocal_ssh.__file__))
    if here != os.path.abspath(os.path.join("src", "nonlocal_ssh")):
        print(f"nonlocal_ssh imported from {here}, not from this checkout's src/", file=sys.stderr)
        return 1

    _fresh_dir(args.work)
    run = Run(args)
    for op in workloads.warmup_ops(args.workload, os.path.join(args.work, "warmup")):
        result = run.execute(op)
        if not result["ok"]:  # not counted; the timed ops will show the fault
            print(f"warm-up op failed: {op.argv}: {result['reason']}", file=sys.stderr)
    run.oracle_times.clear()
    first = workloads.cycle(args.workload, args.seed, 0, run.ops_dir)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    timed_s = run.timed(first)
    result = {"records": run.records, "timed_s": timed_s,
              "peak_rss_mb": run.runner.peak_rss_mb(), "env": environment()}
    if args.trace:
        probe = [run.execute(op) for op in workloads.sign_defect_ops(args.seed)]
        extras = {"states_written": run.states_written, "decoupled_spectrum_s": run.oracle_times}
        layers = tracing.aggregate(run.runner.spans(), extras)
        layers["edge.sign_defect_failed_frac"] = sum(not r["ok"] for r in probe) / len(probe)
        result["layers"] = layers
        result["sign_defect"] = [r["reason"] for r in probe]
        spans_out = os.path.join(os.path.dirname(args.work), f"spans-{args.workload}-{args.seed}.jsonl")
        tracing.write_spans(spans_out, run.runner.spans())
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
