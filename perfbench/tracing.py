"""Spans around the calls into each module of the package, from outside it.

Tracer.install() replaces every public function of the layer modules (and
the public methods of their classes) with a wrapper, everywhere the package
holds a reference to it: the defining module, the modules that imported it
by name (cli.emit_csv, finite.validate_finite, ...) and the package
namespace. uninstall() puts the originals back. Each wrapper records a span
(op id, span id, parent id, layer, name, start, end, whether an exception
left it, extras) in memory; spans are written out when the run ends.

serialize.format_float is left unwrapped: emit_csv and emit_json call it
once per value, so a span per call would cost more than the work and its
time is already inside their spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import threading
import time
import tracemalloc

LAYERS = ("cli", "model", "bulk", "approx", "finite", "edge", "serialize")
UNWRAPPED = {"serialize.format_float"}

# per-layer metrics that are mean inclusive seconds per call of one function
CALL_TIMES = {
    "bulk.zak_wilson_s": "bulk.zak_wilson",
    "bulk.energy_bands_s": "bulk.energy_bands",
    "bulk.phase_phi_s": "bulk.phase_phi",
    "approx.berry_integral_s": "approx.berry_integral",
    "approx.comparison_table_s": "approx.comparison_table",
    "edge.build_zero_mode_s": "edge.build_zero_mode",
    "edge.operator_residual_s": "edge.operator_residual",
    "edge.localization_fit_s": "edge.localization_fit",
    "finite.build_finite_s": "finite.build_finite",
    "finite.spectrum_s": "finite.spectrum",
    "finite.ssh_spectrum_s": "finite.ssh_spectrum",
    "serialize.emit_csv_s": "serialize.emit_csv",
    "serialize.emit_json_s": "serialize.emit_json",
}
# mean self seconds per call: duration minus the time child spans cover
SELF_TIMES = {
    "cli.main_self_s": "cli.main",
    "finite.compare_ssh_self_s": "finite.compare_ssh",
}
VALIDATORS = ("model.validate_bulk", "model.validate_finite")


class _Counting:
    """Write-through stream proxy that counts characters (for pipes)."""

    def __init__(self, stream):
        self.stream, self.count = stream, 0

    def write(self, text):
        self.count += len(text)
        return self.stream.write(text)


def _spectrum_hook(call, args, kwargs, extra):
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        result = call(*args, **kwargs)
    finally:
        extra["peak_bytes"] = tracemalloc.get_traced_memory()[1] - base
        if started:
            tracemalloc.stop()
    extra["levels"] = int(result.eigenvalues.size)
    extra["vectors"] = len(result.vectors) if result.vectors is not None else 0
    return result


def _emit_csv_hook(call, args, kwargs, extra):
    table, stream = args[0], args[1]
    try:
        start = stream.tell()
    except (OSError, AttributeError, ValueError):
        counting = _Counting(stream)
        result = call(table, counting, *args[2:], **kwargs)
        extra["bytes"] = counting.count
        return result
    result = call(*args, **kwargs)
    extra["bytes"] = stream.tell() - start
    return result


HOOKS = {"finite.spectrum": _spectrum_hook, "serialize.emit_csv": _emit_csv_hook}


class Tracer:
    """Installs the layer wrappers around one op at a time and keeps the spans."""

    def __init__(self):
        self.spans: list = []
        self.op_id = None
        self._local = threading.local()
        self._next_id = 0
        modules = [importlib.import_module("nonlocal_ssh")]
        modules += [importlib.import_module(f"nonlocal_ssh.{name}") for name in LAYERS]
        self._patches = self._plan(modules)

    def _plan(self, modules) -> list:
        wrappers = {}
        for mod in modules[1:]:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if f"{layer}.{name}" not in UNWRAPPED:
                        wrappers[id(obj)] = (obj, self._wrap(obj, layer, f"{layer}.{name}"))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in vars(obj).items():
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            wrappers[id(fn)] = (fn, self._wrap(fn, layer, f"{layer}.{name}.{meth}"))
        patches = []
        owners = list(modules)
        owners += [cls for mod in modules[1:] for cls in vars(mod).values()
                   if inspect.isclass(cls) and cls.__module__ == mod.__name__]
        for owner in owners:
            for name, obj in list(vars(owner).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    patches.append((owner, name, obj, hit[1]))
        return patches

    def _wrap(self, fn, layer: str, name: str):
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._call(fn, layer, name, hook, args, kwargs)

        return wrapper

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, fn, layer, name, hook, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        self._next_id += 1
        sid = self._next_id
        stack.append(sid)
        extra: dict = {}
        raised = False
        t0 = time.perf_counter()
        try:
            if hook is None:
                return fn(*args, **kwargs)
            return hook(fn, args, kwargs, extra)
        except BaseException:
            raised = True
            raise
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append([self.op_id, sid, parent, layer, name, t0, t1, raised, extra])

    def install(self) -> None:
        for owner, name, _orig, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, orig, _wrapper in self._patches:
            setattr(owner, name, orig)

    def run_op(self, op_id, call):
        """Run call() as one traced op under a root span named bench.op."""
        self.op_id = op_id
        self.install()
        try:
            return self._call(call, "bench", "bench.op", None, (), {})
        finally:
            self.uninstall()
            self.op_id = None


def write_spans(path: str, spans: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def load_spans(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _covered(intervals: list) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def aggregate(spans: list, op_extras: dict) -> dict:
    """Per-layer metrics from the spans of the traced ops.

    op_extras carries what the checks saw: states written by --vectors ops
    and the oracle's decoupled_spectrum timings.
    """
    by_id = {(s[0], s[1]): s for s in spans}
    children: dict = {}
    for s in spans:
        if s[2] is not None:
            children.setdefault((s[0], s[2]), []).append((s[5], s[6]))
    stats: dict = {}
    layer_calls = {layer: 0 for layer in LAYERS}
    layer_raised = {layer: 0 for layer in LAYERS}
    ops = {s[0] for s in spans if s[4] == "bench.op"}
    levels = vectors = vector_calls = csv_bytes = 0
    peak = 0
    for s in spans:
        op, sid, parent, layer, name, t0, t1, raised, extra = s
        if layer not in layer_calls:
            continue
        dur = t1 - t0
        self_t = dur - _covered(children.get((op, sid), []))
        st = stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += dur
        st[2] += self_t
        layer_calls[layer] += 1
        parent_span = by_id.get((op, parent))
        if raised and (parent_span is None or parent_span[3] != layer):
            layer_raised[layer] += 1
        if name == "finite.spectrum":
            levels += extra["levels"]
            peak = max(peak, extra["peak_bytes"])
            if extra["vectors"]:
                vectors += extra["vectors"]
                vector_calls += 1
        elif name == "serialize.emit_csv":
            csv_bytes += extra["bytes"]

    def per_call(name, col):
        st = stats.get(name)
        return st[col] / st[0] if st else 0.0

    def total(name):
        return stats.get(name, [0, 0.0, 0.0])[1]

    n_ops = max(1, len(ops))
    out = {metric: per_call(name, 1) for metric, name in CALL_TIMES.items()}
    out.update({metric: per_call(name, 2) for metric, name in SELF_TIMES.items()})
    out["model.validate_calls_per_op"] = sum(stats.get(v, [0])[0] for v in VALIDATORS) / n_ops
    spectrum_time = total("finite.spectrum")
    out["finite.spectrum_levels_per_s"] = levels / spectrum_time if spectrum_time else 0.0
    out["finite.spectrum_peak_mb"] = peak / 1e6
    out["finite.vectors_built"] = vectors / vector_calls if vector_calls else 0.0
    written = sum(op_extras.get("states_written", []))
    out["finite.vectors_used_ratio"] = written / vectors if vectors else 0.0
    oracle = op_extras.get("decoupled_spectrum_s", [])
    out["finite.decoupled_spectrum_s"] = statistics.fmean(oracle) if oracle else 0.0
    csv_time = total("serialize.emit_csv")
    out["serialize.emit_csv_mb_per_s"] = csv_bytes / 1e6 / csv_time if csv_time else 0.0
    for layer in LAYERS:
        out[f"{layer}.calls"] = layer_calls[layer]
        out[f"{layer}.raised"] = layer_raised[layer]
    return out
