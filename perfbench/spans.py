"""Run-time wrapper spans around the public functions of every enscgp module.

A :class:`Tracer` wraps each public function and method of the layer
modules and patches the wrapper into every module and class that binds the
original, so calls made from inside the package (``psd.eig_psd`` reached
through ``psd.canonical_sqrt``, ``condition`` as imported by ``cli``) are
caught as well. Spans are kept in memory and written out at the end; the
per-layer metrics are derived from them afterwards.

A few spans also add computed work counts (eigen/SVD work, dense bytes,
normals drawn, file bytes) from their arguments; these are computed from
shapes and file sizes, not measured.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict
from statistics import median

import numpy as np

LAYERS = ("psd", "gaussian", "quadprog", "rkhs", "kernels", "ensemble",
          "experiments", "rng", "matio", "cli")

# per-number formatting helper, called once per printed value; a span
# around it would measure the tracer rather than the layer
UNTRACED = {"matio.format_float"}

MATIO_GROUPS = {
    "matio.read": ("matio.read_matrix", "matio.read_vector", "matio.loads_matrix"),
    "matio.write": ("matio.write_matrix", "matio.dumps_matrix"),
}


def _arg(fn_sig, args, kwargs, name):
    return fn_sig.bind(*args, **kwargs).arguments[name]


def _hook_eig(counts, sig, args, kwargs, result):
    n = np.shape(_arg(sig, args, kwargs, "matrix"))[0]
    counts["psd.eig_cubic_work"] += n ** 3
    counts["psd.max_eig_dim"] = max(counts["psd.max_eig_dim"], n)


def _hook_svd(counts, sig, args, kwargs, result):
    n, p = np.shape(_arg(sig, args, kwargs, "factor"))
    counts["psd.eig_cubic_work"] += n * p * min(n, p)
    counts["psd.max_eig_dim"] = max(counts["psd.max_eig_dim"], min(n, p))


def _hook_build_qp(counts, sig, args, kwargs, result):
    counts["quadprog.dense_bytes"] += 8 * _arg(sig, args, kwargs, "prior").dim ** 2


def _hook_from_factor(counts, sig, args, kwargs, result):
    counts["rkhs.dense_bytes"] += 2 * 8 * _arg(sig, args, kwargs, "factor").dim ** 2


def _hook_reuse(counts, sig, args, kwargs, result):
    n = _arg(sig, args, kwargs, "prior").dim
    k_max = _arg(sig, args, kwargs, "k_max")
    counts["experiments.collapse_held_bytes"] += (k_max + 1) * (n * n + n) * 8


def _hook_blocked(counts, sig, args, kwargs, result):
    bound = sig.bind(*args, **kwargs).arguments
    counts["rng.normals_drawn"] += bound["n"] * bound["n_members"]


def _hook_member(counts, sig, args, kwargs, result):
    counts["rng.normals_drawn"] += _arg(sig, args, kwargs, "n")


def _hook_normals(counts, sig, args, kwargs, result):
    counts["rng.normals_drawn"] += result.size


def _hook_read(counts, sig, args, kwargs, result):
    counts["matio.bytes_read"] += os.path.getsize(_arg(sig, args, kwargs, "path"))


def _hook_write(counts, sig, args, kwargs, result):
    counts["matio.bytes_written"] += os.path.getsize(_arg(sig, args, kwargs, "path"))


def _hook_main(counts, sig, args, kwargs, result):
    argv = list(_arg(sig, args, kwargs, "argv") or ())
    if result != 0:
        counts["cli.exit_nonzero"] += 1
    if "--out" in argv:
        out = argv[argv.index("--out") + 1]
        if os.path.exists(out):
            counts["cli.report_bytes"] += os.path.getsize(out)


def _hook_audit(counts, sig, args, kwargs, result):
    counts["experiments.audit_fail"] += not result.passed
    counts["experiments.max_mean_disc"] = max(counts["experiments.max_mean_disc"],
                                              result.max_mean_discrepancy)
    counts["experiments.max_cov_disc"] = max(counts["experiments.max_cov_disc"],
                                             result.cov_discrepancy)


HOOKS = {
    "psd.eig_psd": _hook_eig,
    "psd.canonicalize_factor": _hook_svd,
    "quadprog.build_qp": _hook_build_qp,
    "rkhs.from_factor": _hook_from_factor,
    "experiments.repeated_reuse": _hook_reuse,
    "rng.blocked_normals": _hook_blocked,
    "rng.blocked_member_normals": _hook_member,
    "rng.normals": _hook_normals,
    "matio.read_matrix": _hook_read,
    "matio.write_matrix": _hook_write,
    "cli.main": _hook_main,
    "experiments.run_equivalence": _hook_audit,
}

COUNTERS = ("psd.eig_cubic_work", "psd.max_eig_dim", "quadprog.dense_bytes",
            "rkhs.dense_bytes", "experiments.collapse_held_bytes", "rng.normals_drawn",
            "matio.bytes_read", "matio.bytes_written", "cli.exit_nonzero",
            "cli.report_bytes", "experiments.audit_fail", "experiments.max_mean_disc",
            "experiments.max_cov_disc")
# counters that are a maximum over the run rather than a per-step total
MAXIMA = ("psd.max_eig_dim", "experiments.max_mean_disc", "experiments.max_cov_disc")
# counters derived from argument shapes and file sizes, not measured
COMPUTED = ("psd.eig_cubic_work", "psd.max_eig_dim", "quadprog.dense_bytes",
            "rkhs.dense_bytes", "experiments.collapse_held_bytes", "rng.normals_drawn",
            "matio.bytes_read", "matio.bytes_written", "cli.report_bytes")


class Tracer:
    """Wraps the package's public functions; spans live in ``self.spans``."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, step id)
        self.counts = dict.fromkeys(COUNTERS, 0.0)
        self.names: set[str] = set()  # every span name the patches can record
        self.step = None
        self._stack: list[int] = []
        self._patches = self._plan()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        self.names.add(name)
        hook = HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.step)
            if hook is not None:
                hook(tracer.counts, sig, args, kwargs, result)
            return result

        return wrapper

    def _plan(self):
        """List (owner, attribute, original, wrapper) for every binding site."""
        modules = {layer: importlib.import_module(f"enscgp.{layer}") for layer in LAYERS}
        everywhere = list(modules.values()) + [importlib.import_module("enscgp")]
        patches = []
        wrappers = {}  # id(original function) -> wrapper
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and f"{layer}.{attr}" not in UNTRACED:
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth, raw in vars(obj).items():
                        if meth.startswith("_"):
                            continue
                        if inspect.isfunction(raw):
                            patches.append((obj, meth, raw, self._wrap(f"{layer}.{meth}", raw)))
                        elif isinstance(raw, classmethod):
                            wrapped = self._wrap(f"{layer}.{meth}", raw.__func__)
                            patches.append((obj, meth, raw, classmethod(wrapped)))
        for module in everywhere:
            for attr, obj in vars(module).items():
                if id(obj) in wrappers and inspect.isfunction(obj):
                    patches.append((module, attr, obj, wrappers[id(obj)]))
        return patches

    def traced(self, fn):
        """``fn`` under a root span ``bench.step``, the benchmark's own time."""
        return self._wrap("bench.step", fn)

    def begin(self, step_id):
        """Patch the package in and attribute the coming spans to ``step_id``."""
        self.step = step_id
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def end(self):
        """Restore the original functions."""
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        self.step = None

    def self_times(self):
        """Per-span-name self time and call count over the whole run."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_by_name = defaultdict(float)
        calls_by_name = defaultdict(int)
        for (name, start, end, _, _), child in zip(self.spans, covered):
            self_by_name[name] += (end - start) - child
            calls_by_name[name] += 1
        return self_by_name, calls_by_name

    def layer_metrics(self, traced_steps, traced_times, untraced_times):
        """Every per-layer metric, per traced step where it is a total."""
        self_by_name, calls_by_name = self.self_times()
        for name in self.names:
            self_by_name.setdefault(name, 0.0)
            calls_by_name.setdefault(name, 0)
        per_step = 1.0 / max(traced_steps, 1)
        layer_self = defaultdict(float)
        layer_calls = defaultdict(int)
        for name, value in self_by_name.items():
            layer = name.split(".", 1)[0]
            layer_self[layer] += value
            layer_calls[layer] += calls_by_name[name]
        metrics = {}
        for name, value in self_by_name.items():
            metrics[f"{name}.self_s"] = value * per_step
            metrics[f"{name}.calls"] = calls_by_name[name] * per_step
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = layer_self[layer] * per_step
            metrics[f"{layer}.calls"] = layer_calls[layer] * per_step
        # the whole cli layer: argument parsing, dispatch, report rendering
        metrics["cli.main.self_s"] = metrics.pop("cli.self_s")
        for group, names in MATIO_GROUPS.items():
            metrics[f"{group}.self_s"] = sum(self_by_name[n] for n in names) * per_step
        for name, value in self.counts.items():
            metrics[name] = value if name in MAXIMA else value * per_step
        if traced_times and untraced_times:
            metrics["trace.overhead_frac"] = median(traced_times) / median(untraced_times) - 1.0
        return metrics

    def dump(self, path, meta):
        """Write the spans (name index, start, end, parent, step) as one JSON file."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], round(a, 7), round(b, 7), p, k] for n, a, b, p, k in self.spans]
        with open(path, "w") as fh:
            json.dump({"meta": meta, "names": names,
                       "columns": ["name", "start", "end", "parent", "step"],
                       "spans": rows}, fh, separators=(",", ":"))
