"""Per-layer spans for the benchmark, taken from outside the program.

The tracer replaces public functions of trapgraph's modules with timing
wrappers.  ``cli``, ``make_nice`` and ``run_dp`` look these names up as
module attributes at call time, so the wrappers see every call without any
change to the program.  A function that no longer exists is skipped, which
leaves its metrics absent instead of crashing the run.
"""

from __future__ import annotations

import importlib
import statistics
from collections import defaultdict
from time import perf_counter

KERNELS = ("introduce_variable", "forget_variable", "introduce_check",
           "forget_check", "join")


def _table_entries(table) -> int | None:
    entries = getattr(table, "entries", None)
    return None if entries is None else len(entries)


def _retained_entries(result) -> int | None:
    tables = getattr(result, "tables", None)
    if not tables:
        return None
    return sum(len(t.entries) for t in tables if t is not None)


# (module, attribute, layer name, count taken from the return value)
WRAPPED = [
    ("cli", "main", "cli", None),
    ("tanner", "parse_alist", "tanner.parse_alist", None),
    ("decomp", "heuristic_decomposition", "decomp.build", None),
    ("decomp", "sc_path_decomposition", "decomp.build", None),
    ("decomp", "validate", "decomp.validate", None),
    ("decomp", "make_nice", "decomp.make_nice", None),
    ("dpcore", "run_dp", "dpcore.run_dp", _retained_entries),
    *[("dpcore", k, f"dpcore.{k}", _table_entries) for k in KERNELS],
    ("witness", "extract_witness", "witness.extract_witness", None),
]


def wrappable():
    """(module, attribute, function, layer, count) of each function present."""
    for mod_name, attr, name, count in WRAPPED:
        try:
            module = importlib.import_module(f"trapgraph.{mod_name}")
        except ImportError:
            continue
        func = getattr(module, attr, None)
        if callable(func):
            yield module, attr, func, name, count


class Tracer:
    """Records spans in memory: (name, start, end, parent, op, count).

    ``parent`` is the index of the enclosing span or -1, ``op`` the index of
    the analyze call the span belongs to, and ``count`` the table entries
    the call returned, where the layer has any.
    """

    def __init__(self, op: int):
        self.spans: list[tuple | None] = []
        self.op = op
        self._stack: list[int] = []

    def install(self) -> None:
        """Wrap every function present; a child process never unwraps."""
        for module, attr, func, name, count in list(wrappable()):
            setattr(module, attr, self._wrap(func, name, count))

    def _wrap(self, orig, name, count):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op, None)
            if count is not None:
                spans[idx] = (name, t0, t1, parent, self.op, count(result))
            return result

        return wrapper


def per_op_layers(spans) -> dict[int, dict[str, float]]:
    """Per analyze call: self time, calls and entry counts of each layer.

    Self time is a span's duration minus the time its direct children cover.
    """
    covered = [0.0] * len(spans)
    for name, t0, t1, parent, op, n in spans:
        if parent >= 0:
            covered[parent] += t1 - t0
    ops: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for idx, (name, t0, t1, parent, op, n) in enumerate(spans):
        d = ops[op]
        d[f"{name}.self_s"] += t1 - t0 - covered[idx]
        d[f"{name}.total_s"] += t1 - t0
        d[f"{name}.calls"] += 1
        if name == "cli":
            d["trace.coverage"] = covered[idx] / (t1 - t0)
        elif name == "dpcore.run_dp":
            if n is not None:
                d["dpcore.retained_entries"] = max(
                    d["dpcore.retained_entries"], n)
        elif n is not None:
            d["dpcore.entries.total"] += n
            d["dpcore.entries.peak"] = max(d["dpcore.entries.peak"], n)
            d["dpcore.kernel_self_s"] += t1 - t0 - covered[idx]
    return ops


def layer_metrics(ops: dict[int, dict[str, float]], n_var: dict[int, int],
                  installed: set[str]) -> tuple[dict, dict]:
    """Median over traced analyze calls of each per-layer metric.

    ``n_var`` maps an op index to the code length it analyzed.  A metric of
    a layer that was wrapped but never called reads 0; one whose layer was
    not wrapped is absent.  Also returns each kernel's share of DP time.
    """
    if not ops:
        return {}, {}
    kernels = {f"dpcore.{k}" for k in KERNELS} & installed
    needs = {  # metric -> the layers that produce it
        "tanner.parse_alist.self_s": {"tanner.parse_alist"},
        "decomp.build.self_s": {"decomp.build"},
        "decomp.validate.self_s": {"decomp.validate"},
        "decomp.validate.calls": {"decomp.validate"},
        "decomp.make_nice.self_s": {"decomp.make_nice"},
        "dpcore.run_dp.self_s": {"dpcore.run_dp"},
        "dpcore.run_dp.calls": {"dpcore.run_dp"},
        "dpcore.retained_entries": {"dpcore.run_dp"},
        "dpcore.entries.total": kernels,
        "dpcore.entries.peak": kernels,
        "witness.extract_witness.self_s": {"witness.extract_witness"},
        "cli.self_s": {"cli"},
        "trace.coverage": {"cli"},
    }
    for k in KERNELS:
        needs[f"dpcore.{k}.self_s"] = needs[f"dpcore.{k}.calls"] = {f"dpcore.{k}"}
    out = {key: statistics.median(d.get(key, 0.0) for d in ops.values())
           for key, layers in needs.items() if layers & installed}
    rates, per_var, shares = [], [], defaultdict(list)
    for op, d in ops.items():
        if d.get("dpcore.kernel_self_s"):
            rates.append(d["dpcore.entries.total"] / d["dpcore.kernel_self_s"])
        dp_s = d.get("dpcore.run_dp.total_s")
        if dp_s:
            per_var.append(1e6 * dp_s / (n_var[op] * d["dpcore.run_dp.calls"]))
            for k in KERNELS:
                shares[k].append(d.get(f"dpcore.{k}.self_s", 0.0) / dp_s)
    if rates:
        out["dpcore.entries_per_s"] = statistics.median(rates)
    if per_var:
        out["dpcore.us_per_var"] = statistics.median(per_var)
    return out, {k: statistics.median(v) for k, v in shares.items()}
