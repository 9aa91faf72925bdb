"""Per-layer tracing from outside the program.

Wrappers go around the public functions of each ``isoresidual`` module, in
every module namespace that imported them, so calls between modules are
seen too.  A wrapper records a span (name, start, end, parent) in flat
arrays; the hottest helpers are only counted.  Self time is a span's
duration minus the time its child spans cover.  Cache statistics come from
``cache_info()`` deltas over the traced call.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter_ns

# (module, attribute, metric prefix): calls get a span.
SPANNED = (
    ("profiles", "vanishing_subsets", "profiles.vanishing_subsets"),
    ("profiles", "structure_from_generators", "profiles.structure_from_generators"),
    ("profiles", "all_vanishing_structures", "profiles.all_vanishing_structures"),
    ("profiles", "realize_residues", "profiles.realize_residues"),
    ("exactarith", "parse_gaussian_rational", "exactarith.parse_gaussian_rational"),
    ("partitions", "enumerate_partitions", "partitions.enumerate_partitions"),
    ("partitions", "_partitions_by_size", "partitions.partitions_by_size"),
    ("counting", "count_closed_form", "counting.count_closed_form"),
    ("counting", "_count_total", "counting.count_total"),
    ("levelgraph", "count_recursive", "levelgraph.count_recursive"),
    ("levelgraph", "boundary_graphs", "levelgraph.boundary_graphs"),
    ("levelgraph", "induced_structures", "levelgraph.induced_structures"),
    ("levelgraph", "twist", "levelgraph.twist"),
    ("oracle", "oracle_count", "oracle.oracle_count"),
    ("oracle", "residue_functions", "oracle.residue_functions"),
    ("verification", "check_recursion_equivalence",
     "verification.check_recursion_equivalence"),
    ("verification", "check_oracle_equivalence", "verification.check_oracle_equivalence"),
    ("verification", "check_multiplier_bridge", "verification.check_multiplier_bridge"),
)
# Called hundreds of thousands of times per sweep: counted, no span.
COUNTED = (
    ("_linalg", "kernel_reduce", "linalg.kernel_reduce"),
    ("_linalg", "kernel_contains", "linalg.kernel_contains"),
    ("exactarith", "falling_f", "counting.falling_f"),
)
# lru-cached functions whose cache_info() the metrics read.
CACHED = (
    ("profiles", "_span_closure", "profiles.span_closure"),
    ("partitions", "_partitions_by_size", "partitions.partitions_by_size"),
    ("counting", "_count_total", "counting.count_total"),
    ("levelgraph", "boundary_graphs", "levelgraph.boundary_graphs"),
    ("levelgraph", "induced_structures", "levelgraph.induced_structures"),
    ("oracle", "residue_functions", "oracle.residue_functions"),
)
ROOT = "cli"
GCD = "oracle.poly_gcd"


class Tracer:
    """Spans of one traced worker, kept in memory until it ends."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.spans = array("q")  # name index, start, end, parent span
        self.stack = [-1]
        self.counts: dict[str, int] = {}
        self.tallies = {"partitions_summed": 0, "graphs_walked": 0,
                        "strata": 0, "rigid": 0}
        self.cache_start: dict[str, tuple[int, int]] = {}
        self.caches: dict = {}

    def span(self, name: str, fn, on_result=None):
        code = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            index = len(spans) // 4
            spans.extend((code, perf_counter_ns(), 0, stack[-1]))
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[4 * index + 2] = perf_counter_ns()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def count(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- results --------------------------------------------------------

    def self_times(self) -> tuple[dict[str, int], dict[str, int]]:
        """Calls and self time in ns per span name."""
        spans = self.spans
        total = len(spans) // 4
        child = [0] * total
        for i in range(total):
            parent = spans[4 * i + 3]
            if parent >= 0:
                child[parent] += spans[4 * i + 2] - spans[4 * i + 1]
        calls = dict.fromkeys(self.names, 0)
        self_ns = dict.fromkeys(self.names, 0)
        for i in range(total):
            name = self.names[spans[4 * i]]
            calls[name] += 1
            self_ns[name] += spans[4 * i + 2] - spans[4 * i + 1] - child[i]
        return calls, self_ns

    def layers(self, report_bytes: int) -> dict[str, float]:
        """Every per-layer metric, by the names BENCHMARK.json lists."""
        calls, self_ns = self.self_times()
        out: dict[str, float] = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_ns[name] / 1e9
        for name, count in self.counts.items():
            out[f"{name}.calls"] = count
        for name, fn in self.caches.items():
            info = fn.cache_info()
            hits0, misses0 = self.cache_start[name]
            hits, misses = info.hits - hits0, info.misses - misses0
            out[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
            out[f"{name}.cache_size"] = info.currsize
        tallies = self.tallies
        out["counting.partitions_summed"] = tallies["partitions_summed"]
        out["levelgraph.graphs_walked"] = tallies["graphs_walked"]
        out["levelgraph.rigid_ratio"] = (
            tallies["rigid"] / tallies["strata"] if tallies["strata"] else 0.0
        )
        out[f"{ROOT}.report_bytes"] = report_bytes
        return out

    def module_self_s(self) -> dict[str, float]:
        """Self time summed per module, to name each workload's top layer."""
        _, self_ns = self.self_times()
        out: dict[str, float] = {}
        for name, ns in self_ns.items():
            module = name.split(".")[0]
            out[module] = out.get(module, 0.0) + ns / 1e9
        return out

    def write(self, path) -> None:
        """Spans as a JSON header line followed by the raw int64 array."""
        header = {"run_id": self.run_id, "names": self.names,
                  "fields": ["name", "start_ns", "end_ns", "parent"]}
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            self.spans.tofile(out)


def _replace(original, wrapper) -> None:
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("isoresidual"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _module(short: str):
    return sys.modules[f"isoresidual.{short}"]


def install(tracer: Tracer, cli_module):
    """Wrap the traced functions everywhere; returns the wrapped cli.main."""
    tallies = tracer.tallies

    def summed(breakdown):
        tallies["partitions_summed"] += sum(size for _, _, size in breakdown.per_s)

    def walked(graphs):
        tallies["graphs_walked"] += len(graphs)

    def stratum(induced):
        tallies["strata"] += 1
        tallies["rigid"] += induced.bottom_dim == 1

    hooks = {
        "counting.count_closed_form": summed,
        "levelgraph.boundary_graphs": walked,
        "levelgraph.induced_structures": stratum,
    }
    for short, attr, name in CACHED:
        fn = getattr(_module(short), attr)
        tracer.caches[name] = fn
        info = fn.cache_info()
        tracer.cache_start[name] = (info.hits, info.misses)
    for short, attr, name in SPANNED:
        original = getattr(_module(short), attr)
        _replace(original, tracer.span(name, original, hooks.get(name)))
    for short, attr, name in COUNTED:
        original = getattr(_module(short), attr)
        _replace(original, tracer.count(name, original))
    poly = _module("oracle").Poly
    poly.gcd = staticmethod(tracer.span(GCD, poly.__dict__["gcd"].__func__))
    return tracer.span(ROOT, cli_module.main)
