"""Timing wrappers for the traced run.

install() rebinds each listed public function in every bundleforge.*
namespace that holds it (under any name), plus Graph.edge_list on the
class, with a wrapper that records a span {op_id, name, start, end, parent}.
Self time is a span's duration minus the durations of its wrapped children;
it is summed as spans close, so the metrics stay exact when the stored span
list is capped.  uninstall() puts the originals back.  Only the traced run
imports this module.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from typing import Optional

import oracles

LAYERS: dict[str, tuple[str, ...]] = {
    "graphs": ("find_isomorphism", "induced_subgraph", "automorphisms", "make_graph", "edge_list",
               "make_morphism", "validate_morphism"),
    "matrices": ("adjacency_matrix", "spectrum"),
    "products": ("cartesian_product", "strong_product", "verify_kfold_covering", "covering_adjacency"),
    "bundles": ("make_fiber_voltage", "voltage_bundle", "verify_bundle", "bundle_to_voltage",
                "bundles_equivalent", "is_trivial", "bundle_adjacency"),
    "pullback": ("pullback_bundle", "subdirect_product", "pullback_voltage", "subdirect_voltage",
                 "pullback_adjacency", "subdirect_adjacency"),
    "ktheory": ("enumerate_bundle_classes", "k0_map", "grothendieck_equal"),
    "groups": ("surjective_homs", "subdirect_group", "cayley_bundle", "verify_invariance",
               "symmetric_generating_sets", "admissible_generating_sets"),
    "cli": ("main",),
}

#: Spans kept in memory for the spans file; counts and times use every span.
MAX_STORED_SPANS = 100_000


def metric_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for layer, names in LAYERS.items():
        for name in names:
            out.append((f"{layer}.{name}.calls", "count", "lower"))
            out.append((f"{layer}.{name}.self_ms", "ms", "lower"))
    out += [(f"{layer}.errors", "count", "lower") for layer in LAYERS]
    out += [
        ("graphs.find_isomorphism.found_ratio", "ratio", "higher"),
        ("graphs.automorphisms.perms", "count", "lower"),
        ("bundles.verify_bundle.rejects", "count", "lower"),
        ("pullback.subdirect_product.typed_edges", "count", "lower"),
        ("ktheory.assignments", "count", "lower"),
        ("ktheory.classes", "count", "higher"),
        ("bundles.verify_bundle.growth_exp", "slope", "lower"),
        ("pullback.subdirect_product.growth_exp", "slope", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return out


def slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(time) against log(size); 0.0 when the
    sizes do not vary."""
    pts = [(math.log(n), math.log(t)) for n, t in points if n > 0 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


_AUT_ORDERS: dict = {}


def aut_order(fiber, n: int) -> int:
    """|Aut(F^n)| of a library graph, by the benchmark's own brute force."""
    key = (fiber.vertices, fiber.edges, n)
    if key not in _AUT_ORDERS:
        plain = oracles.index_graph(list(fiber.vertices), [tuple(e) for e in fiber.edges])
        _AUT_ORDERS[key] = len(oracles.automorphisms(*oracles.box_power(plain, n)))
    return _AUT_ORDERS[key]


class Tracer:
    def __init__(self) -> None:
        self.op_id = 0
        self.stack: list[list] = []
        self.next_id = 0
        self.spans: list[tuple] = []
        self.dropped = 0
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.errors = {layer: 0 for layer in LAYERS}
        self.found = 0
        self.perms = 0
        self.rejects = 0
        self.typed_edges = 0
        self.assignments = 0
        self.classes = 0
        self.growth: dict[str, list] = {"verify_bundle": [], "subdirect_product": []}
        self._saved: list[tuple[object, str, object]] = []

    # --- installing ----------------------------------------------------------------

    def install(self) -> None:
        for layer in LAYERS:
            importlib.import_module(f"bundleforge.{layer}")
        graphs_mod = sys.modules["bundleforge.graphs"]
        modules = [m for name, m in sys.modules.items() if name == "bundleforge" or name.startswith("bundleforge.")]
        for layer, names in LAYERS.items():
            owner = sys.modules[f"bundleforge.{layer}"]
            for name in names:
                if name == "edge_list":
                    original = graphs_mod.Graph.edge_list
                    self._bind(graphs_mod.Graph, "edge_list", self._wrap(layer, name, original))
                    continue
                original = getattr(owner, name)
                wrapper = self._wrap(layer, name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._bind(mod, attr, wrapper)

    def _bind(self, holder, attr: str, value) -> None:
        self._saved.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        for holder, attr, value in reversed(self._saved):
            setattr(holder, attr, value)
        self._saved.clear()

    def _wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        self.calls[key] = 0
        self.self_s[key] = 0.0
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            frame = [tracer.next_id, key, layer, 0.0]
            tracer.next_id += 1
            tracer.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer._close(frame, parent, start, end)
                if parent is None or parent[2] != layer:
                    tracer.errors[layer] += 1
                if name == "verify_bundle" and isinstance(exc, Exception):
                    tracer.rejects += 1
                if name == "enumerate_bundle_classes":
                    tracer._count_assignments(args, kwargs)
                raise
            end = time.perf_counter()
            tracer.stack.pop()
            tracer._close(frame, parent, start, end)
            tracer._observe(name, args, kwargs, result, end - start)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _close(self, frame: list, parent: Optional[list], start: float, end: float) -> None:
        span_id, key, _, child = frame
        duration = end - start
        self.calls[key] += 1
        self.self_s[key] += duration - child
        if parent is not None:
            parent[3] += duration
        if len(self.spans) < MAX_STORED_SPANS:
            self.spans.append((self.op_id, key, start, end, parent[0] if parent else None, span_id))
        else:
            self.dropped += 1

    def _observe(self, name: str, args, kwargs, result, duration: float) -> None:
        if name == "find_isomorphism":
            self.found += result is not None
        elif name == "automorphisms":
            self.perms += len(result)
        elif name == "verify_bundle":
            self.growth["verify_bundle"].append((result.total.n, duration))
        elif name == "subdirect_product":
            self.typed_edges += len(result.typed_edges)
            self.growth["subdirect_product"].append((result.total.n, duration))
        elif name == "enumerate_bundle_classes":
            self.classes += len(result.classes)
            self._count_assignments(args, kwargs)

    def _count_assignments(self, args, kwargs) -> None:
        """Sum of |Aut(F^n)|^|E| over the fiber powers the seed's walk
        completes: it stops at a base over its vertex cap, a power over the
        automorphism bound, or a power over the assignment cap."""
        from bundleforge import ktheory

        base, fiber = args[0], args[1]
        n_max = args[2] if len(args) > 2 else kwargs.get("n_max", ktheory.DEFAULT_N_MAX)
        if base.n > kwargs.get("max_base_vertices", ktheory.DEFAULT_MAX_BASE_VERTICES):
            return
        n_edges = len(base.edges)
        for n in range(n_max + 1):
            if fiber.n ** n > kwargs.get("aut_bound", 10):
                return
            walked = aut_order(fiber, n) ** n_edges
            if walked > kwargs.get("max_assignments", ktheory.DEFAULT_MAX_ASSIGNMENTS):
                return
            self.assignments += walked

    # --- results ---------------------------------------------------------------------

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        out: dict[str, float] = {}
        for key in self.calls:
            out[f"{key}.calls"] = self.calls[key]
            out[f"{key}.self_ms"] = self.self_s[key] * 1000.0
        for layer, count in self.errors.items():
            out[f"{layer}.errors"] = count
        finds = self.calls["graphs.find_isomorphism"]
        out["graphs.find_isomorphism.found_ratio"] = self.found / finds if finds else 0.0
        out["graphs.automorphisms.perms"] = self.perms
        out["bundles.verify_bundle.rejects"] = self.rejects
        out["pullback.subdirect_product.typed_edges"] = self.typed_edges
        out["ktheory.assignments"] = self.assignments
        out["ktheory.classes"] = self.classes
        out["bundles.verify_bundle.growth_exp"] = slope(self.growth["verify_bundle"])
        out["pullback.subdirect_product.growth_exp"] = slope(self.growth["subdirect_product"])
        out["trace.overhead_ratio"] = overhead_ratio
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"dropped": self.dropped, "fields": ["op_id", "name", "start", "end", "parent", "id"],
                       "spans": self.spans}, fh)
