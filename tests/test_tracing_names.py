"""Every name the benchmarks reach in bundleforge must exist, so that deleting
or renaming one fails here instead of in a benchmark run: the functions the
traced run wraps, under the names it lists them by, and every attribute the
benchmark scripts read off an imported bundleforge module."""

import ast
import importlib
import sys
import types
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))
from tracing import LAYERS  # noqa: E402

LISTED = [(layer, name) for layer, names in LAYERS.items() for name in names]


@pytest.mark.parametrize("layer, name", LISTED, ids=[f"{l}.{n}" for l, n in LISTED])
def test_traced_name_resolves(layer, name):
    module = importlib.import_module(f"bundleforge.{layer}")
    # Tracer.install wraps edge_list on the Graph class, everything else on
    # the layer's module.
    owner = module.Graph if name == "edge_list" else module
    assert callable(getattr(owner, name, None)), f"bundleforge.{layer} has no {name}"


def benchmark_references():
    """(module, attribute path) for every name the benchmark scripts read
    off an imported bundleforge module: bf.covering_adjacency,
    bf.products.make_covering_voltage, cli.main, and the names of
    `from bundleforge import ...`, read off a module imported that way
    too (ktheory.DEFAULT_N_MAX)."""
    refs = set()
    for path in sorted(BENCHMARKS.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.split(".")[0] == "bundleforge":
                        aliases[a.asname or a.name] = a.name
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "bundleforge":
                refs.update((node.module, (a.name,)) for a in node.names)
                package = importlib.import_module(node.module)
                for a in node.names:
                    if isinstance(getattr(package, a.name, None), types.ModuleType):
                        aliases[a.asname or a.name] = f"{node.module}.{a.name}"
        for node in ast.walk(tree):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if chain and isinstance(node, ast.Name) and node.id in aliases:
                refs.add((aliases[node.id], tuple(reversed(chain))))
    return sorted(refs)


REFERENCES = benchmark_references()
REFERENCE_IDS = [".".join((module, *attrs)) for module, attrs in REFERENCES]


def test_benchmarks_reference_bundleforge():
    assert "bundleforge.products.make_covering_voltage" in REFERENCE_IDS
    assert "bundleforge.graphs.DEFAULT_NODE_BUDGET" in REFERENCE_IDS
    # Read through `from bundleforge import ktheory`.
    assert "bundleforge.ktheory.DEFAULT_MAX_BASE_VERTICES" in REFERENCE_IDS


@pytest.mark.parametrize("module, attrs", REFERENCES, ids=REFERENCE_IDS)
def test_benchmark_name_resolves(module, attrs):
    obj = importlib.import_module(module)
    for i, attr in enumerate(attrs):
        assert hasattr(obj, attr), f"{module} has no {'.'.join(attrs[: i + 1])}"
        obj = getattr(obj, attr)
