"""Every function the traced benchmark run wraps must exist under the name
it is listed by, so that deleting or renaming one fails here instead of in a
`--trace 1` run."""

import importlib
import sys
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
