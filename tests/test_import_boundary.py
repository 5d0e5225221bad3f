"""The import boundary: only bundleforge.matrices imports numpy, and the
matrix layer loads on first use.

Each cold-start check runs in a fresh interpreter, started with
``-X importtime`` so that stderr lists every module the process imported.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bundleforge.named import NAMED_GRAPHS, mobius_ladder_3

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "bundleforge"
GOLDEN = Path(__file__).resolve().parent / "golden"


def cold_run(args, cwd):
    """Run ``python -X importtime`` with args in a fresh process on this
    checkout's sources; returns the process and the set of modules it
    imported."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=120,
    )
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }
    return proc, imported


def loads_numpy(imported):
    return any(name == "numpy" or name.startswith("numpy.") for name in imported)


def cli_stderr(proc):
    return "".join(line + "\n" for line in proc.stderr.splitlines() if not line.startswith("import time:"))


@pytest.mark.parametrize("module", ["bundleforge", "bundleforge.cli"])
def test_import_leaves_numpy_unloaded(module, tmp_path):
    proc, imported = cold_run(["-c", f"import {module}"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert module in imported
    assert not loads_numpy(imported)


def test_matrix_names_load_on_first_access(tmp_path):
    script = (
        "import sys, bundleforge\n"
        "assert 'numpy' not in sys.modules and 'Matrix' not in vars(bundleforge)\n"
        "from bundleforge import Matrix, spectrum\n"
        "from bundleforge.matrices import Matrix as M, spectrum as s\n"
        "assert Matrix is M and spectrum is s and vars(bundleforge)['Matrix'] is M\n"
        "assert 'numpy' in sys.modules\n"
        "assert {'Matrix', 'Spectrum', 'adjacency_matrix', 'spectrum'} <= set(dir(bundleforge))\n"
        "try:\n"
        "    bundleforge.kronecker\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('kronecker is served')\n"
    )
    proc, _ = cold_run(["-c", script], tmp_path)
    assert proc.returncode == 0, proc.stderr


def _graph_files(cwd):
    (cwd / "k2.json").write_text(json.dumps(NAMED_GRAPHS["k2"]().to_json()))
    (cwd / "m3.json").write_text(json.dumps(mobius_ladder_3().to_json()))


COMBINATORIAL_VERBS = {
    "bundle-verify": ["bundle-verify", "--case", "m62"],
    "cayley": ["cayley", "--case", "z4-c4"],
    "ktheory": ["ktheory", "--case", "c3-k2", "--n-max", "2", "--json"],
    "invariance-check": ["invariance-check", "--case", "z2z3-z6"],
    "subdirect-group": ["subdirect-group", "--case", "z2z3-z6"],
    "export": ["export", "--case", "m62", "--format", "dot"],
    "product": ["product", "--g1", "m3.json", "--g2", "k2.json"],
    "subdirect-mixed": ["subdirect", "--case", "mixed-m3-c6k2"],
}


@pytest.mark.parametrize("name", sorted(COMBINATORIAL_VERBS))
def test_combinatorial_verbs_run_without_numpy(name, tmp_path):
    _graph_files(tmp_path)
    proc, imported = cold_run(["-m", "bundleforge", *COMBINATORIAL_VERBS[name]], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert cli_stderr(proc) == ""
    assert proc.stdout
    assert "bundleforge.cli" in imported
    assert not loads_numpy(imported)


MATRIX_VERBS = {
    "spectrum": (["spectrum", "--case", "k3"], "2.000000, -1.000000, -1.000000\n"),
    "bundle-build": (
        ["bundle-build", "--case", "m3"],
        "total space: 6 vertices, 9 edges\n"
        "adjacency formula matches construction: True\n"
        "trivial: False\n",
    ),
    "pullback": (["pullback", "--case", "c6-m3", "--json"], (GOLDEN / "pullback-c6-m3.txt").read_text()),
    "subdirect": (
        ["subdirect", "--case", "prism-m3"],
        "subdirect total: 12 vertices, 24 edges\n"
        "typed edges: I=6 II=6 III=12\n"
        "adjacency formula matches construction: True\n",
    ),
}


@pytest.mark.parametrize("name", sorted(MATRIX_VERBS))
def test_matrix_verbs_print_the_same_from_a_cold_process(name, tmp_path):
    argv, expected = MATRIX_VERBS[name]
    proc, imported = cold_run(["-m", "bundleforge", *argv], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected
    assert cli_stderr(proc) == ""
    assert loads_numpy(imported)


# --- the static check ------------------------------------------------------------


def _is_type_checking(test):
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _load_time_imports(body):
    """The import statements that run when a module body runs: those at
    the top level, in classes and in if, with and try blocks, but not in
    functions or under ``if TYPE_CHECKING:``."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If):
            if not _is_type_checking(node.test):
                yield from _load_time_imports(node.body)
            yield from _load_time_imports(node.orelse)
        elif isinstance(node, ast.ClassDef):
            yield from _load_time_imports(node.body)
        elif isinstance(node, ast.With):
            yield from _load_time_imports(node.body)
        elif isinstance(node, ast.Try):
            for block in (node.body, *(h.body for h in node.handlers), node.orelse, node.finalbody):
                yield from _load_time_imports(block)


def _matrix_layer_imports(source):
    """Names of the load-time imports in source that bring in numpy or
    bundleforge.matrices."""
    found = []
    for node in _load_time_imports(ast.parse(source).body):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif node.level == 0:
            modules = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            # Relative to the package: "from .matrices import x", "from . import matrices".
            prefix = "bundleforge" + (f".{node.module}" if node.module else "")
            modules = [f"{prefix}.{alias.name}" for alias in node.names]
        found += [
            m for m in modules
            if m == "numpy" or m.startswith("numpy.") or m.startswith("bundleforge.matrices")
        ]
    return found


def test_boundary_check_sees_load_time_imports():
    flagged = _matrix_layer_imports(
        "import numpy as np\n"
        "from .matrices import Matrix\n"
        "try:\n    from . import matrices\nexcept ImportError:\n    pass\n"
        "if TYPE_CHECKING:\n    from .matrices import Spectrum\n"
        "def f():\n    import numpy\n    from .matrices import spectrum\n"
        "class C:\n    from bundleforge.matrices import adjacency_matrix\n"
    )
    assert flagged == [
        "numpy",
        "bundleforge.matrices.Matrix",
        "bundleforge.matrices",
        "bundleforge.matrices.adjacency_matrix",
    ]


@pytest.mark.parametrize(
    "path", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "matrices.py")
)
def test_only_matrices_imports_numpy_at_load_time(path):
    assert _matrix_layer_imports((PACKAGE / path).read_text()) == []


# --- the import graph ------------------------------------------------------------


def _sibling_imports(source, modules):
    """The modules among ``modules`` that source imports anywhere: at load
    time, under ``if TYPE_CHECKING:`` and inside functions.  A name taken
    from the package itself, not one of its modules, counts as __init__."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level in (0, 1):
            package = node.module if node.level == 0 else ".".join(filter(None, ["bundleforge", node.module]))
            if package == "bundleforge":
                targets = [f"bundleforge.{alias.name}" for alias in node.names]
            else:
                targets = [package]
        else:
            continue
        for target in targets:
            head, _, rest = target.partition(".")
            if head == "bundleforge":
                name = rest.split(".")[0]
                found.add(name if name in modules else "__init__")
    return found


def _import_cycle(sources):
    """A cycle in the graph of imports between the modules of sources, a
    mapping of module name to source, as the list of its modules with the
    first repeated last; None when the graph has none."""
    edges = {name: _sibling_imports(source, sources) for name, source in sources.items()}
    state: dict = {}

    def visit(name, path):
        state[name] = "open"
        for nxt in sorted(edges.get(name, ())):
            if state.get(nxt) == "open":
                return path[path.index(nxt):] + [nxt]
            if nxt not in state:
                cycle = visit(nxt, path + [nxt])
                if cycle:
                    return cycle
        state[name] = "done"
        return None

    for name in sorted(edges):
        if name not in state:
            cycle = visit(name, [name])
            if cycle:
                return cycle
    return None


def test_cycle_check_sees_every_import():
    sources = {
        "a": "def f():\n    from .b import x\n",
        "b": "if TYPE_CHECKING:\n    from bundleforge.a import y\n",
        "c": "from . import a, b\nimport bundleforge\n",
    }
    assert _import_cycle(sources) == ["a", "b", "a"]
    assert _sibling_imports(sources["c"], sources) == {"a", "b", "__init__"}
    del sources["b"]
    assert _import_cycle(sources) is None


def test_package_import_graph_has_no_cycle():
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert _import_cycle(sources) is None
