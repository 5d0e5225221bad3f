"""The stdout of every CLI verb on its named cases, byte for byte against
expected files in tests/golden.  These pin the vertex order, the edge
order and the edge counts of every constructed graph as the CLI reports
them, and every other report a named case prints.

To rewrite the expected files after an intended change of output, run
``PYTHONPATH=src python tests/test_cli_golden.py --record``.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from bundleforge.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# Input graphs with edges in no particular order, both orientations, and
# vertex orders that are not sorted by label.
INPUTS = {
    "c4": {"vertices": ["a", "b", "c", "d"], "edges": [["d", "a"], ["b", "a"], ["c", "b"], ["c", "d"]]},
    "p3": {"vertices": ["2", "1", "3"], "edges": [["3", "2"], ["1", "2"]]},
}

CASES = {
    "product-cartesian": ["product", "--op", "cartesian", "--g1", "{c4}", "--g2", "{p3}", "--json"],
    "product-strong": ["product", "--op", "strong", "--g1", "{c4}", "--g2", "{p3}", "--json"],
    "product-strong-p3-c4": ["product", "--op", "strong", "--g1", "{p3}", "--g2", "{c4}", "--json"],
    "bundle-build-m3": ["bundle-build", "--case", "m3", "--json"],
    "bundle-build-prism": ["bundle-build", "--case", "prism", "--json"],
    "pullback-c6-m3": ["pullback", "--case", "c6-m3", "--json"],
    "subdirect-prism-m3": ["subdirect", "--case", "prism-m3", "--json"],
    "subdirect-mixed-m3-c6k2": ["subdirect", "--case", "mixed-m3-c6k2", "--json"],
    "cayley-z4-c4": ["cayley", "--case", "z4-c4", "--json"],
    "cayley-z4-k4": ["cayley", "--case", "z4-k4", "--json"],
    "cayley-z6-m3": ["cayley", "--case", "z6-m3", "--json"],
    "bundle-verify-m3": ["bundle-verify", "--case", "m3", "--json"],
    "bundle-verify-m62": ["bundle-verify", "--case", "m62", "--json"],
    "bundle-verify-prism": ["bundle-verify", "--case", "prism", "--json"],
    "bundle-verify-c6-c3-covering": ["bundle-verify", "--case", "c6-c3-covering", "--json"],
    "ktheory-c3-k2": ["ktheory", "--case", "c3-k2", "--n-max", "2", "--json"],
    "ktheory-p3-k2": ["ktheory", "--case", "p3-k2", "--n-max", "2", "--json"],
    "subdirect-group-z2z3-z6": ["subdirect-group", "--case", "z2z3-z6", "--json"],
    "invariance-check-z2z3-z6": ["invariance-check", "--case", "z2z3-z6", "--json"],
    "spectrum-k3": ["spectrum", "--case", "k3", "--json"],
    "export-m62-dot": ["export", "--case", "m62", "--format", "dot"],
    "export-fig12-dot": ["export", "--case", "fig12", "--format", "dot"],
    "export-fig24-json": ["export", "--case", "fig24", "--format", "json"],
    "export-c6k2-json-report": ["export", "--case", "c6k2", "--format", "json", "--out", "{out}", "--json"],
}


def run_case(argv, workdir):
    """Run the case with its input files written to workdir and the {name}
    placeholders in argv filled with their paths; returns the exit code."""
    paths = {"out": str(workdir / "out.txt")}
    for name, payload in INPUTS.items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(payload))
        paths[name] = str(path)
    return main([arg.format(**paths) for arg in argv])


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_unchanged(name, tmp_path, capsys):
    code = run_case(CASES[name], tmp_path)
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text()


def record() -> None:
    """Rewrite every expected file from the code on the path."""
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        out = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out):
            code = run_case(argv, Path(tmp))
        assert code == 0, (name, code)
        (GOLDEN / f"{name}.txt").write_text(out.getvalue())


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
