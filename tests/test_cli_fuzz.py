"""Malformed input files through cli.main: every run must end in an exit
code of the contract (0 true, 1 false, 2 input error, 3 budget), never in a
traceback or the internal-error code 4.

Each example starts from valid files for one verb, then breaks one of them;
or it runs one verb's --case line on a drawn case name.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundleforge import complete_graph, cycle_graph
from bundleforge.cli import main
from bundleforge.groups import cyclic
from bundleforge.named import CASES, NAMED_GRAPHS, m3_bundle, twisted_ladder_voltage

LABELS = st.sampled_from(["1", "2", "3", "4", "6", "0", "(1,1)", "(2,1)", "a", "e", 1, 3])
RETYPES = [None, True, 3, 1.5, "1", [], ["1"], {}, {"1": "2"}]
KEYS = ["vertices", "edges", "base", "fiber", "phi", "elements", "table", "map", "1,2", "1", "e"]
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2, max_value=12),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.sampled_from(["", "1", "2", "3", "0", "e", "x", "(1,2)", "(1,1)", "1,2", "[1]"]),
)
JUNK = st.recursive(
    SCALARS,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.sampled_from(KEYS), kids, max_size=4),
    max_leaves=8,
)


M3, Z2 = m3_bundle(), cyclic(2)
VALID = {
    "graph": cycle_graph(4).to_json(),
    "k2": complete_graph(2).to_json(),
    "c3": cycle_graph(3).to_json(),
    "c6": cycle_graph(6).to_json(),
    "voltage": twisted_ladder_voltage().to_json(),
    "total": M3.total.to_json(),
    "proj": {"map": dict(M3.projection.pairs)},
    "mod3": {"map": {str(i): str((i - 1) % 3 + 1) for i in range(1, 7)}},
    "z2": Z2.to_json(),
    "id2": {"map": {x: x for x in Z2.elements}},
}

#: One command line per verb; "@name" stands for the path of file name.
VERBS = [
    ["spectrum", "--graph", "@graph"],
    ["export", "--graph", "@graph", "--format", "json"],
    ["product", "--g1", "@graph", "--g2", "@k2"],
    ["bundle-build", "--voltage", "@voltage"],
    ["bundle-verify", "--total", "@total", "--proj", "@proj", "--fiber", "@k2"],
    ["pullback", "--voltage", "@voltage", "--morphism", "@mod3", "--domain", "@c6"],
    ["subdirect", "--v1", "@voltage", "--v2", "@voltage"],
    ["cayley", "--group", "@z2", "--gens", "1"],
    ["subdirect-group", "--group-a", "@z2", "--group-b", "@z2", "--group-c", "@z2",
     "--eps-a", "@id2", "--eps-b", "@id2"],
    ["ktheory", "--base", "@c3", "--fiber", "@k2", "--n-max", "1"],
]
#: Every (command line, input to break) pair; the input is a file name or
#: the --gens value.  Each pair gets the same number of examples.
TARGETS = [
    (argv, target)
    for argv in VERBS
    for target in sorted({a[1:] for a in argv if a.startswith("@")} | ({"--gens"} & set(argv)))
]


def _strings(doc):
    """Every string value in doc, dictionary keys aside."""
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        for v in doc:
            yield from _strings(v)
    elif isinstance(doc, str):
        yield doc


def _renamed(doc, old, new):
    """doc with every occurrence of the string old, as a value or a key,
    replaced by new."""
    if isinstance(doc, dict):
        return {(new if k == old else k): _renamed(v, old, new) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_renamed(v, old, new) for v in doc]
    return new if doc == old else doc


def _paths(doc, prefix=()):
    if prefix:
        yield prefix
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _paths(v, prefix + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _paths(v, prefix + (i,))


@st.composite
def broken(draw, doc):
    """doc after one or two edits: an entry given another JSON type or
    another label, dropped or repeated; one label renamed, wherever it
    occurs, to one that breaks the label grammar; or junk in place of the
    whole document.  The depth of the entry is drawn first, so rows and
    objects are hit as often as the labels in them."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        paths = list(_paths(doc))
        edit = draw(st.sampled_from(["retype", "retype", "retype", "label", "rename", "drop", "repeat", "whole"]))
        if edit == "whole" or not paths:
            return draw(JUNK)
        if edit == "rename":
            labels = sorted(set(_strings(doc)))
            if labels:
                doc = _renamed(doc, draw(st.sampled_from(labels)), draw(st.sampled_from(["a,b", "(a"])))
            continue
        depth = draw(st.integers(min_value=1, max_value=max(map(len, paths))))
        path = draw(st.sampled_from([p for p in paths if len(p) == depth]))
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        old = parent[path[-1]]
        if edit == "retype":
            parent[path[-1]] = draw(st.sampled_from([x for x in RETYPES if type(x) is not type(old)]))
        elif edit == "label":
            parent[path[-1]] = draw(LABELS)
        elif edit == "drop":
            del parent[path[-1]]
        elif isinstance(parent, list):
            parent.append(old)
    return doc


@pytest.mark.parametrize("argv, target", TARGETS, ids=[f"{argv[0]}:{t}" for argv, t in TARGETS])
@given(data=st.data())
@settings(max_examples=11, deadline=None, derandomize=True)
def test_malformed_input_keeps_the_exit_code_contract(argv, target, data):
    files = {a[1:]: VALID[a[1:]] for a in argv if a.startswith("@")}
    if target == "--gens":
        i = argv.index("--gens") + 1
        argv = argv[:i] + [data.draw(st.sampled_from(["e", "0,1", "1,,", ",", "1,x", "(1,1)"]))] + argv[i + 1 :]
    else:
        files[target] = data.draw(broken(VALID[target]))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, doc in files.items():
            paths[name] = os.path.join(tmp, f"{name}.json")
            with open(paths[name], "w") as fh:
                json.dump(doc, fh)
        args = [paths[a[1:]] if a.startswith("@") else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
    assert code in (0, 1, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()


#: Every verb's --case line; the case name is drawn.
CASE_VERBS = sorted(CASES)
CASE_NAMES = st.one_of(
    st.sampled_from(sorted({c for cases in CASES.values() for c in cases} | set(NAMED_GRAPHS))),
    st.text(alphabet="kmcpz0123-6,( )", max_size=6),
)


@pytest.mark.parametrize("verb", CASE_VERBS)
@given(name=CASE_NAMES)
@settings(max_examples=11, deadline=None, derandomize=True)
def test_drawn_case_name_keeps_the_exit_code_contract(verb, name):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([verb, f"--case={name}"])
    assert code in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
