"""The label grammar at the input boundary, against a recogniser of its own.

A label keeps the grammar when its parentheses balance and no "," or "|"
stands outside them.  The recogniser here deletes innermost parenthesized
groups until none is left, then looks for a parenthesis or a separator;
the library scans the nesting depth instead.  make_graph and make_group
must refuse exactly the labels the recogniser rejects.  On grammatical
labels, every construction that renders composite labels builds without a
clash, and its labels split back into their parts.  A static check keeps
the decision in graphs: make_graph and make_group are the only readers,
and the generators check no label.
"""

import ast
import itertools
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import bundleforge
from bundleforge import (
    FiberVoltage,
    automorphisms,
    cartesian_product,
    make_fiber_voltage,
    make_graph,
    make_group,
    make_morphism,
    pullback_bundle,
    strong_product,
    subdirect_product,
    voltage_bundle,
)
from bundleforge.errors import ParseError
from bundleforge.graphs import pair_label, pullback_vertex, split_pair_label, split_top
from bundleforge.groups import direct_product

SRC = Path(bundleforge.__file__).resolve().parent


def grammatical(label: str) -> bool:
    """True when deleting innermost groups "(...)" until none is left
    leaves no parenthesis, comma or bar."""
    while True:
        reduced = re.sub(r"\([^()]*\)", "", label)
        if reduced == label:
            return re.search(r"[(),|]", label) is None
        label = reduced


#: Parenthesized groups, whose insides may hold separators and groups.
GROUPS = st.recursive(
    st.just("()"),
    lambda groups: st.lists(groups | st.sampled_from("ab1,|"), max_size=3).map(lambda parts: f"({''.join(parts)})"),
    max_leaves=4,
)
#: Labels built by the grammar: plain characters and groups.
GRAMMATICAL = st.lists(GROUPS | st.sampled_from("ab1"), max_size=3).map("".join)
#: Any label over the alphabet, most of them breaking the grammar.
LABELS = st.text(alphabet="ab1(),|", max_size=6) | GRAMMATICAL


def cyclic_table(labels):
    n = len(labels)
    return {(x, y): labels[(i + j) % n] for i, x in enumerate(labels) for j, y in enumerate(labels)}


@given(st.lists(LABELS, min_size=1, max_size=4, unique=True))
@settings(max_examples=400, deadline=None)
def test_only_broken_labels_are_refused(labels):
    broken = [x for x in labels if not grammatical(x)]
    if broken:
        first = re.escape(repr(broken[0]))
        with pytest.raises(ParseError, match=rf"^vertex {first} breaks the label grammar"):
            make_graph(labels, [])
        with pytest.raises(ParseError, match=rf"^group element {first} breaks the label grammar"):
            make_group(labels, cyclic_table(labels))
    else:
        assert make_graph(labels, []).vertices == tuple(labels)
        assert make_group(labels, cyclic_table(labels)).elements == tuple(labels)


def test_the_recogniser_on_fixed_labels():
    assert all(map(grammatical, ["", "a", "()", "(a,b)", "(a)(b|1)", "a(,)b", "((a|b),1)"]))
    assert not any(map(grammatical, ["a,b", "a|b", "(a", "a)", ")(", "(a))(b", "(a),b"]))


@st.composite
def labelled_graphs(draw, min_n, max_n):
    labels = draw(st.lists(GRAMMATICAL, min_size=min_n, max_size=max_n, unique=True))
    assert all(map(grammatical, labels))
    pairs = list(itertools.combinations(labels, 2))
    return make_graph(labels, [e for e in pairs if draw(st.booleans())])


@st.composite
def voltages(draw, base, fiber):
    auts = automorphisms(fiber)
    return make_fiber_voltage(base, fiber, {e: draw(st.sampled_from(auts)) for e in base.edge_list()})


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_grammatical_labels_never_clash(data):
    base = data.draw(labelled_graphs(1, 4))
    f1, f2 = data.draw(labelled_graphs(1, 3)), data.draw(labelled_graphs(1, 3))
    pairs = list(itertools.product(base.vertices, f1.vertices))
    for product in (cartesian_product(base, f1), strong_product(base, f1)):
        assert list(map(split_pair_label, product.vertices)) == pairs
    fv1, fv2 = data.draw(voltages(base, f1)), data.draw(voltages(base, f2))
    b1, b2 = voltage_bundle(fv1), voltage_bundle(fv2)
    assert list(map(split_pair_label, b1.total.vertices)) == pairs
    assert FiberVoltage.from_json(fv1.to_json()).phi == fv1.phi
    sp = subdirect_product(b1, b2)
    assert all(split_pair_label(x)[0] in b1.total.index for x in sp.total.vertices)
    assert len(set(sp.total.vertices)) == sp.total.n
    # The same base under other grammatical labels, mapped onto it.
    others = data.draw(st.lists(GRAMMATICAL, min_size=base.n, max_size=base.n, unique=True))
    rename = dict(zip(others, base.vertices))
    domain = make_graph(others, [(x, y) for x, y in itertools.combinations(others, 2) if base.has_edge(rename[x], rename[y])])
    pb = pullback_bundle(make_morphism(domain, base, rename), b1)
    assert all(split_top(x[1:-1], "|")[0] == pb.projection(x) for x in pb.total.vertices)
    g1 = make_group(f1.vertices, cyclic_table(f1.vertices))
    g2 = make_group(f2.vertices, cyclic_table(f2.vertices))
    assert list(map(split_pair_label, direct_product(g1, g2).elements)) == list(itertools.product(g1.elements, g2.elements))


@given(GRAMMATICAL, GRAMMATICAL)
@settings(max_examples=200, deadline=None)
def test_the_composite_labels_split_back(a, b):
    assert split_pair_label(pair_label(a, b)) == (a, b)
    assert split_top(pullback_vertex(a, b)[1:-1], "|") == [a, b]


# --- one module decides ------------------------------------------------------


def functions(path: Path):
    """Each function of a module by its qualified name, methods as
    Class.method: its node, and the names its body calls."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.FunctionDef):
                calls = {
                    call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", None)
                    for call in ast.walk(child)
                    if isinstance(call, ast.Call)
                }
                found[f"{prefix}{child.name}"] = child, calls

    visit(ast.parse(path.read_text()), "")
    return found


def test_make_graph_and_make_group_alone_read_the_grammar():
    callers = {
        (path.stem, name)
        for path in SRC.glob("*.py")
        for name, (_, calls) in functions(path).items()
        if "check_labels" in calls
    }
    assert callers == {("graphs", "make_graph"), ("groups", "make_group")}
    assert "check_labels" in functions(SRC / "graphs.py")


@pytest.mark.parametrize(
    "module, name",
    [("graphs", "_trusted_graph"), ("groups", "_pair_group"), ("bundles", "FiberVoltage.to_json"), ("bundles", "_edge_of_key")],
)
def test_generated_labels_are_not_checked_again(module, name):
    """The generators and the voltage writer run no duplicate check and
    raise nothing, and the key reader splits its key without reading the
    base."""
    node, calls = functions(SRC / f"{module}.py")[name]
    assert not calls & {"_distinct", "DuplicateVertex", "NotAGroup", "has_edge", "check_labels"}
    if name == "_edge_of_key":
        assert [a.arg for a in node.args.args] == ["key"]
    else:
        assert not any(isinstance(sub, ast.Raise) for sub in ast.walk(node))
