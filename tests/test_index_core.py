"""The index-pair graph core against a label reference.

A Graph stores its edges as sorted index pairs and derives its label views
from them.  The reference here keeps the edges as a frozenset of two-label
frozensets and computes every view from labels, as the graph core did
before it stored pairs.  Every generator that emits index pairs must give
the graph that make_graph builds from its labels, and the bundle routes
read no label view at all.
"""

import ast
import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bundleforge import (
    automorphisms,
    cartesian_product,
    complete_graph,
    cycle_graph,
    empty_graph,
    make_fiber_voltage,
    make_graph,
    make_morphism,
    path_graph,
    pullback_bundle,
    strong_product,
    subdirect_product,
    voltage_bundle,
)
from bundleforge import bundles, groups, ktheory, pullback
from bundleforge import graphs as graph_core
from bundleforge.graphs import induced_subgraph, search_profile
from bundleforge.errors import InvalidGeneratorSystem
from bundleforge.groups import GeneratorSystem, cayley_graph, cyclic, direct_product
from bundleforge.pullback import mixed_base_subdirect
from conftest import adjacency, mul, neighbors


class LabelGraph:
    """The reference: labels and a frozenset of two-label frozensets."""

    def __init__(self, vertices, edges):
        self.vertices = tuple(vertices)
        self.edges = frozenset(frozenset(e) for e in edges)
        self.index = {v: i for i, v in enumerate(self.vertices)}

    @property
    def adjacency(self):
        key = self.index.__getitem__
        return {
            v: tuple(sorted((w for e in self.edges if v in e for w in e if w != v), key=key))
            for v in self.vertices
        }

    def edge_list(self):
        key = self.index.__getitem__
        return sorted((tuple(sorted(e, key=key)) for e in self.edges), key=lambda e: (key(e[0]), key(e[1])))

    def has_edge(self, a, b):
        return frozenset((a, b)) in self.edges

    def induced_adjacency(self, xs):
        pos = {x: i for i, x in enumerate(xs)}
        adj = self.adjacency
        return tuple(tuple(pos[y] for y in adj[x] if y in pos) for x in xs)


LABELS = [str(i) for i in range(8)] + ["(a,b)", 'q"', "c\\"]


@st.composite
def raw_graphs(draw, max_n=8):
    """Distinct labels in a drawn order and an edge list over them with
    both orientations and repeats."""
    n = draw(st.integers(0, max_n))
    labels = draw(st.permutations(LABELS))[:n]
    if n < 2:
        return labels, []
    pairs = st.tuples(st.sampled_from(labels), st.sampled_from(labels)).filter(lambda p: p[0] != p[1])
    return labels, draw(st.lists(pairs, max_size=3 * n))


@given(raw_graphs(), st.data())
@settings(max_examples=300, deadline=None)
def test_views_match_the_label_reference(raw, data):
    labels, edges = raw
    g, ref = make_graph(labels, edges), LabelGraph(labels, edges)
    assert g.edges == ref.edges
    assert adjacency(g) == ref.adjacency
    assert g.edge_list() == ref.edge_list()
    assert len(g.ends) == len(ref.edges)
    for a, b in itertools.product(list(labels) + ["unknown"], repeat=2):
        assert g.has_edge(a, b) == ref.has_edge(a, b)
    subset = data.draw(st.lists(st.sampled_from(labels), unique=True)) if labels else []
    in_order = sorted(subset, key=ref.index.__getitem__)
    for xs in (subset, in_order, list(labels)):
        sub = induced_subgraph(g, xs)
        assert sub.vertices == tuple(sorted(xs, key=ref.index.__getitem__))
        assert sub.neighbor_indices == ref.induced_adjacency(sub.vertices)
    assert g.profile == search_profile(ref.induced_adjacency(ref.vertices))
    assert g.neighbor_indices == ref.induced_adjacency(ref.vertices)


@given(raw_graphs(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_builds_from_shuffled_edges_are_equal(raw, rnd):
    labels, edges = raw
    shuffled = [e[::-1] if rnd.random() < 0.5 else e for e in edges]
    rnd.shuffle(shuffled)
    g, h = make_graph(labels, edges), make_graph(labels, shuffled + shuffled[:2])
    assert g == h
    assert hash(g) == hash(h)
    assert g.ends == tuple(sorted(g.ends))
    assert all(i < j for i, j in g.ends)


# --- every generator of index pairs ---------------------------------------------


def assert_canonical(g):
    """No pair repeats, and g is the graph make_graph builds from its labels."""
    assert len(set(g.ends)) == len(g.ends)
    rebuilt = make_graph(g.vertices, g.edge_list())
    assert g == rebuilt
    assert g.ends == rebuilt.ends
    assert g.neighbor_indices == rebuilt.neighbor_indices


@st.composite
def graphs(draw, max_n=5):
    labels, edges = draw(raw_graphs(max_n))
    return make_graph(labels, edges)


@st.composite
def voltages(draw, base, fiber):
    auts = automorphisms(fiber)
    return make_fiber_voltage(base, fiber, {e: draw(st.sampled_from(auts)) for e in base.edge_list()})


FIBERS = (complete_graph(2), path_graph(3), cycle_graph(4), empty_graph(2), make_graph(["b", "a", "c"], [("c", "b")]))


@given(graphs(), graphs())
@settings(max_examples=150, deadline=None)
def test_products(g1, g2):
    assert_canonical(cartesian_product(g1, g2))
    assert_canonical(strong_product(g1, g2))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_voltage_bundles_and_typed_products(data):
    base = data.draw(graphs(max_n=5))
    f1, f2 = data.draw(st.sampled_from(FIBERS)), data.draw(st.sampled_from(FIBERS))
    b1, b2 = voltage_bundle(data.draw(voltages(base, f1))), voltage_bundle(data.draw(voltages(base, f2)))
    assert_canonical(b1.total)
    assert_canonical(subdirect_product(b1, b2).total)
    if base.n:
        # A lazy walk in the base, as a morphism from a path.
        walk = [data.draw(st.sampled_from(base.vertices))]
        for _ in range(data.draw(st.integers(0, 5))):
            walk.append(data.draw(st.sampled_from((walk[-1], *neighbors(base, walk[-1])))))
        f = make_morphism(path_graph(len(walk)), base, {str(i + 1): v for i, v in enumerate(walk)})
        assert_canonical(pullback_bundle(f, b1).total)
    link = make_morphism(base, base, {v: v for v in base.vertices})
    assert_canonical(mixed_base_subdirect(b1, b2, link).graph)


@given(graphs(max_n=7), st.data())
@settings(max_examples=100, deadline=None)
def test_induced_subgraphs(g, data):
    subset = data.draw(st.lists(st.sampled_from(g.vertices), unique=True)) if g.n else []
    assert_canonical(induced_subgraph(g, subset))


def test_cayley_graphs():
    """Every subset of the non-identity elements, symmetric or not, gives
    the graph make_graph builds from the pairs (x, xs)."""
    for group in (cyclic(1), cyclic(5), cyclic(6), direct_product(cyclic(2), cyclic(4))):
        others = [i for i in range(group.order) if i != group.identity]
        for r in range(len(others) + 1):
            for members in itertools.combinations(others, r):
                g = cayley_graph(group, GeneratorSystem(group, members))
                assert_canonical(g)
                labels = [group.elements[i] for i in members]
                assert g == make_graph(group.elements, [(x, mul(group, x, s)) for x in group.elements for s in labels])
        with pytest.raises(InvalidGeneratorSystem, match="contains the identity"):
            cayley_graph(group, GeneratorSystem(group, (group.identity,)))


#: The label views of a graph, a morphism and a voltage.
LABEL_VIEWS = {"adjacency", "edge_list", "preimages", "pairs", "map", "phi"}


#: Each function that runs on positions, and the module that defines it.
POSITION_ROUTES = {
    name: bundles
    for name in (
        "verify_bundle",
        "_positions_over",
        "_local_edges",
        "_check_conditions",
        "_check_local_triviality",
        "voltage_bundle",
        "bundles_equivalent",
        "_forest_cycles",
        "_holonomies",
        "_least_conjugator",
        "is_trivial",
    )
} | {
    "validate_morphism": graph_core,
    "compose": graph_core,
    "preserves_edges": graph_core,
    "_typed_fiber_product": pullback,
    "pullback_voltage": pullback,
    "subdirect_voltage": pullback,
    "_cycle_edges": ktheory,
}


@pytest.mark.parametrize("name", list(POSITION_ROUTES))
def test_bundle_routes_read_no_label_view(name):
    """verify_bundle, its two routes and its bucketing of the total's
    edges, voltage_bundle, bundles_equivalent, the holonomy walk,
    validate_morphism, compose, preserves_edges, the typed fiber product
    and the derived voltages
    run on positions: an AST walk of each body finds no read of a graph's
    adjacency or edge_list, of a morphism's preimages, pairs or map, or of
    a voltage's phi.  Nor does any of them build a shape
    with induced_adjacency, walk the label forest or build its result
    through the label entries make_morphism and make_fiber_voltage: the
    fiber check and local triviality read their shapes off the bucketed
    edges."""
    tree = ast.parse(Path(POSITION_ROUTES[name].__file__).read_text())
    body = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name)
    attributes = {node.attr for node in ast.walk(body) if isinstance(node, ast.Attribute)}
    names = {node.id for node in ast.walk(body) if isinstance(node, ast.Name)}
    assert not attributes & LABEL_VIEWS
    # The morphism and voltage views are read as attributes: as bare names,
    # map is the builtin and pairs a local list of positions.
    assert not names & {"adjacency", "edge_list", "preimages"}
    assert not (attributes | names) & {"induced_adjacency", "spanning_forest", "make_morphism", "make_fiber_voltage"}


#: The label views of a group and a homomorphism.
GROUP_LABEL_VIEWS = {"table", "mapping", "mul", "inv", "inverses", "element_order", "generated_subgroup"}

#: Each function of groups that runs on positions, and each method, named
#: by its class, that builds what a group, homomorphism or generator
#: system keeps.
GROUP_ROUTES = (
    "cayley_graph",
    "_pair_group",
    "subgroup",
    "kernel",
    "subdirect_group",
    "_homs_by_closure",
    "surjective_homs",
    "symmetric_generating_sets",
    "admissible_generating_sets",
    "transversal_section",
    "cayley_bundle",
    "FiniteGroup.generating_sets",
    "GroupHom.kernel",
    "GeneratorSystem.cayley_graph",
)


@pytest.mark.parametrize("name", GROUP_ROUTES)
def test_group_routes_read_no_label_view(name):
    """The Cayley graph, the groups on pairs, subgroups and kernels, the
    subdirect product, the homomorphism closure, the generating-set
    enumerations, the transversal section and the Cayley bundle read
    tables, inverses and maps by position: an AST walk of each body finds
    no read of a group's table, mul, inv, inverses, element_order or
    generated_subgroup, nor of a homomorphism's mapping, and no projection
    built through make_morphism."""
    tree = ast.parse(Path(groups.__file__).read_text())
    *owner, name = name.split(".")
    scope = tree.body
    if owner:
        scope = next(node for node in scope if isinstance(node, ast.ClassDef) and node.name == owner[0]).body
    body = next(node for node in scope if isinstance(node, ast.FunctionDef) and node.name == name)
    attributes = {node.attr for node in ast.walk(body) if isinstance(node, ast.Attribute)}
    names = {node.id for node in ast.walk(body) if isinstance(node, ast.Name)}
    assert not attributes & GROUP_LABEL_VIEWS
    assert "make_morphism" not in attributes | names
