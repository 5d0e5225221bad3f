"""networkx as an independent oracle for isomorphism search and
automorphism counts on small graphs.  networkx is a test-only dependency;
the module is skipped when it is not installed."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundleforge import automorphisms, find_isomorphism, make_graph
from bundleforge.graphs import is_isomorphism

nx = pytest.importorskip("networkx")
from networkx.algorithms.isomorphism import GraphMatcher  # noqa: E402


@st.composite
def graph_up_to_7(draw, n=None):
    if n is None:
        n = draw(st.integers(min_value=0, max_value=7))
    labels = draw(st.permutations([str(i) for i in range(1, n + 1)]))
    pairs = list(itertools.combinations(labels, 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return make_graph(labels, [p for p, keep in zip(pairs, mask) if keep])


@st.composite
def graph_pair(draw):
    """Two graphs of one size; half the time the second is a relabelled
    copy of the first, so isomorphic pairs are common."""
    g = draw(graph_up_to_7())
    if draw(st.booleans()):
        relabel = dict(zip(g.vertices, draw(st.permutations(list(g.vertices)))))
        order = draw(st.permutations(list(g.vertices)))
        h = make_graph(order, [(relabel[a], relabel[b]) for a, b in g.edge_list()])
    else:
        h = draw(graph_up_to_7(n=g.n))
    return g, h


def to_nx(g):
    out = nx.Graph()
    out.add_nodes_from(g.vertices)
    out.add_edges_from(g.edge_list())
    return out


@given(graph_pair())
@settings(max_examples=200, deadline=None)
def test_find_isomorphism_agrees_with_networkx(pair):
    g, h = pair
    witness = find_isomorphism(g, h)
    assert (witness is not None) == nx.is_isomorphic(to_nx(g), to_nx(h))
    if witness is not None:
        assert is_isomorphism(witness, g, h)


@given(graph_up_to_7())
@settings(max_examples=150, deadline=None)
def test_automorphism_count_agrees_with_networkx(g):
    nx_g = to_nx(g)
    expected = sum(1 for _ in GraphMatcher(nx_g, nx_g).isomorphisms_iter())
    assert len(automorphisms(g)) == expected
