"""networkx as an independent oracle for isomorphism search and
automorphism counts on small graphs.  networkx is a test-only dependency;
the module is skipped when it is not installed."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundleforge import (
    automorphisms,
    cycle_graph,
    enumerate_bundle_classes,
    fiber_power,
    find_isomorphism,
    make_graph,
    path_graph,
)
from conftest import is_isomorphism

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


# --- regular and strongly regular graphs --------------------------------------
#
# Every vertex of these graphs has the same signature, so the signature
# classes prune nothing and the search rests on the adjacency checks alone.


def relabelled(g, draw):
    """A copy of g under a random relabelling, stored in a random order."""
    relabel = dict(zip(g.vertices, draw(st.permutations(list(g.vertices)))))
    order = draw(st.permutations(list(g.vertices)))
    return make_graph(order, [(relabel[a], relabel[b]) for a, b in g.edge_list()])


def circulant(n, jumps):
    return make_graph(range(n), {tuple(sorted((i, (i + j) % n))) for i in range(n) for j in jumps})


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return make_graph(range(10), outer + spokes + inner)


def shrikhande():
    """Cayley graph of Z4 x Z4 with generators ±(1,0), ±(0,1), ±(1,1)."""
    steps = [(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)]
    edges = {
        frozenset((f"{i}{j}", f"{(i + a) % 4}{(j + b) % 4}"))
        for i in range(4)
        for j in range(4)
        for a, b in steps
    }
    return make_graph([f"{i}{j}" for i in range(4) for j in range(4)], [tuple(e) for e in edges])


def rook_4x4():
    """K4 □ K4: cells in one row or one column are adjacent."""
    cells = [(i, j) for i in range(4) for j in range(4)]
    edges = [(f"{i}{j}", f"{k}{l}") for (i, j), (k, l) in itertools.combinations(cells, 2) if i == k or j == l]
    return make_graph([f"{i}{j}" for i, j in cells], edges)


@st.composite
def circulant_pair(draw):
    """A circulant and either a relabelled copy or a relabelled circulant on
    as many vertices with the same number of jumps."""
    n = draw(st.integers(min_value=5, max_value=12))
    k = draw(st.integers(min_value=1, max_value=(n - 1) // 2))
    jumps = draw(st.lists(st.integers(1, n // 2), min_size=k, max_size=k, unique=True))
    g = circulant(n, jumps)
    if draw(st.booleans()):
        return g, relabelled(g, draw)
    other = draw(st.lists(st.integers(1, n // 2), min_size=k, max_size=k, unique=True))
    return g, relabelled(circulant(n, other), draw)


@given(circulant_pair())
@settings(max_examples=150, deadline=None)
def test_circulants_agree_with_networkx(pair):
    g, h = pair
    assert len(g.profile.classes) == 1
    witness = find_isomorphism(g, h)
    assert (witness is not None) == nx.is_isomorphic(to_nx(g), to_nx(h))
    if witness is not None:
        assert is_isomorphism(witness, g, h)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_circulant_automorphisms_agree_with_networkx(data):
    n = data.draw(st.integers(min_value=5, max_value=10))
    jumps = data.draw(st.lists(st.integers(1, n // 2), min_size=1, max_size=2, unique=True))
    g = relabelled(circulant(n, jumps), data.draw)
    nx_g = to_nx(g)
    assert len(automorphisms(g)) == sum(1 for _ in GraphMatcher(nx_g, nx_g).isomorphisms_iter())


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_relabelled_petersen(data):
    g = petersen()
    h = relabelled(g, data.draw)
    witness = find_isomorphism(g, h)
    assert witness is not None and is_isomorphism(witness, g, h)
    # The pentagonal prism is cubic on 10 vertices too, but has 4-cycles.
    prism = circulant(5, [1])
    prism = make_graph(
        [f"{s}{v}" for s in "ab" for v in prism.vertices],
        [(f"{s}{a}", f"{s}{b}") for s in "ab" for a, b in prism.edge_list()] + [(f"a{v}", f"b{v}") for v in prism.vertices],
    )
    assert find_isomorphism(h, relabelled(prism, data.draw)) is None
    assert not nx.is_isomorphic(to_nx(g), to_nx(prism))


@st.composite
def regular_pair_12_to_40(draw):
    """A random 3- or 4-regular graph on 12 to 40 vertices, stored in
    breadth-first order, and either a relabelled copy or a copy after one
    degree-preserving edge swap, both in a shuffled order.

    The search matches g's vertices in stored order; in breadth-first order
    each vertex after the first of its component has a placed neighbour."""
    d = draw(st.sampled_from([3, 4]))
    n = draw(st.integers(min_value=6, max_value=20)) * 2
    seed = draw(st.integers(min_value=0, max_value=2**16))
    nx_g = nx.random_regular_graph(d, n, seed=seed)
    order = [v for comp in nx.connected_components(nx_g) for v in nx.bfs_tree(nx_g, min(comp))]
    g = make_graph([str(v) for v in order], [(str(a), str(b)) for a, b in nx_g.edges()])
    nx_h = nx_g.copy()
    if draw(st.booleans()):
        nx.double_edge_swap(nx_h, nswap=1, max_tries=1000, seed=seed)
    h = relabelled(make_graph([str(v) for v in nx_h.nodes()], [(str(a), str(b)) for a, b in nx_h.edges()]), draw)
    return g, h


@given(regular_pair_12_to_40())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_regular_graphs_up_to_40_vertices_agree_with_networkx(pair):
    g, h = pair
    witness = find_isomorphism(g, h)
    assert (witness is not None) == nx.is_isomorphic(to_nx(g), to_nx(h))
    if witness is not None:
        assert is_isomorphism(witness, g, h)


def test_petersen_automorphisms_agree_with_networkx():
    g = petersen()
    assert len(automorphisms(g)) == 120 == sum(1 for _ in GraphMatcher(to_nx(g), to_nx(g)).isomorphisms_iter())


def test_wreath_group_of_c5_square_agrees_with_networkx():
    # C5 □ C5 is a power of a prime fiber: K-class enumeration reads its
    # group off Aut(C5) ≀ S2, not off a search.
    c5 = cycle_graph(5)
    g = fiber_power(c5, 2)
    auts = enumerate_bundle_classes(path_graph(2), c5, 2)._chains[2].auts
    matched = {tuple(g.index[m[v]] for v in g.vertices) for m in GraphMatcher(to_nx(g), to_nx(g)).isomorphisms_iter()}
    assert len(auts) == 200 == len(matched)
    assert set(auts) == matched


def test_networkx_separates_shrikhande_and_rook_graph():
    assert not nx.is_isomorphic(to_nx(shrikhande()), to_nx(rook_4x4()))


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_shrikhande_is_not_the_rook_graph(data):
    # Both are SRG(16,6,2,2): every invariant the search prunes by agrees.
    s, r = relabelled(shrikhande(), data.draw), relabelled(rook_4x4(), data.draw)
    assert s.profile.histogram == r.profile.histogram
    assert find_isomorphism(s, r) is None
    assert find_isomorphism(r, s) is None
    witness = find_isomorphism(shrikhande(), s)
    assert witness is not None and is_isomorphism(witness, shrikhande(), s)
