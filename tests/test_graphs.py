import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bundleforge.graphs as graphs_mod
from bundleforge import (
    Perm,
    automorphisms,
    cartesian_product,
    complete_graph,
    compose,
    cycle_graph,
    find_isomorphism,
    induced_subgraph,
    make_graph,
    make_morphism,
    preserves_edges,
    validate_morphism,
)
from bundleforge.errors import (
    DuplicateVertex,
    LoopEdge,
    NotAMorphism,
    ParseError,
    SearchBudgetExceeded,
    UnknownEndpoint,
    UnknownVertex,
)
from bundleforge.graphs import Graph, node_budget, pair_label, search_shape, split_pair_label
from bundleforge.named import (
    c6k2_bundle,
    hexagonal_prism,
    m3_bundle,
    mixed_base_figure_24,
    NAMED_GRAPHS,
    mod3_projection,
    twisted_hexagonal_ladder,
)
from bundleforge.pullback import mixed_base_subdirect
from conftest import adjacency, degree, degree_sequence, identity_morphism, is_isomorphism, neighbors
from test_label_grammar import grammatical


class TestMakeGraph:
    def test_k3(self):
        g = make_graph([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
        assert g.n == 3
        assert len(g.edges) == 3

    def test_c6_labels_and_edges(self):
        g = cycle_graph(6)
        assert g.vertices == ("1", "2", "3", "4", "5", "6")
        assert g.has_edge("6", "1")
        assert len(g.edges) == 6

    def test_single_vertex(self):
        g = make_graph(["a"], [])
        assert g.vertices == ("a",)
        assert not g.edges

    def test_integer_labels_canonicalized(self):
        g = make_graph([1, 2], [(1, 2)])
        assert g.vertices == ("1", "2")

    def test_duplicate_vertex(self):
        with pytest.raises(DuplicateVertex):
            make_graph([1, 1], [])

    def test_loop_edge(self):
        with pytest.raises(LoopEdge):
            make_graph([1, 2], [(1, 1)])

    def test_unknown_endpoint(self):
        with pytest.raises(UnknownEndpoint):
            make_graph([1, 2], [(1, 3)])


class TestMorphisms:
    def test_identity_is_valid(self, k3):
        ok, bad = validate_morphism(identity_morphism(k3))
        assert ok and not bad

    def test_c6_to_c3_projection_valid(self, p_c6_c3):
        ok, bad = validate_morphism(p_c6_c3)
        assert ok and not bad

    def test_constant_collapse_is_valid(self, k2):
        f = make_morphism(k2, k2, {"1": "1", "2": "1"})
        ok, _ = validate_morphism(f)
        assert ok

    def test_invalid_morphism_reports_edges(self, k2, two_k1):
        f = make_morphism(k2, two_k1, {"1": "1", "2": "2"})
        ok, bad = validate_morphism(f)
        assert not ok
        assert bad == [("1", "2")]

    def test_totality_enforced(self, k2, k3):
        with pytest.raises(UnknownVertex):
            make_morphism(k2, k3, {"1": "1"})

    def test_map_missing_a_vertex_raises(self, k3):
        with pytest.raises(UnknownVertex, match="^morphism undefined on vertex '3'$"):
            make_morphism(k3, k3, {"1": "1", "2": "2"})

    @pytest.mark.parametrize(
        "domain, pairs, message",
        [
            # No edge of the left-out vertex could show it to an edge check.
            (["1", "2", "3", "4"], (("1", "1"), ("2", "2"), ("3", "3")), "morphism undefined on vertex '4'"),
            (["1", "2", "3"], (("1", "1"), ("2", "2"), ("3", "9")), "morphism value '9' not in codomain"),
        ],
        ids=["isolated-vertex-left-out", "image-off-codomain"],
    )
    def test_hand_built_pairs_are_checked(self, k3, domain, pairs, message):
        # make_morphism, the one entry for a map given by labels, checks one
        # image per domain vertex, each a codomain vertex.
        with pytest.raises(UnknownVertex, match=f"^{message}$"):
            make_morphism(make_graph(domain, k3.edge_list()), k3, dict(pairs))

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_violations_match_call_reference(self, seed):
        # The violations, in order, are the domain edges whose images read
        # through GraphMorphism.__call__ and Graph.has_edge are neither an
        # edge nor one vertex.
        rng = random.Random(seed)
        domain, codomain = (
            make_graph(range(n), [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4])
            for n in (rng.randint(1, 9), rng.randint(1, 5))
        )
        f = make_morphism(domain, codomain, {v: rng.choice(codomain.vertices) for v in domain.vertices})
        expected = [(a, b) for a, b in domain.edge_list() if f(a) != f(b) and not codomain.has_edge(f(a), f(b))]
        assert validate_morphism(f) == (not expected, expected)

    @given(st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_the_label_reference_on_hand_built_pairs(self, data):
        # Missing vertices, images off the codomain, stray keys and
        # violating edges, with the keys in a drawn order: make_morphism
        # then validate_morphism, against the label reference of both.
        domain, codomain, mapping = data.draw(hand_built_morphisms())

        def built(m):
            f = make_morphism(domain, codomain, m)
            return validate_morphism(f), f.pairs, f.preimages

        assert raised_or(built, mapping) == raised_or(reference_validate_morphism(domain, codomain), mapping)

    def test_preserves_edges_identity(self, c6):
        assert preserves_edges(identity_morphism(c6))

    def test_preserves_edges_constant_false(self, k2):
        f = make_morphism(k2, k2, {"1": "1", "2": "1"})
        assert not preserves_edges(f)

    def test_preserves_edges_projection(self, c6, c3, p_c6_c3):
        # Every hexagon edge must land on a triangle edge: checked directly.
        for a, b in c6.edge_list():
            assert c3.has_edge(p_c6_c3(a), p_c6_c3(b))
        assert preserves_edges(p_c6_c3)

    def test_preserves_edges_requires_morphism(self, k2, two_k1):
        f = make_morphism(k2, two_k1, {"1": "1", "2": "2"})
        with pytest.raises(NotAMorphism):
            preserves_edges(f)

    def test_composition_of_morphisms_is_morphism(self, c6, c3, p_c6_c3):
        g = make_morphism(c3, c3, {"1": "2", "2": "3", "3": "1"})
        ok, _ = validate_morphism(compose(g, p_c6_c3))
        assert ok

    def test_composition_needs_matching_ends(self, c6, p_c6_c3):
        with pytest.raises(NotAMorphism, match="^composition mismatch: codomain of f is not domain of g$"):
            compose(p_c6_c3, p_c6_c3)

    def test_call_off_the_domain_is_refused(self, p_c6_c3):
        with pytest.raises(UnknownVertex, match="^vertex '9' not in morphism domain$"):
            p_c6_c3("9")


def reference_validate_morphism(domain, codomain):
    """make_morphism and validate_morphism by labels, on a map given as a
    dict: each domain vertex, in order, needs an image in the codomain,
    then each edge of edge_list is read through the map and the codomain's
    adjacency.  Returns the verdict, the pairs and the preimages."""

    def check(m):
        adj = adjacency(codomain)
        for x in domain.vertices:
            if x not in m:
                raise UnknownVertex(f"morphism undefined on vertex {x!r}")
            if m[x] not in adj:
                raise UnknownVertex(f"morphism value {m[x]!r} not in codomain")
        bad = [(a, b) for a, b in domain.edge_list() if (fa := m[a]) != (fb := m[b]) and fb not in adj[fa]]
        pairs = tuple((x, m[x]) for x in domain.vertices)
        preimages = {v: tuple(x for x in domain.vertices if m[x] == v) for v in codomain.vertices}
        return (not bad, bad), pairs, preimages

    return check


def raised_or(check, arg):
    """What check returns on arg, or the class and message of the
    UnknownVertex it raises."""
    try:
        return check(arg)
    except UnknownVertex as exc:
        return type(exc), str(exc)


@st.composite
def hand_built_morphisms(draw):
    """A domain on 0-6 and a sparser codomain on 1-4 vertices, and a map by
    labels with up to two faults drawn: vertices left out, images off the
    codomain, or a stray label given an image.  The keys come in a drawn
    order."""
    graphs = []
    for n, keep in ((draw(st.integers(0, 6)), 1), (draw(st.integers(1, 4)), 2)):
        vs = [str(i) for i in range(n)]
        graphs.append(make_graph(vs, [e for e in itertools.combinations(vs, 2) if draw(st.integers(0, keep)) == keep]))
    domain, codomain = graphs
    faults = draw(st.sets(st.sampled_from(["missing", "off", "stray"]), max_size=2))
    image = st.sampled_from(codomain.vertices)
    pairs = []
    for x in domain.vertices:
        kind = draw(st.integers(0, 3))
        if kind == 3 and "missing" in faults:
            continue
        pairs.append((x, draw(st.sampled_from(["8", "9"])) if kind == 2 and "off" in faults else draw(image)))
    if "stray" in faults:
        pairs.append(("z", draw(image)))
    return domain, codomain, dict(draw(st.permutations(pairs)))


class TestPairLabels:
    def test_split_inverts_label(self):
        # On grammatical labels the split inverts the label; "a,b" breaks
        # the grammar and no graph takes it.
        assert split_pair_label(pair_label("(1,2)", "(a,b)")) == ("(1,2)", "(a,b)")
        assert split_pair_label(pair_label("", "(x|y)z")) == ("", "(x|y)z")
        with pytest.raises(ParseError, match=r"^vertex 'a,b' breaks the label grammar"):
            make_graph(["(1,2)", "a,b"], [])

    @pytest.mark.parametrize("label", ["a,b", "(ab)", "(a,b"])
    def test_malformed_label_is_parse_error(self, label):
        with pytest.raises(ParseError, match=rf"^bad pair label: {re.escape(repr(label))}$"):
            split_pair_label(label)


#: Grammar characters among a newline, a non-ASCII letter and a lone surrogate.
ODD_LABELS = st.lists(st.sampled_from(["a", "(", ")", ",", "|", "\n", "\u00e9", "\ud800"]), max_size=6).map("".join)


@given(st.lists(ODD_LABELS, min_size=1, max_size=5, unique=True))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_grammar_scan_reads_any_character(labels):
    """The grammar is read off each label's "(),|" alone, whatever else it
    holds: a newline, a character outside ASCII or a lone surrogate.  The
    first label the recogniser rejects is named, else every label is kept."""
    broken = [x for x in labels if not grammatical(x)]
    if broken:
        with pytest.raises(ParseError, match=rf"^vertex {re.escape(repr(broken[0]))} breaks the label grammar"):
            make_graph(labels, [])
    else:
        assert make_graph(labels, []).vertices == tuple(labels)


class TestSubgraphs:
    def test_induced_k2(self, k3):
        sub = induced_subgraph(k3, ["1", "2"])
        assert sub.vertices == ("1", "2")
        assert len(sub.edges) == 1

    def test_induced_odd_hexagon_vertices_isolated(self, c6):
        sub = induced_subgraph(c6, ["1", "3", "5"])
        assert sub.vertices == ("1", "3", "5")
        assert not sub.edges

    def test_full_subset_is_identity(self, c6):
        assert induced_subgraph(c6, c6.vertices) == c6

    def test_unknown_vertex(self, k3):
        with pytest.raises(UnknownVertex):
            induced_subgraph(k3, ["9"])

    def test_unknown_integer_vertex(self, k3):
        with pytest.raises(UnknownVertex):
            induced_subgraph(k3, [1, 9])

    def test_integer_labels_canonicalized(self, c6):
        sub = induced_subgraph(c6, [2, 1, "3"])
        assert sub.vertices == ("1", "2", "3")
        assert sub.edge_list() == [("1", "2"), ("2", "3")]
        assert adjacency(sub) == {"1": ("2",), "2": ("1", "3"), "3": ("2",)}


class TestFibers:
    # The fiber over v is the domain's subgraph on preimages[v].

    def test_projection_fiber_is_edgeless(self, p_c6_c3):
        assert p_c6_c3.preimages["1"] == ("3", "6")
        assert not p_c6_c3.domain.has_edge("3", "6")

    def test_identity_fiber_single_vertex(self, k3):
        assert identity_morphism(k3).preimages["2"] == ("2",)

    def test_twisted_ladder_fiber_is_an_edge(self, q_m3_c3):
        # The ladder rungs live inside the fibers, so each fiber is a K2.
        assert q_m3_c3.preimages["1"] == ("3", "6")
        assert q_m3_c3.domain.has_edge("3", "6")

    def test_fibers_partition_domain(self, p_c6_c3):
        pieces = [p_c6_c3.preimages[v] for v in p_c6_c3.codomain.vertices]
        flat = sorted(itertools.chain.from_iterable(pieces))
        assert flat == sorted(p_c6_c3.domain.vertices)

    def test_image_off_the_codomain_is_unknown(self, k3):
        with pytest.raises(UnknownVertex, match="morphism value '9' not in codomain"):
            make_morphism(k3, k3, {"1": "1", "2": "2", "3": "9"})

    def test_fibers_in_domain_order_whatever_the_pair_order(self, p_c6_c3):
        f = make_morphism(p_c6_c3.domain, p_c6_c3.codomain, dict(p_c6_c3.pairs[::-1]))
        assert f.preimages == p_c6_c3.preimages
        assert f.preimages["1"] == ("3", "6")


def search(g, h, budget=graphs_mod.DEFAULT_NODE_BUDGET, limit=1, within=None):
    """search_shape on g's shape against h's profile, read back in labels:
    the witnesses g -> h and the nodes spent."""
    images, nodes = search_shape(g.neighbor_indices, h.profile, budget, limit, within)
    return [dict(zip(g.vertices, map(h.vertices.__getitem__, im))) for im in images], nodes


def sided(g, h, pg, ph):
    """The first isomorphism g -> h that sends each x to a y with ph[y] ==
    pg[x], or None: the kernel's sided mode, one within mask per vertex."""
    within = [sum(1 << j for j, y in enumerate(h.vertices) if ph[y] == pg[x]) for x in g.vertices]
    found, _ = search(g, h, within=within)
    return found[0] if found else None


REFERENCE_WITNESS = {str(i): str(i) for i in range(1, 13)}
REFERENCE_WITNESS.update({"3": "9", "9": "3", "4": "10", "10": "4", "5": "11", "11": "5"})


class TestIsomorphism:
    def test_prism_and_twisted_ladder_cover(self):
        g, h = hexagonal_prism(), twisted_hexagonal_ladder()
        found = find_isomorphism(g, h)
        assert found is not None
        assert is_isomorphism(found, g, h)
        # The three-transposition witness also validates.
        assert is_isomorphism(REFERENCE_WITNESS, g, h)

    def test_k3_equals_c3(self, k3, c3):
        found = find_isomorphism(k3, c3)
        assert found is not None

    def test_edge_count_mismatch(self, k2, two_k1):
        assert find_isomorphism(k2, two_k1) is None

    def test_found_implies_invariants_match(self, c6):
        h = make_graph([10, 20, 30, 40, 50, 60], [(10, 20), (20, 30), (30, 40), (40, 50), (50, 60), (60, 10)])
        found = find_isomorphism(c6, h)
        assert found is not None
        assert degree_sequence(c6) == degree_sequence(h)

    def test_budget_exceeded_signals_unknown(self, c6):
        with pytest.raises(SearchBudgetExceeded), node_budget(1):
            find_isomorphism(c6, cycle_graph(6))

    def test_deterministic_witness(self, k3, c3):
        assert find_isomorphism(k3, c3) == find_isomorphism(k3, c3)

    def test_over_keeps_each_vertex_on_its_label(self):
        g = make_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        h = make_graph(["1", "2", "3"], [("1", "2"), ("2", "3")])
        pg = {"a": "x", "b": "y", "c": "y"}
        assert sided(g, h, pg, {"1": "y", "2": "y", "3": "x"}) == {"a": "3", "b": "2", "c": "1"}
        assert sided(g, h, pg, {"1": "y", "2": "x", "3": "y"}) is None
        assert sided(g, h, pg, {"1": "z", "2": "y", "3": "y"}) is None

    def test_domino_over_its_rungs_only(self, k2):
        # The domino K2 □ P3 with the paths a-b-c and a'-b'-c' cut across it:
        # isomorphic to K2 □ P3, but by no map that keeps each path on a side.
        g = make_graph(
            ["a", "b", "c", "a'", "b'", "c'"],
            [("a", "b"), ("b", "c"), ("a'", "b'"), ("b'", "c'"), ("a", "a'"), ("c", "c'"), ("c", "a'")],
        )
        h = cartesian_product(k2, make_graph(["1", "2", "3"], [("1", "2"), ("2", "3")]))
        side = {x: x[1] for x in h.vertices}
        pg = {x: "2" if x.endswith("'") else "1" for x in g.vertices}
        assert find_isomorphism(g, h) is not None
        assert sided(g, h, pg, side) is None
        assert sided(h, h, side, side) == {x: x for x in h.vertices}


class TestConnectivityOrder:
    # The search places g's positions in connectivity order: next the
    # lowest unplaced position with a placed neighbour, else the lowest
    # unplaced one.  Where that is the stored order, witnesses and node
    # counts are those of a search in stored order.

    def test_prism_pair_keeps_its_witness_and_node_count(self):
        assert search(hexagonal_prism(), twisted_hexagonal_ladder()) == ([REFERENCE_WITNESS], 21)

    def test_box_product_keeps_its_witness_and_node_count(self):
        g = cartesian_product(cycle_graph(6), cycle_graph(4))
        h = cartesian_product(cycle_graph(4), cycle_graph(6))
        witnesses, nodes = search(g, h)
        assert witnesses == [{v: pair_label(*reversed(split_pair_label(v))) for v in g.vertices}]
        assert nodes == 76
        auts, nodes = search(g, g, limit=None)
        assert (len(auts), nodes) == (96, 3720)

    def test_masks_follow_their_positions(self):
        # a-c-b stored as a, b, c: c is placed before b, and each keeps
        # its own mask.
        g = make_graph(["a", "b", "c"], [("a", "c"), ("c", "b")])
        h = make_graph(["1", "2", "3"], [("1", "2"), ("2", "3")])
        pg = {"a": "x", "b": "y", "c": "y"}
        assert sided(g, h, pg, {"1": "y", "2": "y", "3": "x"}) == {"a": "3", "b": "1", "c": "2"}
        assert sided(g, h, pg, {"1": "x", "2": "y", "3": "y"}) == {"a": "1", "b": "3", "c": "2"}
        assert sided(g, h, pg, {"1": "y", "2": "x", "3": "y"}) is None


class TestLargeGraphs:
    # The search keeps its own stack: a graph of more vertices than Python
    # allows nested calls is searched like any other.

    def test_c1200_against_a_relabelled_copy(self):
        g = cycle_graph(1200)
        rng = random.Random(1200)
        labels = list(g.vertices)
        rng.shuffle(labels)
        relabel = dict(zip(g.vertices, labels))
        order = list(g.vertices)
        rng.shuffle(order)
        h = make_graph(order, [(relabel[a], relabel[b]) for a, b in g.edge_list()])
        found = find_isomorphism(g, h)
        assert found is not None
        assert is_isomorphism(found, g, h)

    def test_k2_box_c800_is_isomorphic_to_itself(self):
        g = cartesian_product(complete_graph(2), cycle_graph(800))
        assert g.n == 1600
        assert find_isomorphism(g, g) == {v: v for v in g.vertices}


class TestNodeBudget:
    def test_restored_after_exception_in_block(self, c6):
        with pytest.raises(SearchBudgetExceeded), node_budget(1):
            assert graphs_mod.current_budget.get() == 1
            find_isomorphism(c6, cycle_graph(6))
        assert graphs_mod.current_budget.get() == 10**7
        assert find_isomorphism(c6, cycle_graph(6)) is not None

    def test_nested_blocks_restore_the_outer_value(self, c6):
        with node_budget(5):
            with node_budget(1):
                assert graphs_mod.current_budget.get() == 1
            assert graphs_mod.current_budget.get() == 5
            with pytest.raises(SearchBudgetExceeded), node_budget(2):
                find_isomorphism(c6, cycle_graph(6))
            assert graphs_mod.current_budget.get() == 5
        assert graphs_mod.current_budget.get() == 10**7

    def test_automorphisms_read_the_budget(self, c6):
        with pytest.raises(SearchBudgetExceeded), node_budget(3):
            automorphisms(c6)
        assert len(automorphisms(c6)) == 12


class TestAutomorphisms:
    def test_k2(self, k2):
        assert len(automorphisms(k2)) == 2

    def test_k3_matches_brute_force(self, k3):
        # Independent oracle: filter all vertex permutations directly.
        count = 0
        for images in itertools.permutations(range(3)):
            ok = all(
                k3.has_edge(k3.vertices[images[k3.index[a]]], k3.vertices[images[k3.index[b]]])
                for a, b in k3.edge_list()
            )
            count += ok
        auts = automorphisms(k3)
        assert count == 6
        assert len(auts) == count

    def test_two_isolated_vertices(self, two_k1):
        assert len(automorphisms(two_k1)) == 2

    def test_group_closure_and_inverses(self, c4):
        auts = set(automorphisms(c4))
        assert any(p.is_identity() for p in auts)
        for p in auts:
            assert p.inverse() in auts
            for q in auts:
                assert p.compose(q) in auts

    def test_enumeration_bound(self):
        # The node budget alone bounds the search, whatever the vertex
        # count: C11's dihedral group is listed, and S11 is not.
        assert len(automorphisms(cycle_graph(11))) == 22
        with pytest.raises(SearchBudgetExceeded), node_budget(10**4):
            automorphisms(complete_graph(11))


class TestSerialization:
    def test_json_roundtrip(self, m62):
        assert Graph.from_json(m62.to_json()) == m62

    def test_edges_stored_in_vertex_order(self, c6):
        data = c6.to_json()
        assert ["1", "6"] in data["edges"]
        for a, b in data["edges"]:
            assert c6.index[a] < c6.index[b]

    def test_dot_output(self, k2):
        dot = k2.to_dot()
        assert dot.startswith("graph G {")
        assert '"1" -- "2";' in dot

    def test_dot_escapes_quotes_and_backslashes(self):
        g = make_graph(['a"b', "c\\"], [('a"b', "c\\")])
        assert g.to_dot() == 'graph G {\n  "a\\"b";\n  "c\\\\";\n  "a\\"b" -- "c\\\\";\n}\n'

    def test_edge_list_is_a_fresh_copy(self, c6):
        before = c6.edge_list()
        data = c6.to_json()
        first = c6.edge_list()
        first.append(("1", "3"))
        first.reverse()
        assert c6.edge_list() == before
        assert c6.edge_list() is not first
        assert c6.to_json() == data


@st.composite
def small_graph(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    labels = [str(i) for i in range(1, n + 1)]
    pairs = list(itertools.combinations(labels, 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return make_graph(labels, [p for p, keep in zip(pairs, mask) if keep])


@given(small_graph(), small_graph(), st.data())
@settings(max_examples=60, deadline=None)
def test_random_morphism_composition_stays_valid(g1, g2, data):
    # Sample arbitrary weak morphisms and check composition stays one.
    f_map = {v: data.draw(st.sampled_from(g2.vertices)) for v in g1.vertices}
    f = make_morphism(g1, g2, f_map)
    ok, _ = validate_morphism(f)
    if not ok:
        return
    g_map = {v: data.draw(st.sampled_from(g1.vertices)) for v in g2.vertices}
    g = make_morphism(g2, g1, g_map)
    ok, _ = validate_morphism(g)
    if not ok:
        return
    composed_ok, _ = validate_morphism(compose(g, f))
    assert composed_ok


@st.composite
def shuffled_graph_and_subset(draw):
    """A random graph on up to 8 vertices stored in a shuffled order, plus a
    random vertex subset listed in its own shuffled order, repeats allowed."""
    n = draw(st.integers(min_value=0, max_value=8))
    labels = draw(st.permutations([str(i) for i in range(1, n + 1)]))
    pairs = list(itertools.combinations(labels, 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = make_graph(labels, [p for p, keep in zip(pairs, mask) if keep])
    subset = draw(st.lists(st.sampled_from(labels), max_size=n + 2)) if n else []
    return g, subset


@given(shuffled_graph_and_subset())
@settings(max_examples=150, deadline=None)
def test_induced_subgraph_matches_edge_filter(case):
    g, subset = case
    want = set(subset)
    sub = induced_subgraph(g, subset)
    assert sub.vertices == tuple(v for v in g.vertices if v in want)
    assert sub.edges == frozenset(e for e in g.edges if e <= want)
    assert sub.edge_list() == [(a, b) for a, b in g.edge_list() if a in want and b in want]


@given(shuffled_graph_and_subset())
@settings(max_examples=150, deadline=None)
def test_induced_subgraph_matches_make_graph(case):
    # The subgraph is built from g's adjacency lists; make_graph on the same
    # vertices and edges is the independent route.
    g, subset = case
    sub = induced_subgraph(g, subset)
    want = set(subset)
    vs = [v for v in g.vertices if v in want]
    expected = make_graph(vs, [(a, b) for a, b in g.edge_list() if a in want and b in want])
    assert sub == expected
    assert sub.vertices == expected.vertices
    assert sub.edges == expected.edges
    assert adjacency(sub) == adjacency(expected)
    assert sub.edge_list() == expected.edge_list()
    assert sub.profile == expected.profile


# --- reference isomorphism search -------------------------------------------
#
# The search as it was before it took candidates from signature classes and
# checked feasibility in O(deg v): every unused vertex of h is a candidate,
# and feasibility compares adjacency against every mapped pair.  It places
# g's vertices in connectivity order, as the kernel does, found here by a
# plain scan.  The current search must return the same witness and the same
# automorphism list, and try no more nodes.


def connectivity_order(g):
    """g's vertices in placing order: next the first unplaced vertex, in
    stored order, with a placed neighbour, else the first unplaced one."""
    order, placed = [], set()
    while len(order) < g.n:
        unplaced = [v for v in g.vertices if v not in placed]
        touching = [v for v in unplaced if any(g.has_edge(v, u) for u in placed)]
        order.append((touching or unplaced)[0])
        placed.add(order[-1])
    return order


class ReferenceIsoSearch:
    def __init__(self, g, h, budget):
        self.g = g
        self.h = h
        self.budget = budget
        self.nodes = 0
        self.order = connectivity_order(g)
        self.g_sig = {v: sorted(degree(g, u) for u in neighbors(g, v)) for v in g.vertices}
        self.h_sig = {v: sorted(degree(h, u) for u in neighbors(h, v)) for v in h.vertices}

    def run(self):
        """The first witness, keyed in g's stored order, or None."""
        g, h = self.g, self.h
        if g.n != h.n or len(g.edges) != len(h.edges):
            return None
        if degree_sequence(g) != degree_sequence(h):
            return None
        mapping, used = {}, set()
        if self._extend(0, mapping, used):
            return {v: mapping[v] for v in g.vertices}
        return None

    def _extend(self, i, mapping, used):
        if i == self.g.n:
            return True
        v = self.order[i]
        for w in self.h.vertices:
            if w in used:
                continue
            self.nodes += 1
            if self.nodes > self.budget:
                raise SearchBudgetExceeded(f"isomorphism search exceeded {self.budget} nodes")
            if not self.feasible(v, w, mapping):
                continue
            mapping[v] = w
            used.add(w)
            if self._extend(i + 1, mapping, used):
                return True
            del mapping[v]
            used.discard(w)
        return False

    def feasible(self, v, w, mapping):
        if degree(self.g, v) != degree(self.h, w):
            return False
        if self.g_sig[v] != self.h_sig[w]:
            return False
        for u, wu in mapping.items():
            if self.g.has_edge(v, u) != self.h.has_edge(w, wu):
                return False
        return True


def reference_automorphisms(g):
    """The reference list of automorphisms and the nodes it tried."""
    search = ReferenceIsoSearch(g, g, graphs_mod.DEFAULT_NODE_BUDGET)
    found = []

    def extend(i, mapping, used):
        if i == g.n:
            found.append(Perm(tuple(g.index[mapping[v]] for v in g.vertices)))
            return
        v = g.vertices[i]
        for w in g.vertices:
            if w in used:
                continue
            search.nodes += 1
            if not search.feasible(v, w, mapping):
                continue
            mapping[v] = w
            used.add(w)
            extend(i + 1, mapping, used)
            del mapping[v]
            used.discard(w)

    extend(0, {}, set())
    return sorted(found), search.nodes


@st.composite
def graph_up_to_8(draw, n=None):
    if n is None:
        n = draw(st.integers(min_value=0, max_value=8))
    labels = draw(st.permutations([str(i) for i in range(1, n + 1)]))
    pairs = list(itertools.combinations(labels, 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return make_graph(labels, [p for p, keep in zip(pairs, mask) if keep])


def shuffled_copy(draw, g, swap):
    """A relabelled copy of g stored in a shuffled order, after one
    degree-preserving edge swap when swap is set and g has one."""
    edges = [tuple(e) for e in g.edge_list()]
    swaps = [
        (i, j)
        for i, (a, b) in enumerate(edges)
        for j, (c, d) in enumerate(edges)
        if len({a, b, c, d}) == 4 and not g.has_edge(a, d) and not g.has_edge(c, b)
    ]
    if swap and swaps:
        i, j = draw(st.sampled_from(swaps))
        (a, b), (c, d) = edges[i], edges[j]
        edges = [e for k, e in enumerate(edges) if k not in (i, j)] + [(a, d), (c, b)]
    relabel = dict(zip(g.vertices, draw(st.permutations(list(g.vertices)))))
    order = draw(st.permutations(list(g.vertices)))
    return make_graph(order, [(relabel[a], relabel[b]) for a, b in edges])


@st.composite
def search_pair(draw):
    """A graph and a second graph on as many vertices, stored in a shuffled
    order: a relabelled copy, a copy after one degree-preserving edge swap,
    or an unrelated graph."""
    g = draw(graph_up_to_8())
    kind = draw(st.sampled_from(["copy", "swap", "other"]))
    if kind == "other":
        return g, draw(graph_up_to_8(n=g.n))
    return g, shuffled_copy(draw, g, kind == "swap")


def circulant(n, jumps):
    return make_graph(range(n), {tuple(sorted((i, (i + j) % n))) for i in range(n) for j in jumps})


@st.composite
def regular_graph_10_to_24(draw):
    """A prism C_m □ K2, a Möbius ladder C_2m(1, m) or a circulant
    C_n(1, k) on 10 to 24 vertices, its labels permuted and its stored
    order kept."""
    kind = draw(st.sampled_from(["prism", "mobius", "circulant"]))
    if kind == "prism":
        g = cartesian_product(cycle_graph(draw(st.integers(5, 12))), complete_graph(2))
    elif kind == "mobius":
        m = draw(st.integers(5, 12))
        g = circulant(2 * m, [1, m])
    else:
        n = draw(st.integers(10, 24))
        # k = n/2 - 1 would make i and i + n/2 twins, with 2^(n/2) automorphisms.
        k = draw(st.integers(2, (n - 1) // 2).filter(lambda k: 2 * k + 2 != n))
        g = circulant(n, [1, k])
    labels = draw(st.permutations(list(g.vertices)))
    relabel = dict(zip(g.vertices, labels))
    return make_graph(labels, [(relabel[a], relabel[b]) for a, b in g.edge_list()])


@st.composite
def regular_pair(draw):
    """A regular graph and a relabelled copy in a shuffled order, or such a
    copy after one degree-preserving edge swap."""
    g = draw(regular_graph_10_to_24())
    return g, shuffled_copy(draw, g, draw(st.booleans()))


class TestSearchAgainstReference:
    @given(search_pair())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_same_witness_and_no_more_nodes(self, pair):
        g, h = pair
        reference = ReferenceIsoSearch(g, h, graphs_mod.DEFAULT_NODE_BUDGET)
        expected = reference.run()
        witnesses, nodes = search(g, h)
        found = witnesses[0] if witnesses else None
        assert found == expected
        if found is not None:
            assert list(found.items()) == list(expected.items())
        assert find_isomorphism(g, h) == expected
        assert nodes <= reference.nodes

    @given(graph_up_to_8())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_same_automorphisms_and_no_more_nodes(self, g):
        expected, nodes = reference_automorphisms(g)
        # With the reference's node count as the budget, the search must
        # finish: it may not try more nodes.
        with node_budget(nodes):
            assert automorphisms(g) == expected

    def test_prism_and_twisted_ladder_witness(self):
        g, h = hexagonal_prism(), twisted_hexagonal_ladder()
        reference = ReferenceIsoSearch(g, h, graphs_mod.DEFAULT_NODE_BUDGET)
        witnesses, nodes = search(g, h)
        assert list(witnesses[0].items()) == list(reference.run().items())
        assert nodes <= reference.nodes

    @given(regular_pair())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_regular_graphs_same_witness_and_no_more_nodes(self, pair):
        g, h = pair
        reference = ReferenceIsoSearch(g, h, graphs_mod.DEFAULT_NODE_BUDGET)
        expected = reference.run()
        witnesses, nodes = search(g, h)
        found = witnesses[0] if witnesses else None
        assert found == expected
        if found is not None:
            assert list(found.items()) == list(expected.items())
        assert nodes <= reference.nodes

    @given(regular_graph_10_to_24())
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_regular_graphs_same_automorphisms_and_no_more_nodes(self, g):
        expected, nodes = reference_automorphisms(g)
        witnesses, spent = search(g, g, limit=None)
        found = sorted(Perm(tuple(g.index[m[v]] for v in g.vertices)) for m in witnesses)
        assert found == expected
        assert spent <= nodes

    def test_mixed_base_pair_spends_a_tenth_of_the_reference_nodes(self):
        # The paper's mixed-base figure check: forward checking prunes the
        # placements whose later neighbours are left without candidates.
        link = mod3_projection(NAMED_GRAPHS["c6"]())
        g = mixed_base_subdirect(m3_bundle(), c6k2_bundle(), link).graph
        h = mixed_base_figure_24()
        reference = ReferenceIsoSearch(g, h, graphs_mod.DEFAULT_NODE_BUDGET)
        witnesses, nodes = search(g, h)
        assert list(witnesses[0].items()) == list(reference.run().items())
        assert 10 * nodes < reference.nodes
        # The count is deterministic.  Without the check for emptied
        # domains the same search spends 266 nodes; the reference 2,164.
        # In stored order, whose second vertex is not adjacent to the
        # first, the search spent 2,109 and the reference 38,993.
        assert nodes == 49

    def test_histogram_mismatch_spends_no_nodes(self):
        # P5 and a triangle plus an edge share n, |E| and the degree
        # sequence, but not the neighbour degrees.
        g = make_graph([1, 2, 3, 4, 5], [(1, 2), (2, 3), (3, 4), (4, 5)])
        h = make_graph([1, 2, 3, 4, 5], [(1, 2), (2, 3), (3, 1), (4, 5)])
        assert degree_sequence(g) == degree_sequence(h)
        assert search(g, h, 0) == ([], 0)
        with pytest.raises(SearchBudgetExceeded):
            ReferenceIsoSearch(g, h, 0).run()
