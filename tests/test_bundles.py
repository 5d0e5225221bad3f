import dataclasses
import functools
import itertools
import random
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from bundleforge import (
    FiberVoltage,
    Perm,
    adjacency_matrix,
    automorphisms,
    bundle_adjacency,
    bundle_to_voltage,
    bundles_equivalent,
    cartesian_product,
    complete_graph,
    cycle_graph,
    empty_graph,
    enumerate_bundle_classes,
    find_isomorphism,
    is_trivial,
    make_fiber_voltage,
    make_graph,
    make_morphism,
    path_graph,
    star_graph,
    trivial_voltage,
    validate_morphism,
    verify_bundle,
    verify_kfold_covering,
    voltage_bundle,
)
from bundleforge import bundles, graphs, ktheory, products
from bundleforge.graphs import induced_subgraph, pair_label, search_shape, split_pair_label
from bundleforge.errors import (
    BaseMismatch,
    BundleForgeError,
    FiberMismatch,
    FiberNotIsomorphic,
    LocalTrivialityFails,
    NotACovering,
    NotAMorphism,
    ParseError,
    SearchBudgetExceeded,
    TotalMismatch,
    TransitionNotIso,
    UnknownVertex,
)
from bundleforge.matrices import Matrix
from bundleforge.products import make_covering_voltage
from bundleforge.pullback import pullback_bundle, subdirect_product
from bundleforge.named import c6k2_bundle, m3_bundle

from conftest import (
    adjacency,
    identity_bundle,
    induced_adjacency,
    is_equivalence_witness,
    m62_bundle,
    neighbors,
    spanning_forest,
)
from dense_reference import identity, kronecker

SWAP = Perm((1, 0))
IDENT = Perm((0, 1))


class TestVoltageBundle:
    def test_trivial_voltage_gives_prism(self, c3, k2):
        b = voltage_bundle(trivial_voltage(c3, k2))
        assert b.total.n == 6 and len(b.total.edges) == 9
        assert find_isomorphism(b.total, cartesian_product(c3, k2)) is not None

    def test_one_twist_gives_twisted_ladder(self, c3, k2, m3, m3_voltage):
        b = voltage_bundle(m3_voltage)
        assert find_isomorphism(b.total, m3) is not None

    def test_keeps_the_voltage_it_was_given(self, m3_voltage):
        assert voltage_bundle(m3_voltage).voltage is m3_voltage

    def test_edgeless_fiber_gives_double_cover(self, c3, c6, two_k1):
        fv = make_fiber_voltage(
            c3, two_k1, {("1", "2"): IDENT, ("2", "3"): IDENT, ("1", "3"): SWAP}
        )
        b = voltage_bundle(fv)
        assert find_isomorphism(b.total, c6) is not None

    def test_single_edge_swap_fiber_k2_gives_c4(self, k2, c4):
        # With genuine fiber edges the swapped voltage closes a 4-cycle.
        fv = make_fiber_voltage(k2, k2, {("1", "2"): SWAP})
        assert find_isomorphism(voltage_bundle(fv).total, c4) is not None

    def test_roundtrip_soundness(self, m3_voltage):
        b = voltage_bundle(m3_voltage)
        again = verify_bundle(b.total, b.projection, b.fiber)
        assert again.total == b.total


class TestVerifyBundle:
    def test_prism_projection(self, c3, k2):
        prism = cartesian_product(k2, c3)
        p = make_morphism(prism, c3, {x: split_pair_label(x)[1] for x in prism.vertices})
        b = verify_bundle(prism, p, k2)
        assert b.base == c3

    def test_twisted_ladder(self, m3, c3, k2, q_m3_c3):
        b = verify_bundle(m3, q_m3_c3, k2)
        assert b.projection.preimages["1"] == ("3", "6")

    def test_cover_is_not_a_k2_bundle(self, c6, c3, k2, p_c6_c3):
        with pytest.raises(FiberNotIsomorphic):
            verify_bundle(c6, p_c6_c3, k2)

    def test_cover_is_an_edgeless_fiber_bundle(self, c6, two_k1, p_c6_c3):
        b = verify_bundle(c6, p_c6_c3, two_k1)
        assert b.fiber == two_k1

    def test_equal_total_is_accepted(self, two_k1, p_c6_c3):
        assert verify_bundle(cycle_graph(6), p_c6_c3, two_k1).total == cycle_graph(6)

    @pytest.mark.parametrize(
        "total",
        [make_graph(list("abcdef"), [("a", "b")]), path_graph(6)],
        ids=["other-labels", "p6"],
    )
    def test_projection_from_another_total(self, total, two_k1, p_c6_c3):
        # p is defined on C6.  On other labels the checks would meet a
        # vertex p does not map; on P6 the morphism check would read C6's
        # edges and the transitions P6's.
        with pytest.raises(TotalMismatch, match="is not the total space"):
            verify_bundle(total, p_c6_c3, two_k1)

    @pytest.mark.parametrize(
        "e_image, message",
        [(None, "morphism undefined on vertex 'e'"), ("9", "morphism value '9' not in codomain")],
        ids=["left-out", "off-the-base"],
    )
    def test_hand_built_projection_of_an_isolated_vertex(self, k2, e_image, message):
        # The 4-cycle a-b-d-c over K2 with fibers {a, b} and {c, d}, plus an
        # isolated e that the projection leaves out or sends off the base.
        # No edge reaches e, so only make_morphism's check of every vertex
        # sees it, before any projection reaches verify_bundle.
        total = make_graph(list("abcde"), [("a", "b"), ("c", "d"), ("a", "c"), ("b", "d")])
        pairs = (("a", "1"), ("b", "1"), ("c", "2"), ("d", "2"))
        if e_image is not None:
            pairs += (("e", e_image),)
        with pytest.raises(UnknownVertex, match=f"^{message}$"):
            make_morphism(total, k2, dict(pairs))

    def test_twisted_matching_is_not_a_transition_iso(self, k2):
        # Two copies of the path a-b-c joined by a-b', b-a', c-c': a
        # one-to-one matching between the fibers that sends the edge b-c to
        # the non-edge a'-c'.  The total space has a 5-cycle, so it is not
        # K2 □ P3 either.
        p3 = make_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        total = make_graph(
            ["a", "b", "c", "a'", "b'", "c'"],
            [("a", "b"), ("b", "c"), ("a'", "b'"), ("b'", "c'"),
             ("a", "b'"), ("b", "a'"), ("c", "c'")],
        )
        base_v, base_w = k2.vertices
        over = {x: base_w if x.endswith("'") else base_v for x in total.vertices}
        with pytest.raises(TransitionNotIso, match=rf"base edge \('{base_v}', '{base_w}'\)"):
            verify_bundle(total, make_morphism(total, k2, over), p3)

    @pytest.mark.parametrize("order", [("v", "w"), ("w", "v")])
    def test_shared_neighbour_is_not_a_covering(self, order, two_k1):
        # x1 and x2 over v both meet y1 over w, and y2 over w is isolated.
        # Read from v, every x has exactly one neighbour over w; only the
        # one-to-one test of psi_vw sees that this is no covering.
        base = make_graph(order, [("v", "w")])
        total = make_graph(["x1", "x2", "y1", "y2"], [("x1", "y1"), ("x2", "y1")])
        over = {"x1": "v", "x2": "v", "y1": "w", "y2": "w"}
        with pytest.raises(NotACovering):
            verify_bundle(total, make_morphism(total, base, over), two_k1)

    def test_domino_across_the_fibers_is_not_a_bundle(self, k2, p3):
        # The preimage of the base edge is the domino K2 □ P3, but the fibers
        # a-b-c and a'-b'-c' cut across it and b has no neighbour over the
        # other end.  Local triviality holds only up to isomorphism, not
        # over the edge, so both characterizations reject.
        total = make_graph(
            ["a", "b", "c", "a'", "b'", "c'"],
            [("a", "b"), ("b", "c"), ("a'", "b'"), ("b'", "c'"), ("a", "a'"), ("c", "c'"), ("c", "a'")],
        )
        assert find_isomorphism(total, cartesian_product(k2, p3)) is not None
        base_v, base_w = k2.vertices
        over = {x: base_w if x.endswith("'") else base_v for x in total.vertices}
        with pytest.raises(NotACovering, match=f"'b' over '{base_v}' has 0 neighbours"):
            verify_bundle(total, make_morphism(total, k2, over), p3)

    def test_edge_preimages_of_one_shape_differ_by_side(self, p3):
        # Over the base 1-2 3-4, both edge preimages are the domino K2 □ P3
        # with the same edges by position (0-1, 1-2, 3-4, 4-5, 0-3, 1-4,
        # 2-5).  Over 1-2 the fibers are x0-x1-x2 and x3-x4-x5.  Over 3-4
        # they are y0-y3-y4 and y1-y2-y5, paths too, but they cut across
        # the domino.  Only the side of each vertex tells the two preimages
        # apart, and the second one is no covering.
        domino = [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)]
        xs, ys = [f"x{i}" for i in range(6)], [f"y{i}" for i in range(6)]
        total = make_graph(xs + ys, [(c[i], c[j]) for c in (xs, ys) for i, j in domino])
        base = make_graph(["1", "2", "3", "4"], [("1", "2"), ("3", "4")])
        over = {x: "1" if x in xs[:3] else "2" for x in xs}
        over.update({y: "3" if y in (ys[0], ys[3], ys[4]) else "4" for y in ys})
        with pytest.raises(NotACovering, match="'y3' over '3' has 0 neighbours over '4'"):
            verify_bundle(total, make_morphism(total, base, over), p3)

    def test_missing_cross_edge_is_not_a_covering(self, k2, c3):
        # The fibers are still triangles, but (1,1) has no neighbour over 2.
        b = voltage_bundle(trivial_voltage(k2, c3))
        edges = [e for e in b.total.edge_list() if set(e) != {"(1,1)", "(2,1)"}]
        assert len(edges) == len(b.total.edges) - 1
        total = make_graph(b.total.vertices, edges)
        with pytest.raises(NotACovering):
            verify_bundle(total, make_morphism(total, k2, b.projection.map), c3)

    def test_bundle_holds_only_what_verification_proves(self, m3, k2, q_m3_c3):
        b = verify_bundle(m3, q_m3_c3, k2)
        assert [f.name for f in dataclasses.fields(b)] == ["total", "projection", "fiber", "sigma", "voltage"]
        assert b.base is q_m3_c3.codomain
        assert b.voltage is bundle_to_voltage(b)
        assert not isinstance(vars(bundles.GraphBundle).get("voltage"), functools.cached_property)

    def test_fiber_with_no_vertices(self, c3):
        # Every fiber and every edge preimage is empty: both routes accept.
        b = voltage_bundle(trivial_voltage(c3, empty_graph(0)))
        assert b.total.n == 0
        assert verify_bundle(b.total, b.projection, b.fiber).sigma == ()


class TestVoltageExtraction:
    def test_trivial_bundle_extracts_identity(self, c3, k2):
        b = voltage_bundle(trivial_voltage(c3, k2))
        ev = bundle_to_voltage(b)
        assert all(p.is_identity() for p in ev.phi.values())

    def test_twisted_ladder_has_one_twisted_edge(self, m3, c3, k2, q_m3_c3):
        b = verify_bundle(m3, q_m3_c3, k2)
        ev = bundle_to_voltage(b)
        twisted = [e for e in c3.edge_list() if not ev.phi[e].is_identity()]
        assert twisted == [("1", "2")]
        # Round trip: rebuilding from the extracted voltage is equivalent.
        assert bundles_equivalent(voltage_bundle(ev), b) is not None

    def test_prism_over_hexagon_extracts_identity(self):
        ev = bundle_to_voltage(c6k2_bundle())
        assert all(p.is_identity() for p in ev.phi.values())


class TestEquivalence:
    def test_prism_and_twisted_ladder_over_hexagon(self):
        b1, b2 = c6k2_bundle(), m62_bundle()
        witness = bundles_equivalent(b1, b2)
        assert witness is not None
        assert is_equivalence_witness(b1, b2, witness)
        cited = {str(i): str(i) for i in range(1, 13)}
        cited.update({"3": "9", "9": "3", "4": "10", "10": "4", "5": "11", "11": "5"})
        assert is_equivalence_witness(b1, b2, cited)

    def test_self_equivalence_is_identity(self):
        b = m3_bundle()
        witness = bundles_equivalent(b, b)
        assert witness == {v: v for v in b.total.vertices}

    def test_prism_not_equivalent_to_twisted(self, c3, k2, m3_voltage):
        b1 = voltage_bundle(trivial_voltage(c3, k2))
        b2 = voltage_bundle(m3_voltage)
        assert bundles_equivalent(b1, b2) is None

    def test_base_mismatch(self, c3, c4, k2):
        b1 = voltage_bundle(trivial_voltage(c3, k2))
        b2 = voltage_bundle(trivial_voltage(c4, k2))
        with pytest.raises(BaseMismatch):
            bundles_equivalent(b1, b2)

    def test_fiber_mismatch(self, c3, k2, two_k1):
        b1 = voltage_bundle(trivial_voltage(c3, k2))
        b2 = voltage_bundle(trivial_voltage(c3, two_k1))
        with pytest.raises(FiberMismatch):
            bundles_equivalent(b1, b2)

    def test_equivalence_relation_on_hexagon_family(self, c6, k2):
        # All eight one-orientation swap patterns over two chosen edges,
        # plus the two reference bundles: relation properties hold.
        rng = random.Random(7)
        bundles = [c6k2_bundle(), m62_bundle()]
        for _ in range(3):
            assignment = {
                (a, b): SWAP if rng.random() < 0.5 else IDENT for a, b in c6.edge_list()
            }
            bundles.append(voltage_bundle(make_fiber_voltage(c6, k2, assignment)))
        for b in bundles:
            assert bundles_equivalent(b, b) is not None
        for b1, b2 in itertools.combinations(bundles, 2):
            forward = bundles_equivalent(b1, b2)
            backward = bundles_equivalent(b2, b1)
            assert (forward is None) == (backward is None)
        for b1, b2, b3 in itertools.combinations(bundles, 3):
            e12 = bundles_equivalent(b1, b2) is not None
            e23 = bundles_equivalent(b2, b3) is not None
            e13 = bundles_equivalent(b1, b3) is not None
            if e12 and e23:
                assert e13


def reference_gauges(base, auts, phi1, phi2):
    """Every gauge g with phi2(v,w) = g_w ∘ phi1(v,w) ∘ g_v⁻¹, found by trying
    each automorphism at the root of each component: an independent route
    to the holonomy search, for fibers small enough to enumerate."""
    per_component = []
    for tree in spanning_forest(base):
        root, *rest = tree
        non_tree = [
            (v, w)
            for v in tree
            for w in neighbors(base, v)
            if base.index[v] < base.index[w] and tree[v] != w and tree[w] != v
        ]
        sols = []
        for g_root in auts:
            g = {root: g_root}
            for w in rest:
                v = tree[w]
                g[w] = phi2[(v, w)].compose(g[v]).compose(phi1[(v, w)].inverse())
            if all(g[w].compose(phi1[(v, w)]) == phi2[(v, w)].compose(g[v]) for v, w in non_tree):
                sols.append(g)
        if not sols:
            return
        per_component.append(sols)
    for combo in itertools.product(*per_component):
        merged = {}
        for part in combo:
            merged.update(part)
        yield merged


def reference_equivalence(b1, b2, auts):
    """The least witness over all gauges from auts = Aut(F), or None."""
    witnesses = []
    for g in reference_gauges(b1.base, auts, bundle_to_voltage(b1).phi, bundle_to_voltage(b2).phi):
        mapping = {}
        for v in b1.base.vertices:
            inv2 = {b2.sigma[b2.total.index[y]]: y for y in b2.projection.preimages[v]}
            for x in b1.projection.preimages[v]:
                mapping[x] = inv2[g[v][b1.sigma[b1.total.index[x]]]]
        witnesses.append(mapping)
    if not witnesses:
        return None
    return min(witnesses, key=lambda m: tuple(m[x] for x in b1.total.vertices))


def reverified(b, rng):
    """The same bundle verified again from a total with shuffled vertex
    order, so the fiber identifications are no longer the identity."""
    order = list(b.total.vertices)
    rng.shuffle(order)
    total = make_graph(order, b.total.edge_list())
    return verify_bundle(total, make_morphism(total, b.base, b.projection.map), b.fiber)


def gauge_transform(fv, gauge):
    return make_fiber_voltage(
        fv.base,
        fv.fiber,
        {(a, b): gauge[b].compose(fv.phi[(a, b)]).compose(gauge[a].inverse()) for a, b in fv.base.edge_list()},
    )


class TestEquivalenceAgainstAutEnumeration:
    def test_witnesses_match_reference(self):
        rng = random.Random(41)
        bases = [
            cycle_graph(3),
            cycle_graph(4),
            path_graph(3),
            make_graph(["1", "2", "3", "4"], [("1", "2"), ("1", "3"), ("1", "4"), ("2", "3"), ("3", "4")]),
            make_graph(["a", "b", "c", "d", "e", "f"], [("a", "b"), ("b", "c"), ("a", "c"), ("d", "e")]),
            make_graph(["a", "b", "c", "d"], [("b", "c"), ("c", "d"), ("b", "d")]),
            make_graph(["a", "b"], []),
        ]
        fibers = [
            complete_graph(1),
            complete_graph(2),
            complete_graph(3),
            path_graph(3),
            cycle_graph(4),
            cycle_graph(5),
            empty_graph(3),
            empty_graph(4),
            star_graph(3),
        ]
        auts = {f: automorphisms(f) for f in fibers}
        equivalent = 0
        pairs = 2600
        for _ in range(pairs):
            base, fiber = rng.choice(bases), rng.choice(fibers)
            fv1 = make_fiber_voltage(base, fiber, {e: rng.choice(auts[fiber]) for e in base.edge_list()})
            if rng.random() < 0.6:
                fv2 = gauge_transform(fv1, {v: rng.choice(auts[fiber]) for v in base.vertices})
            else:
                fv2 = make_fiber_voltage(base, fiber, {e: rng.choice(auts[fiber]) for e in base.edge_list()})
            b1 = reverified(voltage_bundle(fv1), rng)
            b2 = voltage_bundle(fv2)
            expected = reference_equivalence(b1, b2, auts[fiber])
            witness = bundles_equivalent(b1, b2)
            assert witness == expected
            if witness is not None:
                assert list(witness) == list(expected)
                assert is_equivalence_witness(b1, b2, witness)
                equivalent += 1
            ident = {e: Perm.identity(fiber.n) for e in fv1.phi}
            trivializations = reference_gauges(base, auts[fiber], fv1.phi, ident)
            assert is_trivial(b1) == (next(trivializations, None) is not None)
        assert equivalent > 0.6 * pairs and pairs - equivalent > 300

    def test_witness_follows_labels_of_a_fiber_stored_out_of_order(self):
        # K3 stored as c, a, b: b2's labels over each base vertex are not in
        # its position order, and the least witness follows the labels.
        rng = random.Random(43)
        fiber = make_graph(["c", "a", "b"], [("c", "a"), ("a", "b"), ("b", "c")])
        auts = automorphisms(fiber)
        for n in range(10, 15):
            base = cycle_graph(n)
            for _ in range(12):
                fv1 = make_fiber_voltage(base, fiber, {e: rng.choice(auts) for e in base.edge_list()})
                fv2 = gauge_transform(fv1, {v: rng.choice(auts) for v in base.vertices})
                b1, b2 = reverified(voltage_bundle(fv1), rng), voltage_bundle(fv2)
                witness, expected = bundles_equivalent(b1, b2), reference_equivalence(b1, b2, auts)
                assert witness is not None and list(witness.items()) == list(expected.items())

    def test_nine_vertex_fiber_equivalence(self, c6, c9_rotation_voltage):
        rotation = Perm(tuple((i + 1) % 9 for i in range(9)))
        reflection = Perm(tuple(-i % 9 for i in range(9)))
        gauge = {v: Perm.identity(9) for v in c6.vertices}
        for i, v in enumerate(c6.vertices):
            for _ in range(i):
                gauge[v] = rotation.compose(gauge[v])
            if i % 3 == 1:
                gauge[v] = gauge[v].compose(reflection)
        b1 = voltage_bundle(c9_rotation_voltage)
        b2 = voltage_bundle(gauge_transform(c9_rotation_voltage, gauge))
        witness = bundles_equivalent(b1, b2)
        assert witness is not None and is_equivalence_witness(b1, b2, witness)
        # The holonomy r^k and the holonomy r^2k are both 9-cycles, and no
        # automorphism of C9 conjugates one onto the other.
        doubled = make_fiber_voltage(
            c6, cycle_graph(9), {e: p.compose(p) for e, p in c9_rotation_voltage.phi.items()}
        )
        assert bundles_equivalent(b1, voltage_bundle(doubled)) is None

    def test_eight_point_fiber_is_fast(self):
        rng = random.Random(5)
        base = make_graph(["1", "2", "3", "4"], [("1", "2"), ("1", "3"), ("1", "4"), ("2", "3"), ("3", "4")])
        fiber = empty_graph(8)

        def shuffled():
            images = list(range(8))
            rng.shuffle(images)
            return Perm(tuple(images))

        fv = make_fiber_voltage(base, fiber, {e: shuffled() for e in base.edge_list()})
        b1 = voltage_bundle(fv)
        b2 = voltage_bundle(gauge_transform(fv, {v: shuffled() for v in base.vertices}))
        start = time.perf_counter()
        witness = bundles_equivalent(b1, b2)
        assert time.perf_counter() - start < 0.5
        assert witness is not None and is_equivalence_witness(b1, b2, witness)

    def test_cycle_types_differ_rejected_without_search(self, c3):
        fiber = empty_graph(10)
        ident = Perm.identity(10)
        swap = Perm((1, 0) + tuple(range(2, 10)))
        double = Perm((1, 0, 3, 2) + tuple(range(4, 10)))
        b1 = voltage_bundle(make_fiber_voltage(c3, fiber, {("1", "2"): swap, ("2", "3"): ident, ("1", "3"): ident}))
        b2 = voltage_bundle(make_fiber_voltage(c3, fiber, {("1", "2"): double, ("2", "3"): ident, ("1", "3"): ident}))
        with graphs.node_budget(0):
            assert bundles_equivalent(b1, b2) is None

    def test_node_budget_bounds_the_search(self, c3):
        b = voltage_bundle(trivial_voltage(c3, empty_graph(10)))
        with pytest.raises(SearchBudgetExceeded), graphs.node_budget(3):
            bundles_equivalent(b, b)


class TestTriviality:
    def test_prism_trivial(self, c3, k2):
        assert is_trivial(voltage_bundle(trivial_voltage(c3, k2)))

    def test_twisted_ladder_not_trivial(self):
        assert not is_trivial(m3_bundle())

    @pytest.mark.parametrize("base_name", ["p2", "p3", "p4", "s3"])
    def test_tree_bundles_trivial(self, base_name, k2):
        base = {
            "p2": path_graph(2),
            "p3": path_graph(3),
            "p4": path_graph(4),
            "s3": star_graph(3),
        }[base_name]
        for assignment in itertools.product([IDENT, SWAP], repeat=len(base.edge_list())):
            fv = make_fiber_voltage(
                base, complete_graph(2), dict(zip(base.edge_list(), assignment))
            )
            assert is_trivial(voltage_bundle(fv))

    def test_nine_vertex_fiber(self, c6, c9_rotation_voltage):
        # Aut(C9) is past the enumeration bound; triviality needs none of it.
        assert not is_trivial(voltage_bundle(c9_rotation_voltage))
        rotation = Perm(tuple((i + 1) % 9 for i in range(9)))
        reflection = Perm(tuple(-i % 9 for i in range(9)))
        gauge = {v: Perm.identity(9) for v in c6.vertices}
        for i, v in enumerate(c6.vertices):
            for _ in range(i):
                gauge[v] = rotation.compose(gauge[v])
            if i % 2:
                gauge[v] = gauge[v].compose(reflection)
        twisted = make_fiber_voltage(
            c6, cycle_graph(9), {(a, b): gauge[b].compose(gauge[a].inverse()) for a, b in c6.edge_list()}
        )
        assert len(set(twisted.phi.values())) > 1
        assert is_trivial(voltage_bundle(twisted))

    def test_agrees_with_equivalence_to_box_product(self):
        # Independent route: an equivalence to the trivial bundle, searched
        # over Aut(F).  Half the voltages are gauge transforms of the trivial
        # one, the rest are drawn from Aut(F) edge by edge.
        rng = random.Random(29)
        bases = [
            cycle_graph(3),
            cycle_graph(5),
            complete_graph(4),
            path_graph(4),
            make_graph(["a", "b", "c", "d", "e"], [("a", "b"), ("c", "d"), ("d", "e"), ("c", "e")]),
        ]
        fibers = [
            complete_graph(2),
            complete_graph(3),
            path_graph(3),
            cycle_graph(4),
            empty_graph(3),
            star_graph(3),
            cycle_graph(8),
        ]
        verdicts = []
        for _ in range(400):
            base, fiber = rng.choice(bases), rng.choice(fibers)
            auts = automorphisms(fiber)
            if rng.random() < 0.5:
                gauge = {v: rng.choice(auts) for v in base.vertices}
                assignments = {(a, b): gauge[b].compose(gauge[a].inverse()) for a, b in base.edge_list()}
            else:
                assignments = {e: rng.choice(auts) for e in base.edge_list()}
            b = voltage_bundle(make_fiber_voltage(base, fiber, assignments))
            expected = bundles_equivalent(b, voltage_bundle(trivial_voltage(base, fiber))) is not None
            assert is_trivial(b) == expected
            verdicts.append(expected)
        assert 100 < sum(verdicts) < 350


def reference_forest_cycles(base):
    """The forest walk by labels, as bundles walked it before it ran on
    positions: per component of spanning_forest, the tree and the edges
    (v, w) off it, with v before w in the base, in the tree's visit order
    of v: one fundamental cycle each."""
    idx, adj = base.index, adjacency(base)
    return [
        (tree, [(v, w) for v in tree for w in adj[v] if idx[v] < idx[w] and tree[v] != w and tree[w] != v])
        for tree in spanning_forest(base)
    ]


def reference_holonomies(fv):
    """The holonomy walk by labels, on the label view phi: per component,
    the transport t[v] from the root along the tree, keyed by label in
    visit order, and the holonomy t[w]⁻¹ ∘ φ(v, w) ∘ t[v] of each non-tree
    edge (v, w)."""
    phi, components = fv.phi, []
    for tree, cycles in reference_forest_cycles(fv.base):
        t = {}
        for w, v in tree.items():
            t[w] = Perm.identity(fv.fiber.n) if v is None else phi[(v, w)].compose(t[v])
        components.append((t, [t[w].inverse().compose(phi[(v, w)]).compose(t[v]) for v, w in cycles]))
    return components


FOREST_FIBERS = [complete_graph(2), complete_graph(3), path_graph(3), cycle_graph(4), empty_graph(2)]


@st.composite
def shuffled_voltages(draw):
    """A voltage over a base of up to six vertices, disconnected ones
    included, stored in a drawn vertex order, with a drawn fiber
    automorphism on each edge."""
    n = draw(st.integers(1, 6))
    pairs = [(str(i), str(j)) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=n + 2)) if pairs else []
    base = make_graph(draw(st.permutations([str(i) for i in range(1, n + 1)])), edges)
    fiber = draw(st.sampled_from(FOREST_FIBERS))
    auts = automorphisms(fiber)
    return make_fiber_voltage(base, fiber, {e: draw(st.sampled_from(auts)) for e in base.edge_list()})


@settings(max_examples=300, deadline=None, derandomize=True)
@given(shuffled_voltages())
def test_holonomy_walk_matches_the_label_reference(fv):
    """The forest, the transports, the holonomies and the ktheory keys read
    on positions equal the label routes, component by component, in visit
    order."""
    vs = fv.base.vertices
    reference = reference_holonomies(fv)
    forest = [
        ({vs[w]: None if v is None else vs[v] for w, v in tree}, [(vs[v], vs[w]) for v, w in cycles])
        for tree, cycles in bundles._forest_cycles(fv.base)
    ]
    assert [(list(tree.items()), cycles) for tree, cycles in forest] == [
        (list(tree.items()), cycles) for tree, cycles in reference_forest_cycles(fv.base)
    ]
    t, components = bundles._holonomies(fv)
    assert [([(vs[v], t[v]) for v in positions], hs) for positions, hs in components] == [
        (list(tr.items()), hs) for tr, hs in reference
    ]
    cycles, fresh = ktheory._cycle_edges(fv.base)
    assert fresh == tuple(i == 0 for _, hs in reference for i in range(len(hs)))
    assert [fv.base.ends[k] for k in cycles] == [(fv.base.index[v], fv.base.index[w]) for _, es in forest for v, w in es]
    chain = ktheory._Chain(fv.fiber)
    assert chain.key([h for _, hs in components for h in hs], fresh) == chain.key([h for _, hs in reference for h in hs], fresh)
    if len(cycles) <= 2:
        # A representative is its key off the forest and the identity on
        # it, so its holonomies, read by labels, are its key.
        for c in enumerate_bundle_classes(fv.base, fv.fiber, 1).classes_at(1):
            assert tuple(h for _, hs in reference_holonomies(c.representative) for h in hs) == c.key


class TestBundleAdjacency:
    def test_trivial_voltage_reduces_to_box_formula(self, c3, k2):
        fv = trivial_voltage(c3, k2)
        expected = kronecker(adjacency_matrix(c3), identity(2)).data + kronecker(identity(3), adjacency_matrix(k2)).data
        assert bundle_adjacency(fv) == Matrix(expected)

    def test_twisted_ladder_formula_vs_construction(self, m3_voltage):
        formula = bundle_adjacency(m3_voltage)
        direct = adjacency_matrix(voltage_bundle(m3_voltage).total)
        assert formula == direct

    def test_non_involutive_voltage_formula(self, c9_rotation_voltage):
        # Rotation voltages catch any transposed fiber-action convention; the
        # 9-cycle fiber is beyond automorphism enumeration.
        base = path_graph(2)
        fiber = empty_graph(3)
        cycle3 = Perm((1, 2, 0))
        fv = make_fiber_voltage(base, fiber, {("1", "2"): cycle3})
        for voltage in (fv, c9_rotation_voltage):
            assert bundle_adjacency(voltage) == adjacency_matrix(voltage_bundle(voltage).total)

    def test_k3_fiber_with_rotation(self, c3, k3):
        cycle3 = Perm((1, 2, 0))
        fv = make_fiber_voltage(
            c3, k3, {("1", "2"): cycle3, ("2", "3"): IDENT.identity(3), ("1", "3"): cycle3.inverse()}
        )
        assert bundle_adjacency(fv) == adjacency_matrix(voltage_bundle(fv).total)

    def test_random_formula_vs_construction(self, c4, k2):
        rng = random.Random(11)
        auts = automorphisms(k2)
        for _ in range(20):
            assignment = {e: rng.choice(auts) for e in c4.edge_list()}
            fv = make_fiber_voltage(c4, k2, assignment)
            assert bundle_adjacency(fv) == adjacency_matrix(voltage_bundle(fv).total)


class TestStructuralCounts:
    def test_total_size_matches_box_product(self, c6, k2, m3_voltage):
        for b in (m3_bundle(), m62_bundle(), voltage_bundle(m3_voltage)):
            box = cartesian_product(b.base, b.fiber)
            assert b.total.n == box.n
            assert len(b.total.edges) == len(box.edges)

    def test_identity_bundle(self, c3):
        b = identity_bundle(c3)
        assert b.total == c3
        assert b.fiber.n == 1


def assert_voltage_rebuilds_total(b):
    """x -> (p(x), sigma_p(x)(x)) is an equivalence from b onto the bundle
    built from b.voltage, so the voltage read off b agrees with its total
    space edge by edge."""
    p, fvs = b.projection, b.fiber.vertices
    mapping = {x: pair_label(p(x), fvs[f]) for x, f in zip(b.total.vertices, b.sigma)}
    assert is_equivalence_witness(b, voltage_bundle(b.voltage), mapping)


class TestCharacterizationAgreement:
    def test_mutated_totals_fail_both_characterizations(self, c3, k2, m3_voltage):
        # Both bundle characterizations must reject every single-edge
        # mutation of a valid total space for the same inputs; an internal
        # AssertionError would mean they disagreed.
        rng = random.Random(23)
        b = voltage_bundle(m3_voltage)
        base_edges = b.total.edge_list()
        all_pairs = [
            (x, y)
            for i, x in enumerate(b.total.vertices)
            for y in b.total.vertices[i + 1 :]
        ]
        non_edges = [p for p in all_pairs if not b.total.has_edge(*p)]
        for _ in range(120):
            edges = set(base_edges)
            action = rng.choice(["remove", "add", "swap"])
            if action in ("remove", "swap"):
                edges.discard(rng.choice(base_edges))
            if action in ("add", "swap"):
                edges.add(rng.choice(non_edges))
            mutated = make_graph(b.total.vertices, edges)
            if mutated == b.total:
                continue
            proj = make_morphism(mutated, c3, b.projection.map)
            if not validate_morphism(proj)[0]:
                continue
            with pytest.raises(
                (FiberNotIsomorphic, NotACovering, TransitionNotIso, LocalTrivialityFails)
            ):
                verify_bundle(mutated, proj, k2)

    def test_random_voltage_bundles_reverify(self):
        rng = random.Random(31)
        extra = random.Random(32)
        bases = [cycle_graph(3), cycle_graph(4), path_graph(3), star_graph(3)]
        fibers = [complete_graph(2), empty_graph(2), complete_graph(3), path_graph(3)]
        for _ in range(40):
            base = rng.choice(bases)
            fiber = rng.choice(fibers)
            auts = automorphisms(fiber)
            fv = make_fiber_voltage(
                base, fiber, {e: rng.choice(auts) for e in base.edge_list()}
            )
            b = voltage_bundle(fv)
            again = verify_bundle(b.total, b.projection, fiber)
            assert again.total == b.total
            assert bundle_to_voltage(again).phi == dict(bundle_to_voltage(b).phi)
            assert dict(again.voltage.phi) == dict(fv.phi)
            # The pullbacks and subdirect products draw from their own
            # generator, so the 40 draws above stay as they were.
            walk = [extra.choice(base.vertices)]
            for _ in range(extra.randint(1, 4)):
                walk.append(extra.choice((walk[-1],) + neighbors(base, walk[-1])))
            path = path_graph(len(walk))
            f = make_morphism(path, base, dict(zip(path.vertices, walk)))
            fiber2 = extra.choice(fibers)
            other = voltage_bundle(make_fiber_voltage(
                base, fiber2, {e: extra.choice(automorphisms(fiber2)) for e in base.edge_list()}
            ))
            for bundle in (b, again, pullback_bundle(f, b), subdirect_product(b, other)):
                assert_voltage_rebuilds_total(bundle)


def reference_liftings(p, k):
    """The k-fold covering check by star lifting, independent of
    verify_bundle: every fiber has k vertices, and p maps the star of each x
    over v one-to-one onto the star of v.  Returns the liftings, (v, x) to
    the map from the base star of v onto the star of x; raises
    NotACovering."""
    ok, bad = validate_morphism(p)
    if not ok:
        raise NotAMorphism(f"projection is not a morphism; violating edges: {bad}")
    total, base, fibers = p.domain, p.codomain, p.preimages
    for v in base.vertices:
        if len(fibers[v]) != k:
            raise NotACovering(f"fiber over {v!r} has {len(fibers[v])} vertices, expected {k}")
    liftings = {}
    for v in base.vertices:
        base_nbrs = neighbors(base, v)
        for x in fibers[v]:
            images = {}
            for y in neighbors(total, x):
                w = p(y)
                if w not in base_nbrs or w in images:
                    raise NotACovering(f"no lifting at base {v!r}, total {x!r}: star not invertible")
                images[w] = y
            if set(images) != set(base_nbrs):
                raise NotACovering(f"no lifting at base {v!r}, total {x!r}: star not invertible")
            liftings[(v, x)] = {v: x, **images}
    return liftings


def reference_covering_voltage(p, k):
    """The permutation voltage read off the liftings, each fiber numbered
    0..k-1 in the total's vertex order."""
    liftings, base, fibers = reference_liftings(p, k), p.codomain, p.preimages
    index = {v: {x: i for i, x in enumerate(xs)} for v, xs in fibers.items()}
    phi = {}
    for a, b in base.edge_list():
        for v, w in ((a, b), (b, a)):
            phi[(v, w)] = Perm(tuple(index[w][liftings[(v, x)][w]] for x in fibers[v]))
    return make_fiber_voltage(base, empty_graph(k), phi)


def reference_check_conditions(total, p, fiber, fiber_graphs):
    """The definition checked through a covering skeleton: the cross edges
    as a graph of their own, verified as a |F|-fold covering of the base by
    star lifting, with each transition read off the liftings."""
    base = p.codomain
    cross = [(a, b) for a, b in total.edge_list() if p(a) != p(b)]
    skeleton = make_graph(total.vertices, cross)
    liftings = reference_liftings(make_morphism(skeleton, base, p.map), fiber.n)
    for v, w in base.edge_list():
        fib_v, fib_w = fiber_graphs[v], fiber_graphs[w]
        psi = {x: liftings[(v, x)][w] for x in fib_v.vertices}
        if not all(fib_w.has_edge(psi[x], psi[y]) for x, y in fib_v.edge_list()):
            raise TransitionNotIso(f"transition over base edge ({v!r}, {w!r}) is not an isomorphism")


def outcome(check, *args):
    """The class of the definition failure check raises, or None."""
    try:
        check(*args)
    except (NotACovering, TransitionNotIso) as exc:
        return type(exc)
    return None


ROUTE_FIBERS = {
    "K2": complete_graph(2),
    "P3": path_graph(3),
    "C4": cycle_graph(4),
    "2K1": empty_graph(2),
    "K3": complete_graph(3),
}


@st.composite
def mutated_voltage_totals(draw):
    """A voltage total over a base on 2-5 vertices, stored in a drawn order,
    with 1-3 of its cross edges between the fibers over one base edge
    deleted, added, re-pointed, or two of them swapped.  A swap keeps the
    covering and aims at the transition check.  Fiber edges are never
    touched."""
    n = draw(st.integers(2, 5))
    labels = [str(i) for i in range(1, n + 1)]
    pairs = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1 :]]
    base_edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    base = make_graph(draw(st.permutations(labels)), base_edges)
    fiber = ROUTE_FIBERS[draw(st.sampled_from(sorted(ROUTE_FIBERS)))]
    auts = automorphisms(fiber)
    b = voltage_bundle(make_fiber_voltage(
        base, fiber, {e: draw(st.sampled_from(auts)) for e in base.edge_list()}
    ))
    edges = {frozenset(e) for e in b.total.edges}
    for _ in range(draw(st.integers(1, 3))):
        v, w = draw(st.sampled_from(base.edge_list()))
        xs, ys = b.projection.preimages[v], b.projection.preimages[w]
        cross = [(x, y) for x in xs for y in ys if frozenset((x, y)) in edges]
        kind = draw(st.sampled_from(["delete", "add", "repoint", "swap"]))
        if kind == "add":
            edges.add(frozenset((draw(st.sampled_from(xs)), draw(st.sampled_from(ys)))))
        elif kind == "swap" and len(cross) >= 2:
            (x1, y1), (x2, y2) = draw(st.lists(st.sampled_from(cross), min_size=2, max_size=2, unique=True))
            edges -= {frozenset((x1, y1)), frozenset((x2, y2))}
            edges |= {frozenset((x1, y2)), frozenset((x2, y1))}
        elif kind in ("delete", "repoint") and cross:
            x, y = draw(st.sampled_from(cross))
            edges.discard(frozenset((x, y)))
            if kind == "repoint":
                edges.add(frozenset((x, draw(st.sampled_from(ys)))))
    total = make_graph(b.total.vertices, sorted(tuple(sorted(e)) for e in edges))
    return total, make_morphism(total, base, b.projection.map), fiber


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutated_voltage_totals())
def test_definition_matches_skeleton_route(case):
    total, p, fiber = case
    fiber_graphs = {v: induced_subgraph(total, xs) for v, xs in p.preimages.items()}
    assert all(find_isomorphism(g, fiber) is not None for g in fiber_graphs.values())
    expected = outcome(reference_check_conditions, total, p, fiber, fiber_graphs)
    assert outcome(verify_bundle, total, p, fiber) is expected


PAW = make_graph(["1", "2", "3", "4"], [("1", "2"), ("1", "3"), ("2", "3"), ("3", "4")])
COVERING_BASES = [cycle_graph(3), cycle_graph(4), path_graph(3), complete_graph(4), PAW]
COVERING_MUTATIONS = ["none", "swap", "drop", "add", "move", "fold"]


def mutated_covering(rng, kind):
    """A k-fold covering from make_covering_voltage over C3, C4, P3, K4 or
    the paw, k = 1..4, stored in a shuffled vertex order, after one
    mutation: none, two cross edges over one base edge swapped (still a
    covering), an edge dropped or added, one vertex's image moved, or k off
    by one.  Returns the projection and the fold count to check."""
    base, k = rng.choice(COVERING_BASES), rng.randint(1, 4)

    def perm():
        images = list(range(k))
        rng.shuffle(images)
        return Perm(tuple(images))

    b = voltage_bundle(make_covering_voltage(base, k, {e: perm() for e in base.edge_list()}))
    xs, over = list(b.total.vertices), dict(b.projection.map)
    edges = {frozenset(e) for e in b.total.edges}
    if kind == "swap":
        v, w = rng.choice(base.edge_list())
        cross = [(x, y) for x in b.projection.preimages[v] for y in b.projection.preimages[w] if frozenset((x, y)) in edges]
        if len(cross) >= 2:
            (x1, y1), (x2, y2) = rng.sample(cross, 2)
            edges -= {frozenset((x1, y1)), frozenset((x2, y2))}
            edges |= {frozenset((x1, y2)), frozenset((x2, y1))}
    elif kind == "drop":
        edges.remove(rng.choice(sorted(edges, key=sorted)))
    elif kind == "add":
        non_edges = [frozenset((x, y)) for i, x in enumerate(xs) for y in xs[i + 1 :]]
        non_edges = [e for e in non_edges if e not in edges]
        if non_edges:
            edges.add(rng.choice(non_edges))
    elif kind == "move":
        x = rng.choice(xs)
        over[x] = rng.choice([v for v in base.vertices if v != over[x]])
    elif kind == "fold":
        k += rng.choice([-1, 1]) if k > 1 else 1
    rng.shuffle(xs)
    total = make_graph(xs, [tuple(e) for e in edges])
    return make_morphism(total, base, over), k


def test_covering_check_matches_star_lifting():
    # verify_kfold_covering is verify_bundle over the edgeless fiber; the
    # star-lifting reference accepts the same projections and reads the
    # same voltage off them.
    rng = random.Random(19)
    accepted = dict.fromkeys(COVERING_MUTATIONS, 0)
    rejected = dict.fromkeys(COVERING_MUTATIONS, 0)
    for i in range(1200):
        kind = COVERING_MUTATIONS[i % len(COVERING_MUTATIONS)]
        p, k = mutated_covering(rng, kind)
        try:
            expected = reference_covering_voltage(p, k)
        except (NotAMorphism, NotACovering):
            expected = None
        try:
            b = verify_kfold_covering(p, k)
        except (NotAMorphism, FiberNotIsomorphic, NotACovering):
            assert expected is None, (kind, p.pairs, p.domain.edge_list())
            rejected[kind] += 1
            continue
        assert expected is not None, (kind, p.pairs, p.domain.edge_list())
        assert b.fiber == empty_graph(k)
        assert dict(b.voltage.phi) == dict(expected.phi)
        accepted[kind] += 1
    # "add" leaves a covering only at k = 1 over C3 or K4, whose totals are
    # complete graphs.
    assert rejected["none"] == rejected["swap"] == 0
    assert accepted["drop"] == accepted["move"] == accepted["fold"] == 0
    assert min(rejected[kind] for kind in ("drop", "add", "move", "fold")) > 150


def _transition(total, over, xs, v, w):
    """psi_vw by labels: each x in xs, the vertices over v, to its one
    neighbour over w.  Raises NotACovering when some x has none or two, or
    two x share one."""
    psi = {}
    for x in xs:
        ys = [y for y in neighbors(total, x) if over[y] == w]
        if len(ys) != 1:
            raise NotACovering(f"vertex {x!r} over {v!r} has {len(ys)} neighbours over {w!r}")
        psi[x] = ys[0]
    if len(set(psi.values())) != len(psi):
        raise NotACovering(f"transition over base edge ({v!r}, {w!r}) is not one-to-one")
    return psi


def reference_verify_bundle(total, p, fiber):
    """verify_bundle before fiber and edge shapes were memoized and before
    it ran on positions: one induced subgraph and one search per base
    vertex and per base edge, and the voltage read off by labels.  Returns
    the fiber identifications sigma, as label maps per base vertex, and the
    voltage sigma_w ∘ psi_vw ∘ sigma_v⁻¹ on both orientations."""
    ok, bad = validate_morphism(p)
    if not ok:
        raise NotAMorphism(f"projection is not a morphism; violating edges: {bad}")
    base, fibers = p.codomain, p.preimages
    fiber_graphs, sigma = {}, {}
    for v in base.vertices:
        fiber_graphs[v] = induced_subgraph(total, fibers[v])
        iso = find_isomorphism(fiber_graphs[v], fiber)
        if iso is None:
            raise FiberNotIsomorphic(f"fiber over {v!r} is not isomorphic to the fiber graph")
        sigma[v] = iso
    definition_error = None
    try:
        psis = [(v, w, _transition(total, p.map, fiber_graphs[v].vertices, v, w)) for v, w in base.edge_list()]
        for v, w, psi in psis:
            if not all(fiber_graphs[w].has_edge(psi[x], psi[y]) for x, y in fiber_graphs[v].edge_list()):
                raise TransitionNotIso(f"transition over base edge ({v!r}, {w!r}) is not an isomorphism")
    except (NotACovering, TransitionNotIso) as exc:
        definition_error = exc
    local_error = None
    k2f = cartesian_product(complete_graph(2), fiber)
    for v, w in base.edge_list():
        # The preimage read with the vertices over v first, then those over
        # w, each in total order: each one's neighbours within it, increasing.
        xs = fibers[v] + fibers[w]
        local, at = induced_subgraph(total, xs), {x: k for k, x in enumerate(xs)}
        shape = [tuple(sorted(at[y] for y in neighbors(local, x))) for x in xs]
        # Each vertex over v may go only onto copy 1 of F, and over w only
        # onto copy 2: one mask of k2f positions per vertex of the preimage.
        ends = [u for u in (v, w) for _ in fiber.vertices]
        within = [sum(1 << j for j, u in enumerate(ends) if u == p.map[x]) for x in xs]
        if not search_shape(shape, k2f.profile, graphs.current_budget.get(), 1, within)[0]:
            local_error = LocalTrivialityFails(f"preimage of base edge ({v!r}, {w!r}) is not a box product with the fiber")
            break
    if (definition_error is None) != (local_error is None):
        raise AssertionError(
            "internal error: bundle definition and local triviality disagree: "
            f"{definition_error or local_error}"
        )
    if definition_error is not None:
        raise definition_error
    phi = {}
    for v, w, psi in psis:
        back = {f: x for x, f in sigma[v].items()}
        phi[(v, w)] = Perm(tuple(fiber.index[sigma[w][psi[back[f]]]] for f in fiber.vertices))
        phi[(w, v)] = phi[(v, w)].inverse()
    return sigma, phi


def verdict(check, *args):
    """The class and message of the error check raises, or the repr of the
    fiber identifications it returns, which shows their order too, and its
    voltage."""
    try:
        result = check(*args)
    except (BundleForgeError, AssertionError) as exc:
        return type(exc), str(exc)
    if isinstance(result, tuple):
        return repr(result[0]), result[1]
    fvs, at = result.fiber.vertices, result.total.index
    sigma = {v: {x: fvs[result.sigma[at[x]]] for x in xs} for v, xs in result.projection.preimages.items()}
    return repr(sigma), dict(result.voltage.phi)


@st.composite
def reordered_totals(draw):
    """A mutated voltage total, half the time stored in a drawn vertex order
    so that fibers and edge preimages alike in the bundle differ in shape,
    checked against its own fiber or another one of the same order."""
    total, p, fiber = draw(mutated_voltage_totals())
    if draw(st.booleans()):
        total = make_graph(draw(st.permutations(total.vertices)), total.edge_list())
        p = make_morphism(total, p.codomain, p.map)
    others = [f for f in ROUTE_FIBERS.values() if f.n == fiber.n and f is not fiber]
    if others and draw(st.integers(0, 3)) == 0:
        fiber = draw(st.sampled_from(others))
    return total, p, fiber


@settings(max_examples=300, deadline=None, derandomize=True)
@given(reordered_totals())
def test_memoized_verify_matches_reference_route(case):
    assert verdict(verify_bundle, *case) == verdict(reference_verify_bundle, *case)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(reordered_totals())
def test_read_off_voltage_equals_validated(case):
    """On the accepted cases, the voltage read off without re-validation is
    the one make_fiber_voltage builds from its canonical orientations."""
    try:
        b = verify_bundle(*case)
    except BundleForgeError:
        return
    one_way = {(v, w): b.voltage.phi[(v, w)] for v, w in b.base.edge_list()}
    assert make_fiber_voltage(b.base, b.fiber, one_way).phi == b.voltage.phi


@settings(max_examples=300, deadline=None, derandomize=True)
@given(reordered_totals(), st.integers(1, 24))
def test_memoized_verify_matches_reference_route_under_budget(case, budget):
    with graphs.node_budget(budget):
        assert verdict(verify_bundle, *case) == verdict(reference_verify_bundle, *case)


def reference_search_calls(total, p, fiber):
    """The search_shape calls of verify_bundle, by induced_adjacency: a
    search of each fiber whose shape is new, against F, until a fiber is
    not isomorphic to F; then, per base edge vw, a search of the preimage
    read with the positions over v first, then those over w, each
    increasing, whose shape (neighbour lists sorted) is new, against
    K2 □ F with each position's side as its mask, until a preimage is not
    a box product.  The calls stop where a search exceeds the budget."""
    calls = []

    def search(*args):
        calls.append(args)
        return search_shape(*args)

    if not validate_morphism(p)[0]:
        return calls
    base, budget = p.codomain, graphs.current_budget.get()
    over = [base.index[p.map[x]] for x in total.vertices]
    fibers = [[x for x in range(total.n) if over[x] == a] for a in range(base.n)]
    try:
        placed = {}
        for xs in fibers:
            shape = induced_adjacency(total, xs)
            if shape not in placed:
                placed[shape] = bool(search(shape, fiber.profile, budget, 1)[0])
            if not placed[shape]:
                return calls
        k2f = cartesian_product(complete_graph(2), fiber).profile
        low = (1 << fiber.n) - 1
        within = [low] * fiber.n + [low << fiber.n] * fiber.n
        boxed = {}
        for a, b in base.ends:
            shape = tuple(tuple(sorted(nb)) for nb in induced_adjacency(total, fibers[a] + fibers[b]))
            if shape not in boxed:
                boxed[shape] = bool(search(shape, k2f, budget, 1, within)[0])
            if not boxed[shape]:
                break
    except SearchBudgetExceeded:
        pass
    return calls


@settings(max_examples=300, deadline=None, derandomize=True)
@given(reordered_totals(), st.integers(1, 24))
def test_search_calls_match_the_induced_adjacency_reference(case, budget):
    """The shapes, profiles and masks verify_bundle hands the search, in
    order, are those of the reference, so node counts and budget verdicts
    do not depend on how the keys are built."""
    calls = []

    def recorded(*args):
        calls.append(args)
        return search_shape(*args)

    with graphs.node_budget(budget):
        expected = reference_search_calls(*case)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bundles, "search_shape", recorded)
            try:
                verify_bundle(*case)
            except BundleForgeError:
                pass
    assert calls == expected


class TestSearchCount:
    """verify_bundle searches once per distinct fiber shape and once per
    distinct edge shape.  In a voltage bundle over C96 stored base-major,
    every fiber has the shape of F, and an edge preimage's shape is fixed
    by the voltage on the edge's canonical orientation."""

    @staticmethod
    def count_searches(monkeypatch, fv):
        b = voltage_bundle(fv)
        calls = []
        search = bundles.search_shape

        def counted(*args, **kwargs):
            calls.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(bundles, "search_shape", counted)
        assert verify_bundle(b.total, b.projection, b.fiber).sigma == b.sigma
        return len(calls)

    def test_trivial_voltage_makes_two_searches(self, monkeypatch, c4):
        assert self.count_searches(monkeypatch, trivial_voltage(cycle_graph(96), c4)) == 2

    @pytest.mark.parametrize("distinct", [1, 2, 3, 8])
    def test_one_search_per_voltage_value(self, monkeypatch, c4, distinct):
        base, values = cycle_graph(96), automorphisms(c4)[:distinct]
        fv = make_fiber_voltage(base, c4, {e: values[i % distinct] for i, e in enumerate(base.edge_list())})
        assert self.count_searches(monkeypatch, fv) == 1 + distinct

    def test_verify_builds_no_graph_and_no_label_search(self, monkeypatch, c4):
        """Both routes hand the kernel shapes and profiles: no induced
        subgraph, no K2 □ F from labels and no label-level search."""
        base = cycle_graph(6)
        values = automorphisms(c4)[:3]
        b = voltage_bundle(make_fiber_voltage(base, c4, {e: values[i % 3] for i, e in enumerate(base.edge_list())}))
        # Without one cross edge the fibers still pass, and both routes reject.
        over = b.projection.map
        cut = next(e for e in b.total.edge_list() if over[e[0]] != over[e[1]])
        bad = make_graph(b.total.vertices, [e for e in b.total.edge_list() if e != cut])
        bad_p = make_morphism(bad, base, over)
        expected = [verdict(verify_bundle, b.total, b.projection, c4), verdict(verify_bundle, bad, bad_p, c4)]

        def refuse(*args, **kwargs):
            raise AssertionError("verify_bundle built a graph or searched by labels")

        for module in (graphs, bundles, products):
            for name in ("induced_subgraph", "cartesian_product", "complete_graph", "find_isomorphism"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        got = [verdict(verify_bundle, b.total, b.projection, c4), verdict(verify_bundle, bad, bad_p, c4)]
        assert got == expected
        assert expected[1][0] is NotACovering


    def test_one_local_triviality_search_per_edge_kind(self, monkeypatch):
        """m3's fibers lie in different position orders across its edges,
        so the sides of a preimage read by position split its edge kinds;
        read by rank, its 2 edge kinds take one local-triviality search
        each, the calls that pass a mask per position."""
        b = m3_bundle()
        calls = []
        search = bundles.search_shape

        def counted(*args):
            calls.append(args)
            return search(*args)

        monkeypatch.setattr(bundles, "search_shape", counted)
        assert verify_bundle(b.total, b.projection, b.fiber).sigma == b.sigma
        assert sum(len(args) == 5 for args in calls) == 2


class TestEquivalencePerDistinctValue:
    def test_cycle_types_are_read_once_per_distinct_holonomy_pair(self, monkeypatch, k2):
        """Over a 300-vertex prism base, cycle rank 151, a K2-fiber voltage
        has at most 2 holonomy values, so the conjugator search reads at
        most 4 distinct pairs of holonomies and 8 cycle types, not 2 per
        non-tree edge."""
        base, swap = cartesian_product(cycle_graph(150), complete_graph(2)), Perm((1, 0))
        assert len(base.ends) - base.n + 1 == 151
        rng, values = random.Random(51), [Perm.identity(2), swap]
        fv = make_fiber_voltage(base, k2, {e: rng.choice(values) for e in base.edge_list()})
        b1 = voltage_bundle(fv)
        b2 = voltage_bundle(gauge_transform(fv, {v: rng.choice(values) for v in base.vertices}))
        calls = []
        cycle_type = Perm.cycle_type

        def counted(perm):
            calls.append(perm)
            return cycle_type(perm)

        monkeypatch.setattr(Perm, "cycle_type", counted)
        witness = bundles_equivalent(b1, b2)
        assert witness is not None and is_equivalence_witness(b1, b2, witness)
        assert 0 < len(calls) <= 8


class TestOnePassPerEdgeKind:
    """The definition is decided once per distinct edge kind, and the
    morphism check shares the one pass over the total's edges."""

    @pytest.mark.parametrize("distinct", [1, 2, 3, 8])
    def test_definition_is_decided_once_per_voltage_value(self, monkeypatch, c4, distinct):
        base, values = cycle_graph(96), automorphisms(c4)[:distinct]
        fv = make_fiber_voltage(base, c4, {e: values[i % distinct] for i, e in enumerate(base.edge_list())})
        b = voltage_bundle(fv)
        calls = []
        decide = bundles._transition

        def counted(*args):
            calls.append(args)
            return decide(*args)

        monkeypatch.setattr(bundles, "_transition", counted)
        assert verify_bundle(b.total, b.projection, c4).voltage.perms == fv.perms
        assert len(calls) == distinct

    def test_a_fiber_stored_out_of_base_order_files_no_new_edge_kind(self, k3):
        # C4 with the rotation of K3 on every edge around the cycle, the
        # fiber over the last base vertex stored first: the cross edges at
        # it come in the order of their far ends, yet the edges 12, 23 and
        # 34 have equal cross sets and keep one kind, and 14 the other.
        base, rotation = cycle_graph(4), Perm((1, 2, 0))
        fv = make_fiber_voltage(base, k3, {e: rotation for e in [("1", "2"), ("2", "3"), ("3", "4"), ("4", "1")]})
        b = voltage_bundle(fv)
        order = b.total.vertices[9:] + b.total.vertices[:9]
        total = make_graph(order, b.total.edge_list())
        p = make_morphism(total, base, b.projection.map)
        _, _, edge_kinds, keys = bundles._local_edges(p, *bundles._positions_over(p.position_map, base.n))
        assert len(keys) == 2 == len(set(edge_kinds))
        assert verify_bundle(total, p, k3).voltage.perms == verify_bundle(b.total, b.projection, k3).voltage.perms

    def test_verify_builds_no_neighbour_lists_of_the_total(self, c4):
        base = cycle_graph(12)
        b = voltage_bundle(make_fiber_voltage(base, c4, {e: automorphisms(c4)[1] for e in base.edge_list()}))
        assert verify_bundle(b.total, b.projection, c4).sigma == b.sigma
        assert "neighbor_indices" not in b.total.__dict__


@st.composite
def non_morphism_totals(draw):
    """A reordered total with one edge added between the fibers over two
    distinct base vertices that are not adjacent."""
    total, p, fiber = draw(reordered_totals())
    base = p.codomain
    apart = [(v, w) for v, w in itertools.combinations(base.vertices, 2) if not base.has_edge(v, w)]
    assume(apart)
    v, w = draw(st.sampled_from(apart))
    x, y = draw(st.sampled_from(p.preimages[v])), draw(st.sampled_from(p.preimages[w]))
    total = make_graph(total.vertices, total.edge_list() + [(x, y)])
    return total, make_morphism(total, base, p.map), fiber


@settings(max_examples=200, deadline=None, derandomize=True)
@given(non_morphism_totals())
def test_non_morphism_is_refused_as_require_morphism_refuses_it(case):
    total, p, fiber = case
    with pytest.raises(NotAMorphism) as expected:
        graphs.require_morphism(p, "projection is not a morphism")
    with pytest.raises(NotAMorphism) as got:
        verify_bundle(total, p, fiber)
    assert str(got.value) == str(expected.value)


@st.composite
def graph_up_to_8(draw):
    labels = [str(i) for i in range(draw(st.integers(0, 8)))]
    pairs = list(itertools.combinations(labels, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return make_graph(labels, [e for e, k in zip(pairs, keep) if k])


@given(graph_up_to_8())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_box_k2_profile_matches_the_label_product(fiber):
    """The K2 □ F profile a Graph builds by index arithmetic is the profile
    of cartesian_product(complete_graph(2), F), the label route."""
    assert fiber.box_k2_profile == cartesian_product(complete_graph(2), fiber).profile


def shuffled_total(m, shift, seed):
    """The voltage total over C4 with fiber C_m, the first base edge
    carrying the rotation by shift, stored in a seeded random order, with
    its projection and fiber."""
    base, fiber = cycle_graph(4), cycle_graph(m)
    rotation = Perm([(x + shift) % m for x in range(m)])
    b = voltage_bundle(FiberVoltage(base, fiber, [rotation] + [Perm.identity(m)] * 3))
    order = list(b.total.vertices)
    random.Random(seed).shuffle(order)
    total = make_graph(order, b.total.edge_list())
    return total, make_morphism(total, base, b.projection.map), fiber


class TestShuffledTotals:
    """A total stored in random order leaves each fiber's ranks unlinked;
    the search places them in connectivity order, so the fibers and edge
    preimages cost about as much as in the base-major order.  In stored
    order, C32 ran out of 10^6 nodes."""

    @pytest.mark.parametrize("m", [32, 64])
    @pytest.mark.parametrize("shift", [0, 1], ids=["trivial", "rotation"])
    def test_verified_within_ten_thousand_nodes(self, m, shift):
        total, p, fiber = shuffled_total(m, shift, m)
        with graphs.node_budget(10**4):
            got = verify_bundle(total, p, fiber)
        assert got.total is total and got.fiber is fiber
        assert is_trivial(got) == (shift == 0)


class TestBudgetPins:
    def test_m62_needs_four_nodes(self):
        """The largest search of verify_bundle on m62 spends four nodes: a
        budget of three raises, four passes."""
        with pytest.raises(SearchBudgetExceeded, match="exceeded 3 nodes"), graphs.node_budget(3):
            m62_bundle()
        with graphs.node_budget(4):
            assert m62_bundle().fiber.n == 2


class TestVoltageValidation:
    def test_rejects_non_automorphism(self, c3, p3):
        # A path has no automorphism sending an end into the middle edge-map.
        bad = Perm((1, 0, 2))
        with pytest.raises(ParseError):
            make_fiber_voltage(c3, p3, {e: bad for e in c3.edge_list()})

    def test_rejects_non_automorphism_on_last_edge(self, c3, p3):
        # Each distinct value is checked once; a bad value that first shows
        # up on the last edge is still caught and named.
        edges = c3.edge_list()
        a, b = edges[-1]
        assignments = {e: Perm.identity(3) for e in edges[:-1]}
        assignments[(a, b)] = Perm((1, 0, 2))
        with pytest.raises(ParseError, match=rf"voltage on \('{a}', '{b}'\) is not a fiber automorphism"):
            make_fiber_voltage(c3, p3, assignments)

    def test_rejects_non_inverse_on_last_edge(self, c3, k2):
        # The orientation check stays on every oriented edge, even when the
        # value itself was already checked on an earlier edge.
        phi = {}
        for v, w in c3.edge_list():
            phi[(v, w)] = SWAP
            phi[(w, v)] = SWAP
        a, b = c3.edge_list()[-1]
        phi[(b, a)] = IDENT
        with pytest.raises(ParseError, match=rf"^conflicting voltages on edge \{{'{b}', '{a}'\}}$"):
            make_fiber_voltage(c3, k2, phi)

    @pytest.mark.parametrize("reverse_first", [False, True])
    @pytest.mark.parametrize("bad_forward", [False, True])
    def test_rejects_bad_reverse_on_either_orientation(self, c3, k3, reverse_first, bad_forward):
        # One orientation check per edge still catches a bad value on
        # either orientation, whichever orientation the mapping lists first.
        rotation = Perm((1, 2, 0))
        a, b = c3.edge_list()[1]
        phi = {}
        for v, w in c3.edge_list():
            for key in [(w, v), (v, w)] if reverse_first else [(v, w), (w, v)]:
                phi[key] = rotation if key == (v, w) else rotation.inverse()
        bad = (a, b) if bad_forward else (b, a)
        phi[bad] = phi[bad].inverse()
        with pytest.raises(ParseError, match="^conflicting voltages on edge"):
            make_fiber_voltage(c3, k3, phi)

    def test_rejects_missing_edge(self, c3, k2):
        with pytest.raises(ParseError):
            make_fiber_voltage(c3, k2, {("1", "2"): IDENT})

    #: Over C3 with a P3 fiber (1–2–3): FLIP reverses the path, BAD swaps an
    #: end with the middle, and ROTATE is a 3-cycle; only FLIP is an
    #: automorphism besides the identity.
    FLIP, BAD, ROTATE, I3 = Perm((2, 1, 0)), Perm((1, 0, 2)), Perm((1, 2, 0)), Perm.identity(3)

    @pytest.mark.parametrize(
        "assignments, message",
        [
            # A conflict comes first, before the missing {1, 3} and BAD.
            (
                {("1", "2"): FLIP, ("2", "1"): I3, ("2", "3"): BAD},
                r"^conflicting voltages on edge \{'2', '1'\}$",
            ),
            # A missing edge comes before an edge off the base and BAD.
            (
                {("1", "2"): BAD, ("2", "3"): I3, ("1", "4"): I3},
                r"^missing voltage for edge \{'1', '3'\}$",
            ),
            # An edge off the base, or a loop, comes before BAD.
            (
                {("1", "2"): BAD, ("1", "3"): I3, ("2", "3"): I3, ("3", "4"): I3},
                r"^voltage must cover exactly the oriented edges of the base$",
            ),
            (
                {("1", "2"): BAD, ("1", "3"): I3, ("2", "3"): I3, ("2", "2"): I3},
                r"^voltage must cover exactly the oriented edges of the base$",
            ),
            # The first value that fails, in assignment order, is named on
            # the orientation it was given.
            (
                {("1", "3"): FLIP, ("3", "2"): ROTATE, ("1", "2"): BAD},
                r"^voltage on \('3', '2'\) is not a fiber automorphism$",
            ),
            (
                {("1", "2"): FLIP, ("1", "3"): ROTATE.inverse(), ("2", "3"): ROTATE},
                r"^voltage on \('1', '3'\) is not a fiber automorphism$",
            ),
        ],
    )
    def test_errors_keep_their_order(self, c3, p3, assignments, message):
        with pytest.raises(ParseError, match=message):
            make_fiber_voltage(c3, p3, assignments)

    def test_each_assigned_value_is_checked_once(self, c4, monkeypatch):
        # Over C4 with a C4 fiber, the assigned values R, I and R² have four
        # distinct values among both orientations, R⁻¹ too; only the three
        # assigned ones are checked, each once, in assignment order.
        r = Perm((1, 2, 3, 0))
        r2, ident = r.compose(r), Perm.identity(4)
        checked = []

        def spy(fiber, perm):
            checked.append(perm)
            return check(fiber, perm)

        check = bundles.is_fiber_automorphism
        monkeypatch.setattr(bundles, "is_fiber_automorphism", spy)
        values = [r, ident, r, r2]
        fv = make_fiber_voltage(c4, c4, dict(zip(c4.edge_list(), values)))
        assert checked == [r, ident, r2]
        assert make_fiber_voltage(c4, c4, fv.phi).phi == fv.phi

    def test_json_roundtrip(self, m3_voltage):
        again = FiberVoltage.from_json(m3_voltage.to_json())
        assert again.phi == dict(m3_voltage.phi)
        assert again.base == m3_voltage.base

    def test_json_roundtrip_over_a_label_with_a_comma(self):
        # A comma outside parentheses breaks the label grammar, in a graph
        # and in a voltage's base; inside them it is read back.
        with pytest.raises(ParseError, match=r"^vertex 'a,b' breaks the label grammar"):
            make_graph(["a,b", "c"], [("a,b", "c")])
        data = {"base": {"vertices": ["a,b", "c"], "edges": [["a,b", "c"]]}, "fiber": complete_graph(2).to_json(),
                "phi": {"a,b,c": ["2", "1"]}}
        with pytest.raises(ParseError, match=r"^vertex 'a,b' breaks the label grammar"):
            FiberVoltage.from_json(data)
        base = make_graph(["(a,b)", "c"], [("(a,b)", "c")])
        fv = make_fiber_voltage(base, complete_graph(2), {("(a,b)", "c"): Perm((1, 0))})
        assert list(fv.to_json()["phi"]) == ["(a,b),c"]
        again = FiberVoltage.from_json(fv.to_json())
        assert again.phi == fv.phi
        assert again.base == base

    def test_voltage_whose_edges_render_one_key_is_refused(self):
        # a–"b,c" and "a,b"–c would both print as "a,b,c"; their labels are
        # refused.  With the commas inside parentheses the keys differ and
        # both values are written and read back.
        with pytest.raises(ParseError, match=r"^vertex 'a,b' breaks the label grammar"):
            make_graph(["a", "a,b", "b,c", "c"], [("a", "b,c"), ("a,b", "c")])
        base = make_graph(["a", "(a,b)", "(b,c)", "c"], [("a", "(b,c)"), ("(a,b)", "c")])
        fv = make_fiber_voltage(base, complete_graph(2), {("a", "(b,c)"): Perm((1, 0)), ("(a,b)", "c"): Perm((0, 1))})
        assert fv.to_json()["phi"] == {"a,(b,c)": ["2", "1"], "(a,b),c": ["1", "2"]}
        assert FiberVoltage.from_json(fv.to_json()).phi == fv.phi

    def test_key_with_no_comma_is_refused(self, c3, k2):
        data = {"base": c3.to_json(), "fiber": k2.to_json(), "phi": {"12": ["2", "1"]}}
        with pytest.raises(ParseError, match=r"^bad oriented edge key: '12'$"):
            FiberVoltage.from_json(data)

    def test_key_that_names_two_base_edges_is_refused(self):
        # The base whose edges a–"b,c" and "a,b"–c the key "a,b,c" could
        # name is refused; over grammatical labels such a key has two
        # top-level commas and names no edge.
        base = {"vertices": ["a", "a,b", "b,c", "c"], "edges": [["a", "b,c"], ["a,b", "c"]]}
        data = {"base": base, "fiber": complete_graph(2).to_json(), "phi": {"a,b,c": ["1", "2"]}}
        with pytest.raises(ParseError, match=r"^vertex 'a,b' breaks the label grammar"):
            FiberVoltage.from_json(data)
        data["base"] = make_graph(["a", "b", "c"], [("a", "b"), ("b", "c")]).to_json()
        with pytest.raises(ParseError, match=r"^bad oriented edge key: 'a,b,c'$"):
            FiberVoltage.from_json(data)
