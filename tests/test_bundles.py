import itertools
import random
import time

import pytest

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
    find_isomorphism,
    identity_bundle,
    is_trivial,
    kronecker,
    make_fiber_voltage,
    make_graph,
    make_morphism,
    path_graph,
    star_graph,
    trivial_voltage,
    validate_morphism,
    verify_bundle,
    voltage_bundle,
)
from bundleforge import graphs
from bundleforge.graphs import spanning_forest
from bundleforge.bundles import is_equivalence_witness
from bundleforge.errors import (
    BaseMismatch,
    FiberMismatch,
    FiberNotIsomorphic,
    LocalTrivialityFails,
    NotACovering,
    ParseError,
    SearchBudgetExceeded,
    TransitionNotIso,
)
from bundleforge.matrices import identity as identity_matrix
from bundleforge.named import (
    c6k2_bundle,
    m3_bundle,
    m62_bundle,
)

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
        from bundleforge.products import second_projection

        p = second_projection(prism, c3)
        b = verify_bundle(prism, p, k2)
        assert b.base == c3

    def test_twisted_ladder(self, m3, c3, k2, q_m3_c3):
        b = verify_bundle(m3, q_m3_c3, k2)
        assert b.fibers["1"] == ("3", "6")

    def test_cover_is_not_a_k2_bundle(self, c6, c3, k2, p_c6_c3):
        with pytest.raises(FiberNotIsomorphic):
            verify_bundle(c6, p_c6_c3, k2)

    def test_cover_is_an_edgeless_fiber_bundle(self, c6, two_k1, p_c6_c3):
        b = verify_bundle(c6, p_c6_c3, two_k1)
        assert b.fiber == two_k1


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
            for w in base.neighbors(v)
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
    fiber = b1.fiber
    witnesses = []
    for g in reference_gauges(b1.base, auts, bundle_to_voltage(b1).phi, bundle_to_voltage(b2).phi):
        mapping = {}
        for v in b1.base.vertices:
            inv2 = b2.inverse_fiber_isos[v]
            for x in b1.fibers[v]:
                i = fiber.index[b1.fiber_isos[v][x]]
                mapping[x] = inv2[fiber.vertices[g[v](i)]]
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

    def test_cycle_types_differ_rejected_without_search(self, c3, monkeypatch):
        fiber = empty_graph(10)
        ident = Perm.identity(10)
        swap = Perm((1, 0) + tuple(range(2, 10)))
        double = Perm((1, 0, 3, 2) + tuple(range(4, 10)))
        b1 = voltage_bundle(make_fiber_voltage(c3, fiber, {("1", "2"): swap, ("2", "3"): ident, ("1", "3"): ident}))
        b2 = voltage_bundle(make_fiber_voltage(c3, fiber, {("1", "2"): double, ("2", "3"): ident, ("1", "3"): ident}))
        monkeypatch.setattr(graphs, "DEFAULT_NODE_BUDGET", 0)
        assert bundles_equivalent(b1, b2) is None

    def test_node_budget_bounds_the_search(self, c3, monkeypatch):
        b = voltage_bundle(trivial_voltage(c3, empty_graph(10)))
        monkeypatch.setattr(graphs, "DEFAULT_NODE_BUDGET", 3)
        with pytest.raises(SearchBudgetExceeded):
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


class TestBundleAdjacency:
    def test_trivial_voltage_reduces_to_box_formula(self, c3, k2):
        fv = trivial_voltage(c3, k2)
        expected = kronecker(adjacency_matrix(c3), identity_matrix(2)) + kronecker(
            identity_matrix(3), adjacency_matrix(k2)
        )
        assert bundle_adjacency(fv) == expected

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
        # The inverse check stays on every oriented edge, even when the
        # value itself was already checked on an earlier edge.
        phi = {}
        for v, w in c3.edge_list():
            phi[(v, w)] = SWAP
            phi[(w, v)] = SWAP
        a, b = c3.edge_list()[-1]
        phi[(b, a)] = IDENT
        with pytest.raises(ParseError, match="must invert"):
            FiberVoltage(c3, k2, phi)

    def test_rejects_missing_edge(self, c3, k2):
        with pytest.raises(ParseError):
            make_fiber_voltage(c3, k2, {("1", "2"): IDENT})

    def test_json_roundtrip(self, m3_voltage):
        again = FiberVoltage.from_json(m3_voltage.to_json())
        assert again.phi == dict(m3_voltage.phi)
        assert again.base == m3_voltage.base
