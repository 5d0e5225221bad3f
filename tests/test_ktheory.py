import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundleforge import (
    KGroupElement,
    Perm,
    adjacency_matrix,
    automorphisms,
    bundles_equivalent,
    cartesian_product,
    complete_graph,
    compose,
    cycle_graph,
    empty_graph,
    enumerate_bundle_classes,
    fiber_power,
    find_isomorphism,
    grothendieck_equal,
    identity_morphism,
    k0_map,
    make_fiber_voltage,
    make_graph,
    make_morphism,
    path_graph,
    star_graph,
    voltage_bundle,
)
from bundleforge.errors import BaseMismatch, EnumerationBoundExceeded, FiberMismatch
from bundleforge.graphs import spanning_forest
from bundleforge.ktheory import _least_product, voltage_class_key
from bundleforge.perms import kron as perm_kron

SWAP = Perm((1, 0))
IDENT = Perm((0, 1))

#: Two triangles {a, b, e} and {c, d, f}, then the bridge (e, f) last in
#: edge order: the bridge joins two components whose gauges are already
#: constrained.
BRIDGE_AFTER_CYCLES = make_graph(
    list("abcdef"),
    [("a", "b"), ("b", "e"), ("a", "e"), ("c", "d"), ("d", "f"), ("c", "f"), ("e", "f")],
)
#: An edge and a triangle, disjoint.
EDGE_AND_TRIANGLE = make_graph(
    list("vwxyz"), [("v", "w"), ("x", "y"), ("y", "z"), ("x", "z")]
)


def twist_table(auts):
    """twist[x][p][y] is the index of x ∘ p ∘ y⁻¹ in auts.  automorphisms()
    sorts by image tuple, so index order is serial order."""
    pos = {p: i for i, p in enumerate(auts)}
    return [[[pos[x.compose(p).compose(y.inverse())] for y in auts] for p in auts] for x in auts]


def all_assignments_classes(base, fiber, n_max):
    """Reference enumeration: walk every voltage assignment in serial order.

    The first assignment met of each class is its least serial and gets the
    next class id; its whole orbit, over every gauge g in Aut(F^n)^V, is
    then marked with that id.  Returns the classes as (n, serial) in id
    order and, per fiber power, the class id of every serial."""
    idx = base.index
    ends = [(idx[a], idx[b]) for a, b in base.edge_list()]
    classes = []
    class_of = {}
    for n in range(n_max + 1):
        auts = automorphisms(fiber_power(fiber, n))
        twist = twist_table(auts)
        seen = {}
        for assignment in itertools.product(range(len(auts)), repeat=len(ends)):
            if assignment in seen:
                continue
            class_id = len(classes)
            classes.append((n, tuple(auts[i].images for i in assignment)))
            for g in itertools.product(range(len(auts)), repeat=base.n):
                orbit_point = tuple(twist[g[b]][p][g[a]] for (a, b), p in zip(ends, assignment))
                seen[orbit_point] = class_id
        class_of[n] = {tuple(auts[i].images for i in a): cid for a, cid in seen.items()}
    return classes, class_of


def burnside_count(auts, beta):
    """Orbits of Aut^β under simultaneous conjugation: the mean over g of
    the β-th power of the centralizer order of g."""
    total = sum(
        sum(1 for h in auts if g.compose(h) == h.compose(g)) ** beta for g in auts
    )
    assert total % len(auts) == 0
    return total // len(auts)


class TestFiberPower:
    def test_zeroth_power_is_point(self, k2):
        g = fiber_power(k2, 0)
        assert g.vertices == ("1",)
        assert not g.edges

    def test_square_of_edge_is_c4(self, k2, c4):
        assert find_isomorphism(fiber_power(k2, 2), c4) is not None

    def test_cube_of_edge(self, k2):
        g = fiber_power(k2, 3)
        assert g.n == 8
        assert len(g.edges) == 12
        assert all(g.degree(v) == 3 for v in g.vertices)

    def test_first_power_is_the_graph(self, k3):
        assert fiber_power(k3, 1) == k3

    @pytest.mark.parametrize(
        "fiber",
        [complete_graph(2), complete_graph(3), path_graph(3), cycle_graph(4), empty_graph(2), star_graph(3)],
        ids=["K2", "K3", "P3", "C4", "2K1", "K1,3"],
    )
    def test_box_of_powers_lists_vertices_in_power_order(self, fiber):
        # The addition table sums voltages by kron without realigning F^a □ F^b
        # onto F^(a+b): their vertex orders must give the same adjacency.
        for a, b in itertools.product(range(3), repeat=2):
            if fiber.n ** (a + b) <= 64:
                box = cartesian_product(fiber_power(fiber, a), fiber_power(fiber, b))
                assert adjacency_matrix(box) == adjacency_matrix(fiber_power(fiber, a + b))


class TestEnumeration:
    def test_path_has_one_class_per_power(self, p3, k2):
        m = enumerate_bundle_classes(p3, k2, 2)
        assert [len(m.classes_at(n)) for n in range(3)] == [1, 1, 1]

    def test_triangle_has_two_classes_at_one(self, c3, k2):
        m = enumerate_bundle_classes(c3, k2, 1)
        assert len(m.classes_at(0)) == 1
        assert len(m.classes_at(1)) == 2

    def test_zeroth_power_always_single_class(self, c6, k3):
        m = enumerate_bundle_classes(c6, k3, 0)
        assert len(m.classes_at(0)) == 1

    def test_trivial_class_is_first_and_identity_voltage(self, c3, k2):
        m = enumerate_bundle_classes(c3, k2, 1)
        rep = m.classes_at(1)[0].representative
        assert all(p.is_identity() for p in rep.phi.values())

    @pytest.mark.parametrize("base_name", ["p2", "p3", "p4", "s3"])
    @pytest.mark.parametrize("fiber_name,n_max", [("k2", 2), ("2k1", 2), ("k3", 1)])
    def test_tree_bases_single_class(self, base_name, fiber_name, n_max):
        base = {
            "p2": path_graph(2),
            "p3": path_graph(3),
            "p4": path_graph(4),
            "s3": star_graph(3),
        }[base_name]
        fiber = {
            "k2": complete_graph(2),
            "2k1": empty_graph(2),
            "k3": complete_graph(3),
        }[fiber_name]
        m = enumerate_bundle_classes(base, fiber, n_max)
        assert all(len(m.classes_at(n)) == 1 for n in range(n_max + 1))

    def test_base_size_cap(self, k2):
        with pytest.raises(EnumerationBoundExceeded):
            enumerate_bundle_classes(cycle_graph(7), k2, 1)

    def test_assignment_cap(self, k3):
        # The cap counts the walk actually done: |Aut(K3)|^β = 6^3 = 216
        # forest-trivial assignments over K4, each canonicalized over 6 gauges.
        with pytest.raises(EnumerationBoundExceeded, match="216 voltage assignments"):
            enumerate_bundle_classes(complete_graph(4), k3, 1, max_assignments=1295)
        # The cap also counts the addition table: (1 + 49)^2 = 2500 entries.
        with pytest.raises(EnumerationBoundExceeded, match="addition-table entries"):
            enumerate_bundle_classes(complete_graph(4), k3, 1, max_assignments=2499)
        m = enumerate_bundle_classes(complete_graph(4), k3, 1, max_assignments=2500)
        assert len(m.classes_at(1)) == 49

    @pytest.mark.parametrize(
        "base,fiber,n_max,walked",
        [
            # 5,040 tuples, each minimizing its cycle edge over Aut(K7).
            (cycle_graph(3), complete_graph(7), 1, 5040),
            # 48^3 tuples over Aut(Q3), and 5,633 classes: a 31.7M-entry table.
            (complete_graph(4), complete_graph(2), 3, 110592),
        ],
        ids=["c3-k7", "k4-k2-cube"],
    )
    def test_canonicalization_cap(self, base, fiber, n_max, walked):
        with pytest.raises(EnumerationBoundExceeded, match=f"{walked} voltage assignments"):
            enumerate_bundle_classes(base, fiber, n_max)

    def test_addition_table_cap_after_the_walk(self, k2):
        # K4/K2 to n=2 canonicalizes 8^3 tuples over 8 gauges at n=2 and
        # finds 1 + 8 + 176 classes, 185^2 = 34225 table entries.
        with pytest.raises(EnumerationBoundExceeded, match="185 classes up to fiber power 2 need 34225"):
            enumerate_bundle_classes(complete_graph(4), k2, 2, max_assignments=34224)
        m = enumerate_bundle_classes(complete_graph(4), k2, 2, max_assignments=34225)
        assert len(m.add_table) == 34225


class TestAgainstAllAssignments:
    @pytest.mark.parametrize(
        "base,fiber,n_max",
        [
            (EDGE_AND_TRIANGLE, complete_graph(2), 2),
            (EDGE_AND_TRIANGLE, empty_graph(3), 1),
            (BRIDGE_AFTER_CYCLES, complete_graph(2), 1),
            (BRIDGE_AFTER_CYCLES, empty_graph(3), 1),
        ],
        ids=["edge+triangle-k2", "edge+triangle-3k1", "bridge-k2", "bridge-3k1"],
    )
    def test_ids_serials_sums_and_lookups(self, base, fiber, n_max):
        m = enumerate_bundle_classes(base, fiber, n_max)
        classes, class_of = all_assignments_classes(base, fiber, n_max)
        assert [(c.n, c.representative.serialized()) for c in m.classes] == classes
        assert all(c.key == c.representative.serialized() for c in m.classes)
        for c in m.classes:
            rep = c.representative
            one_way = {e: rep.phi[e] for e in base.edge_list()}
            assert make_fiber_voltage(base, rep.fiber, one_way).phi == rep.phi
        powers = [fiber_power(fiber, n) for n in range(n_max + 1)]
        for c1 in m.classes:
            for c2 in m.classes:
                n_sum = c1.n + c2.n
                if n_sum > n_max:
                    assert m.add(c1.class_id, c2.class_id) is None
                    continue
                box = cartesian_product(powers[c1.n], powers[c2.n])
                iso = find_isomorphism(box, powers[n_sum])
                lam = Perm(tuple(powers[n_sum].index[iso[v]] for v in box.vertices))
                serial = tuple(
                    perm_kron(c1.representative.phi[e], c2.representative.phi[e])
                    .conjugate(lam)
                    .images
                    for e in base.edge_list()
                )
                assert m.add(c1.class_id, c2.class_id) == class_of[n_sum][serial]
        rng = random.Random(11)
        for n in range(n_max + 1):
            auts = automorphisms(powers[n])
            for _ in range(20):
                fv = make_fiber_voltage(
                    base, powers[n], {e: rng.choice(auts) for e in base.edge_list()}
                )
                assert m.classify(fv, n) == class_of[n][fv.serialized()]

    def test_least_serial_need_not_be_forest_trivial(self):
        m = enumerate_bundle_classes(BRIDGE_AFTER_CYCLES, empty_graph(3), 1)
        parent = {v: p for tree in spanning_forest(BRIDGE_AFTER_CYCLES) for v, p in tree.items()}
        tree_edges = [
            (a, b) for a, b in BRIDGE_AFTER_CYCLES.edge_list() if parent[a] == b or parent[b] == a
        ]
        off_forest = [
            c for c in m.classes_at(1)
            if any(not c.representative.phi[e].is_identity() for e in tree_edges)
        ]
        assert (len(m.classes_at(1)), len(off_forest)) == (11, 8)


class TestBurnsideCounts:
    def test_square_base_edge_fiber_to_cube(self, c4, k2):
        # 48^4 assignments at n=3: refused by cap when every one was walked.
        m = enumerate_bundle_classes(c4, k2, 3)
        counts = [len(m.classes_at(n)) for n in range(4)]
        assert counts == [1, 2, 5, 10]
        assert counts == [burnside_count(automorphisms(fiber_power(k2, n)), 1) for n in range(4)]

    def test_two_triangles_count_per_component(self, k2, k3):
        # Gauges act on each component on its own: the counts multiply.
        two_triangles = make_graph(
            list("abcdef"), [("a", "b"), ("b", "c"), ("a", "c"), ("d", "e"), ("e", "f"), ("d", "f")]
        )
        m = enumerate_bundle_classes(two_triangles, k2, 2)
        per_triangle = [burnside_count(automorphisms(fiber_power(k2, n)), 1) for n in range(3)]
        assert [len(m.classes_at(n)) for n in range(3)] == [c * c for c in per_triangle] == [1, 4, 25]
        m = enumerate_bundle_classes(two_triangles, k3, 1)
        assert len(m.classes_at(1)) == burnside_count(automorphisms(k3), 1) ** 2 == 9

    def test_complete_base_triangle_fiber(self, k3):
        m = enumerate_bundle_classes(complete_graph(4), k3, 1)
        counts = [len(m.classes_at(n)) for n in range(2)]
        assert counts == [1, 49]
        assert counts[1] == burnside_count(automorphisms(k3), 3)


GAUGE_FIBERS = [complete_graph(2), empty_graph(3), complete_graph(3), cycle_graph(4), path_graph(3)]


@st.composite
def voltage_and_gauge(draw, max_vertices=5):
    k = draw(st.integers(2, max_vertices))
    labels = draw(st.permutations([f"u{i}" for i in range(k)]))
    pairs = [(labels[i], labels[j]) for i in range(k) for j in range(i + 1, k)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=6))
    base = make_graph(labels, edges)
    fiber = draw(st.sampled_from(GAUGE_FIBERS))
    auts = automorphisms(fiber)
    fv = make_fiber_voltage(base, fiber, {e: draw(st.sampled_from(auts)) for e in base.edge_list()})
    gauge = {v: draw(st.sampled_from(auts)) for v in base.vertices}
    return fv, gauge


def gauge_transform(fv, gauge):
    return make_fiber_voltage(
        fv.base,
        fv.fiber,
        {(a, b): gauge[b].compose(fv.phi[(a, b)]).compose(gauge[a].inverse()) for a, b in fv.base.edge_list()},
    )


@given(voltage_and_gauge())
@settings(max_examples=80, deadline=None)
def test_key_is_gauge_invariant(case):
    fv, gauge = case
    key = voltage_class_key(fv)
    assert voltage_class_key(gauge_transform(fv, gauge)) == key
    assert key <= fv.serialized()


def brute_least_serial(fv):
    """The least serial over every gauge in Aut(F)^V, by exhaustion."""
    auts = automorphisms(fv.fiber)
    twist = twist_table(auts)
    idx = fv.base.index
    ends = [(idx[a], idx[b]) for a, b in fv.base.edge_list()]
    values = [auts.index(fv.phi[e]) for e in fv.base.edge_list()]
    least = min(
        tuple(twist[g[b]][p][g[a]] for (a, b), p in zip(ends, values))
        for g in itertools.product(range(len(auts)), repeat=fv.base.n)
    )
    return tuple(auts[i].images for i in least)


@given(voltage_and_gauge(max_vertices=4))
@settings(max_examples=60, deadline=None)
def test_key_is_least_serial_over_all_gauges(case):
    fv, _ = case
    assert voltage_class_key(fv) == brute_least_serial(fv)


@pytest.mark.parametrize(
    "edges",
    [
        # Triangle {a, b, f} closes, triangle {c, d, e} closes, (d, f)
        # merges the two, and (e, f) then closes a cycle across them.
        [("a", "b"), ("a", "f"), ("b", "f"), ("c", "d"), ("c", "e"), ("d", "e"), ("d", "f"), ("e", "f")],
        # Triangle {a, b, d} closes, the free c joins it by (c, d), e joins
        # c, and (d, e) closes a cycle through the joined vertex.
        [("a", "b"), ("a", "d"), ("b", "d"), ("c", "d"), ("c", "e"), ("d", "e")],
    ],
    ids=["two-constrained-merge", "free-joins-constrained"],
)
def test_key_after_merging_into_a_constrained_component(edges):
    base = make_graph(sorted({v for e in edges for v in e}), edges)
    assert base.edge_list() == edges
    fiber = empty_graph(3)
    auts = automorphisms(fiber)
    rng = random.Random(3)
    for _ in range(6):
        fv = make_fiber_voltage(base, fiber, {e: rng.choice(auts) for e in base.edge_list()})
        assert voltage_class_key(fv) == brute_least_serial(fv)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_least_product_matches_every_pair(data):
    k = data.draw(st.integers(1, 5))
    perms = st.permutations(range(k)).map(tuple)
    heads = data.draw(st.lists(perms, min_size=1, max_size=12, unique=True))
    tails = data.draw(st.lists(perms, min_size=1, max_size=12, unique=True))
    brute = min(tuple(h[i] for i in t) for h in heads for t in tails)
    assert _least_product(heads, tails) == brute


class TestCanonicalKeyAgreesWithSearch:
    def test_all_single_power_voltages_over_triangle(self, c3, k2):
        # Dual route: gauge canonicalization versus the equivalence search.
        edges = c3.edge_list()
        voltages = [
            make_fiber_voltage(c3, k2, dict(zip(edges, assignment)))
            for assignment in itertools.product([IDENT, SWAP], repeat=3)
        ]
        keys = [voltage_class_key(fv) for fv in voltages]
        for (fv1, key1), (fv2, key2) in itertools.combinations(zip(voltages, keys), 2):
            searched = bundles_equivalent(voltage_bundle(fv1), voltage_bundle(fv2))
            assert (key1 == key2) == (searched is not None)

    def test_nonabelian_fiber_symmetries_over_triangle(self, c3):
        # Three isolated vertices carry the full symmetric group, so the
        # canonical form must handle non-commuting gauges.
        import random

        from bundleforge import automorphisms, empty_graph

        fiber = empty_graph(3)
        auts = automorphisms(fiber)
        edges = c3.edge_list()
        voltages = [
            make_fiber_voltage(c3, fiber, dict(zip(edges, assignment)))
            for assignment in itertools.product(auts, repeat=3)
        ]
        keys = {}
        for fv in voltages:
            keys.setdefault(voltage_class_key(fv), []).append(fv)
        # One independent cycle: classes are the conjugacy classes of the
        # automorphism group, computed here as an independent oracle.
        orbits = set()
        for a in auts:
            orbits.add(frozenset(a.conjugate(g) for g in auts))
        assert len(keys) == len(orbits)
        rng = random.Random(5)
        sample = rng.sample(voltages, 16)
        for fv1, fv2 in itertools.combinations(sample, 2):
            searched = bundles_equivalent(voltage_bundle(fv1), voltage_bundle(fv2))
            same_key = voltage_class_key(fv1) == voltage_class_key(fv2)
            assert same_key == (searched is not None)

    def test_triangle_fiber_class_count_matches_conjugacy(self, c3, k3):
        m = enumerate_bundle_classes(c3, k3, 1)
        from bundleforge import automorphisms

        auts = automorphisms(k3)
        orbits = {frozenset(a.conjugate(g) for g in auts) for a in auts}
        assert len(m.classes_at(1)) == len(orbits) == 3


@pytest.fixture(scope="module")
def monoid():
    return enumerate_bundle_classes(cycle_graph(3), complete_graph(2), 2)


class TestAddition:
    def test_neutral_element(self, monoid):
        zero = monoid.trivial_class(0).class_id
        for c in monoid.classes:
            if c.n + 0 <= monoid.n_max:
                assert monoid.add(zero, c.class_id) == c.class_id
                assert monoid.add(c.class_id, zero) == c.class_id

    def test_commutative(self, monoid):
        for c1 in monoid.classes:
            for c2 in monoid.classes:
                assert monoid.add(c1.class_id, c2.class_id) == monoid.add(c2.class_id, c1.class_id)

    def test_associative_in_bound(self, monoid):
        ids = [c.class_id for c in monoid.classes]
        for i, j, k in itertools.product(ids, repeat=3):
            ij = monoid.add(i, j)
            jk = monoid.add(j, k)
            if ij is None or jk is None:
                continue
            left = monoid.add(ij, k)
            right = monoid.add(i, jk)
            if left is None or right is None:
                continue
            assert left == right

    def test_out_of_bound_marked(self, monoid):
        top = monoid.classes_at(2)[0].class_id
        one = monoid.classes_at(1)[0].class_id
        assert monoid.add(top, one) is None

    def test_twist_sum_classes(self, monoid):
        # Twisted + twisted lands in a different class from trivial + twisted.
        trivial1, twisted1 = (c.class_id for c in monoid.classes_at(1))
        assert monoid.add(twisted1, twisted1) != monoid.add(trivial1, twisted1)


class TestGrothendieck:
    def test_zero_equals_zero(self, c3, k2):
        m = enumerate_bundle_classes(c3, k2, 1)
        a = m.classes_at(1)[1].class_id
        b = m.classes_at(0)[0].class_id
        assert grothendieck_equal(m, KGroupElement(a, a), KGroupElement(b, b)) == "true"

    def test_tree_differences_collapse_to_rank(self, p3, k2):
        m = enumerate_bundle_classes(p3, k2, 3)
        c = {n: m.classes_at(n)[0].class_id for n in range(4)}
        lhs = KGroupElement(c[2], c[1])
        rhs = KGroupElement(c[1], c[0])
        assert grothendieck_equal(m, lhs, rhs) == "true"

    def test_tree_distinct_ranks_not_equal(self, p3, k2):
        m = enumerate_bundle_classes(p3, k2, 3)
        c = {n: m.classes_at(n)[0].class_id for n in range(4)}
        verdict = grothendieck_equal(m, KGroupElement(c[2], c[0]), KGroupElement(c[1], c[0]))
        assert verdict in ("false", "unknown")
        assert verdict != "true"

    def test_triangle_twist_regression(self, c3, k2):
        # Frozen regression: at the default bound the balancing search for
        # the twisted class against zero stays undecided.
        m = enumerate_bundle_classes(c3, k2, 2)
        trivial1, twisted1 = (c.class_id for c in m.classes_at(1))
        zero = m.classes_at(0)[0].class_id
        verdict = grothendieck_equal(
            m, KGroupElement(twisted1, trivial1), KGroupElement(zero, zero)
        )
        assert verdict == "unknown"


class TestClassMaps:
    def test_identity_map(self, c3, k2):
        m = enumerate_bundle_classes(c3, k2, 1)
        mapping = k0_map(identity_morphism(c3), m, m)
        assert mapping == {c.class_id: c.class_id for c in m.classes}

    def test_trivial_classes_map_to_trivial(self, c6, c3, k2, p_c6_c3):
        m_c3 = enumerate_bundle_classes(c3, k2, 1)
        m_c6 = enumerate_bundle_classes(c6, k2, 1)
        mapping = k0_map(p_c6_c3, m_c3, m_c6)
        for n in range(2):
            assert mapping[m_c3.trivial_class(n).class_id] == m_c6.trivial_class(n).class_id

    def test_contravariant_composition(self, c6, c3, k2, p_c6_c3):
        p2 = path_graph(2)
        f = make_morphism(p2, c6, {"1": "1", "2": "2"})
        m_c3 = enumerate_bundle_classes(c3, k2, 1)
        m_c6 = enumerate_bundle_classes(c6, k2, 1)
        m_p2 = enumerate_bundle_classes(p2, k2, 1)
        via_c6 = k0_map(p_c6_c3, m_c3, m_c6)
        then_p2 = k0_map(f, m_c6, m_p2)
        direct = k0_map(compose(p_c6_c3, f), m_c3, m_p2)
        assert direct == {cid: then_p2[via_c6[cid]] for cid in via_c6}

    def test_respects_addition_in_bound(self, c3, k2, p3):
        inclusion = make_morphism(p3, c3, {"1": "1", "2": "2", "3": "3"})
        m_c3 = enumerate_bundle_classes(c3, k2, 2)
        m_p3 = enumerate_bundle_classes(p3, k2, 2)
        mapping = k0_map(inclusion, m_c3, m_p3)
        for c1 in m_c3.classes:
            for c2 in m_c3.classes:
                total = m_c3.add(c1.class_id, c2.class_id)
                if total is None:
                    continue
                image_sum = m_p3.add(mapping[c1.class_id], mapping[c2.class_id])
                assert mapping[total] == image_sum

    def test_well_defined_on_representatives(self, c3, k2):
        # A gauge twist of a representative classifies identically.
        m = enumerate_bundle_classes(c3, k2, 1)
        twisted = m.classes_at(1)[1].representative
        # Gauge family: identity at vertices 1 and 3, a swap at vertex 2.
        regauged = make_fiber_voltage(
            c3,
            k2,
            {
                ("1", "2"): SWAP.compose(twisted.phi[("1", "2")]),
                ("2", "3"): twisted.phi[("2", "3")].compose(SWAP.inverse()),
                ("1", "3"): twisted.phi[("1", "3")],
            },
        )
        assert bundles_equivalent(voltage_bundle(regauged), voltage_bundle(twisted)) is not None
        assert m.classify(regauged, 1) == m.classify(twisted, 1)

    def test_domain_monoid_of_another_fiber(self, c3, p3, k2):
        fold = make_morphism(c3, p3, {"1": "1", "2": "2", "3": "2"})
        with pytest.raises(FiberMismatch):
            k0_map(fold, enumerate_bundle_classes(p3, k2, 1), enumerate_bundle_classes(c3, p3, 1))

    def test_domain_monoid_over_another_base(self, c3, p3, k2):
        fold = make_morphism(c3, p3, {"1": "1", "2": "2", "3": "2"})
        with pytest.raises(BaseMismatch, match="domain of the morphism"):
            k0_map(fold, enumerate_bundle_classes(p3, k2, 1), enumerate_bundle_classes(p3, k2, 1))

    def test_domain_monoid_of_lower_power(self, c3, k2):
        m1, m2 = enumerate_bundle_classes(c3, k2, 1), enumerate_bundle_classes(c3, k2, 2)
        with pytest.raises(EnumerationBoundExceeded, match="fiber power 1"):
            k0_map(identity_morphism(c3), m2, m1)
        assert k0_map(identity_morphism(c3), m1, m2) == {c.class_id: c.class_id for c in m1.classes}

    def test_voltage_over_another_base_is_rejected(self, c3, k2):
        # Same edge count, other labels: a serial alone would match a class.
        m = enumerate_bundle_classes(c3, k2, 1)
        other = make_graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
        fv = make_fiber_voltage(other, k2, {e: SWAP for e in other.edge_list()})
        with pytest.raises(BaseMismatch):
            m.classify(fv, 1)
