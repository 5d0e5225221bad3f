import ast
import collections
import itertools
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundleforge import graphs, ktheory
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
    k0_map,
    make_fiber_voltage,
    make_graph,
    make_morphism,
    path_graph,
    star_graph,
    voltage_bundle,
)
from bundleforge.bundles import _holonomies
from bundleforge.errors import BaseMismatch, EnumerationBoundExceeded, FiberMismatch
from bundleforge.ktheory import DEFAULT_MAX_ASSIGNMENTS
from bundleforge.perms import kron as perm_kron
from conftest import conjugate, degree, identity_morphism, spanning_forest

SWAP = Perm((1, 0))
IDENT = Perm((0, 1))

#: Two triangles {a, b, e} and {c, d, f}, then the bridge (e, f) last in
#: edge order: the bridge joins two components whose gauges are already
#: constrained.
BRIDGE_AFTER_CYCLES = make_graph(
    list("abcdef"),
    [("a", "b"), ("b", "e"), ("a", "e"), ("c", "d"), ("d", "f"), ("c", "f"), ("e", "f")],
)
#: K4 less the edge bd: cycle rank 2.
K4_MINUS_E = make_graph(list("abcd"), [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("c", "d")])
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
            classes.append((n, tuple(auts[i] for i in assignment)))
            for g in itertools.product(range(len(auts)), repeat=base.n):
                orbit_point = tuple(twist[g[b]][p][g[a]] for (a, b), p in zip(ends, assignment))
                seen[orbit_point] = class_id
        class_of[n] = {tuple(auts[i] for i in a): cid for a, cid in seen.items()}
    return classes, class_of


def burnside_count(auts, beta):
    """Orbits of Aut^β under simultaneous conjugation: the mean over g of
    the β-th power of the centralizer order of g, read by comparing g ∘ h
    with h ∘ g for all h at once."""
    images = np.array(auts)
    total = sum(int((g[images] == images[:, g]).all(axis=1).sum()) ** beta for g in images)
    assert total % len(auts) == 0
    return total // len(auts)


# --- the gauge walk: the reference route --------------------------------------
#
# Every voltage is gauge-equivalent to one trivial on a spanning forest, so
# this route walks the |Aut(F^n)|^β forest-trivial voltages and keys each by
# its least serial over all gauge transforms, computed greedily edge by edge.
# It never reads a holonomy, so it is independent of the library's orbit
# route, which it checks.


def _compose(p, q):
    """p after q, on image tuples."""
    return tuple(map(p.__getitem__, q))


def _invert(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def _least_product(heads, tails):
    """The lexicographically least h ∘ t over h in heads and t in tails.

    Position by position, the pairs still least so far form blocks
    hs × ts; a block splits by the image j = t[i], keeping the heads with the
    least h[j].  The head sets of the blocks stay disjoint, so this costs
    O(deg² · |heads| + deg · |tails|), not |heads| · |tails| compositions."""
    blocks = [(heads, tails)]
    out = []
    for i in range(len(heads[0])):
        best = len(heads[0])
        kept = []
        for hs, ts in blocks:
            by_image = {}
            for t in ts:
                by_image.setdefault(t[i], []).append(t)
            for j, tj in by_image.items():
                low = min(h[j] for h in hs)
                if low < best:
                    best, kept = low, []
                if low == best:
                    kept.append(([h for h in hs if h[j] == low], tj))
        out.append(best)
        blocks = kept
    return tuple(out)


class _Gauge:
    """Gauge transforms φ'(v, w) = g_w ∘ φ(v, w) ∘ g_v⁻¹, with every g_v in
    Aut(F), of the voltages over one base."""

    def __init__(self, base, auts):
        idx = base.index
        self.ends = tuple((idx[a], idx[b]) for a, b in base.edge_list())
        self.n_vertices = base.n
        self.auts = tuple(auts)
        self.inverse = {p: _invert(p) for p in self.auts}
        self.identity = tuple(range(len(self.auts[0])))

    def least_serial(self, serial):
        """The lexicographically least serial over all gauge transforms of a
        voltage, given by its serial: the canonical form of its class.

        Edge values are fixed greedily in position order over a union-find
        of the partial components the fixed edges span.  A component keeps
        the gauges still allowed at its root; a member u has gauge
        left[u] ∘ x ∘ right[u], where x is the root's gauge."""
        inv = self.inverse
        whole = len(self.auts)
        root = list(range(self.n_vertices))
        members = [[v] for v in range(self.n_vertices)]
        left = [self.identity] * self.n_vertices
        right = [self.identity] * self.n_vertices
        allowed = [self.auts] * self.n_vertices
        out = []
        for (a, b), phi in zip(self.ends, serial):
            ra, rb = root[a], root[b]
            # The edge takes left[b] ∘ y ∘ m ∘ x⁻¹ ∘ left[a]⁻¹ for root gauges x, y.
            m = _compose(_compose(right[b], phi), inv[right[a]])
            qa = inv[left[a]]
            if ra == rb:
                values = [
                    (_compose(left[b], _compose(x, _compose(m, _compose(inv[x], qa)))), x)
                    for x in allowed[ra]
                ]
                best = min(value for value, _ in values)
                allowed[ra] = [x for value, x in values if value == best]
                out.append(best)
                continue
            if len(allowed[ra]) == whole or len(allowed[rb]) == whole:
                # A free side can absorb any value: the edge takes the identity.
                best = self.identity
            else:
                heads = [_compose(left[b], y) for y in allowed[rb]]
                tails = [_compose(m, _compose(inv[x], qa)) for x in allowed[ra]]
                best = _least_product(heads, tails)
            # b's root gauge is now inv[left[b]] ∘ best ∘ left[a] ∘ x ∘ m⁻¹.
            shift = _compose(_compose(inv[left[b]], best), left[a])
            m_inv = inv[m]
            if len(allowed[rb]) < whole:
                kept = set(allowed[rb])
                allowed[ra] = [
                    x for x in allowed[ra] if _compose(_compose(shift, x), m_inv) in kept
                ]
            for u in members[rb]:
                root[u] = ra
                left[u] = _compose(left[u], shift)
                right[u] = _compose(m_inv, right[u])
            members[ra].extend(members[rb])
            out.append(best)
        return tuple(out)


def least_serial(fv):
    """The reference key of a voltage: its least serial over all gauges."""
    return _Gauge(fv.base, automorphisms(fv.fiber)).least_serial(fv.perms)


def cycle_positions(base):
    """Positions of the base edges off the breadth-first spanning forest."""
    parent = {v: p for tree in spanning_forest(base) for v, p in tree.items()}
    return [pos for pos, (a, b) in enumerate(base.edge_list()) if parent[a] != b and parent[b] != a]


class GaugeWalk:
    """Bundle classes by the gauge walk, with the caps the walk had.

    classes lists (n, least serial) in serial order; add_table maps each
    ordered pair of class indices to the index of the sum, or None out of
    bound.  max_assignments caps the walk times the |Aut(F^n)| gauges tried
    per voltage, and the table."""

    #: The walk's own cap on the base.
    MAX_BASE_VERTICES = 6

    def __init__(self, base, fiber, n_max, max_assignments=DEFAULT_MAX_ASSIGNMENTS):
        if base.n > self.MAX_BASE_VERTICES:
            raise EnumerationBoundExceeded("base over the vertex cap")
        self.base, self.edges = base, base.edge_list()
        non_tree = cycle_positions(base)
        self.powers = [fiber_power(fiber, n) for n in range(n_max + 1)]
        self.gauges, self.keys, self.classes = {}, {}, []
        for n, fn in enumerate(self.powers):
            gauge = self.gauges[n] = _Gauge(base, automorphisms(fn))
            k = len(gauge.auts)
            if k ** len(non_tree) * (k if non_tree else 1) > max_assignments:
                raise EnumerationBoundExceeded("walk over the cap")
            serial = [gauge.identity] * len(self.edges)
            least = set()
            for values in itertools.product(gauge.auts, repeat=len(non_tree)):
                for pos, value in zip(non_tree, values):
                    serial[pos] = value
                least.add(gauge.least_serial(serial))
            self.keys[n] = {}
            for key in sorted(least):
                self.keys[n][key] = len(self.classes)
                self.classes.append((n, key))
            if len(self.classes) ** 2 > max_assignments:
                raise EnumerationBoundExceeded("addition table over the cap")
        self.add_table = {}
        for i, (n1, key1) in enumerate(self.classes):
            for j, (n2, key2) in enumerate(self.classes):
                n_sum = n1 + n2
                if n_sum > n_max:
                    self.add_table[(i, j)] = None
                    continue
                serial = [perm_kron(Perm(a), Perm(b)) for a, b in zip(key1, key2)]
                self.add_table[(i, j)] = self.keys[n_sum][self.gauges[n_sum].least_serial(serial)]

    def representative(self, i):
        n, key = self.classes[i]
        return make_fiber_voltage(self.base, self.powers[n], dict(zip(self.edges, map(Perm, key))))

    def classify(self, fv, n):
        return self.keys[n][self.gauges[n].least_serial(fv.perms)]


def holonomy_tuple(fv):
    return tuple(h for _, hs in _holonomies(fv)[1] for h in hs)


def assert_routes_agree(m, ref, rng, draws=5):
    """The classes of m and of the gauge walk ref correspond one to one
    through classify of the walk's representatives, the correspondence
    carries ref's addition table onto m's, and random voltages fall in
    corresponding classes."""
    to_new = {}
    for i, (n, _) in enumerate(ref.classes):
        to_new[i] = m.classify(ref.representative(i), n)
        assert m.classes[to_new[i]].n == n
    assert sorted(to_new.values()) == list(range(len(m.classes)))
    for (i, j), k in ref.add_table.items():
        assert m.add(to_new[i], to_new[j]) == (None if k is None else to_new[k])
    for n, fn in enumerate(ref.powers):
        auts = automorphisms(fn)
        for _ in range(draws):
            fv = make_fiber_voltage(ref.base, fn, {e: rng.choice(auts) for e in ref.edges})
            assert m.classify(fv, n) == to_new[ref.classify(fv, n)]


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
        assert all(degree(g, v) == 3 for v in g.vertices)

    def test_first_power_is_the_graph(self, k3):
        assert fiber_power(k3, 1) == k3

    def test_negative_power_is_refused(self, k2):
        with pytest.raises(ValueError, match=r"^fiber power needs n >= 0$"):
            fiber_power(k2, -1)

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

    def test_negative_bound_is_rejected(self, c3, k2):
        with pytest.raises(ValueError, match="n_max >= 0"):
            enumerate_bundle_classes(c3, k2, -1)

    def test_trivial_class_off_the_powers_is_refused(self, c3, k2):
        # As classify refuses the same powers.
        m = enumerate_bundle_classes(c3, k2, 1)
        with pytest.raises(ValueError, match="fiber power needs n >= 0"):
            m.trivial_class(-1)
        with pytest.raises(EnumerationBoundExceeded, match="fiber power 2 is over the monoid's bound 1"):
            m.trivial_class(2)
        assert [m.trivial_class(n).class_id for n in range(2)] == [0, 1]

    def test_bases_past_six_vertices_are_answered(self, k2):
        # No cap on the base: the conjugations of the walk bound it.  A
        # tree has one class per power, a cycle the classes of one holonomy.
        m = enumerate_bundle_classes(cycle_graph(7), k2, 1)
        assert [len(m.classes_at(n)) for n in range(2)] == [1, 2]
        m = enumerate_bundle_classes(path_graph(7), k2, 2)
        assert [len(m.classes_at(n)) for n in range(3)] == [1, 1, 1]
        m = enumerate_bundle_classes(cycle_graph(12), k2, 3)
        assert [len(m.classes_at(n)) for n in range(4)] == [1, 2, 5, 10]

    def test_assignment_cap(self, c3, k3):
        # The cap counts the conjugations of the chain walk actually done: 1
        # for Aut of a point, then 18 to split S3 into its 3 conjugacy
        # classes, one conjugation per element and class.
        with pytest.raises(EnumerationBoundExceeded, match="over 18 conjugations"):
            enumerate_bundle_classes(c3, k3, 1, max_assignments=18)
        assert len(enumerate_bundle_classes(c3, k3, 1, max_assignments=19).classes_at(1)) == 3
        # The cap counts nothing else: over K4, whose 1 + 49 classes have
        # 2,500 ordered sums, the walk takes 1 + 18 + 26 conjugations, the
        # last 26 to split S3 under the centralizers of orders 2, 3 and 1.
        with pytest.raises(EnumerationBoundExceeded, match="over 44 conjugations"):
            enumerate_bundle_classes(complete_graph(4), k3, 1, max_assignments=44)
        m = enumerate_bundle_classes(complete_graph(4), k3, 1, max_assignments=45)
        assert [len(m.classes_at(n)) for n in range(2)] == [1, 49]

    @pytest.mark.parametrize(
        "base,fiber,n_max,work,counts",
        [
            # One conjugation for Aut of a point, then the 15 conjugacy
            # classes of S7, each found by conjugating with all 5,040
            # elements: the gauge walk needed 5,040^2.
            (cycle_graph(3), complete_graph(7), 1, 1 + 15 * 5040, [1, 15]),
            # 5,633 classes, once refused for their 31.7M ordered sums, in
            # 2,677 conjugations; the counts are the class equation's.
            (complete_graph(4), complete_graph(2), 3, 2677, [1, 8, 176, 5448]),
        ],
        ids=["c3-k7", "k4-k2-cube"],
    )
    def test_canonicalization_cap(self, base, fiber, n_max, work, counts):
        with pytest.raises(EnumerationBoundExceeded, match=f"over {work - 1} conjugations"):
            enumerate_bundle_classes(base, fiber, n_max, max_assignments=work - 1)
        m = enumerate_bundle_classes(base, fiber, n_max, max_assignments=work)
        assert [len(m.classes_at(n)) for n in range(n_max + 1)] == counts

    def test_sums_are_not_capped_after_the_walk(self, k2):
        # K4/K2 to n=2 walks the chain of Aut(C4) in 133 conjugations and
        # finds 1 + 8 + 176 classes; their 34,225 ordered sums, once a
        # table the cap counted, are computed on demand under the same
        # tight cap.
        with pytest.raises(EnumerationBoundExceeded, match="over 132 conjugations"):
            enumerate_bundle_classes(complete_graph(4), k2, 2, max_assignments=132)
        m = enumerate_bundle_classes(complete_graph(4), k2, 2, max_assignments=133)
        assert [len(m.classes_at(n)) for n in range(3)] == [1, 8, 176]
        ids = range(len(m.classes))
        assert sum(m.add(i, j) is not None for i in ids for j in ids) == 1 + 2 * 8 + 2 * 176 + 8 * 8


class TestSumsOnDemand:
    """The monoid computes a sum when it is first asked for, so the
    classes are capped by the walk's conjugations alone."""

    @pytest.mark.parametrize(
        "base,n_max,counts",
        [
            (complete_graph(4), 3, [1, 8, 176, 5448]),
            (K4_MINUS_E, 4, [1, 4, 28, 172, 1328]),
        ],
        ids=["k4-k2-cube", "k4-e-k2-fourth"],
    )
    def test_counts_past_the_old_table_cap_are_the_class_equations(self, k2, base, n_max, counts):
        # Both were refused while the |classes|^2 addition table shared the
        # cap; the counts are the class equation's, sum over the conjugacy
        # classes K of Aut(K2^n) of |C(K)|^(β−1).
        m = enumerate_bundle_classes(base, k2, n_max)
        assert [len(m.classes_at(n)) for n in range(n_max + 1)] == counts

    @pytest.mark.parametrize(
        "base,fiber,n_max",
        [
            (complete_graph(4), complete_graph(2), 2),
            (cycle_graph(3), complete_graph(3), 2),
            (BRIDGE_AFTER_CYCLES, complete_graph(2), 2),
        ],
        ids=["k4-k2", "c3-k3", "bridge-k2"],
    )
    def test_sums_spend_no_conjugations(self, base, fiber, n_max):
        # The walk has split every stabilizer that a sum's key passes.
        m = enumerate_bundle_classes(base, fiber, n_max)
        spent = [(chain.conjugations, len(chain._split)) for chain in m._chains.values()]
        ids = range(len(m.classes))
        sums = [m.add(i, j) for i in ids for j in ids]
        assert sum(k is not None for k in sums) == sum(
            len(m.classes_at(a)) * len(m.classes_at(b)) for a in range(n_max + 1) for b in range(n_max + 1 - a)
        )
        assert [(chain.conjugations, len(chain._split)) for chain in m._chains.values()] == spent


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
        # Ids follow (power, key); a representative is its key on the edges
        # off the forest and the identity on the tree, so its holonomies
        # are the key.
        assert [c.class_id for c in m.classes] == list(range(len(m.classes)))
        assert [(c.n, c.key) for c in m.classes] == sorted((c.n, c.key) for c in m.classes)
        parent = {v: p for tree in spanning_forest(base) for v, p in tree.items()}
        tree_edges = [(a, b) for a, b in base.edge_list() if parent[a] == b or parent[b] == a]
        for c in m.classes:
            rep = c.representative
            assert holonomy_tuple(rep) == c.key
            assert all(rep.phi[e].is_identity() for e in tree_edges)
            one_way = {e: rep.phi[e] for e in base.edge_list()}
            assert make_fiber_voltage(base, rep.fiber, one_way).phi == rep.phi
        # One class per orbit of the exhaustive walk, at the same power.
        to_ref = {c.class_id: class_of[c.n][c.representative.perms] for c in m.classes}
        assert sorted(to_ref.values()) == list(range(len(classes)))
        assert all(classes[to_ref[c.class_id]][0] == c.n for c in m.classes)
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
                    conjugate(perm_kron(c1.representative.phi[e], c2.representative.phi[e]), lam)
                    for e in base.edge_list()
                )
                assert to_ref[m.add(c1.class_id, c2.class_id)] == class_of[n_sum][serial]
        rng = random.Random(11)
        for n in range(n_max + 1):
            auts = automorphisms(powers[n])
            for _ in range(20):
                fv = make_fiber_voltage(
                    base, powers[n], {e: rng.choice(auts) for e in base.edge_list()}
                )
                assert to_ref[m.classify(fv, n)] == class_of[n][fv.perms]

    def test_least_serial_need_not_be_forest_trivial(self):
        # The gauge walk's least serials leave the forest on 8 of 11 classes;
        # the orbit route's representatives never do.
        ref = GaugeWalk(BRIDGE_AFTER_CYCLES, empty_graph(3), 1)
        parent = {v: p for tree in spanning_forest(BRIDGE_AFTER_CYCLES) for v, p in tree.items()}
        tree_positions = [
            pos for pos, (a, b) in enumerate(BRIDGE_AFTER_CYCLES.edge_list()) if parent[a] == b or parent[b] == a
        ]
        at_one = [key for n, key in ref.classes if n == 1]
        off_forest = [key for key in at_one if any(key[pos] != (0, 1, 2) for pos in tree_positions)]
        assert (len(at_one), len(off_forest)) == (11, 8)
        m = enumerate_bundle_classes(BRIDGE_AFTER_CYCLES, empty_graph(3), 1)
        assert len(m.classes_at(1)) == 11
        assert all(c.representative.perms[pos] == (0, 1, 2) for c in m.classes_at(1) for pos in tree_positions)


def small_graphs(max_vertices):
    """One graph per isomorphism class on 1 to max_vertices vertices,
    disconnected ones included."""
    out = []
    for k in range(1, max_vertices + 1):
        pairs = list(itertools.combinations(range(k), 2))
        seen = set()
        for mask in range(1 << len(pairs)):
            edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
            form = min(
                tuple(sorted(tuple(sorted((s[a], s[b]))) for a, b in edges))
                for s in itertools.permutations(range(k))
            )
            if form not in seen:
                seen.add(form)
                out.append(make_graph([str(i) for i in range(k)], [(str(a), str(b)) for a, b in edges]))
    return out


class TestRoutesAgree:
    @pytest.mark.parametrize(
        "fiber,n_max,covered",
        [(complete_graph(2), 2, 48), (path_graph(3), 1, 52), (complete_graph(3), 1, 50)],
        ids=["K2", "P3", "K3"],
    )
    def test_every_base_on_at_most_five_vertices(self, fiber, n_max, covered):
        # Every case of the 52 graphs that the gauge walk answers under the
        # default cap; it refuses the densest few.
        rng = random.Random(7)
        answered = 0
        for base in small_graphs(5):
            try:
                ref = GaugeWalk(base, fiber, n_max)
            except EnumerationBoundExceeded:
                continue
            assert_routes_agree(enumerate_bundle_classes(base, fiber, n_max), ref, rng)
            answered += 1
        assert answered == covered


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

    def test_triangle_base_k7_fiber(self, c3):
        # The gauge walk needed 5,040^2 conjugations and was refused.  Aut(K7)
        # is S7, where the centralizer of g has order prod k^m_k · m_k! over
        # its m_k cycles of length k; Burnside averages that order over S7.
        auts = automorphisms(complete_graph(7))
        assert len(auts) == math.factorial(7)

        def centralizer_order(g):
            lengths = collections.Counter(g.cycle_type())
            return math.prod(k ** m * math.factorial(m) for k, m in lengths.items())

        total = sum(centralizer_order(g) for g in auts)
        assert total % len(auts) == 0
        m = enumerate_bundle_classes(c3, complete_graph(7), 1)
        assert len(m.classes_at(1)) == total // len(auts) == 15

    def test_k4_minus_edge_k2_fiber_to_cube(self, k2):
        # Cycle rank 2: the gauge walk canonicalized 48^2 voltages over 48
        # gauges each at n = 3; the chain reads the same counts.
        m = enumerate_bundle_classes(K4_MINUS_E, k2, 3)
        counts = [len(m.classes_at(n)) for n in range(4)]
        assert counts == [burnside_count(automorphisms(fiber_power(k2, n)), 2) for n in range(4)]
        assert counts == [1, 4, 28, 172]

    def test_complete_base_triangle_fiber(self, k3):
        m = enumerate_bundle_classes(complete_graph(4), k3, 1)
        counts = [len(m.classes_at(n)) for n in range(2)]
        assert counts == [1, 49]
        assert counts[1] == burnside_count(automorphisms(k3), 3)


# --- Aut(F^n) from the prime factors of F: the wreath route -----------------
#
# For a connected fiber F, the enumeration generates Aut(F^n) for n ≥ 2 as
# the product of the Aut(P) ≀ S_(n·a) over the types P of prime factor of F,
# a of them in F; a disconnected fiber's powers are searched.  These tests
# hold the generated groups against the search, the reference route.


def searched(fiber, n):
    return tuple(automorphisms(fiber_power(fiber, n)))


def enumerated_group(fiber, n):
    """Aut(F^n) as the enumeration reads it; over a tree base, nothing
    else reads it."""
    return enumerate_bundle_classes(path_graph(2), fiber, n)._chains[n].auts


class TestWreathRoute:
    def test_generated_equals_searched_on_two_and_three_vertices(self):
        covered = []
        for fiber in small_graphs(3):
            if fiber.n < 2 or len(spanning_forest(fiber)) > 1:
                continue
            for n in range(4):
                if fiber.n ** n <= 10:
                    assert enumerated_group(fiber, n) == searched(fiber, n)
                    covered.append((len(fiber.edges), n))
        assert sorted(covered) == [(1, 0), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2)]

    @pytest.mark.parametrize(
        "fiber,n,order",
        [(complete_graph(2), 4, 384), (complete_graph(3), 3, 1296), (cycle_graph(5), 2, 200), (path_graph(5), 2, 8)],
        ids=["K2^4", "K3^3", "C5^2", "P5^2"],
    )
    def test_generated_equals_searched_past_the_bound(self, fiber, n, order):
        generated = enumerated_group(fiber, n)
        assert generated == searched(fiber, n)
        assert len(generated) == order

    def test_generated_equals_searched_on_up_to_four_vertices(self):
        connected = [f for f in small_graphs(4) if f.n > 1 and len(spanning_forest(f)) == 1]
        generated = [enumerated_group(f, n) for f in connected for n in range(3)]
        assert generated == [searched(f, n) for f in connected for n in range(3)]
        assert len(connected) == 9

    @pytest.mark.parametrize(
        "fiber,factors,order",
        [
            (cartesian_product(complete_graph(2), complete_graph(3)), [3, 2], 576),
            # A composite order, but prime under □.
            (cycle_graph(6), [6], 288),
        ],
        ids=["(K2□K3)^2", "C6^2"],
    )
    def test_generated_square_equals_searched(self, fiber, factors, order):
        assert [f.n for f in ktheory._box_factors(fiber)[0]] == factors
        generated = enumerated_group(fiber, 2)
        assert generated == searched(fiber, 2)
        assert len(generated) == order

    def test_composite_fiber_is_generated_from_its_factors(self, c4):
        # C4 □ C4 is Q4 = K2^4: its group is Aut(K2) ≀ S4, of order 384,
        # not Aut(C4) ≀ S2, of order 128.
        assert [f.n for f in ktheory._box_factors(c4)[0]] == [2, 2]
        generated = enumerated_group(c4, 2)
        assert generated == searched(c4, 2)
        assert len(generated) == 384

    def test_factorization_is_checked(self, monkeypatch, c4):
        # A coordinate map that is no isomorphism onto the product of the
        # factors is an internal error, not a wrong group.
        monkeypatch.setattr(ktheory, "_box_edge", lambda factors, a, b: False)
        with pytest.raises(AssertionError, match="internal error"):
            ktheory._box_factors(c4)

    def test_disconnected_fiber_is_searched(self):
        # (2K1)^2 is 4K1, with all 24 permutations, not the 8 of Aut(2K1) ≀ S2.
        assert len(enumerated_group(empty_graph(2), 2)) == 24 == len(searched(empty_graph(2), 2))

    @pytest.mark.parametrize(
        "base,fiber,n_max",
        [
            (K4_MINUS_E, complete_graph(2), 3),
            (cycle_graph(3), complete_graph(3), 2),
            (EDGE_AND_TRIANGLE, path_graph(3), 2),
            (cycle_graph(3), cycle_graph(4), 2),
        ],
        ids=["k4-e-k2", "c3-k3", "edge+triangle-p3", "c3-c4"],
    )
    def test_monoid_equals_the_searched_one(self, monkeypatch, base, fiber, n_max):
        m = enumerate_bundle_classes(base, fiber, n_max)
        # With no factorization every power is searched.
        monkeypatch.setattr(ktheory, "_box_factors", lambda g: None)
        ref = enumerate_bundle_classes(base, fiber, n_max)
        assert [(c.class_id, c.n, c.key, c.representative.perms) for c in m.classes] == [
            (c.class_id, c.n, c.key, c.representative.perms) for c in ref.classes
        ]
        pairs = list(itertools.product(range(len(m.classes)), repeat=2))
        assert [m.add(i, j) for i, j in pairs] == [ref.add(i, j) for i, j in pairs]
        assert all(m._chains[n].auts == ref._chains[n].auts for n in range(n_max + 1))


class TestPowersPastTheSearchBound:
    @pytest.fixture
    def generated(self, monkeypatch):
        """The number of factors of each power whose group is generated, in
        call order: the power itself for a prime fiber."""
        calls = []
        wreath = ktheory._wreath

        def spy(groups, slots):
            calls.append(len(slots))
            return wreath(groups, slots)

        monkeypatch.setattr(ktheory, "_wreath", spy)
        return calls

    def test_triangle_base_triangle_fiber_to_cube(self, c3, k3):
        m = enumerate_bundle_classes(c3, k3, 3)
        counts = [len(m.classes_at(n)) for n in range(4)]
        assert counts == [burnside_count(automorphisms(fiber_power(k3, n)), 1) for n in range(4)] == [1, 3, 9, 22]

    def test_cap_refuses_a_generated_group_before_generating_it(self, generated, c3, k3):
        # The first split of Aut(K3^3) = S3 ≀ S3 conjugates by all
        # 6^3 · 3! = 1,296 elements once per conjugacy class, of which it
        # has 22, the 3-coloured partitions of 3.
        spent = enumerate_bundle_classes(c3, k3, 2)._chains[2].conjugations
        generated.clear()
        cap = spent + 1296 * 22 - 1
        with pytest.raises(EnumerationBoundExceeded, match=f"chain of 1296 fiber automorphisms needs over {cap} conj"):
            enumerate_bundle_classes(c3, k3, 3, max_assignments=cap)
        assert generated == [2]
        generated.clear()
        m = enumerate_bundle_classes(c3, k3, 3, max_assignments=spent + 28512)
        assert generated == [2, 3]
        assert m._chains[3].conjugations == spent + 28512
        assert [len(m.classes_at(n)) for n in range(4)] == [1, 3, 9, 22]

    @pytest.mark.parametrize(
        "fiber,n,order,built",
        [(complete_graph(2), 6, 46080, [2, 3, 4, 5]), (complete_graph(3), 4, 31104, [2, 3])],
        ids=["K2^6", "K3^4"],
    )
    def test_refusals_come_before_the_group_is_built(self, generated, c3, fiber, n, order, built):
        # The first split of the last power would pass the default cap, so
        # its group is never generated; the powers below it are answered.
        with pytest.raises(EnumerationBoundExceeded, match=f"^the stabilizer chain of {order} fiber automorphisms needs over 1000000 conj"):
            enumerate_bundle_classes(c3, fiber, n)
        assert generated == built

    def test_class_counts_across_factorizations(self, c3, k2):
        # C4 □ C4 is K2^4, so C3/C4 at n = 2 has the classes of C3/K2 at
        # n = 4; the triangle's holonomy classes are conjugacy classes.
        m = enumerate_bundle_classes(c3, cycle_graph(4), 2)
        counts = [len(m.classes_at(n)) for n in range(3)]
        edge = enumerate_bundle_classes(c3, k2, 4)
        assert counts == [len(edge.classes_at(n)) for n in (0, 2, 4)] == [1, 5, 20]
        prism = cartesian_product(k2, complete_graph(3))
        m = enumerate_bundle_classes(c3, prism, 2)
        counts = [len(m.classes_at(n)) for n in range(3)]
        assert counts == [burnside_count(searched(prism, n), 1) for n in range(3)] == [1, 6, 45]

    def test_powers_past_the_square_of_the_search_bound_are_refused(self, generated, c3, p3, k2):
        # The 100-vertex power bound is ktheory's own, no longer the square
        # of a search bound.  Over a tree no group is read, so only it stops
        # the powers.  Over a triangle it refuses C5^3, though the cap would
        # not: its 6,000 automorphisms, times k(D5 ≀ S3) = 40 classes, price
        # its first split at 240,000 conjugations.  The cap alone would
        # refuse C5^4 before generating its group: 240,000 automorphisms
        # times k(D5 ≀ S4) = 105 is 25.2M conjugations.
        with pytest.raises(EnumerationBoundExceeded, match="fiber power 7 has 128 vertices, enumeration capped at 100"):
            enumerate_bundle_classes(p3, k2, 7)
        assert len(enumerate_bundle_classes(p3, k2, 6).classes) == 7
        with pytest.raises(EnumerationBoundExceeded, match="fiber power 3 has 125 vertices, enumeration capped at 100"):
            enumerate_bundle_classes(c3, cycle_graph(5), 4)
        assert generated == [2]


class TestSearchesPerEnumeration:
    @pytest.fixture
    def searches(self, monkeypatch):
        calls = []
        search = ktheory._Chain._search

        def spy(chain):
            calls.append(chain.fiber.n)
            return search(chain)

        monkeypatch.setattr(ktheory._Chain, "_search", spy)
        return calls

    def test_tree_base_searches_nothing(self, searches, p3, k2):
        m = enumerate_bundle_classes(p3, k2, 3)
        assert [len(m.classes_at(n)) for n in range(4)] == [1, 1, 1, 1]
        assert searches == []

    def test_cycle_base_searches_the_fiber_once(self, searches, c3, k2):
        m = enumerate_bundle_classes(c3, k2, 3)
        assert [len(m.classes_at(n)) for n in range(4)] == [1, 2, 5, 10]
        assert searches == [2]

    def test_composite_fiber_searches_each_prime_type_once(self, searches, c3, k2):
        # C4 at n = 1, then K2 once for both of C4's factors; the powers
        # are generated.
        enumerate_bundle_classes(c3, cycle_graph(4), 2)
        assert searches == [4, 2]
        searches.clear()
        enumerate_bundle_classes(c3, cartesian_product(k2, complete_graph(3)), 2)
        assert sorted(searches) == [2, 3, 6]

    def test_class_map_along_a_path_searches_nothing(self, searches, c3, p3, k2):
        m = enumerate_bundle_classes(c3, k2, 3)
        searches.clear()
        mapping = k0_map(make_morphism(p3, c3, {"1": "1", "2": "2", "3": "3"}), m)
        assert mapping == {c.class_id: c.n for c in m.classes}
        assert searches == []

    def test_class_map_into_another_base_is_refused(self, searches, c3, p3, k2):
        m = enumerate_bundle_classes(p3, k2, 1)
        searches.clear()
        with pytest.raises(BaseMismatch, match="^codomain of the morphism must equal the monoid base$"):
            k0_map(make_morphism(p3, c3, {"1": "1", "2": "2", "3": "3"}), m)
        assert searches == []


# --- Searched groups, priced while they are listed --------------------------
#
# A searched group has no vertex bound.  The search lists it in rounds of
# doubling size, and after each round the first split is priced at f·t
# conjugations for the f automorphisms found, of t distinct cycle types.


class TestPricedSearch:
    @pytest.fixture
    def listed(self, monkeypatch):
        """The number of isomorphisms each search_shape call returns."""
        counts = []
        search = graphs.search_shape

        def spy(*args, **kwargs):
            found, nodes = search(*args, **kwargs)
            counts.append(len(found))
            return found, nodes

        monkeypatch.setattr(graphs, "search_shape", spy)
        return counts

    @pytest.mark.parametrize("m,counts", [(12, [1, 9]), (24, [1, 15])], ids=["C12", "C24"])
    def test_cycle_fibers_past_ten_vertices(self, c3, m, counts):
        # Over a triangle the classes at n = 1 are the conjugacy classes of
        # Aut(C_m), the dihedral group D_m of order 2m, and k(D_m) is
        # (m + 6)/2 for even m.
        monoid = enumerate_bundle_classes(c3, cycle_graph(m), 1)
        assert [len(monoid.classes_at(n)) for n in range(2)] == counts == [1, (m + 6) // 2]

    @pytest.mark.parametrize(
        "fiber,n",
        [(complete_graph(9), 1), (empty_graph(3), 2), (complete_graph(11), 1)],
        ids=["K9", "(3K1)^2", "K11"],
    )
    def test_large_symmetric_groups_are_refused_while_listed(self, listed, c3, fiber, n):
        # S9, the group of K9 and of (3K1)^2 = 9K1, has 362,880 elements in
        # 30 classes: its first split would take 10.9M conjugations, over
        # the default cap.  The elements found price it past the cap long
        # before the search has listed them all, and S11 likewise.
        with pytest.raises(
            EnumerationBoundExceeded,
            match=r"^the stabilizer chain of at least \d+ fiber automorphisms needs over 1000000 conj",
        ):
            enumerate_bundle_classes(c3, fiber, n)
        assert sum(listed) < 2**17

    def test_only_a_group_listed_in_full_is_named_by_its_order(self, listed, c3):
        # S6 has 720 elements in 11 classes, one cycle type each: its first
        # split takes 7,920 conjugations, after the 1 of the zeroth power.
        k6 = complete_graph(6)
        with pytest.raises(EnumerationBoundExceeded, match="^the stabilizer chain of 720 fiber automorphisms needs over 7920 conj"):
            enumerate_bundle_classes(c3, k6, 1, max_assignments=7920)
        assert listed[-1] == 720
        monoid = enumerate_bundle_classes(c3, k6, 1, max_assignments=7921)
        assert [len(monoid.classes_at(n)) for n in range(2)] == [1, 11]
        listed.clear()
        with pytest.raises(EnumerationBoundExceeded, match="^the stabilizer chain of at least ") as refused:
            enumerate_bundle_classes(c3, k6, 1, max_assignments=2000)
        assert f"at least {listed[-1]} fiber automorphisms" in str(refused.value)
        assert max(listed) < 720


def test_ktheory_alone_raises_enumeration_bounds():
    # graphs answers to the node budget alone: it does not name
    # EnumerationBoundExceeded, and ktheory is the one module that raises it.
    src = Path(ktheory.__file__).resolve().parent
    raisers = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if getattr(exc, "id", getattr(exc, "attr", None)) == "EnumerationBoundExceeded":
                    raisers.add(path.stem)
    assert raisers == {"ktheory"}
    named = {
        getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        for node in ast.walk(ast.parse((src / "graphs.py").read_text()))
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
    }
    assert "search_shape" in named and "EnumerationBoundExceeded" not in named


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


def voltage_class_key(fv):
    """The chain key of one voltage on a fresh chain, the route that
    KClassMonoid.classify takes on the monoid's shared chain: the least
    simultaneous conjugate of each component's holonomies."""
    return ktheory._Chain(fv.fiber).key([h for _, hs in _holonomies(fv)[1] for h in hs], ktheory._cycle_edges(fv.base)[1])


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
    assert key <= holonomy_tuple(fv)


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
    return tuple(auts[i] for i in least)


def brute_least_conjugate(fv):
    """Per component, the least simultaneous conjugate of the holonomies
    over every fiber automorphism, by exhaustion."""
    auts = automorphisms(fv.fiber)
    return tuple(
        h for _, hs in _holonomies(fv)[1] for h in min(tuple(conjugate(x, g) for x in hs) for g in auts)
    )


def gauge_between(fv1, fv2):
    """Whether some gauge in Aut(F)^V takes fv1 to fv2, by exhaustion."""
    auts = automorphisms(fv1.fiber)
    twist = twist_table(auts)
    idx = fv1.base.index
    edges = [(idx[a], idx[b], auts.index(fv1.phi[(a, b)]), auts.index(fv2.phi[(a, b)])) for a, b in fv1.base.edge_list()]
    return any(
        all(twist[g[b]][p1][g[a]] == p2 for a, b, p1, p2 in edges)
        for g in itertools.product(range(len(auts)), repeat=fv1.base.n)
    )


@given(voltage_and_gauge(max_vertices=4))
@settings(max_examples=60, deadline=None)
def test_key_is_least_serial_over_all_gauges(case):
    # The key is the least holonomy tuple over the gauges, which conjugate
    # each component's holonomies by the gauge at its root.
    fv, _ = case
    assert voltage_class_key(fv) == brute_least_conjugate(fv)


@given(voltage_and_gauge(max_vertices=4), st.data())
@settings(max_examples=60, deadline=None)
def test_keys_equal_exactly_when_a_gauge_exists(case, data):
    fv, gauge = case
    other = gauge_transform(fv, gauge)
    auts = automorphisms(fv.fiber)
    edges = fv.base.edge_list()
    how = data.draw(st.sampled_from(["gauge", "one edge", "random"]))
    if how == "one edge" and edges:
        e = data.draw(st.sampled_from(edges))
        other = make_fiber_voltage(fv.base, fv.fiber, {**{d: other.phi[d] for d in edges}, e: data.draw(st.sampled_from(auts))})
    elif how == "random":
        other = make_fiber_voltage(fv.base, fv.fiber, {d: data.draw(st.sampled_from(auts)) for d in edges})
    assert (voltage_class_key(fv) == voltage_class_key(other)) == gauge_between(fv, other)


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
        assert least_serial(fv) == brute_least_serial(fv)
        assert voltage_class_key(fv) == brute_least_conjugate(fv)


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
            orbits.add(frozenset(conjugate(a, g) for g in auts))
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
        orbits = {frozenset(conjugate(a, g) for g in auts) for a in auts}
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

    @pytest.mark.parametrize("i,j,bad", [(0, 8, 8), (8, 0, 8), (-1, 2, -1), (2, "1", "'1'")])
    def test_unknown_class_id_is_named(self, monoid, i, j, bad):
        with pytest.raises(ValueError, match=f"no class with id {bad}; the ids run from 0 to 7"):
            monoid.add(i, j)

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

    @pytest.mark.parametrize("position", range(4))
    def test_unknown_class_id_is_named(self, c3, k2, position):
        m = enumerate_bundle_classes(c3, k2, 1)
        ids = [0, 1, 2, 1]
        ids[position] = 3
        with pytest.raises(ValueError, match="no class with id 3; the ids run from 0 to 2"):
            grothendieck_equal(m, KGroupElement(*ids[:2]), KGroupElement(*ids[2:]))

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

    def test_voltage_of_another_fiber_is_rejected(self, c3, k2, k3):
        m = enumerate_bundle_classes(c3, k2, 1)
        fv = make_fiber_voltage(c3, k3, {e: Perm((1, 2, 0)) for e in c3.edge_list()})
        with pytest.raises(FiberMismatch, match="fiber power 1"):
            m.classify(fv, 1)
        with pytest.raises(FiberMismatch, match="fiber power 0"):
            m.classify(m.classes_at(1)[1].representative, 0)

    def test_power_over_the_bound_is_rejected(self, c3, k2):
        m = enumerate_bundle_classes(c3, k2, 1)
        fv = make_fiber_voltage(c3, fiber_power(k2, 2), {e: Perm((1, 0, 3, 2)) for e in c3.edge_list()})
        with pytest.raises(EnumerationBoundExceeded, match="fiber power 2"):
            m.classify(fv, 2)

    def test_voltage_over_another_base_is_rejected(self, c3, k2):
        # Same edge count, other labels: a serial alone would match a class.
        m = enumerate_bundle_classes(c3, k2, 1)
        other = make_graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
        fv = make_fiber_voltage(other, k2, {e: SWAP for e in other.edge_list()})
        with pytest.raises(BaseMismatch):
            m.classify(fv, 1)
