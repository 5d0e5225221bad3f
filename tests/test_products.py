import itertools

import pytest

from bundleforge import (
    FiberVoltage,
    Perm,
    adjacency_matrix,
    cartesian_product,
    cartesian_spectrum,
    complete_graph,
    covering_adjacency,
    cycle_graph,
    empty_graph,
    find_isomorphism,
    make_graph,
    make_morphism,
    path_graph,
    strong_product,
    strong_spectrum,
    trivial_voltage,
    verify_kfold_covering,
    voltage_bundle,
)
from bundleforge.errors import BaseMismatch, FiberNotIsomorphic, NotACovering, ParseError
from bundleforge.matrices import Matrix, Spectrum, graph_spectrum
from bundleforge.products import make_covering_voltage

from conftest import degree
from dense_reference import close_to_values, identity, kronecker, spectra_close

SPECTRUM_FAMILY = ["k2", "k3", "c4", "c6", "p3"]


def family_graph(name):
    return {
        "k2": complete_graph(2),
        "k3": complete_graph(3),
        "c4": cycle_graph(4),
        "c6": cycle_graph(6),
        "p3": path_graph(3),
    }[name]


class TestCartesianProduct:
    def test_k2_box_k3_prism(self, k2, k3):
        prism = cartesian_product(k2, k3)
        assert prism.n == 6
        assert len(prism.edges) == 9

    def test_one_vertex_unit(self, c6):
        unit = make_graph(["u"], [])
        prod = cartesian_product(c6, unit)
        assert find_isomorphism(prod, c6) is not None

    def test_k2_box_k2_is_c4(self, k2, c4):
        prod = cartesian_product(k2, k2)
        assert prod.n == 4 and len(prod.edges) == 4
        assert all(degree(prod, v) == 2 for v in prod.vertices)
        assert find_isomorphism(prod, c4) is not None

    def test_adjacency_identity_exact(self, k3, c4):
        a1, a2 = adjacency_matrix(k3), adjacency_matrix(c4)
        formula = kronecker(a1, identity(4)).data + kronecker(identity(3), a2).data
        assert Matrix(formula) == adjacency_matrix(cartesian_product(k3, c4))

    def test_pair_label_collision_is_a_duplicate_vertex(self):
        # ("1", "a,b") and ("1,a", "b") would both print as "(1,a,b)": the
        # factors' labels are refused, and with the commas inside
        # parentheses the generated labels are distinct.
        with pytest.raises(ParseError, match=r"^vertex '1,a' breaks the label grammar"):
            make_graph(["1", "1,a"], [("1", "1,a")])
        with pytest.raises(ParseError, match=r"^vertex 'a,b' breaks the label grammar"):
            make_graph(["a,b", "b"], [("a,b", "b")])
        base = make_graph(["1", "(1,a)"], [("1", "(1,a)")])
        fiber = make_graph(["(a,b)", "b"], [("(a,b)", "b")])
        labels = ("(1,(a,b))", "(1,b)", "((1,a),(a,b))", "((1,a),b)")
        assert cartesian_product(base, fiber).vertices == labels
        assert voltage_bundle(trivial_voltage(base, fiber)).total.vertices == labels


class TestStrongProduct:
    def test_k2_strong_k3_is_k6(self, k2, k3):
        prod = strong_product(k2, k3)
        assert prod.n == 6
        assert len(prod.edges) == 15
        assert find_isomorphism(prod, complete_graph(6)) is not None

    def test_one_vertex_unit(self, m3):
        unit = make_graph(["u"], [])
        assert find_isomorphism(strong_product(m3, unit), m3) is not None

    def test_k2_strong_k2_is_k4(self, k2):
        assert find_isomorphism(strong_product(k2, k2), complete_graph(4)) is not None

    def test_adjacency_identity_exact(self, k2, p3):
        a1, a2 = adjacency_matrix(k2), adjacency_matrix(p3)
        formula = kronecker(a1, identity(3)).data + kronecker(identity(2), a2).data + kronecker(a1, a2).data
        assert Matrix(formula) == adjacency_matrix(strong_product(k2, p3))


class TestProductSpectra:
    def test_box_spectrum_against_eigensolver(self, k2, k3):
        oracle = graph_spectrum(cartesian_product(k2, k3))
        closed = cartesian_spectrum(graph_spectrum(k2), graph_spectrum(k3))
        assert spectra_close(closed, oracle, tol=1e-8)
        assert close_to_values(closed, [3, 1, 0, 0, -2, -2], tol=1e-8)

    def test_box_one_vertex_neutral(self, c6):
        s = graph_spectrum(c6)
        assert spectra_close(cartesian_spectrum(Spectrum((0.0,)), s), s)

    def test_box_k2_k2(self, k2):
        closed = cartesian_spectrum(graph_spectrum(k2), graph_spectrum(k2))
        oracle = graph_spectrum(cartesian_product(k2, k2))
        assert spectra_close(closed, oracle, tol=1e-8)
        assert close_to_values(closed, [2, 0, 0, -2], tol=1e-8)

    def test_strong_spectrum_against_k6(self, k2, k3):
        closed = strong_spectrum(graph_spectrum(k2), graph_spectrum(k3))
        assert close_to_values(closed, [5, -1, -1, -1, -1, -1], tol=1e-8)

    def test_strong_one_vertex_neutral(self, c4):
        s = graph_spectrum(c4)
        assert spectra_close(strong_spectrum(Spectrum((0.0,)), s), s)

    def test_strong_minus_one_row(self):
        out = strong_spectrum(Spectrum((-1.0,)), Spectrum((4.0, 0.5, -2.0)))
        assert close_to_values(out, [-1, -1, -1])

    @pytest.mark.parametrize("n1,n2", list(itertools.combinations_with_replacement(SPECTRUM_FAMILY, 2)))
    def test_family_agreement(self, n1, n2):
        g1, g2 = family_graph(n1), family_graph(n2)
        s1, s2 = graph_spectrum(g1), graph_spectrum(g2)
        assert spectra_close(cartesian_spectrum(s1, s2), graph_spectrum(cartesian_product(g1, g2)), tol=1e-8)
        assert spectra_close(strong_spectrum(s1, s2), graph_spectrum(strong_product(g1, g2)), tol=1e-8)


class TestCoverings:
    def test_c6_double_cover(self, p_c6_c3):
        b = verify_kfold_covering(p_c6_c3, 2)
        assert b.fiber.n == 2
        assert b.projection.preimages["1"] == ("3", "6")
        # Each fiber is numbered in the order of the total space.
        assert [b.sigma[b.total.index[x]] for x in ("3", "6")] == [0, 1]

    def test_identity_is_onefold(self, k3):
        b = verify_kfold_covering(make_morphism(k3, k3, {v: v for v in k3.vertices}), 1)
        assert b.fiber.n == 1

    def test_collapse_has_no_lifting(self, k2):
        # The collapsed edge lies inside the fiber, which is not edgeless.
        k1 = make_graph(["u"], [])
        f = make_morphism(k2, k1, {"1": "u", "2": "u"})
        with pytest.raises(FiberNotIsomorphic):
            verify_kfold_covering(f, 2)

    def test_wrong_fold_count(self, p_c6_c3):
        with pytest.raises(FiberNotIsomorphic):
            verify_kfold_covering(p_c6_c3, 3)

    def test_star_not_invertible(self, k2):
        # The path a-b-c-d folded onto K2: b meets both a and c over "1".
        p4 = make_graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
        f = make_morphism(p4, k2, {"a": "1", "b": "2", "c": "1", "d": "2"})
        with pytest.raises(NotACovering):
            verify_kfold_covering(f, 2)


class TestCoveringVoltage:
    def test_c6_voltages_and_monodromy(self, p_c6_c3):
        cv = verify_kfold_covering(p_c6_c3, 2).voltage
        swap, ident = Perm((1, 0)), Perm((0, 1))
        assert cv.phi[("1", "2")] == swap
        assert cv.phi[("2", "3")] == ident
        assert cv.phi[("1", "3")] == ident
        # Around the 3-cycle the sheets exchange: the cover is connected.
        around = cv.phi[("3", "1")].compose(cv.phi[("2", "3")]).compose(cv.phi[("1", "2")])
        assert around == swap

    def test_disjoint_double_cover_trivial_voltage(self, c3):
        two = make_graph(
            ["a1", "b1", "c1", "a2", "b2", "c2"],
            [("a1", "b1"), ("b1", "c1"), ("a1", "c1"), ("a2", "b2"), ("b2", "c2"), ("a2", "c2")],
        )
        p = make_morphism(two, c3, {"a1": "1", "b1": "2", "c1": "3", "a2": "1", "b2": "2", "c2": "3"})
        cv = verify_kfold_covering(p, 2).voltage
        assert all(perm.is_identity() for perm in cv.phi.values())

    def test_inverse_symmetry(self, p_c6_c3):
        cv = verify_kfold_covering(p_c6_c3, 2).voltage
        for (v, w), perm in cv.phi.items():
            assert cv.phi[(w, v)].compose(perm).is_identity()

    def test_json_roundtrip(self, c3, p_c6_c3):
        cv = verify_kfold_covering(p_c6_c3, 2).voltage
        again = FiberVoltage.from_json(cv.to_json())
        assert again.base == c3 and again.fiber == cv.fiber
        assert again.phi == dict(cv.phi)


class TestCoveringAdjacency:
    def test_c6_cover_reconstructs_hexagon(self, c3, c6, p_c6_c3):
        cv = verify_kfold_covering(p_c6_c3, 2).voltage
        a = covering_adjacency(c3, cv)
        total = voltage_bundle(cv).total
        assert a == adjacency_matrix(total)
        assert find_isomorphism(total, c6) is not None

    def test_identity_voltage_is_disjoint_double(self, c6):
        ident = Perm.identity(2)
        cv = make_covering_voltage(c6, 2, {(a, b): ident for a, b in c6.edge_list()})
        assert covering_adjacency(c6, cv) == kronecker(adjacency_matrix(c6), identity(2))

    def test_voltage_over_another_base_is_rejected(self, c3, c6):
        # A covering voltage is a fiber voltage over the edgeless fiber.
        cv = make_covering_voltage(c3, 2, {e: Perm((1, 0)) for e in c3.edge_list()})
        assert cv.fiber == empty_graph(2)
        with pytest.raises(BaseMismatch):
            covering_adjacency(c6, cv)

    def test_single_edge_swap_gives_disjoint_cover(self, k2):
        # A tree has only disjoint covers, so the swapped sheet voltage
        # still yields two disjoint edges rather than a 4-cycle.
        cv = make_covering_voltage(k2, 2, {("1", "2"): Perm((1, 0))})
        total = voltage_bundle(cv).total
        assert covering_adjacency(k2, cv) == adjacency_matrix(total)
        two_edges = make_graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        assert find_isomorphism(total, two_edges) is not None
        assert find_isomorphism(total, cycle_graph(4)) is None

    def test_voltage_roundtrip_through_total_graph(self, c3, c4):
        # Building the total space of a voltage and verifying it as a
        # covering reproduces the input voltage exactly.
        import random

        rng = random.Random(17)
        perms3 = [Perm(p) for p in [(0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)]]
        for base in (c3, c4):
            for _ in range(10):
                assignments = {e: rng.choice(perms3) for e in base.edge_list()}
                cv = make_covering_voltage(base, 3, assignments)
                total = voltage_bundle(cv).total
                p = make_morphism(
                    total, base, {v: v.rsplit(",", 1)[0][1:] for v in total.vertices}
                )
                extracted = verify_kfold_covering(p, 3).voltage
                assert dict(extracted.phi) == dict(cv.phi)

    def test_row_sums_match_base_degree(self, c3, p_c6_c3):
        cv = verify_kfold_covering(p_c6_c3, 2).voltage
        a = covering_adjacency(c3, cv)
        for i, v in enumerate(c3.vertices):
            for j in range(2):
                assert a.data[2 * i + j].sum() == degree(c3, v)
