import itertools
import random

import pytest

from bundleforge import (
    Perm,
    adjacency_matrix,
    bundles_equivalent,
    canonical_map,
    compose,
    compose_pullbacks_check,
    cycle_graph,
    find_isomorphism,
    is_section,
    is_trivial,
    make_fiber_voltage,
    make_graph,
    make_morphism,
    mixed_base_subdirect,
    pair_morphism,
    path_graph,
    pullback_adjacency,
    pullback_bundle,
    pullback_voltage,
    subdirect_adjacency,
    subdirect_product,
    trivial_voltage,
    validate_morphism,
    verify_bundle,
    voltage_bundle,
)
from bundleforge.errors import (
    BaseMismatch,
    CompositeCollapses,
    CompositesDisagree,
    NotAMorphism,
    ParseError,
    UnknownVertex,
)
from bundleforge.named import (
    m3_bundle,
    c6k2_bundle,
    mixed_base_figure_24,
    subdirect_figure_12,
)
from bundleforge.graphs import automorphisms, complete_graph, pair_label, split_pair_label, split_top
from bundleforge.matrices import Matrix
from bundleforge.pullback import (
    EDGE_KIND_COLLAPSED,
    EDGE_KIND_DIAGONAL,
    EDGE_KIND_FIBER,
    pullback_vertex,
    subdirect_voltage,
    typed_edge_counts,
)

from conftest import identity_bundle, identity_morphism, m62_bundle, with_fiber
from dense_reference import conjugated_block, from_rows, identity, kronecker, morphism_matrix, pullback_block



def split_pullback_vertex(label):
    """Invert pullback_vertex: strip the outer parentheses and split the
    rest at its one bar outside nested parentheses."""
    if label.startswith("(") and label.endswith(")"):
        parts = split_top(label[1:-1], "|")
        if len(parts) == 2:
            return parts[0], parts[1]
    raise ParseError(f"bad pullback vertex label: {label!r}")


SWAP = Perm((1, 0))
IDENT = Perm((0, 1))

# Printed worked-example matrices for the hexagon pullback of the twisted ladder.
M_P_ROWS = [
    [0, 0, 1, 0, 0, 1],
    [1, 0, 0, 1, 0, 0],
    [0, 1, 0, 0, 1, 0],
]

HADAMARD_ID_ROWS = [
    [0, 1, 0, 0, 0, 1],
    [1, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0],
    [0, 0, 1, 0, 1, 0],
    [0, 0, 0, 1, 0, 0],
    [1, 0, 0, 0, 0, 0],
]

HADAMARD_SWAP_ROWS = [
    [0, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0],
    [0, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 1, 0],
]


class TestPullbackBundle:
    def test_identity_pullback_is_same_bundle(self):
        b = m3_bundle()
        pb = pullback_bundle(identity_morphism(b.base), b)
        assert pb.total.n == b.total.n
        assert bundles_equivalent(pb, b) is not None

    def test_hexagon_pullback_of_twisted_ladder(self, c6, p_c6_c3):
        pb = pullback_bundle(p_c6_c3, m3_bundle())
        assert pb.total.n == 12
        assert bundles_equivalent(pb, m62_bundle()) is not None

    def test_pullback_of_trivial_is_trivial(self, c6, c3, k2, p_c6_c3):
        b = voltage_bundle(trivial_voltage(c3, k2))
        assert is_trivial(pullback_bundle(p_c6_c3, b))

    def test_base_mismatch(self, c4, c3, k2):
        b = voltage_bundle(trivial_voltage(c3, k2))
        f = identity_morphism(c4)
        with pytest.raises(BaseMismatch):
            pullback_bundle(f, b)

    def test_partial_morphism_is_refused(self, c3):
        # Vertex 3 is isolated, so no edge check would read it: the map is
        # refused when it is built, before any pullback.
        domain = make_graph(["1", "2", "3"], [("1", "2")])
        with pytest.raises(UnknownVertex, match="^morphism undefined on vertex '3'$"):
            make_morphism(domain, c3, {"1": "1", "2": "2"})

    def test_typed_edges_partition(self, p_c6_c3):
        pb = pullback_bundle(p_c6_c3, m3_bundle())
        counts = typed_edge_counts(pb.typed_edges)
        assert sum(counts.values()) == len(pb.total.edges)
        assert counts == {"I": 6, "II": 0, "III": 12}

    def test_collapsing_morphism_gives_type_two_edges(self, c3, k2):
        b = voltage_bundle(trivial_voltage(c3, k2))
        constant = make_morphism(c3, c3, {"1": "1", "2": "1", "3": "1"})
        pb = pullback_bundle(constant, b)
        counts = typed_edge_counts(pb.typed_edges)
        assert counts["III"] == 0
        assert counts["II"] == 6  # three base edges, two sheets each

    def test_pullback_preserves_equivalence(self, p_c6_c3):
        b1, b2 = c6k2_bundle(), m62_bundle()
        # The two hexagon bundles are equivalent; equivalence survives pullback.
        f = make_morphism(path_graph(2), p_c6_c3.domain, {"1": "1", "2": "2"})
        pb1, pb2 = pullback_bundle(f, b1), pullback_bundle(f, b2)
        assert bundles_equivalent(pb1, pb2) is not None


class TestPullbackVertexLabels:
    def test_split_inverts_label(self):
        assert split_pullback_vertex(pullback_vertex("(1,2)", "(a|b)")) == ("(1,2)", "(a|b)")

    @pytest.mark.parametrize("label", ["a|b", "xa|by", "(ab)", "(a|b"])
    def test_malformed_label_is_parse_error(self, label):
        with pytest.raises(ParseError):
            split_pullback_vertex(label)


    def test_labels_with_top_level_separators(self, k2):
        # A comma in a total label or a bar in a domain label outside
        # parentheses breaks the label grammar.  Inside them, the composite
        # labels read back exactly.
        with pytest.raises(ParseError, match=r"^vertex 'a,1' breaks the label grammar"):
            make_graph(["a,1", "b,1"], [("a,1", "b,1")])
        with pytest.raises(ParseError, match=r"^vertex 'x\|1' breaks the label grammar"):
            make_graph(["x|1", "x|2"], [("x|1", "x|2")])
        vs = ["(a,1)", "(b,1)", "(a,2)", "(b,2)"]
        total = make_graph(vs, [("(a,1)", "(b,1)"), ("(a,2)", "(b,2)"), ("(a,1)", "(a,2)"), ("(b,1)", "(b,2)")])
        b = verify_bundle(total, make_morphism(total, k2, {x: x[-2] for x in vs}), k2)
        sp = subdirect_product(b, b)
        assert sp.projection("((a,1),(b,1))") == "1" and sp.projection("((b,2),(a,2))") == "2"
        assert all(sp.projection(x) == b.projection(split_pair_label(x)[0]) for x in sp.total.vertices)
        domain = make_graph(["(x|1)", "(x|2)"], [("(x|1)", "(x|2)")])
        pb = pullback_bundle(make_morphism(domain, k2, {"(x|1)": "1", "(x|2)": "2"}), b)
        assert pb.projection.map == {
            "((x|1)|(a,1))": "(x|1)", "((x|1)|(b,1))": "(x|1)", "((x|2)|(a,2))": "(x|2)", "((x|2)|(b,2))": "(x|2)"
        }
        assert all(pb.projection(x) == split_pullback_vertex(x)[0] for x in pb.total.vertices)


class TestPullbackVoltage:
    def test_identity_keeps_voltage(self, m3_voltage, c3):
        out = pullback_voltage(identity_morphism(c3), m3_voltage)
        assert out.phi == dict(m3_voltage.phi)

    def test_hexagon_twists_two_edges(self, c6, p_c6_c3, m3_voltage):
        out = pullback_voltage(p_c6_c3, m3_voltage)
        twisted = [e for e in c6.edge_list() if not out.phi[e].is_identity()]
        assert twisted == [("2", "3"), ("5", "6")]

    def test_trivial_pulls_back_trivial(self, c6, c3, k2, p_c6_c3):
        out = pullback_voltage(p_c6_c3, trivial_voltage(c3, k2))
        assert all(p.is_identity() for p in out.phi.values())

    def test_voltage_route_matches_bundle_route(self, p_c6_c3, m3_voltage):
        via_voltage = voltage_bundle(pullback_voltage(p_c6_c3, m3_voltage))
        via_bundle = pullback_bundle(p_c6_c3, voltage_bundle(m3_voltage))
        assert bundles_equivalent(via_voltage, via_bundle) is not None


class TestMorphismMatrix:
    def test_hexagon_projection_matrix(self, p_c6_c3):
        assert morphism_matrix(p_c6_c3) == from_rows(M_P_ROWS)

    def test_identity(self, k3):
        assert morphism_matrix(identity_morphism(k3)) == identity(3)

    def test_constant_map_all_ones_row(self, k3):
        k1 = make_graph(["u"], [])
        f = make_morphism(k3, k1, {v: "u" for v in k3.vertices})
        assert morphism_matrix(f) == from_rows([[1, 1, 1]])

    def test_transpose_product_detects_equal_images(self, p_c6_c3):
        m = morphism_matrix(p_c6_c3)
        mtm = m.data.T @ m.data
        dom = p_c6_c3.domain
        for a in dom.vertices:
            for b in dom.vertices:
                expected = 1.0 if p_c6_c3(a) == p_c6_c3(b) else 0.0
                assert mtm[dom.index[a], dom.index[b]] == expected

    def test_columns_sum_to_one(self, q_m3_c3):
        m = morphism_matrix(q_m3_c3)
        assert all(m.data[:, j].sum() == 1.0 for j in range(m.cols))


class TestPullbackAdjacency:
    def test_printed_identity_block(self, p_c6_c3, m3_voltage):
        out = pullback_block(p_c6_c3, m3_voltage, IDENT)
        assert out == from_rows(HADAMARD_ID_ROWS)

    def test_printed_swap_block(self, p_c6_c3, m3_voltage):
        out = pullback_block(p_c6_c3, m3_voltage, SWAP)
        assert out == from_rows(HADAMARD_SWAP_ROWS)

    def test_formula_matches_construction(self, c6, p_c6_c3, m3_voltage, c9_rotation_voltage):
        # The heptagon wraps onto the hexagon, collapsing its edge {6, 7}.
        c7 = cycle_graph(7)
        wrap = make_morphism(c7, c6, {v: v if v != "7" else "6" for v in c7.vertices})
        for f, fv in ((p_c6_c3, m3_voltage), (wrap, c9_rotation_voltage)):
            formula = pullback_adjacency(f, fv)
            direct = adjacency_matrix(pullback_bundle(f, voltage_bundle(fv)).total)
            assert formula == direct

    def test_identity_reduces_to_bundle_formula(self, c3, m3_voltage):
        from bundleforge import bundle_adjacency

        assert pullback_adjacency(identity_morphism(c3), m3_voltage) == bundle_adjacency(m3_voltage)

    def test_b_matrix_periodicity(self, p_c6_c3, m3_voltage):
        # Entries depend only on the images, giving the 3-periodic row pattern.
        b = conjugated_block(p_c6_c3, m3_voltage, IDENT)
        for i in range(3):
            assert list(b.data[i]) == list(b.data[i + 3])

    def test_coherent_with_voltage_route(self, p_c6_c3, m3_voltage):
        # Pulling the voltage back first and applying the one-bundle formula
        # gives the same matrix as the pullback formula itself.
        from bundleforge import bundle_adjacency

        pulled = pullback_voltage(p_c6_c3, m3_voltage)
        assert bundle_adjacency(pulled) == pullback_adjacency(p_c6_c3, m3_voltage)

    def test_formulas_refuse_a_map_that_is_not_a_morphism(self):
        # The edge a–b lands on 1 and 3, which the path 1–2–3 does not join:
        # every pullback route refuses the map with the same message.
        p3 = path_graph(3)
        fv = make_fiber_voltage(p3, complete_graph(2), {e: SWAP for e in p3.edge_list()})
        f = make_morphism(make_graph(["a", "b"], [("a", "b")]), p3, {"a": "1", "b": "3"})
        messages = set()
        for route in (
            lambda: pullback_adjacency(f, fv),
            lambda: pullback_voltage(f, fv),
            lambda: pullback_bundle(f, voltage_bundle(fv)),
        ):
            with pytest.raises(NotAMorphism) as raised:
                route()
            messages.add(str(raised.value))
        assert messages == {"not a morphism; violating edges: [('a', 'b')]"}

    @pytest.mark.parametrize("route", [pullback_adjacency, pullback_voltage])
    def test_formulas_refuse_a_map_off_the_base(self, route, m3_voltage):
        # The identity of P3 has the labels of C3 but not its edge {1, 3}:
        # no route may read the voltage over C3 through it.
        p3 = identity_morphism(path_graph(3))
        with pytest.raises(BaseMismatch, match="codomain of the morphism must equal the voltage base"):
            route(p3, m3_voltage)


class TestCanonicalMap:
    def test_identity_case(self, c3, m3_voltage):
        b = voltage_bundle(m3_voltage)
        univ = canonical_map(identity_morphism(c3), b)
        assert sorted(univ.map.values()) == sorted(b.total.vertices)

    def test_hexagon_case_commutes(self, p_c6_c3, m3_voltage):
        b = voltage_bundle(m3_voltage)
        pb = pullback_bundle(p_c6_c3, b)
        univ = canonical_map(p_c6_c3, b)
        ok, _ = validate_morphism(univ)
        assert ok
        for x in pb.total.vertices:
            assert b.projection(univ(x)) == p_c6_c3(pb.projection(x))

    def test_labels_with_top_level_bars(self, k2):
        # The pullback label of x|1 over a|1 would be (x|1|a|1), which no
        # split reads back: such labels are refused.  With the bars inside
        # parentheses the map, read off positions, agrees with the split.
        with pytest.raises(ParseError, match=r"^vertex 'a\|1' breaks the label grammar"):
            make_graph(["a|1", "b|1"], [("a|1", "b|1")])
        vs = ["(a|1)", "(b|1)", "(a|2)", "(b|2)"]
        total = make_graph(vs, [("(a|1)", "(b|1)"), ("(a|2)", "(b|2)"), ("(a|1)", "(a|2)"), ("(b|1)", "(b|2)")])
        b = verify_bundle(total, make_morphism(total, k2, {x: x[-2] for x in vs}), k2)
        domain = make_graph(["(x|1)", "(x|2)"], [("(x|1)", "(x|2)")])
        f = make_morphism(domain, k2, {"(x|1)": "1", "(x|2)": "2"})
        univ = canonical_map(f, b)
        assert univ.map == {
            "((x|1)|(a|1))": "(a|1)", "((x|1)|(b|1))": "(b|1)", "((x|2)|(a|2))": "(a|2)", "((x|2)|(b|2))": "(b|2)"
        }
        assert all(univ(x) == split_pullback_vertex(x)[1] for x in univ.domain.vertices)

    def test_collapsing_pullback_universal_map(self, c3, k2):
        b = voltage_bundle(trivial_voltage(c3, k2))
        constant = make_morphism(c3, c3, {v: "1" for v in c3.vertices})
        univ = canonical_map(constant, b)
        ok, _ = validate_morphism(univ)
        assert ok


class TestFunctoriality:
    def test_identity_pair(self, c3, m3_voltage):
        b = voltage_bundle(m3_voltage)
        assert compose_pullbacks_check(identity_morphism(c3), identity_morphism(c3), b)

    def test_edge_inclusion_then_cover(self, c6, p_c6_c3, m3_voltage):
        f = make_morphism(path_graph(2), c6, {"1": "1", "2": "2"})
        b = voltage_bundle(m3_voltage)
        assert compose_pullbacks_check(f, p_c6_c3, b)
        # Both routes land over a tree, hence trivial.
        assert is_trivial(pullback_bundle(compose(p_c6_c3, f), b))

    def test_random_small_cases(self, c3, c6, k2):
        rng = random.Random(3)
        family = [path_graph(2), path_graph(3), c3, c6]
        done = 0
        while done < 25:
            g1, g2 = rng.choice(family), rng.choice(family)
            f_map = {v: rng.choice(g2.vertices) for v in g1.vertices}
            f = make_morphism(g1, g2, f_map)
            if not validate_morphism(f)[0]:
                continue
            g_map = {v: rng.choice(c3.vertices) for v in g2.vertices}
            g = make_morphism(g2, c3, g_map)
            if not validate_morphism(g)[0]:
                continue
            assignment = {
                e: rng.choice([IDENT, SWAP]) for e in c3.edge_list()
            }
            b = voltage_bundle(make_fiber_voltage(c3, k2, assignment))
            assert compose_pullbacks_check(f, g, b)
            done += 1


class TestSubdirectProduct:
    def test_prism_with_twisted_ladder(self, c3, k2, m3_voltage):
        b1 = voltage_bundle(trivial_voltage(c3, k2))
        b2 = voltage_bundle(m3_voltage)
        sp = subdirect_product(b1, b2)
        assert sp.total.n == 12
        assert find_isomorphism(sp.fiber, cycle_graph(4)) is not None
        assert find_isomorphism(sp.total, subdirect_figure_12()) is not None

    def test_neutral_element(self, c3, m3_voltage):
        b = voltage_bundle(m3_voltage)
        sp = subdirect_product(b, identity_bundle(c3))
        aligned = with_fiber(sp, b.fiber)
        assert bundles_equivalent(aligned, b) is not None

    def test_twisted_square_commutes(self, c3, m3_voltage):
        b = voltage_bundle(m3_voltage)
        left = subdirect_product(b, b)
        assert left.total.n == 12
        right = with_fiber(subdirect_product(b, b), left.fiber)
        assert bundles_equivalent(left, right) is not None

    def test_commutativity_up_to_equivalence(self, c3, k2, m3_voltage):
        b1 = voltage_bundle(trivial_voltage(c3, k2))
        b2 = voltage_bundle(m3_voltage)
        sp12 = subdirect_product(b1, b2)
        sp21 = with_fiber(subdirect_product(b2, b1), sp12.fiber)
        assert bundles_equivalent(sp12, sp21) is not None

    def test_base_mismatch(self, c3, c4, k2):
        b1 = voltage_bundle(trivial_voltage(c3, k2))
        b2 = voltage_bundle(trivial_voltage(c4, k2))
        with pytest.raises(BaseMismatch):
            subdirect_product(b1, b2)

    def test_commutes_with_pullback(self, p_c6_c3, c3, k2, m3_voltage):
        b1 = voltage_bundle(trivial_voltage(c3, k2))
        b2 = voltage_bundle(m3_voltage)
        pulled_product = pullback_bundle(p_c6_c3, subdirect_product(b1, b2))
        product_of_pulled = subdirect_product(
            pullback_bundle(p_c6_c3, b1), pullback_bundle(p_c6_c3, b2)
        )
        aligned = with_fiber(product_of_pulled, pulled_product.fiber)
        assert bundles_equivalent(pulled_product, aligned) is not None


class TestSubdirectAdjacency:
    def test_both_trivial_is_triple_box(self, c3, k2, two_k1):
        fv1, fv2 = trivial_voltage(c3, k2), trivial_voltage(c3, two_k1)
        a = adjacency_matrix(c3)
        expected = (
            kronecker(a, identity(4)).data
            + kronecker(identity(3), kronecker(adjacency_matrix(k2), identity(2))).data
            + kronecker(identity(6), adjacency_matrix(two_k1)).data
        )
        assert subdirect_adjacency(fv1, fv2) == Matrix(expected)

    def test_prism_twisted_case_matches_construction(self, c3, k2, m3_voltage):
        fv1 = trivial_voltage(c3, k2)
        sp = subdirect_product(voltage_bundle(fv1), voltage_bundle(m3_voltage))
        assert subdirect_adjacency(fv1, m3_voltage) == adjacency_matrix(sp.total)

    def test_double_twist_matches_construction(self, c6, k2, m3_voltage, c9_rotation_voltage):
        hexagon_twist = make_fiber_voltage(
            c6, k2, {e: SWAP if e == ("1", "2") else IDENT for e in c6.edge_list()}
        )
        for fv1, fv2 in ((m3_voltage, m3_voltage), (c9_rotation_voltage, hexagon_twist)):
            sp = subdirect_product(voltage_bundle(fv1), voltage_bundle(fv2))
            assert subdirect_adjacency(fv1, fv2) == adjacency_matrix(sp.total)

    def test_voltage_route_agrees(self, c3, k2, m3_voltage):
        fv1 = trivial_voltage(c3, k2)
        combined = subdirect_voltage(fv1, m3_voltage)
        from bundleforge import bundle_adjacency

        assert bundle_adjacency(combined) == subdirect_adjacency(fv1, m3_voltage)

    @pytest.mark.parametrize("route, what", [(subdirect_adjacency, "adjacency"), (subdirect_voltage, "voltage")])
    def test_bases_must_agree(self, c3, c4, k2, route, what):
        with pytest.raises(BaseMismatch, match=f"^subdirect {what} needs a common base graph$"):
            route(trivial_voltage(c3, k2), trivial_voltage(c4, k2))


class TestPairMorphism:
    def test_global_sections_pair_to_section(self, c3, k2):
        b1 = voltage_bundle(trivial_voltage(c3, k2))
        b2 = voltage_bundle(trivial_voltage(c3, k2))
        alpha1 = make_morphism(c3, b1.total, {v: f"({v},1)" for v in c3.vertices})
        alpha2 = make_morphism(c3, b2.total, {v: f"({v},2)" for v in c3.vertices})
        sp = subdirect_product(b1, b2)
        paired = pair_morphism(alpha1, alpha2, b1, b2)
        assert is_section(paired, sp)

    def test_point_base_counterexample(self, k2):
        point = make_graph(["*"], [])
        proj = make_morphism(k2, point, {"1": "*", "2": "*"})
        from bundleforge import verify_bundle

        b = verify_bundle(k2, proj, k2)
        ident = identity_morphism(k2)
        with pytest.raises(CompositeCollapses):
            pair_morphism(ident, ident, b, b)

    def test_disagreeing_composites(self, c3, k2):
        b = voltage_bundle(trivial_voltage(c3, k2))
        alpha1 = make_morphism(c3, b.total, {v: f"({v},1)" for v in c3.vertices})
        rotated = {"1": "(2,1)", "2": "(3,1)", "3": "(1,1)"}
        alpha2 = make_morphism(c3, b.total, rotated)
        with pytest.raises(CompositesDisagree):
            pair_morphism(alpha1, alpha2, b, b)


class TestSections:
    def test_constant_sheet_is_global_section(self, c3, k2):
        b = voltage_bundle(trivial_voltage(c3, k2))
        for f0 in k2.vertices:
            beta = make_morphism(c3, b.total, {v: f"({v},{f0})" for v in c3.vertices})
            assert is_section(beta, b)

    def test_twisted_ladder_has_no_global_section(self, c3, k2, m3_voltage):
        b = voltage_bundle(m3_voltage)
        found = []
        for choice in itertools.product(k2.vertices, repeat=3):
            mapping = {v: f"({v},{f0})" for v, f0 in zip(c3.vertices, choice)}
            beta = make_morphism(c3, b.total, mapping)
            if is_section(beta, b):
                found.append(mapping)
        assert found == []

    def test_single_vertex_section(self, c3, m3_voltage):
        b = voltage_bundle(m3_voltage)
        dot = make_graph(["2"], [])
        beta = make_morphism(dot, b.total, {"2": "(2,1)"})
        assert is_section(beta, b)
        off = make_morphism(dot, b.total, {"2": "(3,1)"})
        assert not is_section(off, b)

    @pytest.mark.parametrize(
        "vertices, edges, mapping",
        [
            (["9"], [], {"9": "(1,1)"}),
            (["1", "3"], [("1", "3")], {"1": "(1,1)", "3": "(3,1)"}),
            # (1,1) and (2,2) are not adjacent; (2,1) would make a section.
            (["1", "2"], [("1", "2")], {"1": "(1,1)", "2": "(2,2)"}),
        ],
        ids=["vertex-off-the-base", "edge-off-the-base", "not-a-morphism"],
    )
    def test_maps_that_are_no_section(self, k2, vertices, edges, mapping):
        b = voltage_bundle(trivial_voltage(path_graph(3), k2))
        beta = make_morphism(make_graph(vertices, edges), b.total, mapping)
        assert not is_section(beta, b)

    def test_image_off_the_total_is_refused(self, m3_voltage):
        b = voltage_bundle(m3_voltage)
        with pytest.raises(UnknownVertex, match=r"morphism value '\(9,1\)' not in codomain"):
            make_morphism(make_graph(["2"], []), b.total, {"2": "(9,1)"})


class TestMixedBaseDiagnostic:
    def test_reproduces_reference_figure(self, p_c6_c3):
        out = mixed_base_subdirect(m3_bundle(), c6k2_bundle(), p_c6_c3)
        assert out.base_mismatch
        assert out.graph.n == 24
        assert len(out.graph.edges) == 48
        counts = typed_edge_counts(out.typed_edges)
        assert counts == {"I": 12, "II": 12, "III": 24}
        assert find_isomorphism(out.graph, mixed_base_figure_24()) is not None

    def test_link_must_connect_bases(self, c4):
        with pytest.raises(BaseMismatch):
            mixed_base_subdirect(m3_bundle(), c6k2_bundle(), identity_morphism(c4))

    def test_link_with_the_wrong_codomain_is_refused(self, c6):
        # From the second base, C6, but into itself, not into the first.
        assert c6k2_bundle().base == c6 != m3_bundle().base
        with pytest.raises(BaseMismatch, match="^link must map the second base onto the first base$"):
            mixed_base_subdirect(m3_bundle(), c6k2_bundle(), identity_morphism(c6))

    def test_link_with_the_wrong_domain_is_refused(self, c3):
        # Into the first base, C3, but from it, not from the second.
        assert m3_bundle().base == c3 != c6k2_bundle().base
        with pytest.raises(BaseMismatch, match="^link must map the second base onto the first base$"):
            mixed_base_subdirect(m3_bundle(), c6k2_bundle(), identity_morphism(c3))


def all_pairs_typed_edges(left, left_to_target, right, right_to_target, target, label_fn):
    """Reference three-kind rule: test every pair of compatible vertices,
    in pair order.  Returns the pair labels and the typed edges, each as
    its end labels and its kind."""
    pairs = [
        (a, b)
        for a in left.vertices
        for b in right.vertices
        if left_to_target[a] == right_to_target[b]
    ]
    typed = []
    for i, (a, b) in enumerate(pairs):
        for a2, b2 in pairs[i + 1 :]:
            if a == a2 and right.has_edge(b, b2):
                kind = EDGE_KIND_FIBER
            elif left.has_edge(a, a2) and left_to_target[a] == left_to_target[a2] and b == b2:
                kind = EDGE_KIND_COLLAPSED
            elif (
                left.has_edge(a, a2)
                and target.has_edge(left_to_target[a], left_to_target[a2])
                and right.has_edge(b, b2)
            ):
                kind = EDGE_KIND_DIAGONAL
            else:
                continue
            typed.append(((label_fn(a, b), label_fn(a2, b2)), kind))
    return tuple(label_fn(a, b) for a, b in pairs), tuple(typed)


def labelled(graph, kinds):
    """The typed edges as end labels and kind: the kinds run parallel to
    graph.ends."""
    vs = graph.vertices
    return tuple(((vs[i], vs[j]), kind) for (i, j), kind in zip(graph.ends, kinds, strict=True))


class TestTypedEdgesAgainstAllPairs:
    """The adjacency walk gives the all-pairs rule's edges, in its order and
    with its kinds, parallel to the graph's ends."""

    FIBERS = [complete_graph(2), complete_graph(3), cycle_graph(4)]

    @staticmethod
    def random_bundle(rng, base, fiber):
        auts = automorphisms(fiber)
        return voltage_bundle(
            make_fiber_voltage(base, fiber, {e: rng.choice(auts) for e in base.edge_list()})
        )

    def test_subdirect_products(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(2, 7)
            base = rng.choice([cycle_graph(max(n, 3)), path_graph(n)])
            b1 = self.random_bundle(rng, base, rng.choice(self.FIBERS))
            b2 = self.random_bundle(rng, base, rng.choice(self.FIBERS))
            sp = subdirect_product(b1, b2)
            labels, typed = all_pairs_typed_edges(
                b1.total, b1.projection.map, b2.total, b2.projection.map, base, pair_label
            )
            assert sp.total.vertices == labels
            assert labelled(sp.total, sp.typed_edges) == typed

    def test_folding_pullbacks(self):
        rng = random.Random(12)
        collapsed = 0
        for _ in range(20):
            n = rng.randint(2, 6)
            base = path_graph(n)
            fold = make_morphism(
                path_graph(n + 1), base, {str(i): str(min(i, n)) for i in range(1, n + 2)}
            )
            b = self.random_bundle(rng, base, rng.choice(self.FIBERS))
            pb = pullback_bundle(fold, b)
            labels, typed = all_pairs_typed_edges(
                fold.domain, fold.map, b.total, b.projection.map, base, pullback_vertex
            )
            assert pb.total.vertices == labels
            assert labelled(pb.total, pb.typed_edges) == typed
            collapsed += typed_edge_counts(pb.typed_edges)[EDGE_KIND_COLLAPSED]
        assert collapsed > 0

    def test_mixed_base_products(self, p_c6_c3):
        rng = random.Random(13)
        cases = [(m3_bundle(), c6k2_bundle(), p_c6_c3)]
        for _ in range(15):
            n = rng.randint(3, 5)
            base, cover = cycle_graph(n), cycle_graph(2 * n)
            link = make_morphism(cover, base, {str(i): str((i - 1) % n + 1) for i in range(1, 2 * n + 1)})
            cases.append((
                self.random_bundle(rng, base, rng.choice(self.FIBERS)),
                self.random_bundle(rng, cover, rng.choice(self.FIBERS)),
                link,
            ))
        for b1, b2, link in cases:
            out = mixed_base_subdirect(b1, b2, link)
            labels, typed = all_pairs_typed_edges(
                b1.total, b1.projection.map, b2.total, compose(link, b2.projection).map,
                b1.base, pair_label,
            )
            assert out.graph.vertices == labels
            assert labelled(out.graph, out.typed_edges) == typed
