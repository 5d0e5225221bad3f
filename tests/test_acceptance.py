"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import itertools
import random
import time


from bundleforge import (
    Perm,
    adjacency_matrix,
    automorphisms,
    bundle_adjacency,
    bundles_equivalent,
    cartesian_product,
    cartesian_spectrum,
    cayley_bundle,
    cayley_graph,
    complete_graph,
    compose_pullbacks_check,
    cycle_graph,
    cyclic,
    direct_product,
    empty_graph,
    enumerate_bundle_classes,
    find_isomorphism,
    generator_system,
    hom,
    kernel,
    make_fiber_voltage,
    make_morphism,
    path_graph,
    pullback_adjacency,
    pullback_bundle,
    strong_product,
    strong_spectrum,
    subdirect_product,
    surjective_homs,
    transversal_section,
    trivial_voltage,
    validate_morphism,
    verify_invariance,
    voltage_bundle,
)
from bundleforge.errors import NoTransversalSection
from bundleforge.graphs import split_pair_label
from bundleforge.groups import admissible_generating_sets, symmetric_generating_sets
from bundleforge.matrices import graph_spectrum
from bundleforge.named import (
    c6k2_bundle,
    invariance_case_z2z3_z6,
    mobius_ladder_3,
    mod3_projection,
    twisted_ladder_voltage,
)

from conftest import identity_bundle, is_equivalence_witness, m62_bundle, with_fiber
from dense_reference import close_to_values, from_rows, morphism_matrix, pullback_block, spectra_close


def report(criterion: str, elapsed: float) -> None:
    print(f"ACCEPTANCE PASS {criterion} ({elapsed:.2f}s)")


def test_criterion_01_adjacency_formula_vs_construction():
    """Closed adjacency formula equals the direct construction entrywise."""
    start = time.perf_counter()
    bases = [cycle_graph(3), cycle_graph(4), cycle_graph(6), path_graph(3)]
    fibers = [complete_graph(2), empty_graph(2), complete_graph(3)]
    rng = random.Random(0)
    checked = 0
    for base in bases:
        edges = base.edge_list()
        for fiber in fibers:
            auts = automorphisms(fiber)
            total = len(auts) ** len(edges)
            if total <= 10_000:
                assignments = itertools.product(auts, repeat=len(edges))
            else:
                assignments = (
                    tuple(rng.choice(auts) for _ in edges) for _ in range(200)
                )
            for assignment in assignments:
                fv = make_fiber_voltage(base, fiber, dict(zip(edges, assignment)))
                assert bundle_adjacency(fv) == adjacency_matrix(voltage_bundle(fv).total)
                checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 1932  # 92 + 92 exhaustive small cases, 1748 with triangle fibers
    assert elapsed < 30.0
    report("criterion 1: formula vs construction on %d voltage bundles" % checked, elapsed)


PRINTED_IDENTITY_BLOCK = [
    [0, 1, 0, 0, 0, 1],
    [1, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0],
    [0, 0, 1, 0, 1, 0],
    [0, 0, 0, 1, 0, 0],
    [1, 0, 0, 0, 0, 0],
]

PRINTED_SWAP_BLOCK = [
    [0, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0],
    [0, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 1, 0],
]


def test_criterion_02_pullback_adjacency_theorem():
    """Hexagon pullback blocks match the printed matrices exactly."""
    start = time.perf_counter()
    fv = twisted_ladder_voltage()
    p = mod3_projection(cycle_graph(6))
    assert pullback_block(p, fv, Perm((0, 1))) == from_rows(PRINTED_IDENTITY_BLOCK)
    assert pullback_block(p, fv, Perm((1, 0))) == from_rows(PRINTED_SWAP_BLOCK)
    formula = pullback_adjacency(p, fv)
    constructed = adjacency_matrix(pullback_bundle(p, voltage_bundle(fv)).total)
    assert formula == constructed
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report("criterion 2: pullback adjacency matrices exact", elapsed)


def test_criterion_03_projection_matrix_exact():
    start = time.perf_counter()
    p = mod3_projection(cycle_graph(6))
    expected = from_rows([
        [0, 0, 1, 0, 0, 1],
        [1, 0, 0, 1, 0, 0],
        [0, 1, 0, 0, 1, 0],
    ])
    assert morphism_matrix(p) == expected
    report("criterion 3: projection indicator matrix exact", time.perf_counter() - start)


def test_criterion_04_equivalence_witness():
    start = time.perf_counter()
    b1, b2 = c6k2_bundle(), m62_bundle()
    witness = bundles_equivalent(b1, b2)
    assert witness is not None
    assert is_equivalence_witness(b1, b2, witness)
    cited = {str(i): str(i) for i in range(1, 13)}
    cited.update({"3": "9", "9": "3", "4": "10", "10": "4", "5": "11", "11": "5"})
    assert is_equivalence_witness(b1, b2, cited)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report("criterion 4: hexagon bundle equivalence witness", elapsed)


def test_criterion_05_monoid_laws():
    start = time.perf_counter()
    c3 = cycle_graph(3)
    family = [
        voltage_bundle(trivial_voltage(c3, complete_graph(2))),
        voltage_bundle(twisted_ladder_voltage()),
    ]
    neutral = identity_bundle(c3)
    for b1, b2 in itertools.product(family, repeat=2):
        sp12 = subdirect_product(b1, b2)
        sp21 = with_fiber(subdirect_product(b2, b1), sp12.fiber)
        assert bundles_equivalent(sp12, sp21) is not None
    for b1, b2, b3 in itertools.product(family, repeat=3):
        left = subdirect_product(subdirect_product(b1, b2), b3)
        right = with_fiber(
            subdirect_product(b1, subdirect_product(b2, b3)), left.fiber
        )
        assert bundles_equivalent(left, right) is not None
    for b in family:
        padded = with_fiber(subdirect_product(b, neutral), b.fiber)
        assert bundles_equivalent(padded, b) is not None
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report("criterion 5: commutativity, associativity, neutral element", elapsed)


def test_criterion_06_functoriality():
    start = time.perf_counter()
    c3, c6 = cycle_graph(3), cycle_graph(6)
    k2 = complete_graph(2)
    p2 = path_graph(2)
    f = make_morphism(p2, c6, {"1": "1", "2": "2"})
    g = mod3_projection(c6)
    named_bundles = [voltage_bundle(twisted_ladder_voltage()), voltage_bundle(trivial_voltage(c3, k2))]
    for b in named_bundles:
        assert compose_pullbacks_check(f, g, b)
    for b1, b2 in itertools.product(named_bundles, repeat=2):
        pulled = pullback_bundle(g, subdirect_product(b1, b2))
        split = subdirect_product(pullback_bundle(g, b1), pullback_bundle(g, b2))
        assert bundles_equivalent(pulled, with_fiber(split, pulled.fiber)) is not None

    rng = random.Random(2024)
    family = [p2, path_graph(3), c3, c6]
    ident, swap = Perm((0, 1)), Perm((1, 0))
    compose_cases = subdirect_cases = 0
    while compose_cases < 50:
        g1, g2 = rng.choice(family), rng.choice(family)
        f_map = {v: rng.choice(g2.vertices) for v in g1.vertices}
        fr = make_morphism(g1, g2, f_map)
        if not validate_morphism(fr)[0]:
            continue
        g_map = {v: rng.choice(c3.vertices) for v in g2.vertices}
        gr = make_morphism(g2, c3, g_map)
        if not validate_morphism(gr)[0]:
            continue
        fv = make_fiber_voltage(c3, k2, {e: rng.choice([ident, swap]) for e in c3.edge_list()})
        assert compose_pullbacks_check(fr, gr, voltage_bundle(fv))
        compose_cases += 1
    while subdirect_cases < 50:
        g1 = rng.choice(family)
        f_map = {v: rng.choice(c3.vertices) for v in g1.vertices}
        fr = make_morphism(g1, c3, f_map)
        if not validate_morphism(fr)[0]:
            continue
        fv1 = make_fiber_voltage(c3, k2, {e: rng.choice([ident, swap]) for e in c3.edge_list()})
        fv2 = make_fiber_voltage(c3, k2, {e: rng.choice([ident, swap]) for e in c3.edge_list()})
        b1, b2 = voltage_bundle(fv1), voltage_bundle(fv2)
        pulled = pullback_bundle(fr, subdirect_product(b1, b2))
        split = subdirect_product(pullback_bundle(fr, b1), pullback_bundle(fr, b2))
        assert bundles_equivalent(pulled, with_fiber(split, pulled.fiber)) is not None
        subdirect_cases += 1
    elapsed = time.perf_counter() - start
    report("criterion 6: pullback functoriality, 100 randomized cases", elapsed)


def test_criterion_07_product_spectra():
    start = time.perf_counter()
    family = [complete_graph(2), complete_graph(3), cycle_graph(4), cycle_graph(6), path_graph(3)]
    for g1, g2 in itertools.combinations_with_replacement(family, 2):
        s1, s2 = graph_spectrum(g1), graph_spectrum(g2)
        assert spectra_close(cartesian_spectrum(s1, s2), graph_spectrum(cartesian_product(g1, g2)), tol=1e-8)
        assert spectra_close(strong_spectrum(s1, s2), graph_spectrum(strong_product(g1, g2)), tol=1e-8)
    k2, k3 = complete_graph(2), complete_graph(3)
    assert close_to_values(graph_spectrum(cartesian_product(k2, k3)), [3, 1, 0, 0, -2, -2], tol=1e-8)
    assert close_to_values(graph_spectrum(strong_product(k2, k3)), [5, -1, -1, -1, -1, -1], tol=1e-8)
    report("criterion 7: closed product spectra vs eigensolver", time.perf_counter() - start)


def test_criterion_08_bundle_class_counts():
    start = time.perf_counter()
    k2 = complete_graph(2)
    for base in (path_graph(2), path_graph(3), path_graph(4)):
        monoid = enumerate_bundle_classes(base, k2, 3)
        assert all(len(monoid.classes_at(n)) == 1 for n in range(4))
    triangle = enumerate_bundle_classes(cycle_graph(3), k2, 1)
    assert len(triangle.classes_at(1)) == 2
    report("criterion 8: tree bases collapse, triangle splits", time.perf_counter() - start)


def _group_family():
    return {
        "z2": cyclic(2),
        "z3": cyclic(3),
        "z4": cyclic(4),
        "z6": cyclic(6),
        "z2xz2": direct_product(cyclic(2), cyclic(2)),
        "z2xz3": direct_product(cyclic(2), cyclic(3)),
    }


def test_criterion_09_cayley_theorems():
    start = time.perf_counter()
    # Named constructions: the prism bundle and the twisted ladder bundle.
    z3 = cyclic(3)
    z2z3 = direct_product(cyclic(2), cyclic(3))
    phi1 = hom(z2z3, z3, {e: split_pair_label(e)[1] for e in z2z3.elements})
    phi2 = hom(cyclic(6), z3, {str(x): str(x % 3) for x in range(6)})
    s1 = generator_system(z3, ["1", "2"])
    b1 = cayley_bundle(phi1, s1, generator_system(kernel(phi1), ["(1,0)"]))
    assert find_isomorphism(b1.total, cartesian_product(complete_graph(2), cycle_graph(3))) is not None
    b2 = cayley_bundle(phi2, s1, generator_system(kernel(phi2), ["3"]))
    assert find_isomorphism(b2.total, mobius_ladder_3()) is not None

    data = invariance_case_z2z3_z6()
    from bundleforge import subdirect_group

    assert subdirect_group(data["phi1"], data["phi2"]).E.order == 12
    assert verify_invariance(data["phi1"], data["phi2"], data["s1"], data["s01"], data["s02"])

    # Exhaustive sweep: every surjection in the family, every admissible
    # kernel system, every symmetric generating system of the image.
    family = _group_family()
    bundle_cases = skipped = 0
    homs_by_target = {}
    for a in family.values():
        for b in family.values():
            for phi in surjective_homs(a, b):
                homs_by_target.setdefault(id(b), (b, []))[1].append(phi)
                ker = kernel(phi)
                for s0 in admissible_generating_sets(ker, a):
                    for s1x in symmetric_generating_sets(b):
                        try:
                            section = transversal_section(phi, s1x)
                        except NoTransversalSection:
                            skipped += 1
                            continue
                        cayley_bundle(phi, s1x, s0, section)
                        bundle_cases += 1
    assert bundle_cases > 50

    invariance_cases = 0
    for _, (b, homs) in homs_by_target.items():
        s1_options = symmetric_generating_sets(b)
        if not s1_options:
            continue
        s1x = s1_options[0]
        usable = []
        for phi in homs:
            try:
                section = transversal_section(phi, s1x)
            except NoTransversalSection:
                continue
            ker = kernel(phi)
            s0_options = admissible_generating_sets(ker, phi.domain)
            usable.append((phi, s0_options[0], section))
        for (h1, s01, sec1), (h2, s02, sec2) in itertools.product(usable, repeat=2):
            assert verify_invariance(h1, h2, s1x, s01, s02, sec1, sec2)
            invariance_cases += 1
    assert invariance_cases > 20
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(
        "criterion 9: %d bundle cases (%d skipped, no section), %d invariance pairs"
        % (bundle_cases, skipped, invariance_cases),
        elapsed,
    )


def test_criterion_10_cayley_figures():
    start = time.perf_counter()
    z4 = cyclic(4)
    sparse = cayley_graph(z4, generator_system(z4, ["1", "3"]))
    full = cayley_graph(z4, generator_system(z4, ["1", "2", "3"]))
    assert find_isomorphism(sparse, cycle_graph(4)) is not None
    assert find_isomorphism(full, complete_graph(4)) is not None
    report("criterion 10: cyclic-group Cayley figures", time.perf_counter() - start)
