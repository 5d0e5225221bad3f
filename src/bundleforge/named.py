"""Built-in named constructions used by the CLI and the test suite.

Each figure graph is entered by its explicit edge list so the library's own
constructions can be checked against an independent transcription.

CASES holds the CLI's named cases, keyed by verb and then by case name.
Each entry builds exactly the objects its verb would otherwise read from
files, so a case runs the verb's one path after input; spectrum and export
take the graphs of NAMED_GRAPHS.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable

from .bundles import FiberVoltage, GraphBundle, make_fiber_voltage, trivial_voltage, verify_bundle
from .graphs import (
    Graph,
    GraphMorphism,
    complete_graph,
    cycle_graph,
    empty_graph,
    make_graph,
    make_morphism,
    path_graph,
    split_pair_label,
    star_graph,
)
from .groups import (
    cyclic,
    direct_product,
    generator_system,
    hom,
    kernel,
)
from .perms import Perm


def mobius_ladder_3() -> Graph:
    """Six-cycle plus the three long chords; the smallest twisted ladder."""
    return make_graph(
        range(1, 7),
        [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (1, 4), (2, 5), (3, 6)],
    )


def hexagonal_prism() -> Graph:
    """Two hexagons 1..6 and 7..12 joined rung by rung."""
    edges = [(i, i % 6 + 1) for i in range(1, 7)]
    edges += [(i + 6, i % 6 + 7) for i in range(1, 7)]
    edges += [(i, i + 6) for i in range(1, 7)]
    return make_graph(range(1, 13), edges)


def twisted_hexagonal_ladder() -> Graph:
    """Double cover of the twisted ladder over the hexagon: the rungs stay,
    two opposite hexagon edges cross between the sheets."""
    return make_graph(
        range(1, 13),
        [(7, 8), (2, 9), (9, 10), (10, 11), (11, 6), (12, 7),
         (1, 2), (8, 3), (3, 4), (4, 5), (5, 12), (6, 1),
         (1, 7), (2, 8), (3, 9), (4, 10), (5, 11), (6, 12)],
    )


def subdirect_figure_12() -> Graph:
    """Total space of the prism-with-twisted-ladder subdirect product: three
    squares over a triangle, one twisted attachment."""
    squares = ["1", "2", "3"]
    corners = ["a", "b", "c", "d"]
    vs = [s + c for s in squares for c in corners]
    edges = []
    for s in squares:
        edges += [(s + "a", s + "b"), (s + "b", s + "c"), (s + "c", s + "d"), (s + "d", s + "a")]
    edges += [("1" + c, "2" + c) for c in corners]
    edges += [("3" + c, "2" + c) for c in corners]
    edges += [("1a", "3d"), ("1b", "3c"), ("1c", "3b"), ("1d", "3a")]
    return make_graph(vs, edges)


def mixed_base_figure_24() -> Graph:
    """Twenty-four vertex diagnostic product of the twisted ladder with the
    hexagonal prism: six squares in a ring."""
    edges = []
    for s in range(6):
        a, b, c, d = 4 * s + 1, 4 * s + 2, 4 * s + 3, 4 * s + 4
        edges += [(a, b), (b, c), (c, d), (d, a)]
    edges += [(1, 5), (2, 6), (3, 7), (4, 8)]
    edges += [(1, 21), (2, 22), (3, 23), (4, 24)]
    edges += [(13, 9), (14, 10), (15, 11), (16, 12)]
    edges += [(5, 10), (6, 9), (7, 12), (8, 11)]
    edges += [(21, 18), (22, 17), (23, 20), (24, 19)]
    edges += [(13, 17), (14, 18), (15, 19), (16, 20)]
    return make_graph(range(1, 25), edges)


NAMED_GRAPHS = {
    "k2": lambda: complete_graph(2),
    "k3": lambda: complete_graph(3),
    "k4": lambda: complete_graph(4),
    "c3": lambda: cycle_graph(3),
    "c4": lambda: cycle_graph(4),
    "c6": lambda: cycle_graph(6),
    "p2": lambda: path_graph(2),
    "p3": lambda: path_graph(3),
    "p4": lambda: path_graph(4),
    "s3": lambda: star_graph(3),
    "2k1": lambda: empty_graph(2),
    "3k1": lambda: empty_graph(3),
    "m3": mobius_ladder_3,
    "m62": twisted_hexagonal_ladder,
    "c6k2": hexagonal_prism,
    "fig12": subdirect_figure_12,
    "fig24": mixed_base_figure_24,
}


def mod3_projection(domain: Graph) -> GraphMorphism:
    """x maps to (x mod 3) + 1, the standard double-cover projection."""
    return make_morphism(
        domain, cycle_graph(3), {v: str(int(v) % 3 + 1) for v in domain.vertices}
    )


def halving_projection(domain: Graph) -> GraphMorphism:
    """x maps to x for x <= 6 and to x - 6 otherwise, onto the hexagon."""
    return make_morphism(
        domain,
        cycle_graph(6),
        {v: v if int(v) <= 6 else str(int(v) - 6) for v in domain.vertices},
    )


def twisted_ladder_voltage() -> FiberVoltage:
    """Edge voltage over the triangle: identity twice, one swap."""
    c3, k2 = cycle_graph(3), complete_graph(2)
    ident, swap = Perm((0, 1)), Perm((1, 0))
    return make_fiber_voltage(
        c3, k2, {("1", "2"): ident, ("2", "3"): ident, ("1", "3"): swap}
    )


def prism_voltage() -> FiberVoltage:
    return trivial_voltage(cycle_graph(3), complete_graph(2))


def m3_bundle() -> GraphBundle:
    return verify_bundle(*CASES["bundle-verify"]["m3"]())


def c6k2_bundle() -> GraphBundle:
    return verify_bundle(*CASES["bundle-verify"]["prism"]())


def _over(total: Graph, projection: Callable[[Graph], GraphMorphism], fiber: Graph) -> tuple:
    """The (total, projection, fiber) triple bundle-verify reads."""
    return total, projection(total), fiber


def invariance_case_z2z3_z6() -> dict:
    """Generator data for the subdirect product of the order-6 groups over
    the cyclic group of order 3."""
    z2, z3, z6 = cyclic(2), cyclic(3), cyclic(6)
    z2z3 = direct_product(z2, z3)
    phi1 = hom(z2z3, z3, {e: split_pair_label(e)[1] for e in z2z3.elements})
    phi2 = hom(z6, z3, {str(x): str(x % 3) for x in range(6)})
    s1 = generator_system(z3, ["1", "2"])
    s01 = generator_system(kernel(phi1), ["(1,0)"])
    s02 = generator_system(kernel(phi2), ["3"])
    return {"phi1": phi1, "phi2": phi2, "s1": s1, "s01": s01, "s02": s02}


CASES: dict[str, dict[str, Callable[[], object]]] = {
    "spectrum": NAMED_GRAPHS,
    "export": NAMED_GRAPHS,
    "bundle-build": {"m3": twisted_ladder_voltage, "prism": prism_voltage},
    "bundle-verify": {
        "m3": lambda: _over(mobius_ladder_3(), mod3_projection, complete_graph(2)),
        "m62": lambda: _over(twisted_hexagonal_ladder(), halving_projection, complete_graph(2)),
        "prism": lambda: _over(hexagonal_prism(), halving_projection, complete_graph(2)),
        "c6-c3-covering": lambda: _over(cycle_graph(6), mod3_projection, empty_graph(2)),
    },
    "pullback": {"c6-m3": lambda: (mod3_projection(cycle_graph(6)), twisted_ladder_voltage())},
    # The mixed-base diagnostic takes two bundles and the link of their bases.
    "subdirect": {
        "prism-m3": lambda: (prism_voltage(), twisted_ladder_voltage()),
        "mixed-m3-c6k2": lambda: (m3_bundle(), c6k2_bundle(), mod3_projection(cycle_graph(6))),
    },
    "cayley": {
        "z4-c4": lambda: (cyclic(4), ["1", "3"]),
        "z4-k4": lambda: (cyclic(4), ["1", "2", "3"]),
        "z6-m3": lambda: (cyclic(6), ["1", "3", "5"]),
    },
    "subdirect-group": {"z2z3-z6": lambda: itemgetter("phi1", "phi2")(invariance_case_z2z3_z6())},
    "ktheory": {
        "c3-k2": lambda: (cycle_graph(3), complete_graph(2)),
        "p3-k2": lambda: (path_graph(3), complete_graph(2)),
    },
    "invariance-check": {
        "z2z3-z6": lambda: itemgetter("phi1", "phi2", "s1", "s01", "s02")(invariance_case_z2z3_z6())
    },
}
