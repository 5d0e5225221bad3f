"""Cartesian and strong graph products, their closed-form spectra, and
k-fold coverings.

Product vertices are labeled "(u,v)" and ordered lexicographically from the
stored factor orders, which keeps the Kronecker adjacency identities exact
at the index level; pair_label is injective on the label grammar, so no
label is checked.  A k-fold covering is a bundle over the edgeless fiber on
k vertices: it is verified by bundles.verify_bundle, its permutation
voltage is that bundle's voltage, and its adjacency is
bundles.bundle_adjacency.

The module imports neither numpy nor the matrix layer at load time: the
closed-form spectra import it when they run, so the products and
coverings load without numpy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from .bundles import FiberVoltage, GraphBundle, bundle_adjacency, make_fiber_voltage, verify_bundle
from .errors import BaseMismatch
from .graphs import Graph, GraphMorphism, Label, _trusted_graph, empty_graph, pair_label
from .perms import Perm

if TYPE_CHECKING:
    from .matrices import Matrix, Spectrum


def _pair_vertices(g1: Graph, g2: Graph) -> tuple[Label, ...]:
    return tuple(pair_label(u, v) for u in g1.vertices for v in g2.vertices)


def cartesian_product(g1: Graph, g2: Graph) -> Graph:
    """Box product: adjacent when one coordinate is adjacent and the other
    equal.  (u, x) sits at position u·|g2| + x."""
    return _trusted_graph(_pair_vertices(g1, g2), _box_ends(g1, g2))


def strong_product(g1: Graph, g2: Graph) -> Graph:
    """Cartesian edges plus diagonal edges where both coordinates are adjacent."""
    n2, e2 = g2.n, g2.ends
    ends = _box_ends(g1, g2)
    for a, b in g1.ends:
        at, bt = a * n2, b * n2
        ends += [(at + x, bt + y) for x, y in e2]
        ends += [(at + y, bt + x) for x, y in e2]
    return _trusted_graph(_pair_vertices(g1, g2), ends)


def _box_ends(g1: Graph, g2: Graph) -> list[tuple[int, int]]:
    """The index pairs of g1 □ g2: a copy of g2 in each block of |g2|
    positions, and a matching x -> x between the blocks of each g1 edge."""
    n2, e2 = g2.n, g2.ends
    ends = [(at + x, at + y) for at in [u * n2 for u in range(g1.n)] for x, y in e2]
    for u, w in g1.ends:
        ends += zip(range(u * n2, u * n2 + n2), range(w * n2, w * n2 + n2))
    return ends


def cartesian_spectrum(s1: Spectrum, s2: Spectrum) -> Spectrum:
    """Closed-form product spectrum: every pairwise sum of eigenvalues."""
    from .matrices import Spectrum

    return Spectrum(tuple(a + b for a in s1.eigenvalues for b in s2.eigenvalues))


def strong_spectrum(s1: Spectrum, s2: Spectrum) -> Spectrum:
    """Closed-form strong-product spectrum: every a + b + a*b."""
    from .matrices import Spectrum

    return Spectrum(tuple(a + b + a * b for a in s1.eigenvalues for b in s2.eigenvalues))


# --- coverings ---------------------------------------------------------------

def verify_kfold_covering(p: GraphMorphism, k: int) -> GraphBundle:
    """Verify p as a k-fold covering: a bundle over the edgeless fiber on k
    vertices, whose voltage is the covering's permutation voltage.  Returns
    the GraphBundle of bundles.verify_bundle and raises its errors."""
    return verify_bundle(p.domain, p, empty_graph(k))


def make_covering_voltage(base: Graph, k: int, assignments: Mapping[tuple[Label, Label], Perm]) -> FiberVoltage:
    """A k-fold covering voltage: a fiber voltage over the edgeless fiber on
    k vertices, from one orientation per edge."""
    return make_fiber_voltage(base, empty_graph(k), assignments)


def covering_adjacency(base: Graph, cv: FiberVoltage) -> Matrix:
    """Adjacency of the covering total space in lexicographic (vertex, index)
    order: the bundle formula, whose fiber term vanishes for an edgeless fiber."""
    if cv.base != base:
        raise BaseMismatch("covering voltage is over a different base graph")
    return bundle_adjacency(cv)
