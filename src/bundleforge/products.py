"""Cartesian and strong graph products, fiber voltages and their adjacency
formula, k-fold coverings, and covering voltages.

Product vertices are labeled "(u,v)" and ordered lexicographically from the
stored factor orders, which keeps the Kronecker adjacency identities exact
at the index level.  A k-fold covering voltage is a fiber voltage over the
edgeless fiber on k vertices, so coverings share the bundle formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .errors import BaseMismatch, FiberSizeMismatch, NoLifting, NotAMorphism, ParseError
from .graphs import (
    Graph,
    GraphMorphism,
    Label,
    canon_label,
    empty_graph,
    make_graph,
    make_morphism,
    pair_label,
    split_edge_key,
    split_pair_label,
    validate_morphism,
)
from .matrices import Matrix, Spectrum, adjacency_matrix, perm_block, voltage_adjacency
from .perms import Perm


def _product_vertices(g1: Graph, g2: Graph) -> list[Label]:
    return [pair_label(u, v) for u in g1.vertices for v in g2.vertices]


def cartesian_product(g1: Graph, g2: Graph) -> Graph:
    """Box product: adjacent when one coordinate is adjacent and the other equal."""
    vs = _product_vertices(g1, g2)
    edges = []
    for a1, b1 in g1.edge_list():
        for v in g2.vertices:
            edges.append((pair_label(a1, v), pair_label(b1, v)))
    for u in g1.vertices:
        for a2, b2 in g2.edge_list():
            edges.append((pair_label(u, a2), pair_label(u, b2)))
    return make_graph(vs, edges)


def strong_product(g1: Graph, g2: Graph) -> Graph:
    """Cartesian edges plus diagonal edges where both coordinates are adjacent."""
    base = cartesian_product(g1, g2)
    edges = list(base.edge_list())
    for a1, b1 in g1.edge_list():
        for a2, b2 in g2.edge_list():
            edges.append((pair_label(a1, a2), pair_label(b1, b2)))
            edges.append((pair_label(a1, b2), pair_label(b1, a2)))
    return make_graph(base.vertices, edges)


def second_projection(product: Graph, g2: Graph) -> GraphMorphism:
    return make_morphism(product, g2, {v: split_pair_label(v)[1] for v in product.vertices})


def cartesian_spectrum(s1: Spectrum, s2: Spectrum) -> Spectrum:
    """Closed-form product spectrum: every pairwise sum of eigenvalues."""
    return Spectrum(tuple(a + b for a in s1.eigenvalues for b in s2.eigenvalues))


def strong_spectrum(s1: Spectrum, s2: Spectrum) -> Spectrum:
    """Closed-form strong-product spectrum: every a + b + a*b."""
    return Spectrum(tuple(a + b + a * b for a in s1.eigenvalues for b in s2.eigenvalues))


# --- fiber voltages -------------------------------------------------------------

def is_fiber_automorphism(fiber: Graph, perm: Perm) -> bool:
    if perm.n != fiber.n:
        return False
    idx = fiber.index
    return all(
        fiber.has_edge(fiber.vertices[perm(idx[a])], fiber.vertices[perm(idx[b])])
        for a, b in fiber.edge_list()
    )


@dataclass(frozen=True, eq=False)
class FiberVoltage:
    """Assignment of fiber automorphisms to the oriented edges of a base graph.

    phi holds both orientations; the reverse orientation always carries the
    inverse permutation.  Permutations act on fiber vertex indices.
    """

    base: Graph
    fiber: Graph
    phi: Mapping[tuple[Label, Label], Perm]

    def __post_init__(self) -> None:
        oriented = set()
        for a, b in self.base.edge_list():
            oriented.add((a, b))
            oriented.add((b, a))
        if set(self.phi) != oriented:
            raise ParseError("voltage must cover exactly the oriented edges of the base")
        checked: set[Perm] = set()
        for (v, w), perm in self.phi.items():
            if perm not in checked:
                if not is_fiber_automorphism(self.fiber, perm):
                    raise ParseError(f"voltage on ({v!r}, {w!r}) is not a fiber automorphism")
                checked.add(perm)
            if self.phi[(w, v)] != perm.inverse():
                raise ParseError(f"voltage on ({w!r}, {v!r}) must invert ({v!r}, {w!r})")

    def apply(self, v: Label, w: Label, f: Label) -> Label:
        """Image of fiber vertex f under the voltage of oriented edge (v, w)."""
        perm = self.phi[(v, w)]
        return self.fiber.vertices[perm(self.fiber.index[f])]

    def serialized(self) -> tuple[tuple[int, ...], ...]:
        """Image tuples over canonically oriented edges, in base edge order."""
        return tuple(self.phi[(a, b)].images for a, b in self.base.edge_list())

    def to_json(self) -> dict:
        phi = {}
        for a, b in self.base.edge_list():
            perm = self.phi[(a, b)]
            phi[f"{a},{b}"] = [self.fiber.vertices[perm(i)] for i in range(self.fiber.n)]
        return {"base": self.base.to_json(), "fiber": self.fiber.to_json(), "phi": phi}

    @staticmethod
    def from_json(data: Mapping) -> FiberVoltage:
        try:
            base = Graph.from_json(data["base"])
            fiber = Graph.from_json(data["fiber"])
            raw = data["phi"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad fiber voltage JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ParseError(f"fiber voltage 'phi' must be an object, got {raw!r}")
        assignments = {}
        for key, images in raw.items():
            v, w = split_edge_key(key)
            if not isinstance(images, list):
                raise ParseError(f"voltage on {key!r} must be a list of fiber vertices, got {images!r}")
            try:
                perm = Perm(tuple(fiber.index[canon_label(label)] for label in images))
            except KeyError as exc:
                raise ParseError(f"unknown fiber vertex in voltage: {exc}") from exc
            assignments[(v, w)] = perm
        return make_fiber_voltage(base, fiber, assignments)


def make_fiber_voltage(
    base: Graph, fiber: Graph, assignments: Mapping[tuple[Label, Label], Perm]
) -> FiberVoltage:
    """Build a voltage from one orientation per edge; inverses are derived."""
    phi: dict[tuple[Label, Label], Perm] = {}
    for (v, w), perm in assignments.items():
        if (w, v) in phi and phi[(w, v)] != perm.inverse():
            raise ParseError(f"conflicting voltages on edge {{{v!r}, {w!r}}}")
        phi[(v, w)] = perm
        phi[(w, v)] = perm.inverse()
    for a, b in base.edge_list():
        if (a, b) not in phi:
            raise ParseError(f"missing voltage for edge {{{a!r}, {b!r}}}")
    return FiberVoltage(base, fiber, phi)


def trivial_voltage(base: Graph, fiber: Graph) -> FiberVoltage:
    ident = Perm.identity(fiber.n)
    return make_fiber_voltage(base, fiber, {(a, b): ident for a, b in base.edge_list()})


def voltage_indicator(fv: FiberVoltage, psi: Perm) -> Matrix:
    """Base-indexed 0/1 matrix marking oriented edges whose voltage is psi."""
    n = fv.base.n
    out = np.zeros((n, n))
    for (v, w), perm in fv.phi.items():
        if perm == psi:
            out[fv.base.index[v], fv.base.index[w]] = 1.0
    return Matrix(out)


def bundle_adjacency(fv: FiberVoltage) -> Matrix:
    """Adjacency matrix of the voltage total space, computed by the closed
    formula: voltage indicators tensored with fiber actions, plus the fiber
    adjacency on the diagonal blocks."""
    terms = [(voltage_indicator(fv, psi), perm_block(psi)) for psi in sorted(set(fv.phi.values()))]
    return voltage_adjacency(fv.base.n, adjacency_matrix(fv.fiber), terms)


# --- coverings ---------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Covering:
    """A verified k-fold covering with all lifting maps materialized.

    liftings[(v, x)] maps every vertex of the base star N(v) to the
    corresponding vertex of the star N(x) in the total space.
    """

    total: Graph
    projection: GraphMorphism
    base: Graph
    k: int
    liftings: Mapping[tuple[Label, Label], Mapping[Label, Label]]

    def fiber_vertices(self, v: Label) -> tuple[Label, ...]:
        return self.projection.preimages.get(v, ())


def verify_kfold_covering(p: GraphMorphism, k: int) -> Covering:
    """Check the k-fold covering conditions and materialize every lifting.

    Raises FiberSizeMismatch(v) when a fiber does not have k vertices and
    NoLifting(v, x) when the projection is not invertible on some star.
    """
    ok, bad = validate_morphism(p)
    if not ok:
        raise NotAMorphism(f"projection is not a morphism; violating edges: {bad}")
    total, base = p.domain, p.codomain
    fibers = p.preimages
    for v in base.vertices:
        if len(fibers[v]) != k:
            raise FiberSizeMismatch(f"fiber over {v!r} has {len(fibers[v])} vertices, expected {k}")
    liftings: dict[tuple[Label, Label], dict[Label, Label]] = {}
    for v in base.vertices:
        base_nbrs = base.neighbors(v)
        for x in fibers[v]:
            lift: dict[Label, Label] = {v: x}
            images: dict[Label, Label] = {}
            for y in total.neighbors(x):
                w = p(y)
                if w not in base_nbrs or w in images:
                    raise NoLifting(f"no lifting at base {v!r}, total {x!r}: star not invertible")
                images[w] = y
            if set(images) != set(base_nbrs):
                raise NoLifting(f"no lifting at base {v!r}, total {x!r}: star not invertible")
            lift.update(images)
            liftings[(v, x)] = lift
    return Covering(total, p, base, k, liftings)




def make_covering_voltage(base: Graph, k: int, assignments: Mapping[tuple[Label, Label], Perm]) -> FiberVoltage:
    """A k-fold covering voltage: a fiber voltage over the edgeless fiber on
    k vertices, from one orientation per edge."""
    return make_fiber_voltage(base, empty_graph(k), assignments)


def covering_voltage(cov: Covering, labeling: Optional[Mapping[Label, Mapping[Label, int]]] = None) -> FiberVoltage:
    """Read permutation voltages off the liftings of a verified covering.

    labeling[v] maps each total vertex over v to a fiber index 0..k-1; the
    default labels each fiber by its sorted vertex order.
    """
    base = cov.base
    if labeling is None:
        labeling = {
            v: {x: i for i, x in enumerate(cov.fiber_vertices(v))}
            for v in base.vertices
        }
    inverse_labeling = {
        v: {i: x for x, i in labeling[v].items()} for v in base.vertices
    }
    phi: dict[tuple[Label, Label], Perm] = {}
    for a, b in base.edge_list():
        for v, w in ((a, b), (b, a)):
            images = [0] * cov.k
            for i in range(cov.k):
                x = inverse_labeling[v][i]
                y = cov.liftings[(v, x)][w]
                images[i] = labeling[w][y]
            phi[(v, w)] = Perm(tuple(images))
    return FiberVoltage(base, empty_graph(cov.k), phi)


def covering_adjacency(base: Graph, cv: FiberVoltage) -> Matrix:
    """Adjacency of the covering total space in lexicographic (vertex, index)
    order: the bundle formula, whose fiber term vanishes for an edgeless fiber."""
    if cv.base != base:
        raise BaseMismatch("covering voltage is over a different base graph")
    return bundle_adjacency(cv)
