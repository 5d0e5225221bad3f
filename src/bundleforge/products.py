"""Cartesian and strong graph products, k-fold coverings, and covering voltages.

Product vertices are labeled "(u,v)" and ordered lexicographically from the
stored factor orders, which keeps the Kronecker adjacency identities exact
at the index level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .errors import FiberSizeMismatch, NoLifting, NotAMorphism, ParseError
from .graphs import (
    Graph,
    GraphMorphism,
    Label,
    make_graph,
    make_morphism,
    pair_label,
    split_edge_key,
    split_pair_label,
    validate_morphism,
)
from .matrices import Matrix, Spectrum, perm_block, voltage_adjacency, zeros
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


def first_projection(product: Graph, g1: Graph) -> GraphMorphism:
    """Coordinate-drop morphism from a product-labeled graph onto its first factor."""
    return make_morphism(product, g1, {v: split_pair_label(v)[0] for v in product.vertices})


def second_projection(product: Graph, g2: Graph) -> GraphMorphism:
    return make_morphism(product, g2, {v: split_pair_label(v)[1] for v in product.vertices})


def cartesian_spectrum(s1: Spectrum, s2: Spectrum) -> Spectrum:
    """Closed-form product spectrum: every pairwise sum of eigenvalues."""
    return Spectrum(tuple(a + b for a in s1.eigenvalues for b in s2.eigenvalues))


def strong_spectrum(s1: Spectrum, s2: Spectrum) -> Spectrum:
    """Closed-form strong-product spectrum: every a + b + a*b."""
    return Spectrum(tuple(a + b + a * b for a in s1.eigenvalues for b in s2.eigenvalues))


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


@dataclass(frozen=True, eq=False)
class CoveringVoltage:
    """Permutation voltages on the oriented edges of a base graph.

    sigma maps each oriented edge (v, w) to a permutation of the fiber
    indices 0..k-1, with sigma[(w, v)] the inverse of sigma[(v, w)].
    """

    base: Graph
    k: int
    sigma: Mapping[tuple[Label, Label], Perm]

    def __post_init__(self) -> None:
        for (v, w), perm in self.sigma.items():
            if perm.n != self.k:
                raise ParseError(f"voltage on ({v!r}, {w!r}) acts on {perm.n} points, expected {self.k}")
            if self.sigma[(w, v)] != perm.inverse():
                raise ParseError(f"voltage on ({w!r}, {v!r}) is not the inverse of ({v!r}, {w!r})")
        oriented = {(v, w) for v, w in self.sigma}
        expected = set()
        for a, b in self.base.edge_list():
            expected.add((a, b))
            expected.add((b, a))
        if oriented != expected:
            raise ParseError("voltage must be defined on exactly the oriented edges of the base")

    def to_json(self) -> dict:
        out = {}
        for a, b in self.base.edge_list():
            out[f"{a},{b}"] = list(self.sigma[(a, b)].images)
        return {"k": self.k, "sigma": out}

    @staticmethod
    def from_json(base: Graph, data: Mapping) -> CoveringVoltage:
        try:
            k = int(data["k"])
            raw = data["sigma"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad covering voltage JSON: {exc}") from exc
        sigma: dict[tuple[Label, Label], Perm] = {}
        for key, images in raw.items():
            v, w = split_edge_key(key)
            perm = Perm(tuple(images))
            sigma[(v, w)] = perm
            sigma[(w, v)] = perm.inverse()
        return CoveringVoltage(base, k, sigma)


def make_covering_voltage(base: Graph, k: int, assignments: Mapping[tuple[Label, Label], Perm]) -> CoveringVoltage:
    """Build a voltage from one orientation per edge; inverses are derived."""
    sigma: dict[tuple[Label, Label], Perm] = {}
    for (v, w), perm in assignments.items():
        sigma[(v, w)] = perm
        sigma[(w, v)] = perm.inverse()
    for a, b in base.edge_list():
        if (a, b) not in sigma:
            raise ParseError(f"missing voltage for edge {{{a!r}, {b!r}}}")
    return CoveringVoltage(base, k, sigma)


def covering_voltage(cov: Covering, labeling: Optional[Mapping[Label, Mapping[Label, int]]] = None) -> CoveringVoltage:
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
    sigma: dict[tuple[Label, Label], Perm] = {}
    for a, b in base.edge_list():
        for v, w in ((a, b), (b, a)):
            images = [0] * cov.k
            for i in range(cov.k):
                x = inverse_labeling[v][i]
                y = cov.liftings[(v, x)][w]
                images[i] = labeling[w][y]
            sigma[(v, w)] = Perm(tuple(images))
    return CoveringVoltage(base, cov.k, sigma)


def covering_total_graph(base: Graph, cv: CoveringVoltage) -> Graph:
    """Total space determined by a covering voltage, on labels (v,i)."""
    k = cv.k
    vs = [pair_label(v, str(i + 1)) for v in base.vertices for i in range(k)]
    edges = []
    for a, b in base.edge_list():
        perm = cv.sigma[(a, b)]
        for i in range(k):
            edges.append((pair_label(a, str(i + 1)), pair_label(b, str(perm(i) + 1))))
    return make_graph(vs, edges)


def covering_adjacency(base: Graph, cv: CoveringVoltage) -> Matrix:
    """Adjacency of the covering total space in lexicographic (vertex, index) order.

    Realizes the block identity with an edgeless fiber: summed over the
    voltage values, the base indicator matrix of each permutation tensored
    with its fiber action.
    """
    n = base.n
    terms = []
    for perm in sorted(set(cv.sigma.values())):
        indicator = np.zeros((n, n))
        for (v, w), value in cv.sigma.items():
            if value == perm:
                indicator[base.index[v], base.index[w]] = 1.0
        terms.append((Matrix(indicator), perm_block(perm)))
    return voltage_adjacency(n, zeros(cv.k, cv.k), terms)
