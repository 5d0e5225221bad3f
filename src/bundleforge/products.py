"""Cartesian and strong graph products, fiber voltages and their adjacency
formula, and k-fold coverings.

Product vertices are labeled "(u,v)" and ordered lexicographically from the
stored factor orders, which keeps the Kronecker adjacency identities exact
at the index level.  A k-fold covering is a bundle over the edgeless fiber
on k vertices: it is verified by bundles.verify_bundle, its permutation
voltage is that bundle's voltage, and its adjacency is the bundle formula.

The module imports neither numpy nor the matrix layer at load time: the
functions that build a Matrix or a Spectrum (the voltage indicators, the
bundle and covering adjacency formulas and the closed-form spectra) import
it when they run, so the products and voltages load without numpy.

A FiberVoltage stores one permutation per base.ends entry, by position;
its label view phi is derived when read.  make_fiber_voltage (and
FiberVoltage.from_json, through it) validates user data; the constructor
stores values that are automorphisms by construction (trivial_voltage and
the voltages derived in bundles, pullback and ktheory), and the products
check only their generated labels for clashes.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Hashable, Iterable, Iterator, Mapping, Optional

from .errors import BaseMismatch, ParseError, ShapeMismatch
from .graphs import (
    Graph,
    GraphMorphism,
    Label,
    _trusted_graph,
    canon_label,
    empty_graph,
    pair_label,
    split_edge_key,
)
from .perms import Perm

if TYPE_CHECKING:
    from .bundles import GraphBundle
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


# --- fiber voltages -------------------------------------------------------------

def is_fiber_automorphism(fiber: Graph, perm: Perm) -> bool:
    """True when perm, on fiber vertex indices, maps every edge to an edge:
    a bijection on a finite graph that does is an automorphism."""
    if perm.n != fiber.n:
        return False
    nbrs = fiber.neighbor_indices
    return all(perm[j] in nbrs[perm[i]] for i, j in fiber.ends)


class FiberVoltage:
    """Assignment of fiber automorphisms to the oriented edges of a base graph.

    What is stored is perms, one permutation of fiber vertex indices per
    base.ends entry: perms[k] is the voltage from the vertex at i to the one
    at j for base.ends[k] = (i, j), and the reverse orientation carries its
    inverse.  phi, the label view on both orientations, is derived on first
    read.  The constructor trusts its values to be fiber automorphisms:
    make_fiber_voltage and from_json are the entries for a voltage given by
    labels.
    """

    def __init__(self, base: Graph, fiber: Graph, perms: Iterable[Perm]) -> None:
        self.base, self.fiber, self.perms = base, fiber, tuple(perms)

    @cached_property
    def _oriented(self) -> dict[tuple[int, int], Perm]:
        """The voltage on both orientations of each base edge, keyed by
        positions, in base.ends order: (i, j) carries perms[k] for
        base.ends[k] = (i, j), and (j, i) its inverse, computed once per
        distinct value."""
        out: dict[tuple[int, int], Perm] = {}
        inverses: dict[Perm, Perm] = {}
        for (i, j), perm in zip(self.base.ends, self.perms):
            inverse = inverses.get(perm)
            if inverse is None:
                inverse = inverses[perm] = perm.inverse()
            out[i, j] = perm
            out[j, i] = inverse
        return out

    @cached_property
    def phi(self) -> dict[tuple[Label, Label], Perm]:
        """The label view: the voltage on both orientations of every base
        edge, keyed by vertex labels."""
        bvs = self.base.vertices
        return {(bvs[i], bvs[j]): perm for (i, j), perm in self._oriented.items()}

    def to_json(self) -> dict:
        bvs, fvs = self.base.vertices, self.fiber.vertices
        phi = {f"{bvs[i]},{bvs[j]}": [fvs[x] for x in perm] for (i, j), perm in zip(self.base.ends, self.perms)}
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
                at = [fiber.index[canon_label(label)] for label in images]
            except KeyError as exc:
                raise ParseError(f"unknown fiber vertex in voltage: {exc}") from exc
            if len(at) != fiber.n or len(set(at)) != fiber.n:
                raise ParseError(f"voltage on {key!r} must list each of the {fiber.n} fiber vertices once, got {images!r}")
            assignments[(v, w)] = Perm(at)
        return make_fiber_voltage(base, fiber, assignments)


def make_fiber_voltage(
    base: Graph, fiber: Graph, assignments: Mapping[tuple[Label, Label], Perm]
) -> FiberVoltage:
    """Build a voltage from one orientation per edge: each value lands on
    its base.ends entry, inverted, once per distinct value, when given
    against it.

    Validates once, raising ParseError: after the pass over the
    assignments (conflicting orientations), a missing edge, then an
    oriented edge off the base, then each distinct assigned value, in
    assignment order, against the fiber.  The inverse of an
    automorphism is one, so inverted values are not checked.
    """
    idx, ends = base.index, base.ends
    edge_at = {e: k for k, e in enumerate(ends)}
    perms: list[Optional[Perm]] = [None] * len(ends)
    # Oriented keys that are no base edge, kept for the conflict check.
    stray: dict[tuple[Label, Label], Perm] = {}
    inverses: dict[Perm, Perm] = {}
    first_edge: dict[Perm, tuple[Label, Label]] = {}
    for (v, w), perm in assignments.items():
        inverse = inverses.get(perm)
        if inverse is None:
            inverse = inverses[perm] = perm.inverse()
            first_edge[perm] = (v, w)
        i, j = idx.get(v), idx.get(w)
        k = None if i is None or j is None else edge_at.get((i, j) if i < j else (j, i))
        if k is None:
            if (w, v) in stray and stray[w, v] != inverse:
                raise ParseError(f"conflicting voltages on edge {{{v!r}, {w!r}}}")
            stray[v, w] = perm
            continue
        value = perm if i < j else inverse
        if perms[k] is not None and perms[k] != value:
            raise ParseError(f"conflicting voltages on edge {{{v!r}, {w!r}}}")
        perms[k] = value
    bvs = base.vertices
    for (a, b), perm in zip(ends, perms):
        if perm is None:
            raise ParseError(f"missing voltage for edge {{{bvs[a]!r}, {bvs[b]!r}}}")
    if stray:
        raise ParseError("voltage must cover exactly the oriented edges of the base")
    for perm, (v, w) in first_edge.items():
        if not is_fiber_automorphism(fiber, perm):
            raise ParseError(f"voltage on ({v!r}, {w!r}) is not a fiber automorphism")
    return FiberVoltage(base, fiber, perms)


def trivial_voltage(base: Graph, fiber: Graph) -> FiberVoltage:
    return FiberVoltage(base, fiber, [Perm.identity(fiber.n)] * len(base.ends))


def _indicator(n: int, rows: Iterable[int], cols: Iterable[int]) -> Matrix:
    """n×n 0/1 matrix with ones at the given (row, column) pairs."""
    import numpy as np

    from .matrices import Matrix

    out = np.zeros((n, n))
    out[list(rows), list(cols)] = 1.0
    return Matrix._trusted(out)


def voltage_indicators(
    values: Iterable[tuple[tuple[int, int], Hashable]], extra: Iterable[Hashable] = ()
) -> Iterator[tuple[Hashable, tuple[list[int], list[int]]]]:
    """(value, (rows, cols)) for each distinct value on the oriented base
    edges, given as ((i, j), value) by base positions, and each ``extra``
    value, whose lists may be empty: the positions of the edges carrying
    the value, so its 0/1 indicator by its ones.  The edges are grouped in
    one pass."""
    groups: dict[Hashable, tuple[list[int], list[int]]] = {value: ([], []) for value in extra}
    for (i, j), value in values:
        group = groups.get(value)
        if group is None:
            group = groups[value] = ([], [])
        group[0].append(i)
        group[1].append(j)
    yield from groups.items()


def voltage_indicator(fv: FiberVoltage, psi: Perm) -> Matrix:
    """Base-indexed 0/1 matrix marking oriented edges whose voltage is psi.
    Raises ShapeMismatch when psi does not act on the fiber's vertices."""
    if psi.n != fv.fiber.n:
        raise ShapeMismatch(
            f"a permutation of {psi.n} points is no voltage value on a {fv.fiber.n}-vertex fiber"
        )
    rows, cols = dict(voltage_indicators(fv._oriented.items(), (psi,)))[psi]
    return _indicator(fv.base.n, rows, cols)


def bundle_adjacency(fv: FiberVoltage) -> Matrix:
    """Adjacency matrix of the voltage total space, computed by the closed
    formula: voltage indicators tensored with fiber actions, plus the fiber
    adjacency on the diagonal blocks."""
    from .matrices import adjacency_matrix, voltage_adjacency

    terms = ((rows, cols, psi) for psi, (rows, cols) in voltage_indicators(fv._oriented.items()))
    return voltage_adjacency(fv.base.n, adjacency_matrix(fv.fiber), terms)


# --- coverings ---------------------------------------------------------------

def verify_kfold_covering(p: GraphMorphism, k: int) -> GraphBundle:
    """Verify p as a k-fold covering: a bundle over the edgeless fiber on k
    vertices, whose voltage is the covering's permutation voltage.  Returns
    the GraphBundle of bundles.verify_bundle and raises its errors."""
    from .bundles import verify_bundle

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
