"""Desk-scale network K-classes: enumerate equivalence classes of iterated
box-power fiber bundles over a base, the abelian monoid they form under the
subdirect product, bounded Grothendieck-group verdicts, and the induced
contravariant class maps.

Two voltages are equivalent when a gauge transform
φ'(v, w) = g_w ∘ φ(v, w) ∘ g_v⁻¹, with every g_v in Aut(F), takes one to
the other.  On a component of the base, a gauge conjugates every holonomy
(bundles._holonomies) by its value at the root, so the classes over a
component of cycle rank β are the orbits of Aut(F)^β under simultaneous
conjugation (Kwak and Lee 1990), and over a disconnected base the
products of these.

A class is keyed by the least holonomy tuple of its orbit, permutations
compared by image tuple: the least conjugate of the first holonomy, then
the least conjugate of the next under the automorphisms that achieve those
before it, which form a coset of their centralizer.  So keying walks down
the stabilizer chain of Aut(F^n), and enumeration walks all of it: at each
level the least element of each orbit of the stabilizer, then that
element's centralizer in it.  The keys come out in lexicographic order,
and class ids follow it.  A representative is its key on the edges off the
spanning forest and the identity on the tree, so the holonomies of a sum
of two are the Kronecker products of their keys, and an addition-table
entry keys β products.

Aut(F^n) is read only when a key needs it, so a base with no cycle lists
no automorphism.  Enumeration searches Aut(F) once.  When F is connected
with a prime number of vertices, it is prime under the box product, whose
factors multiply the vertex counts, and Aut(F^n) = Aut(F) ≀ S_n (Hammack,
Imrich and Klavžar, Handbook of Product Graphs, 2nd ed. 2011, ch. 6): each
power's group is generated from that one search, sorted as the search
sorts it, for powers of up to the square of the search's vertex bound.
Any other power is searched.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Mapping, Optional, Sequence

from . import graphs
from .bundles import FiberVoltage, _forest_cycles, _holonomies
from .errors import BaseMismatch, EnumerationBoundExceeded, FiberMismatch
from .graphs import (
    Graph,
    GraphMorphism,
    automorphisms,
    make_graph,
)
from .perms import Perm, kron as perm_kron
from .products import cartesian_product
from .pullback import pullback_voltage

#: Default fiber-power bound.
DEFAULT_N_MAX = 3

#: Default caps on the exhaustive enumeration.
DEFAULT_MAX_BASE_VERTICES = 6
DEFAULT_MAX_ASSIGNMENTS = 10**6


def fiber_power(f: Graph, n: int) -> Graph:
    """n-fold box power; the zeroth power is a single vertex with no edges."""
    if n < 0:
        raise ValueError("fiber power needs n >= 0")
    if n == 0:
        return make_graph(["1"], [])
    g = f
    for _ in range(n - 1):
        g = cartesian_product(g, f)
    return g


def _wreath(factor: Sequence[Perm], n: int) -> tuple[Perm, ...]:
    """Aut(F) ≀ S_n, given Aut(F), on the index order of fiber_power(F, n),
    sorted: coordinate k of a vertex, after σ, goes to a_k(i_k) at position
    σ(k).  That order reads the first coordinate as the most significant
    digit, so position j weighs m^(n-1-j)."""
    m = len(factor[0])
    out = []
    for sigma in itertools.permutations(range(n)):
        weights = [m ** (n - 1 - j) for j in sigma]
        scaled = [[[w * i for i in a] for a in factor] for w in weights]
        for digits in itertools.product(*scaled):
            out.append(tuple.__new__(Perm, map(sum, itertools.product(*digits))))
    return tuple(sorted(out))


def _box_prime(g: Graph) -> bool:
    """Connected with a prime number of vertices, so prime under the box
    product, whose factors multiply the vertex counts."""
    return g.n > 1 and all(g.n % d for d in range(2, math.isqrt(g.n) + 1)) and len(_forest_cycles(g)) == 1


@dataclass(eq=False)
class _Orbits:
    """A subgroup H of Aut(F^n) acting on Aut(F^n) by conjugation.

    where[y] is (r, c, c⁻¹): r is the least element of the orbit of y and
    c, in H, has c ∘ y ∘ c⁻¹ = r.  centralizer lists, for each least
    element r in ascending order, the elements of H that commute with r;
    below[r] holds the orbits of that centralizer once read."""

    where: dict[Perm, tuple[Perm, Perm, Perm]]
    centralizer: dict[Perm, tuple[Perm, ...]]
    below: dict[Perm, _Orbits] = field(default_factory=dict)


class _Chain:
    """The stabilizer chain of Aut(F^n) acting on itself by conjugation,
    read on demand.  The group itself is read on first use: searched, or,
    given wreath = (c, n) where the fiber is the n-th box power of c.fiber
    and its group is Aut(c.fiber) ≀ S_n, generated from c's group.  Each
    subgroup met is split into orbits once, by one conjugation per element
    of the subgroup and orbit; a split that would take the count of
    conjugations past limit raises instead, and so does generating a group
    whose first split would."""

    def __init__(
        self,
        fiber: Graph,
        conjugations: int = 0,
        limit: Optional[int] = None,
        wreath: Optional[tuple[_Chain, int]] = None,
    ):
        self.fiber, self.wreath = fiber, wreath
        self.conjugations, self.limit = conjugations, limit
        self._split: dict[tuple[Perm, ...], _Orbits] = {}

    @cached_property
    def auts(self) -> tuple[Perm, ...]:
        if self.fiber.n == 1:  # the zeroth power, with the identity alone
            return (Perm.identity(1),)
        if self.wreath is None:
            return tuple(automorphisms(self.fiber))
        factor, n = self.wreath
        # The first split conjugates by every element at least once.
        order = len(factor.auts) ** n * math.factorial(n)
        self._afford(order, order)
        return _wreath(factor.auts, n)

    def _afford(self, count: int, order: int) -> None:
        """Raise unless count more conjugations stay within limit."""
        if self.limit is not None and self.conjugations + count > self.limit:
            raise EnumerationBoundExceeded(
                f"the stabilizer chain of {order} fiber automorphisms needs over "
                f"{self.limit} conjugations, the cap"
            )

    def orbits(self, group: tuple[Perm, ...]) -> _Orbits:
        found = self._split.get(group)
        if found is not None:
            return found
        pairs = [(h, h.inverse()) for h in group]
        where: dict[Perm, tuple[Perm, Perm, Perm]] = {}
        centralizer: dict[Perm, tuple[Perm, ...]] = {}
        for y in self.auts:
            if y in where:
                continue
            self._afford(len(group), len(self.auts))
            self.conjugations += len(group)
            fixed = []
            for h, inv in pairs:
                # h ∘ y ∘ h⁻¹, read only as a key: a Perm is its image tuple.
                z = tuple(map(h.__getitem__, map(y.__getitem__, inv)))
                if z == y:
                    fixed.append(h)
                where.setdefault(z, (y, inv, h))
            centralizer[y] = tuple(fixed)
        found = self._split[group] = _Orbits(where, centralizer)
        return found

    @cached_property
    def top(self) -> _Orbits:
        return self.orbits(self.auts)

    def below(self, node: _Orbits, rep: Perm) -> _Orbits:
        child = node.below.get(rep)
        if child is None:
            child = node.below[rep] = self.orbits(node.centralizer[rep])
        return child

    def keys(self, fresh: Sequence[bool], node: Optional[_Orbits] = None) -> Iterator[tuple[Perm, ...]]:
        """Every class key, in lexicographic order, of holonomy tuples whose
        entry i starts a component when fresh[i]: each entry is the least
        element of an orbit of the stabilizer that the entries before it in
        its component leave."""
        if not fresh:
            yield ()
            return
        if fresh[0]:
            node = self.top
        for rep in node.centralizer:
            below = None if len(fresh) == 1 or fresh[1] else self.below(node, rep)
            for rest in self.keys(fresh[1:], below):
                yield (rep,) + rest

    def key(self, holonomies: Sequence[Perm], fresh: Sequence[bool]) -> tuple[Perm, ...]:
        """The class key of holonomy tuples, with fresh as in keys: per
        component, the least conjugate of the first holonomy, then the least
        conjugate of the next under the automorphisms that achieve those
        before it, a coset x of the stabilizer reached, kept with x⁻¹."""
        out: list[Perm] = []
        for h, new in zip(holonomies, fresh):
            if new:
                node, x, inv = self.top, self.auts[0], self.auts[0]
            else:
                node = self.below(node, out[-1])
            # x ∘ h ∘ x⁻¹, read only as a key.
            rep, c, c_inv = node.where[tuple(map(x.__getitem__, map(h.__getitem__, inv)))]
            out.append(rep)
            x, inv = c.compose(x), inv.compose(c_inv)
        return tuple(out)


def _cycle_edges(base: Graph) -> tuple[list[int], tuple[bool, ...]]:
    """The base.ends positions of the edges off the spanning forest, in
    holonomy order, and for each whether it is the first of its component."""
    forest, edge_at = _forest_cycles(base), {e: k for k, e in enumerate(base.ends)}
    return [edge_at[e] for _, es in forest for e in es], tuple(i == 0 for _, es in forest for i in range(len(es)))


@dataclass(frozen=True)
class BundleClass:
    """One equivalence class of fiber-power bundles over a base."""

    base: Graph
    n: int
    class_id: int
    representative: FiberVoltage
    key: tuple


@dataclass(frozen=True, eq=False)
class KClassMonoid:
    """Truncated abelian monoid of bundle classes under the subdirect product.

    add_table[(i, j)] is the class id of the sum, or None when the sum's
    fiber power exceeds the enumeration bound.
    """

    base: Graph
    fiber: Graph
    n_max: int
    classes: tuple[BundleClass, ...]
    add_table: Mapping[tuple[int, int], Optional[int]]
    _keys: Mapping[int, Mapping[tuple, int]] = field(default_factory=dict)
    _chains: Mapping[int, _Chain] = field(default_factory=dict)
    _fresh: tuple[bool, ...] = ()

    def classes_at(self, n: int) -> tuple[BundleClass, ...]:
        return tuple(c for c in self.classes if c.n == n)

    def _check_power(self, n: int) -> None:
        if n < 0:
            raise ValueError("fiber power needs n >= 0")
        if n > self.n_max:
            raise EnumerationBoundExceeded(f"fiber power {n} is over the monoid's bound {self.n_max}")

    def trivial_class(self, n: int) -> BundleClass:
        self._check_power(n)
        return self.classes_at(n)[0]

    def classify(self, fv: FiberVoltage, n: int) -> int:
        """Class id of a voltage with fiber equal to the n-th fiber power."""
        if fv.base != self.base:
            raise BaseMismatch("voltage is over a different base than the monoid")
        self._check_power(n)
        chain = self._chains[n]
        if fv.fiber != chain.fiber:
            raise FiberMismatch(f"voltage fiber is not fiber power {n} of the monoid's fiber")
        return self._keys[n][chain.key([h for _, hs in _holonomies(fv)[1] for h in hs], self._fresh)]

    def add(self, i: int, j: int) -> Optional[int]:
        try:
            return self.add_table[(i, j)]
        except KeyError:
            unknown = next(c for c in (i, j) if c not in range(len(self.classes)))
            raise ValueError(f"no class with id {unknown!r}; the ids run from 0 to {len(self.classes) - 1}") from None


def enumerate_bundle_classes(
    base: Graph,
    fiber: Graph,
    n_max: int = DEFAULT_N_MAX,
    *,
    max_assignments: int = DEFAULT_MAX_ASSIGNMENTS,
) -> KClassMonoid:
    """Enumerate the voltage classes for every fiber power up to n_max and
    fill the addition table.

    The classes at power n are the keys of a walk down the stabilizer chain
    of Aut(F^n), to the depth of the cycle rank of each base component;
    class ids follow the order of the keys.  max_assignments caps the
    conjugations of the walk, summed over the powers: each stabilizer met is
    split into orbits once, with one conjugation per element and orbit, and
    a group generated as Aut(F) ≀ S_n is refused before it is generated when
    its first split would pass the cap.  It also caps the addition table,
    one entry per ordered pair of classes, counted as the classes are found.
    A fiber power of more than graphs.DEFAULT_AUT_BOUND² vertices is refused
    before it is built."""
    if n_max < 0:
        raise ValueError("enumeration needs n_max >= 0")
    if base.n > DEFAULT_MAX_BASE_VERTICES:
        raise EnumerationBoundExceeded(
            f"base has {base.n} vertices, enumeration capped at {DEFAULT_MAX_BASE_VERTICES}"
        )
    cycles, fresh = _cycle_edges(base)
    chains: dict[int, _Chain] = {}
    keys_by_n: dict[int, dict[tuple, int]] = {}
    classes: list[BundleClass] = []

    conjugations = 0
    wreath = _box_prime(fiber)
    # Past the search's vertex bound only generated groups are read, up to
    # max_assignments elements; the square of that bound keeps each element,
    # and each power built over a tree, small.
    max_power_vertices = graphs.DEFAULT_AUT_BOUND ** 2
    for n in range(n_max + 1):
        if fiber.n ** n > max_power_vertices:
            raise EnumerationBoundExceeded(
                f"fiber power {n} has {fiber.n ** n} vertices, enumeration capped at {max_power_vertices}"
            )
        fn = fiber_power(fiber, n)
        chain = chains[n] = _Chain(fn, conjugations, max_assignments, (chains[1], n) if n > 1 and wreath else None)
        ident = Perm.identity(fn.n)
        keys_by_n[n] = {}
        for key in chain.keys(fresh):
            class_id = len(classes)
            if (class_id + 1) ** 2 > max_assignments:
                raise EnumerationBoundExceeded(
                    f"{class_id + 1} classes by fiber power {n} already need {(class_id + 1) ** 2} "
                    f"addition-table entries, over the cap {max_assignments}"
                )
            perms = [ident] * len(base.ends)
            for k, value in zip(cycles, key):
                perms[k] = value
            rep = FiberVoltage(base, fn, perms)
            classes.append(BundleClass(base, n, class_id, rep, key))
            keys_by_n[n][key] = class_id
        conjugations = chain.conjugations

    add_table: dict[tuple[int, int], Optional[int]] = {}
    for c1 in classes:
        for c2 in classes:
            n_sum = c1.n + c2.n
            if n_sum > n_max:
                add_table[(c1.class_id, c2.class_id)] = None
                continue
            # The sum's holonomies are the krons of the keys; F^a □ F^b lists
            # its vertices in the index order of F^(a+b).
            sums = [perm_kron(c1.representative.perms[k], c2.representative.perms[k]) for k in cycles]
            add_table[(c1.class_id, c2.class_id)] = keys_by_n[n_sum][chains[n_sum].key(sums, fresh)]

    return KClassMonoid(base, fiber, n_max, tuple(classes), add_table, keys_by_n, chains, fresh)


@dataclass(frozen=True)
class KGroupElement:
    """Formal difference of two enumerated classes."""

    positive: int
    negative: int


def _chain_add(m: KClassMonoid, ids: list[int]) -> Optional[int]:
    acc = ids[0]
    for nxt in ids[1:]:
        out = m.add(acc, nxt)
        if out is None:
            return None
        acc = out
    return acc


def grothendieck_equal(m: KClassMonoid, e1: KGroupElement, e2: KGroupElement) -> str:
    """Decide e1 = e2 in the group of differences, searching the enumerated
    classes for a balancing element.  Returns "true", "false", or "unknown"
    when only out-of-bound sums remain; an id that names no class raises
    ValueError, through KClassMonoid.add.
    """
    saw_out_of_bound = False
    for r in m.classes:
        lhs = _chain_add(m, [e1.positive, e2.negative, r.class_id])
        rhs = _chain_add(m, [e1.negative, e2.positive, r.class_id])
        if lhs is None or rhs is None:
            saw_out_of_bound = True
            continue
        if lhs == rhs:
            return "true"
    return "unknown" if saw_out_of_bound else "false"


def k0_map(
    f: GraphMorphism,
    m_codomain: KClassMonoid,
    m_domain: Optional[KClassMonoid] = None,
) -> dict[int, int]:
    """Contravariant class map induced by pulling representatives back along
    f; a given m_domain needs f's domain, the fiber and n_max of m_codomain."""
    if f.codomain != m_codomain.base:
        raise BaseMismatch("codomain of the morphism must equal the monoid base")
    if m_domain is None:
        m_domain = enumerate_bundle_classes(f.domain, m_codomain.fiber, m_codomain.n_max)
    elif m_domain.base != f.domain:
        raise BaseMismatch("domain monoid must be over the domain of the morphism")
    elif m_domain.fiber != m_codomain.fiber:
        raise FiberMismatch("domain and codomain monoids have different fibers")
    elif m_domain.n_max < m_codomain.n_max:
        raise EnumerationBoundExceeded(
            f"domain monoid stops at fiber power {m_domain.n_max}, below {m_codomain.n_max}"
        )
    mapping: dict[int, int] = {}
    for c in m_codomain.classes:
        pulled = pullback_voltage(f, c.representative)
        mapping[c.class_id] = m_domain.classify(pulled, c.n)
    return mapping
