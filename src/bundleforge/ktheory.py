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
of two are the Kronecker products of their keys, and a sum keys β
products, once, when it is first asked for.

Aut(F^n) is read only when a key needs it, so a base with no cycle lists
no automorphism.  Enumeration searches Aut(F) once.  For a power n ≥ 2 of
a connected F, it factors F into primes under the box product once (by
Feder's relation), and F^n has n·a_T factors of each type T that F has a_T
of, so Aut(F^n) is the product of the Aut(P_T) ≀ S_(n·a_T) (Hammack,
Imrich and Klavžar, Handbook of Product Graphs, 2nd ed. 2011, ch. 6).  It
is generated from one search per type, the search of F itself when F is
prime, and sorted as the search sorts it.  Its order and its number of
conjugacy classes are known before it is built, and so is the cost of its
first split, which the conjugation cap is checked against first.  A
disconnected fiber's powers are searched; a searched group's first split
is priced as it is listed, at f·t for f automorphisms found of t cycle types.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from . import graphs
from .bundles import FiberVoltage, _forest_cycles, _holonomies
from .errors import BaseMismatch, EnumerationBoundExceeded, FiberMismatch
from .graphs import Graph, GraphMorphism, _trusted_graph, make_graph
from .perms import Perm, kron as perm_kron
from .products import cartesian_product
from .pullback import pullback_voltage

#: Default fiber-power bound.
DEFAULT_N_MAX = 3

#: Default cap on the conjugations of the enumeration's stabilizer-chain walk.
DEFAULT_MAX_ASSIGNMENTS = 10**6

#: The base-size cap the enumeration had; it no longer caps the base, and
#: the name stays only while benchmarks/tracing.py reads it.
DEFAULT_MAX_BASE_VERTICES = 6


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


def _wreath(groups: Sequence[Sequence[Perm]], slots: Sequence[int]) -> list[Perm]:
    """The product over types t of groups[t] ≀ S_(slots of type t), on the
    box product of one factor per slot, slots[s] the type of slot s, in
    index order: slot s is a digit whose weight is the product of the sizes
    of the slots after it.  Coordinate s of a vertex, after a permutation σ
    of the slots that keeps types, goes to a_s(i_s) at slot σ(s)."""
    sizes = [len(groups[t][0]) for t in slots]
    weights = [math.prod(sizes[s + 1:]) for s in range(len(slots))]
    by_type = [[s for s, t in enumerate(slots) if t == u] for u in range(len(groups))]
    out = []
    for images in itertools.product(*map(itertools.permutations, by_type)):
        sigma = dict(zip(itertools.chain(*by_type), itertools.chain(*images)))
        scaled = [[[weights[sigma[s]] * i for i in a] for a in groups[t]] for s, t in enumerate(slots)]
        for digits in itertools.product(*scaled):
            out.append(tuple.__new__(Perm, map(sum, itertools.product(*digits))))
    return out


def _wreath_classes(k: int, m: int) -> int:
    """The conjugacy classes of H ≀ S_m, for H with k of them: the
    coefficient of x^m in the product over l of (1 − x^l)^(−k)."""
    c = [1] + [0] * m
    for part in range(1, m + 1):
        for _ in range(k):
            for i in range(part, m + 1):
                c[i] += c[i - part]
    return c[m]


def _distances(g: Graph) -> list[list[int]]:
    """Breadth-first distances between the positions of a connected graph."""
    nbrs, out = g.neighbor_indices, []
    for root in range(g.n):
        d = [-1] * g.n
        d[root], order = 0, [root]
        for v in order:  # order grows as the walk reaches new positions
            for w in nbrs[v]:
                if d[w] < 0:
                    d[w] = d[v] + 1
                    order.append(w)
        out.append(d)
    return out


def _box_factors(g: Graph) -> Optional[tuple[list[Graph], list[tuple[int, ...]]]]:
    """The prime factors of a connected graph under the box product, and
    the coordinates of each position in them; None when g is disconnected.

    Two edges xy and uv are related by θ when d(x, u) + d(y, v) differs
    from d(x, v) + d(y, u), and by τ when they meet and lie on no chordless
    square.  The classes of the transitive closure of θ ∪ τ are the edge
    sets of the prime factors (Feder, J. Graph Theory 1992).  Factor i is
    the layer of its edges through position 0, on that layer's positions in
    increasing order; the coordinate of x in it is the one layer position
    that x reaches without its edges.  A graph with a prime number of
    vertices is its own factor, since the box product multiplies vertex
    counts.  The coordinate map is checked to be an isomorphism onto the
    product of the factors."""
    n, nbrs, ends = g.n, g.neighbor_indices, g.ends
    if len(_forest_cycles(g)) != 1:
        return None
    if n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1)):
        return [g], [(x,) for x in range(n)]
    dist = _distances(g)
    edge_at, adj = {pair: k for k, pair in enumerate(ends)}, [set(nb) | {x} for x, nb in enumerate(nbrs)]
    theta = (
        (e, f)
        for e, (x, y) in enumerate(ends)
        for f, (u, v) in enumerate(ends[:e])
        if dist[x][u] + dist[y][v] != dist[x][v] + dist[y][u]
    )
    # xy and xz lie on a chordless square xywz unless every common
    # neighbour of y and z is x or a neighbour of x, or y and z meet.
    tau = (
        (edge_at[min(x, y), max(x, y)], edge_at[min(x, z), max(x, z)])
        for x in range(n)
        for y, z in itertools.combinations(nbrs[x], 2)
        if z in adj[y] or adj[y] & adj[z] <= adj[x]
    )
    classes: dict[int, list[tuple[int, int]]] = {}
    for pair, r in zip(ends, _roots(len(ends), itertools.chain(theta, tau))):
        classes.setdefault(r, []).append(pair)
    factors, columns = [], []
    for edges in classes.values():
        inside, own = _roots(n, edges), set(edges)
        outside = _roots(n, [p for p in ends if p not in own])
        layer = [x for x in range(n) if inside[x] == inside[0]]
        at = {x: k for k, x in enumerate(layer)}
        meets = {outside[x]: at[x] for x in layer}
        if len(meets) != len(layer) or any(c not in meets for c in outside):
            raise AssertionError("internal error: a layer does not meet each co-layer once")
        factors.append(_trusted_graph(tuple(map(str, range(len(layer)))), [(at[a], at[b]) for a, b in edges if a in at]))
        columns.append([meets[c] for c in outside])
    coords = list(zip(*columns)) if columns else [()]  # one vertex: the empty product
    # An injective map onto the product's vertices that sends edges to
    # edges is an isomorphism when the edge counts agree.
    if (
        math.prod(f.n for f in factors) != n
        or len(set(coords)) != n
        or len(ends) != sum(len(f.ends) * n // f.n for f in factors)
        or not all(_box_edge(factors, coords[a], coords[b]) for a, b in ends)
    ):
        raise AssertionError("internal error: the coordinate map is no isomorphism onto the product of the factors")
    return factors, coords


def _roots(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """The root of each of n elements once every pair is joined."""
    root = list(range(n))

    def find(e: int) -> int:
        while root[e] != e:
            root[e] = e = root[root[e]]
        return e

    for a, b in pairs:
        root[find(a)] = find(b)
    return [find(e) for e in range(n)]


def _box_edge(factors: Sequence[Graph], a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Whether coordinates a and b differ in one factor, by an edge of it."""
    diff = [i for i, (p, q) in enumerate(zip(a, b)) if p != q]
    return len(diff) == 1 and b[diff[0]] in factors[diff[0]].neighbor_indices[a[diff[0]]]


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
    given power = (c, n) with n ≥ 2, where the fiber is the n-th box power
    of a connected c.fiber, generated from c's prime factors.  Each
    subgroup met is split into orbits once, by one conjugation per element
    of the subgroup and orbit; a split that would take the count of
    conjugations past limit raises instead, and so does reading a group
    whose first split would, as auts and _search price it."""

    def __init__(
        self,
        fiber: Graph,
        conjugations: int = 0,
        limit: Optional[int] = None,
        power: Optional[tuple[_Chain, int]] = None,
    ):
        self.fiber, self.power = fiber, power
        self.conjugations, self.limit = conjugations, limit
        self._split: dict[tuple[Perm, ...], _Orbits] = {}

    @cached_property
    def auts(self) -> tuple[Perm, ...]:
        if self.fiber.n == 1:  # the zeroth power, with the identity alone
            return (Perm.identity(1),)
        factored = self.power[0].factors if self.power else None
        if factored is None:
            return self._search()
        types, slots, relabel = factored
        n = self.power[1]
        # F^n has n·a_T factors of type T, and Aut(F^n) is the product of
        # the Aut(P_T) ≀ S_(n·a_T).  Its first split conjugates by every
        # element once per conjugacy class.
        counts = [n * a for _, a in types]
        order = math.prod(len(t.auts) ** m * math.factorial(m) for (t, _), m in zip(types, counts))
        classes = math.prod(_wreath_classes(len(t.top.centralizer), m) for (t, _), m in zip(types, counts))
        self._afford(order * classes, order)
        out = _wreath([t.auts for t, _ in types], slots * n)
        if relabel is not None:
            # From the product's index order to fiber_power's: digit j of a
            # position is the product index of copy j of F.
            lam = relabel
            for _ in range(n - 1):
                lam = perm_kron(lam, relabel)
            back = lam.inverse()
            out = [tuple.__new__(Perm, map(lam.__getitem__, map(q.__getitem__, back))) for q in out]
        return tuple(sorted(out))

    @cached_property
    def factors(self) -> Optional[tuple[list[tuple[_Chain, int]], list[int], Optional[Perm]]]:
        """The prime factors of a connected fiber under the box product, by
        isomorphism type: the chain of each type with the number of factors
        of that type, the type of each factor in order, and the position in
        the fiber of each position of the product of the factors, in its
        index order (None when that is the identity).  This chain is the
        chain of a prime fiber's one type.  None for a disconnected fiber."""
        found = _box_factors(self.fiber)
        if found is None:
            return None
        factors, coords = found
        if len(factors) == 1:
            return [(self, 1)], [0], None
        reps: list[Graph] = []
        slots, maps = [], []
        for f in factors:
            for t, rep in enumerate(reps):
                iso = graphs.find_isomorphism(f, rep)
                if iso is not None:
                    maps.append([rep.index[iso[v]] for v in f.vertices])
                    break
            else:
                t = len(reps)
                reps.append(f)
                maps.append(list(range(f.n)))
            slots.append(t)
        relabel = [0] * self.fiber.n
        for x, c in enumerate(coords):
            at = 0
            for f, m, i in zip(factors, maps, c):
                at = at * f.n + m[i]
            relabel[at] = x
        types = [(_Chain(rep), slots.count(t)) for t, rep in enumerate(reps)]
        return types, slots, None if relabel == list(range(self.fiber.n)) else tuple.__new__(Perm, relabel)

    def _search(self) -> tuple[Perm, ...]:
        """Aut of the fiber, sorted, searched in rounds of doubling size,
        each with the node budget in scope.  f automorphisms with t cycle
        types, which conjugates share, price the first split at f·t or more,
        afforded after each round once f² no longer fits; so the first round
        asks for the least f whose square does not, or with no limit for all."""
        g, budget = self.fiber, graphs.current_budget.get()
        size = None if self.limit is None else math.isqrt(self.limit - self.conjugations) + 1
        while True:
            found, _ = graphs.search_shape(g.neighbor_indices, g.profile, budget, size)
            f, whole = len(found), size is None or len(found) < size
            if self.limit is not None and self.conjugations + f * f > self.limit:
                types = len({tuple(Perm.cycle_type(p)) for p in found})
                self._afford(f * types, f if whole else f"at least {f}")
            if whole:
                return tuple(tuple.__new__(Perm, p) for p in sorted(found))
            size *= 2

    def _afford(self, count: int, order: int | str) -> None:
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

    add(i, j) is the class id of the sum, or None when the sum's fiber power
    exceeds n_max; each sum is computed when first asked for and kept.
    """

    base: Graph
    fiber: Graph
    n_max: int
    classes: tuple[BundleClass, ...]
    _keys: Mapping[int, Mapping[tuple, int]] = field(default_factory=dict)
    _chains: Mapping[int, _Chain] = field(default_factory=dict)
    _fresh: tuple[bool, ...] = ()
    _sums: dict[tuple[int, int], Optional[int]] = field(default_factory=dict)

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
        found = self._sums.get((i, j), -1)  # -1: not computed yet, neither an id nor None
        if found == -1:
            for c in (i, j):
                if c not in range(len(self.classes)):
                    raise ValueError(f"no class with id {c!r}; the ids run from 0 to {len(self.classes) - 1}")
            c1, c2 = self.classes[i], self.classes[j]
            n, found = c1.n + c2.n, None
            if n <= self.n_max:
                # The sum's holonomies are the krons of the keys, F^a □ F^b in
                # the index order of F^(a+b), keyed in stabilizers the walk
                # has split.
                found = self._keys[n][self._chains[n].key(list(map(perm_kron, c1.key, c2.key)), self._fresh)]
            self._sums[i, j] = found
        return found


def enumerate_bundle_classes(
    base: Graph,
    fiber: Graph,
    n_max: int = DEFAULT_N_MAX,
    *,
    max_assignments: int = DEFAULT_MAX_ASSIGNMENTS,
) -> KClassMonoid:
    """Enumerate the voltage classes for every fiber power up to n_max; the
    monoid computes each sum when it is first asked for.

    The classes at power n are the keys of a walk down the stabilizer chain
    of Aut(F^n), to the depth of the cycle rank of each base component;
    class ids follow the order of the keys.  max_assignments caps the
    conjugations of the walk, summed over the powers: each stabilizer met is
    split into orbits once, with one conjugation per element and orbit.  A
    group whose first split would pass the cap is refused: one generated
    from F's prime factors at |G| · k(G) conjugations before it is built,
    and a searched one at f · t for the f automorphisms, of t cycle types,
    listed so far.  The splits that count the classes of a composite F's
    prime factors are not counted; none costs more than the first split of
    Aut(F), which is.  Sums are keyed in stabilizers the walk has split, so
    max_assignments counts conjugations and nothing else.  The base has no
    cap of its own.  A fiber power over 100 vertices is never built."""
    if n_max < 0:
        raise ValueError("enumeration needs n_max >= 0")
    cycles, fresh = _cycle_edges(base)
    chains: dict[int, _Chain] = {}
    keys_by_n: dict[int, dict[tuple, int]] = {}
    classes: list[BundleClass] = []

    conjugations = 0
    for n in range(n_max + 1):
        # Over a tree no group is read, so nothing else stops |F|^n growing.
        if fiber.n ** n > 100:
            raise EnumerationBoundExceeded(f"fiber power {n} has {fiber.n ** n} vertices, enumeration capped at 100")
        fn = fiber_power(fiber, n)
        chain = chains[n] = _Chain(fn, conjugations, max_assignments, (chains[1], n) if n > 1 else None)
        ident = Perm.identity(fn.n)
        keys_by_n[n] = {}
        for key in chain.keys(fresh):
            class_id = len(classes)
            perms = [ident] * len(base.ends)
            for k, value in zip(cycles, key):
                perms[k] = value
            rep = FiberVoltage(base, fn, perms)
            classes.append(BundleClass(base, n, class_id, rep, key))
            keys_by_n[n][key] = class_id
        conjugations = chain.conjugations

    return KClassMonoid(base, fiber, n_max, tuple(classes), keys_by_n, chains, fresh)


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
