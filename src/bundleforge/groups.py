"""Finite groups as Cayley tables: homomorphisms, kernels, subdirect
products, generator systems with transversal sections, Cayley graphs, and
the bundle structure they induce on a surjective homomorphism.

A table from outside (make_group, FiniteGroup.from_json) is checked
exactly, at every order, associativity by Light's test.  Groups derived from
validated groups are groups by construction and are built directly, and
subdirect_group checks the paper's identities through explicit maps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, TypeVar

from .bundles import GraphBundle, verify_bundle
from .errors import (
    InvalidGeneratorSystem,
    NoTransversalSection,
    NotAGroup,
    NotAHomomorphism,
    NotSurjective,
    ParseError,
)
from .graphs import Graph, Label, _trusted_graph, canon_label, make_morphism, pair_label
from .pullback import subdirect_product

_T = TypeVar("_T")


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """Finite group given by an ordered element list and a Cayley table,
    with its identity and inverses."""

    elements: tuple[Label, ...]
    table: Mapping[tuple[Label, Label], Label]
    identity: Label
    inverses: Mapping[Label, Label]

    @cached_property
    def index(self) -> dict[Label, int]:
        return {e: i for i, e in enumerate(self.elements)}

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, x: Label, y: Label) -> Label:
        return self.table[(x, y)]

    def inv(self, x: Label) -> Label:
        return self.inverses[x]

    def element_order(self, x: Label) -> int:
        acc, k = x, 1
        while acc != self.identity:
            acc = self.mul(acc, x)
            k += 1
        return k

    def generated_subgroup(self, gens: Iterable[Label]) -> tuple[Label, ...]:
        """Closure of a generating set, in ambient element order."""
        seen = _closure([self.identity], list(gens), self.mul)
        return tuple(e for e in self.elements if e in seen)

    def to_json(self) -> dict:
        return {
            "elements": list(self.elements),
            "table": [[self.table[(x, y)] for y in self.elements] for x in self.elements],
        }

    @staticmethod
    def from_json(data: Mapping) -> FiniteGroup:
        try:
            elements = data["elements"]
            rows = data["table"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad group JSON: {exc}") from exc
        if not isinstance(elements, list) or not isinstance(rows, list):
            raise ParseError("group JSON 'elements' and 'table' must be lists")
        if not all(isinstance(row, list) for row in rows):
            raise ParseError("every group JSON table row must be a list")
        elements = [canon_label(e) for e in elements]
        n = len(elements)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ParseError(f"group table must have {n} rows of {n} entries")
        table = {}
        for i, x in enumerate(elements):
            for j, y in enumerate(elements):
                table[(x, y)] = canon_label(rows[i][j])
        return make_group(elements, table)

    def __repr__(self) -> str:
        return f"FiniteGroup(order {self.order})"


def _closure(start: Iterable[_T], gens: Sequence[_T], mul: Callable[[_T, _T], _T]) -> set[_T]:
    """Everything reached from start by right multiplication with gens."""
    reached = set(start)
    frontier = list(reached)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = mul(x, g)
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    return reached


def _greedy_generators(elements: Iterable[_T], identity: _T, mul: Callable[[_T, _T], _T]) -> list[_T]:
    """Generators picked in element order: each element not yet reached
    from the identity by right multiplication with the earlier picks."""
    gens: list[_T] = []
    reached = {identity}
    for x in elements:
        if x not in reached:
            gens.append(x)
            reached = _closure(reached, gens, mul)
    return gens


def make_group(elements: Sequence[object], table: Mapping[tuple[object, object], object]) -> FiniteGroup:
    """Validate a Cayley table and wrap it as a group.

    Every axiom is checked exactly, at every order.  Associativity uses
    Light's test: for generators S picked greedily in element order, it
    checks (xs)y = x(sy) for every s in S and all x, y.  That suffices,
    because the elements a with (xa)y = x(ay) for all x, y are closed under
    the product and contain the identity.  The cost is n²·|S| products,
    and |S| <= 1 + log2 n for a group.

    Raises NotAGroup naming the violated axiom and a witness; the
    associativity witness is (x, s, y) with s one of the generators.
    """
    elems = tuple(str(e) for e in elements)
    index = {e: i for i, e in enumerate(elems)}
    if len(index) != len(elems):
        raise NotAGroup("duplicate element labels")
    t: dict[tuple[Label, Label], Label] = {}
    rows: list[list[int]] = []
    for x in elems:
        row = []
        for y in elems:
            try:
                z = str(table[(x, y)])
            except KeyError:
                raise NotAGroup(f"table missing product ({x!r}, {y!r})") from None
            k = index.get(z)
            if k is None:
                raise NotAGroup(f"closure fails: ({x!r}, {y!r}) -> {z!r}")
            t[(x, y)] = z
            row.append(k)
        rows.append(row)
    ids = list(range(len(elems)))
    e = next(
        (i for i in ids if rows[i] == ids and all(row[i] == j for j, row in enumerate(rows))),
        None,
    )
    if e is None:
        raise NotAGroup("no identity element")
    inverses: dict[Label, Label] = {}
    for i, x in enumerate(elems):
        j = next((j for j in ids if rows[i][j] == e and rows[j][i] == e), None)
        if j is None:
            raise NotAGroup(f"no inverse for {x!r}")
        inverses[x] = elems[j]
    for s in _greedy_generators(ids, e, lambda i, j: rows[i][j]):
        row_s = rows[s]
        for x, row_x in enumerate(rows):
            row_xs = rows[row_x[s]]
            if row_xs != [row_x[k] for k in row_s]:
                y = next(y for y in ids if row_xs[y] != row_x[row_s[y]])
                raise NotAGroup(
                    f"associativity fails at ({elems[x]!r}, {elems[s]!r}, {elems[y]!r})"
                )
    return FiniteGroup(elems, t, elems[e], inverses)


def cyclic(n: int) -> FiniteGroup:
    """Additive cyclic group on labels 0..n-1."""
    if n < 1:
        raise NotAGroup("no identity element")
    elems = tuple(str(i) for i in range(n))
    table = {(elems[i], elems[j]): elems[(i + j) % n] for i in range(n) for j in range(n)}
    return FiniteGroup(elems, table, elems[0], {x: elems[-i % n] for i, x in enumerate(elems)})


def _same_group(g: FiniteGroup, h: FiniteGroup) -> bool:
    """Same elements in the same order, and the same table."""
    return g is h or (g.elements == h.elements and g.table == h.table)


def _pair_group(a: FiniteGroup, b: FiniteGroup, pairs: Sequence[tuple[Label, Label]]) -> FiniteGroup:
    """Componentwise group on pairs of a and b, in the given order.  The
    pairs must form a subgroup of a × b; only their labels are checked,
    since pair_label can give two pairs one label."""
    labels = tuple(pair_label(x, y) for x, y in pairs)
    if len(set(labels)) != len(labels):
        raise NotAGroup("duplicate element labels")
    label_of = dict(zip(pairs, labels))
    ta, tb = a.table, b.table
    table = {
        (p, q): label_of[ta[x1, x2], tb[y1, y2]]
        for (x1, y1), p in zip(pairs, labels)
        for (x2, y2), q in zip(pairs, labels)
    }
    inverses = {p: label_of[a.inv(x), b.inv(y)] for (x, y), p in zip(pairs, labels)}
    return FiniteGroup(labels, table, label_of[a.identity, b.identity], inverses)


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    return _pair_group(a, b, list(itertools.product(a.elements, b.elements)))


def subgroup(g: FiniteGroup, members: Iterable[Label]) -> FiniteGroup:
    """Subgroup on the given members with the induced table, ambient order
    kept.  A nonempty finite subset closed under the product is a subgroup,
    so closure is all that is checked."""
    want = set(members)
    elems = tuple(e for e in g.elements if e in want)
    if not elems:
        raise NotAGroup("empty subset is not a subgroup")
    table = {}
    for x in elems:
        for y in elems:
            z = table[x, y] = g.mul(x, y)
            if z not in want:
                raise NotAGroup(f"subset not closed: ({x!r}, {y!r})")
    return FiniteGroup(elems, table, g.identity, {x: g.inv(x) for x in elems})


# --- homomorphisms ------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GroupHom:
    domain: FiniteGroup
    codomain: FiniteGroup
    mapping: Mapping[Label, Label]

    def __call__(self, x: Label) -> Label:
        return self.mapping[x]

    def to_json(self) -> dict:
        return {"map": dict(self.mapping)}


def hom(domain: FiniteGroup, codomain: FiniteGroup, mapping: Mapping[object, object]) -> GroupHom:
    """Validate a total map as a homomorphism; raises NotAHomomorphism with
    the first violating pair."""
    m = {str(k): str(v) for k, v in mapping.items()}
    for x in domain.elements:
        if x not in m:
            raise NotAHomomorphism(f"map undefined on {x!r}")
        if m[x] not in codomain.index:
            raise NotAHomomorphism(f"image {m[x]!r} not in codomain")
    for x in domain.elements:
        for y in domain.elements:
            if m[domain.mul(x, y)] != codomain.mul(m[x], m[y]):
                raise NotAHomomorphism(f"map breaks multiplication at ({x!r}, {y!r})")
    return GroupHom(domain, codomain, m)


def kernel(h: GroupHom) -> FiniteGroup:
    members = [x for x in h.domain.elements if h(x) == h.codomain.identity]
    return subgroup(h.domain, members)


def is_surjective(h: GroupHom) -> bool:
    return set(h.mapping.values()) == set(h.codomain.elements)


def _homs_by_closure(
    a: FiniteGroup,
    b: FiniteGroup,
    candidates: Callable[[Label], list[Label]],
    accept: Callable[[dict[Label, Label]], bool],
) -> Iterator[dict[Label, Label]]:
    """Yield every homomorphism a -> b, as an element map, that sends each
    greedily chosen generator g of a into candidates(g) and passes accept.

    Each choice of generator images is closed under right multiplication by
    the generators; a choice is dropped as soon as two words disagree.  A
    consistent closure is a homomorphism: the y with phi(xy) = phi(x)phi(y)
    for every x contain the identity and are closed under right
    multiplication by the generators, so they are all of a.
    """
    gens = _greedy_generators(a.elements, a.identity, a.mul)
    for images in itertools.product(*(candidates(g) for g in gens)):
        phi: dict[Label, Label] = {a.identity: b.identity}
        frontier = [a.identity]
        consistent = True
        while frontier and consistent:
            x = frontier.pop()
            for g, img in zip(gens, images):
                y = a.mul(x, g)
                fy = b.mul(phi[x], img)
                if y in phi:
                    if phi[y] != fy:
                        consistent = False
                        break
                else:
                    phi[y] = fy
                    frontier.append(y)
        if consistent and accept(phi):
            yield phi


def surjective_homs(a: FiniteGroup, b: FiniteGroup) -> list[GroupHom]:
    """All surjective homomorphisms, by closing candidate generator images."""
    if a.order % b.order != 0:
        return []
    homs = _homs_by_closure(
        a,
        b,
        lambda g: [y for y in b.elements if a.element_order(g) % b.element_order(y) == 0],
        lambda phi: set(phi.values()) == set(b.elements),
    )
    return [GroupHom(a, b, phi) for phi in homs]


def admissible_generating_sets(ker: FiniteGroup, ambient: FiniteGroup) -> list[GeneratorSystem]:
    """Symmetric generating sets of the kernel that are closed under
    conjugation by every ambient element."""
    return [s for s in symmetric_generating_sets(ker) if is_admissible(s, ambient)]


def is_normal(g: FiniteGroup, members: Iterable[Label]) -> bool:
    want = set(members)
    return all(
        g.mul(g.mul(a, x), g.inv(a)) in want for a in g.elements for x in want
    )


# --- subdirect product of groups ------------------------------------------------

@dataclass(frozen=True, eq=False)
class SubdirectGroup:
    """Subgroup of a direct product consisting of pairs with equal images in
    the amalgamated factor group."""

    E: FiniteGroup
    delta_A: GroupHom
    delta_B: GroupHom
    amalgam: FiniteGroup
    eps_A: GroupHom
    eps_B: GroupHom


def subdirect_group(eps_a: GroupHom, eps_b: GroupHom) -> SubdirectGroup:
    """Build the subdirect product of two epimorphisms onto one group C (one
    table; else NotSurjective) and check its identities by the maps of their
    proof.  E is the pairs (x, y) with eps_a(x) = eps_b(y), in the order of
    A × B, multiplied componentwise: |E|² products, a group by construction.
    y -> (e_A, y) maps ker eps_B onto ker delta_A (the pairs with first
    coordinate e_A), x -> (x, e_B) maps ker eps_A onto ker delta_B, and
    (x, y) -> eps_A(x) maps E onto C with kernel ker eps_A × ker eps_B, so
    |E| = |kernel|·|C| gives E/(ker delta_A·ker delta_B) ≅ C.
    """
    a, b, c = eps_a.domain, eps_b.domain, eps_a.codomain
    if not _same_group(c, eps_b.codomain):
        raise NotSurjective("epimorphisms must share a codomain")
    if not is_surjective(eps_a) or not is_surjective(eps_b):
        raise NotSurjective("both structure maps must be surjective")
    pairs = [(x, y) for x in a.elements for y in b.elements if eps_a(x) == eps_b(y)]
    e = _pair_group(a, b, pairs)
    delta_a = GroupHom(e, a, {m: x for (x, _), m in zip(pairs, e.elements)})
    delta_b = GroupHom(e, b, {m: y for (_, y), m in zip(pairs, e.elements)})
    assert is_surjective(delta_a) and is_surjective(delta_b)
    ker_a = [x for x in a.elements if eps_a(x) == c.identity]
    ker_b = [y for y in b.elements if eps_b(y) == c.identity]
    assert [y for x, y in pairs if x == a.identity] == ker_b
    assert [x for x, y in pairs if y == b.identity] == ker_a
    inner = [(x, y) for x, y in pairs if eps_a(x) == c.identity]
    assert inner == list(itertools.product(ker_a, ker_b))
    assert e.order == len(inner) * c.order
    return SubdirectGroup(e, delta_a, delta_b, c, eps_a, eps_b)


# --- generator systems ------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GeneratorSystem:
    """Symmetric generating set without the identity."""

    group: FiniteGroup
    members: tuple[Label, ...]

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)


def _element_set(g: FiniteGroup, members: Iterable[object]) -> set[Label]:
    """The members as labels; raises InvalidGeneratorSystem naming non-elements."""
    raw = dict.fromkeys(str(x) for x in members)
    unknown = [x for x in raw if x not in g.index]
    if unknown:
        raise InvalidGeneratorSystem(f"labels are not group elements: {unknown}")
    return set(raw)


def _require_over(s: GeneratorSystem, g: FiniteGroup) -> None:
    if not _same_group(s.group, g):
        raise InvalidGeneratorSystem("generator system belongs to a different group")


def symmetric_closure(g: FiniteGroup, members: Iterable[object]) -> tuple[tuple[Label, ...], tuple[Label, ...]]:
    """Close a set under inverses; returns (closed set, elements added)."""
    raw = _element_set(g, members)
    closed = set(raw)
    for x in raw:
        closed.add(g.inv(x))
    ordered = tuple(e for e in g.elements if e in closed)
    added = tuple(e for e in g.elements if e in closed - raw)
    return ordered, added


def generator_system(g: FiniteGroup, members: Iterable[object]) -> GeneratorSystem:
    """Validate a symmetric generating set; the identity and labels that
    are not elements are rejected."""
    want = _element_set(g, members)
    s = tuple(e for e in g.elements if e in want)
    if g.identity in s:
        raise InvalidGeneratorSystem("generating set contains the identity")
    sset = set(s)
    for x in s:
        if g.inv(x) not in sset:
            raise InvalidGeneratorSystem(f"set is not symmetric: missing inverse of {x!r}")
    if set(g.generated_subgroup(s)) != set(g.elements):
        raise InvalidGeneratorSystem("set does not generate the group")
    return GeneratorSystem(g, s)


def symmetric_generating_sets(g: FiniteGroup) -> list[GeneratorSystem]:
    """All symmetric generating sets, enumerated over inverse-pair blocks."""
    blocks: list[tuple[Label, ...]] = []
    seen: set[Label] = set()
    for x in g.elements:
        if x == g.identity or x in seen:
            continue
        inv = g.inv(x)
        block = (x,) if inv == x else (x, inv)
        seen.update(block)
        blocks.append(block)
    out = []
    for r in range(len(blocks) + 1):
        for combo in itertools.combinations(blocks, r):
            members = tuple(itertools.chain.from_iterable(combo))
            if set(g.generated_subgroup(members)) == set(g.elements):
                out.append(generator_system(g, members))
    return out


def cayley_graph(g: FiniteGroup, s: GeneratorSystem) -> Graph:
    """Undirected Cayley graph: x adjacent to xs for every generator s.
    Raises InvalidGeneratorSystem when the set holds the identity, which
    would give a loop."""
    _require_over(s, g)
    if g.identity in s.members:
        raise InvalidGeneratorSystem("generating set contains the identity")
    idx, table = g.index, g.table
    steps = ((i, idx[table[(x, gen)]]) for i, x in enumerate(g.elements) for gen in s.members)
    ends = {(i, j) if i < j else (j, i) for i, j in steps}
    return _trusted_graph(g.elements, list(ends))


def is_admissible(s0: GeneratorSystem, ambient: FiniteGroup) -> bool:
    """True when the set is closed under conjugation by every ambient element."""
    return is_normal(ambient, s0.members)


def transversal_section(phi: GroupHom, s1: GeneratorSystem) -> dict[Label, Label]:
    """Symmetric one-lift-per-generator section of a surjection.

    Lifts are deterministic: inverse pairs get the first preimage in domain
    order and its inverse; a self-inverse generator needs a self-inverse
    preimage, and when its preimage coset carries none the section does not
    exist and NoTransversalSection is raised.  A generator system over
    another group than phi's codomain raises InvalidGeneratorSystem.
    """
    if not is_surjective(phi):
        raise NotSurjective("transversal section needs a surjective homomorphism")
    _require_over(s1, phi.codomain)
    a = phi.domain
    section: dict[Label, Label] = {}
    for s in s1.members:
        if s in section:
            continue
        s_inv = s1.group.inv(s)
        if s_inv == s:
            lift = next(
                (t for t in a.elements if phi(t) == s and a.inv(t) == t), None
            )
            if lift is None:
                raise NoTransversalSection(
                    f"no self-inverse preimage of generator {s!r}"
                )
            section[s] = lift
        else:
            lift = next(t for t in a.elements if phi(t) == s)
            section[s] = lift
            section[s_inv] = a.inv(lift)
    return section


def induced_generators(
    phi: GroupHom,
    s1: GeneratorSystem,
    s0: GeneratorSystem,
    section: Optional[Mapping[Label, Label]] = None,
) -> GeneratorSystem:
    """Union of an admissible kernel generating set with a transversal section."""
    if not is_admissible(s0, phi.domain):
        raise InvalidGeneratorSystem("kernel generating set is not admissible")
    if section is None:
        section = transversal_section(phi, s1)
    return generator_system(phi.domain, set(s0.members) | set(section.values()))


def cayley_bundle(
    phi: GroupHom,
    s1: GeneratorSystem,
    s0: GeneratorSystem,
    section: Optional[Mapping[Label, Label]] = None,
) -> GraphBundle:
    """Bundle structure carried by a surjection under an induced generator
    system: total and base are Cayley graphs, the fiber is the Cayley graph
    of the kernel.  Verification failure would falsify the construction,
    so it propagates."""
    if not is_surjective(phi):
        raise NotSurjective("cayley bundle needs a surjective homomorphism")
    ker = kernel(phi)
    if set(s0.group.elements) != set(ker.elements):
        raise InvalidGeneratorSystem("kernel generating set is not over the kernel")
    s_phi = induced_generators(phi, s1, s0, section)
    total = cayley_graph(phi.domain, s_phi)
    base = cayley_graph(phi.codomain, s1)
    fiber_graph = cayley_graph(ker, s0)
    projection = make_morphism(total, base, dict(phi.mapping))
    return verify_bundle(total, projection, fiber_graph)


def verify_invariance(
    phi1: GroupHom,
    phi2: GroupHom,
    s1: GeneratorSystem,
    s01: GeneratorSystem,
    s02: GeneratorSystem,
    section1: Optional[Mapping[Label, Label]] = None,
    section2: Optional[Mapping[Label, Label]] = None,
) -> bool:
    """Literal equality of the Cayley graph of a subdirect product of groups
    with the subdirect product of the two Cayley bundles.

    The paired generator data is assembled componentwise: kernel generators
    embed with an identity in the other factor, and the two transversal
    sections pair up generator by generator.
    """
    sd = subdirect_group(phi1, phi2)
    e = sd.E
    a1, a2 = phi1.domain, phi2.domain
    if section1 is None:
        section1 = transversal_section(phi1, s1)
    if section2 is None:
        section2 = transversal_section(phi2, s1)
    bar_s01 = [pair_label(x, a2.identity) for x in s01.members]
    bar_s02 = [pair_label(a1.identity, y) for y in s02.members]
    paired_section = [
        pair_label(section1[s], section2[s]) for s in s1.members
    ]
    s_phi = generator_system(e, set(bar_s01) | set(bar_s02) | set(paired_section))
    lhs = cayley_graph(e, s_phi)

    rhs = subdirect_product(
        cayley_bundle(phi1, s1, s01, section1),
        cayley_bundle(phi2, s1, s02, section2),
    ).total
    return lhs == rhs

