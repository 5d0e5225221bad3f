"""Finite groups as Cayley tables: homomorphisms, kernels, subdirect
products, generator systems with transversal sections, Cayley graphs, and
the bundle structure they induce on a surjective homomorphism.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .bundles import GraphBundle, verify_bundle
from .errors import (
    InvalidGeneratorSystem,
    NoTransversalSection,
    NotAGroup,
    NotAHomomorphism,
    NotSurjective,
    ParseError,
)
from .graphs import Graph, Label, make_graph, make_morphism, pair_label, split_pair_label
from .pullback import subdirect_product

#: Exhaustive group-axiom checks are performed up to this many elements;
#: beyond it associativity is only spot-checked.
AXIOM_CHECK_LIMIT = 64


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """Finite group given by an ordered element list and a Cayley table."""

    elements: tuple[Label, ...]
    table: Mapping[tuple[Label, Label], Label]
    identity: Label

    @cached_property
    def index(self) -> dict[Label, int]:
        return {e: i for i, e in enumerate(self.elements)}

    @cached_property
    def inverses(self) -> dict[Label, Label]:
        inv = {}
        for x in self.elements:
            for y in self.elements:
                if self.table[(x, y)] == self.identity:
                    inv[x] = y
                    break
        return inv

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
        seen = {self.identity}
        frontier = [self.identity]
        gens = list(gens)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = self.mul(x, g)
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return tuple(e for e in self.elements if e in seen)

    def to_json(self) -> dict:
        return {
            "elements": list(self.elements),
            "table": [[self.table[(x, y)] for y in self.elements] for x in self.elements],
        }

    @staticmethod
    def from_json(data: Mapping) -> FiniteGroup:
        try:
            elements = [str(e) for e in data["elements"]]
            rows = [list(row) for row in data["table"]]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad group JSON: {exc}") from exc
        n = len(elements)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ParseError(f"group table must have {n} rows of {n} entries")
        table = {}
        for i, x in enumerate(elements):
            for j, y in enumerate(elements):
                table[(x, y)] = str(rows[i][j])
        return make_group(elements, table)

    def __repr__(self) -> str:
        return f"FiniteGroup(order {self.order})"


def make_group(elements: Sequence[object], table: Mapping[tuple[object, object], object]) -> FiniteGroup:
    """Validate a Cayley table and wrap it as a group.

    Raises NotAGroup naming the violated axiom and a witness.
    """
    elems = tuple(str(e) for e in elements)
    members = set(elems)
    if len(members) != len(elems):
        raise NotAGroup("duplicate element labels")
    t: dict[tuple[Label, Label], Label] = {}
    for x in elems:
        for y in elems:
            try:
                z = str(table[(x, y)])
            except KeyError:
                raise NotAGroup(f"table missing product ({x!r}, {y!r})") from None
            if z not in members:
                raise NotAGroup(f"closure fails: ({x!r}, {y!r}) -> {z!r}")
            t[(x, y)] = z
    identity = None
    for e in elems:
        if all(t[(e, x)] == x and t[(x, e)] == x for x in elems):
            identity = e
            break
    if identity is None:
        raise NotAGroup("no identity element")
    for x in elems:
        if not any(t[(x, y)] == identity and t[(y, x)] == identity for y in elems):
            raise NotAGroup(f"no inverse for {x!r}")
    if len(elems) <= AXIOM_CHECK_LIMIT:
        triples = itertools.product(elems, repeat=3)
    else:
        import random

        rng = random.Random(0)
        triples = (tuple(rng.choices(elems, k=3)) for _ in range(100_000))
    for x, y, z in triples:
        if t[(t[(x, y)], z)] != t[(x, t[(y, z)])]:
            raise NotAGroup(f"associativity fails at ({x!r}, {y!r}, {z!r})")
    return FiniteGroup(elems, t, identity)


def cyclic(n: int) -> FiniteGroup:
    """Additive cyclic group on labels 0..n-1."""
    elems = [str(i) for i in range(n)]
    table = {(str(i), str(j)): str((i + j) % n) for i in range(n) for j in range(n)}
    return make_group(elems, table)


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    elems = [pair_label(x, y) for x in a.elements for y in b.elements]
    table = {}
    for x1 in a.elements:
        for y1 in b.elements:
            for x2 in a.elements:
                for y2 in b.elements:
                    table[(pair_label(x1, y1), pair_label(x2, y2))] = pair_label(
                        a.mul(x1, x2), b.mul(y1, y2)
                    )
    return make_group(elems, table)


def subgroup(g: FiniteGroup, members: Iterable[Label]) -> FiniteGroup:
    """Subgroup on the given members with the induced table, ambient order kept."""
    want = set(members)
    elems = [e for e in g.elements if e in want]
    for x in elems:
        for y in elems:
            if g.mul(x, y) not in want:
                raise NotAGroup(f"subset not closed: ({x!r}, {y!r})")
    table = {(x, y): g.mul(x, y) for x in elems for y in elems}
    return make_group(elems, table)


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
    the generators; a choice is dropped as soon as two words disagree.
    """
    gens: list[Label] = []
    generated: set[Label] = {a.identity}
    for x in a.elements:
        if x not in generated:
            gens.append(x)
            generated = set(a.generated_subgroup(gens))
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
        if not consistent or not accept(phi):
            continue
        if all(
            phi[a.mul(x, y)] == b.mul(phi[x], phi[y])
            for x in a.elements
            for y in a.elements
        ):
            yield phi


def group_isomorphic(a: FiniteGroup, b: FiniteGroup) -> bool:
    """Brute-force isomorphism test via generator images and closure."""
    if a.order != b.order:
        return False
    if sorted(map(a.element_order, a.elements)) != sorted(map(b.element_order, b.elements)):
        return False
    isos = _homs_by_closure(
        a,
        b,
        lambda g: [y for y in b.elements if b.element_order(y) == a.element_order(g)],
        lambda phi: len(set(phi.values())) == a.order,
    )
    return next(isos, None) is not None


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


def quotient_group(g: FiniteGroup, n: FiniteGroup) -> FiniteGroup:
    """Quotient by a normal subgroup; cosets are labeled by their first
    member in ambient order."""
    if not is_normal(g, n.elements):
        raise NotAGroup("quotient requires a normal subgroup")
    n_set = set(n.elements)
    leader_of: dict[Label, Label] = {}
    leaders: list[Label] = []
    for x in g.elements:
        if x in leader_of:
            continue
        coset = {g.mul(x, h) for h in n_set}
        leader = next(e for e in g.elements if e in coset)
        leaders.append(leader)
        for y in coset:
            leader_of[y] = leader
    table = {
        (p, q): leader_of[g.mul(p, q)] for p in leaders for q in leaders
    }
    return make_group(leaders, table)


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
    """Build the subdirect product of two epimorphisms onto a common group
    and verify its structural identities (kernel isomorphisms, order, and
    the quotient by the product of the kernels)."""
    if eps_a.codomain is not eps_b.codomain and eps_a.codomain.elements != eps_b.codomain.elements:
        raise NotSurjective("epimorphisms must share a codomain")
    if not is_surjective(eps_a) or not is_surjective(eps_b):
        raise NotSurjective("both structure maps must be surjective")
    a, b, c = eps_a.domain, eps_b.domain, eps_a.codomain
    dp = direct_product(a, b)
    members = [
        pair_label(x, y)
        for x in a.elements
        for y in b.elements
        if eps_a(x) == eps_b(y)
    ]
    e = subgroup(dp, members)
    delta_a = hom(e, a, {m: split_pair_label(m)[0] for m in e.elements})
    delta_b = hom(e, b, {m: split_pair_label(m)[1] for m in e.elements})
    assert is_surjective(delta_a) and is_surjective(delta_b)
    assert e.order * c.order == a.order * b.order
    assert group_isomorphic(kernel(delta_a), kernel(eps_b))
    assert group_isomorphic(kernel(delta_b), kernel(eps_a))
    inner = [
        m
        for m in e.elements
        if eps_a(split_pair_label(m)[0]) == c.identity
    ]
    assert group_isomorphic(quotient_group(e, subgroup(e, inner)), c)
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


def symmetric_closure(g: FiniteGroup, members: Iterable[object]) -> tuple[tuple[Label, ...], tuple[Label, ...]]:
    """Close a set under inverses; returns (closed set, elements added)."""
    raw = {str(x) for x in members}
    closed = set(raw)
    for x in raw:
        closed.add(g.inv(x))
    ordered = tuple(e for e in g.elements if e in closed)
    added = tuple(e for e in g.elements if e in closed - raw)
    return ordered, added


def generator_system(g: FiniteGroup, members: Iterable[object]) -> GeneratorSystem:
    """Validate a symmetric generating set; the identity is rejected."""
    s = tuple(e for e in g.elements if e in {str(x) for x in members})
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
    """Undirected Cayley graph: x adjacent to xs for every generator s."""
    if s.group.elements != g.elements:
        raise InvalidGeneratorSystem("generator system belongs to a different group")
    edges = [(x, g.mul(x, gen)) for x in g.elements for gen in s.members]
    return make_graph(g.elements, edges)


def is_admissible(s0: GeneratorSystem, ambient: FiniteGroup) -> bool:
    """True when the set is closed under conjugation by every ambient element."""
    members = set(s0.members)
    return all(
        ambient.mul(ambient.mul(a, x), ambient.inv(a)) in members
        for a in ambient.elements
        for x in members
    )


def transversal_section(phi: GroupHom, s1: GeneratorSystem) -> dict[Label, Label]:
    """Symmetric one-lift-per-generator section of a surjection.

    Lifts are deterministic: inverse pairs get the first preimage in domain
    order and its inverse; a self-inverse generator needs a self-inverse
    preimage, and when its preimage coset carries none the section does not
    exist and NoTransversalSection is raised.
    """
    if not is_surjective(phi):
        raise NotSurjective("transversal section needs a surjective homomorphism")
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

