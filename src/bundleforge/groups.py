"""Finite groups as Cayley tables: homomorphisms, kernels, subdirect
products, generator systems with transversal sections, Cayley graphs, and
the bundle structure they induce on a surjective homomorphism.

Like a Graph, each type stores one form, by position: a FiniteGroup its
labels, its table as rows of product positions and the positions of its
identity and inverses, a GroupHom its position map, a GeneratorSystem its
members' positions.  Every routine computes on positions.  Labels are read
at make_group, FiniteGroup.from_json, hom, generator_system and
symmetric_closure (and from a caller's sections), and written by to_json,
GroupHom.mapping, GeneratorSystem.members and transversal_section.

A table from outside (make_group, FiniteGroup.from_json) is checked
exactly, at every order, associativity by Light's test, and its labels
by graphs.check_labels.  Groups derived from validated groups are groups
by construction and are built directly, and subdirect_group checks the
paper's identities through explicit maps.
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
from .graphs import Graph, GraphMorphism, Label, _trusted_graph, canon_label, check_labels, pair_label
from .pullback import subdirect_product


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """Finite group on an ordered element list, stored by position:
    rows[i][j] is the position of the product of the elements at i and j,
    identity the identity's position and inverse[i] the position of the
    inverse of the element at i."""

    elements: tuple[Label, ...]
    rows: tuple[tuple[int, ...], ...]
    identity: int
    inverse: tuple[int, ...]

    @cached_property
    def index(self) -> dict[Label, int]:
        return {e: i for i, e in enumerate(self.elements)}

    @property
    def order(self) -> int:
        return len(self.elements)

    def to_json(self) -> dict:
        es = self.elements
        return {"elements": list(es), "table": [[es[k] for k in row] for row in self.rows]}

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
        elements = [_group_label(e, "group element") for e in elements]
        n = len(elements)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ParseError(f"group table must have {n} rows of {n} entries")
        return make_group(elements, {
            (x, y): _group_label(rows[i][j], "group table entry")
            for i, x in enumerate(elements)
            for j, y in enumerate(elements)
        })

    def __repr__(self) -> str:
        return f"FiniteGroup(order {self.order})"


def _group_label(x: object, what: str) -> Label:
    """A label read as canon_label reads a vertex; a refusal names what."""
    try:
        return canon_label(x)
    except ParseError:
        raise ParseError(f"unsupported {what} type: {x!r}") from None


def _closure(rows: Sequence[Sequence[int]], start: Iterable[int], gens: Sequence[int]) -> set[int]:
    """Every position reached from start by right multiplication with gens."""
    reached = set(start)
    frontier = list(reached)
    while frontier:
        row = rows[frontier.pop()]
        for g in gens:
            y = row[g]
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    return reached


def _greedy_generators(rows: Sequence[Sequence[int]], identity: int) -> list[int]:
    """Generators picked in element order: each position not yet reached
    from the identity by right multiplication with the earlier picks."""
    gens: list[int] = []
    reached = {identity}
    for x in range(len(rows)):
        if x not in reached:
            gens.append(x)
            reached = _closure(rows, reached, gens)
    return gens


def _generated(g: FiniteGroup, gens: Sequence[int]) -> set[int]:
    """The positions of the subgroup that gens generate."""
    return _closure(g.rows, [g.identity], gens)


def make_group(elements: Sequence[object], table: Mapping[tuple[object, object], object]) -> FiniteGroup:
    """Validate a Cayley table and wrap it as a group.

    Elements and the table's keys and products are read with str(), so a
    table keyed by integer elements is read as one keyed by their strings.
    Every axiom is checked exactly, at every order.  Associativity uses
    Light's test: for generators S picked greedily in element order, it
    checks (xs)y = x(sy) for every s in S and all x, y.  That suffices,
    because the elements a with (xa)y = x(ay) for all x, y are closed under
    the product and contain the identity.  The cost is n²·|S| products,
    and |S| <= 1 + log2 n for a group.

    Raises ParseError (graphs.check_labels) or NotAGroup naming the violated
    axiom and a witness; the associativity witness (x, s, y) has s a generator.
    """
    elems = tuple(str(e) for e in elements)
    check_labels(elems, "group element")
    index = {e: i for i, e in enumerate(elems)}
    if len(index) != len(elems):
        raise NotAGroup("duplicate element labels")
    cells = {(str(x), str(y)): z for (x, y), z in table.items()}
    rows: list[list[int]] = []
    for x in elems:
        row = []
        for y in elems:
            try:
                z = str(cells[x, y])
            except KeyError:
                raise NotAGroup(f"table missing product ({x!r}, {y!r})") from None
            k = index.get(z)
            if k is None:
                raise NotAGroup(f"closure fails: ({x!r}, {y!r}) -> {z!r}")
            row.append(k)
        rows.append(row)
    ids = list(range(len(elems)))
    e = next((i for i in ids if rows[i] == ids and [row[i] for row in rows] == ids), None)
    if e is None:
        raise NotAGroup("no identity element")
    inverse = []
    for i, x in enumerate(elems):
        j = next((j for j in ids if rows[i][j] == e and rows[j][i] == e), None)
        if j is None:
            raise NotAGroup(f"no inverse for {x!r}")
        inverse.append(j)
    for s in _greedy_generators(rows, e):
        row_s = rows[s]
        for x, row_x in enumerate(rows):
            row_xs = rows[row_x[s]]
            if row_xs != [row_x[k] for k in row_s]:
                y = next(y for y in ids if row_xs[y] != row_x[row_s[y]])
                raise NotAGroup(f"associativity fails at ({elems[x]!r}, {elems[s]!r}, {elems[y]!r})")
    return FiniteGroup(elems, tuple(map(tuple, rows)), e, tuple(inverse))


def cyclic(n: int) -> FiniteGroup:
    """Additive cyclic group on labels 0..n-1."""
    if n < 1:
        raise NotAGroup("no identity element")
    rows = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return FiniteGroup(tuple(map(str, range(n))), rows, 0, tuple(-i % n for i in range(n)))


def _same_group(g: FiniteGroup, h: FiniteGroup) -> bool:
    """Same elements in the same order, and the same table."""
    return g is h or (g.elements == h.elements and g.rows == h.rows)


def _pair_group(a: FiniteGroup, b: FiniteGroup, pairs: Sequence[tuple[int, int]]) -> FiniteGroup:
    """Componentwise group on pairs of positions of a and b, in the given
    order.  The pairs must form a subgroup of a × b; nothing is checked."""
    ea, eb = a.elements, b.elements
    labels = tuple(pair_label(ea[x], eb[y]) for x, y in pairs)
    at = {p: k for k, p in enumerate(pairs)}
    ra, rb = a.rows, b.rows
    rows = tuple(tuple(at[ra[x1][x2], rb[y1][y2]] for x2, y2 in pairs) for x1, y1 in pairs)
    inverse = tuple(at[a.inverse[x], b.inverse[y]] for x, y in pairs)
    return FiniteGroup(labels, rows, at[a.identity, b.identity], inverse)


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    return _pair_group(a, b, list(itertools.product(range(a.order), range(b.order))))


def subgroup(g: FiniteGroup, members: Iterable[int]) -> FiniteGroup:
    """Subgroup on the given positions with the induced table, ambient
    order kept.  A nonempty finite subset closed under the product is a
    subgroup, so closure is all that is checked."""
    want, es = set(members), g.elements
    at = [i for i in range(g.order) if i in want]
    if not at:
        raise NotAGroup("empty subset is not a subgroup")
    outside = next(((i, j) for i in at for j in at if g.rows[i][j] not in want), None)
    if outside is not None:
        raise NotAGroup(f"subset not closed: ({es[outside[0]]!r}, {es[outside[1]]!r})")
    pos = {i: k for k, i in enumerate(at)}
    rows = tuple(tuple(pos[g.rows[i][j]] for j in at) for i in at)
    return FiniteGroup(tuple(es[i] for i in at), rows, pos[g.identity], tuple(pos[g.inverse[i]] for i in at))


# --- homomorphisms ------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GroupHom:
    """Homomorphism stored as position_map, the codomain position of each
    domain position; the label view mapping is derived when read."""

    domain: FiniteGroup
    codomain: FiniteGroup
    position_map: tuple[int, ...]

    @cached_property
    def mapping(self) -> dict[Label, Label]:
        cs = self.codomain.elements
        return {x: cs[k] for x, k in zip(self.domain.elements, self.position_map)}

    def __call__(self, x: Label) -> Label:
        return self.mapping[x]

    def to_json(self) -> dict:
        return {"map": dict(self.mapping)}


def hom(domain: FiniteGroup, codomain: FiniteGroup, mapping: Mapping[object, object]) -> GroupHom:
    """Validate a total map as a homomorphism; raises NotAHomomorphism with
    the first violating pair.  Keys that are no domain element are
    ignored."""
    m = {str(k): str(v) for k, v in mapping.items()}
    cidx, at = codomain.index, []
    for x in domain.elements:
        if x not in m:
            raise NotAHomomorphism(f"map undefined on {x!r}")
        k = cidx.get(m[x])
        if k is None:
            raise NotAHomomorphism(f"image {m[x]!r} not in codomain")
        at.append(k)
    crows, es = codomain.rows, domain.elements
    for i, row in enumerate(domain.rows):
        image_row = crows[at[i]]
        for j, k in enumerate(row):
            if at[k] != image_row[at[j]]:
                raise NotAHomomorphism(f"map breaks multiplication at ({es[i]!r}, {es[j]!r})")
    return GroupHom(domain, codomain, tuple(at))


def kernel(h: GroupHom) -> FiniteGroup:
    e = h.codomain.identity
    return subgroup(h.domain, [i for i, k in enumerate(h.position_map) if k == e])


def is_surjective(h: GroupHom) -> bool:
    return len(set(h.position_map)) == h.codomain.order


def _homs_by_closure(
    a: FiniteGroup,
    b: FiniteGroup,
    candidates: Callable[[int], list[int]],
    accept: Callable[[list[int]], bool],
) -> Iterator[list[int]]:
    """Yield every homomorphism a -> b, as the image position of each
    position of a, that sends each greedily chosen generator g of a into
    candidates(g) and passes accept.

    Each choice of generator images is closed under right multiplication by
    the generators; a choice is dropped as soon as two words disagree.  A
    consistent closure is a homomorphism: the y with phi(xy) = phi(x)phi(y)
    for every x contain the identity and are closed under right
    multiplication by the generators, so they are all of a.
    """
    gens = _greedy_generators(a.rows, a.identity)
    ra, rb = a.rows, b.rows
    for images in itertools.product(*(candidates(g) for g in gens)):
        phi = [-1] * a.order
        phi[a.identity] = b.identity
        frontier = [a.identity]
        consistent = True
        while frontier and consistent:
            x = frontier.pop()
            row, image_row = ra[x], rb[phi[x]]
            for g, img in zip(gens, images):
                y, fy = row[g], image_row[img]
                if phi[y] < 0:
                    phi[y] = fy
                    frontier.append(y)
                elif phi[y] != fy:
                    consistent = False
                    break
        if consistent and accept(phi):
            yield phi


def surjective_homs(a: FiniteGroup, b: FiniteGroup) -> list[GroupHom]:
    """All surjective homomorphisms, by closing candidate generator images."""
    if a.order % b.order != 0:
        return []
    order_a, order_b = ([len(_generated(g, [x])) for x in range(g.order)] for g in (a, b))
    homs = _homs_by_closure(
        a,
        b,
        lambda g: [y for y, k in enumerate(order_b) if order_a[g] % k == 0],
        lambda phi: len(set(phi)) == b.order,
    )
    return [GroupHom(a, b, tuple(phi)) for phi in homs]


def admissible_generating_sets(ker: FiniteGroup, ambient: FiniteGroup) -> list[GeneratorSystem]:
    """Symmetric generating sets of the kernel that are closed under
    conjugation by every ambient element."""
    return [s for s in symmetric_generating_sets(ker) if is_admissible(s, ambient)]


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
    at_a, at_b, e_c = eps_a.position_map, eps_b.position_map, c.identity
    pairs = [(x, y) for x in range(a.order) for y in range(b.order) if at_a[x] == at_b[y]]
    e = _pair_group(a, b, pairs)
    delta_a = GroupHom(e, a, tuple(x for x, _ in pairs))
    delta_b = GroupHom(e, b, tuple(y for _, y in pairs))
    assert is_surjective(delta_a) and is_surjective(delta_b)
    ker_a = [x for x in range(a.order) if at_a[x] == e_c]
    ker_b = [y for y in range(b.order) if at_b[y] == e_c]
    assert [y for x, y in pairs if x == a.identity] == ker_b
    assert [x for x, y in pairs if y == b.identity] == ker_a
    inner = [(x, y) for x, y in pairs if at_a[x] == e_c]
    assert inner == list(itertools.product(ker_a, ker_b))
    assert e.order == len(inner) * c.order
    return SubdirectGroup(e, delta_a, delta_b, c, eps_a, eps_b)


# --- generator systems ------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GeneratorSystem:
    """Symmetric generating set without the identity, stored as its members'
    increasing positions in group; the labels, members, are derived."""

    group: FiniteGroup
    positions: tuple[int, ...]

    @property
    def members(self) -> tuple[Label, ...]:
        return tuple(map(self.group.elements.__getitem__, self.positions))

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.positions)


def _element_set(g: FiniteGroup, members: Iterable[object]) -> set[int]:
    """The positions of labelled members; raises InvalidGeneratorSystem naming non-elements."""
    raw = dict.fromkeys(str(x) for x in members)
    unknown = [x for x in raw if x not in g.index]
    if unknown:
        raise InvalidGeneratorSystem(f"labels are not group elements: {unknown}")
    return {g.index[x] for x in raw}


def _require_over(s: GeneratorSystem, g: FiniteGroup) -> None:
    if not _same_group(s.group, g):
        raise InvalidGeneratorSystem("generator system belongs to a different group")


def symmetric_closure(g: FiniteGroup, members: Iterable[object]) -> tuple[tuple[Label, ...], tuple[Label, ...]]:
    """Close a set under inverses; returns (closed set, elements added)."""
    raw = _element_set(g, members)
    closed = raw | {g.inverse[x] for x in raw}
    es = g.elements
    return tuple(es[x] for x in sorted(closed)), tuple(es[x] for x in sorted(closed - raw))


def generator_system(g: FiniteGroup, members: Iterable[object]) -> GeneratorSystem:
    """Validate a symmetric generating set; the identity and labels that
    are not elements are rejected."""
    want = _element_set(g, members)
    s = sorted(want)
    if g.identity in want:
        raise InvalidGeneratorSystem("generating set contains the identity")
    for x in s:
        if g.inverse[x] not in want:
            raise InvalidGeneratorSystem(f"set is not symmetric: missing inverse of {g.elements[x]!r}")
    if len(_generated(g, s)) != g.order:
        raise InvalidGeneratorSystem("set does not generate the group")
    return GeneratorSystem(g, tuple(s))


def symmetric_generating_sets(g: FiniteGroup) -> list[GeneratorSystem]:
    """All symmetric generating sets, enumerated over inverse-pair blocks.
    Each set is symmetric, free of the identity and generating by
    construction, so it is built directly."""
    blocks: list[list[int]] = []
    seen = {g.identity}
    for x in range(g.order):
        if x not in seen:
            blocks.append(sorted({x, g.inverse[x]}))
            seen.update(blocks[-1])
    out = []
    for r in range(len(blocks) + 1):
        for combo in itertools.combinations(blocks, r):
            members = sorted(itertools.chain.from_iterable(combo))
            if len(_generated(g, members)) == g.order:
                out.append(GeneratorSystem(g, tuple(members)))
    return out


def cayley_graph(g: FiniteGroup, s: GeneratorSystem) -> Graph:
    """Undirected Cayley graph: x adjacent to xs for every generator s.
    Raises InvalidGeneratorSystem when the set holds the identity, which
    would give a loop."""
    _require_over(s, g)
    if g.identity in s.positions:
        raise InvalidGeneratorSystem("generating set contains the identity")
    steps = ((i, row[k]) for i, row in enumerate(g.rows) for k in s.positions)
    ends = {(i, j) if i < j else (j, i) for i, j in steps}
    return _trusted_graph(g.elements, list(ends))


def is_admissible(s0: GeneratorSystem, ambient: FiniteGroup) -> bool:
    """True when the set is closed under conjugation by every ambient element.
    Raises InvalidGeneratorSystem when a member is no ambient element."""
    rows, inverse = ambient.rows, ambient.inverse
    want = _element_set(ambient, s0.members)
    return all(rows[rows[a][x]][inverse[a]] in want for a in range(ambient.order) for x in want)


def _section(phi: GroupHom, s1: GeneratorSystem, section: Optional[Mapping[Label, Label]]) -> Mapping[Label, Label]:
    """The transversal section, or a caller's section read as labels, keys
    and values through str() as hom reads them, absent (None) values
    skipped, once it is checked to lift every generator s of s1 to an
    element that phi maps to s; raises NoTransversalSection naming the
    first generator it does not lift."""
    if section is None:
        return transversal_section(phi, s1)
    _require_over(s1, phi.codomain)
    labels = {str(k): str(v) for k, v in section.items() if v is not None}
    index, at = phi.domain.index, phi.position_map
    for s, label in zip(s1.positions, s1.members):
        lift = index.get(labels.get(label))
        if lift is None or at[lift] != s:
            raise NoTransversalSection(f"section does not lift generator {label!r} into its preimage")
    return labels


def transversal_section(phi: GroupHom, s1: GeneratorSystem) -> dict[Label, Label]:
    """Symmetric one-lift-per-generator section of a surjection, by labels.

    Lifts are deterministic: inverse pairs get the first preimage in domain
    order and its inverse; a self-inverse generator needs a self-inverse
    preimage, and when its preimage coset carries none the section does not
    exist and NoTransversalSection is raised.  A generator system over
    another group than phi's codomain raises InvalidGeneratorSystem.
    """
    if not is_surjective(phi):
        raise NotSurjective("transversal section needs a surjective homomorphism")
    _require_over(s1, phi.codomain)
    at, a, c = phi.position_map, phi.domain, s1.group
    section: dict[int, int] = {}
    for s in s1.positions:
        if s in section:
            continue
        s_inv = c.inverse[s]
        if s_inv == s:
            lift = next((t for t, k in enumerate(at) if k == s and a.inverse[t] == t), None)
            if lift is None:
                raise NoTransversalSection(f"no self-inverse preimage of generator {c.elements[s]!r}")
            section[s] = lift
        else:
            section[s] = lift = at.index(s)
            section[s_inv] = a.inverse[lift]
    return {c.elements[s]: a.elements[t] for s, t in section.items()}


def induced_generators(
    phi: GroupHom,
    s1: GeneratorSystem,
    s0: GeneratorSystem,
    section: Optional[Mapping[Label, Label]] = None,
) -> GeneratorSystem:
    """Union of an admissible kernel generating set with a transversal
    section; a caller's section must lift every generator of s1 into its
    preimage, else NoTransversalSection names the generator."""
    if not is_admissible(s0, phi.domain):
        raise InvalidGeneratorSystem("kernel generating set is not admissible")
    return generator_system(phi.domain, set(s0.members) | set(_section(phi, s1, section).values()))


def cayley_bundle(
    phi: GroupHom,
    s1: GeneratorSystem,
    s0: GeneratorSystem,
    section: Optional[Mapping[Label, Label]] = None,
) -> GraphBundle:
    """Bundle structure carried by a surjection under an induced generator
    system: total and base are Cayley graphs, the fiber is the Cayley graph
    of the kernel, and the projection is phi's position map.  Verification
    failure would falsify the construction, so it propagates."""
    if not is_surjective(phi):
        raise NotSurjective("cayley bundle needs a surjective homomorphism")
    ker = kernel(phi)
    if set(s0.group.elements) != set(ker.elements):
        raise InvalidGeneratorSystem("kernel generating set is not over the kernel")
    s_phi = induced_generators(phi, s1, s0, section)
    total = cayley_graph(phi.domain, s_phi)
    base = cayley_graph(phi.codomain, s1)
    fiber_graph = cayley_graph(ker, s0)
    return verify_bundle(total, GraphMorphism(total, base, phi.position_map), fiber_graph)


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

    The paired generator data is assembled componentwise, by labels, since
    the sections may come from outside: kernel generators embed with an
    identity in the other factor, and the two transversal sections pair up
    generator by generator.  A caller's section is checked before either
    side runs, as induced_generators checks it.
    """
    e = subdirect_group(phi1, phi2).E
    a1, a2 = phi1.domain, phi2.domain
    section1, section2 = _section(phi1, s1, section1), _section(phi2, s1, section2)
    bar_s01 = [pair_label(x, a2.elements[a2.identity]) for x in s01.members]
    bar_s02 = [pair_label(a1.elements[a1.identity], y) for y in s02.members]
    paired_section = [pair_label(section1[s], section2[s]) for s in s1.members]
    s_phi = generator_system(e, set(bar_s01) | set(bar_s02) | set(paired_section))
    lhs = cayley_graph(e, s_phi)

    rhs = subdirect_product(
        cayley_bundle(phi1, s1, s01, section1),
        cayley_bundle(phi2, s1, s02, section2),
    ).total
    return lhs == rhs
