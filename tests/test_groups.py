import ast
import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundleforge import (
    cartesian_product,
    cayley_bundle,
    cayley_graph,
    complete_graph,
    cycle_graph,
    cyclic,
    direct_product,
    find_isomorphism,
    generator_system,
    hom,
    induced_generators,
    is_admissible,
    is_surjective,
    kernel,
    make_group,
    subdirect_group,
    surjective_homs,
    symmetric_closure,
    transversal_section,
    verify_invariance,
)
from bundleforge.errors import (
    InvalidGeneratorSystem,
    NoTransversalSection,
    NotAGroup,
    NotAHomomorphism,
    NotSurjective,
    ParseError,
)
from bundleforge.graphs import pair_label, split_pair_label
from bundleforge import graphs
from bundleforge.groups import (
    FiniteGroup,
    GeneratorSystem,
    _homs_by_closure,
    _pair_group,
    subgroup,
    symmetric_generating_sets,
)
from bundleforge.named import invariance_case_z2z3_z6, mobius_ladder_3
from conftest import (
    degree,
    element_order,
    generated_subgroup,
    identity,
    inv,
    inverses,
    is_isomorphism,
    is_normal,
    mul,
    table,
)


# --- reference routes ----------------------------------------------------------
#
# A brute-force isomorphism search and a validated quotient: the independent
# route the tests hold subdirect_group's explicit-map checks to.


def group_isomorphic(a: FiniteGroup, b: FiniteGroup) -> bool:
    """Brute-force isomorphism test via generator images and closure."""
    if a.order != b.order:
        return False
    orders_a = [element_order(a, x) for x in a.elements]
    orders_b = [element_order(b, y) for y in b.elements]
    if sorted(orders_a) != sorted(orders_b):
        return False
    isos = _homs_by_closure(
        a,
        b,
        lambda g: [y for y, k in enumerate(orders_b) if k == orders_a[g]],
        lambda phi: len(set(phi)) == a.order,
    )
    return next(isos, None) is not None


def quotient_group(g: FiniteGroup, n: FiniteGroup) -> FiniteGroup:
    """Quotient by a normal subgroup; cosets are labeled by their first
    member in ambient order, and make_group checks the table."""
    if not is_normal(g, n.elements):
        raise NotAGroup("quotient requires a normal subgroup")
    n_set = set(n.elements)
    leader_of: dict[str, str] = {}
    leaders: list[str] = []
    for x in g.elements:
        if x in leader_of:
            continue
        coset = {mul(g, x, h) for h in n_set}
        leader = next(e for e in g.elements if e in coset)
        leaders.append(leader)
        for y in coset:
            leader_of[y] = leader
    return make_group(leaders, {(p, q): leader_of[mul(g, p, q)] for p in leaders for q in leaders})


def symmetric_group(n: int) -> FiniteGroup:
    """S_n on one-line permutation labels, its table checked by make_group."""
    perms = list(itertools.permutations(range(n)))
    label = {p: "".join(map(str, p)) for p in perms}
    table = {
        (label[p], label[q]): label[tuple(p[q[i]] for i in range(n))] for p in perms for q in perms
    }
    return make_group([label[p] for p in perms], table)


def symmetric_group_3() -> FiniteGroup:
    """S3 presented by one-line permutation labels."""
    return symmetric_group(3)


def sign_hom(g: FiniteGroup, z2: FiniteGroup):
    """The sign of a one-line permutation label, as a map onto z2."""
    def parity(x: str) -> str:
        return str(sum(a > b for a, b in itertools.combinations(x, 2)) % 2)

    return hom(g, z2, {x: parity(x) for x in g.elements})


@pytest.fixture
def z6():
    return cyclic(6)


@pytest.fixture
def z3():
    return cyclic(3)


@pytest.fixture
def z2z3():
    return direct_product(cyclic(2), cyclic(3))


@pytest.fixture
def phi2(z6, z3):
    return hom(z6, z3, {str(x): str(x % 3) for x in range(6)})


@pytest.fixture
def phi1(z2z3, z3):
    return hom(z2z3, z3, {e: split_pair_label(e)[1] for e in z2z3.elements})


class TestGroupConstruction:
    def test_cyclic_four(self):
        g = cyclic(4)
        assert g.elements == ("0", "1", "2", "3")
        assert mul(g, "3", "2") == "1"
        assert identity(g) == "0"

    def test_direct_product_is_z6(self, z2z3, z6):
        assert z2z3.order == 6
        assert any(element_order(z2z3, e) == 6 for e in z2z3.elements)
        assert group_isomorphic(z2z3, z6)

    def test_broken_associativity_rejected(self):
        elems = ["e", "a", "b"]
        table = {}
        for x in elems:
            for y in elems:
                if x == "e":
                    table[(x, y)] = y
                elif y == "e":
                    table[(x, y)] = x
                else:
                    table[(x, y)] = "e"
        # a*a = e, a*b = e: inverses not unique / associativity broken.
        with pytest.raises(NotAGroup):
            make_group(elems, table)

    def test_missing_product_rejected(self):
        with pytest.raises(NotAGroup):
            make_group(["e", "a"], {("e", "e"): "e"})

    @pytest.mark.parametrize(
        "elems, table, message",
        [
            (["e", "e"], {}, "duplicate element labels"),
            (["e", "a"], {("e", "e"): "e", ("e", "a"): "b"}, "closure fails: ('e', 'a') -> 'b'"),
            (["a", "b"], {(x, y): "a" for x in "ab" for y in "ab"}, "no identity element"),
            (["e", "a"], {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a", ("a", "a"): "a"}, "no inverse for 'a'"),
        ],
        ids=["duplicate", "closure", "identity", "inverse"],
    )
    def test_each_axiom_is_named(self, elems, table, message):
        with pytest.raises(NotAGroup, match=f"^{re.escape(message)}$"):
            make_group(elems, table)

    def test_cyclic_group_of_order_zero_is_refused(self):
        with pytest.raises(NotAGroup, match="^no identity element$"):
            cyclic(0)

    def test_json_roundtrip(self, z6):
        assert table(FiniteGroup.from_json(z6.to_json())) == table(z6)

    def test_ragged_table_is_parse_error(self, z6):
        data = z6.to_json()
        data["table"][1] = data["table"][1][:-1]
        with pytest.raises(ParseError):
            FiniteGroup.from_json(data)

    @pytest.mark.parametrize("field,value", [("elements", "012"), ("table", "x"), ("table", ["012", "120", "201"])])
    def test_non_list_fields_are_parse_errors(self, field, value):
        # A string would otherwise be read character by character.
        data = cyclic(3).to_json()
        data[field] = value
        with pytest.raises(ParseError):
            FiniteGroup.from_json(data)

    @pytest.mark.parametrize("value", [1.0, True, ["1"], {"1": 1}], ids=["float", "bool", "list", "object"])
    @pytest.mark.parametrize("where", ["element", "entry"])
    def test_labels_that_are_no_string_or_integer_are_parse_errors(self, value, where):
        # Labels are read as graph labels are: a string, or an integer as its
        # decimal string.  Anything else is refused, not turned into a label
        # by str().
        data = cyclic(2).to_json()
        if where == "element":
            data["elements"][1] = value
        else:
            data["table"][0][1] = value
        what = "group element" if where == "element" else "group table entry"
        with pytest.raises(ParseError, match=rf"^unsupported {what} type: "):
            FiniteGroup.from_json(data)

    def test_integer_keyed_table(self):
        # The table's keys are read as the elements are, with str().
        group = make_group([0, 1], {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0})
        assert group.to_json() == cyclic(2).to_json()

    def test_integer_labels_are_their_decimal_strings(self):
        group = FiniteGroup.from_json({"elements": [0, 1], "table": [[0, 1], [1, 0]]})
        assert group.elements == ("0", "1") and mul(group, "1", "1") == "0"


def reference_is_associative(elems, table) -> bool:
    """Every triple of the table: the definition itself, an independent
    route to make_group's generator-restricted test."""
    return all(
        table[(table[(x, y)], z)] == table[(x, table[(y, z)])]
        for x, y, z in itertools.product(elems, repeat=3)
    )


def associativity_witness(exc: NotAGroup) -> tuple[str, str, str]:
    message = str(exc)
    prefix = "associativity fails at "
    assert message.startswith(prefix), message
    return ast.literal_eval(message[len(prefix):])


def fails_at(table, witness) -> bool:
    x, s, y = witness
    return table[(table[(x, s)], y)] != table[(x, table[(s, y)])]


#: A loop of order 5: a Latin square with an identity in which every element
#: is its own inverse, yet not associative.  It passes every group axiom
#: but associativity.
LOOP5 = {"e": "eabcd", "a": "aecdb", "b": "bdeac", "c": "cbdea", "d": "dcabe"}


def loop5_table() -> tuple[list[str], dict[tuple[str, str], str], str]:
    elems = list(LOOP5)
    return elems, {(x, y): LOOP5[x][i] for x in elems for i, y in enumerate(elems)}, "e"


def group_table(g: FiniteGroup) -> tuple[list[str], dict[tuple[str, str], str], str]:
    return list(g.elements), table(g), identity(g)


def product_table(a, b):
    """Componentwise product of two (elements, table, identity) triples."""
    (ea, ta, ia), (eb, tb, ib) = a, b
    elems = [pair_label(x, y) for x in ea for y in eb]
    table = {
        (pair_label(x1, y1), pair_label(x2, y2)): pair_label(ta[(x1, x2)], tb[(y1, y2)])
        for x1 in ea
        for y1 in eb
        for x2 in ea
        for y2 in eb
    }
    return elems, table, pair_label(ia, ib)


def swap_in_row(table, x, y1, y2) -> None:
    table[(x, y1)], table[(x, y2)] = table[(x, y2)], table[(x, y1)]


# Groups of order 1-12, and the loop alone and times Z2: there (1,e) lies in
# the middle nucleus, so it is a generator whose checks all pass.
BASE_TABLES = (
    [group_table(cyclic(n)) for n in range(1, 13)]
    + [
        group_table(direct_product(cyclic(a), cyclic(b)))
        for a, b in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (2, 6), (3, 4)]
    ]
    + [group_table(symmetric_group_3()), group_table(direct_product(symmetric_group_3(), cyclic(2)))]
    + [loop5_table(), product_table(group_table(cyclic(2)), loop5_table())]
)


@st.composite
def relabelled_tables(draw):
    """A base table under fresh labels and element order, with up to two
    pairs of products swapped within a row.  Swaps avoid the identity's row
    and column and every product equal to the identity, so identity and
    inverses survive and only associativity can fail."""
    elems, table, identity = draw(st.sampled_from(BASE_TABLES))
    names = draw(st.permutations([f"g{i}" for i in range(len(elems))]))
    rename = dict(zip(elems, names))
    table = {(rename[x], rename[y]): rename[z] for (x, y), z in table.items()}
    e = rename[identity]
    for _ in range(draw(st.integers(0, 2))):
        cells = [(x, y) for (x, y), z in table.items() if e not in (x, y, z)]
        if not cells:
            break
        x, y1 = draw(st.sampled_from(sorted(cells)))
        row = sorted(y for (x2, y) in cells if x2 == x and y != y1)
        if row:
            swap_in_row(table, x, y1, draw(st.sampled_from(row)))
    return draw(st.permutations(names)), table


class TestLightAssociativity:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(relabelled_tables())
    def test_verdict_matches_every_triple(self, case):
        elems, table = case
        expected = reference_is_associative(elems, table)
        try:
            make_group(elems, table)
        except NotAGroup as exc:
            assert fails_at(table, associativity_witness(exc))
            assert not expected
        else:
            assert expected

    def test_nucleus_generators_first_still_rejected(self):
        # Listed first, the Z2 x Z2 part gives the first two generators.
        # Both pass every check in the middle slot, so a test that stopped
        # before the generators span would accept this loop.
        z2z2 = group_table(direct_product(cyclic(2), cyclic(2)))
        elems, table, _ = product_table(z2z2, loop5_table())
        nucleus = [pair_label(x, "e") for x in z2z2[0]]
        elems = nucleus + [x for x in elems if x not in nucleus]
        assert not any(fails_at(table, (x, s, y)) for s in nucleus for x in elems for y in elems)
        assert not reference_is_associative(elems, table)
        with pytest.raises(NotAGroup) as info:
            make_group(elems, table)
        assert fails_at(table, associativity_witness(info.value))

    def test_beyond_old_sampling_cap_accepted(self):
        g = direct_product(cyclic(6), cyclic(12))
        assert g.order == 72
        again = make_group(g.elements, table(g))
        assert identity(again) == "(0,0)"
        assert table(again) == table(g)

    def test_beyond_old_sampling_cap_swap_rejected(self):
        elems, table, identity = group_table(direct_product(cyclic(6), cyclic(12)))
        x, y1, y2 = "(1,1)", "(0,1)", "(0,2)"
        assert identity not in (table[(x, y1)], table[(x, y2)])
        swap_in_row(table, x, y1, y2)
        with pytest.raises(NotAGroup) as info:
            make_group(elems, table)
        assert fails_at(table, associativity_witness(info.value))

    def test_inverses_come_with_the_group(self):
        g = make_group(*group_table(symmetric_group_3())[:2])
        assert "inverse" in vars(g)
        scanned = {
            x: next(y for y in g.elements if mul(g, x, y) == identity(g)) for x in g.elements
        }
        assert inverses(g) == scanned
        assert list(inverses(g)) == list(g.elements)


def quaternion_group() -> FiniteGroup:
    """Q8 on signed units: i*j = k, j*k = i, k*i = j, each unit squaring to -1."""
    units = ["1", "i", "j", "k"]
    unit_product = {
        ("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
        ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j"),
    }

    def unit_mul(a: str, b: str) -> tuple[int, str]:
        if a == "1":
            return 1, b
        if b == "1":
            return 1, a
        if a == b:
            return -1, "1"
        return unit_product[(a, b)]

    elems = [(s, u) for s in (1, -1) for u in units]
    label = {(s, u): ("" if s == 1 else "-") + u for s, u in elems}
    table = {}
    for s1, u1 in elems:
        for s2, u2 in elems:
            sign, unit = unit_mul(u1, u2)
            table[(label[(s1, u1)], label[(s2, u2)])] = label[(s1 * s2 * sign, unit)]
    return make_group([label[e] for e in elems], table)


class TestGroupIsomorphism:
    def test_same_order_statistics_not_isomorphic(self):
        # Both groups have one identity, three involutions and twelve
        # elements of order four, so only the closure can tell them apart.
        z4z4 = direct_product(cyclic(4), cyclic(4))
        z2q8 = direct_product(cyclic(2), quaternion_group())
        stats = [sorted(element_order(g, x) for x in g.elements) for g in (z4z4, z2q8)]
        assert stats[0] == stats[1]
        assert not group_isomorphic(z4z4, z2q8)
        assert not group_isomorphic(z2q8, z4z4)
        assert group_isomorphic(z2q8, direct_product(quaternion_group(), cyclic(2)))


class TestHomomorphisms:
    def test_mod3_kernel(self, phi2):
        ker = kernel(phi2)
        assert ker.elements == ("0", "3")
        assert group_isomorphic(ker, cyclic(2))

    def test_second_factor_projection_kernel(self, phi1):
        ker = kernel(phi1)
        assert ker.elements == ("(0,0)", "(1,0)")
        assert group_isomorphic(ker, cyclic(2))

    def test_identity_hom_kernel_trivial(self, z3):
        ident = hom(z3, z3, {e: e for e in z3.elements})
        assert kernel(ident).elements == ("0",)

    def test_not_a_homomorphism(self, z6, z3):
        with pytest.raises(NotAHomomorphism):
            hom(z6, z3, {str(x): str((x + 1) % 3) for x in range(6)})

    def test_surjectivity(self, phi1, phi2, z6, z3):
        assert is_surjective(phi1)
        assert is_surjective(phi2)
        assert not is_surjective(hom(z3, z3, {e: "0" for e in z3.elements}))

    def test_keys_off_the_domain_are_ignored(self, z3):
        # Stray keys neither reach the map nor make a constant map onto.
        constant = hom(z3, z3, {"0": "0", "1": "0", "2": "0", "x": "1", "y": "2"})
        assert constant.mapping == {"0": "0", "1": "0", "2": "0"}
        assert not is_surjective(constant)

    def test_surjective_homs_enumeration(self, z6, z3):
        homs = surjective_homs(z6, z3)
        assert len(homs) == 2
        assert all(is_surjective(h) for h in homs)
        assert surjective_homs(z3, cyclic(4)) == []

    def test_closed_maps_are_homomorphisms(self):
        # _homs_by_closure yields without a product check; hom() checks every
        # product.  Every generator image is a candidate here, so the maps
        # include all that surjective_homs and group_isomorphic can see.
        groups = [
            cyclic(1), cyclic(2), cyclic(3), cyclic(4), cyclic(6),
            direct_product(cyclic(2), cyclic(2)), symmetric_group_3(), quaternion_group(),
        ]
        for a, b in itertools.product(groups, repeat=2):
            maps = list(_homs_by_closure(a, b, lambda g: list(range(b.order)), lambda phi: True))
            assert maps and len({tuple(m) for m in maps}) == len(maps)
            for m in maps:
                hom(a, b, {x: b.elements[k] for x, k in zip(a.elements, m)})
            for h in surjective_homs(a, b):
                assert hom(a, b, h.mapping).mapping == h.mapping


class TestSubdirectGroup:
    def test_order_twelve(self, phi1, phi2):
        sd = subdirect_group(phi1, phi2)
        assert sd.E.order == 12

    def test_diagonal(self, z3):
        ident = hom(z3, z3, {e: e for e in z3.elements})
        sd = subdirect_group(ident, ident)
        assert sd.E.order == 3
        assert group_isomorphic(sd.E, z3)

    def test_trivial_amalgam_gives_direct_product(self, z3):
        one = cyclic(1)
        collapse = hom(z3, one, {e: "0" for e in z3.elements})
        sd = subdirect_group(collapse, collapse)
        assert sd.E.order == 9

    def test_requires_surjectivity(self, z3):
        constant = hom(z3, z3, {e: "0" for e in z3.elements})
        with pytest.raises(NotSurjective):
            subdirect_group(constant, constant)

    def test_order_formula_across_family(self):
        groups = [cyclic(2), cyclic(3), cyclic(4), cyclic(6)]
        for a, b in itertools.product(groups, repeat=2):
            for target in groups:
                for ea in surjective_homs(a, target):
                    for eb in surjective_homs(b, target):
                        sd = subdirect_group(ea, eb)
                        assert sd.E.order * target.order == a.order * b.order

    def test_quotient_structure(self, phi1, phi2):
        sd = subdirect_group(phi1, phi2)
        inner = [
            i
            for i, m in enumerate(sd.E.elements)
            if phi1(split_pair_label(m)[0]) == identity(sd.amalgam)
        ]
        q = quotient_group(sd.E, subgroup(sd.E, inner))
        assert group_isomorphic(q, sd.amalgam)

    def test_labels_with_top_level_commas(self):
        # A comma outside parentheses breaks the label grammar; inside them
        # it is an element label like any other.
        with pytest.raises(ParseError, match=r"^group element 'e,0' breaks the label grammar"):
            make_group(
                ["e,0", "g,1"],
                {("e,0", "e,0"): "e,0", ("e,0", "g,1"): "g,1", ("g,1", "e,0"): "g,1", ("g,1", "g,1"): "e,0"},
            )
        z2 = make_group(
            ["(e,0)", "(g,1)"],
            {("(e,0)", "(e,0)"): "(e,0)", ("(e,0)", "(g,1)"): "(g,1)", ("(g,1)", "(e,0)"): "(g,1)", ("(g,1)", "(g,1)"): "(e,0)"},
        )
        eps = hom(z2, cyclic(2), {"(e,0)": "0", "(g,1)": "1"})
        sd = subdirect_group(eps, eps)
        assert sd.E.order == 2
        assert sd.delta_A.mapping == sd.delta_B.mapping == dict(zip(sd.E.elements, z2.elements))


# --- reference subdirect group ---------------------------------------------------
#
# The route subdirect_group took before it built E from its own pairs: the
# whole direct product A × B, cut down to the pairs with equal images.  E
# must come out with the same elements, table and identity, in the same
# order.


def reference_subdirect_e(eps_a, eps_b) -> FiniteGroup:
    a, b = eps_a.domain, eps_b.domain
    members = [
        pair_label(x, y)
        for x in a.elements
        for y in b.elements
        if eps_a(x) == eps_b(y)
    ]
    product = direct_product(a, b)
    return subgroup(product, [product.index[m] for m in members])


def assert_same_group(e, expected):
    assert e.elements == expected.elements
    assert list(table(e).items()) == list(table(expected).items())
    assert e.identity == expected.identity
    assert e.to_json() == expected.to_json()


def assert_group_by_construction(g):
    """A derived group equals what make_group finds in its own table."""
    again = make_group(g.elements, table(g))
    assert_same_group(g, again)
    assert g.rows == again.rows and g.inverse == again.inverse
    assert g.index == again.index


def assert_identities_by_reference(sd):
    """The paper's identities by the brute-force route: ker delta_A ≅ ker
    eps_B, ker delta_B ≅ ker eps_A, and E/(ker delta_A · ker delta_B) ≅ C."""
    e, c = sd.E, sd.amalgam
    assert group_isomorphic(kernel(sd.delta_A), kernel(sd.eps_B))
    assert group_isomorphic(kernel(sd.delta_B), kernel(sd.eps_A))
    inner = [i for i, m in enumerate(e.elements) if sd.eps_A(sd.delta_A(m)) == identity(c)]
    assert group_isomorphic(quotient_group(e, subgroup(e, inner)), c)


def klein_on_digits() -> FiniteGroup:
    """Z2 × Z2 on the labels of Z4: k stands for (k // 2, k % 2), so the
    product is bitwise exclusive or."""
    elems = [str(k) for k in range(4)]
    return make_group(elems, {(str(x), str(y)): str(x ^ y) for x in range(4) for y in range(4)})


class TestDerivedGroups:
    """Groups the library derives are built without make_group; each must
    be exactly the group make_group finds in its table."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_cyclic(self, n):
        assert_group_by_construction(cyclic(n))

    def test_direct_products(self):
        factors = [cyclic(1), cyclic(2), cyclic(3), cyclic(4), symmetric_group_3(), quaternion_group()]
        for a, b in itertools.product(factors, repeat=2):
            assert_group_by_construction(direct_product(a, b))

    def test_kernels(self):
        z2 = cyclic(2)
        homs = [sign_hom(symmetric_group(n), z2) for n in (3, 4)]
        groups = [cyclic(4), cyclic(6), direct_product(cyclic(2), cyclic(2)), quaternion_group()]
        for a, b in itertools.product(groups, [z2, cyclic(3), direct_product(cyclic(2), cyclic(2))]):
            homs += surjective_homs(a, b)
        assert len(homs) > 10
        for h in homs:
            assert_group_by_construction(kernel(h))

    def test_empty_subset_is_not_a_subgroup(self, z6):
        with pytest.raises(NotAGroup):
            subgroup(z6, [])

    def test_subset_not_closed_is_not_a_subgroup(self, z6):
        with pytest.raises(NotAGroup, match=r"^subset not closed: \('1', '1'\)$"):
            subgroup(z6, [0, 1])

    def test_pair_label_clash(self):
        # pair_label("1", "a,b") == pair_label("1,a", "b") == "(1,a,b)":
        # the groups whose labels would clash are refused, and with the
        # commas inside parentheses the pairs have distinct labels.
        def z2_on(e, g):
            return make_group([e, g], {(e, e): e, (e, g): g, (g, e): g, (g, g): e})

        with pytest.raises(ParseError, match=r"^group element '1,a' breaks the label grammar"):
            z2_on("1", "1,a")
        with pytest.raises(ParseError, match=r"^group element 'a,b' breaks the label grammar"):
            z2_on("b", "a,b")
        a, b = z2_on("1", "(1,a)"), z2_on("b", "(a,b)")
        pairs = list(itertools.product(range(a.order), range(b.order)))
        assert _pair_group(a, b, pairs).elements == ("(1,b)", "(1,(a,b))", "((1,a),b)", "((1,a),(a,b))")
        assert direct_product(a, b).order == 4

    def test_no_make_group_on_derived_groups(self, monkeypatch):
        import bundleforge.groups as groups

        def refuse(*args, **kwargs):
            raise AssertionError("make_group called on a derived group")

        monkeypatch.setattr(groups, "make_group", refuse)
        with pytest.raises(AssertionError):
            FiniteGroup.from_json(cyclic(2).to_json())
        data = invariance_case_z2z3_z6()
        sd = subdirect_group(data["phi1"], data["phi2"])
        assert sd.E.order == 12
        assert kernel(data["phi2"]).elements == ("0", "3")
        assert direct_product(cyclic(2), cyclic(3)).order == 6
        assert verify_invariance(data["phi1"], data["phi2"], data["s1"], data["s01"], data["s02"])

    def test_codomains_with_one_labelling_and_two_tables(self):
        # Z4 and Z2 × Z2 both on "0".."3": equal labels, different groups.
        z4, klein = cyclic(4), klein_on_digits()
        eps_a = hom(cyclic(8), z4, {str(x): str(x % 4) for x in range(8)})
        cube = direct_product(direct_product(cyclic(2), cyclic(2)), cyclic(2))

        def to_klein(m: str) -> str:
            pair, _ = split_pair_label(m)
            x, y = split_pair_label(pair)
            return str(2 * int(x) + int(y))

        eps_b = hom(cube, klein, {m: to_klein(m) for m in cube.elements})
        assert z4.elements == klein.elements
        for first, second in [(eps_a, eps_b), (eps_b, eps_a)]:
            with pytest.raises(NotSurjective, match="epimorphisms must share a codomain"):
                subdirect_group(first, second)
        # Two builds of one group are one codomain.
        again = hom(cyclic(4), cyclic(4), {str(x): str(x) for x in range(4)})
        assert subdirect_group(eps_a, again).E.order == 8


class TestSubdirectGroupAgainstReference:
    def test_every_epimorphism_pair_among_small_groups(self):
        groups = [
            cyclic(2),
            cyclic(3),
            cyclic(4),
            cyclic(6),
            direct_product(cyclic(2), cyclic(2)),
            direct_product(cyclic(2), cyclic(3)),
        ]
        pairs = 0
        for target in groups:
            epis = [eps for a in groups for eps in surjective_homs(a, target)]
            for ea, eb in itertools.product(epis, repeat=2):
                sd = subdirect_group(ea, eb)
                assert_same_group(sd.E, reference_subdirect_e(ea, eb))
                assert_group_by_construction(sd.E)
                assert_identities_by_reference(sd)
                # The projections are built without a product check.
                hom(sd.E, ea.domain, sd.delta_A.mapping)
                hom(sd.E, eb.domain, sd.delta_B.mapping)
                pairs += 1
        assert pairs == 157

    def test_sign_map_of_s3(self):
        s3, z2 = symmetric_group_3(), cyclic(2)
        (sign,) = surjective_homs(s3, z2)
        assert sign("102") == "1" and sign("120") == "0"
        others = [eps for a in (z2, cyclic(4), cyclic(6)) for eps in surjective_homs(a, z2)]
        for ea, eb in [(sign, sign)] + [(sign, o) for o in others] + [(o, sign) for o in others]:
            sd = subdirect_group(ea, eb)
            assert_same_group(sd.E, reference_subdirect_e(ea, eb))
            assert_group_by_construction(sd.E)
            assert_identities_by_reference(sd)
        assert subdirect_group(sign, sign).E.order == 18

    def test_sign_map_of_s4(self):
        z2 = cyclic(2)
        sign = sign_hom(symmetric_group(4), z2)
        sd = subdirect_group(sign, sign)
        assert sd.E.order == 288
        assert_same_group(sd.E, reference_subdirect_e(sign, sign))
        assert_group_by_construction(sd.E)
        assert_identities_by_reference(sd)


class TestGeneratorSystems:
    def test_rejects_identity(self, z6):
        with pytest.raises(InvalidGeneratorSystem):
            generator_system(z6, ["0", "1", "5"])

    def test_rejects_asymmetric(self, z6):
        with pytest.raises(InvalidGeneratorSystem):
            generator_system(z6, ["1"])

    def test_rejects_non_generating(self, z6):
        with pytest.raises(InvalidGeneratorSystem):
            generator_system(z6, ["2", "4"])

    def test_unknown_labels_are_named(self, z6):
        for route in (generator_system, symmetric_closure):
            with pytest.raises(InvalidGeneratorSystem, match="labels are not group elements: \\['banana'\\]"):
                route(z6, ["1", "5", "banana"])

    def test_symmetric_closure_reports_additions(self, z6):
        closed, added = symmetric_closure(z6, ["1", "3"])
        assert closed == ("1", "3", "5")
        assert added == ("5",)

    @pytest.mark.parametrize(
        "group",
        [cyclic(2), cyclic(3), cyclic(4), cyclic(6), direct_product(cyclic(2), cyclic(2)),
         direct_product(cyclic(2), cyclic(3)), symmetric_group_3(), quaternion_group()],
        ids=["z2", "z3", "z4", "z6", "z2xz2", "z2xz3", "s3", "q8"],
    )
    def test_enumerated_sets_pass_validation(self, group):
        # The enumeration builds each set directly; generator_system takes
        # every one as it is, members in the same order, and a search over
        # all subsets by labels finds the same sets.
        systems = symmetric_generating_sets(group)
        assert systems
        for s in systems:
            assert generator_system(group, s.members).members == s.members
        others = [x for x in group.elements if x != identity(group)]
        subsets = (c for r in range(len(others) + 1) for c in itertools.combinations(others, r))
        expected = [
            c for c in subsets
            if all(inv(group, x) in c for x in c) and generated_subgroup(group, c) == group.elements
        ]
        assert sorted(s.members for s in systems) == sorted(expected)

    def test_enumeration_over_blocks(self, z6):
        systems = symmetric_generating_sets(z6)
        members = {frozenset(s.members) for s in systems}
        assert frozenset({"1", "5"}) in members
        assert frozenset({"2", "4"}) not in members
        assert frozenset({"2", "3", "4"}) in members


class TestCayleyGraphs:
    def test_z4_sparse_generators_give_cycle(self):
        z4 = cyclic(4)
        g = cayley_graph(z4, generator_system(z4, ["1", "3"]))
        assert find_isomorphism(g, cycle_graph(4)) is not None

    def test_z4_full_generators_give_complete(self):
        z4 = cyclic(4)
        g = cayley_graph(z4, generator_system(z4, ["1", "2", "3"]))
        assert find_isomorphism(g, complete_graph(4)) is not None

    def test_z6_twisted_ladder(self, z6):
        g = cayley_graph(z6, generator_system(z6, ["1", "3", "5"]))
        assert find_isomorphism(g, mobius_ladder_3()) is not None

    def test_regularity(self, z6):
        s = generator_system(z6, ["1", "5"])
        g = cayley_graph(z6, s)
        assert all(degree(g, v) == len(s) for v in g.vertices)

    def test_vertex_transitivity(self, z6):
        g = cayley_graph(z6, generator_system(z6, ["1", "3", "5"]))
        for a in z6.elements:
            left = {x: mul(z6, a, x) for x in z6.elements}
            assert is_isomorphism(left, g, g)

    def test_vertex_transitivity_order_twelve(self, phi1, phi2):
        e = subdirect_group(phi1, phi2).E
        gens = generator_system(
            e, ["((1,0),0)", "((0,0),3)", "((0,1),1)", "((0,2),5)"]
        )
        g = cayley_graph(e, gens)
        for a in e.elements:
            left = {x: mul(e, a, x) for x in e.elements}
            assert is_isomorphism(left, g, g)


class TestAdmissibility:
    def test_abelian_always_admissible(self, z6, phi2):
        s0 = generator_system(kernel(phi2), ["3"])
        assert is_admissible(s0, z6)

    def test_full_kernel_admissible_nonabelian(self):
        s3 = symmetric_group_3()
        sign_map = {e: "0" if e in ("012", "120", "201") else "1" for e in s3.elements}
        sign = hom(s3, cyclic(2), sign_map)
        ker = kernel(sign)
        s0 = generator_system(ker, [e for e in ker.elements if e != identity(s3)])
        assert is_admissible(s0, s3)

    def test_three_cycles_admissible_in_s3(self):
        s3 = symmetric_group_3()
        sign = hom(s3, cyclic(2), {e: "0" if e in ("012", "120", "201") else "1" for e in s3.elements})
        ker = kernel(sign)
        s0 = generator_system(ker, ["120", "201"])
        assert is_admissible(s0, s3)

    def test_kernel_set_off_the_ambient_group_is_named(self, phi2, z3):
        # Before, is_admissible raised a raw KeyError: '(1,0)'.
        s1 = generator_system(z3, ["1", "2"])
        s0 = generator_system(direct_product(cyclic(2), cyclic(1)), ["(1,0)"])
        with pytest.raises(InvalidGeneratorSystem, match=r"not group elements: \['\(1,0\)'\]"):
            induced_generators(phi2, s1, s0)


class TestCallerSections:
    """A section from outside must lift every generator into its preimage."""

    def test_lift_off_the_preimage_is_refused(self, phi2, z3):
        # phi2(2) = 2, not 1.  The induced set {2, 3, 4} still generates
        # Z6, so before this check a verified 6-vertex bundle came back.
        s1 = generator_system(z3, ["1", "2"])
        s0 = generator_system(kernel(phi2), ["3"])
        for route in (induced_generators, cayley_bundle):
            with pytest.raises(NoTransversalSection, match="generator '1'"):
                route(phi2, s1, s0, {"1": "2", "2": "4"})

    def test_the_same_lifts_on_the_right_generators_are_accepted(self, phi2, z3):
        s1 = generator_system(z3, ["1", "2"])
        s0 = generator_system(kernel(phi2), ["3"])
        b = cayley_bundle(phi2, s1, s0, {"1": "4", "2": "2"})
        assert (b.total.n, len(b.total.ends)) == (6, 9)

    @pytest.mark.parametrize(
        "section, generator",
        [({"1": "4"}, "2"), ({"1": "4", "2": "zz"}, "2"), ({}, "1")],
        ids=["missing", "not-an-element", "empty"],
    )
    def test_invariance_refuses_a_section_before_either_side(self, section, generator):
        # Before, a missing generator raised a raw KeyError: '2'.
        data = invariance_case_z2z3_z6()
        with pytest.raises(NoTransversalSection, match=f"generator '{generator}'"):
            verify_invariance(
                data["phi1"], data["phi2"], data["s1"], data["s01"], data["s02"], section2=section
            )

    def test_invariance_accepts_a_caller_section(self):
        data = invariance_case_z2z3_z6()
        assert verify_invariance(
            data["phi1"], data["phi2"], data["s1"], data["s01"], data["s02"], section2={"1": "4", "2": "2"}
        )

    def test_a_value_that_is_no_label_is_refused(self, phi2, z3):
        # Before, the list was looked up as it was: TypeError: unhashable
        # type: 'list'.
        s1 = generator_system(z3, ["1", "2"])
        s0 = generator_system(kernel(phi2), ["3"])
        for route in (induced_generators, cayley_bundle):
            with pytest.raises(NoTransversalSection, match="generator '1'"):
                route(phi2, s1, s0, {"1": ["1"], "2": "5"})
        data = invariance_case_z2z3_z6()
        with pytest.raises(NoTransversalSection, match="generator '1'"):
            verify_invariance(data["phi1"], data["phi2"], data["s1"], data["s01"], data["s02"], section2={"1": ["1"], "2": "5"})

    def test_integers_read_as_their_decimal_labels(self, phi2, z3):
        # As hom reads them; before, {"1": 4, "2": 2} lifted nothing.
        s1 = generator_system(z3, ["1", "2"])
        s0 = generator_system(kernel(phi2), ["3"])
        b = cayley_bundle(phi2, s1, s0, {"1": "4", "2": "2"})
        for section in ({"1": 4, "2": 2}, {1: 4, 2: 2}):
            other = cayley_bundle(phi2, s1, s0, section)
            assert (other.total, other.projection.position_map, other.fiber) == (b.total, b.projection.position_map, b.fiber)
        data = invariance_case_z2z3_z6()
        assert verify_invariance(data["phi1"], data["phi2"], data["s1"], data["s01"], data["s02"], section2={1: 4, 2: 2})


class TestTransversalSections:
    def test_projection_case(self, phi1, z3):
        s1 = generator_system(z3, ["1", "2"])
        assert transversal_section(phi1, s1) == {"1": "(0,1)", "2": "(0,2)"}

    def test_mod3_case(self, phi2, z3):
        s1 = generator_system(z3, ["1", "2"])
        assert transversal_section(phi2, s1) == {"1": "1", "2": "5"}

    def test_identity_hom_fixes_generators(self, z3):
        ident = hom(z3, z3, {e: e for e in z3.elements})
        s1 = generator_system(z3, ["1", "2"])
        assert transversal_section(ident, s1) == {"1": "1", "2": "2"}

    def test_no_involutive_lift(self):
        z4 = cyclic(4)
        phi = hom(z4, cyclic(2), {str(x): str(x % 2) for x in range(4)})
        s1 = generator_system(cyclic(2), ["1"])
        # Both preimages of the involution have order four.
        with pytest.raises(NoTransversalSection):
            transversal_section(phi, s1)

    def test_generator_system_of_another_group(self, phi2):
        s1 = generator_system(cyclic(4), ["1", "3"])
        s0 = generator_system(kernel(phi2), ["3"])
        for route in (
            lambda: transversal_section(phi2, s1),
            lambda: induced_generators(phi2, s1, s0),
            lambda: cayley_bundle(phi2, s1, s0),
        ):
            with pytest.raises(InvalidGeneratorSystem, match="generator system belongs to a different group"):
                route()

    def test_generator_system_of_a_group_with_the_same_labels(self):
        # {1, 2} generates Z2 × Z2 on the labels of Z4, but is not
        # symmetric in Z4.
        z4, s = cyclic(4), generator_system(klein_on_digits(), ["1", "2"])
        phi = hom(cyclic(8), z4, {str(x): str(x % 4) for x in range(8)})
        for route in (lambda: transversal_section(phi, s), lambda: cayley_graph(z4, s)):
            with pytest.raises(InvalidGeneratorSystem, match="generator system belongs to a different group"):
                route()
        assert cayley_graph(z4, generator_system(cyclic(4), ["1", "3"])).n == 4

    def test_map_that_is_not_onto_is_refused(self, z3):
        # The zero map reaches the identity alone; its kernel is Z3.
        zero = hom(z3, z3, {e: "0" for e in z3.elements})
        s1 = s0 = generator_system(z3, ["1", "2"])
        for route, what in (
            (lambda: transversal_section(zero, s1), "transversal section"),
            (lambda: induced_generators(zero, s1, s0), "transversal section"),
            (lambda: cayley_bundle(zero, s1, s0), "cayley bundle"),
        ):
            with pytest.raises(NotSurjective, match=f"^{what} needs a surjective homomorphism$"):
                route()

    def test_involutive_lift_found_when_present(self, z6):
        phi = hom(z6, cyclic(2), {str(x): str(x % 2) for x in range(6)})
        s1 = generator_system(cyclic(2), ["1"])
        assert transversal_section(phi, s1) == {"1": "3"}


class TestInducedGenerators:
    def test_projection_case(self, phi1, z3):
        s1 = generator_system(z3, ["1", "2"])
        s0 = generator_system(kernel(phi1), ["(1,0)"])
        s_phi = induced_generators(phi1, s1, s0)
        assert set(s_phi.members) == {"(1,0)", "(0,1)", "(0,2)"}

    def test_mod3_case(self, phi2, z3):
        s1 = generator_system(z3, ["1", "2"])
        s0 = generator_system(kernel(phi2), ["3"])
        s_phi = induced_generators(phi2, s1, s0)
        assert set(s_phi.members) == {"1", "3", "5"}

    def test_identity_hom_empty_kernel_set(self, z3):
        ident = hom(z3, z3, {e: e for e in z3.elements})
        s1 = generator_system(z3, ["1", "2"])
        s0 = generator_system(kernel(ident), [])
        s_phi = induced_generators(ident, s1, s0)
        assert set(s_phi.members) == {"1", "2"}


class TestCayleyBundles:
    def test_kernel_set_closed_under_no_conjugation_is_refused(self):
        # Two transpositions generate S3, the kernel of the map onto the
        # trivial group, but their conjugate 210 is not among them.
        s3 = symmetric_group_3()
        onto_one = hom(s3, cyclic(1), {e: "0" for e in s3.elements})
        s1, s0 = generator_system(cyclic(1), []), generator_system(kernel(onto_one), ["102", "021"])
        for route in (induced_generators, cayley_bundle):
            with pytest.raises(InvalidGeneratorSystem, match="^kernel generating set is not admissible$"):
                route(onto_one, s1, s0)

    def test_kernel_set_over_another_group_is_refused(self, phi2, z3):
        s1 = generator_system(z3, ["1", "2"])
        with pytest.raises(InvalidGeneratorSystem, match="^kernel generating set is not over the kernel$"):
            cayley_bundle(phi2, s1, generator_system(z3, ["1", "2"]))

    def test_projection_gives_prism(self, phi1, z3, c3, k2):
        s1 = generator_system(z3, ["1", "2"])
        s0 = generator_system(kernel(phi1), ["(1,0)"])
        b = cayley_bundle(phi1, s1, s0)
        from bundleforge import cartesian_product

        assert find_isomorphism(b.total, cartesian_product(k2, c3)) is not None

    def test_mod3_gives_twisted_ladder(self, phi2, z3):
        s1 = generator_system(z3, ["1", "2"])
        s0 = generator_system(kernel(phi2), ["3"])
        b = cayley_bundle(phi2, s1, s0)
        assert find_isomorphism(b.total, mobius_ladder_3()) is not None

    def test_sign_hom_on_s3(self):
        s3 = symmetric_group_3()
        sign = hom(s3, cyclic(2), {e: "0" if e in ("012", "120", "201") else "1" for e in s3.elements})
        s1 = generator_system(cyclic(2), ["1"])
        s0 = generator_system(kernel(sign), ["120", "201"])
        b = cayley_bundle(sign, s1, s0)
        assert b.base.n == 2
        assert find_isomorphism(b.fiber, complete_graph(3)) is not None


class TestInvariance:
    def test_reference_case(self):
        data = invariance_case_z2z3_z6()
        assert verify_invariance(
            data["phi1"], data["phi2"], data["s1"], data["s01"], data["s02"]
        )

    def test_reference_generators(self):
        data = invariance_case_z2z3_z6()
        sd = subdirect_group(data["phi1"], data["phi2"])
        sec1 = transversal_section(data["phi1"], data["s1"])
        sec2 = transversal_section(data["phi2"], data["s1"])
        expected = {
            "((1,0),0)",  # kernel generator of the first factor
            "((0,0),3)",  # kernel generator of the second factor
            "((0,1),1)",  # paired section lift
            "((0,2),5)",  # its inverse
        }
        paired = {"(%s,%s)" % (sec1[s], sec2[s]) for s in data["s1"].members}
        bar1 = {"(%s,0)" % x for x in data["s01"].members}
        bar2 = {"((0,0),%s)" % y for y in data["s02"].members}
        assert bar1 | bar2 | paired == expected
        assert sd.E.order == 12

    def test_diagonal_case(self, z3):
        ident = hom(z3, z3, {e: e for e in z3.elements})
        s1 = generator_system(z3, ["1", "2"])
        s0 = generator_system(kernel(ident), [])
        assert verify_invariance(ident, ident, s1, s0, s0)

    def test_two_copies_of_mod3(self, phi2, z3):
        s1 = generator_system(z3, ["1", "2"])
        s0 = generator_system(kernel(phi2), ["3"])
        assert verify_invariance(phi2, phi2, s1, s0, s0)


class TestOncePerObject:
    """What a Cayley bundle is built from is derived once per object: the
    kernel per homomorphism, the Cayley graph per generator system and the
    K2 □ F profile per fiber graph."""

    def test_kernel_is_built_once(self, phi2):
        assert kernel(phi2) is kernel(phi2)
        assert kernel(phi2).elements == ("0", "3")

    def test_cayley_graph_is_built_once(self):
        z6 = cyclic(6)
        s = generator_system(z6, ["1", "5"])
        g = cayley_graph(z6, s)
        assert cayley_graph(z6, s) is g
        assert g.vertices == z6.elements
        assert find_isomorphism(g, cycle_graph(6)) is not None

    def test_generating_sets_are_enumerated_once(self):
        z6 = cyclic(6)
        first, again = symmetric_generating_sets(z6), symmetric_generating_sets(z6)
        assert first == again and first is not again
        assert all(a is b for a, b in zip(first, again))
        assert [s.members for s in first] == [
            ("1", "5"), ("1", "2", "4", "5"), ("1", "3", "5"), ("2", "3", "4"), ("1", "2", "3", "4", "5"),
        ]

    def test_cached_graph_keeps_the_checks(self):
        z4 = cyclic(4)
        s = generator_system(z4, ["1", "3"])
        cayley_graph(z4, s)
        with pytest.raises(InvalidGeneratorSystem, match="generator system belongs to a different group"):
            cayley_graph(klein_on_digits(), s)
        with_identity = GeneratorSystem(z4, (0, 1, 3))
        with pytest.raises(InvalidGeneratorSystem, match="generating set contains the identity"):
            cayley_graph(z4, with_identity)
        with pytest.raises(InvalidGeneratorSystem, match="generating set contains the identity"):
            cayley_graph(z4, with_identity)

    def test_box_profile_of_the_fiber_is_built_once_per_kernel_set(self, monkeypatch):
        # Z32 -> Z8: the kernel {0, 8, 16, 24} is a C4 fiber, and six
        # generating sets of Z8 have a transversal section.
        phi = hom(cyclic(32), cyclic(8), {str(x): str(x % 8) for x in range(32)})
        s0 = generator_system(kernel(phi), ["8", "24"])
        fiber = cayley_graph(kernel(phi), s0)
        box = sorted(map(sorted, cartesian_product(complete_graph(2), fiber).neighbor_indices))
        profiled = []
        search_profile = graphs.search_profile

        def spy(shape):
            profiled.append(sorted(map(sorted, shape)) == box)
            return search_profile(shape)

        monkeypatch.setattr(graphs, "search_profile", spy)
        built = []
        for s1 in symmetric_generating_sets(cyclic(8)):
            try:
                section = transversal_section(phi, s1)
            except NoTransversalSection:
                continue
            built.append(cayley_bundle(phi, s1, s0, section))
        assert len(built) == 6
        assert profiled.count(True) == 1
        assert all(b.fiber is fiber for b in built)
