"""Permutations: a Perm is its image tuple, composition needs equal sizes,
and the results built without the bijection check equal validated ones."""

import pytest
from hypothesis import given, settings, strategies as st

from bundleforge import Perm
from bundleforge.errors import NotABijection, ShapeMismatch
from bundleforge.perms import kron
from conftest import conjugate


@pytest.mark.parametrize("p, q", [(Perm((0, 1, 2)), Perm((1, 0))), (Perm((1, 0)), Perm((0, 1, 2)))])
def test_compose_needs_equal_sizes(p, q):
    with pytest.raises(ShapeMismatch, match=f"{p.n} and {q.n} points"):
        p.compose(q)


def perms(n):
    return st.permutations(range(n)).map(lambda images: Perm(tuple(images)))


@st.composite
def perm_pairs(draw):
    n = draw(st.integers(0, 7))
    return draw(perms(n)), draw(perms(n)), draw(perms(draw(st.integers(0, 4))))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(perm_pairs())
def test_built_perms_equal_validated_ones(case):
    p, q, r = case
    built = {
        "compose": p.compose(q),
        "inverse": p.inverse(),
        "kron": kron(p, r),
        "identity": Perm.identity(p.n),
        "conjugate": conjugate(p, q),
    }
    for perm in built.values():
        assert type(perm) is Perm and Perm(perm) == perm
    assert [built["compose"][i] for i in range(p.n)] == [p[q[i]] for i in range(p.n)]
    assert p.compose(built["inverse"]).is_identity()
    assert [kron(p, r)[i * r.n + j] for i in range(p.n) for j in range(r.n)] == [
        p[i] * r.n + r[j] for i in range(p.n) for j in range(r.n)
    ]


@pytest.mark.parametrize("images", [(0, 0), (1, 2), (0, 2, 2), (-1, 0)])
def test_validating_constructor_refuses_non_bijections(images):
    with pytest.raises(NotABijection, match="not a permutation of"):
        Perm(images)


@given(st.lists(st.permutations(range(5)), max_size=30))
@settings(max_examples=50, deadline=None)
def test_perm_is_its_image_tuple(drawn):
    tuples = [tuple(x) for x in drawn]
    perms = [Perm(t) for t in tuples]
    for p, t in zip(perms, tuples):
        assert p == t and t == p and hash(p) == hash(t)
    # A Perm and its image tuple are the same dict and set key.
    assert {p: k for k, p in enumerate(perms)} == {t: k for k, t in enumerate(tuples)}
    assert all({t: k}[p] == k for k, (p, t) in enumerate(zip(perms, tuples)))
    assert set(perms) == set(tuples) and all(p in set(tuples) for p in perms)
    # Sorted order is that of the image tuples.
    assert [tuple(p) for p in sorted(perms)] == sorted(tuples)
    # Equal hashes and insertion order give sets the same iteration order.
    assert [tuple(p) for p in set(perms)] == list(set(tuples))
    assert [tuple(p) for p in dict.fromkeys(perms)] == list(dict.fromkeys(tuples))


def test_repr_is_unchanged():
    assert [repr(Perm(t)) for t in [(1, 0, 2), (0,), ()]] == ["Perm(1, 0, 2)", "Perm(0,)", "Perm()"]
