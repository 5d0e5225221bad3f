"""Permutations: composition across sizes, and the results that skip the
bijection check against the validating constructor."""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from bundleforge import Perm
from bundleforge.errors import ShapeMismatch
from bundleforge.perms import kron


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
        "conjugate": p.conjugate(q),
    }
    for perm in built.values():
        assert Perm(perm.images) == perm
    assert [built["compose"](i) for i in range(p.n)] == [p(q(i)) for i in range(p.n)]
    assert p.compose(built["inverse"]).is_identity()
    assert [kron(p, r)(i * r.n + j) for i in range(p.n) for j in range(r.n)] == [
        p(i) * r.n + r(j) for i in range(p.n) for j in range(r.n)
    ]


@dataclass(frozen=True, order=True)
class GeneratedPerm:
    """A Perm's one field with the hash that dataclass generates."""

    images: tuple


@given(st.lists(st.permutations(range(5)), max_size=30))
@settings(max_examples=50, deadline=None)
def test_perm_hash_is_the_generated_one(drawn):
    perms = [Perm(tuple(x)) for x in drawn]
    trusted = [Perm._trusted(tuple(x)) for x in drawn]
    generated = [GeneratedPerm(tuple(x)) for x in drawn]
    for p, q, r in zip(perms, trusted, generated):
        assert hash(p) == hash(q) == hash(r) == hash(p)
        assert p == q and {p: 1}[q] == 1
    assert sorted(perms) == sorted(trusted)
    assert [p.images for p in sorted(perms)] == [r.images for r in sorted(generated)]
    # Equal hashes and insertion order give sets the same iteration order.
    assert [p.images for p in set(perms)] == [r.images for r in set(generated)]
    assert [p.images for p in dict.fromkeys(trusted)] == [r.images for r in dict.fromkeys(generated)]
