"""Permutations: composition across sizes, and the results that skip the
bijection check against the validating constructor."""

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
