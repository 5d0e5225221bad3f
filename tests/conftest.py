import pytest

from bundleforge import Perm, complete_graph, cycle_graph, empty_graph, make_fiber_voltage, path_graph
from bundleforge.named import (
    hexagonal_prism,
    mobius_ladder_3,
    mod3_projection,
    twisted_hexagonal_ladder,
    twisted_ladder_voltage,
)


@pytest.fixture
def k2():
    return complete_graph(2)


@pytest.fixture
def k3():
    return complete_graph(3)


@pytest.fixture
def c3():
    return cycle_graph(3)


@pytest.fixture
def c4():
    return cycle_graph(4)


@pytest.fixture
def c6():
    return cycle_graph(6)


@pytest.fixture
def p3():
    return path_graph(3)


@pytest.fixture
def two_k1():
    return empty_graph(2)


@pytest.fixture
def m3():
    return mobius_ladder_3()


@pytest.fixture
def m62():
    return twisted_hexagonal_ladder()


@pytest.fixture
def c6k2():
    return hexagonal_prism()


@pytest.fixture
def p_c6_c3(c6):
    """Double-cover projection of the hexagon onto the triangle."""
    return mod3_projection(c6)


@pytest.fixture
def q_m3_c3(m3):
    return mod3_projection(m3)


@pytest.fixture
def m3_voltage():
    return twisted_ladder_voltage()


@pytest.fixture
def c9_rotation_voltage(c6):
    """Rotations of a 9-cycle fiber over the hexagon: four distinct values,
    on a fiber too large for automorphism enumeration."""
    rotation = Perm(tuple((i + 1) % 9 for i in range(9)))
    ident = Perm.identity(9)
    values = [rotation, rotation.compose(rotation), ident, rotation.inverse(), rotation, ident]
    return make_fiber_voltage(c6, cycle_graph(9), dict(zip(c6.edge_list(), values)))
