"""Constructive toolkit for graph bundles and their products.

Submodules:
  graphs    finite simple graphs, weak morphisms, isomorphism search
  matrices  dense matrices, the voltage-adjacency kernel, the symmetric
            eigensolver (Householder tridiagonalization + implicit QL)
  bundles   fiber voltages and their adjacency, total spaces, bundle
            verification, equivalence
  products  box and strong products, k-fold coverings (bundles over an
            edgeless fiber)
  pullback  pullback bundles, subdirect products, typed edges, sections
  ktheory   bundle-class monoids and bounded Grothendieck verdicts
  groups    finite groups, Cayley graphs, subdirect groups, bundle theorems
  cli       command-line interface

Only ``matrices`` imports numpy at load time.  No other module imports
numpy or the matrix layer at load time: the functions that build a Matrix
or a Spectrum import them when they run, and the package serves Matrix,
Spectrum, adjacency_matrix and spectrum through a module
``__getattr__`` that imports the layer on first access and caches each
name here.  So ``import bundleforge`` and the combinatorial verbs of the
CLI run without numpy.
"""

from .graphs import (
    Graph,
    GraphMorphism,
    automorphisms,
    complete_graph,
    compose,
    cycle_graph,
    empty_graph,
    find_isomorphism,
    induced_subgraph,
    make_graph,
    make_morphism,
    path_graph,
    preserves_edges,
    star_graph,
    validate_morphism,
)
from .perms import Perm
from .bundles import (
    FiberVoltage,
    GraphBundle,
    bundle_adjacency,
    bundle_to_voltage,
    bundles_equivalent,
    is_trivial,
    make_fiber_voltage,
    trivial_voltage,
    verify_bundle,
    voltage_bundle,
)
from .products import (
    cartesian_product,
    cartesian_spectrum,
    covering_adjacency,
    strong_product,
    strong_spectrum,
    verify_kfold_covering,
)
from .pullback import (
    PullbackBundle,
    canonical_map,
    compose_pullbacks_check,
    is_section,
    mixed_base_subdirect,
    pair_morphism,
    pullback_adjacency,
    pullback_bundle,
    pullback_voltage,
    subdirect_adjacency,
    subdirect_product,
)
from .ktheory import (
    BundleClass,
    KClassMonoid,
    KGroupElement,
    enumerate_bundle_classes,
    fiber_power,
    grothendieck_equal,
    k0_map,
)
from .groups import (
    FiniteGroup,
    GeneratorSystem,
    GroupHom,
    SubdirectGroup,
    cayley_bundle,
    cayley_graph,
    cyclic,
    direct_product,
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
    symmetric_generating_sets,
    admissible_generating_sets,
    transversal_section,
    verify_invariance,
)

__version__ = "0.1.0"

#: Public names of the matrix layer, imported with numpy on first access.
_MATRIX_NAMES = frozenset({"Matrix", "Spectrum", "adjacency_matrix", "spectrum"})


def __getattr__(name: str):
    """A matrix-layer name, imported on first access and then cached in the
    package, so that later reads are plain attribute lookups (PEP 562)."""
    if name not in _MATRIX_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import matrices

    value = globals()[name] = getattr(matrices, name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _MATRIX_NAMES)
