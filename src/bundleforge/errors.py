"""Exception types shared across the package.

Every failure mode carries the witness that triggered it, so callers can
report exactly which vertex, edge, or pair broke an invariant.
"""

from __future__ import annotations


class BundleForgeError(Exception):
    """Base class for all library errors."""


class ParseError(BundleForgeError):
    """Malformed JSON input or schema violation."""


# --- graph construction -------------------------------------------------

class DuplicateVertex(BundleForgeError):
    pass


class LoopEdge(BundleForgeError):
    pass


class UnknownEndpoint(BundleForgeError):
    pass


class UnknownVertex(BundleForgeError):
    pass


# --- morphisms ----------------------------------------------------------

class NotAMorphism(BundleForgeError):
    """A vertex map violates the weak morphism condition on some edge."""


# --- search budgets -----------------------------------------------------

class SearchBudgetExceeded(BundleForgeError):
    """Isomorphism search ran out of nodes; result is unknown, not negative."""


class EnumerationBoundExceeded(BundleForgeError):
    """An exhaustive enumeration would exceed its configured cap."""


# --- matrices -----------------------------------------------------------

class ShapeMismatch(BundleForgeError):
    pass


class NotSymmetric(BundleForgeError):
    pass


class NotFinite(BundleForgeError):
    """A matrix handed to the eigensolver has an infinite or NaN entry."""


class NotConverged(BundleForgeError):
    """Implicit QL hit its per-eigenvalue iteration cap; names the eigenvalue
    not isolated and the iterations spent on it."""


class NotABijection(BundleForgeError):
    pass


# --- bundles ------------------------------------------------------------

class FiberNotIsomorphic(BundleForgeError):
    pass


class NotACovering(BundleForgeError):
    pass


class TransitionNotIso(BundleForgeError):
    pass


class LocalTrivialityFails(BundleForgeError):
    pass


class BaseMismatch(BundleForgeError):
    pass


class FiberMismatch(BundleForgeError):
    pass


class TotalMismatch(BundleForgeError):
    """A projection's domain is not the total space it is verified against."""


# --- pullbacks and pairings ----------------------------------------------

class CompositesDisagree(BundleForgeError):
    pass


class CompositeCollapses(BundleForgeError):
    """The shared composite collapses an edge, so no paired map exists."""


# --- groups ---------------------------------------------------------------

class NotAGroup(BundleForgeError):
    """A multiplication table violates a group axiom; carries the witness."""


class NotAHomomorphism(BundleForgeError):
    pass


class NotSurjective(BundleForgeError):
    pass


class InvalidGeneratorSystem(BundleForgeError):
    pass


class NoTransversalSection(BundleForgeError):
    """No symmetric one-lift-per-generator section exists for the datum."""
