"""Exception types shared across the package.

Everything derives from TreeWindowError so callers (and the CLI) can catch
one base class.  "Not found" and "not applicable" are legitimate outcomes,
not errors, and are represented by return values instead.
"""

from __future__ import annotations


class TreeWindowError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(TreeWindowError):
    """Malformed input file.  Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NotATreeError(TreeWindowError):
    """Adjacency data does not describe a tree (cycle, disconnected, asymmetric)."""


class WeightError(TreeWindowError):
    """Vertex weight out of range (weights must be >= 1, totals must fit in 62 bits)."""


class DegenerateTreeError(TreeWindowError):
    """The tree has a single vertex, so it has no closed walk to traverse."""


class WeightExceedsTargetError(TreeWindowError):
    """Some vertex weight exceeds the target k, violating the search precondition."""


class InstanceTooLargeError(TreeWindowError):
    """Exhaustive oracle table would exceed the configured size bound."""


class EmbeddingError(TreeWindowError):
    """Rotation system fails the Euler formula check or is otherwise inconsistent."""


class NotHamiltonianError(TreeWindowError):
    """The claimed hamilton cycle is not a hamilton cycle of the graph."""


class PreconditionError(TreeWindowError):
    """Input violates a documented structural precondition (connectivity, degree, parity)."""


class StructureError(TreeWindowError):
    """Reached a state the underlying theory rules out; indicates bad input or a bug."""


class InvariantError(TreeWindowError, AssertionError):
    """A proven guarantee failed to hold, which can only be a bug.  Raised
    explicitly, so the check survives python -O; an AssertionError too, so
    callers that catch failed assertions still catch it."""
