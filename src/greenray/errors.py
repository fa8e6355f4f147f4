"""Exception hierarchy.

Every error raised by the library is a subclass of :class:`GreenrayError`,
so CLI wrappers can map failures one-to-one onto documented error names.
"""

from __future__ import annotations


class GreenrayError(Exception):
    """Base class for all library errors."""


class InvalidInput(GreenrayError, ValueError):
    """An argument lies outside the documented domain of a function."""


class NonFinite(GreenrayError):
    """An input or an orbit iterate is not finite, or an iterate overflowed
    before its escape was certified (only for a huge |c|)."""


class InsideK(GreenrayError):
    """The point has zero Green potential (inside or too close to the Julia set)."""


class OnSkeleton(GreenrayError):
    """The point is within guard distance of a skeleton arc.

    The external angle is two-valued there; callers must pick a side
    explicitly instead of receiving a silently chosen branch.
    """


class RayCrash(GreenrayError):
    """A traced external ray hits a precritical point.

    Attributes carry the crash data when known: ``crash_potential`` (the
    Green value of the precritical point) and ``level`` (its depth, i.e. the
    point is an n-th preimage of the critical point).
    """

    def __init__(self, message: str, crash_potential: float | None = None,
                 level: int | None = None):
        super().__init__(message)
        self.crash_potential = crash_potential
        self.level = level


class CriticalLevel(GreenrayError):
    """The requested equipotential level contains a critical point of G."""


class Connected(GreenrayError):
    """Operation requires a disconnected (Cantor) Julia set."""


class AngleUnresolved(GreenrayError):
    """External angle could not be certified for this parameter/point.

    Raised for non-real parameters when the orbit enters the region where
    the argument lift is branch-ambiguous.
    """


class RootHasInfiniteModulus(GreenrayError):
    """The root annulus has infinite modulus; the requested quantity is undefined."""


# mod_xi documents its root error under this name.
RootNode = RootHasInfiniteModulus


class SchemaError(GreenrayError):
    """Malformed serialized input (JSON schema or invariant violation)."""


class OverlappingWindows(GreenrayError):
    """Interval list passed to a measure query is not pairwise disjoint."""


class NotAdmissible(GreenrayError):
    """Collapse requested for a structure that is not certified admissible."""


class TargetRayCrash(GreenrayError):
    """A transported coordinate's target descent crashes, nudged or not."""


class CombinatoricsMismatch(GreenrayError):
    """Two systems paired for transport do not share ray combinatorics."""


class ConfigError(GreenrayError):
    """CLI input: a flag value that does not parse, flags that conflict,
    or an input file that cannot be read."""
