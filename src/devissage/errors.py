"""Typed errors shared across the workbench.

Every failure mode that a caller can reasonably branch on gets its own
class.  All of them derive from DevissageError so batch drivers can catch
the lot in one place.
"""


class DevissageError(Exception):
    """Base class for all workbench errors."""


class MismatchedPrime(DevissageError):
    """Two operands live over different primes l."""


class MismatchedBase(DevissageError):
    """Frobenius operands disagree on q or l."""


class NotDivisible(DevissageError):
    """Operation requires a divisible (corank-only) group."""


class NotFiniteExponent(DevissageError):
    """Operation requires a group of finite exponent."""


class InputNotExact(DevissageError):
    """A sequence handed in as exact failed its own exactness check."""


class WeilCheckFailed(DevissageError):
    """Characteristic polynomial fails the weight-one root test."""


class EnumerationCapExceeded(DevissageError):
    """A computation would exceed a size cap: more spanning trees than the
    tree cap, or an exact kernel above the procyclic dimension cap."""


class VerificationFailed(DevissageError, ArithmeticError):
    """A re-checked proof step is false: a computation defect, not bad input."""


class BalanceViolated(DevissageError):
    """Vertex charge vector violates the two-sided balance condition."""


class NotASpanningTree(DevissageError):
    """Edge set is not a spanning tree of the graph."""


class NotAnOrbit(DevissageError):
    """Supplied tree collection is not a single full orbit of the action."""


class GcdShortfall(DevissageError):
    """Combined orbit orders do not reach the graph invariant m."""


class ConfigIncompatible(DevissageError):
    """Divisor configuration does not fit the graph or its action."""


class InvalidInstance(DevissageError):
    """Instance file or in-memory instance failed validation."""


class ModeledTermCaveat(DevissageError):
    """Honesty marker carried in reports whose displays contain terms that
    are assembled models rather than computed field cohomology.

    Never raised; instances travel inside report objects so downstream
    consumers cannot mistake a modeled term for a computed one.
    """


class ParseError(DevissageError):
    """Instance file failed JSON decoding or schema validation."""


class UnknownSequence(DevissageError):
    """Requested explanation for a sequence name outside the registry."""
