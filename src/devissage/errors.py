"""The errors a run can end on, one class per way it ends.

The CLI maps each class to an outcome: ParseError and InvalidInstance
exit 4, EnumerationCapExceeded exits 3, and VerificationFailed fails its
suite with one "internal verification" check.  A bad argument to a
library call raises ValueError.  All four classes derive from
DevissageError, so a caller can catch the lot in one place.
"""


class DevissageError(Exception):
    """Base class for all workbench errors."""


class ParseError(DevissageError):
    """Instance file failed JSON decoding or schema validation."""


class InvalidInstance(DevissageError):
    """Instance file or in-memory instance failed validation."""


class EnumerationCapExceeded(DevissageError):
    """A computation would exceed a size cap: more spanning trees than the
    tree cap."""


class VerificationFailed(DevissageError, ArithmeticError):
    """A re-checked proof step is false: a computation defect, not bad input."""
