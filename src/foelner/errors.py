"""Exception types shared across the package.

Every error that a public operation can raise lives here so callers (and
the command line driver) can map failures to names without importing the
module that produced them.
"""


class FoelnerError(Exception):
    """Base class for all package errors."""


class InvalidSpec(FoelnerError):
    """An operator/projection/experiment description failed validation."""


class WeightUndefined(FoelnerError):
    """A weight formula could not be evaluated at the requested index."""


class ResourceLimit(FoelnerError):
    """A computation would exceed its fixed work budget."""


class WindowTooSmall(FoelnerError):
    """The requested window dimension cannot hold the requested object."""


class NumericalFailure(FoelnerError):
    """A dense linear-algebra kernel (SVD/eigensolver) did not converge."""


class TooFewSamples(FoelnerError):
    """A ratio sequence is too short to classify."""


class NotQuasidiagonalAlongFamily(FoelnerError):
    """No admissible projection index exists below the search limit."""


class SelectorOutOfRange(FoelnerError):
    """A block selector references a block that does not exist."""


class NotHermitian(FoelnerError):
    """An operation required a Hermitian window and did not get one."""


class RankStall(FoelnerError):
    """A projection-building sweep stopped making progress before exhaustion."""


class NonHermitianCompression(FoelnerError):
    """A compression expected to be Hermitian (real spectrum) is not."""
