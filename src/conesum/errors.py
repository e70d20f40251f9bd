"""Exception types shared across the package.

Every error that a public operation can raise is defined here so the CLI
can map failures to exit codes in one place.
"""


class ConesumError(Exception):
    """Base class for all library errors."""


class ConfigError(ConesumError):
    """Malformed or inconsistent run configuration."""


# -- field construction and arithmetic ---------------------------------------

class NotIrreducible(ConesumError):
    pass


class NotTotallyReal(ConesumError):
    pass


class DegenerateRoots(ConesumError):
    pass


class ZeroInput(ConesumError):
    pass


class NotAUnit(ConesumError):
    pass


class NotTotallyPositive(ConesumError):
    pass


class NotSquarefree(ConesumError):
    """A quadratic field Q(sqrt d) asked for with d not a squarefree integer >= 2."""


class MixedExponents(ConesumError):
    """Sum of a rational and an irrational value, or an exponent not -1, 0, 1."""


class DegreeMismatch(ConesumError):
    """A coordinate vector, tuple or place set not fitting its field's degree,
    or a determinant or adjugate asked of a matrix that is not square."""


class EmptyInterval(ConesumError):
    """An interval whose lower end exceeds its upper end."""


# -- geometry -----------------------------------------------------------------

class NotFullDim(ConesumError):
    pass


class NotSalient(ConesumError):
    pass


class RayNotRational(ConesumError):
    pass


# -- cycles -------------------------------------------------------------------

class NotACycle(ConesumError):
    pass


class NotTopDegree(ConesumError):
    pass


# -- fans ---------------------------------------------------------------------

class UnitDoesNotPreserveM(ConesumError):
    pass


class RayOnExistingFace(ConesumError):
    pass


class UnsupportedFanKind(ConesumError):
    """An operation for quadratic-auto fans asked of an explicit fan."""


# -- summation ----------------------------------------------------------------

class SingularAtX0(ConesumError):
    """An evaluation point lies on a singular hyperplane of a term."""


class DependentTuple(ConesumError):
    pass


class NotSimplicial(ConesumError):
    """A cone whose extreme rays are not a basis of its span: no term, no carrier."""


class NotConvexUnion(ConesumError):
    pass


# -- unit search --------------------------------------------------------------

class DegreeTooSmall(ConesumError):
    pass


class InvalidBounds(ConfigError):
    """Unit-search ratio bounds that do not satisfy b > a > 1."""


class SingularMatrix(ConesumError):
    pass


class PrecisionExhausted(ConesumError):
    pass


class WindowTooSmall(ConesumError):
    pass


# -- arithmetic / L-values ----------------------------------------------------

class MissingIntersectionEntry(ConesumError):
    pass


class NotFullRank(ConesumError):
    """A lattice basis with the wrong number of elements, or dependent ones."""


class CutoffTooSmall(ConesumError):
    pass


class UnsupportedDegree(ConesumError):
    """Numeric L-values are implemented for real quadratic fields only."""


class UnitRankMismatch(ConesumError):
    """A unit group or exponent vector without the rank the computation needs."""


class InvalidWeight(ConesumError):
    """An L-value weight s that is not an integer >= 1, or an odd n*s."""


class NegativeIndex(ConesumError):
    """A Bernoulli number, fan truncation, chart window or search radius below 0."""


class EnumerationMismatch(ConesumError):
    """Exact row intervals that disagree with the slice masks they solve."""
