"""Exception types shared across the toolkit."""


class SexticSolidError(Exception):
    """Base class for all toolkit errors."""


class ZeroInverse(SexticSolidError):
    """Attempted to invert zero in a prime field."""


class NonSquare(SexticSolidError):
    """Square matrix required."""


class ArityMismatch(SexticSolidError):
    """Operands live in different polynomial rings (number of variables or modulus)."""


class IndexOutOfRange(SexticSolidError):
    """Variable index outside [0, nvars)."""


class SingularChange(SexticSolidError):
    """Linear change of coordinates is not invertible."""


class ResourceBudgetExceeded(SexticSolidError):
    """A Groebner computation exceeded its reduction-step budget."""


class DegreeOverflow(SexticSolidError):
    """A monomial's degree exceeds what a packed exponent field holds."""


class NotZeroDimensional(SexticSolidError):
    """Operation requires a zero-dimensional quotient algebra."""


class NotHomogeneous(SexticSolidError):
    """Operation requires a homogeneous ideal."""


class BadPrime(SexticSolidError):
    """Field characteristic must be a prime greater than 6 and below 2^64."""


class DegenerateDiscriminant(SexticSolidError):
    """The discriminant determinant vanishes identically."""


class ZeroPoint(SexticSolidError):
    """The zero vector is not a point of projective space."""


class SamplingExhausted(SexticSolidError):
    """Bounded rejection sampling failed to produce the requested points."""


class StratumViolation(SexticSolidError):
    """A fiber's computed Gram rank contradicts its stratum tag (a finding)."""

    def __init__(self, message: str, rank: int, expected: int):
        super().__init__(message)
        self.rank = rank
        self.expected = expected


class CensusNotGeneric(SexticSolidError):
    """A downstream check requires a census verdict of generic_31_nodes."""


class ConfigError(SexticSolidError):
    """Invalid run configuration or instance file."""


class UnknownCheck(ConfigError):
    """Requested check name is not part of the pipeline."""
