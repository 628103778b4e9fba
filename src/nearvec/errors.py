"""Exception types shared by every nearvec module."""


class NearVecError(Exception):
    """Base class for all errors raised by this package."""


class NonPrimeError(NearVecError):
    """The requested characteristic is not a prime number."""


class ReduciblePolynomialError(NearVecError):
    """The supplied modulus polynomial factors over the prime field."""

    def __init__(self, message, factor=None):
        super().__init__(message)
        self.factor = factor


class TooLargeError(NearVecError):
    """An enumeration bound was exceeded; refuse loudly rather than degrade."""


class DivisionByZeroError(NearVecError, ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


class NotCoprimeError(NearVecError):
    """A twist exponent shares a factor with the order of the unit group.

    Carries a concrete fixed-point-freeness witness: two distinct scalars
    ``alpha`` and ``beta`` that act identically on the standard basis
    vector ``vector`` at the offending coordinate.
    """

    def __init__(self, index, exponent, gcd, alpha, beta, vector):
        self.index = index
        self.exponent = exponent
        self.gcd = gcd
        self.alpha = alpha
        self.beta = beta
        self.vector = vector
        super().__init__(
            f"exponent {exponent} at coordinate {index} is not coprime to the "
            f"unit group order (gcd = {gcd}); scalars {alpha} and {beta} act "
            f"identically on {vector}"
        )


class InvalidVectorError(NearVecError, ValueError):
    """A vector has the wrong length or a coordinate that is not an
    element index of the field."""


class InvalidElementError(NearVecError, IndexError):
    """An element index is not an integer in range(|F|)."""


class InvalidSlotError(NearVecError, IndexError):
    """A basis slot is not an integer in range(n)."""


class InvalidConfigError(NearVecError, ValueError):
    """A config, parameter, table or fixture is malformed."""


class InvalidMapError(NearVecError, ValueError):
    """A homomorphism map is malformed: not a JSON object, a missing
    key, a table of the wrong length or an entry outside the target."""


class InvariantError(NearVecError, AssertionError):
    """An internal invariant failed: two routes disagree or a
    construction produced something it must not.  This is a bug in the
    package, never bad input."""


class NotInQuasiKernelError(NearVecError):
    """An operation required a quasi-kernel vector and got something else."""


class ZeroVectorError(NearVecError):
    """The zero vector is not allowed here."""


class HypothesisUnmetError(NearVecError):
    """The structural hypothesis of the requested check does not hold."""


class NotABasisError(NearVecError):
    """The supplied vectors are not a basis of the space."""


class ConstructionFailedError(NearVecError):
    """An internal construction search exhausted all candidates."""
