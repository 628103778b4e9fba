"""Exact computations on finite near-vector spaces over twisted fields."""

from .errors import (
    ConstructionFailedError,
    DivisionByZeroError,
    HypothesisUnmetError,
    InvalidConfigError,
    InvalidElementError,
    InvalidMapError,
    InvalidSlotError,
    InvalidVectorError,
    InvariantError,
    NearVecError,
    NonPrimeError,
    NotABasisError,
    NotCoprimeError,
    NotInQuasiKernelError,
    ReduciblePolynomialError,
    TooLargeError,
    ZeroVectorError,
)
from .finite_field import Field
from .space import (
    TwistedSpace,
    quasi_kernel_bruteforce,
    quasi_kernel_closed_form,
)

__version__ = "0.1.0"

__all__ = [
    "Field",
    "TwistedSpace",
    "quasi_kernel_bruteforce",
    "quasi_kernel_closed_form",
    "NearVecError",
    "NonPrimeError",
    "ReduciblePolynomialError",
    "TooLargeError",
    "DivisionByZeroError",
    "NotCoprimeError",
    "NotInQuasiKernelError",
    "ZeroVectorError",
    "HypothesisUnmetError",
    "InvalidConfigError",
    "InvalidElementError",
    "InvalidMapError",
    "InvalidSlotError",
    "InvalidVectorError",
    "InvariantError",
    "NotABasisError",
    "ConstructionFailedError",
    "__version__",
]
