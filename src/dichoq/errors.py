"""Exception types shared across the library."""


class DichoqError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(DichoqError):
    """Operands have incompatible dimensions."""


class NotHermitian(DichoqError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""

    def __init__(self, max_deviation: float):
        self.max_deviation = max_deviation
        super().__init__(f"not Hermitian: max deviation {max_deviation:.3e}")


class NotTraceOne(DichoqError):
    """Trace differs from one beyond tolerance."""

    def __init__(self, trace: float):
        self.trace = trace
        super().__init__(f"trace {trace!r} is not 1 within tolerance")


class NotPositive(DichoqError):
    """Matrix has an eigenvalue below the positivity tolerance."""

    def __init__(self, min_eigenvalue: float):
        self.min_eigenvalue = min_eigenvalue
        super().__init__(f"min eigenvalue {min_eigenvalue:.3e} is negative")


class ConvergenceFailure(DichoqError):
    """The eigensolver reported that it did not converge."""


class NotOrthogonal(DichoqError):
    """Rotation matrix fails the orthogonality test."""


class NotSpecial(DichoqError):
    """Rotation matrix has determinant != +1."""


class BadFactorization(DichoqError):
    """Requested tensor factorization does not fit the matrix dimension."""


class InternalInvariantViolation(DichoqError):
    """A mathematically guaranteed property failed; indicates a bug."""


class OutOfRange(DichoqError):
    """Scalar argument outside its admissible interval."""


class TableInvariantError(DichoqError):
    """Dichotomic table violates one of its structural constraints."""
