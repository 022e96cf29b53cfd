"""Exception types shared across the package.

The CLI maps these onto exit codes: anything that is ultimately a
``ValueError`` (bad user input, out-of-range parameter, impossible
invariants) exits with code 2, I/O problems with code 3, and failed
self-verification with code 1.
"""


class ValidationError(ValueError):
    """Input fails a structural or numerical precondition.

    Examples: a matrix that is not 4x4, a unitarity violation beyond
    tolerance, a point outside the Weyl chamber passed to an operation
    that requires chamber membership.
    """


class ConsistencyError(RuntimeError):
    """An internal cross-check failed.

    Raised when intermediate quantities that must be real/in-range up to
    round-off come out wrong (e.g. a large imaginary residue on an
    invariant).  Indicates numerical trouble rather than bad input.
    """


class InvalidInvariantsError(ValueError):
    """Invariant triple does not correspond to any two-qubit gate class.

    Raised by the cubic inversion when the cubic's coefficients are
    further than its round-off budget from those of any gate.
    """


class RangeError(ValueError):
    """Parameter outside the validity range of a closed-form expression.

    The message points the caller at the quadrature fallback.
    """


class SingularDensityError(ValueError):
    """Density requested at a non-integrable singular point."""
