"""Exception types shared across the package.

Each type states in its own body the exit status that the CLI returns for
it, `exit_code`: 1 a verification failure, 2 an input error, 3 a degenerate
spectrum.  `label` starts the one line the CLI writes for it to standard
error.
"""


class BochnerError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1
    label = "error"


class DomainError(BochnerError):
    """An argument lies outside the mathematical domain of an operation."""

    exit_code = 2


class ParseError(BochnerError):
    """Malformed textual input (scalar strings, JSON documents, CLI flags)."""

    exit_code = 2


class InvalidOperator(BochnerError):
    """A differential operator violating the degree condition deg(a_i) <= i,
    with vanishing leading coefficient, or otherwise unusable."""

    exit_code = 2


class InvalidEigenSystem(BochnerError):
    """An eigenvalue/eigenpolynomial family violating the monic, degree or
    normalization requirements."""

    exit_code = 2


class InsufficientData(BochnerError):
    """A table or data set is too small for the requested computation."""

    exit_code = 2


class DegenerateSpectrum(BochnerError):
    """Eigenvalues collide, or vanish at a positive index.

    `indices` carries the offending positions: a pair (n, m) for a collision,
    a singleton (n,) for a vanishing eigenvalue.
    """

    exit_code = 3
    label = "degenerate spectrum"

    def __init__(self, indices):
        self.indices = tuple(indices)
        if len(self.indices) == 1:
            super().__init__(f"eigenvalue at index {self.indices[0]} vanishes")
        else:
            super().__init__(
                "eigenvalues at indices {} coincide".format(", ".join(map(str, self.indices)))
            )


class NoFiniteOrderOperator(BochnerError):
    """The prescribed eigen-data admits no differential operator of the
    requested finite order.

    `order` is the order that was tested; `failure` is the first table
    position (n, k) at which the finite-order criterion breaks.
    """

    exit_code = 1

    def __init__(self, order, failure):
        self.order = order
        self.failure = tuple(failure)
        super().__init__(
            f"no operator of order {order}: criterion fails first at (n, k) = {self.failure}"
        )


class VerificationError(BochnerError):
    """An internal cross-check that is guaranteed to hold has failed."""

    exit_code = 1
