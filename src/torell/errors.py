"""Exception types shared across the package, and the cap on input work.

Every failure mode that callers are expected to handle has its own class so
CLI and tests can distinguish input errors from violated preconditions.
"""

# The most lattice points, ladder summands or similar items one input may
# make torell list; larger requests raise TooLarge before the work starts.
WORK_LIMIT = 2 ** 16
MAX_RANK = 2 ** 8       # the largest n whose n x n matrices fit within WORK_LIMIT


class TorellError(Exception):
    """Base class for all errors raised by this package."""


class TooLarge(TorellError):
    """The input asks for more than WORK_LIMIT items of work."""


# --- integer linear algebra ---------------------------------------------

class NonSquare(TorellError):
    """A square matrix was required."""


class DimensionMismatch(TorellError):
    """Vectors or matrices with incompatible dimensions were supplied."""


class WrongCorank(TorellError):
    """A sublattice of a different corank was required."""


# --- fans ----------------------------------------------------------------

class MalformedFan(TorellError):
    """Structural fan invariants (faces, independence, primitivity) fail."""


class NotGood(TorellError):
    """The fan is not good: not smooth, or some cone lies on no top cone."""


class NotUnimodular(TorellError):
    """A unimodular basis / volume-one cell was required."""


# --- invariants and comparison -------------------------------------------

class RankMismatch(TorellError):
    """Invariants over ambient lattices of different ranks were compared."""


class FansMismatch(TorellError):
    """Fans supplied with two invariants are not the fans they come from."""


class NotSurface(TorellError):
    """A two-dimensional fan was required."""


class NotProper(TorellError):
    """A proper (complete) fan was required."""


class NotSingleFlip(TorellError):
    """The two fans do not differ by reversing exactly one ray."""


# --- Cech combinatorics ---------------------------------------------------

class DisconnectedStar(TorellError):
    """The star of a cone is not connected through shared walls, so the
    spreading recipe for the distinguished cover is not well defined."""


# --- triangulations -------------------------------------------------------

class NotDim2(TorellError):
    """A two-dimensional lattice simplex was required."""


class IllegalFlip(TorellError):
    """The flip move does not apply to this triangulation."""


class NotInSL(TorellError):
    """Group generator weights do not sum to an integer."""


# --- input/output ---------------------------------------------------------

class ParseError(TorellError):
    """Input bytes could not be parsed at all."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class SchemaError(TorellError):
    """Input parsed but does not match the document schema."""
