"""Exact integer linear algebra over Z.

Hermite normal forms, determinants, kernels, saturation and primitive
normal covectors, all over arbitrary-precision Python integers.  Each
question has one entry point and one elimination: ``hermite_transform``
for lattices, and one fraction-free Gauss-Jordan pass for ``determinant``
and ``adjugate``, the one inverse: A^-1 = adj A / det A, with the division
left to the caller.  A Hermite transform of more than WORK_LIMIT entries
raises TooLarge before it is built.  No rational or floating-point number
is used anywhere in this module.  Every value is immutable after
construction and every operation is a pure function, so everything here
is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import index, itemgetter
from typing import Iterable, Optional, Sequence

from .errors import WORK_LIMIT, DimensionMismatch, NonSquare, TooLarge, WrongCorank

Vector = tuple  # integer coordinate tuple


def as_integers(values: Iterable, what: str, error: type = DimensionMismatch) -> Vector:
    """The values as ints by ``operator.index``, so no float or string is
    read; any other value raises ``error`` naming it.  The one rule every
    module reads integer input with.  A tuple of ints is returned as it
    is, not copied."""
    values = tuple(values)
    if all(type(x) is int for x in values):
        return values
    try:
        return tuple(map(index, values))
    except TypeError:
        bad = next(x for x in values if not hasattr(type(x), "__index__"))
        raise error(f"{what} {bad!r} is not an integer") from None


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix stored as a tuple of row tuples."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        widths = {len(r) for r in self.entries}
        if len(widths) > 1:
            raise DimensionMismatch("rows of unequal length")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "IntMatrix":
        return cls(tuple(as_integers(r, "matrix entry") for r in rows))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def from_columns(cls, cols: Iterable[Sequence[int]]) -> "IntMatrix":
        return cls(tuple(zip(*cols)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch("matrix product shape mismatch")
        # Row i of the product is the combination of other's rows with the
        # coefficients in row i of self; zero coefficients add nothing, so a
        # sparse left factor costs one pass over other's row per nonzero.
        zero = (0,) * other.cols
        out = []
        for row in self.entries:
            acc = zero
            for a, other_row in zip(row, other.entries):
                if a:
                    acc = [x + a * y for x, y in zip(acc, other_row)]
            out.append(tuple(acc))
        return IntMatrix(tuple(out))

    def apply(self, v: Sequence[int]) -> Vector:
        if len(v) != self.cols:
            raise DimensionMismatch("vector length mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.entries)


def determinant(m: IntMatrix | Sequence[Sequence[int]]) -> int:
    """Exact determinant of an IntMatrix, or of the square matrix with the
    given rows, so that a caller holding rows builds no IntMatrix."""
    rows = m.entries if isinstance(m, IntMatrix) else m
    if rows and set(map(len, rows)) != {len(rows)}:
        raise NonSquare(f"{len(rows)}x{len(rows[0])} matrix has no determinant")
    return _det(rows)


def _det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of the square matrix with the given rows: a closed form
    up to size 3, the elimination pass (``_gauss_jordan``) above."""
    n = len(rows)
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if n < 2:
        return rows[0][0] if n else 1
    sign, d = _gauss_jordan([list(r) for r in rows], n)
    return sign * d


def _gauss_jordan(a: list[list[int]], n: int) -> tuple[int, int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) on the first n
    columns of the n rows a, in place; (sign, d) with det = sign * d.

    Step k swaps a row with a nonzero entry in column k into row k (sign
    tracks the swaps), then replaces every other row by (x * p - c * y) //
    prev, where p is the pivot, c the row's entry in column k, y the pivot
    row's entry and prev the previous pivot.  The division is exact: each
    entry is a minor of a.  A row with c == 0 is skipped when p == prev,
    since the update would leave it as it is.  A nonsingular block ends as
    d I, with every column past n carried along; a column with no pivot
    stops the pass with d = 0.
    """
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return sign, 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pivot_row, p = a[k], a[k][k]
        for i in range(n):
            c = a[i][k]
            if i != k and (c or p != prev):
                a[i] = [(x * p - c * y) // prev for x, y in zip(a[i], pivot_row)]
        prev = p
    return sign, prev


def hermite_transform(rows: Sequence[Sequence[int]], ncols: int):
    """Row Hermite normal form with transformation.

    Returns (H, U, pivots) where U is unimodular, U * A = H, H is the
    canonical row HNF (positive pivots, entries above a pivot reduced into
    [0, pivot), zero rows at the bottom) and pivots lists the pivot column
    of each nonzero row.  A U of more than WORK_LIMIT entries raises
    TooLarge before it is built.
    """
    m = len(rows)
    if m * m > WORK_LIMIT:
        raise TooLarge(f"a Hermite transform of {m} rows has {m * m} entries, "
                       f"over the limit of {WORK_LIMIT}")
    h = [list(as_integers(r, "vector entry")) for r in rows]
    for r in h:
        if len(r) != ncols:
            raise DimensionMismatch("row length mismatch")
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def negate(i):
        h[i] = [-x for x in h[i]]
        u[i] = [-x for x in u[i]]

    def swap(i, j):
        h[i], h[j] = h[j], h[i]
        u[i], u[j] = u[j], u[i]

    def submul(i, j, q):
        if q:
            h[i] = [a - q * b for a, b in zip(h[i], h[j])]
            u[i] = [a - q * b for a, b in zip(u[i], u[j])]

    pivots = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        # Euclidean elimination in column c among rows r..m-1.
        while True:
            nz = [i for i in range(r, m) if h[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(h[i][c]), i))
            if i0 != r:
                swap(r, i0)
            if h[r][c] < 0:
                negate(r)
            clean = True
            for i in range(r + 1, m):
                if h[i][c]:
                    submul(i, r, h[i][c] // h[r][c])
                    if h[i][c]:
                        clean = False
            if clean:
                break
        if r < m and h[r][c] != 0:
            for i in range(r):
                submul(i, r, h[i][c] // h[r][c])
            pivots.append(c)
            r += 1
    return h, u, pivots


def kernel_basis(rows: Sequence[Sequence[int]], ncols: int) -> list[Vector]:
    """Basis of the right kernel {x in Z^ncols : A x = 0}.

    The result is a basis of a saturated sublattice (kernels always are);
    each basis vector is a row of a unimodular matrix, hence primitive.
    """
    transposed = [[row[j] for row in rows] for j in range(ncols)]
    _, u, pivots = hermite_transform(transposed, len(rows))
    return [tuple(row) for row in u[len(pivots):]]


def adjugate(rows: Sequence[Sequence[int]]) -> tuple[int, Optional[list[list[int]]]]:
    """(det A, adj A) for the square matrix A with the given rows, so that
    A adj A = adj A A = det A I.

    The elimination pass on [A | I] ends as [d I | R], each entry a minor
    of [A | I]; the sign of its row swaps takes d and R to det A and adj A.
    A singular A gives (0, None): ``_enumerate_points`` refuses det 0, and
    every other caller's matrix (a fan chart, the quotient basis) is nonsingular.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise NonSquare("only square matrices invert")
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    sign, d = _gauss_jordan(a, n)
    if not d:
        return 0, None
    return sign * d, [[sign * x for x in row[n:]] for row in a]


def is_primitive(v: Sequence[int]) -> bool:
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return g == 1


def sign_normalized(v: Vector) -> Vector:
    """Flip the sign so the first nonzero coordinate is positive.

    A tuple already so normalised is returned as it is, not copied.
    """
    for x in v:
        if x:
            return v if x > 0 else tuple(-y for y in v)
    return v


class SublatticeClass(tuple):
    """Canonical representative of a saturated sublattice of Z^n.

    The basis rows are the Hermite normal form of any generating set, with
    zero rows dropped, so two classes are equal exactly when they describe
    the same saturated sublattice.  A class is the tuple (ambient_rank,
    rank, basis), and compares, hashes and sorts as that tuple.
    """

    __slots__ = ()

    def __new__(cls, ambient_rank: int, basis: tuple[tuple[int, ...], ...]):
        return tuple.__new__(cls, (ambient_rank, len(basis), basis))

    def __getnewargs__(self):
        return self[0], self[2]

    ambient_rank = property(itemgetter(0))
    rank = property(itemgetter(1))
    basis = property(itemgetter(2))

    @property
    def corank(self) -> int:
        return self[0] - self[1]

    def __repr__(self) -> str:
        return f"SublatticeClass(ambient_rank={self[0]!r}, basis={self[2]!r})"

    def describe(self) -> str:
        gens = ", ".join("(" + ",".join(str(x) for x in row) + ")" for row in self.basis)
        return f"span{{{gens}}}" if gens else "0"


def saturate(vectors: Sequence[Sequence[int]], ambient_rank: Optional[int] = None) -> SublatticeClass:
    """Canonical class of the smallest saturated sublattice containing the span.

    ambient_rank may be omitted when at least one vector is given.
    """
    vectors = [as_integers(v, "vector entry") for v in vectors]
    if ambient_rank is not None:
        (ambient_rank,) = as_integers((ambient_rank,), "ambient rank")
    if vectors:
        n = len(vectors[0])
        if any(len(v) != n for v in vectors):
            raise DimensionMismatch("vectors of unequal length")
        if ambient_rank is not None and ambient_rank != n:
            raise DimensionMismatch("ambient rank does not match vectors")
    else:
        if ambient_rank is None:
            raise DimensionMismatch("ambient rank required for an empty generating set")
        n = ambient_rank
    if len(vectors) == 1 and any(vectors[0]):
        # One nonzero vector: its line is saturated by the primitive vector.
        g = gcd(*vectors[0])
        return SublatticeClass(n, (sign_normalized(tuple(x // g for x in vectors[0])),))
    # Saturation = double orthogonal complement, both computed as integer
    # kernels (kernels of integer matrices are saturated).
    return span_class(kernel_basis(kernel_basis(vectors, n), n), n)


def span_class(vectors: Sequence[Sequence[int]], ambient_rank: int) -> SublatticeClass:
    """The Hermite form of the lattice the vectors span, as a class.

    This is the canonical class of that lattice only when the lattice is
    saturated, for example when the vectors extend to a basis of Z^n; then
    it equals ``saturate(vectors)`` at the cost of one Hermite form.
    """
    (ambient_rank,) = as_integers((ambient_rank,), "ambient rank")
    if len(vectors) == 1:
        # A single nonzero row is in Hermite form once its leading entry is
        # positive.
        row = sign_normalized(as_integers(vectors[0], "vector entry"))
        if any(row):
            return SublatticeClass(ambient_rank, (row,))
    h, _, pivots = hermite_transform(vectors, ambient_rank)
    return SublatticeClass(ambient_rank, tuple(tuple(r) for r in h[:len(pivots)]))


def primitive_normal(s: SublatticeClass) -> Vector:
    """The primitive covector whose kernel is the given corank-1 class.

    The sign is normalized so the first nonzero entry is positive.
    """
    if s.corank != 1:
        raise WrongCorank(f"corank {s.corank} class has no single normal")
    # The signed maximal minors of the basis rows (their generalised cross
    # product) are orthogonal to every row, and all vanish only when the
    # rows are dependent.
    minors = [(-1) ** j * _det([row[:j] + row[j + 1:] for row in s.basis])
              for j in range(s.ambient_rank)]
    g = gcd(*minors)
    if g == 0:
        raise WrongCorank(f"basis {s.basis} has dependent rows")
    # Dividing by the gcd signed like the first nonzero minor also
    # normalizes the sign.
    if next(x for x in minors if x) < 0:
        g = -g
    return tuple(x // g for x in minors)
