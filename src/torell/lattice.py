"""Exact integer linear algebra over Z.

Hermite normal forms, determinants, kernels, saturation and primitive
normal covectors, all over arbitrary-precision Python integers.  The one
inverse is the fraction-free adjugate: A^-1 = adj A / det A, with the
division left to the caller.  No rational or floating-point number is
used anywhere in this module.  Every value is immutable after
construction and every operation is a pure function, so everything here
is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatch, NonSquare, WrongCorank

Vector = tuple  # integer coordinate tuple


def _as_vector(v: Sequence[int]) -> Vector:
    return tuple(int(x) for x in v)


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
        return cls(tuple(_as_vector(r) for r in rows))

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

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries)

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


def determinant(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise NonSquare(f"{m.rows}x{m.cols} matrix has no determinant")
    return _bareiss(m.entries)


def _bareiss(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of the square matrix with the given rows (Bareiss).

    Step k replaces each entry below and right of the pivot p by
    (x * p - c * y) // prev, where c is the row's entry in the pivot column,
    y the pivot row's entry and prev the previous pivot; the division is
    exact.  When p == prev, a row with c == 0 maps to (x * p) // p = x, so
    it is skipped.  A pivot equal to -prev is first made equal to prev by
    negating its row, which negates the determinant; the sign is tracked.
    Both rules change no value the full update would compute, so the result
    stays exact, and a sparse matrix whose pivots stay +-1 (a signed
    permutation, a flip certificate) updates only the rows it must.
    """
    n = len(rows)
    if n == 0:
        return 1
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        if a[k][k] == -prev:
            a[k] = [-x for x in a[k]]
            sign = -sign
        pivot_row = a[k]
        p = pivot_row[k]
        skip = p == prev
        for i in range(k + 1, n):
            row = a[i]
            c = row[k]
            if c == 0 and skip:
                continue
            for j in range(k + 1, n):
                row[j] = (row[j] * p - c * pivot_row[j]) // prev
            row[k] = 0
        prev = p
    return sign * a[n - 1][n - 1]


def hermite_transform(rows: Sequence[Sequence[int]], ncols: int):
    """Row Hermite normal form with transformation.

    Returns (H, U, pivots) where U is unimodular, U * A = H, H is the
    canonical row HNF (positive pivots, entries above a pivot reduced into
    [0, pivot), zero rows at the bottom) and pivots lists the pivot column
    of each nonzero row.
    """
    m = len(rows)
    h = [list(_as_vector(r)) for r in rows]
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


def hnf(m: IntMatrix) -> IntMatrix:
    """Canonical row Hermite normal form; same row span over Z as the input."""
    h, _, _ = hermite_transform(m.entries, m.cols)
    return IntMatrix.from_rows(h)


def integer_rank(rows: Sequence[Sequence[int]], ncols: int) -> int:
    _, _, pivots = hermite_transform(rows, ncols)
    return len(pivots)


def kernel_basis(rows: Sequence[Sequence[int]], ncols: int) -> list[Vector]:
    """Basis of the right kernel {x in Z^ncols : A x = 0}.

    The result is a basis of a saturated sublattice (kernels always are);
    each basis vector is a row of a unimodular matrix, hence primitive.
    """
    transposed = [[row[j] for row in rows] for j in range(ncols)]
    _, u, pivots = hermite_transform(transposed, len(rows))
    return [tuple(row) for row in u[len(pivots):]]


def adjugate(rows: Sequence[Sequence[int]]) -> tuple[int, list[list[int]]]:
    """(det A, adj A) for the square matrix A with the given rows, so that
    A adj A = adj A A = det A I.

    Fraction-free Gauss-Jordan elimination (Bareiss 1968) turns [A | I]
    into [d I | R] with exact divisions, each entry a minor of [A | I]; the
    sign of the row swaps it makes takes d and R to det A and adj A.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise NonSquare("only square matrices invert")
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            break
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pivot_row, p = a[k], a[k][k]
        for i in range(n):
            c = a[i][k]
            if i != k and (c or p != prev):
                a[i] = [(x * p - c * y) // prev for x, y in zip(a[i], pivot_row)]
        prev = p
    else:
        return sign * prev, [[sign * x for x in row[n:]] for row in a]
    # A is singular: adj[i][j] is the (j, i) cofactor.
    return 0, [[(-1) ** (i + j) * _bareiss([r[:i] + r[i + 1:] for r in rows[:j] + rows[j + 1:]])
                for j in range(n)] for i in range(n)]


def inverse_unimodular(m: IntMatrix) -> IntMatrix:
    """Exact inverse of a matrix with determinant +-1: det A adj A."""
    det, adj = adjugate(m.entries)
    if abs(det) != 1:
        raise NonSquare("matrix is singular" if det == 0 else "matrix is not unimodular")
    return IntMatrix(tuple(tuple(det * x for x in row) for row in adj))


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


@dataclass(frozen=True, slots=True)
class SublatticeClass:
    """Canonical representative of a saturated sublattice of Z^n.

    The basis rows are the Hermite normal form of any generating set, with
    zero rows dropped, so two classes are equal exactly when they describe
    the same saturated sublattice.
    """

    ambient_rank: int
    basis: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def corank(self) -> int:
        return self.ambient_rank - self.rank

    def sort_key(self):
        return (self.ambient_rank, self.rank, self.basis)

    def describe(self) -> str:
        gens = ", ".join("(" + ",".join(str(x) for x in row) + ")" for row in self.basis)
        return f"span{{{gens}}}" if gens else "0"


def saturate(vectors: Sequence[Sequence[int]], ambient_rank: Optional[int] = None) -> SublatticeClass:
    """Canonical class of the smallest saturated sublattice containing the span.

    ambient_rank may be omitted when at least one vector is given.
    """
    vectors = [_as_vector(v) for v in vectors]
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
    if len(vectors) == 1:
        # A single nonzero row is in Hermite form once its leading entry is
        # positive.
        row = sign_normalized(tuple(vectors[0]))
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
    minors = [(-1) ** j * _bareiss([row[:j] + row[j + 1:] for row in s.basis])
              for j in range(s.ambient_rank)]
    g = gcd(*minors)
    if g == 0:
        raise WrongCorank(f"basis {s.basis} has dependent rows")
    # Dividing by the gcd signed like the first nonzero minor also
    # normalizes the sign.
    if next(x for x in minors if x) < 0:
        g = -g
    return tuple(x // g for x in minors)
