"""Integer linear algebra: normal forms, saturation, normals, determinants."""

import copy
import pickle
import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from torell import lattice
from torell.errors import DimensionMismatch, NonSquare, WrongCorank
from torell.lattice import (
    IntMatrix,
    SublatticeClass,
    adjugate,
    determinant,
    hermite_transform,
    kernel_basis,
    primitive_normal,
    saturate,
    span_class,
)

from conftest import random_unimodular


def cofactor_det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def row_span_contains(container_rows, vector):
    if not container_rows:
        return not any(vector)
    mat = IntMatrix.from_columns(container_rows)
    return oracles.integer_solver(mat)(vector) is not None


def same_row_span(rows_a, rows_b):
    return (all(row_span_contains(rows_b, r) for r in rows_a)
            and all(row_span_contains(rows_a, r) for r in rows_b))


def signed_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return [[rng.choice((-1, 1)) if j == perm[i] else 0 for j in range(n)] for i in range(n)]


@st.composite
def triangular_products(draw):
    """(L U, det) for L unit lower triangular and U upper triangular with
    diagonal d: the k-th Bareiss pivot is d_0 ... d_k, so it equals the
    previous pivot where d_k = 1 and minus it where d_k = -1."""
    n = draw(st.integers(1, 6))
    d = draw(st.lists(st.sampled_from((-2, -1, -1, 1, 1, 2, 3)), min_size=n, max_size=n))
    entries = st.integers(-3, 3)
    low = [[1 if i == j else draw(entries) if j < i else 0 for j in range(n)] for i in range(n)]
    up = [[d[i] if i == j else draw(entries) if j > i else 0 for j in range(n)] for i in range(n)]
    rows = [[sum(low[i][k] * up[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return rows, prod(d)


sparse_matrices = st.integers(1, 7).flatmap(lambda n: st.lists(
    st.lists(st.sampled_from((0, 0, 0, 0, 1, -1, 2, -3)), min_size=n, max_size=n),
    min_size=n, max_size=n))


small_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n),
        min_size=1, max_size=4))


class TestIntegerInput:
    def test_non_integers_refused(self):
        # Read by operator.index: a float is not truncated, a string not parsed.
        with pytest.raises(DimensionMismatch, match=r"matrix entry '3' is not an integer"):
            IntMatrix.from_rows([("3", 2)])
        with pytest.raises(DimensionMismatch, match=r"matrix entry 2\.9 is not an integer"):
            IntMatrix.from_rows([(3, 2.9)])
        with pytest.raises(DimensionMismatch, match=r"vector entry 1\.5 is not an integer"):
            saturate([(1.5, 0)])
        with pytest.raises(DimensionMismatch, match=r"vector entry 1\.5 is not an integer"):
            span_class([(1.5, 0)], 2)
        with pytest.raises(DimensionMismatch, match=r"vector entry 0\.5 is not an integer"):
            span_class([(1, 0), (0, 0.5)], 2)
        with pytest.raises(DimensionMismatch, match=r"vector entry 0\.5 is not an integer"):
            hermite_transform([(1, 0.5)], 2)

    def test_ambient_rank_refused_unless_an_integer(self):
        with pytest.raises(DimensionMismatch, match=r"ambient rank 2\.0 is not an integer"):
            saturate([], 2.0)
        with pytest.raises(DimensionMismatch, match=r"ambient rank 2\.5 is not an integer"):
            span_class([(1, 0)], 2.5)
        assert saturate([], True).ambient_rank == 1

    def test_integer_tuples_kept_and_other_integers_read(self):
        row = (1, 2)
        assert IntMatrix.from_rows([row]).entries[0] is row
        assert IntMatrix.from_rows([[True, 2]]).entries == ((1, 2),)
        assert type(IntMatrix.from_rows([[True, 2]]).entries[0][0]) is int


def hermite_form(rows):
    """The Hermite normal form H of hermite_transform(rows, ncols)."""
    return hermite_transform(rows, len(rows[0]))[0]


class TestHnf:
    def test_worked_example(self):
        rows = [[2, 4], [1, 1]]
        h = hermite_form(rows)
        assert h == [[1, 1], [0, 2]]
        # Oracle: both row spans contain each other.
        assert same_row_span(rows, h)

    def test_identity_fixed(self):
        for n in range(1, 5):
            identity = [[int(i == j) for j in range(n)] for i in range(n)]
            assert hermite_form(identity) == identity

    def test_zero_fixed(self):
        assert hermite_form([[0, 0]]) == [[0, 0]]

    @settings(max_examples=150)
    @given(small_matrices)
    def test_idempotent_and_span_preserving(self, rows):
        h = hermite_form(rows)
        assert hermite_form(h) == h
        assert same_row_span(rows, h)


class TestDeterminant:
    def test_examples(self):
        assert determinant(IntMatrix.identity(2)) == 1
        assert determinant(IntMatrix.from_rows([[1, 0], [1, 1]])) == 1
        assert determinant(IntMatrix.from_rows([[2, 0], [0, 2]])) == 4

    def test_non_square(self):
        with pytest.raises(NonSquare):
            determinant(IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))
        for rows in ([[1, 2, 3], [4, 5, 6]], [[1, 2], [3, 4, 5]], [[1, 2, 3]] * 3 + [[4]]):
            with pytest.raises(NonSquare):
                determinant(rows)

    def assert_exact(self, rows):
        det = determinant(IntMatrix.from_rows(rows))
        assert det == oracles.bareiss(rows) == oracles.rational_determinant(rows)
        return det

    def test_seeded_families_against_the_oracles(self):
        # Dense, sparse, signed permutations (every pivot +-1) and GL_n(Z)
        # images of them; also an upper triangular matrix whose pivots are
        # 2, -2, 2.
        rng = random.Random(4242)
        for _ in range(60):
            n = rng.randint(1, 8)
            dense = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            sparse = [[rng.choice((0, 0, 0, 0, 1, -1, 2)) for _ in range(n)] for _ in range(n)]
            perm = signed_permutation(rng, n)
            self.assert_exact(dense)
            self.assert_exact(sparse)
            assert abs(self.assert_exact(perm)) == 1
            unimodular = random_unimodular(rng, n)
            assert abs(self.assert_exact(unimodular.entries)) == 1
            assert abs(self.assert_exact((unimodular @ IntMatrix.from_rows(perm)).entries)) == 1
        assert self.assert_exact([[2, 5, 1], [0, -1, 4], [0, 0, -1]]) == 2
        assert self.assert_exact([[-1, 3], [2, 1]]) == -7

    @settings(max_examples=100)
    @given(triangular_products())
    def test_pivots_equal_to_plus_or_minus_the_previous(self, case):
        rows, det = case
        assert self.assert_exact(rows) == det

    @settings(max_examples=100)
    @given(sparse_matrices)
    def test_sparse_matrices(self, rows):
        self.assert_exact(rows)

    def test_closed_forms_against_the_leibniz_expansion(self):
        # Sizes up to 3 take closed forms, 4 and 5 the elimination pass.  A
        # singular matrix has one row replaced by a combination of the
        # others: a zero row, a repeated row or a sum of several.
        rng = random.Random(2205)
        for n in range(6):
            for _ in range(40):
                rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
                assert determinant(rows) == oracles.leibniz_determinant(rows)
                assert determinant(IntMatrix.from_rows(rows)) == determinant(rows)
                if n:
                    i = rng.randrange(n)
                    coeffs = [0 if r == i else rng.choice((-2, -1, 0, 0, 1, 2)) for r in range(n)]
                    singular = [row[:] for row in rows]
                    singular[i] = [sum(c * row[col] for c, row in zip(coeffs, rows))
                                   for col in range(n)]
                    assert determinant(singular) == 0
                    assert oracles.leibniz_determinant(singular) == 0

    def test_singular_matrix_takes_one_elimination_pass(self, monkeypatch):
        # A singular matrix's determinant stops in the one pass, at the
        # column with no pivot.
        rng = random.Random(88)
        rows = [[rng.randint(-9, 9) for _ in range(8)] for _ in range(7)]
        rows.append([x - 2 * y for x, y in zip(rows[0], rows[1])])
        passes = []
        real = lattice._gauss_jordan
        monkeypatch.setattr(lattice, "_gauss_jordan",
                            lambda a, n: passes.append(n) or real(a, n))
        assert determinant(rows) == 0
        assert passes == [8]

    def test_against_cofactor_expansion(self):
        rng = random.Random(1729)
        for _ in range(200):
            n = rng.randint(1, 6)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert determinant(IntMatrix.from_rows(rows)) == cofactor_det(rows)


class TestSaturate:
    def test_index_two_sublattice(self):
        assert saturate([(2, 0)]).basis == ((1, 0),)

    def test_full_lattice(self):
        assert saturate([(1, 0), (0, 1)]).basis == ((1, 0), (0, 1))

    def test_rank_two_in_z3(self):
        s = saturate([(1, 1, 0), (0, 0, 1)])
        # Oracle: brute-force search for a primitive covector vanishing on
        # the generators.
        normals = [(a, b, c)
                   for a in range(-2, 3) for b in range(-2, 3) for c in range(-2, 3)
                   if (a, b, c) != (0, 0, 0)
                   and a * 1 + b * 1 + c * 0 == 0 and c == 0]
        assert primitive_normal(s) in normals
        assert primitive_normal(s) == (1, -1, 0)

    def test_empty_needs_rank(self):
        with pytest.raises(DimensionMismatch):
            saturate([])
        assert saturate([], ambient_rank=3).rank == 0

    def test_mixed_lengths_rejected(self):
        with pytest.raises(DimensionMismatch):
            saturate([(1, 0), (1, 0, 0)])

    @settings(max_examples=100)
    @given(st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3),
                    min_size=1, max_size=3),
           st.lists(st.integers(-3, 3), min_size=1, max_size=3))
    def test_stable_under_integer_combinations(self, vectors, coeffs):
        combo = tuple(sum(c * v[i] for c, v in zip(coeffs, vectors))
                      for i in range(3))
        assert saturate(vectors) == saturate(list(vectors) + [combo])


def class_pairs(rng, count):
    """Random classes of ambient rank 1 to 4 and every rank, repeats
    included, each with the oracle dataclass holding the same entries."""
    out = []
    for _ in range(count):
        n = rng.randint(1, 4)
        cls = saturate([[rng.randint(-2, 2) for _ in range(n)]
                        for _ in range(rng.randint(0, n))], n)
        out.append((cls, oracles.DataclassSublattice(cls.ambient_rank, cls.basis)))
    return out


class TestSublatticeClass:
    def test_order_equality_and_hash_against_the_dataclass(self):
        pairs = class_pairs(random.Random(2301), 120)
        assert {cls.rank for cls, _ in pairs} == {0, 1, 2, 3, 4}
        for cls, old in pairs:
            assert (cls.ambient_rank, cls.rank, cls.basis, cls.corank) == \
                (old.ambient_rank, old.rank, old.basis, old.corank)
            assert cls == old.sort_key() and hash(cls) == hash(old.sort_key())
            for other, other_old in pairs:
                assert (cls == other) == (old == other_old)
                assert (cls < other) == (old.sort_key() < other_old.sort_key())
        assert len({cls for cls, _ in pairs}) == len({old for _, old in pairs}) < len(pairs)
        olds = sorted((old for _, old in pairs), key=lambda o: o.sort_key())
        assert [(c.ambient_rank, c.basis) for c in sorted(cls for cls, _ in pairs)] == \
            [(o.ambient_rank, o.basis) for o in olds]

    def test_copies_and_pickles_round_trip(self):
        for cls, _ in class_pairs(random.Random(2302), 30):
            copies = [copy.copy(cls), copy.deepcopy(cls)]
            copies += [pickle.loads(pickle.dumps(cls, protocol))
                       for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            for c in copies:
                assert type(c) is SublatticeClass and c == cls
                assert (c.ambient_rank, c.rank, c.basis) == (cls.ambient_rank, cls.rank, cls.basis)

    def test_immutable(self):
        cls = saturate([(1, 2, 0)], 3)
        for name in ("ambient_rank", "rank", "basis", "corank", "extra"):
            with pytest.raises(AttributeError):
                setattr(cls, name, 0)
        assert cls == SublatticeClass(3, ((1, 2, 0),))

    def test_repr_and_describe_unchanged(self):
        for cls, old in class_pairs(random.Random(2303), 30):
            assert repr(cls) == repr(old).replace("DataclassSublattice", "SublatticeClass", 1)
            assert cls.describe() == old.describe()
        assert repr(SublatticeClass(2, ((1, 0),))) == \
            "SublatticeClass(ambient_rank=2, basis=((1, 0),))"


class TestPrimitiveNormal:
    def test_examples(self):
        assert primitive_normal(saturate([(0, 1)])) == (1, 0)
        assert primitive_normal(saturate([(1, 1)])) == (1, -1)
        assert primitive_normal(saturate([(1, 0, 0), (0, 1, 0)])) == (0, 0, 1)

    def test_wrong_corank(self):
        with pytest.raises(WrongCorank):
            primitive_normal(saturate([(1, 0), (0, 1)]))

    def test_kernel_round_trip(self):
        rng = random.Random(99)
        for _ in range(60):
            n = rng.randint(2, 4)
            vectors = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n - 1)]
            s = saturate(vectors)
            if s.corank != 1:
                continue
            normal = primitive_normal(s)
            assert saturate(kernel_basis([normal], n)) == s


class TestUnimodularBasis:
    """n vectors in Z^n are a lattice basis exactly when their determinant
    is +-1."""

    def test_examples(self):
        def is_basis(rows):
            return abs(determinant(IntMatrix.from_rows(rows))) == 1

        assert is_basis([(1, 0), (0, 1)])
        assert not is_basis([(1, 0), (1, 2)])
        assert is_basis([(0, 1), (-1, -1)])

    def test_dimension_mismatch(self):
        with pytest.raises(NonSquare):
            determinant(IntMatrix.from_rows([(1, 0)]))


class TestSolve:
    """The oracle Hermite-form solver the other checks rely on."""

    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(100):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            a = IntMatrix.from_rows(
                [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)])
            x = [rng.randint(-4, 4) for _ in range(cols)]
            b = a.apply(x)
            solved = oracles.integer_solver(a)(b)
            assert solved is not None
            assert a.apply(solved) == b

    def test_unsolvable(self):
        a = IntMatrix.from_rows([[2, 0], [0, 2]])
        assert oracles.integer_solver(a)((1, 0)) is None


def product_rows(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


class TestAdjugate:
    def test_against_the_oracle_gauss_jordan(self):
        rng = random.Random(15)
        singular = 0
        for _ in range(600):
            n = rng.randint(1, 6)
            rows = [[rng.choice((0, 0, 1, -1, 2, -3, 5)) for _ in range(n)] for _ in range(n)]
            if n > 1 and rng.random() < 0.3:
                # A row combination of two others makes a planted singular matrix.
                i, j, k = (rng.randrange(n) for _ in range(3))
                rows[i] = [x * rng.randint(-2, 2) + y for x, y in zip(rows[j], rows[k])]
            det, adj = adjugate(rows)
            inverse = oracles.rational_inverse(rows)
            assert det == oracles.rational_determinant(rows)
            if inverse is None:
                singular += 1
                assert (det, adj) == (0, None)
                continue
            assert adj == [[det * x for x in row] for row in inverse]
            scalar = [[det * (i == j) for j in range(n)] for i in range(n)]
            assert product_rows(rows, adj) == product_rows(adj, rows) == scalar
        assert 50 < singular < 550       # both kinds are drawn often

    def test_unimodular_inverse_is_det_times_adjugate(self):
        rng = random.Random(16)
        for n in range(1, 6):
            for _ in range(20):
                m = random_unimodular(rng, n)
                det, adj = adjugate(m.entries)
                assert abs(det) == 1
                inverse = IntMatrix.from_rows([[det * x for x in row] for row in adj])
                assert m @ inverse == inverse @ m == IntMatrix.identity(n)
        assert adjugate([[2, 0], [0, 1]]) == (2, [[1, 0], [0, 2]])


class TestRationalInverse:
    """Inverses over Q are adj / det, read from the integer adjugate."""

    def test_inverse_times_matrix_is_identity(self):
        rng = random.Random(12)
        inverted = 0
        while inverted < 200:
            n = rng.randint(1, 5)
            rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            det, adj = adjugate(rows)
            if det == 0:
                continue
            inverse = [[Fraction(x, det) for x in row] for row in adj]
            identity = [[int(i == j) for j in range(n)] for i in range(n)]
            assert product_rows(rows, inverse) == product_rows(inverse, rows) == identity
            inverted += 1

    def test_singular_refused(self):
        for rows in ([[1, 2], [2, 4]], [[0]], [[1, 0, 1], [0, 1, 1], [1, 1, 2]]):
            assert adjugate(rows) == (0, None)

    def test_non_square_refused(self):
        with pytest.raises(NonSquare):
            adjugate([[1, 0, 0], [0, 1, 0]])


class TestMatmul:
    @settings(max_examples=100)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5), st.data())
    def test_against_the_triple_loop(self, rows, inner, cols, data):
        entries = st.sampled_from((0, 0, 0, 1, -1, 2, -7))
        a = IntMatrix.from_rows(data.draw(st.lists(
            st.lists(entries, min_size=inner, max_size=inner), min_size=rows, max_size=rows)))
        b = IntMatrix.from_rows(data.draw(st.lists(
            st.lists(entries, min_size=cols, max_size=cols), min_size=inner, max_size=inner)))
        assert a @ b == oracles.matmul(a, b)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            IntMatrix.identity(2) @ IntMatrix.identity(3)
