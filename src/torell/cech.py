"""Distinguished affine covers and their index posets.

Each coordinate of a chart carries one of three letters: `a` (the auxiliary
point removed), `b` (the origin removed), `c` (both removed), ordered by
c < a and c < b.  A cover element never needs actual coordinates on the
curve: it is determined by its support (which charts it touches) together
with one letter word per chart, and those words are consistent across a
shared wall under the permutation matching shared rays.

The module also provides a finite-complex reduction utility over exact
rationals: cancelling an invertible block of a differential against its
complement preserves homology in every degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Optional, Sequence

from .errors import (
    DimensionMismatch,
    DisconnectedStar,
    NonSquare,
    NotAComplex,
    NotGood,
    NotInvertibleBlock,
    TorellError,
    WitnessNotFound,
)
from .fan import Cone, Fan
from .lattice import rational_inverse, row_reduce

LETTERS = ("a", "b", "c")


def letter_leq(x: str, y: str) -> bool:
    return x == y or x == "c"


def letter_meet(x: str, y: str) -> str:
    return x if x == y else "c"


@dataclass(frozen=True)
class CubePoset:
    """The letter poset on n coordinates, graded by the number of c's."""

    n: int
    elements: tuple[str, ...]

    def grade(self, word: str) -> int:
        return word.count("c")

    def leq(self, w1: str, w2: str) -> bool:
        return all(letter_leq(a, b) for a, b in zip(w1, w2))

    def meet(self, w1: str, w2: str) -> str:
        return "".join(letter_meet(a, b) for a, b in zip(w1, w2))

    def grading(self) -> dict[int, tuple[str, ...]]:
        out: dict[int, list[str]] = {k: [] for k in range(self.n + 1)}
        for w in self.elements:
            out[self.grade(w)].append(w)
        return {k: tuple(v) for k, v in out.items()}


def cube_poset(n: int) -> CubePoset:
    if n < 1:
        raise DimensionMismatch("the letter poset needs at least one coordinate")
    return CubePoset(n, tuple("".join(w) for w in product(LETTERS, repeat=n)))


@dataclass(frozen=True)
class CoverElement:
    """One affine open of the distinguished cover / its intersection poset.

    support lists the top cones the open touches; words[i] is the letter
    word of the open in the chart of support[i], indexed by that cone's
    sorted ray positions.  ray_letters is the equivalent global view: the
    (ray, letter) pairs with letter different from `a`; those rays span the
    cone whose star is the support.
    """

    support: tuple[int, ...]
    words: tuple[str, ...]
    grade: int
    ray_letters: tuple[tuple[int, str], ...]

    def word_for(self, cone_id: int) -> str:
        return self.words[self.support.index(cone_id)]

    def sort_key(self):
        return (self.grade, self.support, self.words)


def _check_star_connected(tops: Sequence[Cone], star: Sequence[int], rho: Cone):
    """The spreading recipe propagates across shared walls, so the star of
    the seed cone must be connected through them."""
    n = len(tops[0])
    seen, frontier = {star[0]}, [star[0]]
    while frontier:
        cur = frontier.pop()
        for other in star:
            if other not in seen and len(set(tops[cur]) & set(tops[other])) == n - 1:
                seen.add(other)
                frontier.append(other)
    if len(seen) != len(star):
        raise DisconnectedStar(f"star of cone with rays {rho} is not wall-connected")


def _elements(fan: Fan, letters: str) -> tuple[CoverElement, ...]:
    """One element (rho, w) per cone rho of the fan and word w in letters^rho.

    With letters "b" this is the distinguished cover; with letters "bc" it
    is the cover's closure under intersection, which is exact:

    - a cover element is (rho, b^rho), where rho is the face its b's pick
      out, and it lies over star(rho);
    - the meet of (rho1, b) and (rho2, b) is b on rho1 & rho2 and c on the
      symmetric difference; it is empty unless rho1 | rho2 is a cone;
    - the meet of (B | C, b) with (B, b) gives every (rho, w) whose b's are
      B and whose c's are C;
    - the set of all (rho, w) is closed under meet, since letters meet
      rayswise and rho1 | rho2 is a cone whenever the supports meet.

    So the closure has sum over rho of 2^|rho| elements.  Every cone's star
    is listed once, from the faces of each top cone, and checked for wall
    connectivity in the order the faces are first met.
    """
    if not fan.is_good():
        raise NotGood("the distinguished cover is defined for good fans")
    tops = fan.top_cones()
    stars: dict[Cone, list[int]] = {}
    for i, top in enumerate(tops):
        for keep in product((False, True), repeat=len(top)):
            face = tuple(r for r, k in zip(top, keep) if k)
            stars.setdefault(face, []).append(i)
    out = []
    for rho, star in stars.items():
        support = tuple(star)
        _check_star_connected(tops, support, rho)
        for word in product(letters, repeat=len(rho)):
            of_ray = dict(zip(rho, word))
            out.append(CoverElement(
                support=support,
                words=tuple("".join(of_ray.get(r, "a") for r in tops[i]) for i in support),
                grade=word.count("c"),
                ray_letters=tuple(zip(rho, word)),
            ))
    return tuple(sorted(out, key=lambda e: e.sort_key()))


def cover(fan: Fan) -> tuple[CoverElement, ...]:
    """The unique affine cover whose trace on every chart is the product cover.

    Every face of a top cone seeds one element: b on the face's rays, and
    the word spreads over the star of that face with letters transported
    by matching shared rays.
    """
    return _elements(fan, "b")


@dataclass(frozen=True)
class CechPoset:
    """The intersection-closed, graded index poset of the cover."""

    ambient_rank: int
    tops: tuple[Cone, ...]
    elements: tuple[CoverElement, ...]

    @cached_property
    def _index(self) -> dict[tuple[tuple[int, str], ...], CoverElement]:
        return {e.ray_letters: e for e in self.elements}

    def leq(self, e1: CoverElement, e2: CoverElement) -> bool:
        """Containment of the corresponding opens."""
        if not set(e1.support) <= set(e2.support):
            return False
        d1, d2 = dict(e1.ray_letters), dict(e2.ray_letters)
        if not set(d2) <= set(d1):
            return False
        return all(letter_leq(d1[r], d2.get(r, "a")) for r in d1)

    def meet(self, e1: CoverElement, e2: CoverElement) -> Optional[CoverElement]:
        """Intersection of two elements; None when the opens are disjoint."""
        common = set(e1.support) & set(e2.support)
        if not common:
            return None
        d1, d2 = dict(e1.ray_letters), dict(e2.ray_letters)
        element = self.find(tuple(sorted(
            (r, letter_meet(d1.get(r, "a"), d2.get(r, "a"))) for r in d1.keys() | d2.keys())))
        if element is None or set(element.support) != common:
            raise TorellError(f"meet of {e1.ray_letters} and {e2.ray_letters} "
                              f"does not lie over the common charts {tuple(sorted(common))}")
        return element

    def cover(self) -> tuple[CoverElement, ...]:
        """The distinguished cover the poset closes: its grade-0 elements.

        Cover elements carry no c, and the meet of two distinct elements
        puts a c wherever their letters differ, so nothing else has grade 0.
        """
        return tuple(e for e in self.elements if e.grade == 0)

    def grading(self) -> dict[int, tuple[CoverElement, ...]]:
        out: dict[int, list[CoverElement]] = {}
        for e in self.elements:
            out.setdefault(e.grade, []).append(e)
        return {k: tuple(v) for k, v in sorted(out.items())}

    def find(self, ray_letters: tuple[tuple[int, str], ...]) -> Optional[CoverElement]:
        return self._index.get(ray_letters)


def cech_poset(fan: Fan) -> CechPoset:
    """The cover's closure under pairwise intersection, graded by c-count."""
    return CechPoset(fan.ambient_rank, fan.top_cones(), _elements(fan, "bc"))


@dataclass(frozen=True)
class Classification:
    smooth: bool
    components: tuple[tuple[int, str], ...]  # (top-cone id, chart word) per component
    divisor_positions: Optional[tuple[tuple[int, int], ...]]


def classify(element: CoverElement) -> Classification:
    """Smooth (irreducible) exactly when the support is a single chart;
    otherwise one irreducible component per support member."""
    smooth = len(element.support) == 1
    components = tuple(zip(element.support, element.words))
    positions = None
    if all(w.count("a") == 1 and set(w) <= {"a", "c"} for w in element.words):
        positions = tuple((cid, word.index("a"))
                          for cid, word in zip(element.support, element.words))
    return Classification(smooth=smooth, components=components,
                          divisor_positions=positions)


@dataclass(frozen=True)
class WitnessEntry:
    singular: CoverElement
    components: tuple[CoverElement, CoverElement]
    smooth_covers: tuple[CoverElement, CoverElement]
    divisor_positions: tuple[int, int]


@dataclass(frozen=True)
class WitnessReport:
    ambient_rank: int
    entries: tuple[WitnessEntry, ...]
    singular_count: int


def cohomology_witness(fan: Fan) -> WitnessReport:
    """Match every singular top-grade-minus-one element with smooth covers.

    Such an element lives over an interior wall with all-c letters; its two
    irreducible components are the all-c opens of the neighbouring charts,
    and each component must also sit inside a smooth single-chart element
    whose word has a single b at the wall's divisor position and c
    elsewhere.  Finding these witnesses for every singular element is the
    combinatorial reason the top coherent cohomology has one dimension per
    top cone.
    """
    return poset_witness(cech_poset(fan))


def poset_witness(poset: CechPoset) -> WitnessReport:
    """``cohomology_witness`` of the fan whose poset is already built."""
    n = poset.ambient_rank
    entries = []
    singulars = [e for e in poset.elements
                 if e.grade == n - 1 and len(e.support) > 1]
    for e in singulars:
        comps = []
        covers = []
        positions = []
        for cid, word in zip(e.support, e.words):
            cone = poset.tops[cid]
            pos = word.index("a")
            positions.append(pos)
            all_c = tuple(sorted((r, "c") for r in cone))
            component = poset.find(all_c)
            single_b = tuple(sorted((r, "b" if i == pos else "c")
                                    for i, r in enumerate(cone)))
            smooth_cover = poset.find(single_b)
            if component is None or smooth_cover is None:
                raise WitnessNotFound(
                    f"no smooth witness for singular element over chart {cone}")
            if not (poset.leq(component, e) and poset.leq(component, smooth_cover)):
                raise WitnessNotFound(
                    f"witness containment fails over chart {cone}")
            comps.append(component)
            covers.append(smooth_cover)
        entries.append(WitnessEntry(
            singular=e,
            components=(comps[0], comps[1]),
            smooth_covers=(covers[0], covers[1]),
            divisor_positions=(positions[0], positions[1]),
        ))
    return WitnessReport(ambient_rank=n, entries=tuple(entries),
                         singular_count=len(singulars))


# --- exact-rational complexes ---------------------------------------------

@dataclass(frozen=True)
class QMatrix:
    """Dense matrix over exact rationals with explicit shape."""

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], ncols: Optional[int] = None) -> "QMatrix":
        data = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if data:
            ncols = len(data[0])
            if any(len(r) != ncols for r in data):
                raise DimensionMismatch("rows of unequal length")
        elif ncols is None:
            ncols = 0
        return cls(len(data), ncols, data)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "QMatrix":
        return cls(rows, cols, tuple(tuple(Fraction(0) for _ in range(cols))
                                     for _ in range(rows)))

    def mul(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch("matrix product shape mismatch")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                row.append(sum((self.entries[i][k] * other.entries[k][j]
                                for k in range(self.cols)), Fraction(0)))
            out.append(tuple(row))
        return QMatrix(self.rows, other.cols, tuple(out))

    def sub(self, other: "QMatrix") -> "QMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix difference shape mismatch")
        return QMatrix(self.rows, self.cols,
                       tuple(tuple(a - b for a, b in zip(r1, r2))
                             for r1, r2 in zip(self.entries, other.entries)))

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "QMatrix":
        return QMatrix(len(row_idx), len(col_idx),
                       tuple(tuple(self.entries[i][j] for j in col_idx)
                             for i in row_idx))

    def rank(self) -> int:
        return len(row_reduce(self.entries)[1])

    def inverse(self) -> "QMatrix":
        if self.rows != self.cols:
            raise DimensionMismatch("only square matrices invert")
        try:
            inverse = rational_inverse(self.entries)
        except NonSquare:
            raise NotInvertibleBlock("singular block") from None
        return QMatrix(self.rows, self.cols, tuple(tuple(row) for row in inverse))


@dataclass(frozen=True)
class FiniteComplex:
    """A bounded complex of Q-vector spaces given by its differentials.

    differentials[k] maps degree k to degree k+1 and has shape
    (dims[k+1], dims[k]); consecutive differentials must compose to zero.
    """

    dims: tuple[int, ...]
    differentials: tuple[QMatrix, ...]

    def __post_init__(self):
        if len(self.differentials) != max(len(self.dims) - 1, 0):
            raise NotAComplex("one differential is needed between consecutive terms")
        for k, d in enumerate(self.differentials):
            if (d.rows, d.cols) != (self.dims[k + 1], self.dims[k]):
                raise NotAComplex(f"differential {k} has shape {(d.rows, d.cols)}, "
                                  f"expected {(self.dims[k + 1], self.dims[k])}")
        for k in range(len(self.differentials) - 1):
            composite = self.differentials[k + 1].mul(self.differentials[k])
            if any(any(x != 0 for x in row) for row in composite.entries):
                raise NotAComplex(f"d^{k + 1} after d^{k} is nonzero")

    @classmethod
    def from_matrices(cls, dims: Sequence[int], matrices: Sequence[Sequence[Sequence]]) -> "FiniteComplex":
        dims = tuple(int(d) for d in dims)
        diffs = []
        for k, m in enumerate(matrices):
            q = QMatrix.from_rows(m, ncols=dims[k])
            if q.rows == 0:
                q = QMatrix.zero(dims[k + 1], dims[k])
            elif q.cols != dims[k]:
                raise NotAComplex("differential width disagrees with term dimension")
            diffs.append(q)
        return cls(dims, tuple(diffs))

    def homology_ranks(self) -> tuple[int, ...]:
        ranks = [d.rank() for d in self.differentials]
        out = []
        for k, dim in enumerate(self.dims):
            outgoing = ranks[k] if k < len(ranks) else 0
            incoming = ranks[k - 1] if k >= 1 else 0
            out.append(dim - outgoing - incoming)
        return tuple(out)


def reduce_complex(c: FiniteComplex, i: int,
                   splitting: tuple[Sequence[int], Sequence[int]]) -> FiniteComplex:
    """Cancel an invertible block of d^i against paired summands.

    splitting designates coordinate subsets K of degree i and degree i+1
    with equal sizes; the block of d^i from K_i to K_{i+1} must be
    invertible.  The surviving differential in degree i picks up the usual
    correction term (the Schur complement), and homology ranks are
    preserved in every degree.
    """
    if not 0 <= i < len(c.differentials):
        raise DimensionMismatch(f"no differential at index {i}")
    k_i = tuple(sorted(int(x) for x in splitting[0]))
    k_i1 = tuple(sorted(int(x) for x in splitting[1]))
    if len(k_i) != len(set(k_i)) or len(k_i1) != len(set(k_i1)):
        raise DimensionMismatch("repeated indices in splitting")
    if len(k_i) != len(k_i1):
        raise DimensionMismatch("split blocks must have equal dimension")
    if any(not 0 <= x < c.dims[i] for x in k_i) or any(not 0 <= x < c.dims[i + 1] for x in k_i1):
        raise DimensionMismatch("splitting index out of range")
    b_i = tuple(j for j in range(c.dims[i]) if j not in set(k_i))
    b_i1 = tuple(j for j in range(c.dims[i + 1]) if j not in set(k_i1))
    d = c.differentials[i]
    sigma = d.submatrix(k_i1, k_i)
    if sigma.rank() != len(k_i):
        raise NotInvertibleBlock("designated block of the differential is singular")
    a = d.submatrix(b_i1, b_i)
    b = d.submatrix(b_i1, k_i)
    cc = d.submatrix(k_i1, b_i)
    psi_i = a.sub(b.mul(sigma.inverse()).mul(cc))

    dims = list(c.dims)
    dims[i] = len(b_i)
    dims[i + 1] = len(b_i1)
    diffs = list(c.differentials)
    diffs[i] = psi_i
    if i - 1 >= 0:
        prev = c.differentials[i - 1]
        diffs[i - 1] = prev.submatrix(b_i, range(prev.cols))
    if i + 1 < len(c.differentials):
        nxt = c.differentials[i + 1]
        diffs[i + 1] = nxt.submatrix(range(nxt.rows), b_i1)
    return FiniteComplex(tuple(dims), tuple(diffs))
