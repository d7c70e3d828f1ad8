"""The sheaf-level shadow invariant and its comparison logic.

For a good fan the invariant is the triple (rank, multiset of interior
wall spans, determinant divisor).  Equal invariants are necessary for the
underlying sheaves to be isomorphic; for good surfaces a span-preserving
bijection of all rays is also sufficient, and the sufficiency is certified
by an explicit row-transformation matrix between incidence matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, groupby
from typing import Optional

from .errors import (
    FansMismatch,
    NotGood,
    NotProper,
    NotSingleFlip,
    NotSurface,
    NotUnimodular,
    RankMismatch,
    TooLarge,
    WORK_LIMIT,
)
from .fan import Fan, ccw_order, walls
from .lattice import (
    IntMatrix,
    SublatticeClass,
    determinant,
    integer_solver,
    kernel_basis,
    sign_normalized,
    span_class,
)

ISOMORPHIC = "ISOMORPHIC"
NOT_ISOMORPHIC = "NOT_ISOMORPHIC"
UNKNOWN = "UNKNOWN"

RULE_RANK = "rank-law"
RULE_SPANS = "wall-span-necessity"
RULE_SURFACE = "surface-ray-line-sufficiency"
RULE_NECESSARY_ONLY = "necessary-conditions-only"


@dataclass(frozen=True)
class EllShadow:
    """Rank, interior wall-span multiset and determinant divisor.

    wall_spans is sorted by ``SublatticeClass.sort_key``, which is injective
    on classes, so two shadows have equal span multisets exactly when their
    tuples are equal.
    """

    ambient_rank: int
    rank: int
    wall_spans: tuple[SublatticeClass, ...]          # sorted multiset
    det_divisor: tuple[tuple[int, SublatticeClass], ...]  # (coefficient, class)

    def det_divisor_degree(self) -> int:
        return sum(coeff for coeff, _ in self.det_divisor)


def ell_shadow(fan: Fan) -> EllShadow:
    if not fan.is_good():
        raise NotGood("the shadow invariant is defined for good fans")
    spans = tuple(sorted((w.span for w in walls(fan) if w.interior),
                         key=lambda s: s.sort_key()))
    # Equal classes are adjacent in the sorted spans.
    divisor = tuple((-sum(1 for _ in run), cls) for cls, run in groupby(spans))
    return EllShadow(
        ambient_rank=fan.ambient_rank,
        rank=len(fan.top_cones()),
        wall_spans=spans,
        det_divisor=divisor,
    )


@dataclass(frozen=True)
class LadderSummand:
    cone_ids: tuple[int, ...]          # indices into the fan's top cones
    span: SublatticeClass              # span of the cones' intersection
    vanishes_in_codim2: bool           # corank >= 2: invisible in codimension <= 1


@dataclass(frozen=True)
class MayerVietorisLadder:
    """Formal terms of the chart-intersection resolution of the invariant.

    Index 0 is the slot of the invariant sheaf itself and carries no
    summands; term k >= 1 has one summand per k-subset of top cones.
    """

    ambient_rank: int
    terms: tuple[tuple[LadderSummand, ...], ...]


def mv_ladder(fan: Fan) -> MayerVietorisLadder:
    """All 2^m intersection summands; intended for small fans."""
    if not fan.is_good():
        raise NotGood("the ladder is defined for good fans")
    tops = fan.top_cones()
    if 2 ** len(tops) - 1 > WORK_LIMIT:
        raise TooLarge(f"a ladder on {len(tops)} top cones has 2^{len(tops)} - 1 "
                       f"summands, over the limit of {WORK_LIMIT}")
    terms: list[tuple[LadderSummand, ...]] = [()]
    for k in range(1, len(tops) + 1):
        summands = []
        for subset in combinations(range(len(tops)), k):
            common = set(tops[subset[0]])
            for i in subset[1:]:
                common &= set(tops[i])
            # The common rays are part of a top cone's lattice basis.
            span = span_class([fan.rays[i] for i in sorted(common)], fan.ambient_rank)
            summands.append(LadderSummand(
                cone_ids=subset,
                span=span,
                vanishes_in_codim2=span.corank >= 2,
            ))
        terms.append(tuple(summands))
    return MayerVietorisLadder(ambient_rank=fan.ambient_rank, terms=tuple(terms))


@dataclass(frozen=True)
class Witness:
    kind: str
    detail: tuple


@dataclass(frozen=True)
class Verdict:
    outcome: str
    witness: Optional[Witness]
    rule: str


def ray_line_classes(fan: Fan) -> list[SublatticeClass]:
    """The multiset of lines spanned by the rays, as canonical classes."""
    return [SublatticeClass(fan.ambient_rank, (line,))
            for line in sorted(sign_normalized(r) for r in fan.rays)]


def _lines(fan: Fan) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """The rays grouped by the line they span.

    A fan's rays are primitive, so the line of a ray is the basis of its
    saturation: the ray itself, sign-normalised.  Ordering lines by that
    vector is ordering their classes by ``sort_key``.
    """
    groups: dict = {}
    for ray in fan.rays:
        groups.setdefault(sign_normalized(ray), []).append(ray)
    return groups


def compare(a: EllShadow, b: EllShadow,
            fans: Optional[tuple[Fan, Fan]] = None) -> Verdict:
    """Decide (non-)isomorphism of two shadow invariants.

    Differing rank or wall-span multisets rule isomorphism out; the spans
    are sorted tuples, so the multisets are compared as tuples and their
    differences, the witness, come from one merge.  When the
    two underlying fans are supplied and are good surfaces, a bijection of
    all rays (not only interior walls) matching spanned lines certifies an
    isomorphism.  Otherwise the honest answer is UNKNOWN: above dimension
    two the necessary conditions are not expected to be sufficient.
    """
    if a.ambient_rank != b.ambient_rank:
        raise RankMismatch(
            f"ambient ranks differ: {a.ambient_rank} vs {b.ambient_rank}")
    if a.rank != b.rank:
        return Verdict(NOT_ISOMORPHIC,
                       Witness("rank-mismatch", (a.rank, b.rank)),
                       RULE_RANK)
    if a.wall_spans != b.wall_spans:
        return Verdict(NOT_ISOMORPHIC,
                       Witness("wall-span-mismatch",
                               _sorted_differences(a.wall_spans, b.wall_spans)),
                       RULE_SPANS)
    if fans is not None:
        fa, fb = fans
        if ell_shadow(fa) != a or ell_shadow(fb) != b:
            raise FansMismatch("supplied fans do not match the shadows under comparison")
        if fa.ambient_rank == 2 and fa.is_good() and fb.is_good():
            lines_a, lines_b = _lines(fa), _lines(fb)
            if lines_a.keys() == lines_b.keys() and all(
                    len(rays) == len(lines_b[line]) for line, rays in lines_a.items()):
                # Pair up the rays line by line.
                pairing = tuple(pair for line in sorted(lines_a)
                                for pair in zip(sorted(lines_a[line]), sorted(lines_b[line])))
                return Verdict(ISOMORPHIC,
                               Witness("surface-ray-line-bijection", pairing),
                               RULE_SURFACE)
    return Verdict(UNKNOWN, None, RULE_NECESSARY_ONLY)


def _sorted_differences(a, b):
    """The multiset differences a - b and b - a of two tuples of classes
    sorted by ``sort_key``, each sorted, by one merge."""
    only_a, only_b = [], []
    i = j = 0
    while i < len(a) and j < len(b):
        ka, kb = a[i].sort_key(), b[j].sort_key()
        if ka == kb:
            i += 1
            j += 1
        elif ka < kb:
            only_a.append(a[i])
            i += 1
        else:
            only_b.append(b[j])
            j += 1
    return tuple(only_a) + a[i:], tuple(only_b) + b[j:]


@dataclass(frozen=True)
class SurfaceIncidence:
    """Signed top-cone by ray incidence matrix of a proper good surface.

    Rays are listed clockwise starting from a chosen first ray; rows follow
    the canonical top-cone order.  Each ray lies on exactly two top cones,
    so every column holds one +1 (at the smaller row index) and one -1.
    """

    m: int
    matrix: IntMatrix
    ray_order: tuple[tuple[int, int], ...]


def incidence_matrix(fan: Fan, start_ray: int) -> SurfaceIncidence:
    """The signed incidence matrix of a proper good surface fan.

    Entry (i, j) is +1 when ray j lies on top cone i and i is the smaller
    of the two containing row indices, -1 when it is the larger, else 0.
    """
    if fan.ambient_rank != 2:
        raise NotSurface("incidence matrices are defined for surface fans")
    if not fan.is_good():
        raise NotGood("incidence matrices require a good fan")
    if not fan.is_proper():
        raise NotProper("incidence matrices require a proper fan")
    if not 0 <= start_ray < len(fan.rays):
        raise NotSurface(f"no ray with index {start_ray}")
    tops = fan.top_cones()
    row = {cone: i for i, cone in enumerate(tops)}
    upper = fan._incidence.upper
    # Clockwise from the start ray: the counter-clockwise order reversed.
    ccw = ccw_order(fan.rays, fan.rays[start_ray])
    order = ccw[:1] + ccw[:0:-1]
    m = len(tops)
    entries = [[0] * m for _ in range(m)]
    for col, ray in enumerate(order):
        # In a proper surface a ray is a wall on two top cones, listed in
        # sorted order, so their row ids ascend.
        first, second = upper[(ray,)]
        entries[row[first]][col] = 1
        entries[row[second]][col] = -1
    return SurfaceIncidence(
        m=m,
        matrix=IntMatrix.from_rows(entries),
        ray_order=tuple(fan.rays[i] for i in order),
    )


def _reversed_ray_pair(f: Fan, f2: Fan):
    """The single ray of f whose reversal yields f2, or None for equal fans."""
    a, b = set(f.rays), set(f2.rays)
    gone, new = a - b, b - a
    if not gone and not new:
        return None
    if len(gone) != 1 or len(new) != 1:
        raise NotSingleFlip("fans differ in more than one ray")
    (v,) = gone
    (w,) = new
    if w != tuple(-x for x in v):
        raise NotSingleFlip("the differing rays are not opposite")
    return v, w


def flip_certificate(f: Fan, f2: Fan) -> IntMatrix:
    """Invertible integer M with A_f = A_{f2} . M, built column by column.

    Columns of A_f are differences of two coordinate vectors, hence lie in
    the integer column span of A_{f2}; a particular solution is corrected
    along the one-dimensional kernel so that det M = +-1.  The identity
    A_f = A_{f2} M is re-verified by exact multiplication before returning.
    """
    for fan in (f, f2):
        if fan.ambient_rank != 2:
            raise NotSurface("certificates are defined for surface fans")
        if not fan.is_good():
            raise NotGood("certificates require good fans")
        if not fan.is_proper():
            raise NotProper("certificates require proper fans")
    if len(f.rays) != len(f2.rays):
        raise NotSingleFlip("fans have different numbers of rays")
    pair = _reversed_ray_pair(f, f2)
    if pair is None:
        # Equal ray sets: the fans must agree as fans (a complete surface
        # fan is determined by its rays), so only the labelling differs.
        v = w = min(f.rays)
    else:
        v, w = pair
    a_f = incidence_matrix(f, f.rays.index(v)).matrix
    a_g = incidence_matrix(f2, f2.rays.index(w)).matrix
    if a_f == a_g:
        return IntMatrix.identity(a_f.rows)
    m = a_f.rows
    solve = integer_solver(a_g)
    columns = []
    for j in range(m):
        x = solve(a_f.column(j))
        if x is None:
            raise NotSingleFlip("incidence columns are not integrally compatible")
        columns.append(list(x))
    # Correct along the kernels so the certificate is unimodular.
    (z_f,) = kernel_basis(a_f.entries, m)
    (z_g,) = kernel_basis(a_g.entries, m)
    image = [sum(columns[j][i] * z_f[j] for j in range(m)) for i in range(m)]
    pivot = next(i for i, x in enumerate(z_g) if x)
    c0, rem = divmod(image[pivot], z_g[pivot])
    if rem or image != [c0 * x for x in z_g]:
        raise NotSingleFlip("the solution does not carry kernel onto kernel")
    k0 = next(i for i, x in enumerate(z_f) if abs(x) == 1)
    t = (1 - c0) // z_f[k0]
    for i in range(m):
        columns[k0][i] += t * z_g[i]
    cert = IntMatrix.from_columns(columns)
    if a_g @ cert != a_f:
        raise NotSingleFlip("the certificate does not carry one incidence matrix to the other")
    if abs(determinant(cert)) != 1:
        raise NotUnimodular("the certificate is not unimodular")
    return cert
