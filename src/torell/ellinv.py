"""The sheaf-level shadow invariant and its comparison logic.

For a good fan the invariant is the triple (rank, multiset of interior
wall spans, determinant divisor).  Equal invariants are necessary for the
underlying sheaves to be isomorphic; for good surfaces a span-preserving
bijection of all rays is also sufficient.  For a single-ray reversal,
``flip_certificate`` gives a unimodular M with A_f = A_g M: M acts on the
columns of the incidence matrices.

The shadow and the comparison read structure each fan derives once: the
shadow takes the fan's sorted interior wall spans and its determinant
divisor, and the surface rule pairs rays through the fan's rays grouped by
line.  Each call still builds its own shadow and verdict: none is cached.

The signed top-cone by ray incidence matrix of a proper good surface is
that of an m-cycle: each ray lies on two top cones, and consecutive rays
span one.  The cycle is walked once through the fan's wall incidence, and
both matrices, their kernels and the arcs are read from the two walks.
The integer column span is the sum-zero lattice, so every column of one
surface's matrix is an arc of the other's cycle, and the certificate of a
single-ray reversal is built in O(m^2) with no Hermite form.  It is
unimodular with no determinant taken: both kernels are spanned by the
cycles' signed indicators, so A_f = A_g M gives det M = +-c0 for the c0
with M z_f = c0 z_g, and the certificate is built with c0 = 1
(``flip_certificate``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .errors import (
    FansMismatch,
    NotGood,
    NotProper,
    NotSingleFlip,
    NotSurface,
    RankMismatch,
    TooLarge,
    WORK_LIMIT,
)
from .fan import Fan
from .lattice import (
    IntMatrix,
    SublatticeClass,
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

    wall_spans is sorted, and equal classes are equal tuples, so two
    shadows have equal span multisets exactly when their tuples are equal.
    det_divisor holds (-multiplicity, class) for each distinct span, in the
    same order.  ``ell_shadow`` returns a new shadow on every call, holding
    the tuples its fan derived once.
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
    return EllShadow(
        ambient_rank=fan.ambient_rank,
        rank=len(fan.top_cones()),
        wall_spans=fan._interior_spans,
        det_divisor=fan._det_divisor,
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
            (lines_a, rays_a), (lines_b, rays_b) = fa._lines, fb._lines
            if lines_a == lines_b:
                # Pair up the rays line by line.
                pairing = tuple(zip(map(fa.rays.__getitem__, rays_a),
                                    map(fb.rays.__getitem__, rays_b)))
                return Verdict(ISOMORPHIC,
                               Witness("surface-ray-line-bijection", pairing),
                               RULE_SURFACE)
    return Verdict(UNKNOWN, None, RULE_NECESSARY_ONLY)


def _sorted_differences(a, b):
    """The multiset differences a - b and b - a of two sorted tuples of
    classes, each sorted, by one merge."""
    only_a, only_b = [], []
    i = j = 0
    while i < len(a) and j < len(b):
        x, y = a[i], b[j]
        if x == y:
            i += 1
            j += 1
        elif x < y:
            only_a.append(x)
            i += 1
        else:
            only_b.append(y)
            j += 1
    return tuple(only_a) + a[i:], tuple(only_b) + b[j:]


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


def _cycle(fan: Fan, start_ray: int) -> list[int]:
    """The cycle of top cones of a proper good surface, clockwise from a ray.

    shared[j] is the row, in ``top_cones()`` order, of the top cone spanned
    by the clockwise rays j and j + 1 (mod m), ray 0 being start_ray.  Each
    ray lies on two top cones, so the walk steps from a ray to the other top
    cone on it; only the first step takes a cross product, to turn clockwise.
    """
    row = {cone: i for i, cone in enumerate(fan.top_cones())}
    upper = fan._incidence.upper
    # A top cone is a pair of rays, so its other ray is its sum less one.
    first, second = upper[(start_ray,)]
    (x, y), (u, v) = fan.rays[start_ray], fan.rays[sum(first) - start_ray]
    top = first if x * v - y * u < 0 else second
    ray, shared = start_ray, []
    for _ in fan.rays:
        shared.append(row[top])
        ray = sum(top) - ray
        first, second = upper[(ray,)]
        top = second if first == top else first
    return shared


def _cycle_matrix(shared) -> IntMatrix:
    """The incidence matrix of a cycle of top cones: column j is e_p - e_q
    for the rows p < q of shared[j - 1] and shared[j]."""
    columns = [[0] * len(shared) for _ in shared]
    for j, column in enumerate(columns):
        p, q = sorted((shared[j - 1], shared[j]))
        column[p], column[q] = 1, -1
    return IntMatrix.from_columns(columns)


def flip_certificate(f: Fan, f2: Fan) -> IntMatrix:
    """Invertible integer M with A_f = A_{f2} . M, in closed form.

    A_f has a row per top cone in ``top_cones()`` order and a column per
    ray, clockwise from the reversed ray (from the least ray when the ray
    sets are equal); A_{f2} likewise, from the reversed ray's negation.
    Column j is e_p - e_q for the two top cones p < q on ray j, so
    consecutive columns share one top cone (see ``_cycle``).  Column j of A_f
    is e_a - e_b, so the signed indicator of A_{f2}'s columns along an arc
    of f2's cycle from b to a solves for it: each step from cone u to cone
    v contributes e_v - e_u, with its sign read from A_{f2}'s entry in row
    v.  Every column is therefore solvable (both column spans are the
    lattice L of sum-zero vectors); the shorter arc is taken, the clockwise
    one on a tie.  A_f = A_{f2} M is then verified exactly.  Building M
    costs O(m^2), and so does the check, as A_{f2} has two nonzeros per row.

    That check and a kernel correction make M unimodular.  A_f and A_{f2}
    map Z^m onto L, with kernels spanned by the signed indicators z_f and
    z_{f2} of their cycles, whose entries are +-1.  So A_{f2} M z_f = A_f z_f = 0 gives
    M z_f = c0 z_{f2}, and M induces the identity of L between the quotients
    Z^m / Z z_f and Z^m / Z z_{f2}, which A_f and A_{f2} carry onto L; hence
    det M = +-c0.  Adding t z_{f2} to column 0 (where z_f is +-1) changes no
    product A_{f2} M and makes c0 one.
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
    shared_f = _cycle(f, f.rays.index(v))
    shared_g = _cycle(f2, f2.rays.index(w))
    m = len(shared_f)
    # z[j], the entry of column j in row shared[j], is +1 when that row is
    # the smaller of the two the column joins.
    z_f, z_g = ([1 if s[j] < s[j - 1] else -1 for j in range(m)] for s in (shared_f, shared_g))
    position = {row: j for j, row in enumerate(shared_g)}
    columns = []
    for j in range(m):
        a, b = sorted((shared_f[j - 1], shared_f[j]))
        x = [0] * m
        start, end = position[b], position[a]
        forward = (end - start) % m
        if 2 * forward <= m:
            # Clockwise from b: columns start + 1, ..., end.
            for step in range(1, forward + 1):
                c = (start + step) % m
                x[c] = z_g[c]
        else:
            # Counter-clockwise from b: columns start, ..., end + 1.
            for step in range(m - forward):
                c = (start - step) % m
                x[c] = -z_g[c]
        columns.append(x)
    # M z_f = c0 z_g, read off row 0; z_f[0] and z_g[0] are +-1, so the
    # divisions are multiplications.
    c0 = sum(column[0] * zj for column, zj in zip(columns, z_f)) * z_g[0]
    t = (1 - c0) * z_f[0]
    columns[0] = [x + t * zi for x, zi in zip(columns[0], z_g)]
    cert = IntMatrix.from_columns(columns)
    if _cycle_matrix(shared_g) @ cert != _cycle_matrix(shared_f):
        raise NotSingleFlip("the certificate does not carry one incidence matrix to the other")
    return cert
