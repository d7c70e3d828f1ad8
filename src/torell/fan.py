"""Fans of toric varieties: validation, walls, isomorphism.

A fan is stored as primitive ray generators plus the set of all its cones,
each cone a sorted tuple of ray indices (the zero cone is the empty tuple).
Fans are simplicial by construction and immutable after validation; all
queries are pure functions.

What a ``Fan`` derives once and keeps for its lifetime:

* at construction, from the facets its closure walk meets and the
  determinants its checks compute: its maximal and top cones, wall
  incidence (each wall's top cones), smoothness, goodness and properness;
* on first use, its walls, each with its span and, when first read, its
  primitive normal;
* on first use, its interior wall spans, sorted, and its determinant
  divisor, read off them;
* on first use, for a surface, its rays grouped by the line they span:
  each ray's line (the basis row of its wall's span), sorted, and the ray
  indices in that order;
* the first chart: its top cone, its inverse, every ray's coordinates in
  it, largest entry first, and its top cone's key;
* the top-cone index: every top cone keyed by the relations on its walls
  (see ``_top_key``), which a lattice map keeps up to the order of their
  entries; m entries for m top cones.

Only these immutable tuples and the index are shared between calls.
Results (``EllShadow``, ``MomentGraph``, ``Verdict``, isomorphism
matrices) are built anew on every call from this structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, cmp_to_key
from itertools import groupby, permutations
from operator import mul
from typing import Iterable, Optional, Sequence

from .errors import MAX_RANK, WORK_LIMIT, MalformedFan, NotGood, TooLarge, TorellError
from .lattice import (
    IntMatrix,
    SublatticeClass,
    adjugate,
    as_integers,
    determinant,
    is_primitive,
    primitive_normal,
    saturate,
    span_class,
)

Cone = tuple  # sorted tuple of ray indices


def _normalize_cone(cone: Sequence[int], nrays: int, rank: int) -> Cone:
    cone = tuple(sorted(as_integers(cone, "ray index", MalformedFan)))
    if len(set(cone)) != len(cone):
        raise MalformedFan(f"repeated ray index in cone {cone}")
    if cone and (cone[0] < 0 or cone[-1] >= nrays):
        raise MalformedFan(f"ray index out of range in cone {cone}")
    if len(cone) > rank:
        raise MalformedFan(f"cone {cone} has too many rays")
    return cone


def ccw_order(vectors: Sequence[Sequence[int]], start: Sequence[int]) -> list[int]:
    """Indices of nonzero plane vectors, counter-clockwise by angle from start.

    Angles are taken in [0, 2pi) from the direction of start; vectors of
    equal angle keep their input order.
    """
    def half(v):
        # 0: along start, 1: the open half turn after it, 2: opposite it,
        # 3: the open half turn after that.
        cross = start[0] * v[1] - start[1] * v[0]
        if cross:
            return 1 if cross > 0 else 3
        return 0 if start[0] * v[0] + start[1] * v[1] > 0 else 2

    halves = [half(v) for v in vectors]

    def before(i, j):
        # Within one half the angle grows from u to v exactly when u x v > 0.
        (u0, u1), (v0, v1) = vectors[i], vectors[j]
        return halves[i] - halves[j] or u1 * v0 - u0 * v1

    return sorted(range(len(vectors)), key=cmp_to_key(before))


def facet_sides(cells: Sequence[Cone], dets: Sequence[int]
                ) -> tuple[dict[Cone, tuple[Cone, ...]], Optional[tuple[Cone, Cone, Cone]]]:
    """The cells on each facet of the given cells, in the cells' order, and
    the least (facet, cell, cell) with both cells on one side of the facet.

    Cells are sorted index tuples of one length, each with the determinant
    of its points in that order, up to a sign shared by every cell.  Cells
    meet facet to facet only when the points they hold off a common facet
    lie strictly on opposite sides of its hyperplane, so the cells on one
    facet must lie on pairwise different sides: at most two, and two on
    opposite sides.

    The sides need no new elimination: moving the point off a facet from
    place k of a cell to the end takes len(cell) - 1 - k transpositions, so
    each side is the sign of the cell's own determinant, flipped when
    len(cell) - 1 - k is odd.
    """
    on: dict[Cone, tuple[Cone, ...]] = {}
    first_on_side: tuple[dict[Cone, Cone], ...] = ({}, {})   # per side: facet -> cell
    clashes = []
    for cell, det in zip(cells, dets):
        for k in range(len(cell)):
            facet = cell[:k] + cell[k + 1:]
            on[facet] = on.get(facet, ()) + (cell,)
            first = first_on_side[(det > 0) != ((len(cell) - 1 - k) % 2 == 1)]
            if facet in first:
                clashes.append((facet, first[facet], cell))
            else:
                first[facet] = cell
    return on, min(clashes, default=None)


@dataclass(frozen=True)
class _Incidence:
    """Incidence data of a fan, derived once and shared by every query.

    upper maps each (n-1)-dimensional cone to the top cones it lies on,
    in sorted order on both levels.
    """

    maximal: tuple[Cone, ...]
    tops: tuple[Cone, ...]
    upper: dict[Cone, tuple[Cone, ...]]
    smooth: bool
    good: bool
    proper: bool


@dataclass(frozen=True)
class Fan:
    """A simplicial fan in Z^ambient_rank, built from generating cones; its
    constructor completes their faces and reads the maximal cones off that walk."""

    ambient_rank: int
    rays: tuple[tuple[int, ...], ...]
    cones: frozenset[Cone]
    _incidence: _Incidence = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        (n,) = as_integers((self.ambient_rank,), "ambient rank", MalformedFan)
        if n < 1:
            raise MalformedFan("ambient rank must be at least 1")
        if n > MAX_RANK:
            raise TooLarge(f"ambient rank {n} is over the limit of {MAX_RANK}")
        rays = tuple(as_integers(r, "ray coordinate", MalformedFan) for r in self.rays)
        # One walk closes the cones under faces, each cone read once and a
        # cone with more rays than the rank refused before any face is built.
        # The cones it never meets as a facet are the maximal ones.
        closed = {()}
        closed.update(_normalize_cone(cone, len(rays), n) for cone in self.cones)
        facets = set()
        reached = list(closed)             # grows as it is read
        for cone in reached:
            for i in range(len(cone)):
                facet = cone[:i] + cone[i + 1:]
                facets.add(facet)
                if facet not in closed:
                    closed.add(facet)
                    reached.append(facet)
            if len(closed) > WORK_LIMIT:
                raise TooLarge(f"the cones and their faces number more than "
                               f"the limit of {WORK_LIMIT}")
        object.__setattr__(self, "ambient_rank", n)
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "cones", frozenset(closed))
        seen = set()
        for ray in rays:
            if len(ray) != n:
                raise MalformedFan(f"ray {ray} does not live in Z^{n}")
            if not any(ray):
                raise MalformedFan("zero vector is not a ray")
            if not is_primitive(ray):
                raise MalformedFan(f"ray {ray} is not primitive")
            if ray in seen:
                raise MalformedFan(f"repeated ray {ray}")
            seen.add(ray)
        # Faces keep independence, and faces of a set that extends to a
        # lattice basis extend to one, so only maximal cones are checked: n
        # rays by their determinant, fewer by their span and its saturation,
        # and the zero cone not at all: it spans 0, which is saturated.
        maximal = tuple(sorted(closed - facets))
        dets = {}                       # top cone -> its determinant
        smooth = True
        for cone in filter(None, maximal):
            rows = [rays[i] for i in cone]
            if len(cone) == n:
                dets[cone] = determinant(rows)
                independent = dets[cone] != 0
                smooth = smooth and abs(dets[cone]) == 1
            else:
                span = span_class(rows, n)
                independent = span.rank == len(cone)
                smooth = smooth and span == saturate(rows, n)
            if not independent:
                raise MalformedFan(f"rays of cone {cone} are linearly dependent")
        if set().union(*maximal) != set(range(len(rays))):
            raise MalformedFan("some listed ray appears in no cone")
        if n == 2:
            self._check_plane_cones(maximal)
        # No n-cone is a facet, so the top cones are the maximal n-cones.
        tops = tuple(c for c in maximal if len(c) == n)
        # Rank 1 has two opposite rays at most, and in rank 2 two cones on
        # one side of a ray hold each other's ray, which the plane check has
        # refused, so only higher ranks can clash.
        on, clash = facet_sides(tops, [dets[t] for t in tops])
        if clash is not None:
            wall, first, second = clash
            raise MalformedFan(f"cones {first} and {second} lie on the same "
                               f"side of their common wall {wall}")
        # Keyed by the fan's own wall tuples, so no copies are kept, and
        # inserted in sorted order, so walls() need not sort.
        upper = {w: on.get(w, ()) for w in sorted(c for c in closed if len(c) == n - 1)}
        # Good: smooth, and every maximal cone is top-dimensional.
        good = smooth and len(tops) == len(maximal)
        proper = bool(tops) and all(len(u) == 2 for u in upper.values())
        if proper and n >= 3:
            # Complete top cones must cover space once (see is_proper).
            if len(tops) < len(maximal):
                raise MalformedFan(f"maximal cone {min(set(maximal) - set(tops))} lies "
                                   f"inside the space that the top cones cover")
            point = [sum(column) for column in zip(*(rays[i] for i in tops[0]))]
            for top in tops[1:]:
                # The point's coordinates in the chart of top, times det^2.
                d, adj = adjugate([rays[i] for i in top])
                if all(d * sum(map(mul, column, point)) >= 0 for column in zip(*adj)):
                    raise MalformedFan(f"top cones {tops[0]} and {top} overlap: both hold "
                                       f"the sum of the rays of {tops[0]}")
        object.__setattr__(self, "_incidence",
                           _Incidence(maximal, tops, upper, smooth, good, proper))

    def _check_plane_cones(self, maximal: tuple[Cone, ...]):
        """Refuse a 2-cone with a ray of the fan strictly inside it.

        Two planar cones, each narrower than a half turn, meet in a common
        face exactly when neither holds another's ray in its interior, so
        this is the fan axiom in the plane: the two rays of every 2-cone
        must be neighbours in the counter-clockwise order of all rays,
        read from the ray where the cone's short angle starts.  In the
        plane every 2-cone is maximal.
        """
        order = ccw_order(self.rays, (1, 0))
        after = {r: order[(k + 1) % len(order)] for k, r in enumerate(order)}
        for cone in (c for c in maximal if len(c) == 2):
            i, j = cone
            (u0, u1), (v0, v1) = self.rays[i], self.rays[j]
            first, second = (i, j) if u0 * v1 - u1 * v0 > 0 else (j, i)
            if after[first] != second:
                raise MalformedFan(
                    f"ray {self.rays[after[first]]} lies inside cone {cone}")

    @classmethod
    def from_cones(cls, ambient_rank: int, rays: Iterable[Sequence[int]],
                   cones: Iterable[Sequence[int]]) -> "Fan":
        """Build a fan from generating cones, as the constructor does."""
        return cls(ambient_rank, rays, cones)

    # -- queries ----------------------------------------------------------

    @cached_property
    def _walls(self) -> tuple[Wall, ...]:
        # Kept apart from _incidence so that validation does no span work.
        out = []
        for cone, upper in self._incidence.upper.items():
            # The rays of a cone of a smooth fan extend to a lattice basis, so
            # they span a saturated sublattice: their Hermite form is its class.
            span = span_class([self.rays[i] for i in cone], self.ambient_rank)
            out.append(Wall(cone=cone, upper=upper, span=span))
        return tuple(out)

    @cached_property
    def _interior_spans(self) -> tuple[SublatticeClass, ...]:
        """The spans of the interior walls, sorted."""
        return tuple(sorted(w.span for w in self._walls if w.interior))

    @cached_property
    def _det_divisor(self) -> tuple[tuple[int, SublatticeClass], ...]:
        """(-multiplicity, class) for each distinct interior wall span, in
        the spans' order.  Equal classes are adjacent in the sorted spans."""
        return tuple((-len(list(run)), s) for s, run in groupby(self._interior_spans))

    @cached_property
    def _lines(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """For a good surface: the line each ray spans, and the ray indices
        in the same order, sorted by line and then by ray.

        In the plane every ray is a wall.  A ray is primitive, so its line
        is the basis row of that wall's span, the ray sign-normalised.  The
        rows are the spans' own, not copies.
        """
        rows = sorted((w.span.basis[0], self.rays[i], i) for w in self._walls for i in w.cone)
        return tuple(line for line, _, _ in rows), tuple(i for _, _, i in rows)

    @cached_property
    def _top_index(self) -> dict[tuple, tuple[Cone, ...]]:
        """The top cones of a good fan keyed by ``_top_key``, each key's
        top cones in ``top_cones()`` order.  Each wall's relation is read
        once, for both its top cones."""
        n = self.ambient_rank
        relation = {wall: _wall_relation(self.rays, wall, upper)
                    for wall, upper in self._incidence.upper.items()}
        index: dict[tuple, list[Cone]] = {}
        for top in self._incidence.tops:
            key = _top_key([relation[top[:k] + top[k + 1:]] for k in range(n)])
            index.setdefault(key, []).append(top)
        return {key: tuple(tops) for key, tops in index.items()}

    @cached_property
    def _first_chart(self):
        """The first top cone sigma0, the inverse of its ray matrix, every
        (ray index, sigma0 chart coordinates), largest entry first, so that
        a wrong candidate fails after a few rays, and the ``_top_key`` of
        sigma0.  Defined for good fans."""
        sigma0 = self.top_cones()[0]
        d, adj = adjugate(list(zip(*(self.rays[i] for i in sigma0))))
        vinv = IntMatrix(tuple(tuple(d * x for x in row) for row in adj))
        coordinates = tuple(sorted(((i, vinv.apply(ray)) for i, ray in enumerate(self.rays)),
                                   key=lambda ic: -max(map(abs, ic[1]))))
        upper = self._incidence.upper
        key = _top_key([_wall_relation(self.rays, w, upper[w])
                        for w in (sigma0[:k] + sigma0[k + 1:] for k in range(len(sigma0)))])
        return sigma0, vinv, coordinates, key

    def top_cones(self) -> tuple[Cone, ...]:
        return self._incidence.tops

    def maximal_cones(self) -> tuple[Cone, ...]:
        return self._incidence.maximal

    def is_smooth(self) -> bool:
        return self._incidence.smooth

    def is_good(self) -> bool:
        return self._incidence.good

    def is_proper(self) -> bool:
        """True when the fan's support is all of R^n.

        For a valid fan this is equivalent to every (n-1)-dimensional cone
        lying on exactly two top-dimensional cones: a wall seen by only one
        top cone is a facet of the support's boundary.  Construction makes
        such top cones cover space once.  They lie on opposite sides of each
        wall, so a path crossing walls off the (n-2)-cones swaps one top cone
        for another, and the number of top cones over a point off the walls
        is constant (the plane check settles rank 2).  The sum of the first
        top cone's rays lies inside it, so the number is one exactly when no
        other top cone holds that sum, even on its boundary; a maximal cone
        of lower dimension would then lie in a top cone without being a face.
        """
        return self._incidence.proper


@dataclass(frozen=True)
class FanReport:
    smooth: bool
    good: bool
    proper: bool


@dataclass(frozen=True)
class Wall:
    """An (n-1)-dimensional cone with its neighbouring top cones."""

    cone: Cone
    upper: tuple[Cone, ...]
    span: SublatticeClass
    # Written once, not a cached_property, which takes a lock under CPython
    # 3.11: on a fresh fan the first read of each normal costs a quarter as much.
    _normal: Optional[tuple[int, ...]] = field(default=None, init=False, repr=False,
                                               compare=False)

    @property
    def interior(self) -> bool:
        return len(self.upper) == 2

    @property
    def normal(self) -> tuple[int, ...]:
        """The primitive covector cutting out the span, sign-normalised;
        derived on first use and kept."""
        if self._normal is None:
            object.__setattr__(self, "_normal", primitive_normal(self.span))
        return self._normal


def validate(fan: Fan) -> FanReport:
    """Classify a structurally valid fan as smooth / good / proper."""
    return FanReport(smooth=fan.is_smooth(), good=fan.is_good(), proper=fan.is_proper())


def walls(fan: Fan) -> tuple[Wall, ...]:
    """All (n-1)-dimensional cones with their containing top cones and
    spans, derived once per fan."""
    if not fan.is_good():
        raise NotGood("walls are only enumerated for good fans")
    return fan._walls


def fan_isomorphic(f: Fan, g: Fan) -> Optional[IntMatrix]:
    """A unimodular matrix carrying f onto g (rays to rays, cones to cones).

    Every lattice map is fixed by where it sends the ray basis of one chart
    sigma0 of f, and it carries f onto g only if it sends that ordered basis
    to an ordering of a top cone of g.  It then carries each wall of sigma0
    to a wall of the image, boundary walls to boundary walls, and each
    wall's relation (see ``_wall_relation``) to the image wall's relation
    with its entries permuted.  So the image has the ``_top_key`` of sigma0,
    and only the top cones that g's ``_top_index`` holds under that key are
    tried, in ``top_cones()`` order, each in every ordering of its rays.  A
    candidate is kept when it sends every ray of f, through its sigma0
    chart coordinates, onto a ray of g, and every top cone of f onto a top
    cone of g.  The key is necessary, so the first candidate that carries f
    onto g is the first a scan of every ordered top cone of g would find,
    and so is the matrix.  Returns None when no isomorphism exists; a
    search that tries more than WORK_LIMIT orderings raises TooLarge.
    """
    for fan in (f, g):
        if not fan.is_good():
            raise NotGood("fan isomorphism search requires good fans")
    # Isomorphic fans have one rank and as many rays, cones and top cones.
    sizes = [(h.ambient_rank, len(h.rays), len(h.cones), len(h.top_cones())) for h in (f, g)]
    if sizes[0] != sizes[1]:
        return None
    sigma0, vinv, coordinates, key = f._first_chart
    ray_index = {ray: i for i, ray in enumerate(g.rays)}
    g_top_set = set(g.top_cones())
    # Every entry is written before the top cones read it, so one list serves
    # every candidate.
    mapping = [0] * len(f.rays)

    def carries(image):
        # Each ray goes to the combination of the image basis its chart
        # coordinates give.  Every cone of a good fan is a face of a top cone,
        # and the map is injective on as many cones as g has, so it is onto.
        rows = tuple(zip(*(g.rays[j] for j in image)))
        for i, c in coordinates:
            j = ray_index.get(tuple([sum(map(mul, row, c)) for row in rows]))
            if j is None:
                return False
            mapping[i] = j
        return all(tuple(sorted([mapping[i] for i in top])) in g_top_set
                   for top in f.top_cones())

    tried = 0
    for top in g._top_index.get(key, ()):
        for image in permutations(top):
            tried += 1
            if tried > WORK_LIMIT:
                raise TooLarge(f"the isomorphism search tries more ordered top cones "
                               f"than the limit of {WORK_LIMIT}")
            if carries(image):
                return IntMatrix.from_columns([g.rays[j] for j in image]) @ vinv
    return None


def _top_key(relations: Sequence[Optional[tuple[int, ...]]]) -> tuple:
    """The key of a top cone, from the relations on its walls (None on a
    boundary wall): each relation with its entries sorted, a boundary wall
    as (), all sorted.  A lattice map carrying one top cone onto another
    keeps it, whatever the order of either's rays."""
    return tuple(sorted([() if r is None else tuple(sorted(r)) for r in relations]))


def _wall_relation(rays, wall: Cone, upper: tuple[Cone, ...]) -> Optional[tuple[int, ...]]:
    """The integers a, one per ray v of the wall in its order, with
    u + w = sum of a_v v, where u and w are the rays that the wall's two
    top cones add to it; None on a boundary wall.

    They are the coordinates of w in the chart (wall, u), whose determinant
    d is +-1 in a good fan: d times the adjugate of the chart applied to w.
    The coordinate on u is -1 because the two top cones lie on opposite
    sides of the wall.
    """
    if len(upper) != 2:
        return None
    first, second = upper
    (u,) = [i for i in first if i not in wall]
    (w,) = [i for i in second if i not in wall]
    # The chart's rays are the rows of its transpose, so the coordinates
    # are read from the columns of the adjugate of those rows.
    d, adj = adjugate([rays[i] for i in wall] + [rays[u]])
    coordinates = tuple(d * sum(map(mul, column, rays[w])) for column in zip(*adj))
    if coordinates[-1] != -1:
        raise TorellError(f"the top cones on wall {wall} do not meet across it "
                          f"in a unimodular relation")
    return coordinates[:-1]

