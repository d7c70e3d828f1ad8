"""Fans of toric varieties: validation, walls, isomorphism.

A fan is stored as primitive ray generators plus the set of all its cones,
each cone a sorted tuple of ray indices (the zero cone is the empty tuple).
Fans are simplicial by construction and immutable after validation; all
queries are pure functions.

What a ``Fan`` derives once and keeps for its lifetime:

* at construction, from the facets and determinants its checks compute:
  its maximal and top cones, wall incidence (each wall's top cones),
  smoothness, goodness and properness;
* on first use, its walls, each with its span and, when first read, its
  primitive normal;
* on first use, its interior wall spans, sorted;
* on first use, for a surface, its rays grouped by the line they span:
  each ray's line (the basis row of its wall's span), sorted, and the ray
  indices in that order;
* the isomorphism walk: a first chart, its inverse, and the other top
  cones in breadth-first order across walls with the chart coordinates
  of the rays they add;
* the chart-signature index: every ordered top cone, keyed by the chart
  coordinates of the rays its neighbours across walls add.

Only these immutable tuples and the index are shared between calls.
Results (``EllShadow``, ``MomentGraph``, ``Verdict``, isomorphism
matrices) are built anew on every call from this structure.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations, permutations
from operator import mul
from typing import Iterable, Optional, Sequence

from .errors import WORK_LIMIT, MalformedFan, NotGood, TooLarge, TorellError
from .lattice import (
    IntMatrix,
    SublatticeClass,
    adjugate,
    determinant,
    integer_rank,
    inverse_unimodular,
    is_primitive,
    primitive_normal,
    span_class,
)

Cone = tuple  # sorted tuple of ray indices


def _normalize_cone(cone: Sequence[int], nrays: int, rank: int) -> Cone:
    cone = tuple(sorted(int(i) for i in cone))
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
    def angle_key(i):
        v = vectors[i]
        cross = start[0] * v[1] - start[1] * v[0]
        dot = start[0] * v[0] + start[1] * v[1]
        if cross:
            # Within either open half turn the cotangent dot/cross falls
            # as the angle grows.
            return (1 if cross > 0 else 3, Fraction(-dot, cross))
        return (0 if dot > 0 else 2, 0)

    return sorted(range(len(vectors)), key=angle_key)


def _facets(cones: Iterable[Cone]) -> set[Cone]:
    """Every cone obtained by dropping one ray from a listed cone."""
    return {c[:i] + c[i + 1:] for c in cones for i in range(len(c))}


def facet_sides(cells: Sequence[Cone], dets: Optional[Sequence[int]] = None
                ) -> tuple[dict[Cone, tuple[Cone, ...]], Optional[tuple[Cone, Cone, Cone]]]:
    """The cells on each facet of the given cells, in the cells' order, and
    the least (facet, cell, cell) with both cells on one side of the facet.

    Cells are sorted index tuples of one length, each with the determinant
    of its points in that order, up to a sign shared by every cell.  Cells
    meet facet to facet only when the points they hold off a common facet
    lie strictly on opposite sides of its hyperplane, so the cells on one
    facet must lie on pairwise different sides: at most two, and two on
    opposite sides.  Without determinants no side is read and the second
    result is None.

    The sides need no new elimination: moving the point off a facet from
    place k of a cell to the end takes len(cell) - 1 - k transpositions, so
    each side is the sign of the cell's own determinant, flipped when
    len(cell) - 1 - k is odd.
    """
    on: dict[Cone, tuple[Cone, ...]] = {}
    first_on_side: tuple[dict[Cone, Cone], ...] = ({}, {})   # per side: facet -> cell
    clashes = []
    for j, cell in enumerate(cells):
        for k in range(len(cell)):
            facet = cell[:k] + cell[k + 1:]
            on[facet] = on.get(facet, ()) + (cell,)
            if dets is not None:
                first = first_on_side[(dets[j] > 0) != ((len(cell) - 1 - k) % 2 == 1)]
                if facet in first:
                    clashes.append((facet, first[facet], cell))
                else:
                    first[facet] = cell
    return on, min(clashes, default=None)


@dataclass(frozen=True, slots=True)
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
    """A simplicial fan in Z^ambient_rank, closed under taking faces."""

    ambient_rank: int
    rays: tuple[tuple[int, ...], ...]
    cones: frozenset[Cone]
    _incidence: _Incidence = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.ambient_rank
        if n < 1:
            raise MalformedFan("ambient rank must be at least 1")
        seen = set()
        for ray in self.rays:
            if len(ray) != n:
                raise MalformedFan(f"ray {ray} does not live in Z^{n}")
            if not any(ray):
                raise MalformedFan("zero vector is not a ray")
            if not is_primitive(ray):
                raise MalformedFan(f"ray {ray} is not primitive")
            if ray in seen:
                raise MalformedFan(f"repeated ray {ray}")
            seen.add(ray)
        if () not in self.cones:
            raise MalformedFan("the zero cone is missing")
        # Closed under facets means closed under faces, and the faces of an
        # independent set are independent: only maximal cones need a rank,
        # and n rays are independent when their determinant is nonzero.
        facets = _facets(self.cones)
        used = set()
        dets = {}                       # top cone -> its determinant
        for cone in self.cones:
            if _normalize_cone(cone, len(self.rays), n) != cone:
                raise MalformedFan(f"cone {cone} is not a sorted index tuple")
            used.update(cone)
            for i in range(len(cone)):
                facet = cone[:i] + cone[i + 1:]
                if facet not in self.cones:
                    raise MalformedFan(f"face {facet} of {cone} is missing")
            if cone in facets:
                continue
            rows = [self.rays[i] for i in cone]
            if len(cone) == n:
                dets[cone] = determinant(IntMatrix(tuple(rows)))
                independent = dets[cone] != 0
            else:
                independent = integer_rank(rows, n) == len(cone)
            if not independent:
                raise MalformedFan(f"rays of cone {cone} are linearly dependent")
        if used != set(range(len(self.rays))):
            raise MalformedFan("some listed ray appears in no cone")
        object.__setattr__(self, "_incidence", self._derive_incidence(facets, dets))
        if n == 2:
            self._check_plane_cones()

    def _check_plane_cones(self):
        """Refuse a 2-cone with a ray of the fan strictly inside it.

        Two planar cones, each narrower than a half turn, meet in a common
        face exactly when neither holds another's ray in its interior, so
        this is the fan axiom in the plane: the two rays of every 2-cone
        must be neighbours in the counter-clockwise order of all rays,
        read from the ray where the cone's short angle starts.
        """
        order = ccw_order(self.rays, (1, 0))
        after = {r: order[(k + 1) % len(order)] for k, r in enumerate(order)}
        for cone in self.cones:
            if len(cone) != 2:
                continue
            i, j = cone
            (u0, u1), (v0, v1) = self.rays[i], self.rays[j]
            first, second = (i, j) if u0 * v1 - u1 * v0 > 0 else (j, i)
            if after[first] != second:
                raise MalformedFan(
                    f"ray {self.rays[after[first]]} lies inside cone {cone}")

    @classmethod
    def from_cones(cls, ambient_rank: int, rays: Iterable[Sequence[int]],
                   cones: Iterable[Sequence[int]]) -> "Fan":
        """Build a fan from generating cones; faces are completed.

        A cone with more rays than the rank is refused before any face is
        built.  The faces are closed one facet at a time, each cone once,
        and a closure of more than WORK_LIMIT cones raises TooLarge as soon
        as it passes the limit.
        """
        rays = tuple(tuple(int(x) for x in r) for r in rays)
        closed = {()}
        closed.update(_normalize_cone(cone, len(rays), ambient_rank) for cone in cones)
        reached = list(closed)             # grows as it is read
        for cone in reached:
            if not cone:
                continue
            for facet in combinations(cone, len(cone) - 1):
                if facet not in closed:
                    closed.add(facet)
                    reached.append(facet)
            if len(closed) > WORK_LIMIT:
                raise TooLarge(f"the cones and their faces number more than "
                               f"the limit of {WORK_LIMIT}")
        return cls(ambient_rank, rays, frozenset(closed))

    # -- queries ----------------------------------------------------------

    def _derive_incidence(self, facets: set[Cone], dets: dict[Cone, int]) -> _Incidence:
        n = self.ambient_rank
        maximal = tuple(sorted(c for c in self.cones if c not in facets))
        # No n-cone is a facet, so the top cones are the maximal n-cones.
        tops = tuple(c for c in maximal if len(c) == n)
        # Rank 1 has two opposite rays at most and in rank 2 the plane check
        # is the whole fan axiom, so only higher ranks read sides.
        on, clash = facet_sides(tops, [dets[t] for t in tops] if n >= 3 else None)
        if clash is not None:
            wall, first, second = clash
            raise MalformedFan(f"cones {first} and {second} lie on the same "
                               f"side of their common wall {wall}")
        # Keyed by the fan's own wall tuples, so no copies are kept, and
        # inserted in sorted order, so walls() need not sort.
        upper = {w: on.get(w, ()) for w in sorted(c for c in self.cones if len(c) == n - 1)}
        smooth = all(abs(d) == 1 for d in dets.values())
        # Good: smooth, and every maximal cone is top-dimensional.
        good = smooth and len(tops) == len(maximal)
        proper = bool(tops) and all(len(u) == 2 for u in upper.values())
        return _Incidence(maximal, tops, upper, smooth, good, proper)

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
        """The spans of the interior walls, sorted by ``sort_key``.  They
        share ambient rank and rank, so their bases give that order."""
        return tuple(sorted((w.span for w in self._walls if w.interior),
                            key=lambda s: s.basis))

    @cached_property
    def _lines(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """For a good surface: the line each ray spans, and the ray indices
        in the same order, sorted by line and then by ray.

        In the plane every ray is a wall.  A ray is primitive, so its line
        is the basis row of that wall's span, the ray sign-normalised, and
        ordering lines by that row is ordering their classes by
        ``sort_key``.  The rows are the spans' own, not copies.
        """
        rows = sorted((w.span.basis[0], self.rays[i], i) for w in self._walls for i in w.cone)
        return tuple(line for line, _, _ in rows), tuple(i for _, _, i in rows)

    @cached_property
    def _chart_index(self) -> dict[tuple, tuple[int, ...]]:
        """Every ordered top cone of a good fan, keyed by its chart signature.

        The signature of an ordered top cone (t_0, ..., t_{n-1}) lists, for
        each k, the ray that the top cone across the wall opposite t_k adds,
        in chart coordinates with the entry on t_k, always -1, left out; a
        wall on the boundary lists None.  Each interior wall is read once:
        with u and w the rays its two top cones add to it, the relation
        u + w = sum of a_v v over its rays v gives those coordinates on
        both sides.  An ordered top cone is coded as t * n! + p, where t is
        its place in ``top_cones()`` and p the place of its ordering in
        ``permutations(range(n))``, so each key lists its codes in the
        order a scan of the top cones and their orderings meets them.
        """
        n = self.ambient_rank
        relation = {wall: _wall_relation(self.rays, wall, *upper) if len(upper) == 2 else None
                    for wall, upper in self._incidence.upper.items()}
        orders = tuple(permutations(range(n)))
        # For each ordering, the places in each opposite wall of the other
        # rays, in the ordering's order; None where that is the wall's own
        # order, and None for the whole ordering (always so in rank <= 2)
        # when it is so on every wall.
        picks = []
        for order in orders:
            pick = []
            for q in order:
                places = tuple(j - (j > q) for j in order if j != q)
                pick.append(None if places == tuple(sorted(places)) else places)
            picks.append(None if pick.count(None) == n else tuple(pick))
        index: dict[tuple, list[int]] = {}
        code = 0
        for top in self._incidence.tops:
            opposite = [relation[top[:k] + top[k + 1:]] for k in range(n)]
            for order, pick in zip(orders, picks):
                if pick is None:
                    key = tuple([opposite[q] for q in order])
                else:
                    key = tuple(a if a is None or at is None else tuple([a[j] for j in at])
                                for a, at in zip([opposite[q] for q in order], pick))
                index.setdefault(key, []).append(code)
                code += 1
        return {key: tuple(codes) for key, codes in index.items()}

    @cached_property
    def _isomorphism_walk(self):
        """The first top cone sigma0, the inverse of its ray matrix, and
        every other top cone with the sigma0 chart coordinates of the rays
        it adds, in the order a walk across walls from sigma0 meets them.
        Defined for good fans."""
        sigma0 = self.top_cones()[0]
        vinv = inverse_unimodular(self.ray_matrix(sigma0))
        steps = tuple((top, tuple((i, vinv.apply(self.rays[i])) for i in new))
                      for top, new in _tops_by_wall_distance(self, sigma0)[1:])
        return sigma0, vinv, steps

    def cones_of_dim(self, d: int) -> tuple[Cone, ...]:
        return tuple(sorted(c for c in self.cones if len(c) == d))

    def top_cones(self) -> tuple[Cone, ...]:
        return self._incidence.tops

    def maximal_cones(self) -> tuple[Cone, ...]:
        return self._incidence.maximal

    def ray_matrix(self, cone: Cone) -> IntMatrix:
        """Columns are the cone's ray generators in sorted index order."""
        return IntMatrix.from_columns([self.rays[i] for i in cone])

    def is_smooth(self) -> bool:
        return self._incidence.smooth

    def is_good(self) -> bool:
        return self._incidence.good

    def is_proper(self) -> bool:
        """True when the fan's support is all of R^n.

        For a valid fan this is equivalent to every (n-1)-dimensional cone
        lying on exactly two top-dimensional cones: a wall seen by only one
        top cone is a facet of the support's boundary.
        """
        return self._incidence.proper


@dataclass(frozen=True)
class FanReport:
    smooth: bool
    good: bool
    proper: bool


@dataclass(frozen=True, slots=True)
class Wall:
    """An (n-1)-dimensional cone with its neighbouring top cones."""

    cone: Cone
    upper: tuple[Cone, ...]
    span: SublatticeClass
    # A slot rather than a cached_property: on a fresh fan the first read of
    # every wall's normal costs a third as much, and a Wall has no __dict__.
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
    smooth = fan.is_smooth()
    return FanReport(smooth=smooth, good=fan.is_good(), proper=fan.is_proper())


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
    to an ordered top cone of g.  It then also carries the top cone across
    each wall of sigma0 to the top cone across the matching wall of the
    image, and boundary walls to boundary walls; being linear, it keeps the
    chart coordinates of the ray each neighbour adds.  So the image has the
    chart signature of sigma0 (see ``Fan._chart_index``), and only the
    ordered top cones of g under that signature are tried, in the order of
    a scan of every top cone of g and every ordering of its rays.  The
    signature is necessary, so the first candidate that carries f onto g
    is the first the full scan would find, and so is the matrix.  Returns
    None when no isomorphism exists.
    """
    for fan in (f, g):
        if not fan.is_good():
            raise NotGood("fan isomorphism search requires good fans")
    if f.ambient_rank != g.ambient_rank:
        return None
    if len(f.rays) != len(g.rays) or len(f.cones) != len(g.cones):
        return None
    if len(f.top_cones()) != len(g.top_cones()):
        return None
    sigma0, vinv, steps = f._isomorphism_walk
    ray_index = {ray: i for i, ray in enumerate(g.rays)}
    g_tops = g.top_cones()
    g_top_set = set(g_tops)

    def carries(image):
        # The candidate sends the rays of sigma0 to those of image, and
        # every other ray to the same combination of the image basis.
        rows = tuple(zip(*(g.rays[j] for j in image)))
        mapping = dict(zip(sigma0, image))
        for top, new in steps:
            for i, c in new:
                j = ray_index.get(tuple([sum(map(mul, row, c)) for row in rows]))
                if j is None:
                    return False
                mapping[i] = j
            if tuple(sorted([mapping[i] for i in top])) not in g_top_set:
                return False
        # Every cone of a good fan is a face of a top cone, so f's cones
        # land on g's; the map is injective and both fans have as many
        # cones, so it hits all of them.
        return True

    orders = tuple(permutations(range(f.ambient_rank)))
    for code in g._chart_index.get(_chart_signature(f), ()):
        top, order = divmod(code, len(orders))
        image = tuple(g_tops[top][k] for k in orders[order])
        if carries(image):
            return IntMatrix.from_columns([g.rays[j] for j in image]) @ vinv
    return None


def _chart_signature(fan: Fan) -> tuple:
    """The chart signature of the first chart of the isomorphism walk, as
    ``Fan._chart_index`` keys it, read with the chart's inverse."""
    sigma0, vinv, _ = fan._isomorphism_walk
    upper = fan._incidence.upper
    signature = []
    for k in range(len(sigma0)):
        wall = sigma0[:k] + sigma0[k + 1:]
        across = [top for top in upper[wall] if top != sigma0]
        if across:
            (added,) = [i for i in across[0] if i not in wall]
            c = vinv.apply(fan.rays[added])
            signature.append(c[:k] + c[k + 1:])
        else:
            signature.append(None)
    return tuple(signature)


def _wall_relation(rays, wall: Cone, first: Cone, second: Cone) -> tuple[int, ...]:
    """The integers a, one per ray v of the wall in its order, with
    u + w = sum of a_v v, where u and w are the rays that the wall's top
    cones first and second add to it.

    They are the coordinates of w in the chart (wall, u), whose determinant
    d is +-1 in a good fan: d times the adjugate of the chart applied to w.
    The coordinate on u is -1 because the two top cones lie on opposite
    sides of the wall.
    """
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


def _tops_by_wall_distance(fan: Fan, start: Cone) -> list[tuple[Cone, tuple[int, ...]]]:
    """Every top cone with the rays it is first to hold, breadth first
    across walls from start; a part the walk cannot reach is walked next
    from its smallest top cone.  In a good fan every ray is listed."""
    upper = fan._incidence.upper
    seen_tops, seen_rays = set(), set()
    steps = []
    for root in (start,) + fan.top_cones():
        if root in seen_tops:
            continue
        seen_tops.add(root)
        queue = deque([root])
        while queue:
            top = queue.popleft()
            steps.append((top, tuple(i for i in top if i not in seen_rays)))
            seen_rays.update(top)
            for k in range(len(top)):
                for neighbour in upper[top[:k] + top[k + 1:]]:
                    if neighbour not in seen_tops:
                        seen_tops.add(neighbour)
                        queue.append(neighbour)
    return steps
