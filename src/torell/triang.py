"""Lattice simplices, unimodular triangulations, flips, cone fans.

The fan of an affine quotient singularity is the cone over a lattice
simplex sitting at height one; unimodular triangulations of that simplex
are exactly the crepant resolutions, and flipping a diagonal of a unit
quadrilateral exchanges two of them while keeping them derived equivalent.
Flips connect them all, so they are listed by a breadth-first walk over
flips from the placing triangulation, bounded by WORK_LIMIT states.
Every triangulation, in any dimension, is checked on construction by one
linear rule on facet incidence: each facet of a cell lies on two cells on
opposite sides of it or in the simplex's boundary.
A certificate records the common simplex together with a replayable flip
path of any length between two triangulations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import lcm, prod
from typing import Iterable, Optional, Sequence

from .errors import (
    DimensionMismatch,
    IllegalFlip,
    NotDim2,
    NotInSL,
    NotUnimodular,
    TooLarge,
    WORK_LIMIT,
)
from .fan import Fan, facet_sides
from .lattice import adjugate, as_integers, determinant, hermite_transform

Point = tuple


def _orient(p: Point, q: Point, r: Point) -> int:
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


@dataclass(frozen=True)
class LatticeSimplex:
    """A lattice simplex with its lattice points enumerated.

    Coordinates live in the height-one hyperplane of the resolved lattice,
    identified with Z^dim; the cone construction reinstates the height.
    """

    dim: int
    vertices: tuple[Point, ...]
    points: tuple[Point, ...]          # all lattice points, sorted
    # per point, the facets it lies on, facet j being opposite vertices[j]
    point_facets: tuple[frozenset[int], ...] = field(compare=False, repr=False)
    # |det| of the edges from vertices[0], the cell count of each unimodular triangulation
    normalized_volume: int = field(compare=False, repr=False)

    @classmethod
    def from_vertices(cls, vertices: Sequence[Sequence[int]]) -> "LatticeSimplex":
        vertices = tuple(sorted(as_integers(v, "vertex coordinate") for v in vertices))
        if not vertices:
            raise DimensionMismatch("a simplex needs vertices")
        dim = len(vertices[0])
        if len(vertices) != dim + 1 or any(len(v) != dim for v in vertices):
            raise DimensionMismatch("a simplex in Z^d has exactly d+1 vertices")
        return cls(dim, vertices, *_enumerate_points(vertices, dim))

    @property
    def boundary_points(self) -> tuple[Point, ...]:
        return tuple(p for p, on in zip(self.points, self.point_facets) if on)

    @property
    def interior_points(self) -> tuple[Point, ...]:
        return tuple(p for p, on in zip(self.points, self.point_facets) if not on)

    def point_index(self, p: Sequence[int]) -> int:
        return self.points.index(tuple(p))


def _enumerate_points(vertices, dim):
    """The lattice points, in sorted order, the facets each lies on, and
    the normalized volume."""
    base = vertices[0]
    # The adjugate of the edge matrix gives every candidate's barycentric
    # coordinates times the determinant; only their signs matter, so the
    # determinant's sign is taken into the adjugate.
    det, adj = adjugate([[v[i] - base[i] for v in vertices[1:]] for i in range(dim)])
    if det == 0:
        raise DimensionMismatch("simplex vertices are affinely dependent")
    if det < 0:
        det, adj = -det, [[-x for x in row] for row in adj]
    ranges = [range(min(v[i] for v in vertices), max(v[i] for v in vertices) + 1)
              for i in range(dim)]
    box = prod(len(r) for r in ranges)
    if box > WORK_LIMIT:
        raise TooLarge(f"the simplex's bounding box holds {box} lattice points, "
                       f"over the limit of {WORK_LIMIT}")
    points, point_facets = [], []
    for p in product(*ranges):
        offset = [p[i] - base[i] for i in range(dim)]
        lam = [sum(x * y for x, y in zip(row, offset)) for row in adj]
        coords = [det - sum(lam)] + lam
        if all(c >= 0 for c in coords):
            points.append(p)
            point_facets.append(frozenset(j for j, c in enumerate(coords) if c == 0))
    return tuple(points), tuple(point_facets), det


@dataclass(frozen=True)
class Triangulation:
    """A unimodular triangulation of a lattice simplex using all its points.

    The facets on two cells, found once by the check on construction, are
    kept for ``flips``.
    """

    simplex: LatticeSimplex
    cells: tuple[tuple[int, ...], ...]   # sorted point-index tuples
    # interior facet -> the two cells on it, in the cells' order
    _facet_cells: dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        """Check the cells form a unimodular triangulation using every point.

        A facet of a cell must lie on two cells on opposite sides of it
        (``facet_sides``), or on one cell and inside a facet of the simplex.
        Then crossing a facet keeps the number of cells over a generic
        point, so that number is constant on the simplex, and as many cells
        as the normalized volume make it one.  The determinant of a cell's
        edges from its first point is that of its points at height one, up
        to a sign shared by every cell.
        """
        dim = self.simplex.dim
        pts = self.simplex.points
        dets = []
        for cell in self.cells:
            if len(cell) != dim + 1 or tuple(sorted(cell)) != cell:
                raise NotUnimodular(f"cell {cell} is not a sorted (dim+1)-tuple")
            if cell[0] < 0 or cell[-1] >= len(pts):
                raise NotUnimodular(f"cell {cell} names a point index outside "
                                    f"0..{len(pts) - 1}")
            base = pts[cell[0]]
            det = determinant([[pts[i][k] - base[k] for k in range(dim)] for i in cell[1:]])
            if abs(det) != 1:
                raise NotUnimodular(f"cell {cell} has normalized volume != 1")
            dets.append(det)
        if len(self.cells) != self.simplex.normalized_volume:
            raise NotUnimodular("cells do not fill the simplex")
        if set().union(*self.cells) != set(range(len(pts))):
            raise NotUnimodular("triangulation must use every lattice point")
        on, clash = facet_sides(self.cells, dets)
        if clash is not None:
            raise NotUnimodular(f"cells overlap or leave a gap at facet {clash[0]}")
        boundary = self.simplex.point_facets
        for facet, cells in on.items():
            if len(cells) == 1 and not frozenset.intersection(*(boundary[i] for i in facet)):
                raise NotUnimodular(f"cells overlap or leave a gap at facet {facet}")
        object.__setattr__(self, "_facet_cells",
                           {facet: cells for facet, cells in on.items() if len(cells) == 2})


@dataclass(frozen=True)
class FlipMove:
    """Exchange the diagonal of the unit quadrilateral formed by two cells."""

    cells_before: tuple[tuple[int, ...], tuple[int, ...]]
    cells_after: tuple[tuple[int, ...], tuple[int, ...]]
    removed_edge: tuple[int, int]
    added_edge: tuple[int, int]


def flips(t: Triangulation) -> tuple[FlipMove, ...]:
    """All legal diagonal flips preserving unimodularity."""
    if t.simplex.dim != 2:
        raise NotDim2("flips are implemented for two-dimensional simplices")
    pts = t.simplex.points
    moves = []
    for edge, (c1, c2) in sorted(t._facet_cells.items()):
        p, q = edge
        (r,) = set(c1) - set(edge)
        (s,) = set(c2) - set(edge)
        # The union is a strictly convex quadrilateral exactly when p and q
        # lie on opposite sides of the line through the other diagonal.
        if _orient(pts[r], pts[s], pts[p]) * _orient(pts[r], pts[s], pts[q]) >= 0:
            continue
        new1 = tuple(sorted((r, s, p)))
        new2 = tuple(sorted((r, s, q)))
        moves.append(FlipMove(
            cells_before=tuple(sorted((c1, c2))),
            cells_after=tuple(sorted((new1, new2))),
            removed_edge=edge,
            added_edge=tuple(sorted((r, s))),
        ))
    return tuple(moves)


@dataclass(frozen=True)
class DerivedEquivalenceCertificate:
    """Two triangulations of one simplex plus a replayable flip path.

    The shared simplex alone carries the equivalence; the flip path is kept
    as human-checkable provenance and is verified on construction.
    """

    source: Triangulation
    target: Triangulation
    moves: tuple[FlipMove, ...]

    def __post_init__(self):
        if self.source.simplex != self.target.simplex:
            raise IllegalFlip("certificate endpoints live on different simplices")
        cells = set(self.source.cells)
        for move in self.moves:
            if not set(move.cells_before) <= cells:
                raise IllegalFlip("flip path does not replay on the source")
            cells = (cells - set(move.cells_before)) | set(move.cells_after)
        if cells != set(self.target.cells):
            raise IllegalFlip("flip path does not reach the target")


def _flipped_cells(cells, move: FlipMove) -> tuple[tuple[int, ...], ...]:
    """The cells of a triangulation after a flip, sorted."""
    return tuple(sorted((set(cells) - set(move.cells_before)) | set(move.cells_after)))


def apply_flip(t: Triangulation, move: FlipMove):
    """The flipped triangulation plus the certificate pairing it with t."""
    if move not in flips(t):
        raise IllegalFlip(f"move removing edge {move.removed_edge} does not apply")
    flipped = Triangulation(t.simplex, _flipped_cells(t.cells, move))
    return flipped, DerivedEquivalenceCertificate(source=t, target=flipped,
                                                  moves=(move,))


def cone_fan(t: Triangulation) -> Fan:
    """The smooth good fan whose rays are the simplex points at height one."""
    rays = [p + (1,) for p in t.simplex.points]
    return Fan.from_cones(t.simplex.dim + 1, rays, t.cells)


def quotient_simplex(generators: Iterable[Sequence], rank: Optional[int] = None) -> LatticeSimplex:
    """The height-one simplex of the abelian quotient of affine space.

    Generators are weight vectors modulo one for a finite subgroup of the
    torus; their coordinate sums must be integers (the special-linear
    condition), which makes the coordinate-sum height integral on the
    refined lattice.  The simplex spanned by the images of the standard
    basis vectors is returned in coordinates for the height-zero sublattice.
    """
    gens = [tuple(Fraction(x) for x in g) for g in generators]
    if rank is None:
        if not gens:
            raise DimensionMismatch("rank is required for the trivial group")
        rank = len(gens[0])
    n = rank
    if n < 2:
        raise DimensionMismatch("the quotient construction needs rank >= 2")
    # The bounding box of an (n-1)-simplex holds at least 2^(n-1) points.
    if n - 1 >= WORK_LIMIT.bit_length():
        raise TooLarge(f"a rank-{n} quotient simplex has at least 2^{n - 1} lattice "
                       f"points in its bounding box, over the limit of {WORK_LIMIT}")
    if any(len(g) != n for g in gens):
        raise DimensionMismatch("generator weight vectors of unequal rank")
    for g in gens:
        if sum(g).denominator != 1:
            raise NotInSL(f"weights {','.join(map(str, g))} do not sum to an integer")
    denom = lcm(1, *(x.denominator for g in gens for x in g)) if gens else 1
    rows = [[denom if i == j else 0 for j in range(n)] for i in range(n)]
    rows += [[int(x * denom) for x in g] for g in gens]
    h, _, _ = hermite_transform(rows, n)
    refined_rank = sum(1 for row in h if any(row))
    if refined_rank != n:
        raise DimensionMismatch(f"refined lattice has rank {refined_rank}, not {n}")
    # The rows of h over denom are a basis of the refined lattice.
    heights = [sum(h[i]) for i in range(n)]
    if any(x % denom for x in heights):
        raise NotInSL(f"refined lattice basis has non-integral heights "
                      f"{','.join(str(Fraction(x, denom)) for x in heights)}")
    transform = _height_normalizer([x // denom for x in heights])
    # Column k of m is denom times basis vector k after the height change.
    m = [[sum(transform[j][k] * h[j][i] for j in range(n)) for k in range(n)]
         for i in range(n)]
    # Vertex i has the coordinates of e_i in the new basis: column i of the
    # inverse of m / denom, that is of denom * adj(m) / det(m).
    det, adj = adjugate(m)
    vertices = []
    for i in range(n):
        coords = [denom * row[i] for row in adj]
        if any(c % det for c in coords) or coords[-1] != det:
            raise NotInSL(f"vertex {i} of the quotient simplex is "
                          f"{','.join(str(Fraction(c, det)) for c in coords)}, "
                          "not a lattice point at height one")
        vertices.append(tuple(c // det for c in coords[:-1]))
    # Normalize the translation freedom: put the componentwise minimum at 0.
    lows = [min(v[i] for v in vertices) for i in range(n - 1)]
    vertices = [tuple(v[i] - lows[i] for i in range(n - 1)) for v in vertices]
    return LatticeSimplex.from_vertices(vertices)


def _height_normalizer(heights: list[int]) -> list[list[int]]:
    """Unimodular U (as U[j][k]) with sum-row . U = (0, ..., 0, 1).

    Its columns are a kernel basis of the heights followed by one integer
    combination of them reaching 1: the rows after the first of the
    Hermite transform of the heights column, then its first row.
    """
    _, u, _ = hermite_transform([[x] for x in heights], 1)
    if sum(x * y for x, y in zip(u[0], heights)) != 1:
        raise NotInSL(f"heights {heights} do not generate Z")
    return [list(row) for row in zip(*(u[1:] + u[:1]))]


def _placing_cells(simplex: LatticeSimplex) -> tuple[tuple[int, ...], ...]:
    """The cells of the lexicographic placing triangulation of a triangle.

    Each point, placed in sorted order, is a vertex of the hull of those
    before it, which holds every earlier lattice point and no later one;
    joined to each boundary edge it sees strictly, it makes empty, hence
    unimodular, triangles and no T-junction.
    """
    pts = simplex.points
    k = next(i for i in range(2, len(pts)) if _orient(pts[0], pts[1], pts[i]))
    # Boundary edges run counter-clockwise.  The collinear points placed
    # first form a chain of segments, each a boundary edge both ways.
    boundary = {e for i in range(k - 1) for e in ((i, i + 1), (i + 1, i))}
    cells = []
    for p in range(k, len(pts)):
        visible = {(a, b) for a, b in boundary if _orient(pts[a], pts[b], pts[p]) < 0}
        cells += [tuple(sorted((a, b, p))) for a, b in visible]
        # The visible edges form one path; p replaces it by two edges.
        starts, ends = {a for a, _ in visible}, {b for _, b in visible}
        (first,), (last,) = starts - ends, ends - starts
        boundary = (boundary - visible) | {(first, p), (p, last)}
    return tuple(sorted(cells))


def unimodular_triangulations(simplex: LatticeSimplex) -> tuple[Triangulation, ...]:
    """Every unimodular triangulation of a simplex of dimension 1 or 2.

    Flips connect the triangulations of a lattice polygon that use every
    point (Lawson 1972), so the plane case walks flips breadth first from
    the placing triangulation; more than WORK_LIMIT states raise TooLarge.
    """
    if simplex.dim == 1:
        cells = tuple((i, i + 1) for i in range(len(simplex.points) - 1))
        return (Triangulation(simplex, cells),)
    if simplex.dim != 2:
        raise NotDim2("enumeration is implemented for dimensions 1 and 2")
    start = Triangulation(simplex, _placing_cells(simplex))
    seen, found = {start.cells}, [start]
    for t in found:                     # found grows while it is read
        for move in flips(t):
            cells = _flipped_cells(t.cells, move)
            if cells not in seen:
                if len(seen) == WORK_LIMIT:
                    raise TooLarge(f"the simplex has more than {WORK_LIMIT} unimodular "
                                   "triangulations")
                seen.add(cells)
                found.append(Triangulation(simplex, cells))
    return tuple(sorted(found, key=lambda t: t.cells))


# --- built-in quotient example --------------------------------------------

def mu2_kernel_generators() -> tuple[tuple[Fraction, ...], ...]:
    """Weights of the rank-two two-torsion subgroup with trivial product."""
    half = Fraction(1, 2)
    return ((half, half, Fraction(0)), (half, Fraction(0), half))


def antidiagonal_generators(order: int) -> tuple[tuple[Fraction, ...], ...]:
    """Weights of the cyclic group acting with opposite characters on the plane."""
    return ((Fraction(1, order), Fraction(order - 1, order)),)


def mu2_kernel_simplex() -> LatticeSimplex:
    """The quotient triangle in standard coordinates: side-two right triangle."""
    return LatticeSimplex.from_vertices([(0, 0), (2, 0), (0, 2)])


def mu2_kernel_triangulations() -> tuple[Triangulation, Triangulation]:
    """The two flop-related triangulations of the quotient triangle.

    The first keeps the medial triangle; flipping the medial edge between
    (0,1) and (1,1) to the diagonal between (1,0) and (0,2) gives the
    second.
    """
    s = mu2_kernel_simplex()
    idx = s.point_index
    p00, p01, p02 = idx((0, 0)), idx((0, 1)), idx((0, 2))
    p10, p11, p20 = idx((1, 0)), idx((1, 1)), idx((2, 0))

    def triangulation(*cells):
        return Triangulation(s, tuple(sorted(tuple(sorted(c)) for c in cells)))

    medial = triangulation((p00, p10, p01), (p01, p10, p11), (p01, p11, p02), (p10, p20, p11))
    flipped = triangulation((p00, p10, p01), (p01, p10, p02), (p10, p11, p02), (p10, p20, p11))
    return medial, flipped


def flip_aliases(t: Triangulation) -> dict[str, FlipMove]:
    """Colour names for the flips of the built-in quotient triangle."""
    s = mu2_kernel_simplex()
    if t.simplex != s:
        return {}
    green = (s.point_index((0, 1)), s.point_index((1, 1)))
    red = (s.point_index((1, 0)), s.point_index((0, 2)))
    out = {}
    for move in flips(t):
        if move.removed_edge == tuple(sorted(green)):
            out["green"] = move
        elif move.removed_edge == tuple(sorted(red)):
            out["red"] = move
    return out
