"""Direct definitions of fan incidence, saturation, walls, shadows, the
Čech poset and surface comparison, kept as test oracles.

These are the subset scans, double-kernel saturation, meet-closure
fixpoint and per-ray saturation the library used before it derived one
incidence index per fan, closed forms for single vectors, normals and ray
lines, and the closed-form list of the Čech poset; the per-call wall
builder and the hashed multiset counts the library used before each fan
derived its walls once; exact point location and rational
determinants for the fan axiom; the backtracking enumerator of
unimodular triangulations the library used before it walked flips; and
the pairwise triangle-overlap check the library used before it checked
facet incidence; the pairwise test of a star's wall connectivity the
library used before it walked across walls; the three-letter order on
the words of one chart, which the single-chart Čech poset must
reproduce; and the one-system-at-a-time rational solves for quotient
vertices the library used before it inverted each matrix once; and the
surface flip certificate solved against Hermite forms and the dense
Bareiss determinant the library used before it walked the
cycle of top cones, took determinants from one Gauss-Jordan pass and
read a certificate's unimodularity from its kernels; and the incidence
matrices of surfaces with their rays sorted by angle, which the library
wrote out before it read the matrices from one walk of that cycle; and the Gauss-Jordan
elimination over Q and the Hermite-form integer solver the library used
before every inverse came from one integer adjugate; the Leibniz
expansion of the determinant, against which the closed forms of small
sizes are checked; and the plane order
by rational cotangents and the chart signature read through the chart's
inverse the library used before it compared cross products and read the
signature from wall relations; and the chart-signature index with its
table of per-ordering places and integer codes, keyed by ordered top
cones, which the library built before it keyed each unordered top cone
by its sorted wall relations; and the sublattice class
as the frozen dataclass with a sort key the library used before a class
became the tuple (ambient_rank, rank, basis); and the search of the
built Čech poset for each singular element's witness the library used
before it wrote the witness from the fan's interior walls.  They are slow but
follow the definitions literally, so the fast code is checked against them.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd, lcm

from torell import ellinv
from torell.cech import CoverElement, WitnessEntry, WitnessReport, letter_meet
from torell.errors import DimensionMismatch, DisconnectedStar, NotGood, NotInSL, TorellError
from torell.fan import Wall, _wall_relation
from torell.lattice import (
    IntMatrix,
    SublatticeClass,
    hermite_transform,
    determinant,
    kernel_basis,
    sign_normalized,
    span_class,
)
from torell.triang import LatticeSimplex, Triangulation, _height_normalizer, _orient


def closed_and_independent(n, rays, cones):
    """Every face of every cone is listed and every cone's rays are
    independent, checked cone by cone and face by face."""
    return all(face in cones
               and len(hermite_transform([rays[i] for i in cone], n)[2]) == len(cone)
               for cone in cones for k in range(len(cone)) for face in combinations(cone, k))


def cone_contains(generators, direction):
    """Whether a direction is a nonnegative combination of n generators in
    Q^n, by exact Gauss-Jordan on [generators | direction]; dependent
    generators contain nothing."""
    n = len(direction)
    aug = [[Fraction(g[k]) for g in generators] + [Fraction(direction[k])] for k in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return False
        aug[col], aug[piv] = aug[piv], aug[col]
        scale = aug[col][col]
        aug[col] = [x / scale for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return all(aug[k][n] >= 0 for k in range(n))


def overlapping_cones(rays, cones):
    """Whether two cones of a planar cone set with independent 2-cones fail
    to meet in a common face, by point location: some ray lies in a 2-cone
    it does not generate, or the sum of one 2-cone's rays lies in another."""
    planes = [[rays[i] for i in c] for c in cones if len(c) == 2]
    inner = [(u[0] + v[0], u[1] + v[1]) for u, v in planes]
    for generators in planes:
        if any(ray not in generators and cone_contains(generators, ray) for ray in rays):
            return True
        if any(other is not generators and cone_contains(generators, point)
               for other, point in zip(planes, inner)):
            return True
    return False


def rational_determinant(rows):
    """Determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(len(a)):
        piv = next((r for r in range(col, len(a)) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, len(a)):
            factor = a[r][col] / a[col][col]
            a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return det


def one_sided_wall(n, rays, cones):
    """Whether some two n-cones on a common (n-1)-cone have their rays off
    it on the same side of its hyperplane, by scanning every pair of
    n-cones; an (n-1)-cone on three or more n-cones always has two such."""
    tops = [set(c) for c in cones if len(c) == n]
    for t1, t2 in combinations(tops, 2):
        wall = sorted(t1 & t2)
        if len(wall) != n - 1:
            continue
        if sum(1 for t in tops if set(wall) <= t) > 2:
            return True
        rows = [rays[i] for i in wall]
        (i,), (j,) = t1 - set(wall), t2 - set(wall)
        if ((rational_determinant(rows + [rays[i]]) > 0)
                == (rational_determinant(rows + [rays[j]]) > 0)):
            return True
    return False


def ray_sum_holders(n, rays, cones):
    """For each n-cone, the number of n-cones holding the sum of its rays,
    by exact rational point location; in a fan each number is one."""
    tops = [[rays[i] for i in c] for c in cones if len(c) == n]
    return [sum(cone_contains(t, [sum(column) for column in zip(*s)]) for t in tops)
            for s in tops]


def cones_of_dim(fan, d):
    return tuple(sorted(c for c in fan.cones if len(c) == d))


def top_cones(fan):
    return cones_of_dim(fan, fan.ambient_rank)


def maximal_cones(fan):
    sets = {c: set(c) for c in fan.cones}
    return tuple(sorted(
        c for c in fan.cones
        if not any(c != d and sets[c] < sets[d] for d in fan.cones)))


def is_smooth(fan):
    """Every maximal cone's rays extend to a lattice basis: the maximal
    minors of their rows have gcd 1 (a top cone's one minor is +-1)."""
    n = fan.ambient_rank
    return all(gcd(*(int(rational_determinant([[fan.rays[i][j] for j in cols] for i in c]))
                     for cols in combinations(range(n), len(c)))) == 1
               for c in maximal_cones(fan))


def is_good(fan):
    """Smooth, and every cone lies on some top cone."""
    tops = [set(c) for c in top_cones(fan)]
    if not is_smooth(fan):
        return False
    return all(any(set(c) <= t for t in tops) for c in fan.cones)


def wall_upper(fan, wall):
    """The top cones containing a wall, by scanning all of them."""
    return tuple(t for t in top_cones(fan) if set(wall) <= set(t))


def is_proper(fan):
    """Every (n-1)-cone lies on exactly two top cones."""
    if not top_cones(fan):
        return False
    return all(len(wall_upper(fan, w)) == 2
               for w in cones_of_dim(fan, fan.ambient_rank - 1))


@dataclass(frozen=True, slots=True)
class DataclassSublattice:
    """A saturated sublattice of Z^n as its ambient rank and Hermite basis,
    compared field by field and sorted by ``sort_key``."""

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


def saturate(vectors, n):
    """Saturation as the double orthogonal complement, in Hermite form."""
    perp = kernel_basis(vectors, n)
    sat = kernel_basis(perp, n)
    h, _, pivots = hermite_transform(sat, n)
    return SublatticeClass(n, tuple(tuple(r) for r in h[:len(pivots)]))


def primitive_normal(s):
    (kern,) = kernel_basis(s.basis, s.ambient_rank)
    return sign_normalized(kern)


def walls(fan):
    """Every wall with its top cones and span, built afresh on each call."""
    if not fan.is_good():
        raise NotGood("walls are only enumerated for good fans")
    out = []
    for cone in cones_of_dim(fan, fan.ambient_rank - 1):
        out.append(Wall(cone=cone, upper=wall_upper(fan, cone),
                        span=span_class([fan.rays[i] for i in cone], fan.ambient_rank)))
    return tuple(out)


def ell_shadow(fan):
    """The shadow with its divisor counted in a hash table and sorted again."""
    spans = sorted(w.span for w in walls(fan) if w.interior)
    divisor = tuple(sorted(((-mult, cls) for cls, mult in Counter(spans).items()),
                           key=lambda t: t[1]))
    return ellinv.EllShadow(ambient_rank=fan.ambient_rank, rank=len(top_cones(fan)),
                            wall_spans=tuple(spans), det_divisor=divisor)


def multiset_differences(a, b):
    """The multiset differences a - b and b - a of two sequences of
    classes, counted in hash tables, each sorted."""
    ca, cb = Counter(a), Counter(b)
    return tuple(sorted((ca - cb).elements())), tuple(sorted((cb - ca).elements()))


def span_witness(a, b):
    """The wall-span verdict on two shadows, by counting spans in hash
    tables; None when the span multisets agree."""
    if Counter(a.wall_spans) == Counter(b.wall_spans):
        return None
    return ellinv.Verdict(ellinv.NOT_ISOMORPHIC,
                          ellinv.Witness("wall-span-mismatch",
                                         multiset_differences(a.wall_spans, b.wall_spans)),
                          ellinv.RULE_SPANS)


def incidence_entries(fan, order):
    """Signed incidence rows of a surface, each ray's top cones found by
    scanning all of them."""
    tops = top_cones(fan)
    entries = [[0] * len(tops) for _ in tops]
    for col, ray in enumerate(order):
        first, second = [i for i, cone in enumerate(tops) if ray in cone]
        entries[first][col], entries[second][col] = 1, -1
    return entries


def clockwise_order(fan, start):
    """A surface's ray indices clockwise from ray start: the order by
    rational cotangents, counter-clockwise, reversed after its first ray."""
    ccw = ccw_order(fan.rays, fan.rays[start])
    return ccw[:1] + ccw[:0:-1]


def clockwise_incidence(fan, start):
    """The signed incidence matrix of a surface with its rays clockwise
    from ray start, as ``ellinv.flip_certificate`` reads it."""
    return IntMatrix.from_rows(incidence_entries(fan, clockwise_order(fan, start)))


def fan_isomorphic(f, g):
    """Every ordered ray tuple of every top cone of g, tried as the image
    of the first chart of f, composing the full matrix each time."""
    if f.ambient_rank != g.ambient_rank:
        return None
    if len(f.rays) != len(g.rays) or len(f.cones) != len(g.cones):
        return None
    if len(top_cones(f)) != len(top_cones(g)):
        return None
    # A unimodular matrix has an integral inverse, so int() reads it exactly.
    columns = [f.rays[i] for i in top_cones(f)[0]]
    vinv = IntMatrix.from_rows([map(int, row) for row in rational_inverse(list(zip(*columns)))])
    ray_index = {ray: i for i, ray in enumerate(g.rays)}
    for tau in top_cones(g):
        for image in permutations(tau):
            m = IntMatrix.from_columns([g.rays[i] for i in image]) @ vinv
            mapping = {}
            for i, ray in enumerate(f.rays):
                j = ray_index.get(m.apply(ray))
                if j is None:
                    break
                mapping[i] = j
            else:
                mapped = {tuple(sorted(mapping[i] for i in cone)) for cone in f.cones}
                if mapped == set(g.cones):
                    return m
    return None


# --- surface comparison with one saturation per ray -------------------------

def ray_line_classes(fan):
    """The lines of the rays, each saturated from its ray."""
    return sorted(saturate([r], fan.ambient_rank) for r in fan.rays)


def ray_bijection(fa, fb):
    """Pair up rays of two surfaces line class by line class."""
    def grouped(fan):
        groups = {}
        for ray in fan.rays:
            groups.setdefault(saturate([ray], fan.ambient_rank), []).append(ray)
        return groups
    ga, gb = grouped(fa), grouped(fb)
    pairs = []
    for cls in sorted(ga):
        for ra, rb in zip(sorted(ga[cls]), sorted(gb[cls])):
            pairs.append((ra, rb))
    return tuple(pairs)


def compare(a, b, fans):
    """ellinv.compare with the span multisets counted in hash tables, the
    fans' lines compared class list to class list and the witness paired
    from a second grouping."""
    if a.ambient_rank != b.ambient_rank or a.rank != b.rank:
        return ellinv.compare(a, b)
    verdict = span_witness(a, b)
    if verdict is not None:
        return verdict
    fa, fb = fans
    if fa.ambient_rank == 2 and ray_line_classes(fa) == ray_line_classes(fb):
        return ellinv.Verdict(ellinv.ISOMORPHIC,
                              ellinv.Witness("surface-ray-line-bijection", ray_bijection(fa, fb)),
                              ellinv.RULE_SURFACE)
    return ellinv.Verdict(ellinv.UNKNOWN, None, ellinv.RULE_NECESSARY_ONLY)


# --- the Čech poset as the closure of the cover under meets ------------------

def _star_connected(tops, star):
    """Grow one wall-connected component inside the star until it stops."""
    n = len(tops[0])
    component = {star[0]}
    grown = True
    while grown:
        grown = False
        for j in star:
            if j not in component and any(
                    len(set(tops[i]) & set(tops[j])) == n - 1 for i in component):
                component.add(j)
                grown = True
    return len(component) == len(star)


def star_connected_pairwise(tops, star):
    """Grow one component from the star's first top cone, comparing each
    top cone it reaches with every other top cone of the star for a shared
    wall: the check the library made before it walked across the fan's
    walls."""
    n = len(tops[0])
    seen, frontier = {star[0]}, [star[0]]
    while frontier:
        cur = frontier.pop()
        for other in star:
            if other not in seen and len(set(tops[cur]) & set(tops[other])) == n - 1:
                seen.add(other)
                frontier.append(other)
    return len(seen) == len(star)


# The letter order of one chart coordinate: c < a and c < b.
LETTERS = ("a", "b", "c")


def cube_words(n):
    """Every word of n letters: the elements of the cube poset."""
    return ["".join(w) for w in product(LETTERS, repeat=n)]


def cube_leq(w1, w2):
    """The cube poset's order, letter by letter."""
    return all(x == y or x == "c" for x, y in zip(w1, w2))


def build_element(tops, letters):
    """The open with the given non-a letters, spread over its star."""
    rho = frozenset(letters)
    support = tuple(i for i, cone in enumerate(tops) if rho <= set(cone))
    if not support:
        raise NotGood(f"rays {tuple(sorted(rho))} lie on no top cone")
    if not _star_connected(tops, support):
        raise DisconnectedStar(
            f"star of cone with rays {tuple(sorted(rho))} is not wall-connected")
    return CoverElement(
        support=support,
        words=tuple("".join(letters.get(r, "a") for r in tops[i]) for i in support),
        grade=sum(1 for v in letters.values() if v == "c"),
        ray_letters=tuple(sorted(letters.items())),
    )


def meet(tops, e1, e2):
    """Intersection of two elements; None when the opens are disjoint."""
    common = set(e1.support) & set(e2.support)
    if not common:
        return None
    d1, d2 = dict(e1.ray_letters), dict(e2.ray_letters)
    letters = {r: letter_meet(d1.get(r, "a"), d2.get(r, "a")) for r in set(d1) | set(d2)}
    element = build_element(tops, letters)
    if set(element.support) != common:
        raise TorellError(f"meet has support {element.support}, "
                          f"not the common charts {tuple(sorted(common))}")
    return element


def cover(fan):
    """Seed one element per top cone and a/b word; duplicates collapse."""
    if not fan.is_good():
        raise NotGood("the distinguished cover is defined for good fans")
    tops = fan.top_cones()
    seen = {}
    for cone in tops:
        for pattern in product("ab", repeat=fan.ambient_rank):
            letters = {ray: "b" for ray, letter in zip(cone, pattern) if letter == "b"}
            element = build_element(tops, letters)
            seen[element.ray_letters] = element
    return tuple(sorted(seen.values(), key=lambda e: e.sort_key()))


def cech_elements(fan):
    """Close the cover under pairwise meets until nothing new appears."""
    tops = fan.top_cones()
    elements = {e.ray_letters: e for e in cover(fan)}
    changed = True
    while changed:
        changed = False
        current = list(elements.values())
        for i, e1 in enumerate(current):
            for e2 in current[i + 1:]:
                met = meet(tops, e1, e2)
                if met is not None and met.ray_letters not in elements:
                    elements[met.ray_letters] = met
                    changed = True
    return tuple(sorted(elements.values(), key=lambda e: e.sort_key()))


def poset_witness(poset):
    """The cohomology witness found in a built poset: each singular element
    of grade n - 1, the all-c and single-b elements of its charts looked up
    by their letters, and both containments checked with ``leq``."""
    n = poset.ambient_rank
    entries = []
    singulars = [e for e in poset.elements if e.grade == n - 1 and len(e.support) > 1]
    for e in singulars:
        comps, covers, positions = [], [], []
        for cid, word in zip(e.support, e.words):
            cone = poset.tops[cid]
            pos = word.index("a")
            positions.append(pos)
            component = poset.find(tuple(sorted((r, "c") for r in cone)))
            smooth_cover = poset.find(tuple(sorted((r, "b" if i == pos else "c")
                                                   for i, r in enumerate(cone))))
            if component is None or smooth_cover is None:
                raise TorellError(f"no smooth witness for singular element over chart {cone}")
            if not (poset.leq(component, e) and poset.leq(component, smooth_cover)):
                raise TorellError(f"witness containment fails over chart {cone}")
            comps.append(component)
            covers.append(smooth_cover)
        entries.append(WitnessEntry(singular=e, components=tuple(comps),
                                    smooth_covers=tuple(covers),
                                    divisor_positions=tuple(positions)))
    return WitnessReport(ambient_rank=n, entries=tuple(entries), singular_count=len(singulars))


def _ccw(tri):
    return tri if _orient(*tri) > 0 else (tri[0], tri[2], tri[1])


def _triangles_overlap(t1, t2) -> bool:
    """Exact test for positive-area intersection of two triangles."""
    t1, t2 = _ccw(t1), _ccw(t2)

    def separates(tri, other):
        for k in range(3):
            p, q = tri[k], tri[(k + 1) % 3]
            if all(_orient(p, q, x) <= 0 for x in other):
                return True
        return False

    return not (separates(t1, t2) or separates(t2, t1))


def triangulation_ok(simplex, cells):
    """Whether cells form a unimodular triangulation of a lattice triangle
    using every point: sorted unimodular cells, as many as the normalized
    volume, and no two of positive-area intersection."""
    pts = simplex.points
    tris = [tuple(pts[i] for i in cell) for cell in cells]
    return (all(len(cell) == 3 and tuple(sorted(cell)) == cell for cell in cells)
            and all(abs(_orient(*tri)) == 1 for tri in tris)
            and len(cells) == simplex.normalized_volume
            and set().union(*cells) == set(range(len(pts)))
            and not any(_triangles_overlap(t1, t2) for t1, t2 in combinations(tris, 2)))


def unimodular_triangulations(simplex):
    """Every unimodular triangulation of a lattice triangle, by placing
    cells against pending boundary edges and backtracking, each new cell
    checked for overlap against every placed one; sorted by cells."""
    pts = simplex.points
    verts = list(simplex.vertices)
    if _orient(*verts) < 0:
        verts[1], verts[2] = verts[2], verts[1]
    pending0 = set()
    for a, b in ((0, 1), (1, 2), (2, 0)):
        va, vb = verts[a], verts[b]
        on_side = [p for p in pts
                   if _orient(va, vb, p) == 0
                   and min(va[0], vb[0]) <= p[0] <= max(va[0], vb[0])
                   and min(va[1], vb[1]) <= p[1] <= max(va[1], vb[1])]
        on_side.sort(key=lambda p: ((p[0] - va[0]) ** 2 + (p[1] - va[1]) ** 2))
        for p, q in zip(on_side, on_side[1:]):
            pending0.add((simplex.point_index(p), simplex.point_index(q)))
    results = []

    def search(pending, placed):
        if not pending:
            results.append(Triangulation(simplex, tuple(sorted(placed))))
            return
        a, b = min(pending)
        pa, pb = pts[a], pts[b]
        for w in range(len(pts)):
            if w in (a, b):
                continue
            pw = pts[w]
            if _orient(pa, pb, pw) != 1:
                continue
            tri = (pa, pb, pw)
            if any(_triangles_overlap(tri, old) for old in placed_tris):
                continue
            new_pending = set(pending)
            new_pending.discard((a, b))
            for e in ((b, w), (w, a)):
                if e in new_pending:
                    new_pending.discard(e)
                else:
                    rev = (e[1], e[0])
                    if rev in new_pending:
                        raise TorellError(f"edge {rev} would bound three cells")
                    new_pending.add(rev)
            placed.append(tuple(sorted((a, b, w))))
            placed_tris.append(tri)
            search(new_pending, placed)
            placed.pop()
            placed_tris.pop()

    placed_tris = []
    search(pending0, [])
    return tuple(sorted(results, key=lambda t: t.cells))


# --- quotient vertices, one rational system at a time ------------------------

def row_reduce(rows):
    """Reduced row echelon form over Q by exact Gauss-Jordan elimination.

    Returns (R, pivots): R has the input's row space over Q, every pivot is
    1 and the only nonzero entry of its column, zero rows come last, and
    pivots lists the pivot column of each nonzero row.
    """
    a = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(len(a[0]) if a else 0):
        r = len(pivots)
        if r == len(a):
            break
        piv = next((i for i in range(r, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        scale = a[r][col]
        a[r] = [x / scale for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col]:
                factor = a[i][col]
                a[i] = [x - factor * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
    return a, pivots


def rational_inverse(rows):
    """The inverse over Q of a square matrix, from Gauss-Jordan on [A | I];
    None when the matrix is singular."""
    n = len(rows)
    a, pivots = row_reduce([list(row) + [int(i == j) for j in range(n)]
                            for i, row in enumerate(rows)])
    return [row[n:] for row in a] if pivots == list(range(n)) else None


def solve_fractions(rows, rhs):
    """Solve the square nonsingular rational system given by rows."""
    n = len(rows)
    a, pivots = row_reduce([list(rows[i]) + [rhs[i]] for i in range(n)])
    if pivots != list(range(n)):
        raise DimensionMismatch("the rational system is singular")
    return [a[i][n] for i in range(n)]


def quotient_simplex(generators, rank=None):
    """The height-one quotient simplex, each vertex solved for on its own
    in the height-normalized basis of the refined lattice."""
    gens = [tuple(Fraction(x) for x in g) for g in generators]
    n = len(gens[0]) if rank is None else rank
    denom = lcm(1, *(x.denominator for g in gens for x in g))
    rows = [[denom if i == j else 0 for j in range(n)] for i in range(n)]
    rows += [[int(x * denom) for x in g] for g in gens]
    h, _, _ = hermite_transform(rows, n)
    basis = [tuple(Fraction(x, denom) for x in h[i]) for i in range(n)]
    transform = _height_normalizer([int(sum(b)) for b in basis])
    new_basis = [tuple(sum(transform[j][k] * basis[j][i] for j in range(n))
                       for i in range(n))
                 for k in range(n)]
    cols = [[new_basis[k][i] for k in range(n)] for i in range(n)]
    vertices = []
    for i in range(n):
        coords = solve_fractions(cols, [Fraction(1 if j == i else 0) for j in range(n)])
        if any(c.denominator != 1 for c in coords) or coords[-1] != 1:
            raise NotInSL(f"vertex {i} of the quotient simplex is {coords}")
        vertices.append(tuple(int(c) for c in coords[:-1]))
    lows = [min(v[i] for v in vertices) for i in range(n - 1)]
    return LatticeSimplex.from_vertices(
        [tuple(v[i] - lows[i] for i in range(n - 1)) for v in vertices])


# --- surface flip certificates by Hermite forms, dense Bareiss ---------------

def integer_solver(a):
    """``b -> one integer solution x of A x = b, or None if none exists``,
    from the Hermite form of A's transpose."""
    h, u, pivots = hermite_transform([list(col) for col in zip(*a.entries)], a.rows)

    def solve(b):
        residue = list(b)
        coeffs = [0] * len(h)
        for r, c in enumerate(pivots):
            q, rem = divmod(residue[c], h[r][c])
            if rem:
                return None
            coeffs[r] = q
            residue = [x - q * y for x, y in zip(residue, h[r])]
        if any(residue):
            return None
        return tuple(sum(q * ui for q, ui in zip(coeffs, col)) for col in zip(*u))

    return solve


def bareiss(rows):
    """Determinant by fraction-free Bareiss elimination, every row below the
    pivot updated at every step."""
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
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def leibniz_determinant(rows):
    """The determinant as the sum over all permutations of the signed
    products of entries, each sign read from the permutation's inversions."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        term = (-1) ** sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def matmul(a, b):
    """The product of two IntMatrix values by the triple loop."""
    return IntMatrix.from_rows(
        [[sum(a.entries[i][k] * b.entries[k][j] for k in range(a.cols)) for j in range(b.cols)]
         for i in range(a.rows)])


def flip_certificate(f, g):
    """An integer M with A_f = A_g M and |det M| = 1 for the incidence
    matrices ``ellinv.flip_certificate`` uses, every column solved against
    one Hermite form of A_g and corrected along the Hermite kernels; None
    when some column has no integer solution."""
    pair = ellinv._reversed_ray_pair(f, g)
    v, w = pair if pair is not None else (min(f.rays), min(f.rays))
    a_f = clockwise_incidence(f, f.rays.index(v))
    a_g = clockwise_incidence(g, g.rays.index(w))
    m = a_f.rows
    solve = integer_solver(a_g)
    columns = [solve(column) for column in zip(*a_f.entries)]
    if any(x is None for x in columns):
        return None
    columns = [list(x) for x in columns]
    (z_f,) = kernel_basis(a_f.entries, m)
    (z_g,) = kernel_basis(a_g.entries, m)
    image = [sum(columns[j][i] * z_f[j] for j in range(m)) for i in range(m)]
    pivot = next(i for i, x in enumerate(z_g) if x)
    c0, rem = divmod(image[pivot], z_g[pivot])
    assert rem == 0 and image == [c0 * x for x in z_g]
    k0 = next(i for i, x in enumerate(z_f) if abs(x) == 1)
    t = (1 - c0) // z_f[k0]
    for i in range(m):
        columns[k0][i] += t * z_g[i]
    return IntMatrix.from_columns(columns)


# --- plane order by cotangents, chart signatures through the chart inverse ---

def ccw_order(vectors, start):
    """Indices of nonzero plane vectors, counter-clockwise by angle from
    start, ties in input order, sorted by half turn and rational cotangent."""
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


def chart_signature(fan):
    """The chart signature of the first chart sigma0:
    for each wall of sigma0, the sigma0 chart coordinates of the ray the
    top cone across it adds, with the entry on the ray off the wall left
    out; None for a boundary wall."""
    sigma0, vinv = fan._first_chart[:2]
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


def chart_index(fan):
    """The chart-signature index built from a table of each ordering's
    places in the opposite walls, with a shortcut for orderings that keep
    every wall's order, and each ordered top cone coded as t * n! + p (t
    its place in the top cones, p that of its ordering in the
    permutations); the codes are decoded here to the ordered top cones."""
    n = fan.ambient_rank
    relation = {wall: _wall_relation(fan.rays, wall, upper)
                for wall, upper in fan._incidence.upper.items()}
    orders = tuple(permutations(range(n)))
    picks = []
    for order in orders:
        pick = []
        for q in order:
            places = tuple(j - (j > q) for j in order if j != q)
            pick.append(None if places == tuple(sorted(places)) else places)
        picks.append(None if pick.count(None) == n else tuple(pick))
    codes = {}
    code = 0
    for top in fan.top_cones():
        opposite = [relation[top[:k] + top[k + 1:]] for k in range(n)]
        for order, pick in zip(orders, picks):
            if pick is None:
                key = tuple([opposite[q] for q in order])
            else:
                key = tuple(a if a is None or at is None else tuple([a[j] for j in at])
                            for a, at in zip([opposite[q] for q in order], pick))
            codes.setdefault(key, []).append(code)
            code += 1
    tops = fan.top_cones()
    decoded = {}
    for key, found in codes.items():
        decoded[key] = tuple(tuple(tops[t][k] for k in orders[p])
                             for t, p in (divmod(c, len(orders)) for c in found))
    return decoded
