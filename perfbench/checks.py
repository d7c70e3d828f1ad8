"""Correctness checks made apart from torell.

Each checker compares a torell result with what the benchmark knows about
its own inputs, using only the arithmetic in this file (gcd, Bareiss
determinants, cross products, binomials).  A checker raises CheckFailed
with a short reason; it never calls back into torell.
"""

from __future__ import annotations

from collections import Counter
from functools import cmp_to_key
from itertools import combinations
from math import comb, gcd

ISOMORPHIC = "ISOMORPHIC"
NOT_ISOMORPHIC = "NOT_ISOMORPHIC"


class CheckFailed(Exception):
    """A torell result disagrees with the independent computation."""


def require(condition, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


# --- integer arithmetic -------------------------------------------------------

def content(v) -> int:
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


def is_primitive(v) -> bool:
    return content(v) == 1


def sign_normalized(v) -> tuple:
    for x in v:
        if x:
            return tuple(v) if x > 0 else tuple(-y for y in v)
    return tuple(v)


def primitive_line(v) -> tuple:
    g = content(v)
    return sign_normalized(tuple(x // g for x in v))


def dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def cross2(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


def cross3(u, v) -> tuple:
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def det(rows) -> int:
    """Determinant of a square integer matrix by Bareiss elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def matmul(a, b) -> list:
    cols = list(zip(*b))
    return [[dot(row, col) for col in cols] for row in a]


def entries(matrix) -> list:
    """Rows of a torell IntMatrix as lists."""
    return [list(r) for r in matrix.entries]


# --- fans as the benchmark built them ---------------------------------------

def top_cones(fan) -> list:
    return [c for c in fan.cones if len(c) == fan.rank]


def interior_walls(fan) -> list:
    """(n-1)-faces that lie on exactly two top cones."""
    count = Counter()
    for cone in top_cones(fan):
        for face in combinations(cone, fan.rank - 1):
            count[face] += 1
    return sorted(face for face, k in count.items() if k == 2)


def ccw_sorted(vectors, s) -> list:
    """Plane vectors sorted by counter-clockwise angle from the direction
    s, in [0, 2*pi), by exact half-plane and cross-product rules."""
    def quarter(v):
        c = cross2(s, v)
        if c == 0:
            return 0 if dot(s, v) > 0 else 2
        return 1 if c > 0 else 3

    def cmp(u, v):
        if quarter(u) != quarter(v):
            return quarter(u) - quarter(v)
        c = cross2(u, v)
        return -1 if c > 0 else (1 if c < 0 else 0)

    return sorted(vectors, key=cmp_to_key(cmp))


def clockwise_order(rays, start: int) -> list:
    """Ray indices clockwise from rays[start]."""
    index = {r: i for i, r in enumerate(rays)}
    return [start] + [index[r] for r in ccw_sorted(rays, rays[start])[:0:-1]]


def surface_incidence(fan, start: int) -> list:
    """Signed top-cone by ray incidence of a complete surface: +1 on the
    first containing top cone, -1 on the second, columns clockwise."""
    tops = top_cones(fan)
    out = [[0] * len(tops) for _ in tops]
    for col, ray in enumerate(clockwise_order(fan.rays, start)):
        rows = [i for i, cone in enumerate(tops) if ray in cone]
        require(len(rows) == 2, f"ray {ray} is not on two top cones")
        out[rows[0]][col] = 1
        out[rows[1]][col] = -1
    return out


def line_multiset(fan) -> Counter:
    return Counter(primitive_line(r) for r in fan.rays)


def class_normal(cls) -> tuple:
    """The primitive normal of a corank-one class of Z^3 from its basis,
    after checking that the basis spans a saturated plane."""
    require(cls.ambient_rank == 3 and len(cls.basis) == 2,
            f"class {cls.basis} is not a plane in Z^3")
    normal = cross3(*cls.basis)
    require(is_primitive(normal), f"class {cls.basis} is not saturated")
    return sign_normalized(normal)


def line_class(cls) -> tuple:
    require(len(cls.basis) == 1, f"class {cls.basis} is not a line")
    row = tuple(cls.basis[0])
    require(is_primitive(row) and row == sign_normalized(row),
            f"line basis {row} is not primitive and sign-normalised")
    return row


# --- surfaces -----------------------------------------------------------------

def check_report(report, smooth=True, good=True, proper=True) -> None:
    require((report.smooth, report.good, report.proper) == (smooth, good, proper),
            f"validation {report} expected smooth={smooth} good={good} proper={proper}")


def check_surface_shadow(shadow, fan) -> None:
    n = len(fan.rays)
    require(shadow.ambient_rank == 2, "shadow ambient rank is not 2")
    require(shadow.rank == n, f"rank {shadow.rank} differs from ray count {n}")
    spans = Counter(line_class(c) for c in shadow.wall_spans)
    require(spans == line_multiset(fan), "wall spans differ from the ray lines")
    degree = sum(coeff for coeff, _ in shadow.det_divisor)
    require(degree == -n, f"determinant degree {degree} is not {-n}")
    for coeff, cls in shadow.det_divisor:
        require(coeff == -spans[line_class(cls)], "divisor coefficient is not minus the multiplicity")


def check_moment_graph(graph, fan) -> None:
    require(tuple(graph.vertices) == tuple(top_cones(fan)), "vertices are not the top cones")
    seen = []
    for edge in graph.edges:
        require(edge.compact and len(edge.endpoints) == 2, "complete surface edge is not compact")
        a, b = edge.endpoints
        common = set(graph.vertices[a]) & set(graph.vertices[b])
        require(len(common) == 1, f"edge {edge.endpoints} does not join adjacent charts")
        (ray,) = common
        label = tuple(edge.label)
        require(is_primitive(label) and label == sign_normalized(label),
                f"label {label} is not primitive and sign-normalised")
        require(dot(label, fan.rays[ray]) == 0, f"label {label} is not orthogonal to its wall")
        seen.append(ray)
    require(sorted(seen) == list(range(len(fan.rays))), "walls are not the rays, once each")


def check_isomorphism_matrix(matrix, f, g) -> None:
    m = entries(matrix)
    require(abs(det(m)) == 1, f"isomorphism matrix {m} is not unimodular")
    index = {r: i for i, r in enumerate(g.rays)}
    images = [index.get(tuple(dot(row, r) for row in m)) for r in f.rays]
    require(None not in images and len(set(images)) == len(images),
            "matrix does not map rays onto rays")
    mapped = sorted(tuple(sorted(images[i] for i in c)) for c in f.cones)
    require(mapped == list(g.cones), "matrix does not map cones onto cones")


def check_ray_bijection(verdict, f, g) -> None:
    require(verdict.outcome == ISOMORPHIC, f"expected ISOMORPHIC, got {verdict.outcome}")
    require(verdict.witness.kind == "surface-ray-line-bijection", "wrong witness kind")
    pairs = verdict.witness.detail
    require(sorted(a for a, _ in pairs) == sorted(f.rays)
            and sorted(b for _, b in pairs) == sorted(g.rays),
            "pairing is not a bijection of rays")
    require(all(primitive_line(a) == primitive_line(b) for a, b in pairs),
            "paired rays span different lines")


def check_surface_verdict(verdict, f, g) -> None:
    """NOT_ISOMORPHIC exactly when the ray-line multisets differ."""
    la, lb = line_multiset(f), line_multiset(g)
    if la == lb:
        check_ray_bijection(verdict, f, g)
        return
    require(verdict.outcome == NOT_ISOMORPHIC, f"expected NOT_ISOMORPHIC, got {verdict.outcome}")
    only_a, only_b = verdict.witness.detail
    require(Counter(line_class(c) for c in only_a) == la - lb
            and Counter(line_class(c) for c in only_b) == lb - la,
            "witness is not the difference of the line multisets")


def check_reversal_certificate(matrix, f, g, ray: int) -> None:
    """A_g . M = A_f with det M = +-1, the incidence matrices clockwise from
    the reversed ray and its negation."""
    m = entries(matrix)
    a_f = surface_incidence(f, ray)
    a_g = surface_incidence(g, g.rays.index(tuple(-x for x in f.rays[ray])))
    require(matmul(a_g, m) == a_f, "A_g . M differs from A_f")
    require(abs(det(m)) == 1, "certificate is not unimodular")


# --- covers --------------------------------------------------------------------

def check_cover(elements, fan) -> None:
    want = len(fan.all_cones())
    require(len(elements) == want, f"cover size {len(elements)} is not |fan| = {want}")


def check_poset(poset, fan) -> None:
    cones = fan.all_cones()
    want = sum(2 ** len(c) for c in cones)
    require(len(poset.elements) == want, f"poset size {len(poset.elements)} is not {want}")
    grades = Counter(e.grade for e in poset.elements)
    for k in range(fan.rank + 1):
        expected = sum(comb(len(c), k) for c in cones)
        require(grades.get(k, 0) == expected, f"grade {k} has {grades.get(k, 0)}, not {expected}")


def check_witness(report, fan) -> None:
    walls = len(interior_walls(fan))
    require(report.singular_count == walls == len(report.entries),
            f"singular count {report.singular_count} is not the {walls} interior walls")


def check_ladder(ladder, fan) -> None:
    tops = top_cones(fan)
    n, m = fan.rank, len(tops)
    require(len(ladder.terms) == m + 1 and ladder.terms[0] == (), "ladder has the wrong length")
    for k in range(1, m + 1):
        term = ladder.terms[k]
        require(len(term) == comb(m, k), f"term {k} has {len(term)} summands, not C({m},{k})")
        require(len({s.cone_ids for s in term}) == len(term), f"term {k} repeats a subset")
        for s in term:
            require(len(s.cone_ids) == k, "summand has the wrong number of cones")
            common = set(tops[s.cone_ids[0]]).intersection(*(tops[i] for i in s.cone_ids[1:]))
            corank = n - len(common)
            require(s.span.ambient_rank - len(s.span.basis) == corank,
                    f"summand {s.cone_ids} has the wrong corank")
            require(s.vanishes_in_codim2 == (corank >= 2), f"summand {s.cone_ids} flag is wrong")


# --- flops ------------------------------------------------------------------------

def triangle_points(vertices) -> list:
    """Sorted lattice points of a lattice triangle, by orientation signs."""
    a, b, c = vertices
    xs, ys = [v[0] for v in vertices], [v[1] for v in vertices]
    out = []
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            p = (x, y)
            signs = [cross2((q[0] - p[0], q[1] - p[1]), (r[0] - p[0], r[1] - p[1]))
                     for q, r in ((a, b), (b, c), (c, a))]
            if all(s >= 0 for s in signs) or all(s <= 0 for s in signs):
                out.append(p)
    return sorted(out)


def normalized_volume(vertices) -> int:
    a, b, c = vertices
    return abs(cross2((b[0] - a[0], b[1] - a[1]), (c[0] - a[0], c[1] - a[1])))


def lifted(p) -> tuple:
    return tuple(p) + (1,)


def check_simplex(simplex, order: int) -> None:
    """A quotient triangle of a group of the given order."""
    require(simplex.dim == 2, "quotient simplex is not a triangle")
    verts = [tuple(v) for v in simplex.vertices]
    require(normalized_volume(verts) == order,
            f"normalized volume {normalized_volume(verts)} is not the group order {order}")
    require(list(simplex.points) == triangle_points(verts), "lattice points are wrong")


def check_triangulations(tris, vertices, expected_count=None) -> None:
    points = triangle_points(vertices)
    volume = normalized_volume(vertices)
    require(expected_count is None or len(tris) == expected_count,
            f"{len(tris)} triangulations, expected {expected_count}")
    require(len({t.cells for t in tris}) == len(tris), "a triangulation is repeated")
    for t in tris:
        require(list(t.simplex.points) == points, "triangulation lives on other points")
        require(len(t.cells) == volume, f"{len(t.cells)} cells, volume is {volume}")
        require(set(i for c in t.cells for i in c) == set(range(len(points))),
                "triangulation misses a point")
        for cell in t.cells:
            require(abs(det([lifted(points[i]) for i in cell])) == 1, f"cell {cell} is not unimodular")


def flip_moves(cells, points) -> list:
    """Legal diagonal flips of a triangulation, as (removed, added) edges:
    the two cells on an edge must form a strictly convex quadrilateral."""
    faces = {}
    for cell in cells:
        for edge in combinations(cell, 2):
            faces.setdefault(edge, []).append(cell)
    out = []
    for edge, pair in sorted(faces.items()):
        if len(pair) != 2:
            continue
        (r,) = set(pair[0]) - set(edge)
        (s,) = set(pair[1]) - set(edge)
        pr, ps = points[r], points[s]
        side = [cross2((ps[0] - pr[0], ps[1] - pr[1]), (points[i][0] - pr[0], points[i][1] - pr[1]))
                for i in edge]
        if side[0] * side[1] < 0:
            out.append((edge, tuple(sorted((r, s)))))
    return out


def flipped_cells(cells, removed, added) -> tuple:
    p, q = removed
    r, s = added
    gone = {c for c in cells if set(removed) <= set(c)}
    new = {tuple(sorted((r, s, p))), tuple(sorted((r, s, q)))}
    return tuple(sorted((set(cells) - gone) | new))


def check_flip_closure(tris, edges) -> None:
    """Breadth-first search over flip edges from the first triangulation
    reaches exactly the enumerated set."""
    known = {t.cells for t in tris}
    require(all(a in known and b in known for a, b in edges), "a flip leaves the enumerated set")
    graph = {}
    for a, b in edges:
        graph.setdefault(a, set()).add(b)
    start = tris[0].cells
    seen, frontier = {start}, [start]
    while frontier:
        nxt = []
        for cells in frontier:
            for other in graph.get(cells, ()):
                if other not in seen:
                    seen.add(other)
                    nxt.append(other)
        frontier = nxt
    require(seen == known, f"flip search reaches {len(seen)} of {len(known)} triangulations")


def check_apply_flip(result, cells, removed, added) -> None:
    flipped, certificate = result
    want = flipped_cells(cells, removed, added)
    require(flipped.cells == want, "flipped cells are wrong")
    require(certificate.source.cells == cells and certificate.target.cells == want
            and len(certificate.moves) == 1, "certificate does not record the flip")


def check_cone_fan(fan, cells, points) -> None:
    """Smooth, good and at height one: rays are the lifted points, the
    top cones are the cells with determinant +-1, and every cone is a
    face of a cell."""
    require(fan.rays == tuple(lifted(p) for p in points), "rays are not the points at height one")
    faces = {()}
    for cell in cells:
        require(abs(det([lifted(points[i]) for i in cell])) == 1, f"cell {cell} is not smooth")
        for k in (1, 2, 3):
            faces.update(combinations(cell, k))
    require(set(fan.cones) == faces, "cones are not the faces of the cells")


def triangulation_wall_normals(cells, points) -> Counter:
    """Normals of the interior walls of a cone fan over a triangulation."""
    faces = Counter(e for c in cells for e in combinations(c, 2))
    return Counter(primitive_line(cross3(lifted(points[p]), lifted(points[q])))
                   for (p, q), k in faces.items() if k == 2)


def check_flop_shadow(shadow, cells, points) -> None:
    require(shadow.rank == len(cells), f"rank {shadow.rank} is not {len(cells)} cells")
    require(Counter(class_normal(c) for c in shadow.wall_spans)
            == triangulation_wall_normals(cells, points), "wall spans are not the interior edges")


def check_flop_verdict(verdict, points, removed, added) -> None:
    require(verdict.outcome == NOT_ISOMORPHIC, f"flip compares {verdict.outcome}")
    require(verdict.witness.kind == "wall-span-mismatch", "flip witness kind is wrong")
    only_a, only_b = verdict.witness.detail
    normal = lambda e: primitive_line(cross3(lifted(points[e[0]]), lifted(points[e[1]])))
    require([class_normal(c) for c in only_a] == [normal(removed)]
            and [class_normal(c) for c in only_b] == [normal(added)],
            "witness is not the removed diagonal against the added one")
