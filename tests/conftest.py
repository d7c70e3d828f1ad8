"""Shared fixtures: corpus access, random surface fans, fan shuffling."""

from __future__ import annotations

import random
from itertools import product
from math import gcd

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from torell.errors import DimensionMismatch, MalformedFan, TorellError
from torell.fan import Fan, validate
from torell.fan_io import complete_surface_fan, corpus_names, load_corpus_fan
from torell.lattice import IntMatrix
from torell.triang import LatticeSimplex, cone_fan, quotient_simplex, unimodular_triangulations

CORPUS = (
    "affine1", "affine2", "affine3",
    "p1", "p2", "p1xp1", "hirzebruch1",
    "ray_reversal_a", "ray_reversal_b",
    "flop3_a", "flop3_b",
)


@pytest.fixture(scope="session")
def corpus_fans() -> dict[str, Fan]:
    return {name: load_corpus_fan(name) for name in CORPUS}


@pytest.fixture(scope="session")
def p1(corpus_fans):
    return corpus_fans["p1"]


@pytest.fixture(scope="session")
def p2(corpus_fans):
    return corpus_fans["p2"]


def test_corpus_is_complete():
    assert set(CORPUS) <= set(corpus_names())


def shuffled_fan(fan: Fan, rng: random.Random) -> Fan:
    """The same fan with rays relabelled and cone list reordered."""
    perm = list(range(len(fan.rays)))
    rng.shuffle(perm)
    new_rays = [None] * len(fan.rays)
    for old, new in enumerate(perm):
        new_rays[new] = fan.rays[old]
    cones = [tuple(sorted(perm[i] for i in cone)) for cone in fan.maximal_cones()]
    rng.shuffle(cones)
    return Fan.from_cones(fan.ambient_rank, new_rays, cones)


def random_blowup_rays(rng: random.Random, steps: int) -> list[tuple[int, int]]:
    """Rays of a random smooth complete surface fan.

    Starting from one of the minimal smooth complete surfaces, repeatedly
    insert the sum of two adjacent rays (a toric blow-up), which preserves
    smoothness and completeness.
    """
    bases = [
        [(1, 0), (0, 1), (-1, -1)],
        [(1, 0), (0, 1), (-1, 0), (0, -1)],
        [(1, 0), (0, 1), (-1, 1), (0, -1)],
        [(1, 0), (0, 1), (-1, 2), (0, -1)],
    ]
    rays = list(rng.choice(bases))
    for _ in range(steps):
        fan = complete_surface_fan(rays)
        cone = rng.choice(fan.top_cones())
        u, v = (fan.rays[i] for i in cone)
        rays.append((u[0] + v[0], u[1] + v[1]))
    return rays


def single_reversal_pairs(rng: random.Random, want: int,
                          max_tries: int = 400) -> list[tuple[Fan, Fan, tuple]]:
    """Random pairs of proper smooth surfaces differing by one reversed ray."""
    pairs = []
    tries = 0
    while len(pairs) < want and tries < max_tries:
        tries += 1
        rays = random_blowup_rays(rng, rng.randint(1, 4))
        ray_set = set(rays)
        try:
            fan = complete_surface_fan(rays)
        except TorellError:
            continue
        if not validate(fan).proper:
            continue
        for idx, ray in enumerate(rays):
            neg = (-ray[0], -ray[1])
            if neg in ray_set:
                continue
            candidate = list(rays)
            candidate[idx] = neg
            try:
                flipped = complete_surface_fan(candidate)
            except TorellError:
                continue
            report = validate(flipped)
            if report.smooth and report.good and report.proper:
                pairs.append((fan, flipped, ray))
                break
    return pairs


def grown_reversal_pair(rng: random.Random, nrays: int) -> tuple[Fan, Fan, tuple]:
    """A single-ray-reversal pair with nrays rays each: a small pair from
    ``single_reversal_pairs``, then both fans blown up again and again at
    the same common top cone, chosen at random among those whose new ray
    is shortest in the max norm, so that coordinates stay small."""
    ((fan, flipped, ray),) = single_reversal_pairs(rng, 1)
    cones = [{frozenset(fan.rays[i] for i in c) for c in fan.top_cones()},
             {frozenset(flipped.rays[i] for i in c) for c in flipped.top_cones()}]
    rays = [list(fan.rays), list(flipped.rays)]
    while len(rays[0]) < nrays:
        sums = {cone: tuple(map(sum, zip(*cone))) for cone in cones[0] & cones[1]}
        least = min(max(map(abs, v)) for v in sums.values())
        cone = rng.choice(sorted((c for c, v in sums.items() if max(map(abs, v)) == least),
                                 key=sorted))
        u, w = cone
        for k in (0, 1):
            cones[k] -= {cone}
            cones[k] |= {frozenset((u, sums[cone])), frozenset((sums[cone], w))}
            rays[k].append(sums[cone])
    return complete_surface_fan(rays[0]), complete_surface_fan(rays[1]), ray


def blowup_surfaces():
    """Blow-ups of the minimal surfaces plus single-ray-reversal pairs."""
    rng = random.Random(2024)
    fans = [complete_surface_fan(random_blowup_rays(rng, steps))
            for steps in (0, 1, 3, 8, 20, 40)]
    for fan, flipped, _ in single_reversal_pairs(rng, 3):
        fans += [fan, flipped]
    return fans


# Generators of the seven quotient triangles of the flops benchmark workload.
FLOP_TRIANGLE_GENERATORS = (
    [("1/2", "1/2", "0"), ("1/2", "0", "1/2")],
    [("1/3", "2/3", "0"), ("1/3", "0", "2/3")],
    [("1/6", "2/6", "3/6")], [("1/8", "3/8", "4/8")], [("1/9", "2/9", "6/9")],
    [("1/10", "4/10", "5/10")], [("1/11", "2/11", "8/11")],
)


def random_unimodular(rng, n):
    """A random matrix in GL_n(Z): elementary row operations and a sign."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            k = rng.choice((-2, -1, 1, 2))
            rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
    sign = rng.choice((-1, 1))
    rows[0] = [sign * x for x in rows[0]]
    return IntMatrix.from_rows(rows)


# Three 3-cones on the wall (0, 1): faces meet in faces, but (0, 1, 2) and
# (0, 1, 4) lie on one side of that wall and overlap.
THREE_ON_A_WALL = (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, -1), (0, 1, 1)],
                   [(0, 1, 2), (0, 1, 3), (0, 1, 4)])


def random_lattice_triangles(rng, count):
    """Lattice triangles with vertices in [-4, 4]^2 and at most 12 lattice
    points."""
    out = []
    while len(out) < count:
        try:
            simplex = LatticeSimplex.from_vertices(
                [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(3)])
        except DimensionMismatch:
            continue
        if len(simplex.points) <= 12:
            out.append(simplex)
    return out


def three_delta_cone_fans():
    """The cone fans of all 79 unimodular triangulations of 3Δ."""
    simplex = quotient_simplex([("1/3", "2/3", "0"), ("1/3", "0", "2/3")])
    triangulations = unimodular_triangulations(simplex)
    assert len(triangulations) == 79
    return [cone_fan(t) for t in triangulations]


@st.composite
def random_fan_data(draw, ranks=st.integers(1, 3)):
    """(rank, rays, generating cones) of a small cone set in ranks 1 to 3:
    distinct primitive rays, each in some cone; cones may overlap and
    hold dependent rays."""
    n = draw(ranks)
    vectors = draw(st.lists(
        st.tuples(*[st.integers(-2, 2)] * n).filter(lambda v: gcd(*v) == 1),
        min_size=1, max_size=7, unique=True))
    generators = draw(st.lists(
        st.lists(st.integers(0, len(vectors) - 1), min_size=1, max_size=n, unique=True),
        min_size=1, max_size=8))
    used = sorted({i for cone in generators for i in cone})
    new_index = {old: new for new, old in enumerate(used)}
    return (n, [vectors[i] for i in used],
            [[new_index[i] for i in cone] for cone in generators])


@st.composite
def planted_fan_data(draw):
    """(3, rays, generating cones) of a rank-3 cone set from
    ``random_fan_data`` with cones planted on a wall (a, b) of one of its
    3-cones (a, b, c): a second cone (a, b, d), two more cones (a, b, d)
    and (a, b, e), or a cone (a, b, p) with p a positive combination of a,
    b and c, inside that cone.  Unplanted draws almost never put two
    3-cones on one wall, and hardly ever three."""
    n, rays, cones = draw(random_fan_data(ranks=st.just(3)))
    hosts = [c for c in cones if len(c) == 3]
    if not hosts:
        # Make a 3-cone the host when the draw has none.
        assume(len(rays) >= 3)
        hosts = [draw(st.permutations(range(len(rays))))[:3]]
        cones.append(hosts[0])
    a, b, c = draw(st.permutations(draw(st.sampled_from(hosts))))
    kind = draw(st.sampled_from(("second", "third", "inside")))
    if kind == "inside":
        weights = draw(st.tuples(*[st.integers(1, 3)] * 3))
        p = tuple(sum(w * rays[i][k] for w, i in zip(weights, (a, b, c))) for k in range(3))
        g = gcd(*p)
        assume(g)
        new = [tuple(x // g for x in p)]
    else:
        vector = st.tuples(*[st.integers(-2, 2)] * 3).filter(lambda v: gcd(*v) == 1)
        new = [draw(vector) for _ in range(1 if kind == "second" else 2)]
    rays = list(rays)
    for v in new:
        if v not in rays:
            rays.append(v)
        cones.append([a, b, rays.index(v)])
    return n, rays, cones


def projective_line_power_data(n):
    """(n, rays, top cones) of (P^1)^n: rays +-e_k, one top cone per
    choice of signs."""
    rays = [tuple(sign * (i == k) for i in range(n)) for k in range(n) for sign in (1, -1)]
    cones = [tuple(2 * k + s for k, s in enumerate(signs)) for signs in product((0, 1), repeat=n)]
    return n, rays, cones


def projective_line_power(n):
    return Fan.from_cones(*projective_line_power_data(n))


def cones_over_cycle(cycle):
    """(3, rays, cones): the cones over each consecutive pair of a cycle of
    plane vectors with (0, 0, 1) and with (0, 0, -1)."""
    m = len(cycle)
    return (3, [(x, y, 0) for x, y in cycle] + [(0, 0, 1), (0, 0, -1)],
            [(k, (k + 1) % m, m + s) for k in range(m) for s in (0, 1)])


# Complete cone sets in rank 3 that the side rule and the two top cones on
# every wall let through.  A double cover: 15 plane vectors, consecutive
# ones of determinant 1, wind twice around the origin, so the cones over
# their cycle cover every direction twice.
DOUBLE_COVER_CYCLE = ((1, 0), (-3, 1), (-1, 0), (-3, -1), (-2, -1), (-3, -2), (-1, -1),
                      (-2, -3), (-1, -2), (-1, -3), (1, 2), (0, 1), (-1, 1), (-3, 2), (1, -1))
DOUBLE_COVER = cones_over_cycle(DOUBLE_COVER_CYCLE)
# (P^1)^3 and a lone maximal ray (1, 1, 1) inside its top cone (0, 2, 4).
LONE_RAY_IN_P1_CUBED = (3, projective_line_power_data(3)[1] + [(1, 1, 1)],
                        projective_line_power_data(3)[2] + [(6,)])


@st.composite
def random_fans(draw):
    """Small fans in ranks 1 to 3; most are not good, some not smooth."""
    n, rays, cones = draw(random_fan_data())
    try:
        return Fan.from_cones(n, rays, cones)
    except MalformedFan:             # dependent rays in a cone, or overlapping cones
        assume(False)
