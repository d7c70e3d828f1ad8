"""Seeded inputs for the benchmark, built without torell.

Every generator takes a ``random.Random`` and returns plain data (ray
tuples, index-tuple cones, generator weights), so the benchmark knows the
exact structure of each input and can check torell's answers against it.
The seed only changes coordinates, labellings and representations; the
sizes and counts of every workload are fixed, so runs with different
seeds do the same amount of work.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product
from math import gcd

from checks import ccw_sorted, cross2

# The minimal smooth complete surfaces the blow-up surfaces start from,
# as in the repository's test fixtures, each listed counter-clockwise.
SURFACE_BASES = (
    ((1, 0), (0, 1), (-1, -1)),
    ((1, 0), (0, 1), (-1, 0), (0, -1)),
    ((1, 0), (0, 1), (-1, 1), (0, -1)),
    ((1, 0), (0, 1), (-1, 2), (0, -1)),
)


class Fan:
    """A fan as the benchmark knows it: rays and maximal cones."""

    def __init__(self, rank, rays, cones, name):
        self.rank = rank
        self.rays = tuple(tuple(r) for r in rays)
        self.cones = tuple(sorted(tuple(sorted(c)) for c in cones))
        self.name = name

    def text(self) -> str:
        """The canonical document: sorted keys, two-space indent."""
        doc = {"schema_version": "1", "ambient_rank": self.rank,
               "rays": [list(r) for r in self.rays],
               "cones": [list(c) for c in self.cones],
               "metadata": {"name": self.name}}
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def all_cones(self) -> set:
        """Every face of every maximal cone, the zero cone included."""
        out = set()
        for cone in self.cones:
            for mask in product((0, 1), repeat=len(cone)):
                out.add(tuple(i for i, keep in zip(cone, mask) if keep))
        return out

    def relabelled(self, perm, name) -> "Fan":
        """The same fan with ray i renamed perm[i]."""
        rays = [None] * len(self.rays)
        for old, new in enumerate(perm):
            rays[new] = self.rays[old]
        return Fan(self.rank, rays, [[perm[i] for i in c] for c in self.cones], name)


# --- surfaces -------------------------------------------------------------------

def blowup_cycle(rng, nrays: int) -> list:
    """Counter-clockwise rays of a random smooth complete surface.

    Starting from a minimal surface, repeatedly insert the sum of two
    adjacent rays (a toric blow-up), which keeps the fan smooth and
    complete.  Each step picks at random among the blow-ups whose new ray
    is shortest in the max norm: unrestricted choices let some seeds grow
    Fibonacci-sized coordinates, and the cost of the Hermite forms grows
    with them, so surfaces of one size would cost different amounts.
    """
    cycle = list(rng.choice(SURFACE_BASES))
    while len(cycle) < nrays:
        sums = [(cycle[i][0] + cycle[i - 1][0], cycle[i][1] + cycle[i - 1][1])
                for i in range(len(cycle))]
        norms = [max(abs(x), abs(y)) for x, y in sums]
        least = min(norms)
        i = rng.choice([i for i, n in enumerate(norms) if n == least])
        cycle.insert(i, sums[i])
    return cycle


def surface(cycle, name) -> Fan:
    r = len(cycle)
    return Fan(2, cycle, [(k, (k + 1) % r) for k in range(r)], name)


def relabelled_surface(fan: Fan, rng, name) -> Fan:
    """A random relabelling of a surface built by ``surface``, rotated so
    that its first top cone (0, 1) becomes the middle one of the copy's
    sorted top cones.  An isomorphism search that tries the copy's top
    cones in order then always scans half of them, whatever the seed."""
    r = len(fan.rays)
    perm = list(range(r))
    rng.shuffle(perm)
    edges = [frozenset((perm[k], perm[(k + 1) % r])) for k in range(r)]
    middle = sorted(tuple(sorted(e)) for e in edges)[r // 2]
    j = edges.index(frozenset(middle))
    return fan.relabelled(perm[j:] + perm[:j], name)


def reversal_partner(cycle):
    """The first ray whose negation leaves a smooth complete surface, as
    (index, partner rays counter-clockwise), or None."""
    present = set(cycle)
    for i, v in enumerate(cycle):
        w = (-v[0], -v[1])
        if w in present:
            continue
        partner = ccw_sorted(cycle[:i] + [w] + cycle[i + 1:], (1, 0))
        if all(cross2(partner[k], partner[(k + 1) % len(partner)]) == 1
               for k in range(len(partner))):
            return i, partner
    return None


def reversal_surface(rng, nrays: int):
    """A blow-up surface that has a single-ray-reversal partner."""
    while True:
        cycle = blowup_cycle(rng, nrays)
        found = reversal_partner(cycle)
        if found is not None:
            return cycle, found


# --- higher rank --------------------------------------------------------------

def random_unimodular(rng, n: int, steps: int = 6) -> list:
    """A random matrix in GL_n(Z) with small entries: elementary row moves
    and sign changes applied to the identity."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    for i in range(n):
        if rng.random() < 0.5:
            m[i] = [-a for a in m[i]]
    return m


def p1_power(rng, n: int, name) -> Fan:
    """(P^1)^n in coordinates changed by a random unimodular matrix g.

    Ray 2i is g e_i and ray 2i+1 is -g e_i.  The labelling is fixed, which
    keeps the work of the Cech closure the same for every seed.
    """
    g = random_unimodular(rng, n)
    rays = []
    for i in range(n):
        col = tuple(row[i] for row in g)
        rays += [col, tuple(-x for x in col)]
    cones = [tuple(2 * i + b for i, b in enumerate(bits))
             for bits in product((0, 1), repeat=n)]
    return Fan(n, rays, cones, name)


# --- abelian quotient singularities ------------------------------------------------

class Group:
    """A finite subgroup of the torus of C^3 in the special linear group."""

    def __init__(self, name, order, make):
        self.name = name
        self.order = order
        self._make = make

    def generators(self, rng) -> list:
        return self._make(rng)


def _permuted(rng, gens) -> list:
    perm = [0, 1, 2]
    rng.shuffle(perm)
    return [tuple(g[p] for p in perm) for g in gens]


def cyclic(r: int, weights) -> Group:
    """1/r(a, b, c).  A seed picks a generator u(a, b, c) with u a unit
    modulo r and permutes the coordinates: the same singularity."""
    def make(rng):
        u = rng.choice([u for u in range(1, r) if gcd(u, r) == 1])
        return _permuted(rng, [tuple(Fraction(u * a % r, r) for a in weights)])
    name = f"1/{r}(" + ",".join(map(str, weights)) + ")"
    return Group(name, r, make)


def kernel(k: int) -> Group:
    """The kernel of the product map from (mu_k)^3 to mu_k, of order k^2.

    Its quotient triangle is the dilated triangle kD.  A seed picks a
    generating pair and permutes the coordinates.
    """
    def make(rng):
        while True:
            (a, b), (c, d) = [(rng.randrange(k), rng.randrange(k)) for _ in range(2)]
            if gcd(a * d - b * c, k) == 1:
                break
        gens = [tuple(Fraction(x, k) for x in (i, j, (-i - j) % k)) for i, j in ((a, b), (c, d))]
        return _permuted(rng, gens)
    return Group(f"{k}D", k * k, make)


def generator_text(gens) -> str:
    return ";".join(",".join(str(x) for x in g) for g in gens)
