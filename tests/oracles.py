"""Direct definitions of fan incidence, saturation and the Čech poset,
kept as test oracles.

These are the subset scans, double-kernel saturation and meet-closure
fixpoint the library used before it derived one incidence index per fan,
closed forms for single vectors and normals, and the closed-form list of
the Čech poset.  They are slow but follow the definitions literally, so
the fast code is checked against them.
"""

from itertools import combinations, permutations, product

from torell.cech import CoverElement, letter_meet
from torell.errors import DisconnectedStar, NotGood, TorellError
from torell.lattice import (
    IntMatrix,
    SublatticeClass,
    _hnf_transform,
    integer_rank,
    inverse_unimodular,
    is_unimodular_basis,
    kernel_basis,
    sign_normalized,
)


def closed_and_independent(n, rays, cones):
    """Every face of every cone is listed and every cone's rays are
    independent, checked cone by cone and face by face."""
    return all(face in cones and integer_rank([rays[i] for i in cone], n) == len(cone)
               for cone in cones for k in range(len(cone)) for face in combinations(cone, k))


def top_cones(fan):
    return fan.cones_of_dim(fan.ambient_rank)


def maximal_cones(fan):
    sets = {c: set(c) for c in fan.cones}
    return tuple(sorted(
        c for c in fan.cones
        if not any(c != d and sets[c] < sets[d] for d in fan.cones)))


def is_smooth(fan):
    return all(is_unimodular_basis([fan.rays[i] for i in c]) for c in top_cones(fan))


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
               for w in fan.cones_of_dim(fan.ambient_rank - 1))


def saturate(vectors, n):
    """Saturation as the double orthogonal complement, in Hermite form."""
    perp = kernel_basis(vectors, n)
    sat = kernel_basis(perp, n)
    h, _, pivots = _hnf_transform(sat, n)
    return SublatticeClass(n, tuple(tuple(r) for r in h[:len(pivots)]))


def primitive_normal(s):
    (kern,) = kernel_basis(s.basis, s.ambient_rank)
    return sign_normalized(kern)


def fan_isomorphic(f, g):
    """Every ordered ray tuple of every top cone of g, tried as the image
    of the first chart of f, composing the full matrix each time."""
    if f.ambient_rank != g.ambient_rank:
        return None
    if len(f.rays) != len(g.rays) or len(f.cones) != len(g.cones):
        return None
    if len(top_cones(f)) != len(top_cones(g)):
        return None
    vinv = inverse_unimodular(f.ray_matrix(top_cones(f)[0]))
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
