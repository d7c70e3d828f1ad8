"""Direct definitions of fan incidence and saturation, kept as test oracles.

These are the subset scans and double-kernel saturation the library used
before it derived one incidence index per fan and closed forms for single
vectors and normals.  They are slow but follow the definitions literally,
so the fast code is checked against them.
"""

from itertools import permutations

from torell.lattice import (
    IntMatrix,
    SublatticeClass,
    _hnf_transform,
    inverse_unimodular,
    is_unimodular_basis,
    kernel_basis,
    sign_normalized,
)


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
