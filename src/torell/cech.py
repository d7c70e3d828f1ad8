"""Distinguished affine covers and their index posets.

Each coordinate of a chart carries one of three letters: `a` (the auxiliary
point removed), `b` (the origin removed), `c` (both removed), ordered by
c < a and c < b.  A cover element never needs actual coordinates on the
curve: it is determined by its support (which charts it touches) together
with one letter word per chart, and those words are consistent across a
shared wall under the permutation matching shared rays.

The cover and its closure under intersection are listed in closed form, one
element per cone and letter word on its rays; a fan that would list more
than WORK_LIMIT elements, or write more than WORK_LIMIT chart words for
them, is refused before any is built.  The cohomology witness is read off
the fan's interior walls, one entry per wall, and builds no poset.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Optional, Sequence

from .errors import WORK_LIMIT, DisconnectedStar, NotGood, TooLarge, TorellError
from .fan import Cone, Fan


def letter_leq(x: str, y: str) -> bool:
    return x == y or x == "c"


def letter_meet(x: str, y: str) -> str:
    return x if x == y else "c"


@dataclass(frozen=True)
class CoverElement:
    """One affine open of the distinguished cover / its intersection poset.

    support lists the top cones the open touches; words[i] is the letter
    word of the open in the chart of support[i], indexed by that cone's
    sorted ray positions.  ray_letters is the equivalent global view: the
    (ray, letter) pairs with letter different from `a`; those rays span the
    cone whose star is the support.
    """

    support: tuple[int, ...]
    words: tuple[str, ...]
    grade: int
    ray_letters: tuple[tuple[int, str], ...]

    def sort_key(self):
        return (self.grade, self.support, self.words)


def _neighbours(fan: Fan) -> list[tuple[tuple[int, int], ...]]:
    """For each top cone, a (ray, id) pair per top cone across one of its
    walls: the ray the wall misses and the other top cone's id."""
    tops, upper = fan.top_cones(), fan._incidence.upper
    place = {top: i for i, top in enumerate(tops)}
    return [tuple((ray, place[other]) for k, ray in enumerate(top)
                  for other in upper[top[:k] + top[k + 1:]] if other != top)
            for top in tops]


def _check_star_connected(neighbours: Sequence[tuple[tuple[int, int], ...]],
                          star: Sequence[int], rho: Cone):
    """The spreading recipe propagates across shared walls, so the star of
    the seed cone must be connected through them.

    Two top cones of the star that share a wall hold rho in that wall, so
    the walk crosses only walls that miss a ray outside rho: at most n
    walls per top cone of the star.
    """
    seen, frontier = {star[0]}, [star[0]]
    while frontier:
        for ray, other in neighbours[frontier.pop()]:
            if other not in seen and ray not in rho:
                seen.add(other)
                frontier.append(other)
    if len(seen) != len(star):
        raise DisconnectedStar(f"star of cone with rays {rho} is not wall-connected")


def _elements(fan: Fan, letters: str) -> tuple[CoverElement, ...]:
    """One element (rho, w) per cone rho of the fan and word w in letters^rho.

    With letters "b" this is the distinguished cover; with letters "bc" it
    is the cover's closure under intersection, which is exact:

    - a cover element is (rho, b^rho), where rho is the face its b's pick
      out, and it lies over star(rho);
    - the meet of (rho1, b) and (rho2, b) is b on rho1 & rho2 and c on the
      symmetric difference; it is empty unless rho1 | rho2 is a cone;
    - the meet of (B | C, b) with (B, b) gives every (rho, w) whose b's are
      B and whose c's are C;
    - the set of all (rho, w) is closed under meet, since letters meet
      rayswise and rho1 | rho2 is a cone whenever the supports meet.

    So the closure has sum over rho of 2^|rho| elements.  That count is
    taken from the fan's cones, which in a good fan are the faces of its
    top cones, and more than WORK_LIMIT elements raise TooLarge before any
    is listed.  Each element writes one word per top cone of its star, and
    each of the m top cones is in the star of its 2^n faces, so the words
    number m (1 + |letters|)^n; more than WORK_LIMIT words raise TooLarge
    too.  Every cone's star is listed once, from the faces of each top
    cone, and checked for wall connectivity in the order the faces are
    first met.
    """
    if not fan.is_good():
        raise NotGood("the distinguished cover is defined for good fans")
    count = sum(len(letters) ** len(rho) for rho in fan.cones)
    if count > WORK_LIMIT:
        raise TooLarge(f"the fan's {len(fan.cones)} cones give {count} elements, "
                       f"over the limit of {WORK_LIMIT}")
    tops = fan.top_cones()
    words = len(tops) * (1 + len(letters)) ** fan.ambient_rank
    if words > WORK_LIMIT:
        raise TooLarge(f"the fan's {len(tops)} top cones give {words} chart words, "
                       f"over the limit of {WORK_LIMIT}")
    stars: dict[Cone, list[int]] = {}
    for i, top in enumerate(tops):
        for keep in product((False, True), repeat=len(top)):
            face = tuple(r for r, k in zip(top, keep) if k)
            stars.setdefault(face, []).append(i)
    neighbours = _neighbours(fan)
    out = []
    for rho, star in stars.items():
        support = tuple(star)
        _check_star_connected(neighbours, support, rho)
        for word in product(letters, repeat=len(rho)):
            of_ray = dict(zip(rho, word))
            out.append(CoverElement(
                support=support,
                words=tuple("".join(of_ray.get(r, "a") for r in tops[i]) for i in support),
                grade=word.count("c"),
                ray_letters=tuple(zip(rho, word)),
            ))
    return tuple(sorted(out, key=lambda e: e.sort_key()))


def cover(fan: Fan) -> tuple[CoverElement, ...]:
    """The unique affine cover whose trace on every chart is the product cover.

    Every face of a top cone seeds one element: b on the face's rays, and
    the word spreads over the star of that face with letters transported
    by matching shared rays.
    """
    return _elements(fan, "b")


@dataclass(frozen=True)
class CechPoset:
    """The intersection-closed, graded index poset of the cover."""

    ambient_rank: int
    tops: tuple[Cone, ...]
    elements: tuple[CoverElement, ...]

    @cached_property
    def _index(self) -> dict[tuple[tuple[int, str], ...], CoverElement]:
        return {e.ray_letters: e for e in self.elements}

    def leq(self, e1: CoverElement, e2: CoverElement) -> bool:
        """Containment of the corresponding opens."""
        if not set(e1.support) <= set(e2.support):
            return False
        d1, d2 = dict(e1.ray_letters), dict(e2.ray_letters)
        if not set(d2) <= set(d1):
            return False
        return all(letter_leq(d1[r], d2.get(r, "a")) for r in d1)

    def meet(self, e1: CoverElement, e2: CoverElement) -> Optional[CoverElement]:
        """Intersection of two elements; None when the opens are disjoint."""
        common = set(e1.support) & set(e2.support)
        if not common:
            return None
        d1, d2 = dict(e1.ray_letters), dict(e2.ray_letters)
        element = self.find(tuple(sorted(
            (r, letter_meet(d1.get(r, "a"), d2.get(r, "a"))) for r in d1.keys() | d2.keys())))
        if element is None or set(element.support) != common:
            raise TorellError(f"meet of {e1.ray_letters} and {e2.ray_letters} "
                              f"does not lie over the common charts {tuple(sorted(common))}")
        return element

    def grading(self) -> dict[int, tuple[CoverElement, ...]]:
        out: dict[int, list[CoverElement]] = {}
        for e in self.elements:
            out.setdefault(e.grade, []).append(e)
        return {k: tuple(v) for k, v in sorted(out.items())}

    def find(self, ray_letters: tuple[tuple[int, str], ...]) -> Optional[CoverElement]:
        return self._index.get(ray_letters)


def cech_poset(fan: Fan) -> CechPoset:
    """The cover's closure under pairwise intersection, graded by c-count."""
    return CechPoset(fan.ambient_rank, fan.top_cones(), _elements(fan, "bc"))


@dataclass(frozen=True)
class WitnessEntry:
    singular: CoverElement
    components: tuple[CoverElement, CoverElement]
    smooth_covers: tuple[CoverElement, CoverElement]
    divisor_positions: tuple[int, int]


@dataclass(frozen=True)
class WitnessReport:
    ambient_rank: int
    entries: tuple[WitnessEntry, ...]
    singular_count: int


def cohomology_witness(fan: Fan) -> WitnessReport:
    """Match every singular element of grade n - 1 with smooth covers,
    read off the fan's interior walls; no poset is built.

    An element of grade n - 1 has n - 1 c's: a wall with all c's or a top
    cone with one b.  Its support, the star of that cone, holds two top
    cones exactly when the cone is an interior wall, on top cones with ids
    i < j; in each chart its word is c on the wall and a at the ray off it,
    whose place is the divisor position.  The chart's all-c open, one
    irreducible component, lies in the smooth element with b at that
    position and c elsewhere.  These witnesses are the combinatorial reason
    the top coherent cohomology has one dimension per top cone.  Entries
    are sorted by support, the poset's order on one grade, since no two
    walls lie on the same two top cones.
    """
    if not fan.is_good():
        raise NotGood("the distinguished cover is defined for good fans")
    n = fan.ambient_rank
    place = {top: i for i, top in enumerate(fan.top_cones())}

    def word(letter, k):
        return "c" * k + letter + "c" * (n - 1 - k)

    entries = []
    for ids, wall, upper in sorted((tuple(place[top] for top in upper), wall, upper)
                                   for wall, upper in fan._incidence.upper.items()
                                   if len(upper) == 2):
        pos = tuple(next(k for k, r in enumerate(top) if r not in wall) for top in upper)
        entries.append(WitnessEntry(
            singular=CoverElement(ids, tuple(word("a", k) for k in pos), n - 1,
                                  tuple((r, "c") for r in wall)),
            components=tuple(CoverElement((i,), ("c" * n,), n, tuple((r, "c") for r in top))
                             for i, top in zip(ids, upper)),
            smooth_covers=tuple(CoverElement((i,), (word("b", k),), n - 1,
                                             tuple((r, "c" if r in wall else "b") for r in top))
                                for i, top, k in zip(ids, upper, pos)),
            divisor_positions=pos,
        ))
    return WitnessReport(ambient_rank=n, entries=tuple(entries), singular_count=len(entries))
