"""The fan incidence index and the lattice closed forms against the oracles."""

import random
from collections import Counter
from itertools import combinations
from math import factorial, gcd

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import oracles
from torell import lattice
from torell.ellinv import _cycle, compare, ell_shadow
from torell.errors import WORK_LIMIT, MalformedFan, NotGood, RankMismatch, TooLarge
from torell.fan import Fan, fan_isomorphic, validate, walls
from torell.lattice import IntMatrix, primitive_normal, saturate, span_class

from conftest import (
    THREE_ON_A_WALL,
    blowup_surfaces,
    planted_fan_data,
    projective_line_power,
    random_fans,
    random_unimodular,
    shuffled_fan,
    three_delta_cone_fans,
)


def image_fan(fan, m, rng):
    """The image of a fan under a lattice automorphism, relabelled."""
    moved = Fan.from_cones(fan.ambient_rank, [m.apply(r) for r in fan.rays],
                           fan.maximal_cones())
    return shuffled_fan(moved, rng)


def relabelled_mid_list(fan, rng):
    """A relabelled copy in which the first top cone of fan becomes a top
    cone in the second half of the copy's sorted top cones."""
    tops = fan.top_cones()
    while True:
        perm = list(range(len(fan.rays)))
        rng.shuffle(perm)
        relabel = lambda cone: tuple(sorted(perm[i] for i in cone))
        if sorted(map(relabel, tops)).index(relabel(tops[0])) >= len(tops) // 2:
            break
    rays = [None] * len(fan.rays)
    for old, new in enumerate(perm):
        rays[new] = fan.rays[old]
    return Fan.from_cones(fan.ambient_rank, rays, [relabel(c) for c in fan.maximal_cones()])


def assert_agrees(fan):
    """Every index query equals its subset-scan definition."""
    n = fan.ambient_rank
    assert fan.top_cones() == oracles.top_cones(fan)
    assert fan.is_smooth() == oracles.is_smooth(fan)
    assert fan.is_good() == oracles.is_good(fan)
    assert fan.is_proper() == oracles.is_proper(fan)
    assert fan.maximal_cones() == oracles.maximal_cones(fan)
    if not fan.is_good():
        with pytest.raises(NotGood):
            walls(fan)
        return
    expected = [(w, oracles.wall_upper(fan, w)) for w in oracles.cones_of_dim(fan, n - 1)]
    assert all(len(upper) <= 2 for _, upper in expected)
    found = walls(fan)
    assert [(w.cone, w.upper) for w in found] == expected
    assert [w.span for w in found] == [
        oracles.saturate([fan.rays[i] for i in w], n) for w, _ in expected]


class TestIndexAgainstScans:
    def test_corpus(self, corpus_fans):
        for fan in corpus_fans.values():
            assert_agrees(fan)

    def test_blowup_surfaces(self):
        for fan in blowup_surfaces():
            assert fan.is_good() and fan.is_proper()
            assert_agrees(fan)

    def test_three_delta_cone_fans(self):
        for fan in three_delta_cone_fans():
            assert_agrees(fan)

    def test_fans_that_are_not_good(self):
        lone_ray = Fan.from_cones(2, [(1, 0), (0, 1), (-1, 0)], [(0, 1), (2,)])
        lone_wall = Fan.from_cones(
            3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0)],
            [(0, 1, 2), (3, 4)])
        no_top = Fan.from_cones(2, [(1, 0), (0, 1)], [(0,), (1,)])
        not_smooth = Fan.from_cones(2, [(1, 0), (1, 2)], [(0, 1)])
        for fan in (lone_ray, lone_wall, no_top, not_smooth):
            assert not fan.is_good()
            assert_agrees(fan)
        assert lone_ray.is_smooth() and lone_wall.is_smooth()
        assert not not_smooth.is_smooth()

    def test_three_top_cones_on_a_wall(self):
        with pytest.raises(MalformedFan, match="same side of their common wall"):
            Fan.from_cones(*THREE_ON_A_WALL)

    def test_index_is_built_once_per_fan(self, p2):
        assert p2._incidence is p2._incidence

    def test_one_determinant_per_top_cone_and_one_facet_pass(self, monkeypatch):
        # Smoothness reads the determinants the independence check takes,
        # and the maximal cones come from the facets the closure walk meets.
        surface = blowup_surfaces()[5]
        calls = Counter()
        real = lattice._det
        monkeypatch.setattr(lattice, "_det", lambda arg: calls.update(["_det"]) or real(arg))
        fan = Fan.from_cones(2, surface.rays, surface.maximal_cones())
        assert validate(fan) == validate(surface)
        assert fan.maximal_cones() == surface.maximal_cones()
        assert calls == {"_det": len(fan.top_cones())}

    @settings(max_examples=300, deadline=None)
    @given(random_fans())
    def test_random_fans(self, fan):
        event("smooth" if fan.is_smooth() else "not smooth")
        event("good" if fan.is_good() else "not good")
        event("proper" if fan.is_proper() else "not proper")
        assert_agrees(fan)


class TestValidationAgainstFaceScan:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_cone_sets(self, data):
        # Cone sets that need not be closed under faces: the constructor
        # closes them, and checking the ranks of the maximal cones accepts
        # exactly what checking every cone of the closure accepts.
        n = data.draw(st.integers(1, 3))
        if n == 3 and data.draw(st.booleans()):
            # Closed rank-3 cone sets with cones planted on a wall.
            _, rays, generators = data.draw(planted_fan_data())
            cones = frozenset(face for c in generators for k in range(len(c) + 1)
                              for face in combinations(sorted(c), k))
        else:
            rays = data.draw(st.lists(
                st.tuples(*[st.integers(-2, 2)] * n).filter(lambda v: gcd(*v) == 1),
                min_size=1, max_size=6, unique=True))
            cones = data.draw(st.sets(
                st.sets(st.integers(0, len(rays) - 1), max_size=n).map(lambda c: tuple(sorted(c))),
                max_size=12))
            cones = frozenset(cones | {()} | {(i,) for i in range(len(rays))})
        closure = frozenset(face for c in cones for k in range(len(c) + 1)
                            for face in combinations(c, k))
        try:
            fan = Fan(n, tuple(rays), cones)
        except MalformedFan:
            fan = None
        # In the plane the cones must also meet in common faces; in rank 3
        # the top cones on one wall must lie on pairwise different sides.
        assert (fan is not None) == (
            oracles.closed_and_independent(n, rays, closure)
            and not (n == 2 and oracles.overlapping_cones(rays, closure))
            and not (n == 3 and oracles.one_sided_wall(n, rays, closure)))
        if fan is not None:
            assert fan.cones == closure
            assert_agrees(fan)


class TestFanIsomorphicAgainstScan:
    def test_corpus_and_surfaces(self, corpus_fans):
        rng = random.Random(17)
        twist = IntMatrix.from_rows([[2, 1], [1, 1]])
        fans = [f for f in corpus_fans.values() if f.is_good()] + blowup_surfaces()[:6]
        for fan in fans:
            images = [fan, shuffled_fan(fan, rng)]
            if fan.ambient_rank == 2:
                images.append(shuffled_fan(Fan.from_cones(
                    2, [twist.apply(r) for r in fan.rays], fan.maximal_cones()), rng))
            for other in images + fans[:4]:
                assert fan_isomorphic(fan, other) == oracles.fan_isomorphic(fan, other)


    def test_match_in_the_middle_of_the_search(self):
        rng = random.Random(23)
        for fan in blowup_surfaces():
            copy = relabelled_mid_list(fan, rng)
            found = fan_isomorphic(fan, copy)
            assert found is not None
            assert found == oracles.fan_isomorphic(fan, copy)

    def test_random_lattice_automorphism_images(self, corpus_fans):
        rng = random.Random(29)
        fans = ([f for f in corpus_fans.values() if f.is_good()] + blowup_surfaces()
                + three_delta_cone_fans()[::8])
        for fan in fans:
            for _ in range(2):
                image = image_fan(fan, random_unimodular(rng, fan.ambient_rank), rng)
                found = fan_isomorphic(fan, image)
                assert found is not None
                assert found == oracles.fan_isomorphic(fan, image)

    def test_fans_of_one_size_that_differ(self):
        fans = blowup_surfaces() + three_delta_cone_fans()[:20]
        for f in fans:
            for g in fans:
                if f is not g and (len(f.rays), len(f.cones)) == (len(g.rays), len(g.cones)):
                    assert fan_isomorphic(f, g) == oracles.fan_isomorphic(f, g)


def image_of_first_chart(f, g, m):
    """The ordered top cone of g that m sends the first chart of f to."""
    return tuple(g.rays.index(m.apply(f.rays[i])) for i in f._first_chart[0])


def without_first_top_cone(fan):
    """A good fan that is not proper: a complete surface less one top cone."""
    return Fan.from_cones(fan.ambient_rank, fan.rays, fan.maximal_cones()[1:])


class TestChartIndex:
    def pairs(self, corpus_fans):
        rng = random.Random(47)
        fans = ([f for f in corpus_fans.values() if f.is_good()] + blowup_surfaces()
                + three_delta_cone_fans()[::8])
        fans += [without_first_top_cone(f) for f in blowup_surfaces()[:6]]
        for f in fans:
            images = [f, shuffled_fan(f, rng),
                      image_fan(f, random_unimodular(rng, f.ambient_rank), rng)]
            for g in images + [g for g in fans if len(g.rays) == len(f.rays)]:
                yield f, g

    def test_every_lattice_map_lands_in_the_bucket(self, corpus_fans):
        # The chart signature is necessary: the first chart of f goes to an
        # ordered top cone of g listed under its signature.
        found = 0
        for f, g in self.pairs(corpus_fans):
            m = oracles.fan_isomorphic(f, g)
            assert fan_isomorphic(f, g) == m
            if m is not None:
                found += 1
                assert image_of_first_chart(f, g, m) in g._chart_index[f._first_chart[3]]
        assert found > 100

    def test_index_is_the_coded_index_decoded(self, corpus_fans):
        # Keys and the order of each bucket both.
        seen = {}
        for _, g in self.pairs(corpus_fans):
            seen[id(g)] = g
        for g in seen.values():
            assert list(g._chart_index.items()) == list(oracles.chart_index(g).items())

    def test_the_first_chart_keeps_the_signature_the_chart_inverse_reads(self, corpus_fans):
        fans = ([f for f in corpus_fans.values() if f.is_good()] + blowup_surfaces()
                + three_delta_cone_fans()[::4]
                + [without_first_top_cone(f) for f in blowup_surfaces()[:6]])
        for f in fans:
            assert f._first_chart[3] == oracles.chart_signature(f)

    def test_ranks_one_and_three_and_fans_that_are_not_proper(self, corpus_fans):
        fans = [corpus_fans[name] for name in ("affine1", "p1", "affine2", "affine3",
                                               "flop3_a", "flop3_b")]
        fans += three_delta_cone_fans()[:20]
        fans += [without_first_top_cone(f) for f in blowup_surfaces()[:6]]
        rng = random.Random(53)
        for f in fans:
            assert f.ambient_rank != 2 or not f.is_proper()
            image = image_fan(f, random_unimodular(rng, f.ambient_rank), rng)
            for g in [f, image] + fans:
                assert fan_isomorphic(f, g) == oracles.fan_isomorphic(f, g)

    def test_index_is_built_once_per_fan(self, corpus_fans):
        for g in corpus_fans.values():
            if g.is_good():
                assert g._chart_index is g._chart_index

    def test_an_index_over_the_work_limit_is_refused_before_it_is_built(self):
        # (P^1)^n lists 2^n * n! ordered top cones: 46,080 for n = 6 and
        # 645,120 for n = 7.
        small, large = projective_line_power(6), projective_line_power(7)
        assert len(small.top_cones()) * factorial(6) <= WORK_LIMIT
        assert fan_isomorphic(small, small) == IntMatrix.identity(6)
        with pytest.raises(TooLarge, match="645120 ordered top cones"):
            fan_isomorphic(large, large)
        assert "_chart_index" not in vars(large)


class TestCompareAgainstSaturation:
    def assert_agrees(self, fa, fb):
        sa, sb = ell_shadow(fa), ell_shadow(fb)
        assert compare(sa, sb, fans=(fa, fb)) == oracles.compare(sa, sb, (fa, fb))

    def test_corpus_pairs(self, corpus_fans):
        pairs = 0
        for fa in corpus_fans.values():
            for fb in corpus_fans.values():
                pairs += 1
                if fa.ambient_rank != fb.ambient_rank:
                    with pytest.raises(RankMismatch):
                        compare(ell_shadow(fa), ell_shadow(fb), fans=(fa, fb))
                    continue
                self.assert_agrees(fa, fb)
        assert pairs == 121

    def test_surfaces_and_relabelled_copies(self):
        rng = random.Random(31)
        fans = blowup_surfaces()
        for fa in fans:
            copy = shuffled_fan(fa, rng)
            self.assert_agrees(fa, copy)
            self.assert_agrees(copy, fa)
            for fb in fans:
                self.assert_agrees(fa, fb)


def assert_walls_agree(fan):
    """The walls a fan derives once equal the walls built afresh, and so
    do the shadows read from them; a refusal repeats on a second call."""
    if not fan.is_good():
        for _ in range(2):
            with pytest.raises(NotGood):
                walls(fan)
        return
    found = walls(fan)
    assert found == oracles.walls(fan)
    assert found is walls(fan)
    assert all(w.normal == primitive_normal(w.span) for w in found)
    shadow, again = ell_shadow(fan), ell_shadow(fan)
    assert shadow == oracles.ell_shadow(fan)
    # A new shadow on every call, holding the divisor the fan derived once.
    assert again == shadow and again is not shadow
    assert again.det_divisor is shadow.det_divisor


def assert_verdicts_agree(fa, fb):
    """The verdict on two fans equals the one reached from shadows built
    afresh and span multisets counted in hash tables."""
    expected = oracles.compare(oracles.ell_shadow(fa), oracles.ell_shadow(fb), (fa, fb))
    assert compare(ell_shadow(fa), ell_shadow(fb), fans=(fa, fb)) == expected


class TestWallsDerivedOnce:
    def test_corpus_and_its_pairs(self, corpus_fans):
        pairs = 0
        for fa in corpus_fans.values():
            assert_walls_agree(fa)
            for fb in corpus_fans.values():
                pairs += 1
                if fa.ambient_rank == fb.ambient_rank:
                    assert_verdicts_agree(fa, fb)
                else:
                    with pytest.raises(RankMismatch):
                        compare(ell_shadow(fa), ell_shadow(fb))
        assert pairs == 121

    def test_surfaces_and_relabelled_copies(self):
        rng = random.Random(41)
        fans = blowup_surfaces()
        copies = [shuffled_fan(f, rng) for f in fans]
        for fan in fans + copies:
            assert_walls_agree(fan)
        for fa, copy in zip(fans, copies):
            assert_verdicts_agree(fa, copy)
            assert_verdicts_agree(copy, fa)
            for fb in fans:
                assert_verdicts_agree(fa, fb)

    def test_three_delta_cone_fans(self):
        fans = three_delta_cone_fans()
        for fan in fans:
            assert_walls_agree(fan)
        shadows = [ell_shadow(f) for f in fans]
        for sa in shadows:
            for sb in shadows:
                assert compare(sa, sb) == (oracles.span_witness(sa, sb) or compare(sa, sa))

    def test_refusals_repeat(self):
        not_good = Fan.from_cones(2, [(1, 0), (1, 2)], [(0, 1)])
        assert_walls_agree(not_good)
        for _ in range(2):
            with pytest.raises(MalformedFan, match="same side of their common wall"):
                Fan.from_cones(*THREE_ON_A_WALL)

    def test_one_fan_searched_against_several(self, corpus_fans):
        rng = random.Random(43)
        fans = [f for f in corpus_fans.values() if f.is_good()] + blowup_surfaces()
        for f in fans:
            candidates = [shuffled_fan(f, rng), f,
                          image_fan(f, random_unimodular(rng, f.ambient_rank), rng)]
            candidates += [g for g in fans if len(g.rays) == len(f.rays)]
            for g in candidates:
                assert fan_isomorphic(f, g) == oracles.fan_isomorphic(f, g)
            assert f._first_chart is f._first_chart

    @settings(max_examples=300, deadline=None)
    @given(random_fans())
    def test_random_fans(self, fan):
        assert_walls_agree(fan)

    def test_cycle_reads_the_index(self, corpus_fans):
        # The walk meets, clockwise, the top cones of consecutive rays of
        # the angular order.
        fans = [f for f in corpus_fans.values()
                if f.ambient_rank == 2 and f.is_good() and f.is_proper()] + blowup_surfaces()
        for fan in fans:
            tops = oracles.top_cones(fan)
            for start in range(len(fan.rays)):
                order = oracles.clockwise_order(fan, start)
                assert _cycle(fan, start) == [tops.index(tuple(sorted((r, s))))
                                              for r, s in zip(order, order[1:] + order[:1])]


class TestClosedForms:
    @settings(max_examples=300)
    @given(st.lists(st.integers(-40, 40), min_size=1, max_size=4).filter(any))
    def test_single_vector_saturation(self, v):
        assert saturate([v]) == oracles.saturate([v], len(v))

    @settings(max_examples=300)
    @given(st.lists(st.integers(-40, 40), min_size=1, max_size=4).filter(any),
           st.integers(-5, 5).filter(bool))
    def test_single_vector_multiples(self, v, k):
        assert saturate([[k * x for x in v]]) == saturate([v])

    @settings(max_examples=200)
    @given(st.integers(2, 4).flatmap(lambda n: st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n - 1, max_size=n - 1)))
    def test_primitive_normal(self, vectors):
        s = saturate(vectors)
        assume(s.corank == 1)
        assert primitive_normal(s) == oracles.primitive_normal(s)

    def test_primitive_normal_of_basis_rows(self):
        # Any n - 1 rows of a matrix in GL_n(Z) span a saturated corank-1
        # lattice, as the rays of a wall do.
        rng = random.Random(37)
        for n in (2, 3, 4):
            for _ in range(100):
                rows = list(random_unimodular(rng, n).entries)
                del rows[rng.randrange(n)]
                s = span_class(rows, n)
                assert s.corank == 1
                assert primitive_normal(s) == oracles.primitive_normal(s)

    def test_primitive_normal_of_the_origin_in_a_line(self):
        s = saturate([], ambient_rank=1)
        assert primitive_normal(s) == oracles.primitive_normal(s) == (1,)

    def test_span_class_of_basis_subsets(self):
        rng = random.Random(8)
        for _ in range(100):
            n = rng.randint(1, 4)
            m = IntMatrix.identity(n)
            for _ in range(6):
                i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
                if i != j:
                    e = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
                    e[i][j] = rng.randint(-3, 3)
                    m = m @ IntMatrix.from_rows(e)
            rows = [r for r in m.entries if rng.random() < 0.6]
            assert span_class(rows, n) == oracles.saturate(rows, n)
