"""Fans: validation flags, walls, charts, isomorphism search."""

import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from torell.errors import MalformedFan, NotGood, NotTopCone
from torell.fan import Fan, chart, fan_isomorphic, validate, walls
from torell.lattice import IntMatrix, saturate
from torell.triang import apply_flip, cone_fan, flips, quotient_simplex, unimodular_triangulations

from conftest import (
    FLOP_TRIANGLE_GENERATORS,
    THREE_ON_A_WALL,
    blowup_surfaces,
    planted_fan_data,
    random_fan_data,
    shuffled_fan,
)


def covers_direction(fan, direction):
    """Exact membership of a direction in some top cone (rational solve)."""
    return any(oracles.cone_contains([fan.rays[i] for i in cone], direction)
               for cone in fan.top_cones())


class TestValidate:
    def test_projective_plane(self, p2):
        assert validate(p2) == validate(p2)
        report = validate(p2)
        assert report.smooth and report.good and report.proper

    def test_index_two_cone_not_smooth(self):
        f = Fan.from_cones(2, [(1, 0), (1, 2)], [(0, 1)])
        report = validate(f)
        assert not report.smooth and not report.good

    def test_resolution_fan_not_proper(self, corpus_fans):
        report = validate(corpus_fans["flop3_a"])
        assert report.smooth and report.good and not report.proper

    def test_properness_against_point_location(self, corpus_fans):
        # Independent convex-geometry oracle: a fan is proper exactly when
        # every direction lies in some top cone; sample a grid exactly.
        for name, fan in corpus_fans.items():
            n = fan.ambient_rank
            grid = [d for d in product(range(-2, 3), repeat=n) if any(d)]
            covered = all(covers_direction(fan, d) for d in grid)
            if validate(fan).proper:
                assert covered, name
            else:
                assert not covered, name

    def test_malformed_inputs(self):
        with pytest.raises(MalformedFan):
            Fan.from_cones(2, [(2, 0)], [(0,)])          # non-primitive ray
        with pytest.raises(MalformedFan):
            Fan.from_cones(2, [(1, 0), (1, 0)], [(0,), (1,)])  # repeated ray
        with pytest.raises(MalformedFan):
            Fan.from_cones(2, [(1, 0), (-1, 0)], [(0, 1)])     # dependent rays
        with pytest.raises(MalformedFan):
            Fan.from_cones(2, [(1, 0), (0, 1)], [(0, 2)])      # bad index


class TestPlaneFanAxiom:
    def test_ray_inside_a_cone_refused(self):
        with pytest.raises(MalformedFan, match=r"ray \(1, 1\) lies inside cone \(0, 1\)"):
            Fan.from_cones(2, [(1, 0), (0, 1), (1, 1)], [(0, 1), (0, 2)])

    def test_cone_across_the_first_ray_refused(self):
        # The cone of (0,-1) and (1,1) holds (1,0), the first ray of the
        # angular order, so the check must read that order cyclically.
        with pytest.raises(MalformedFan, match=r"ray \(1, 0\) lies inside cone \(1, 2\)"):
            Fan.from_cones(2, [(1, 0), (0, -1), (1, 1)], [(0,), (1, 2)])

    def test_corpus_and_surfaces_accepted(self, corpus_fans):
        assert not validate(Fan(2, (), frozenset({()}))).good      # no rays at all
        fans = [f for f in corpus_fans.values() if f.ambient_rank == 2] + blowup_surfaces()
        for fan in fans:
            assert not oracles.overlapping_cones(fan.rays, fan.cones)
            assert Fan(2, fan.rays, fan.cones) == fan

    @settings(max_examples=300, deadline=None)
    @given(random_fan_data(ranks=st.just(2)))
    def test_acceptance_is_the_point_location_verdict(self, data):
        n, rays, generators = data
        cones = {face for c in generators for k in range(len(c) + 1)
                 for face in combinations(sorted(c), k)}
        if not oracles.closed_and_independent(n, rays, cones):
            with pytest.raises(MalformedFan):
                Fan.from_cones(n, rays, generators)
            return
        if oracles.overlapping_cones(rays, cones):
            with pytest.raises(MalformedFan, match="lies inside cone"):
                Fan.from_cones(n, rays, generators)
        else:
            Fan.from_cones(n, rays, generators)


class TestWallAxiom:
    def test_cone_inside_another_refused(self):
        with pytest.raises(MalformedFan, match=r"cones \(0, 1, 2\) and \(0, 1, 3\) lie "
                                               r"on the same side of their common wall \(0, 1\)"):
            Fan.from_cones(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], [(0, 1, 2), (0, 1, 3)])

    def test_quotient_cone_fans_accepted(self):
        # Every triangulation, and every flip of one, of the seven quotient
        # triangles of the flops benchmark workload gives a cone fan.
        flipped = 0
        for generators in FLOP_TRIANGLE_GENERATORS:
            for t in unimodular_triangulations(quotient_simplex(generators)):
                assert cone_fan(t).is_good()
                for move in flips(t):
                    cone_fan(apply_flip(t, move)[0])
                    flipped += 1
        assert flipped == 456

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(random_fan_data(ranks=st.just(3)), planted_fan_data()))
    def test_acceptance_is_the_rational_determinant_verdict(self, data):
        n, rays, generators = data
        cones = {face for c in generators for k in range(len(c) + 1)
                 for face in combinations(sorted(c), k)}
        if not oracles.closed_and_independent(n, rays, cones):
            with pytest.raises(MalformedFan):
                Fan.from_cones(n, rays, generators)
            return
        if oracles.one_sided_wall(n, rays, cones):
            with pytest.raises(MalformedFan, match="same side of their common wall"):
                Fan.from_cones(n, rays, generators)
        else:
            Fan.from_cones(n, rays, generators)


class TestWalls:
    def test_projective_line(self, p1):
        ws = walls(p1)
        assert len(ws) == 1
        (w,) = ws
        assert w.cone == () and w.interior and len(w.upper) == 2
        assert w.span.rank == 0

    def test_projective_plane(self, p2):
        ws = walls(p2)
        assert len(ws) == 3 and all(w.interior for w in ws)
        spans = sorted(w.span.basis for w in ws)
        assert spans == [((0, 1),), ((1, 0),), ((1, 1),)]

    def test_affine_plane(self, corpus_fans):
        ws = walls(corpus_fans["affine2"])
        assert len(ws) == 2 and not any(w.interior for w in ws)

    def test_proper_fans_have_interior_walls_only(self, corpus_fans):
        for name, fan in corpus_fans.items():
            if validate(fan).proper:
                assert all(w.interior for w in walls(fan)), name
            assert all(w.upper for w in walls(fan)), name

    def test_not_good_rejected(self):
        f = Fan.from_cones(2, [(1, 0), (1, 2)], [(0, 1)])
        with pytest.raises(NotGood):
            walls(f)

    def test_overlapping_tops_detected(self):
        # Three 3-cones on one wall: two of them lie on one side of it, so
        # the fan is refused when it is built.
        with pytest.raises(MalformedFan, match=r"cones \(0, 1, 2\) and \(0, 1, 4\) lie "
                                               r"on the same side of their common wall \(0, 1\)"):
            Fan.from_cones(*THREE_ON_A_WALL)

    def test_spans_invariant_under_relabeling(self, corpus_fans):
        rng = random.Random(5)
        for name, fan in corpus_fans.items():
            reference = sorted(w.span.sort_key() for w in walls(fan))
            for _ in range(3):
                shuffled = shuffled_fan(fan, rng)
                assert sorted(w.span.sort_key() for w in walls(shuffled)) == reference


class TestChart:
    def test_first_quadrant_identity(self, corpus_fans):
        ch = chart(corpus_fans["affine2"], (0, 1))
        assert ch.matrix == IntMatrix.identity(2)

    def test_projective_plane_chart(self, p2):
        ch = chart(p2, (1, 2))  # rays (0,1) and (-1,-1) in sorted order
        assert ch.matrix.apply((0, 1)) == (1, 0)
        assert ch.matrix.apply((-1, -1)) == (0, 1)

    def test_round_trip_on_corpus(self, corpus_fans):
        for fan in corpus_fans.values():
            n = fan.ambient_rank
            for cone in fan.top_cones():
                ch = chart(fan, cone)
                assert ch.matrix.is_unimodular()
                for j, i in enumerate(cone):
                    expected = tuple(1 if k == j else 0 for k in range(n))
                    assert ch.matrix.apply(fan.rays[i]) == expected

    def test_not_top_cone(self, p2):
        with pytest.raises(NotTopCone):
            chart(p2, (0,))


class TestFanIsomorphic:
    def test_self_isomorphism_is_identity(self, p2):
        assert fan_isomorphic(p2, p2) == IntMatrix.identity(2)

    def test_different_ray_counts(self, corpus_fans):
        assert fan_isomorphic(corpus_fans["p2"], corpus_fans["p1xp1"]) is None

    def test_reversal_pair_not_isomorphic(self, corpus_fans):
        a = corpus_fans["ray_reversal_a"]
        b = corpus_fans["ray_reversal_b"]
        assert fan_isomorphic(a, b) is None
        assert fan_isomorphic(b, a) is None

    def test_finds_twisted_copy(self, corpus_fans):
        rng = random.Random(11)
        twist = IntMatrix.from_rows([[2, 1], [1, 1]])
        for name in ("p2", "p1xp1", "hirzebruch1", "ray_reversal_a"):
            fan = corpus_fans[name]
            image = Fan.from_cones(
                2,
                [twist.apply(r) for r in fan.rays],
                fan.maximal_cones())
            image = shuffled_fan(image, rng)
            found = fan_isomorphic(fan, image)
            assert found is not None
            assert {tuple(found.apply(r)) for r in fan.rays} == set(image.rays)

    def test_wall_span_transport(self, corpus_fans):
        # An isomorphism must carry the wall-span multiset of one fan onto
        # the other's.
        twist = IntMatrix.from_rows([[1, 3], [0, 1]])
        fan = corpus_fans["hirzebruch1"]
        image = Fan.from_cones(2, [twist.apply(r) for r in fan.rays],
                               fan.maximal_cones())
        found = fan_isomorphic(fan, image)
        assert found is not None
        transported = sorted(
            saturate([found.apply(v) for v in w.span.basis], 2).sort_key()
            for w in walls(fan))
        assert transported == sorted(w.span.sort_key() for w in walls(image))
