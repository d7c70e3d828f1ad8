"""Fans: validation flags, walls, the chart of the isomorphism walk, isomorphism search."""

import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from torell import fan as fan_mod, lattice
from torell.errors import MalformedFan, NotGood, TooLarge
from torell.fan import Fan, fan_isomorphic, validate, walls
from torell.fan_io import complete_surface_fan
from torell.lattice import IntMatrix, determinant, saturate
from torell.triang import apply_flip, cone_fan, flips, quotient_simplex, unimodular_triangulations

from conftest import (
    DOUBLE_COVER,
    DOUBLE_COVER_CYCLE,
    FLOP_TRIANGLE_GENERATORS,
    LONE_RAY_IN_P1_CUBED,
    THREE_ON_A_WALL,
    blowup_surfaces,
    planted_fan_data,
    projective_line_power,
    projective_line_power_data,
    random_fan_data,
    cones_over_cycle,
    random_unimodular,
    shuffled_fan,
    three_delta_cone_fans,
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

    def test_lower_dimensional_maximal_cone_must_extend_to_a_basis(self):
        # (1,0,0) and (1,2,0) span an index-2 sublattice of their saturation.
        rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 0)]
        report = validate(Fan(3, rays, [(0, 1, 2), (0, 3)]))
        assert not report.smooth and not report.good and not report.proper
        report = validate(Fan(3, rays[:3] + [(1, 1, 0)], [(0, 1, 2), (0, 3)]))
        assert report.smooth and not report.good
        lone = Fan(3, [(1, 0, 0), (1, 2, 0)], [(0,), (1,)])
        assert lone.is_smooth() and not Fan(3, lone.rays, [(0, 1)]).is_smooth()
        assert Fan(2, [], []).maximal_cones() == ((),) and Fan(2, [], []).is_smooth()

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
        with pytest.raises(MalformedFan, match="too many rays"):
            # Refused before any face is built: closing first builds 2^40.
            Fan.from_cones(2, [(1, k) for k in range(40)], [range(40)])

    def test_non_integers_refused(self):
        # Read by operator.index: a float is not truncated, a string not parsed.
        rays, cones = [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)]
        with pytest.raises(MalformedFan, match=r"ray coordinate 1\.7 is not an integer"):
            Fan.from_cones(2, [(1.7, 0)] + rays[1:], cones)
        with pytest.raises(MalformedFan, match=r"ray coordinate '1' is not an integer"):
            Fan(2, [("1", 0)] + rays[1:], cones)
        with pytest.raises(MalformedFan, match=r"ray index 0\.9 is not an integer"):
            Fan.from_cones(2, rays, [(0.9, 1.2)] + cones[1:])
        with pytest.raises(MalformedFan, match=r"ray index '2' is not an integer"):
            Fan(2, rays, cones[:2] + [(0, "2")])
        with pytest.raises(MalformedFan, match=r"ray coordinate 1\.9 is not an integer"):
            complete_surface_fan([(1.9, 0)] + rays[1:])
        assert Fan(2, [(True, 0)] + rays[1:], cones).rays == tuple(rays)
        with pytest.raises(MalformedFan, match=r"ambient rank 2\.0 is not an integer"):
            Fan(2.0, rays, cones)
        with pytest.raises(MalformedFan, match=r"ambient rank '2' is not an integer"):
            Fan("2", rays, cones)


class TestAmbientRank:
    def test_read_before_the_cones(self):
        with pytest.raises(MalformedFan, match="ambient rank must be at least 1"):
            Fan(0, [(1,)], [(0,)])
        ray = (1,) + (0,) * 256
        for rays, cones in (([], []), ([ray], [(0,)])):
            with pytest.raises(TooLarge, match="ambient rank 257 is over the limit of 256"):
                Fan(257, rays, cones)

    def test_the_zero_cone_builds_no_hermite_transform(self, monkeypatch):
        def refuse(rows, ncols):
            raise AssertionError("a Hermite transform was built")

        monkeypatch.setattr(lattice, "hermite_transform", refuse)
        for n in (1, 2, 256):
            fan = Fan(n, [], [])
            assert fan.maximal_cones() == ((),) and validate(fan).smooth


class TestFaceClosure:
    def test_closure_over_the_limit_refused(self):
        # Affine 17-space has 2^17 cones, more than WORK_LIMIT.
        rays = [tuple(int(i == j) for j in range(17)) for i in range(17)]
        with pytest.raises(TooLarge):
            Fan.from_cones(17, rays, [range(17)])

    def test_generating_cones_build_the_same_fan(self, corpus_fans):
        fans = list(corpus_fans.values()) + blowup_surfaces() + three_delta_cone_fans()
        for fan in fans:
            n = fan.ambient_rank
            assert Fan(n, fan.rays, fan.maximal_cones()) == fan
            # Lists in place of tuples, cones unsorted and in reverse order,
            # and one cone listed with a face of it.
            rays = [list(r) for r in fan.rays]
            cones = [list(reversed(c)) for c in reversed(fan.maximal_cones())]
            built = Fan(n, rays, cones + [cones[0][1:]])
            assert built == fan and validate(built) == validate(fan)
            assert built.maximal_cones() == oracles.maximal_cones(fan)

    def test_a_closure_of_exactly_the_limit_is_built(self, monkeypatch, corpus_fans):
        fan = corpus_fans["affine3"]                   # 8 cones
        monkeypatch.setattr(fan_mod, "WORK_LIMIT", 8)
        assert Fan.from_cones(3, fan.rays, fan.maximal_cones()) == fan
        monkeypatch.setattr(fan_mod, "WORK_LIMIT", 7)
        with pytest.raises(TooLarge):
            Fan.from_cones(3, fan.rays, fan.maximal_cones())


class TestPlaneFanAxiom:
    def test_ray_inside_a_cone_refused(self):
        with pytest.raises(MalformedFan, match=r"ray \(1, 1\) lies inside cone \(0, 1\)"):
            Fan.from_cones(2, [(1, 0), (0, 1), (1, 1)], [(0, 1), (0, 2)])

    def test_cone_across_the_first_ray_refused(self):
        # The cone of (0,-1) and (1,1) holds (1,0), the first ray of the
        # angular order, so the check must read that order cyclically.
        with pytest.raises(MalformedFan, match=r"ray \(1, 0\) lies inside cone \(1, 2\)"):
            Fan.from_cones(2, [(1, 0), (0, -1), (1, 1)], [(0,), (1, 2)])

    def test_cross_product_order_is_the_cotangent_order(self):
        # Vectors are drawn as multiples of a few directions, so many share
        # an angle, with each other and with the start and its opposite.
        rng = random.Random(61)
        for _ in range(300):
            directions = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(6)]
            directions = [d for d in directions if any(d)]
            start = rng.choice(directions)
            vectors = [(k * d[0], k * d[1]) for d in directions
                       for k in rng.sample([-3, -2, -1, 1, 2, 3], 3)]
            rng.shuffle(vectors)
            assert fan_mod.ccw_order(vectors, start) == oracles.ccw_order(vectors, start)

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


class TestCoveringDegree:
    """Complete cone sets in rank 3 and above must cover space once."""

    def test_double_cover_refused(self):
        n, rays, cones = DOUBLE_COVER
        assert set(oracles.ray_sum_holders(n, rays, cones)) == {2}
        assert not oracles.one_sided_wall(n, rays, cones)
        with pytest.raises(MalformedFan, match=r"top cones \(0, 1, 15\) and \(13, 14, 15\) "
                                               r"overlap: both hold the sum of the rays"):
            Fan.from_cones(*DOUBLE_COVER)

    def test_a_sum_on_the_boundary_of_other_top_cones_refused(self):
        # (-3, 2) + (1, -1) = (-2, 1), the sum of the first pair of the cycle:
        # blowing up the second winding there puts the sum of the first top
        # cone's rays on the wall of two other top cones.
        n, rays, cones = cones_over_cycle(
            DOUBLE_COVER_CYCLE[:14] + ((-2, 1),) + DOUBLE_COVER_CYCLE[14:])
        assert oracles.ray_sum_holders(n, rays, cones)[0] == 3
        with pytest.raises(MalformedFan, match=r"top cones \(0, 1, 16\) and \(13, 14, 16\) "
                                               r"overlap"):
            Fan.from_cones(n, rays, cones)

    def test_lone_ray_in_a_complete_fan_refused(self):
        with pytest.raises(MalformedFan, match=r"maximal cone \(6,\) lies inside the space "
                                               r"that the top cones cover"):
            Fan.from_cones(*LONE_RAY_IN_P1_CUBED)
        n, rays, cones = LONE_RAY_IN_P1_CUBED
        assert Fan.from_cones(n, rays[:-1], cones[:-1]).is_proper()

    def test_refusal_is_the_point_location_verdict(self):
        # Relabelled rays and lattice automorphisms put other top cones first.
        rng = random.Random(11)
        for n, rays, cones in (DOUBLE_COVER, LONE_RAY_IN_P1_CUBED,
                               projective_line_power_data(3), projective_line_power_data(4)):
            for _ in range(6):
                m = random_unimodular(rng, n)
                perm = list(range(len(rays)))
                rng.shuffle(perm)
                moved = [None] * len(rays)
                for old, new in enumerate(perm):
                    moved[new] = m.apply(rays[old])
                relabelled = [[perm[i] for i in cone] for cone in cones]
                once = (set(oracles.ray_sum_holders(n, moved, relabelled)) == {1}
                        and all(len(cone) == n for cone in cones))
                if once:
                    assert Fan.from_cones(n, moved, relabelled).is_proper()
                else:
                    with pytest.raises(MalformedFan):
                        Fan.from_cones(n, moved, relabelled)

    def test_products_of_projective_lines_accepted(self):
        assert all(projective_line_power(n).is_proper() for n in range(3, 7))


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

    def test_a_plane_wall_spans_its_own_ray_when_normalised(self, p2):
        # A normalised ray is the span's basis row itself, not a copy of it.
        rows = {w.cone: w.span.basis[0] for w in walls(p2)}
        for i, ray in enumerate(p2.rays):
            if next(x for x in ray if x) > 0:
                assert rows[(i,)] is ray
            else:
                assert rows[(i,)] == tuple(-x for x in ray)

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
            reference = sorted(w.span for w in walls(fan))
            for _ in range(3):
                shuffled = shuffled_fan(fan, rng)
                assert sorted(w.span for w in walls(shuffled)) == reference


class TestChart:
    """The first chart: the inverse of its top cone's ray matrix, and every
    ray in that chart's coordinates."""

    def test_first_quadrant_identity(self, corpus_fans):
        sigma0, vinv, coordinates, _ = corpus_fans["affine2"]._first_chart
        assert sigma0 == (0, 1) and vinv == IntMatrix.identity(2)
        assert sorted(coordinates) == [(0, (1, 0)), (1, (0, 1))]

    def test_projective_plane_chart(self):
        # P^2 with rays listed so that the first top cone is (0,1), (-1,-1).
        fan = Fan.from_cones(2, [(0, 1), (-1, -1), (1, 0)], [(0, 1), (1, 2), (0, 2)])
        sigma0, vinv, coordinates, _ = fan._first_chart
        assert sigma0 == (0, 1)
        assert vinv.apply((0, 1)) == (1, 0)
        assert vinv.apply((-1, -1)) == (0, 1)
        # (1, 0) = -(0, 1) - (-1, -1), the one ray off sigma0.
        assert dict(coordinates)[2] == (-1, -1)

    def test_round_trip_on_corpus(self, corpus_fans):
        for fan in corpus_fans.values():
            n = fan.ambient_rank
            sigma0, vinv, coordinates, _ = fan._first_chart
            assert abs(determinant(vinv)) == 1
            for j, i in enumerate(sigma0):
                expected = tuple(1 if k == j else 0 for k in range(n))
                assert vinv.apply(fan.rays[i]) == expected
            basis = IntMatrix.from_columns([fan.rays[i] for i in sigma0])
            for i, c in coordinates:
                assert basis.apply(c) == fan.rays[i]

    def test_not_top_cone(self, corpus_fans):
        # Charts are taken only of top cones, and every ray is listed once.
        for fan in corpus_fans.values():
            sigma0, _, coordinates, _ = fan._first_chart
            assert sigma0 == fan.top_cones()[0]
            assert sorted(i for i, _ in coordinates) == list(range(len(fan.rays)))


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
            saturate([found.apply(v) for v in w.span.basis], 2) for w in walls(fan))
        assert transported == sorted(w.span for w in walls(image))
