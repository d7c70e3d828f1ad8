"""Quotient simplices, triangulations, flips, certificates, cone fans."""

import dataclasses
import random
import re
from fractions import Fraction
from itertools import combinations

import pytest

import oracles
from torell import triang
from torell.ellinv import NOT_ISOMORPHIC, compare, ell_shadow
from torell.errors import IllegalFlip, NotDim2, NotInSL, NotUnimodular, TooLarge
from torell.fan import validate
from torell.triang import (
    LatticeSimplex,
    Triangulation,
    antidiagonal_generators,
    apply_flip,
    compose_certificates,
    cone_fan,
    flip_aliases,
    flips,
    mu2_kernel_generators,
    mu2_kernel_simplex,
    mu2_kernel_triangulations,
    quotient_simplex,
    simplices_equivalent,
    unimodular_triangulations,
)

from conftest import FLOP_TRIANGLE_GENERATORS, random_lattice_triangles, random_unimodular

TWO_DELTA = LatticeSimplex.from_vertices([(0, 0), (2, 0), (0, 2)])
THREE_DELTA = LatticeSimplex.from_vertices([(0, 0), (3, 0), (0, 3)])
FOUR_DELTA = LatticeSimplex.from_vertices([(0, 0), (4, 0), (0, 4)])


class TestQuotientSimplex:
    def test_trivial_group_is_unit_simplex(self):
        s = quotient_simplex([], rank=2)
        assert s.vertices == ((0,), (1,))
        assert s.points == ((0,), (1,))

    def test_antidiagonal_intervals(self):
        for order in (2, 3, 4, 5):
            s = quotient_simplex(antidiagonal_generators(order))
            assert s.vertices == ((0,), (order,))
            assert len(s.points) == order + 1

    def test_two_torsion_kernel_triangle(self):
        s = quotient_simplex(mu2_kernel_generators())
        assert len(s.points) == 6
        assert len(s.boundary_points) == 6 and not s.interior_points
        assert THREE_DELTA.interior_points == ((1, 1),)
        assert s == mu2_kernel_simplex()
        assert simplices_equivalent(s, mu2_kernel_simplex())

    def test_non_special_linear_rejected(self):
        with pytest.raises(NotInSL):
            quotient_simplex([(Fraction(1, 2), Fraction(1, 3))])

    def test_string_weights_accepted(self):
        s = quotient_simplex([("1/2", "1/2", "0"), ("1/2", "0", "1/2")])
        assert s == mu2_kernel_simplex()

    def test_one_inverse_equals_vertex_by_vertex_solves(self):
        # The flops triangles, the built-in and antidiagonal groups, and the
        # trivial and cyclic groups of the mckay-example command tests.
        inputs = ([(g, None) for g in FLOP_TRIANGLE_GENERATORS]
                  + [(mu2_kernel_generators(), None), ([("1/4", "3/4")], None),
                     ([], 2), ([], 3), ([("1/5", "1/5", "1/5", "2/5")], None)]
                  + [(antidiagonal_generators(order), None) for order in (2, 3, 4, 5)])
        for generators, rank in inputs:
            assert quotient_simplex(generators, rank) == oracles.quotient_simplex(generators, rank)


class TestSimplicesEquivalent:
    @staticmethod
    def moved(s, rng):
        """The image of s under a random unimodular map and translation."""
        m = random_unimodular(rng, s.dim)
        shift = [rng.randint(-3, 3) for _ in range(s.dim)]
        return LatticeSimplex.from_vertices(
            [tuple(x + t for x, t in zip(m.apply(v), shift)) for v in s.vertices])

    def test_agrees_with_row_by_row_solves(self):
        rng = random.Random(606)
        triangles = random_lattice_triangles(rng, 60)
        tetrahedra = [quotient_simplex([("1/5", "1/5", "1/5", "2/5")]),
                      quotient_simplex([("1/2", "1/2", "0", "0"), ("0", "0", "1/2", "1/2")]),
                      LatticeSimplex.from_vertices([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)])]
        verdicts = []
        for s in triangles + tetrahedra:
            image = self.moved(s, rng)
            assert simplices_equivalent(s, image) and oracles.simplices_equivalent(s, image)
            for other in rng.sample(triangles, 10) + tetrahedra:
                verdict = simplices_equivalent(s, other)
                assert verdict == oracles.simplices_equivalent(s, other)
                verdicts.append(verdict)
        assert 0 < sum(verdicts) < len(verdicts)


class TestTriangulation:
    def test_non_unimodular_cell_rejected(self):
        s = LatticeSimplex.from_vertices([(0, 0), (2, 0), (0, 2)])
        cells_skipping_points = (
            (s.point_index((0, 0)), s.point_index((2, 0)), s.point_index((0, 2))),
        )
        with pytest.raises(NotUnimodular):
            Triangulation(s, cells_skipping_points)

    def test_overlapping_cells_rejected(self):
        s = LatticeSimplex.from_vertices([(0, 0), (2, 0), (0, 2)])
        i = s.point_index
        cells = tuple(sorted([
            tuple(sorted((i((0, 0)), i((1, 0)), i((0, 1))))),
            tuple(sorted((i((0, 0)), i((1, 0)), i((0, 1))))),
            tuple(sorted((i((1, 0)), i((1, 1)), i((0, 1))))),
            tuple(sorted((i((0, 1)), i((1, 1)), i((0, 2))))),
        ]))
        with pytest.raises(NotUnimodular):
            Triangulation(s, cells)

    def test_cone_over_medial_triangulation_accepted(self):
        s = LatticeSimplex.from_vertices([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 1)])
        medial, _ = mu2_kernel_triangulations()
        apex = s.point_index((0, 0, 1))
        base = [s.point_index(p + (0,)) for p in medial.simplex.points]
        cells = tuple(sorted(tuple(sorted([base[i] for i in c] + [apex]))
                             for c in medial.cells))
        assert len(Triangulation(s, cells).cells) == 4

    def test_duplicated_cell_in_dimension_three_rejected(self):
        # Four unimodular cells of the right volume using every point, but
        # the corner cell twice and a hole where the medial cell was.
        s = LatticeSimplex.from_vertices([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 1)])
        i = s.point_index
        corner = tuple(sorted((i((0, 0, 0)), i((1, 0, 0)), i((0, 1, 0)), i((0, 0, 1)))))
        cells = tuple(sorted([
            corner, corner,
            tuple(sorted((i((1, 0, 0)), i((2, 0, 0)), i((1, 1, 0)), i((0, 0, 1))))),
            tuple(sorted((i((0, 1, 0)), i((1, 1, 0)), i((0, 2, 0)), i((0, 0, 1))))),
        ]))
        with pytest.raises(NotUnimodular):
            Triangulation(s, cells)

    def test_duplicated_segment_rejected(self):
        s = LatticeSimplex.from_vertices([(0,), (3,)])
        with pytest.raises(NotUnimodular):
            Triangulation(s, ((0, 1), (0, 1), (2, 3)))

    @pytest.mark.parametrize("cell", [(0, 1, 99), (-1, 0, 1)])
    def test_point_index_outside_the_simplex_rejected(self, cell):
        # Checked before any indexing: 99 is past the six points, and -1
        # would otherwise be read as the last point.
        with pytest.raises(NotUnimodular, match=re.escape(f"cell {cell} names a point index")):
            Triangulation(TWO_DELTA, (cell,))

    def test_fields_are_simplex_and_cells(self):
        # The facet map the check derives takes no part in init, repr or equality.
        assert [f.name for f in dataclasses.fields(Triangulation)
                if f.init or f.repr or f.compare] == ["simplex", "cells"]

    def test_interval_cells(self):
        s = quotient_simplex(antidiagonal_generators(2))
        (t,) = unimodular_triangulations(s)
        assert t.cells == ((0, 1), (1, 2))


class TestConeFan:
    def test_resolved_a1_surface(self):
        s = quotient_simplex(antidiagonal_generators(2))
        (t,) = unimodular_triangulations(s)
        fan = cone_fan(t)
        assert fan.rays == ((0, 1), (1, 1), (2, 1))
        assert len(fan.top_cones()) == 2
        report = validate(fan)
        assert report.smooth and report.good

    def test_flop_pair_fans(self, corpus_fans):
        t, tp = mu2_kernel_triangulations()
        assert cone_fan(t).rays == corpus_fans["flop3_a"].rays
        assert cone_fan(t).cones == corpus_fans["flop3_a"].cones
        assert cone_fan(tp).cones == corpus_fans["flop3_b"].cones
        for fan in (cone_fan(t), cone_fan(tp)):
            report = validate(fan)
            assert report.smooth and report.good and not report.proper
            # crepancy: every ray at height one, every point used
            assert all(r[-1] == 1 for r in fan.rays)
            assert len(fan.rays) == len(t.simplex.points)


class TestFlips:
    def test_medial_triangulation_has_three_flips(self):
        t, _ = mu2_kernel_triangulations()
        moves = flips(t)
        assert len(moves) == 3
        assert "green" in flip_aliases(t)

    def test_interval_rejected(self):
        s = quotient_simplex(antidiagonal_generators(3))
        (t,) = unimodular_triangulations(s)
        with pytest.raises(NotDim2):
            flips(t)

    def test_unit_triangle_has_none(self):
        s = LatticeSimplex.from_vertices([(0, 0), (1, 0), (0, 1)])
        (t,) = unimodular_triangulations(s)
        assert flips(t) == ()

    def test_green_flip_produces_partner(self):
        t, tp = mu2_kernel_triangulations()
        flipped, cert = apply_flip(t, flip_aliases(t)["green"])
        assert flipped == tp
        assert len(cert.moves) == 1
        assert cert.source == t and cert.target == tp

    def test_flip_is_involution(self):
        t, _ = mu2_kernel_triangulations()
        for move in flips(t):
            once, cert1 = apply_flip(t, move)
            back_moves = [m for m in flips(once)
                          if m.removed_edge == move.added_edge]
            assert len(back_moves) == 1
            twice, cert2 = apply_flip(once, back_moves[0])
            assert twice == t
            combined = compose_certificates(cert1, cert2)
            assert len(combined.moves) == 2
            assert combined.source == t and combined.target == t

    def test_illegal_flip_rejected(self):
        t, tp = mu2_kernel_triangulations()
        move = flip_aliases(t)["green"]
        with pytest.raises(IllegalFlip):
            apply_flip(tp, move)


class TestEnumeration:
    def test_quotient_triangle_has_four(self):
        triangulations = unimodular_triangulations(mu2_kernel_simplex())
        assert len(triangulations) == 4
        t, tp = mu2_kernel_triangulations()
        assert t in triangulations and tp in triangulations

    def test_intervals_unique(self):
        for order in (2, 3, 5):
            s = quotient_simplex(antidiagonal_generators(order))
            assert len(unimodular_triangulations(s)) == 1

    def test_cell_count_equals_volume(self):
        for t in unimodular_triangulations(mu2_kernel_simplex()):
            assert len(t.cells) == t.simplex.normalized_volume()

    def test_enumeration_agrees_with_flip_reachability(self):
        # the flip graph of the quotient triangle is a star centred at the
        # medial triangulation, so enumeration and flips must agree
        t, _ = mu2_kernel_triangulations()
        reachable = {t} | {apply_flip(t, m)[0] for m in flips(t)}
        assert reachable == set(unimodular_triangulations(t.simplex))


@pytest.fixture(scope="module")
def oracle_simplices():
    """2Δ, 3Δ, the seven flops quotient triangles and 200 random lattice
    triangles with at most 12 points."""
    return ([TWO_DELTA, THREE_DELTA]
            + [quotient_simplex(g) for g in FLOP_TRIANGLE_GENERATORS]
            + random_lattice_triangles(random.Random(2024), 200))


class TestFlipWalk:
    def test_walk_equals_backtracker(self, oracle_simplices):
        for s in oracle_simplices:
            assert unimodular_triangulations(s) == oracles.unimodular_triangulations(s)

    def test_placing_cells_form_a_triangulation(self, oracle_simplices):
        for s in oracle_simplices:
            Triangulation(s, triang._placing_cells(s))

    def test_thin_simplex_past_twelve_points(self):
        s = LatticeSimplex.from_vertices([(0, 0), (12, 0), (0, 1)])
        assert len(s.points) == 14
        (t,) = unimodular_triangulations(s)
        assert len(t.cells) == 12

    def test_four_delta_count(self):
        assert len(unimodular_triangulations(FOUR_DELTA)) == 7424

    def test_too_many_states_raise(self, monkeypatch):
        monkeypatch.setattr(triang, "WORK_LIMIT", 10)
        with pytest.raises(TooLarge):
            unimodular_triangulations(THREE_DELTA)


class TestFacetCheckAgainstOracle:
    TRIANGLES = [((0, 0), (2, 0), (0, 2)), ((0, 0), (3, 0), (0, 3)),
                 ((0, 0), (4, 0), (0, 2)), ((0, 0), (3, 0), (1, 3)),
                 ((0, 0), (5, 0), (0, 1)), ((0, 0), (2, 0), (1, 3))]

    def test_agrees_with_pairwise_overlap(self):
        """4,000 cell tuples per triangle: valid triangulations with one or
        two cells replaced, and lists of unimodular cells of the right count."""
        rng = random.Random(808)
        verdicts = []
        for vertices in self.TRIANGLES:
            s = LatticeSimplex.from_vertices(vertices)
            unit = [c for c in combinations(range(len(s.points)), 3)
                    if abs(triang._orient(*(s.points[i] for i in c))) == 1]
            valid = unimodular_triangulations(s)
            candidates = []
            for _ in range(2000):
                cells = list(rng.choice(valid).cells)
                for k in rng.sample(range(len(cells)), rng.randint(1, 2)):
                    cells[k] = rng.choice(unit)
                candidates.append(cells)
            candidates += [rng.choices(unit, k=s.normalized_volume()) for _ in range(2000)]
            for cells in candidates:
                cells = tuple(sorted(cells))
                try:
                    Triangulation(s, cells)
                    accepted = True
                except NotUnimodular:
                    accepted = False
                assert accepted == oracles.triangulation_ok(s, cells), (vertices, cells)
                verdicts.append(accepted)
        assert len(verdicts) == 24000 and 0 < sum(verdicts) < len(verdicts)


class TestFlopInvariants:
    def test_rank_preserved_by_flips(self):
        t, _ = mu2_kernel_triangulations()
        for move in flips(t):
            flipped, cert = apply_flip(t, move)
            ra = ell_shadow(cone_fan(cert.source)).rank
            rb = ell_shadow(cone_fan(cert.target)).rank
            assert ra == rb == len(t.cells)

    def test_flop_pair_end_to_end(self):
        # Derived-equivalent by the shared simplex and one flip, yet the
        # sheaf invariant tells them apart through the flopped wall span.
        t, tp = mu2_kernel_triangulations()
        flipped, cert = apply_flip(t, flip_aliases(t)["green"])
        assert flipped == tp
        fa, fb = cone_fan(t), cone_fan(tp)
        verdict = compare(ell_shadow(fa), ell_shadow(fb), fans=(fa, fb))
        assert verdict.outcome == NOT_ISOMORPHIC
        only_a, only_b = verdict.witness.detail
        # the dropped span comes from the removed diagonal, the new one
        # from the added diagonal
        pts = t.simplex.points
        removed = [pts[i] + (1,) for i in cert.moves[0].removed_edge]
        from torell.lattice import saturate
        assert only_a == (saturate(removed),)
