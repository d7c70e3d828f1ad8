"""Shadow invariants, comparison verdicts, the cycle of top cones, certificates."""

import random
import sys
from collections import Counter
from operator import eq

import pytest

import oracles
from torell.ellinv import (
    ISOMORPHIC,
    NOT_ISOMORPHIC,
    UNKNOWN,
    compare,
    ell_shadow,
    _cycle,
    _sorted_differences,
    flip_certificate,
    mv_ladder,
)
from torell.errors import (
    FansMismatch,
    NotGood,
    NotProper,
    NotSingleFlip,
    NotSurface,
    RankMismatch,
    TorellError,
)
from torell.fan import Fan, fan_isomorphic, walls
from torell.lattice import IntMatrix, determinant, saturate

from conftest import blowup_surfaces, grown_reversal_pair, shuffled_fan, single_reversal_pairs


def incidence_pair(f, g):
    """A_f and A_g as flip_certificate reads them: clockwise from the
    reversed ray and its negation, or from the least ray of equal ray sets."""
    gone = set(f.rays) - set(g.rays)
    v = gone.pop() if gone else min(f.rays)
    w = tuple(-x for x in v) if v not in g.rays else v
    return (oracles.clockwise_incidence(f, f.rays.index(v)),
            oracles.clockwise_incidence(g, g.rays.index(w)))


def arcs(a_g, a, b):
    """The signed indicators of the clockwise and the counter-clockwise arc
    from row b to row a of the cycle whose vertices are A_g's rows and
    whose edges are its columns, by walking it edge by edge; each edge
    into row u is signed by A_g's entry in row u."""
    m = a_g.rows
    rows_of = [[i for i in range(m) if a_g.entries[i][j]] for j in range(m)]
    first, second = (j for j in range(m) if a_g.entries[b][j])
    # Clockwise rays are consecutive columns: the arc leaving b clockwise
    # takes the later of b's two columns.
    clockwise = second if (first + 1) % m == second else first
    out = []
    for column in (clockwise, first + second - clockwise):
        x, row = [0] * m, b
        while True:
            (row,) = (i for i in rows_of[column] if i != row)
            x[column] = a_g.entries[row][column]
            if row == a:
                break
            (column,) = (j for j in range(m) if a_g.entries[row][j] and j != column)
        out.append(x)
    return out


def assert_certificate(f, g, branches):
    """The certificate carries A_g to A_f with |det| = 1 by the oracles;
    every column but the first is the shorter arc (clockwise on a tie) and
    the first differs from its arc by a kernel vector.  Counts in branches
    the columns that take the counter-clockwise arc and the certificates
    whose first column was corrected."""
    cert = flip_certificate(f, g)
    a_f, a_g = incidence_pair(f, g)
    assert oracles.matmul(a_g, cert) == a_f
    assert abs(oracles.bareiss(cert.entries)) == 1
    hermite = oracles.flip_certificate(f, g)
    assert oracles.matmul(a_g, hermite) == a_f
    for j in range(a_f.rows):
        (a,), (b,) = ([i for i in range(a_f.rows) if a_f.entries[i][j] == s] for s in (1, -1))
        clockwise, counter = arcs(a_g, a, b)
        shorter = counter if sum(map(abs, counter)) < sum(map(abs, clockwise)) else clockwise
        column = [row[j] for row in cert.entries]
        if j:
            assert column == shorter
            branches["counter-clockwise arc"] += shorter is counter
        else:
            difference = [x - y for x, y in zip(column, shorter)]
            assert not any(a_g.apply(difference))
            branches["corrected first column"] += any(difference)
    return cert


class TestEllShadow:
    def test_projective_line(self, p1):
        s = ell_shadow(p1)
        assert s.rank == 2
        assert len(s.wall_spans) == 1 and s.wall_spans[0].rank == 0
        assert s.det_divisor == ((-1, s.wall_spans[0]),)
        assert s.det_divisor_degree() == -1

    def test_projective_plane(self, p2):
        s = ell_shadow(p2)
        assert s.rank == 3
        assert sorted(c.basis for c in s.wall_spans) == \
            [((0, 1),), ((1, 0),), ((1, 1),)]

    def test_rank_is_top_cone_count(self, corpus_fans):
        for name, fan in corpus_fans.items():
            assert ell_shadow(fan).rank == len(fan.top_cones()), name

    def test_flop_pair_differs_in_one_span(self, corpus_fans):
        sa = ell_shadow(corpus_fans["flop3_a"])
        sb = ell_shadow(corpus_fans["flop3_b"])
        ca, cb = Counter(sa.wall_spans), Counter(sb.wall_spans)
        assert sum((ca - cb).values()) == 1
        assert sum((cb - ca).values()) == 1

    def test_det_divisor_counts_interior_walls(self, corpus_fans):
        for name, fan in corpus_fans.items():
            s = ell_shadow(fan)
            interior = sum(1 for w in walls(fan) if w.interior)
            assert s.det_divisor_degree() == -interior, name

    def test_det_divisor_is_minus_span_multiset(self, corpus_fans):
        # opposite rays give the same line class, so coefficients track
        # multiplicities
        s = ell_shadow(corpus_fans["p1xp1"])
        assert [coeff for coeff, _ in s.det_divisor] == [-2, -2]
        for name, fan in corpus_fans.items():
            s = ell_shadow(fan)
            counts = Counter(s.wall_spans)
            assert dict((cls, -coeff) for coeff, cls in s.det_divisor) == dict(counts)
            assert [cls for _, cls in s.det_divisor] == sorted(counts)
            # The affine fans have no interior wall.
            assert bool(s.det_divisor) != name.startswith("affine"), name


def class_pool(rng, n):
    """Up to four classes of rank n - 1 in Z^n."""
    pool = set()
    while len(pool) < min(4, 2 ** (n - 1)):
        span = saturate([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n - 1)], n)
        if span.rank == n - 1:
            pool.add(span)
    return sorted(pool)


class TestSortedDifferences:
    def test_against_the_counter_oracle(self):
        # Sorted multisets with repeats, empty ones included, drawn from
        # one pool so that they share classes.
        rng = random.Random(2207)
        for _ in range(300):
            pool = class_pool(rng, rng.randint(1, 3))
            a, b = (tuple(sorted(rng.choices(pool, k=rng.randint(0, 8)))) for _ in range(2))
            assert _sorted_differences(a, b) == oracles.multiset_differences(a, b)
            assert _sorted_differences(a, a) == ((), ())


def python_calls(function, *args):
    """The names of the Python functions a call runs, the called one
    included, in order; calls into C are not counted."""
    names = []

    def profile(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        function(*args)
    finally:
        sys.setprofile(None)
    return names


class TestComparisonsRunInC:
    """Classes compare, hash and sort as tuples, so comparing shadows of
    204-ray surfaces runs no Python code besides the merge itself."""

    def test_relabelled_spans_compare_with_no_python_call(self):
        fan, _, _ = grown_reversal_pair(random.Random(2311), 204)
        copy = shuffled_fan(fan, random.Random(1))
        a, b = ell_shadow(fan).wall_spans, ell_shadow(copy).wall_spans
        assert len(a) == 204 and a == b and all(x is not y for x, y in zip(a, b))
        assert python_calls(eq, a, b) == []

    def test_sorted_differences_calls_nothing(self):
        a, b = (ell_shadow(grown_reversal_pair(random.Random(seed), 204)[0]).wall_spans
                for seed in (2312, 2313))
        assert len(a) == len(b) == 204 and a != b
        assert python_calls(_sorted_differences, a, b) == ["_sorted_differences"]
        assert _sorted_differences(a, b) == oracles.multiset_differences(a, b)


class TestLadder:
    def test_projective_line(self, p1):
        ladder = mv_ladder(p1)
        assert ladder.terms[0] == ()
        assert [s.span.rank for s in ladder.terms[1]] == [1, 1]
        assert [s.span.rank for s in ladder.terms[2]] == [0]
        assert not ladder.terms[2][0].vanishes_in_codim2

    def test_projective_plane(self, p2):
        ladder = mv_ladder(p2)
        assert len(ladder.terms[2]) == 3
        assert all(s.span.corank == 1 and not s.vanishes_in_codim2
                   for s in ladder.terms[2])
        assert len(ladder.terms[3]) == 1
        assert ladder.terms[3][0].span.corank == 2
        assert ladder.terms[3][0].vanishes_in_codim2

    def test_affine_space_has_single_term(self, corpus_fans):
        for name in ("affine1", "affine2", "affine3"):
            ladder = mv_ladder(corpus_fans[name])
            assert len(ladder.terms) == 2
            assert len(ladder.terms[1]) == 1

    def test_summand_counts_are_binomial(self, p2):
        from math import comb
        ladder = mv_ladder(p2)
        for k, term in enumerate(ladder.terms[1:], start=1):
            assert len(term) == comb(3, k)


class TestCompare:
    def test_reversal_pair_isomorphic(self, corpus_fans):
        a, b = corpus_fans["ray_reversal_a"], corpus_fans["ray_reversal_b"]
        verdict = compare(ell_shadow(a), ell_shadow(b), fans=(a, b))
        assert verdict.outcome == ISOMORPHIC
        assert verdict.witness.kind == "surface-ray-line-bijection"
        pairs = verdict.witness.detail
        assert sorted(p[0] for p in pairs) == sorted(a.rays)
        assert sorted(p[1] for p in pairs) == sorted(b.rays)
        assert fan_isomorphic(a, b) is None

    def test_flop_pair_not_isomorphic(self, corpus_fans):
        a, b = corpus_fans["flop3_a"], corpus_fans["flop3_b"]
        verdict = compare(ell_shadow(a), ell_shadow(b), fans=(a, b))
        assert verdict.outcome == NOT_ISOMORPHIC
        assert verdict.witness.kind == "wall-span-mismatch"
        only_a, only_b = verdict.witness.detail
        assert len(only_a) == 1 and len(only_b) == 1

    def test_threefold_self_compare_unknown(self, corpus_fans):
        a = corpus_fans["flop3_a"]
        verdict = compare(ell_shadow(a), ell_shadow(a), fans=(a, a))
        assert verdict.outcome == UNKNOWN
        # without surface data the necessary conditions alone never conclude
        assert compare(ell_shadow(a), ell_shadow(a)).outcome == UNKNOWN

    def test_rank_mismatch_is_not_isomorphic(self, corpus_fans):
        verdict = compare(ell_shadow(corpus_fans["p2"]),
                          ell_shadow(corpus_fans["p1xp1"]))
        assert verdict.outcome == NOT_ISOMORPHIC
        assert verdict.witness.kind == "rank-mismatch"

    def test_ambient_rank_mismatch_raises(self, corpus_fans, p1):
        with pytest.raises(RankMismatch):
            compare(ell_shadow(p1), ell_shadow(corpus_fans["p2"]))

    def test_fans_that_do_not_match_the_shadows_raise(self, corpus_fans, p2):
        with pytest.raises(FansMismatch) as raised:
            compare(ell_shadow(p2), ell_shadow(p2), fans=(corpus_fans["p1xp1"], p2))
        assert isinstance(raised.value, TorellError)
        with pytest.raises(FansMismatch):
            compare(ell_shadow(p2), ell_shadow(p2), fans=(p2, corpus_fans["hirzebruch1"]))

    def test_symmetric_outcomes(self, corpus_fans):
        fans = list(corpus_fans.values())
        for a in fans:
            for b in fans:
                if a.ambient_rank != b.ambient_rank:
                    continue
                va = compare(ell_shadow(a), ell_shadow(b), fans=(a, b))
                vb = compare(ell_shadow(b), ell_shadow(a), fans=(b, a))
                assert va.outcome == vb.outcome


def cycle_rays(fan, shared):
    """The rays in the order of a cycle of top cones: ray j is the one the
    top cones shared[j - 1] and shared[j] have in common."""
    tops = fan.top_cones()
    return [fan.rays[(set(tops[shared[j - 1]]) & set(tops[shared[j]])).pop()]
            for j in range(len(shared))]


class TestIncidence:
    def test_projective_plane(self, p2):
        shared = _cycle(p2, 0)
        assert sorted(shared) == [0, 1, 2]
        assert cycle_rays(p2, shared)[0] == p2.rays[0] == (1, 0)

    def test_product_surface(self, corpus_fans):
        fan = corpus_fans["p1xp1"]
        for start in range(4):
            shared = _cycle(fan, start)
            assert sorted(shared) == [0, 1, 2, 3]
            assert cycle_rays(fan, shared)[0] == fan.rays[start]

    def test_column_property_random(self):
        # Every top cone is met once, and consecutive top cones share one ray.
        rng = random.Random(303)
        for fan, _, _ in single_reversal_pairs(rng, 5):
            shared = _cycle(fan, 0)
            assert sorted(shared) == list(range(len(fan.top_cones())))
            assert len(set(cycle_rays(fan, shared))) == len(fan.rays)

    def test_ray_order_is_clockwise(self, corpus_fans):
        # consecutive rays of a complete smooth surface satisfy
        # det(r_k, r_{k+1}) = -1 when listed clockwise
        for name in ("p2", "p1xp1", "hirzebruch1", "ray_reversal_a"):
            fan = corpus_fans[name]
            order = cycle_rays(fan, _cycle(fan, 0))
            for u, v in zip(order, order[1:] + order[:1]):
                assert u[0] * v[1] - u[1] * v[0] == -1

    def test_rejects_non_surfaces(self, corpus_fans, p1):
        for fan in (corpus_fans["affine3"], p1):
            with pytest.raises(NotSurface):
                flip_certificate(fan, fan)
        with pytest.raises(NotProper):
            flip_certificate(corpus_fans["affine2"], corpus_fans["affine2"])
        lone_ray = Fan.from_cones(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (2,)])
        with pytest.raises(NotGood):
            flip_certificate(lone_ray, lone_ray)


class TestFlipCertificate:
    def test_identity_for_equal_fans(self, p2):
        # Equal cycles make every arc one step long, so the general
        # construction gives the identity.
        assert flip_certificate(p2, p2) == IntMatrix.identity(3)
        for fan in blowup_surfaces():
            assert flip_certificate(fan, fan) == IntMatrix.identity(len(fan.rays))

    def test_reversal_pair(self, corpus_fans):
        a, b = corpus_fans["ray_reversal_a"], corpus_fans["ray_reversal_b"]
        cert = flip_certificate(a, b)
        assert abs(determinant(cert)) == 1
        a_inc = oracles.clockwise_incidence(a, a.rays.index((-1, 0)))
        b_inc = oracles.clockwise_incidence(b, b.rays.index((1, 0)))
        assert b_inc @ cert == a_inc

    def test_round_trip_composes(self, corpus_fans):
        # A_a = A_b . there and A_b = A_a . back, so back . there fixes A_a.
        a, b = corpus_fans["ray_reversal_a"], corpus_fans["ray_reversal_b"]
        there = flip_certificate(a, b)
        back = flip_certificate(b, a)
        a_inc = oracles.clockwise_incidence(a, a.rays.index((-1, 0)))
        assert a_inc @ (back @ there) == a_inc
        assert abs(determinant(back @ there)) == 1

    def test_rejects_unrelated_fans(self, corpus_fans):
        with pytest.raises(NotSingleFlip):
            flip_certificate(corpus_fans["p2"], corpus_fans["p1xp1"])

    def test_relabelled_partners_against_the_oracles(self, corpus_fans):
        # Relabelling reorders the top cones, the rows, so arcs of every
        # length and kernel corrections other than zero occur.
        rng = random.Random(909)
        branches = Counter()
        pairs = [(f, g) for f, g, _ in single_reversal_pairs(rng, 12)]
        pairs.append((corpus_fans["ray_reversal_a"], corpus_fans["ray_reversal_b"]))
        for f, g in pairs:
            for _ in range(3):
                assert_certificate(f, shuffled_fan(g, rng), branches)
                assert_certificate(shuffled_fan(f, rng), g, branches)
                assert_certificate(f, shuffled_fan(f, rng), branches)
        assert branches["counter-clockwise arc"] > 0
        assert branches["corrected first column"] > 0

    def test_surfaces_of_a_hundred_rays(self):
        f, g, _ = grown_reversal_pair(random.Random(100), 100)
        assert len(f.rays) == len(g.rays) == 100
        assert_certificate(f, g, Counter())

    def test_random_pairs(self):
        rng = random.Random(808)
        pairs = single_reversal_pairs(rng, 6)
        assert len(pairs) == 6
        for f, g, ray in pairs:
            cert = flip_certificate(f, g)
            assert abs(determinant(cert)) == 1
            neg = (-ray[0], -ray[1])
            a_inc = oracles.clockwise_incidence(f, f.rays.index(ray))
            b_inc = oracles.clockwise_incidence(g, g.rays.index(neg))
            assert b_inc @ cert == a_inc
