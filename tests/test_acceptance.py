"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Criterion 7, the reduction of exact-rational complexes, was
retired with that code; the other criteria keep their numbers.  Every expected value here is exact; the only tolerances are
the stated wall-clock budgets.
"""

import random
import time
from collections import Counter
from contextlib import contextmanager
from math import comb

import oracles
from torell.cech import cech_poset, cohomology_witness, cover
from torell.ellinv import (
    ISOMORPHIC,
    NOT_ISOMORPHIC,
    compare,
    ell_shadow,
    flip_certificate,
)
from torell.fan import fan_isomorphic, validate, walls
from torell.lattice import determinant, saturate
from torell.triang import (
    apply_flip,
    cone_fan,
    flip_aliases,
    mu2_kernel_triangulations,
)

from conftest import CORPUS, shuffled_fan, single_reversal_pairs
from test_cech import affine_space

EXPECTED_RANKS = {
    "affine1": 1, "affine2": 1, "affine3": 1,
    "p1": 2, "p2": 3, "p1xp1": 4, "hirzebruch1": 4,
    "ray_reversal_a": 6, "ray_reversal_b": 6,
    "flop3_a": 4, "flop3_b": 4,
}


@contextmanager
def criterion(num, text):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {text}")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {num}: PASS - {text} ({elapsed:.3f}s)")


def test_criterion_1_rank_law(corpus_fans):
    with criterion(1, "invariant rank equals the number of top cones on the corpus"):
        started = time.perf_counter()
        for name, fan in corpus_fans.items():
            shadow = ell_shadow(fan)
            assert shadow.rank == len(fan.top_cones()) == EXPECTED_RANKS[name]
        assert time.perf_counter() - started < 1.0


def test_criterion_2_reversal_surfaces(corpus_fans):
    with criterion(2, "reversal surface pair: invariants isomorphic, fans not"):
        started = time.perf_counter()
        a, b = corpus_fans["ray_reversal_a"], corpus_fans["ray_reversal_b"]
        verdict = compare(ell_shadow(a), ell_shadow(b), fans=(a, b))
        assert verdict.outcome == ISOMORPHIC
        assert verdict.witness.kind == "surface-ray-line-bijection"
        assert fan_isomorphic(a, b) is None
        assert time.perf_counter() - started < 1.0


def test_criterion_3_flop_witness():
    with criterion(3, "flop pair: crepant, one-flip certificate, invariants differ"):
        started = time.perf_counter()
        t, tp = mu2_kernel_triangulations()
        fa, fb = cone_fan(t), cone_fan(tp)
        for fan, tri in ((fa, t), (fb, tp)):
            report = validate(fan)
            assert report.smooth and report.good
            assert all(ray[-1] == 1 for ray in fan.rays)          # crepant
            assert len(fan.rays) == len(tri.simplex.points)        # all points used
        flipped, certificate = apply_flip(t, flip_aliases(t)["green"])
        assert flipped == tp and len(certificate.moves) == 1
        verdict = compare(ell_shadow(fa), ell_shadow(fb), fans=(fa, fb))
        assert verdict.outcome == NOT_ISOMORPHIC
        only_a, only_b = verdict.witness.detail
        pts = t.simplex.points
        removed = saturate([pts[i] + (1,) for i in certificate.moves[0].removed_edge])
        added = saturate([pts[i] + (1,) for i in certificate.moves[0].added_edge])
        assert only_a == (removed,) and only_b == (added,)
        assert time.perf_counter() - started < 1.0


def test_criterion_4_cover_counts(p1, p2):
    with criterion(4, "distinguished cover sizes 3 and 7 with the exact profile"):
        assert len(cover(p1)) == 3
        elements = cover(p2)
        assert len(elements) == 7
        profile = Counter(len(e.support) for e in elements)
        assert profile == Counter({3: 1, 2: 3, 1: 3})


def test_criterion_5_cube_poset_counts():
    with criterion(5, "affine n-chart poset sizes 3^n with binomial grading up to n=6"):
        for n in range(1, 7):
            poset = cech_poset(affine_space(n))
            assert len(poset.elements) == 3 ** n
            grading = poset.grading()
            for k in range(n + 1):
                assert len(grading[k]) == comb(n, k) * 2 ** (n - k)


def test_criterion_6_cohomology_witness(corpus_fans):
    with criterion(6, "smooth-cover witnesses exist on the whole corpus"):
        for name, fan in corpus_fans.items():
            report = cohomology_witness(fan)
            singulars = [e for e in cech_poset(fan).elements
                         if e.grade == fan.ambient_rank - 1 and len(e.support) == 2]
            assert report.singular_count == len(singulars), name
        (entry,) = cohomology_witness(corpus_fans["p1"]).entries
        assert entry.singular.words == ("a", "a")
        assert [c.words for c in entry.components] == [("c",), ("c",)]
        assert [c.words for c in entry.smooth_covers] == [("b",), ("b",)]


def test_criterion_8_certificate_algebra():
    with criterion(8, "unimodular certificates for 10 random reversal pairs"):
        rng = random.Random(271828)
        pairs = single_reversal_pairs(rng, 10)
        assert len(pairs) == 10
        for f, g, ray in pairs:
            cert = flip_certificate(f, g)
            assert abs(determinant(cert)) == 1
            neg = (-ray[0], -ray[1])
            a_inc = oracles.clockwise_incidence(f, f.rays.index(ray))
            b_inc = oracles.clockwise_incidence(g, g.rays.index(neg))
            assert b_inc @ cert == a_inc


def test_criterion_9_determinant_degree(corpus_fans):
    with criterion(9, "determinant divisor degree is minus the interior wall count"):
        for name, fan in corpus_fans.items():
            shadow = ell_shadow(fan)
            interior = sum(1 for w in walls(fan) if w.interior)
            assert shadow.det_divisor_degree() == -interior, name


def test_criterion_10_soundness_suite(corpus_fans):
    with criterion(10, "isomorphic fans never compare NOT_ISOMORPHIC; "
                       "verdicts survive 500 relabelings"):
        names = list(CORPUS)
        shadows = {name: ell_shadow(corpus_fans[name]) for name in names}
        baseline = {}
        for na in names:
            for nb in names:
                fa, fb = corpus_fans[na], corpus_fans[nb]
                if fa.ambient_rank != fb.ambient_rank:
                    assert fan_isomorphic(fa, fb) is None
                    continue
                verdict = compare(shadows[na], shadows[nb], fans=(fa, fb))
                baseline[na, nb] = verdict.outcome
                if fan_isomorphic(fa, fb) is not None:
                    assert shadows[na] == shadows[nb], (na, nb)
                    assert verdict.outcome != NOT_ISOMORPHIC, (na, nb)
        rng = random.Random(31337)
        same_rank_pairs = list(baseline)
        for _ in range(500):
            na, nb = rng.choice(same_rank_pairs)
            fa = shuffled_fan(corpus_fans[na], rng)
            fb = shuffled_fan(corpus_fans[nb], rng)
            verdict = compare(ell_shadow(fa), ell_shadow(fb), fans=(fa, fb))
            assert verdict.outcome == baseline[na, nb], (na, nb)
