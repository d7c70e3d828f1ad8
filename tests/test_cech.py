"""Covers, the graded intersection poset, witnesses."""

import random
import re
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from torell import cech
from torell.cech import cech_poset, cohomology_witness, cover
from torell.errors import DisconnectedStar, NotGood, TooLarge
from torell.fan import Fan
from torell.fan_io import cech_json, complete_surface_fan

from conftest import (
    blowup_surfaces,
    projective_line_power,
    random_blowup_rays,
    random_fans,
    three_delta_cone_fans,
)


def affine_space(n):
    """The affine n-chart fan: one top cone on the standard basis."""
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return Fan.from_cones(n, rays, [range(n)])


@st.composite
def orthant_fans(draw):
    """Unions of coordinate orthants in rank 1 to 3: good fans, some with a
    star that is not wall-connected."""
    full = projective_line_power(draw(st.integers(1, 3)))
    tops = draw(st.lists(st.sampled_from(full.top_cones()), min_size=1, unique=True))
    used = sorted({i for cone in tops for i in cone})
    new_index = {old: new for new, old in enumerate(used)}
    return Fan.from_cones(full.ambient_rank, [full.rays[i] for i in used],
                          [[new_index[i] for i in cone] for cone in tops])


class TestCubePoset:
    """The Čech poset of the affine n-chart fan is the cube poset: one
    element per word of n letters, graded by its c's."""

    def test_single_coordinate(self):
        poset = cech_poset(affine_space(1))
        word = {e.words[0]: e for e in poset.elements}
        assert set(word) == {"a", "b", "c"}
        assert poset.leq(word["c"], word["a"]) and poset.leq(word["c"], word["b"])
        assert not poset.leq(word["a"], word["b"]) and not poset.leq(word["a"], word["c"])
        assert poset.meet(word["a"], word["b"]) == word["c"]

    def test_counts_up_to_six(self):
        for n in range(1, 7):
            poset = cech_poset(affine_space(n))
            assert len(poset.elements) == 3 ** n
            grading = poset.grading()
            for k in range(n + 1):
                assert len(grading[k]) == comb(n, k) * 2 ** (n - k)

    def test_order_matches_containment_semantics(self):
        # c-letters denote smaller opens, so meets decrease in the order.
        poset = cech_poset(affine_space(2))
        for e1 in poset.elements:
            for e2 in poset.elements:
                m = poset.meet(e1, e2)
                assert poset.leq(m, e1) and poset.leq(m, e2)


class TestCover:
    def test_projective_line(self, p1):
        elements = cover(p1)
        assert len(elements) == 3
        by_support = sorted((e.support, e.words) for e in elements)
        assert by_support == [
            ((0,), ("b",)),
            ((0, 1), ("a", "a")),
            ((1,), ("b",)),
        ]

    def test_projective_plane_profile(self, p2):
        elements = cover(p2)
        assert len(elements) == 7
        sizes = sorted((len(e.support) for e in elements), reverse=True)
        assert sizes == [3, 2, 2, 2, 1, 1, 1]

    def test_affine_space_is_product_cover(self, corpus_fans):
        for name, n in (("affine1", 1), ("affine2", 2), ("affine3", 3)):
            elements = cover(corpus_fans[name])
            assert len(elements) == 2 ** n
            assert all(len(e.support) == 1 for e in elements)

    def test_trace_words_use_two_letters(self, corpus_fans):
        for fan in corpus_fans.values():
            for e in cover(fan):
                assert all(set(w) <= {"a", "b"} for w in e.words)

    def test_trace_on_each_chart_is_the_product_cover(self, corpus_fans):
        # The defining property of the cover: restricting to any chart
        # yields every a/b word exactly once.
        for name, fan in corpus_fans.items():
            n = fan.ambient_rank
            expected = sorted("".join(w) for w in product("ab", repeat=n))
            for cid in range(len(fan.top_cones())):
                words = sorted(e.words[e.support.index(cid)] for e in cover(fan)
                               if cid in e.support)
                assert words == expected, name

    def test_grade_chart_independent(self, corpus_fans):
        for fan in corpus_fans.values():
            for e in cech_poset(fan).elements:
                assert {w.count("c") for w in e.words} == {e.grade}

    def test_not_good_rejected(self):
        f = Fan.from_cones(2, [(1, 0), (1, 2)], [(0, 1)])
        with pytest.raises(NotGood):
            cover(f)

    def test_disconnected_star_detected(self):
        # Two opposite quadrants only touch at the origin: good, but the
        # star of the zero cone is not wall-connected.
        f = Fan.from_cones(2, [(1, 0), (0, 1), (-1, 0), (0, -1)],
                           [(0, 1), (2, 3)])
        assert f.is_good()
        with pytest.raises(DisconnectedStar):
            cover(f)

    @settings(max_examples=150, deadline=None)
    @given(orthant_fans())
    def test_star_walk_matches_pairwise_check(self, fan):
        # The walk across walls refuses exactly the stars that the pairwise
        # check finds disconnected, on every cone of the fan.
        tops = fan.top_cones()
        neighbours = cech._neighbours(fan)
        for rho in fan.cones:
            star = [i for i, top in enumerate(tops) if set(rho) <= set(top)]
            if not star:
                continue
            if oracles.star_connected_pairwise(tops, star):
                cech._check_star_connected(neighbours, star, rho)
            else:
                with pytest.raises(DisconnectedStar):
                    cech._check_star_connected(neighbours, star, rho)


def brute_force_poset(fan):
    """Independent chart-by-chart enumeration of the index poset.

    A candidate assigns a letter word to every chart of a support set; it
    is an element exactly when letters agree on shared rays and, in every
    chart, the support equals the set of top cones containing the face
    spanned by the non-a rays.
    """
    tops = fan.top_cones()
    n = fan.ambient_rank
    words = ["".join(w) for w in product("abc", repeat=n)]
    found = set()
    for size in range(1, len(tops) + 1):
        for support in combinations(range(len(tops)), size):
            for assignment in product(words, repeat=size):
                letters = {}
                ok = True
                for cid, word in zip(support, assignment):
                    for ray, letter in zip(tops[cid], word):
                        if letters.setdefault(ray, letter) != letter:
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    continue
                for cid, word in zip(support, assignment):
                    rho = {r for r, l in zip(tops[cid], word) if l != "a"}
                    star = tuple(i for i, c in enumerate(tops) if rho <= set(c))
                    if star != support:
                        ok = False
                        break
                if ok:
                    found.add((support, assignment))
    return found


class TestCechPoset:
    def test_projective_line_explicitly(self, p1):
        poset = cech_poset(p1)
        data = sorted((e.support, e.words) for e in poset.elements)
        assert data == [
            ((0,), ("b",)),
            ((0,), ("c",)),
            ((0, 1), ("a", "a")),
            ((1,), ("b",)),
            ((1,), ("c",)),
        ]

    def test_single_chart_matches_cube_poset(self, corpus_fans):
        for name, n in (("affine1", 1), ("affine2", 2), ("affine3", 3)):
            poset = cech_poset(corpus_fans[name])
            assert sorted(e.words[0] for e in poset.elements) == oracles.cube_words(n)
            for e1 in poset.elements:
                for e2 in poset.elements:
                    assert poset.leq(e1, e2) == oracles.cube_leq(e1.words[0], e2.words[0])

    def test_trace_on_each_chart_is_the_full_letter_poset(self, corpus_fans):
        # The defining property of the index poset: its trace on any chart
        # is the whole three-letter poset, each word exactly once.
        for name, fan in corpus_fans.items():
            n = fan.ambient_rank
            expected = oracles.cube_words(n)
            poset = cech_poset(fan)
            for cid in range(len(fan.top_cones())):
                words = sorted(e.words[e.support.index(cid)] for e in poset.elements
                               if cid in e.support)
                assert words == expected, name

    def test_projective_plane_against_brute_force(self, p2):
        poset = cech_poset(p2)
        ours = {(e.support, e.words) for e in poset.elements}
        assert ours == brute_force_poset(p2)
        grading = {k: len(v) for k, v in poset.grading().items()}
        assert grading == {0: 7, 1: 9, 2: 3}

    def test_flop_fan_against_brute_force(self, corpus_fans):
        fan = corpus_fans["flop3_b"]
        poset = cech_poset(fan)
        assert {(e.support, e.words) for e in poset.elements} == brute_force_poset(fan)

    def test_top_grade_elements_smooth_singletons(self, corpus_fans):
        for name, fan in corpus_fans.items():
            poset = cech_poset(fan)
            for e in poset.grading().get(fan.ambient_rank, ()):
                assert len(e.support) == 1, name

    def test_meet_closed_and_antisymmetric(self, p2, corpus_fans):
        for fan in (p2, corpus_fans["p1xp1"]):
            poset = cech_poset(fan)
            keys = {e.ray_letters for e in poset.elements}
            for e1 in poset.elements:
                for e2 in poset.elements:
                    met = poset.meet(e1, e2)
                    if met is not None:
                        assert met.ray_letters in keys
                    if poset.leq(e1, e2) and poset.leq(e2, e1):
                        assert e1 == e2


class TestClosedFormAgainstClosure:
    """The listed cover and poset equal the meet-closure fixpoint, in order."""

    def assert_agrees(self, fan):
        assert cover(fan) == oracles.cover(fan)
        poset = cech_poset(fan)
        assert poset.elements == oracles.cech_elements(fan)
        assert len(poset.elements) == sum(2 ** len(c) for c in fan.cones)

    def test_corpus(self, corpus_fans):
        for fan in corpus_fans.values():
            self.assert_agrees(fan)

    def test_blowup_surfaces(self):
        for fan in blowup_surfaces():
            self.assert_agrees(fan)

    def test_projective_line_powers(self):
        for n in (1, 2, 3):
            fan = projective_line_power(n)
            self.assert_agrees(fan)
            assert len(cech_poset(fan).elements) == 5 ** n

    def test_three_delta_cone_fans(self):
        for fan in three_delta_cone_fans():
            self.assert_agrees(fan)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(random_fans(), orthant_fans()))
    def test_random_fans(self, fan):
        try:
            expected = oracles.cech_elements(fan)
        except (NotGood, DisconnectedStar) as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                cech_poset(fan)
            return
        assert cech_poset(fan).elements == expected
        assert cover(fan) == oracles.cover(fan)

    def test_meet_is_the_closure_meet(self, corpus_fans):
        for fan in (corpus_fans["p2"], corpus_fans["flop3_a"]):
            poset = cech_poset(fan)
            for e1 in poset.elements:
                for e2 in poset.elements:
                    assert poset.meet(e1, e2) == oracles.meet(poset.tops, e1, e2)


def cech_report(fan):
    """The poset, its witness and the result of the ``cech`` report, with
    each element's ``smooth`` flag keyed by its support and words."""
    poset = cech_poset(fan)
    result = cech_json(poset, cohomology_witness(fan))
    smooth = {(tuple(c["element"]["support"]), tuple(c["element"]["words"])): c["smooth"]
              for c in result["classification"]}
    return poset, result, smooth


class TestClassify:
    def test_spread_element_is_singular(self, p1):
        (spread,) = [e for e in cover(p1) if len(e.support) == 2]
        _, result, smooth = cech_report(p1)
        assert smooth[spread.support, spread.words] is False
        (entry,) = result["witness"]["entries"]
        assert entry["singular"]["words"] == list(spread.words)
        assert len(entry["components"]) == 2

    def test_two_letter_words_smooth(self, p1):
        poset, _, smooth = cech_report(p1)
        assert len(smooth) == len(poset.elements)
        for e in poset.elements:
            if len(e.support) == 1:
                assert smooth[e.support, e.words] is True

    def test_grade_one_two_support_on_surface(self, p2):
        poset, result, smooth = cech_report(p2)
        singular = {}
        for e in poset.grading()[1]:
            assert smooth[e.support, e.words] == (len(e.support) == 1)
            if len(e.support) > 1:
                # Each word holds one "a"; its places are the divisor positions.
                singular[e.support, e.words] = [w.index("a") for w in e.words]
        entries = {(tuple(w["singular"]["support"]), tuple(w["singular"]["words"])):
                   w["divisor_positions"] for w in result["witness"]["entries"]}
        assert singular and entries == singular


class TestWitness:
    def test_projective_line_constant_extension_pattern(self, p1):
        report = cohomology_witness(p1)
        assert report.singular_count == 1
        (entry,) = report.entries
        assert entry.singular.words == ("a", "a")
        assert [c.words for c in entry.components] == [("c",), ("c",)]
        # The smooth covers are the two all-but-origin charts; extending a
        # section constantly over the second one matches the first.
        assert [c.words for c in entry.smooth_covers] == [("b",), ("b",)]
        assert entry.divisor_positions == (0, 0)

    def test_projective_plane_all_matched(self, p2):
        report = cohomology_witness(p2)
        assert report.singular_count == 3
        assert len(report.entries) == 3
        for entry in report.entries:
            for c, cov in zip(entry.components, entry.smooth_covers):
                assert len(cov.support) == 1 and cov.grade == 1
                assert cov.words[0].count("b") == 1

    def test_affine_vacuous(self, corpus_fans):
        for name in ("affine1", "affine2", "affine3"):
            report = cohomology_witness(corpus_fans[name])
            assert report.singular_count == 0 and report.entries == ()

    def test_whole_corpus_succeeds(self, corpus_fans):
        for name, fan in corpus_fans.items():
            report = cohomology_witness(fan)
            interior = sum(1 for e in cech_poset(fan).elements
                           if e.grade == fan.ambient_rank - 1 and len(e.support) == 2)
            assert report.singular_count == interior, name

    def test_one_poset_gives_cover_and_witness(self, corpus_fans):
        # The poset's grade-0 elements are the cover, and a search of the
        # poset finds the witness that the walls give.
        rng = random.Random(3)
        surfaces = [complete_surface_fan(random_blowup_rays(rng, k)) for k in (2, 5, 9)]
        for fan in list(corpus_fans.values()) + surfaces:
            poset = cech_poset(fan)
            assert poset.grading()[0] == cover(fan)
            assert oracles.poset_witness(poset) == cohomology_witness(fan)


class TestClosedFormWitness:
    """The witness written from interior walls is the one a search of the
    built poset finds, and it needs no poset."""

    def test_equals_the_poset_search(self, corpus_fans):
        fans = (list(corpus_fans.values()) + blowup_surfaces()
                + [projective_line_power(n) for n in (2, 3, 4)] + three_delta_cone_fans())
        for fan in fans:
            assert cohomology_witness(fan) == oracles.poset_witness(cech_poset(fan))

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(random_fans(), orthant_fans()))
    def test_equals_the_poset_search_on_random_fans(self, fan):
        if not fan.is_good():
            with pytest.raises(NotGood):
                cohomology_witness(fan)
            return
        try:
            poset = cech_poset(fan)
        except DisconnectedStar:
            return
        assert cohomology_witness(fan) == oracles.poset_witness(poset)

    def test_no_poset_is_built(self, monkeypatch, p2):
        def listed(*args):
            raise AssertionError("poset elements were listed")

        monkeypatch.setattr(cech, "_elements", listed)
        report = cohomology_witness(p2)
        assert report.singular_count == 3 and len(report.entries) == 3

    def test_a_fan_whose_poset_is_over_the_limit(self):
        # (P^1)^7: 7 * 2^6 interior walls, and 5^7 poset elements.
        fan = projective_line_power(7)
        report = cohomology_witness(fan)
        assert report.singular_count == len(report.entries) == 448
        with pytest.raises(TooLarge):
            cech_poset(fan)

    def test_a_star_that_is_not_wall_connected(self):
        # Opposite quadrants share only the zero cone: no interior wall.
        fan = Fan.from_cones(2, [(1, 0), (0, 1), (-1, 0), (0, -1)], [(0, 1), (2, 3)])
        assert fan.is_good()
        assert cohomology_witness(fan).singular_count == 0
        with pytest.raises(DisconnectedStar):
            cech_poset(fan)


class TestWorkLimit:
    def test_poset_over_the_limit_is_refused_before_listing(self, monkeypatch):
        # (P^1)^7 has 3^7 cones and 5^7 = 78,125 poset elements, more than
        # WORK_LIMIT; its cover has one element per cone and stays listed.
        fan = projective_line_power(7)
        assert len(cover(fan)) == 3 ** 7

        def listed(*args):
            raise AssertionError("a star was listed before the refusal")

        monkeypatch.setattr(cech, "_check_star_connected", listed)
        with pytest.raises(TooLarge, match="78125 elements"):
            cech_poset(fan)

    def test_a_poset_of_exactly_the_limit_is_listed(self, monkeypatch, p1):
        # p1's poset has 5 elements, which write 6 chart words: each of its
        # 2 top cones carries the zero cone's word and its ray's 2 words.
        monkeypatch.setattr(cech, "WORK_LIMIT", 6)
        poset = cech_poset(p1)
        assert len(poset.elements) == 5
        assert sum(len(e.words) for e in poset.elements) == 6
        monkeypatch.setattr(cech, "WORK_LIMIT", 5)
        with pytest.raises(TooLarge, match="6 chart words"):
            cech_poset(p1)
        assert len(cover(p1)) == 3

    def test_a_cover_of_too_many_chart_words_is_refused_before_listing(self, monkeypatch):
        # (P^1)^10 has 3^10 = 59,049 cones, within WORK_LIMIT, but its cover
        # writes 2^10 words on each of its 2^10 top cones.
        fan = projective_line_power(10)

        def listed(*args):
            raise AssertionError("a star was listed before the refusal")

        monkeypatch.setattr(cech, "_check_star_connected", listed)
        with pytest.raises(TooLarge, match="1048576 chart words"):
            cover(fan)

    def test_chart_words_number_top_cones_times_a_power_of_the_rank(self, corpus_fans):
        fans = list(corpus_fans.values()) + [projective_line_power(3)]
        for fan in fans:
            m, n = len(fan.top_cones()), fan.ambient_rank
            assert sum(len(e.words) for e in cover(fan)) == m * 2 ** n
            assert sum(len(e.words) for e in cech_poset(fan).elements) == m * 3 ** n
