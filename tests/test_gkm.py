"""Moment graphs and the partial skeleton of the `gkm` report."""

import random

from torell.fan import Fan, fan_isomorphic
from torell.fan_io import skeleton_json
from torell.gkm import moment_graph, to_dot
from torell.lattice import IntMatrix, SublatticeClass, kernel_basis, saturate

from conftest import blowup_surfaces, shuffled_fan, three_delta_cone_fans


class TestMomentGraph:
    def test_projective_line(self, p1):
        g = moment_graph(p1)
        assert len(g.vertices) == 2
        assert len(g.edges) == 1
        (e,) = g.edges
        assert e.compact and len(e.endpoints) == 2
        assert e.isotropy.rank == 0 and e.label == (1,)

    def test_projective_plane(self, p2):
        g = moment_graph(p2)
        assert len(g.vertices) == 3
        assert sorted(e.label for e in g.edges) == [(0, 1), (1, -1), (1, 0)]
        assert all(e.compact for e in g.edges)

    def test_affine_plane(self, corpus_fans):
        g = moment_graph(corpus_fans["affine2"])
        assert len(g.vertices) == 1
        assert len(g.edges) == 2
        assert all(not e.compact and len(e.endpoints) == 1 for e in g.edges)

    def test_edges_join_the_top_cones_on_their_wall(self, corpus_fans):
        # Against a scan: an edge's endpoints are the ids, ascending, of
        # the top cones holding its wall.
        rng = random.Random(41)
        fans = list(corpus_fans.values()) + blowup_surfaces() + three_delta_cone_fans()[::8]
        for fan in fans + [shuffled_fan(f, rng) for f in fans]:
            g = moment_graph(fan)
            walls = sorted(c for c in fan.cones if len(c) == fan.ambient_rank - 1)
            for wall, e in zip(walls, g.edges):
                assert e.endpoints == tuple(i for i, top in enumerate(g.vertices)
                                            if set(wall) <= set(top))

    def test_edge_count_on_proper_fans(self, corpus_fans):
        for name, fan in corpus_fans.items():
            g = moment_graph(fan)
            assert len(g.edges) == sum(len(c) == fan.ambient_rank - 1 for c in fan.cones), name
            if fan.is_proper():
                assert all(e.compact for e in g.edges), name

    def test_isotropy_label_round_trip(self, corpus_fans):
        for fan in corpus_fans.values():
            for e in moment_graph(fan).edges:
                kernel = saturate(kernel_basis([e.label], fan.ambient_rank),
                                  fan.ambient_rank)
                assert kernel == e.isotropy


def partial_skeleton(fan):
    """The vertex count and the edge labels of the report's skeleton."""
    sk = skeleton_json(moment_graph(fan))
    labels = tuple(SublatticeClass(c["ambient_rank"], tuple(map(tuple, c["basis"])))
                   for c in sk["edge_labels"])
    return sk["vertex_count"], labels


class TestPartialSkeleton:
    def test_projective_plane(self, p2):
        count, labels = partial_skeleton(p2)
        assert count == 3
        assert sorted(c.basis for c in labels) == [((0, 1),), ((1, 0),), ((1, 1),)]

    def test_affine_spaces(self, corpus_fans):
        for name in ("affine1", "affine2", "affine3"):
            assert partial_skeleton(corpus_fans[name]) == (1, ())

    def test_reversal_surface_six_lines(self, corpus_fans):
        fan = corpus_fans["ray_reversal_a"]
        count, labels = partial_skeleton(fan)
        assert count == 6
        lines = sorted(saturate([r], 2) for r in fan.rays)
        # The report lists the labels sorted.
        assert list(labels) == lines

    def test_invariant_under_lattice_twist(self, corpus_fans):
        twist = IntMatrix.from_rows([[1, 2], [1, 1]])
        fan = corpus_fans["p1xp1"]
        image = Fan.from_cones(2, [twist.apply(r) for r in fan.rays],
                               fan.maximal_cones())
        g = fan_isomorphic(fan, image)
        assert g is not None
        transported = sorted(
            saturate([g.apply(v) for v in cls.basis] or [], 2) if cls.basis else cls
            for cls in partial_skeleton(fan)[1])
        target = sorted(partial_skeleton(image)[1])
        assert transported == target


def test_dot_output(p2):
    dot = to_dot(moment_graph(p2))
    assert dot.startswith("graph moment_graph {")
    assert dot.count(" -- ") == 3


def test_dot_noncompact_edges(corpus_fans):
    dot = to_dot(moment_graph(corpus_fans["affine2"]))
    assert "style=dashed" in dot and "shape=point" in dot
