"""Fast tests of the benchmark's own checkers: each accepts torell's result
on a small input and rejects a corrupted copy of it.

Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import dataclasses
import json
import sys
import unittest
from pathlib import Path
from random import Random
from types import SimpleNamespace as NS

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from torell import cech, ellinv, fan as fan_mod, gkm, triang  # noqa: E402
from torell.lattice import IntMatrix, saturate  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402


def torell_fan(f: inputs.Fan):
    return fan_mod.Fan.from_cones(f.rank, f.rays, f.cones)


class CheckerTest(unittest.TestCase):
    def rejects(self, check, *args):
        with self.assertRaises(CheckFailed):
            check(*args)


class SurfaceChecks(CheckerTest):
    @classmethod
    def setUpClass(cls):
        rng = Random(7)
        cycle, (cls.ray, partner) = inputs.reversal_surface(rng, 9)
        cls.a = inputs.surface(cycle, "a")
        cls.copy = inputs.relabelled_surface(cls.a, rng, "copy")
        cls.rev = inputs.surface(partner, "rev")
        cls.other = inputs.surface(inputs.blowup_cycle(rng, 9), "other")
        cls.fa, cls.fcopy, cls.frev, cls.fother = (
            torell_fan(f) for f in (cls.a, cls.copy, cls.rev, cls.other))
        cls.sa = ellinv.ell_shadow(cls.fa)

    def test_report(self):
        report = fan_mod.validate(self.fa)
        checks.check_report(report)
        self.rejects(checks.check_report, dataclasses.replace(report, proper=False))

    def test_shadow(self):
        checks.check_surface_shadow(self.sa, self.a)
        self.rejects(checks.check_surface_shadow, dataclasses.replace(self.sa, rank=8), self.a)
        spans = list(self.sa.wall_spans)
        spans[0] = saturate([(1, 5)])
        self.rejects(checks.check_surface_shadow,
                     dataclasses.replace(self.sa, wall_spans=tuple(spans)), self.a)
        coeff, cls = self.sa.det_divisor[0]
        divisor = ((coeff - 1, cls),) + self.sa.det_divisor[1:]
        self.rejects(checks.check_surface_shadow,
                     dataclasses.replace(self.sa, det_divisor=divisor), self.a)

    def test_moment_graph(self):
        graph = gkm.moment_graph(self.fa)
        checks.check_moment_graph(graph, self.a)
        edges = list(graph.edges)
        edges[0] = dataclasses.replace(edges[0], label=(2, 0))
        self.rejects(checks.check_moment_graph,
                     dataclasses.replace(graph, edges=tuple(edges)), self.a)
        a, b = edges[0].endpoints
        (ray,) = set(graph.vertices[a]) & set(graph.vertices[b])
        wrong = checks.primitive_line(self.a.rays[ray])      # parallel to the wall, not normal
        edges[0] = dataclasses.replace(graph.edges[0], label=wrong)
        self.rejects(checks.check_moment_graph,
                     dataclasses.replace(graph, edges=tuple(edges)), self.a)

    def test_isomorphism_matrix(self):
        m = fan_mod.fan_isomorphic(self.fa, self.fcopy)
        checks.check_isomorphism_matrix(m, self.a, self.copy)
        self.rejects(checks.check_isomorphism_matrix, IntMatrix(((1, 1), (0, 1))) @ m,
                     self.a, self.copy)
        self.rejects(checks.check_isomorphism_matrix, IntMatrix(((2, 0), (0, 1))), self.a, self.copy)

    def test_verdicts(self):
        iso = ellinv.compare(self.sa, self.sa, fans=(self.fa, self.fcopy))
        checks.check_ray_bijection(iso, self.a, self.copy)
        pairs = list(iso.witness.detail)
        j = next(j for j, (_, b) in enumerate(pairs)
                 if checks.primitive_line(b) != checks.primitive_line(pairs[0][1]))
        pairs[0], pairs[j] = (pairs[0][0], pairs[j][1]), (pairs[j][0], pairs[0][1])
        bad = dataclasses.replace(iso, witness=dataclasses.replace(iso.witness, detail=tuple(pairs)))
        self.rejects(checks.check_ray_bijection, bad, self.a, self.copy)
        other = ellinv.compare(self.sa, ellinv.ell_shadow(self.fother), fans=(self.fa, self.fother))
        checks.check_surface_verdict(other, self.a, self.other)
        self.rejects(checks.check_surface_verdict,
                     dataclasses.replace(other, outcome=ellinv.UNKNOWN), self.a, self.other)
        flipped = dataclasses.replace(other, witness=dataclasses.replace(
            other.witness, detail=other.witness.detail[::-1]))
        self.rejects(checks.check_surface_verdict, flipped, self.a, self.other)

    def test_reversal_certificate(self):
        cert = ellinv.flip_certificate(self.fa, self.frev)
        checks.check_reversal_certificate(cert, self.a, self.rev, self.ray)
        rows = [list(r) for r in cert.entries]
        rows[0][0] += 1
        self.rejects(checks.check_reversal_certificate, IntMatrix.from_rows(rows),
                     self.a, self.rev, self.ray)


class CoverChecks(CheckerTest):
    @classmethod
    def setUpClass(cls):
        cls.f = inputs.p1_power(Random(3), 2, "P1^2")
        cls.tf = torell_fan(cls.f)

    def test_cover_and_poset(self):
        elements = cech.cover(self.tf)
        checks.check_cover(elements, self.f)
        self.rejects(checks.check_cover, elements[1:], self.f)
        poset = cech.cech_poset(self.tf)
        checks.check_poset(poset, self.f)
        self.rejects(checks.check_poset,
                     dataclasses.replace(poset, elements=poset.elements[:-1]), self.f)
        moved = [dataclasses.replace(poset.elements[0], grade=poset.elements[0].grade + 1)]
        self.rejects(checks.check_poset, dataclasses.replace(
            poset, elements=tuple(moved) + poset.elements[1:]), self.f)

    def test_witness(self):
        report = cech.cohomology_witness(self.tf)
        checks.check_witness(report, self.f)
        self.rejects(checks.check_witness, dataclasses.replace(
            report, singular_count=report.singular_count + 1), self.f)

    def test_ladder(self):
        ladder = ellinv.mv_ladder(self.tf)
        checks.check_ladder(ladder, self.f)
        terms = list(ladder.terms)
        terms[2] = terms[2][1:]
        self.rejects(checks.check_ladder, dataclasses.replace(ladder, terms=tuple(terms)), self.f)
        terms = list(ladder.terms)
        s = terms[1][0]
        terms[1] = (dataclasses.replace(s, vanishes_in_codim2=not s.vanishes_in_codim2),) + terms[1][1:]
        self.rejects(checks.check_ladder, dataclasses.replace(ladder, terms=tuple(terms)), self.f)


class FlopChecks(CheckerTest):
    @classmethod
    def setUpClass(cls):
        cls.gens = inputs.kernel(2).generators(Random(5))
        cls.simplex = triang.quotient_simplex(cls.gens)
        cls.tris = triang.unimodular_triangulations(cls.simplex)
        cls.points = list(cls.simplex.points)
        cls.t = cls.tris[0]
        cls.move = triang.flips(cls.t)[0]

    def test_simplex_and_triangulations(self):
        checks.check_simplex(self.simplex, 4)
        self.rejects(checks.check_simplex, self.simplex, 8)
        self.rejects(checks.check_simplex, NS(dim=2, vertices=self.simplex.vertices,
                                              points=self.simplex.points[1:]), 4)
        checks.check_triangulations(self.tris, self.simplex.vertices, 4)
        self.rejects(checks.check_triangulations, self.tris[1:], self.simplex.vertices, 4)
        self.rejects(checks.check_triangulations, self.tris + self.tris[:1],
                     self.simplex.vertices, None)
        unit = triang.LatticeSimplex.from_vertices([(0, 0), (1, 0), (0, 1)])
        self.rejects(checks.check_triangulations, triang.unimodular_triangulations(unit),
                     self.simplex.vertices, None)

    def test_flip_closure(self):
        edges = [(t.cells, triang.apply_flip(t, m)[0].cells)
                 for t in self.tris for m in triang.flips(t)]
        checks.check_flip_closure(self.tris, edges)
        start = self.tris[0].cells
        self.rejects(checks.check_flip_closure, self.tris,
                     [(a, b) for a, b in edges if start not in (a, b)])

    def test_apply_flip_and_cone_fans(self):
        rem, add = self.move.removed_edge, self.move.added_edge
        result = triang.apply_flip(self.t, self.move)
        checks.check_apply_flip(result, self.t.cells, rem, add)
        self.rejects(checks.check_apply_flip, (self.t, result[1]), self.t.cells, rem, add)
        fan = triang.cone_fan(self.t)
        checks.check_cone_fan(fan, self.t.cells, self.points)
        self.rejects(checks.check_cone_fan, triang.cone_fan(result[0]), self.t.cells, self.points)

    def test_flop_pair(self):
        t = next(t for t in self.tris if len(triang.flips(t)) >= 2)
        move, other = triang.flips(t)[:2]
        workloads.check_flop_pair(workloads.flop_pair(t, move), t.cells, move, self.points)
        self.rejects(workloads.check_flop_pair, workloads.flop_pair(t, other),
                     t.cells, move, self.points)

    def test_shadow_and_verdict(self):
        flipped, _ = triang.apply_flip(self.t, self.move)
        fa, fb = triang.cone_fan(self.t), triang.cone_fan(flipped)
        sa, sb = ellinv.ell_shadow(fa), ellinv.ell_shadow(fb)
        checks.check_flop_shadow(sa, self.t.cells, self.points)
        self.rejects(checks.check_flop_shadow, sb, self.t.cells, self.points)
        verdict = ellinv.compare(sa, sb, fans=(fa, fb))
        rem, add = self.move.removed_edge, self.move.added_edge
        checks.check_flop_verdict(verdict, self.points, rem, add)
        self.rejects(checks.check_flop_verdict, verdict, self.points, add, rem)
        self.rejects(checks.check_flop_verdict,
                     dataclasses.replace(verdict, outcome=ellinv.UNKNOWN), self.points, rem, add)


def corrupted(res, edit):
    """A CLI result whose JSON report went through ``edit``."""
    doc = json.loads(res[1])
    edit(doc["result"])
    return res[0], json.dumps(doc).encode(), res[2]


class CliChecks(CheckerTest):
    @classmethod
    def setUpClass(cls):
        ctx = workloads.Context(ROOT)
        cls.fans = {name: workloads.corpus_fan(ctx, name)
                    for name in ("p1", "p2", "flop3_a", "flop3_b", "ray_reversal_a", "ray_reversal_b")}

    def check(self, argv, check, edit, *args):
        """``check`` accepts the command's result and rejects it after ``edit``."""
        res = workloads.run_in_process(argv)
        check(res, *args)
        self.rejects(check, corrupted(res, edit), *args)

    def test_failure_rules(self):
        ok = workloads.cli_failure(2)
        self.assertIsNone(ok((2, b"", b"error: bad input\n")))
        self.assertIsNotNone(ok((1, b"", b"Traceback (most recent call last):\n  x\nValueError\n")))
        self.assertIsNotNone(ok((2, b"", b"usage: wrong\n")))
        self.assertIsNotNone(workloads.cli_failure(0)((2, b"", b"error: x\n")))

    def test_validate(self):
        def edit(result):
            result[0]["proper"] = False
        self.check(["validate", "p2"], workloads.check_cli_validate, edit,
                   [("p2", True, True, True)])

    def test_invariant(self):
        def edit(result):
            result["ladder"]["terms"][1].pop()
        self.check(["invariant", "p2", "--ladder"], workloads.check_cli_invariant, edit,
                   self.fans["p2"], True)

    def test_compare(self):
        def swap_witness(result):
            detail = result["verdict"]["witness"]["detail"]
            detail["only_in_a"], detail["only_in_b"] = detail["only_in_b"], detail["only_in_a"]
        self.check(["compare", "flop3_a", "flop3_b"], workloads.check_cli_compare, swap_witness,
                   self.fans["flop3_a"], self.fans["flop3_b"])

        def unknown(result):
            result["verdict"]["outcome"] = "UNKNOWN"
        self.check(["compare", "ray_reversal_a", "ray_reversal_b"], workloads.check_cli_compare,
                   unknown, self.fans["ray_reversal_a"], self.fans["ray_reversal_b"])

    def test_gkm(self):
        def edit(result):
            result["graph"]["edges"][0]["label"] = [2, 0]
        self.check(["gkm", "p2"], workloads.check_cli_gkm, edit, self.fans["p2"])
        res = workloads.run_in_process(["gkm", "p2", "--format", "dot"])
        workloads.check_cli_dot(res, self.fans["p2"])
        self.rejects(workloads.check_cli_dot, (0, res[1].replace(b" -- ", b" - ", 1), b""),
                     self.fans["p2"])

    def test_cech(self):
        def edit(result):
            result["cover_size"] += 1
        self.check(["cech", "p1"], workloads.check_cli_cech, edit, self.fans["p1"])

    def test_flop(self):
        def drop(result):
            result["flips"].pop()
        self.check(["flop", "mu2-kernel", "--list"], workloads.check_cli_flop_list, drop)

        def edit(result):
            result["flipped"]["cells"][0] = [0, 1, 2]
        self.check(["flop", "mu2-kernel", "--apply", "green"], workloads.check_cli_flop_apply, edit)

    def test_mckay(self):
        def edit(result):
            result["triangulation_count"] = 5
        self.check(["mckay-example"], workloads.check_cli_mckay, edit, 4, 4)

    def test_text(self):
        res = workloads.run_in_process(["invariant", "p2", "--format", "text"])
        workloads.check_cli_text(res, ["rank=3"])
        self.rejects(workloads.check_cli_text, res, ["rank=4"])


if __name__ == "__main__":
    unittest.main()
