"""The benchmark's workloads: seeded set-up and a fixed list of operations.

A workload's set-up generates every input from the seed, writes each fan
as a document, and parses, validates and re-emits it through
``torell.fan_io``; the documents must round-trip byte for byte.  It then
returns the operation list of one pass.  An operation is one call into
torell (for ``flops`` the six calls of one flip, for ``cli`` one
``torell.cli`` process) and carries an independent check of its result
from ``checks``.

torell is always reached through module attributes (``ellinv.ell_shadow``)
at call time, so the span recorders of a traced run see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from random import Random
from types import SimpleNamespace as NS

from torell import cech, cli, ellinv, fan as fan_mod, fan_io, gkm, triang

import inputs
from checks import (
    check_apply_flip,
    check_cone_fan,
    check_cover,
    check_flip_closure,
    check_flop_shadow,
    check_flop_verdict,
    check_isomorphism_matrix,
    check_ladder,
    check_moment_graph,
    check_poset,
    check_ray_bijection,
    check_report,
    check_reversal_certificate,
    check_simplex,
    check_surface_shadow,
    check_surface_verdict,
    check_triangulations,
    check_witness,
    class_normal,
    flip_moves,
    flipped_cells,
    lifted,
    line_multiset,
    require,
    top_cones,
    triangulation_wall_normals,
)

# Blow-up surfaces from 14 to 204 rays; the smallest three also get a
# single-ray-reversal partner (flip_certificate grows about as r^4).  143
# stands in for 144: a 144-ray surface built by shortest blow-ups has every
# primitive vector of max norm at most 7 as a ray, so no surface of that
# size with other lines exists.
SURFACE_SIZES = tuple(range(14, 135, 10)) + (143,) + tuple(range(154, 205, 10))
REVERSAL_SIZES = (14, 24, 34)

# Sizes close together at the top, so that the tail of the latencies falls
# among many operations of similar cost rather than in a gap.
COVER_SURFACE_SIZES = (10, 13, 16, 20, 25, 30, 34, 38, 42, 46, 50, 55, 60)
COVER_CORPUS = ("affine3", "flop3_a", "flop3_b")
COVER_GROUPS = (inputs.kernel(2), inputs.cyclic(6, (1, 2, 3)), inputs.cyclic(8, (1, 3, 4)))
LADDER_MAX_TOPS = 13

FLOP_GROUPS = (inputs.kernel(2), inputs.kernel(3), inputs.cyclic(6, (1, 2, 3)),
               inputs.cyclic(8, (1, 3, 4)), inputs.cyclic(9, (1, 2, 6)),
               inputs.cyclic(10, (1, 4, 5)), inputs.cyclic(11, (1, 2, 8)))
# Literature counts of unimodular triangulations of the dilated triangles.
KNOWN_TRIANGULATIONS = {"2D": 4, "3D": 79}


class Op:
    """One timed call: ``run(state)`` returns the result, ``check(result)``
    verifies it independently, and ``failure(result)`` names a program
    failure (only CLI operations have one; elsewhere an exception is)."""

    __slots__ = ("label", "run", "check", "failure")

    def __init__(self, label, run, check, failure=None):
        self.label, self.run, self.check, self.failure = label, run, check, failure


class Workload:
    def __init__(self, ops, final_checks=()):
        self.ops = ops
        self.final_checks = list(final_checks)


class Context:
    """Where a run lives: the checkout root and its scratch directory."""

    def __init__(self, root: Path, in_process: bool = False):
        self.root = root
        self.work = root / "perfbench" / "out" / f"work-{os.getpid()}"
        self.in_process = in_process


def load(fan: inputs.Fan, proper: bool) -> fan_mod.Fan:
    """Parse, validate and re-emit a generated document through fan_io."""
    text = fan.text()
    parsed, meta = fan_io.parse_fan_document(text)
    check_report(fan_mod.validate(parsed), proper=proper)
    require(fan_io.emit_fan(parsed, name=meta["name"]) == text,
            f"document {fan.name} does not round-trip")
    return parsed


def corpus_fan(ctx: Context, name: str) -> inputs.Fan:
    """A corpus fan read with the json module, for the checks."""
    doc = json.loads((ctx.root / "src" / "torell" / "corpus" / f"{name}.fan.json").read_text())
    return inputs.Fan(doc["ambient_rank"], doc["rays"], doc["cones"], name)


def load_corpus(ctx: Context, name: str, proper: bool):
    fan = corpus_fan(ctx, name)
    parsed, _ = fan_io.parse_fan_document(fan_io.corpus_bytes(name))
    check_report(fan_mod.validate(parsed), proper=proper)
    require(parsed.rays == fan.rays and parsed.maximal_cones() == fan.cones,
            f"corpus fan {name} parses to another fan")
    return fan, parsed


# --- surfaces ----------------------------------------------------------------------

def surfaces(seed: int, ctx: Context) -> Workload:
    rng = Random(seed)
    ops = []
    for r in SURFACE_SIZES:
        tag = f"s{r}"
        if r in REVERSAL_SIZES:
            cycle, (ray, partner) = inputs.reversal_surface(rng, r)
        else:
            cycle = inputs.blowup_cycle(rng, r)
        a = inputs.surface(cycle, tag)
        copy = inputs.relabelled_surface(a, rng, tag + "-relabelled")
        while True:           # the other surface has other lines, so compare stays cheap
            other = inputs.surface(inputs.blowup_cycle(rng, r), tag + "-other")
            if line_multiset(other) != line_multiset(a):
                break
        fa, fcopy, fother = (load(f, proper=True) for f in (a, copy, other))
        sa, so = "ell_shadow " + tag, "ell_shadow other " + tag
        ops += [
            Op("validate " + tag, lambda st, f=fa: fan_mod.validate(f), check_report),
            Op(sa, lambda st, f=fa: ellinv.ell_shadow(f),
               lambda res, a=a: check_surface_shadow(res, a)),
            Op("moment_graph " + tag, lambda st, f=fa: gkm.moment_graph(f),
               lambda res, a=a: check_moment_graph(res, a)),
            Op("compare relabelled " + tag,
               lambda st, f=fa, g=fcopy, s=sa: ellinv.compare(st[s], st[s], fans=(f, g)),
               lambda res, a=a, b=copy: check_ray_bijection(res, a, b)),
            Op("fan_isomorphic " + tag, lambda st, f=fa, g=fcopy: fan_mod.fan_isomorphic(f, g),
               lambda res, a=a, b=copy: check_isomorphism_matrix(res, a, b)),
            Op(so, lambda st, f=fother: ellinv.ell_shadow(f),
               lambda res, b=other: check_surface_shadow(res, b)),
            Op("compare other " + tag,
               lambda st, f=fa, g=fother, s=sa, t=so: ellinv.compare(st[s], st[t], fans=(f, g)),
               lambda res, a=a, b=other: check_surface_verdict(res, a, b)),
        ]
        if r in REVERSAL_SIZES:
            rev = inputs.surface(partner, tag + "-reversed")
            frev = load(rev, proper=True)
            sr = "ell_shadow reversed " + tag
            ops += [
                Op(sr, lambda st, f=frev: ellinv.ell_shadow(f),
                   lambda res, b=rev: check_surface_shadow(res, b)),
                Op("compare reversed " + tag,
                   lambda st, f=fa, g=frev, s=sa, t=sr: ellinv.compare(st[s], st[t], fans=(f, g)),
                   lambda res, a=a, b=rev: check_surface_verdict(res, a, b)),
                Op("flip_certificate " + tag,
                   lambda st, f=fa, g=frev: ellinv.flip_certificate(f, g),
                   lambda res, a=a, b=rev, i=ray: check_reversal_certificate(res, a, b, i)),
            ]
    return Workload(ops)


# --- covers ---------------------------------------------------------------------------

def quotient(group, rng):
    """A group's quotient triangle and triangulations, checked apart."""
    gens = group.generators(rng)
    simplex = triang.quotient_simplex(gens)
    check_simplex(simplex, group.order)
    tris = triang.unimodular_triangulations(simplex)
    check_triangulations(tris, simplex.vertices, KNOWN_TRIANGULATIONS.get(group.name))
    return gens, simplex, tris


def cone_fan_doc(group, i, t) -> inputs.Fan:
    return inputs.Fan(3, [lifted(p) for p in t.simplex.points], t.cells, f"{group.name}-t{i}")


def covers(seed: int, ctx: Context) -> Workload:
    rng = Random(seed)
    fans = []
    for n in (2, 3, 4):
        f = inputs.p1_power(rng, n, f"P1^{n}")
        fans.append((f, load(f, proper=True)))
    for r in COVER_SURFACE_SIZES:
        f = inputs.surface(inputs.blowup_cycle(rng, r), f"s{r}")
        fans.append((f, load(f, proper=True)))
    for name in COVER_CORPUS:
        fans.append(load_corpus(ctx, name, proper=False))
    for group in COVER_GROUPS:
        _, _, tris = quotient(group, rng)
        for i, t in enumerate(tris):
            f = cone_fan_doc(group, i, t)
            fans.append((f, load(f, proper=False)))
    ops = []
    for f, tf in fans:
        ops += [
            Op("cover " + f.name, lambda st, t=tf: cech.cover(t),
               lambda res, f=f: check_cover(res, f)),
            Op("cech_poset " + f.name, lambda st, t=tf: cech.cech_poset(t),
               lambda res, f=f: check_poset(res, f)),
            Op("cohomology_witness " + f.name, lambda st, t=tf: cech.cohomology_witness(t),
               lambda res, f=f: check_witness(res, f)),
        ]
        if len(top_cones(f)) <= LADDER_MAX_TOPS:
            ops.append(Op("mv_ladder " + f.name, lambda st, t=tf: ellinv.mv_ladder(t),
                          lambda res, f=f: check_ladder(res, f)))
    return Workload(ops)


# --- flops ------------------------------------------------------------------------------

def flop_pair(t, move):
    """One flop: flip, both cone fans, both shadows and their comparison."""
    flipped = triang.apply_flip(t, move)
    before, after = triang.cone_fan(t), triang.cone_fan(flipped[0])
    sb, sa = ellinv.ell_shadow(before), ellinv.ell_shadow(after)
    return flipped, before, after, sb, sa, ellinv.compare(sb, sa, fans=(before, after))


def check_flop_pair(result, cells, move, points):
    flipped, before, after, sb, sa, verdict = result
    rem, add = move.removed_edge, move.added_edge
    flipped_to = flipped_cells(cells, rem, add)
    check_apply_flip(flipped, cells, rem, add)
    check_cone_fan(before, cells, points)
    check_cone_fan(after, flipped_to, points)
    check_flop_shadow(sb, cells, points)
    check_flop_shadow(sa, flipped_to, points)
    check_flop_verdict(verdict, points, rem, add)


def flops(seed: int, ctx: Context) -> Workload:
    rng = Random(seed)
    ops, edges_of = [], []
    for group in FLOP_GROUPS:
        gens, simplex, tris = quotient(group, rng)
        points = list(simplex.points)
        verts = simplex.vertices
        qs, ut = "quotient_simplex " + group.name, "unimodular_triangulations " + group.name
        ops += [
            Op(qs, lambda st, g=gens: triang.quotient_simplex(g),
               lambda res, o=group.order: check_simplex(res, o)),
            Op(ut, lambda st, s=qs: triang.unimodular_triangulations(st[s]),
               lambda res, v=verts, k=KNOWN_TRIANGULATIONS.get(group.name):
               check_triangulations(res, v, k)),
        ]
        edges = []
        for i, t in enumerate(tris):
            load(cone_fan_doc(group, i, t), proper=False)
            moves = triang.flips(t)
            require([(m.removed_edge, m.added_edge) for m in moves] == flip_moves(t.cells, points),
                    f"flips of {group.name} t{i} differ from the independent list")
            for move in moves:
                label = f"flip {group.name} t{i} {move.removed_edge}"
                edges.append((t.cells, label))
                ops.append(Op(label, lambda st, u=ut, i=i, m=move: flop_pair(st[u][i], m),
                              lambda res, c=t.cells, m=move, p=points:
                              check_flop_pair(res, c, m, p)))
        edges_of.append((ut, edges))

    def closure(state):
        for ut, edges in edges_of:
            check_flip_closure(state[ut], [(c, state[op][0][0].cells) for c, op in edges])

    return Workload(ops, [closure])


# --- cli --------------------------------------------------------------------------------

def run_subprocess(ctx: Context, argv):
    env = {k: v for k, v in os.environ.items() if k != fan_io.CORPUS_ENV}
    env["PYTHONPATH"] = str(ctx.root / "src")
    proc = subprocess.run([sys.executable, "-m", "torell.cli", *argv], cwd=ctx.root, env=env,
                          capture_output=True, timeout=120, check=False)
    return proc.returncode, proc.stdout, proc.stderr


def run_in_process(argv):
    """torell.cli.main with its output captured; an uncaught exception
    reads as the interpreter would report it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:             # the program's own failure, reported as such
            traceback.print_exc()
            code = 1
    return code, out.getvalue().encode(), err.getvalue().encode()


def cli_failure(expected_code):
    """Exit codes as documented; bad input exits 2 with an error line."""
    def failure(res):
        code, _, err = res
        if b"Traceback" in err:
            return f"traceback ({err.decode(errors='replace').strip().splitlines()[-1]})"
        if code != expected_code:
            return f"exit {code}, expected {expected_code}"
        if code == 2 and not any(line.startswith(b"error:") for line in err.splitlines()):
            return "exit 2 without an error line"
        return None
    return failure


def _class(d):
    return NS(ambient_rank=d["ambient_rank"], basis=tuple(tuple(r) for r in d["basis"]))


def shadow_from_json(d):
    return NS(ambient_rank=d["ambient_rank"], rank=d["rank"],
              wall_spans=[_class(c) for c in d["wall_spans"]],
              det_divisor=[(e["coefficient"], _class(e["class"])) for e in d["det_divisor"]])


def verdict_from_json(d):
    w = d["witness"]
    if w["kind"] == "surface-ray-line-bijection":
        detail = tuple((tuple(a), tuple(b)) for a, b in w["detail"]["pairs"])
    else:
        detail = ([_class(c) for c in w["detail"]["only_in_a"]],
                  [_class(c) for c in w["detail"]["only_in_b"]])
    return NS(outcome=d["outcome"], witness=NS(kind=w["kind"], detail=detail))


def ladder_from_json(d):
    return NS(terms=[tuple(NS(cone_ids=tuple(s["cone_ids"]), span=_class(s["span"]),
                              vanishes_in_codim2=s["vanishes_in_codim2"]) for s in term)
                     for term in d["terms"]])


def graph_from_json(d):
    return NS(vertices=[tuple(v) for v in d["vertices"]],
              edges=[NS(endpoints=tuple(e["endpoints"]), label=tuple(e["label"]),
                        compact=e["compact"]) for e in d["edges"]])


def report(res, command):
    doc = json.loads(res[1])
    require(doc["command"] == command and doc["tool"]["name"] == "torell", "wrong report envelope")
    return doc["result"]


def check_cli_validate(res, expected):
    got = [(r["fan"], r["smooth"], r["good"], r["proper"]) for r in report(res, "validate")]
    require(got == expected, f"validate reports {got}")


def check_cli_invariant(res, fan, ladder=False):
    result = report(res, "invariant")
    shadow = shadow_from_json(result["shadow"])
    if fan.rank == 2:
        check_surface_shadow(shadow, fan)
    else:
        cells = top_cones(fan)
        points = [r[:-1] for r in fan.rays]
        check_flop_shadow(shadow, cells, points)
    require(result["shadow"]["det_divisor_degree"] == -len(shadow.wall_spans),
            "determinant degree is not minus the interior wall count")
    require(ladder == ("ladder" in result), "ladder presence is wrong")
    if ladder:
        check_ladder(ladder_from_json(result["ladder"]), fan)


def check_cli_compare(res, f, g):
    result = report(res, "compare")
    verdict = verdict_from_json(result["verdict"])
    if f.rank == 2:
        check_surface_shadow(shadow_from_json(result["shadow_a"]), f)
        check_surface_verdict(verdict, f, g)
        return
    walls = [triangulation_wall_normals(top_cones(h), [r[:-1] for r in h.rays]) for h in (f, g)]
    require(verdict.outcome == "NOT_ISOMORPHIC" and walls[0] != walls[1],
            f"cone fans with other walls compare {verdict.outcome}")
    only_a, only_b = verdict.witness.detail
    require(Counter(class_normal(c) for c in only_a) == walls[0] - walls[1]
            and Counter(class_normal(c) for c in only_b) == walls[1] - walls[0],
            "witness is not the difference of the wall planes")


def check_cli_gkm(res, fan):
    result = report(res, "gkm")
    check_moment_graph(graph_from_json(result["graph"]), fan)
    require(result["partial_skeleton"]["vertex_count"] == len(top_cones(fan)),
            "skeleton vertex count is wrong")


def check_cli_dot(res, fan):
    text = res[1].decode()
    require(text.startswith("graph moment_graph {") and text.rstrip().endswith("}"),
            "not a DOT graph")
    require(text.count(" -- ") == len(fan.rays), "DOT edge count is not the ray count")


def check_cli_cech(res, fan):
    result = report(res, "cech")
    check_cover(range(result["cover_size"]), fan)
    elements = [NS(grade=c["element"]["grade"]) for c in result["classification"]]
    require(len(elements) == result["element_count"], "classification misses elements")
    check_poset(NS(elements=elements), fan)
    require(result["counts_per_grade"] == {str(k): v for k, v in
                                           sorted(Counter(e.grade for e in elements).items())},
            "counts per grade disagree with the classification")
    w = result["witness"]
    check_witness(NS(singular_count=w["singular_count"], entries=w["entries"]), fan)


def _cells(doc):
    return tuple(tuple(c) for c in doc["cells"]), [tuple(p) for p in doc["points"]]


def check_cli_flop_list(res):
    result = report(res, "flop")
    cells, points = _cells(result["triangulation"])
    got = [(tuple(f["removed_edge"]), tuple(f["added_edge"])) for f in result["flips"]]
    require(got == flip_moves(cells, points), "flip listing is wrong")


def check_cli_flop_apply(res, index=None):
    result = report(res, "flop")
    cells, points = _cells(result["triangulation"])
    move = result["certificate"]["moves"][0]
    rem, add = tuple(move["removed_edge"]), tuple(move["added_edge"])
    listed = flip_moves(cells, points)
    if index is not None:
        require((rem, add) == listed[index], "applied flip is not the one asked for")
    require((rem, add) in listed, "applied flip is not legal")
    after = flipped_cells(cells, rem, add)
    require(_cells(result["flipped"])[0] == after, "flipped cells are wrong")
    doc = result["fan"]
    emitted = inputs.Fan(3, doc["rays"], doc["cones"], "flipped")
    check_cone_fan(NS(rays=emitted.rays, cones=emitted.all_cones()), after, points)
    check_flop_verdict(verdict_from_json(result["comparison"]), points, rem, add)


def check_cli_mckay(res, order, count):
    result = report(res, "mckay-example")
    s = result["simplex"]
    verts = [tuple(v) for v in s["vertices"]]
    check_simplex(NS(dim=s["dim"], vertices=verts, points=[tuple(p) for p in s["points"]]), order)
    require(s["normalized_volume"] == order, "normalized volume is not the group order")
    require(result.get("triangulation_count") == count, "triangulation count is wrong")
    for t in result["triangulations"]:
        require(len(t["cells"]) == order, "a triangulation has the wrong cell count")


def check_cli_text(res, needles):
    text = res[1].decode()
    require(all(n in text for n in needles), f"text output lacks {needles}")


def cli_workload(seed: int, ctx: Context) -> Workload:
    rng = Random(seed)
    work = ctx.work
    work.mkdir(parents=True, exist_ok=True)
    rel = lambda name: str((work / name).relative_to(ctx.root))

    def write(fan, proper):
        load(fan, proper)
        (work / f"{fan.name}.fan.json").write_text(fan.text())
        return rel(f"{fan.name}.fan.json")

    s20 = inputs.surface(inputs.blowup_cycle(rng, 20), "s20")
    s20r = inputs.relabelled_surface(s20, rng, "s20-relabelled")
    s20o = inputs.surface(inputs.blowup_cycle(rng, 20), "s20-other")
    s120 = inputs.surface(inputs.blowup_cycle(rng, 120), "s120")
    s204 = inputs.surface(inputs.blowup_cycle(rng, 204), "s204")
    s204r = inputs.relabelled_surface(s204, rng, "s204-relabelled")
    p13 = inputs.p1_power(rng, 3, "p1-cubed")
    paths = {f.name: write(f, True) for f in (s20, s20r, s20o, s120, s204, s204r, p13)}
    gens3, _, tris3 = quotient(inputs.kernel(3), rng)
    t3 = tris3[rng.randrange(len(tris3))]
    cf = cone_fan_doc(inputs.kernel(3), 0, t3)
    paths["3D-cone"] = write(cf, False)
    tri_doc = {"schema_version": "1", "vertices": [list(v) for v in t3.simplex.vertices],
               "points": [list(p) for p in t3.simplex.points],
               "cells": [list(c) for c in t3.cells]}
    (work / "3D.tri.json").write_text(json.dumps(tri_doc, sort_keys=True, indent=2) + "\n")
    paths["3D-tri"] = rel("3D.tri.json")
    gens10 = inputs.cyclic(10, (1, 4, 5)).generators(rng)
    gens6 = inputs.cyclic(6, (1, 2, 3)).generators(rng)
    bad = {
        "malformed.fan.json": '{"schema_version": "1", "rays": [[1, 0]',
        "nonprimitive.fan.json": json.dumps({"schema_version": "1", "ambient_rank": 2,
                                             "rays": [[2, 0], [0, 1]], "cones": [[0, 1]]}),
        "badschema.fan.json": json.dumps({"schema_version": "9", "ambient_rank": 2,
                                          "rays": [[1, 0], [0, 1]], "cones": [[0, 1]]}),
        "notgood.fan.json": json.dumps({"schema_version": "1", "ambient_rank": 2,
                                        "rays": [[1, 0], [1, 2]], "cones": [[0, 1]]}),
    }
    for name, text in bad.items():
        (work / name).write_text(text)
        paths[name] = rel(name)
    p2, h1 = corpus_fan(ctx, "p2"), corpus_fan(ctx, "hirzebruch1")
    p1, p1xp1 = corpus_fan(ctx, "p1"), corpus_fan(ctx, "p1xp1")
    ra, rb = corpus_fan(ctx, "ray_reversal_a"), corpus_fan(ctx, "ray_reversal_b")
    fa, fb = corpus_fan(ctx, "flop3_a"), corpus_fan(ctx, "flop3_b")
    g10, g6, g3 = (inputs.generator_text(g) for g in (gens10, gens6, gens3))
    P = paths

    # (argv, documented exit code, check of a successful result)
    table = [
        (["validate", "p2", "flop3_a"], 0,
         lambda r: check_cli_validate(r, [("p2", True, True, True),
                                          ("flop3_a", True, True, False)])),
        (["validate", P["s20"], P["s20-relabelled"], P["p1-cubed"]], 0,
         lambda r: check_cli_validate(r, [(P[n], True, True, True)
                                          for n in ("s20", "s20-relabelled", "p1-cubed")])),
        (["invariant", "p2", "--ladder"], 0, lambda r: check_cli_invariant(r, p2, True)),
        (["invariant", "hirzebruch1", "--ladder"], 0, lambda r: check_cli_invariant(r, h1, True)),
        (["invariant", P["s204"]], 0, lambda r: check_cli_invariant(r, s204)),
        (["invariant", "flop3_a", "--ladder"], 0, lambda r: check_cli_invariant(r, fa, True)),
        (["invariant", P["3D-cone"]], 0, lambda r: check_cli_invariant(r, cf)),
        (["compare", "ray_reversal_a", "ray_reversal_b"], 0,
         lambda r: check_cli_compare(r, ra, rb)),
        (["compare", "flop3_a", "flop3_b"], 0, lambda r: check_cli_compare(r, fa, fb)),
        (["compare", P["s20"], P["s20-relabelled"]], 0,
         lambda r: check_cli_compare(r, s20, s20r)),
        (["compare", P["s20"], P["s20-other"]], 0, lambda r: check_cli_compare(r, s20, s20o)),
        (["compare", P["s204"], P["s204-relabelled"]], 0,
         lambda r: check_cli_compare(r, s204, s204r)),
        (["compare", "flop3_a", "flop3_b", "--expect", "iso"], 1,
         lambda r: check_cli_compare(r, fa, fb)),
        (["compare", "flop3_a", "flop3_b", "--expect", "noniso"], 0,
         lambda r: check_cli_compare(r, fa, fb)),
        (["compare", "ray_reversal_a", "ray_reversal_b", "--expect", "noniso"], 1,
         lambda r: check_cli_compare(r, ra, rb)),
        (["gkm", "p2"], 0, lambda r: check_cli_gkm(r, p2)),
        (["gkm", "hirzebruch1", "--format", "dot"], 0, lambda r: check_cli_dot(r, h1)),
        (["gkm", P["s120"]], 0, lambda r: check_cli_gkm(r, s120)),
        (["gkm", P["s120"], "--format", "dot"], 0, lambda r: check_cli_dot(r, s120)),
        (["cech", "p1"], 0, lambda r: check_cli_cech(r, p1)),
        (["cech", "p1xp1"], 0, lambda r: check_cli_cech(r, p1xp1)),
        (["cech", P["p1-cubed"]], 0, lambda r: check_cli_cech(r, p13)),
        (["cech", P["s20"]], 0, lambda r: check_cli_cech(r, s20)),
        (["cech", "flop3_a"], 0, lambda r: check_cli_cech(r, fa)),
        (["flop", "mu2-kernel", "--list"], 0, check_cli_flop_list),
        (["flop", "mu2-kernel", "--apply", "green"], 0, check_cli_flop_apply),
        (["flop", P["3D-tri"], "--list"], 0, check_cli_flop_list),
        (["flop", P["3D-tri"], "--apply", "0"], 0, lambda r: check_cli_flop_apply(r, index=0)),
        (["mckay-example"], 0, lambda r: check_cli_mckay(r, 4, 4)),
        (["mckay-example", "--generators", g3], 0, lambda r: check_cli_mckay(r, 9, 79)),
        (["mckay-example", "--generators", g10], 0, lambda r: check_cli_mckay(r, 10, 31)),
        (["mckay-example", "--generators", g6], 0, lambda r: check_cli_mckay(r, 6, 5)),
        (["mckay-example", "--rank", "3"], 0, lambda r: check_cli_mckay(r, 1, 1)),
        (["validate", "p2", "--format", "text"], 0,
         lambda r: check_cli_text(r, ["p2: smooth=True good=True proper=True"])),
        (["invariant", P["s20"], "--format", "text"], 0,
         lambda r: check_cli_text(r, ["rank=20", "interior_walls=20", "det_divisor_degree=-20"])),
        # Bad input: exit 2 with an error line and no traceback.
        (["validate", "no_such_fan"], 2, None),
        (["invariant", P["malformed.fan.json"]], 2, None),
        (["invariant", P["nonprimitive.fan.json"]], 2, None),
        (["validate", rel("missing.fan.json")], 2, None),
        (["flop", "mu2-kernel", "--apply", "purple"], 2, None),
        (["gkm", P["badschema.fan.json"]], 2, None),
        (["mckay-example", "--generators", "1/3,1/3,1/2"], 2, None),
        (["cech", P["notgood.fan.json"]], 2, None),
        # These three fail on every run: the CLI exits 1 with a traceback.
        (["validate", rel("")], 2, None),
        (["mckay-example", "--generators", "1/0,1"], 2, None),
        (["mckay-example", "--generators", "a,b"], 2, None),
    ]
    runner = run_in_process if ctx.in_process else (lambda argv: run_subprocess(ctx, argv))
    ops = []
    for argv, code, check in table:
        ops.append(Op(" ".join(argv), lambda st, a=argv: runner(a),
                      check or (lambda res: None), cli_failure(code)))
    return Workload(ops)


WORKLOADS = {"surfaces": surfaces, "covers": covers, "flops": flops, "cli": cli_workload}
