"""Command-line interface.

Every subcommand prints a deterministic report (JSON by default) on
standard output.  Exit codes: 0 success, 1 a --expect assertion failed,
2 usage or input errors.

Each handler imports the layers it calls, so a command loads only the
modules it runs: ``validate`` never compiles the Čech, shadow, moment-graph
or triangulation code.  An error raised while a fan or triangulation
operand is parsed, or while a fan is worked on, names that operand.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__, fan as fan_mod, fan_io
from .errors import ParseError, TooLarge, TorellError


def _add_common(parser, reads_fans=True, formats=("json", "text")):
    if reads_fans:
        parser.add_argument("--corpus", default=None,
                            help="directory of *.fan.json files overriding the built-in corpus")
    parser.add_argument("--format", default="json", choices=formats, help="output format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torell",
        description="exact invariants of torus-equivariant elliptic cohomology "
                    "of toric varieties")
    parser.add_argument("--version", action="version", version=f"torell {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="classify fans as smooth / good / proper")
    p.add_argument("fans", nargs="+")
    _add_common(p)

    p = sub.add_parser("invariant", help="compute the shadow invariant of a fan")
    p.add_argument("fan")
    p.add_argument("--ladder", action="store_true",
                   help="include the chart-intersection ladder terms")
    _add_common(p)

    p = sub.add_parser("compare", help="compare the invariants of two fans")
    p.add_argument("fan_a")
    p.add_argument("fan_b")
    p.add_argument("--expect", choices=("iso", "noniso"), default=None,
                   help="exit 1 when the verdict contradicts the expectation")
    _add_common(p)

    p = sub.add_parser("gkm", help="emit the moment graph of a fan")
    p.add_argument("fan")
    _add_common(p, formats=("json", "text", "dot"))

    p = sub.add_parser("cech", help="cover statistics, poset grading and witnesses")
    p.add_argument("fan")
    _add_common(p)

    p = sub.add_parser("flop", help="list or apply diagonal flips of a triangulation")
    p.add_argument("triangulation",
                   help="built-in name (mu2-kernel) or a triangulation JSON file")
    action = p.add_mutually_exclusive_group()
    action.add_argument("--list", action="store_true", help="list legal flips")
    action.add_argument("--apply", default=None, metavar="ID",
                        help="flip id (index or colour alias) to apply")
    _add_common(p, reads_fans=False)

    p = sub.add_parser("mckay-example",
                       help="quotient simplex of a finite abelian torus subgroup")
    p.add_argument("--generators", default=None,
                   help="semicolon-separated weight vectors, e.g. '1/2,1/2,0;1/2,0,1/2'")
    p.add_argument("--rank", type=int, default=None,
                   help="ambient rank (needed for the trivial group)")
    _add_common(p, reads_fans=False)

    return parser


def _emit(report: dict, fmt: str, text) -> None:
    """Write the report as JSON, or in another format as text() renders it."""
    try:
        out = fan_io.dumps_canonical(report) if fmt == "json" else text()
    except ValueError:
        # The one ValueError rendering raises: an integer too long to write.
        names = " vs ".join(entry["name"] for entry in report["inputs"])
        raise TooLarge(f"{names}: the report holds an integer of more than "
                       f"{sys.get_int_max_str_digits()} digits") from None
    sys.stdout.write(out)


def _lines(lines) -> str:
    return "".join(line + "\n" for line in lines)


def _cmd_validate(args) -> int:
    results = []
    inputs = []
    for operand in args.fans:
        f, name, data = fan_io.resolve_fan_argument(operand, args.corpus)
        inputs.append((name, data))
        results.append({"fan": name, **fan_io.fan_report_json(fan_mod.validate(f))})
    _emit(fan_io.make_report("validate", inputs, results), args.format, lambda: _lines(
        f"{r['fan']}: smooth={r['smooth']} good={r['good']} proper={r['proper']}"
        for r in results))
    return 0


def _cmd_invariant(args) -> int:
    from . import ellinv

    f, name, data = fan_io.resolve_fan_argument(args.fan, args.corpus)
    with fan_io.operand(name):
        shadow = ellinv.ell_shadow(f)
        result = {"fan": name, "shadow": fan_io.shadow_json(shadow)}
        if args.ladder:
            result["ladder"] = fan_io.ladder_json(ellinv.mv_ladder(f))
    _emit(fan_io.make_report("invariant", [(name, data)], result), args.format, lambda: _lines(
        [f"{name}: rank={shadow.rank} "
         f"interior_walls={len(shadow.wall_spans)} "
         f"det_divisor_degree={shadow.det_divisor_degree()}"]
        + [f"  wall span {cls.describe()}" for cls in shadow.wall_spans]))
    return 0


def _cmd_compare(args) -> int:
    from . import ellinv

    fa, name_a, data_a = fan_io.resolve_fan_argument(args.fan_a, args.corpus)
    fb, name_b, data_b = fan_io.resolve_fan_argument(args.fan_b, args.corpus)
    with fan_io.operand(name_a):
        sa = ellinv.ell_shadow(fa)
    with fan_io.operand(name_b):
        sb = ellinv.ell_shadow(fb)
    with fan_io.operand(f"{name_a} vs {name_b}"):
        verdict = ellinv.compare(sa, sb, fans=(fa, fb))
    result = {
        "fan_a": name_a,
        "fan_b": name_b,
        "shadow_a": fan_io.shadow_json(sa),
        "shadow_b": fan_io.shadow_json(sb),
        "verdict": fan_io.verdict_json(verdict),
    }
    _emit(fan_io.make_report("compare", [(name_a, data_a), (name_b, data_b)], result),
          args.format, lambda: f"{name_a} vs {name_b}: {verdict.outcome} (rule: {verdict.rule})\n")
    if args.expect == "iso" and verdict.outcome == ellinv.NOT_ISOMORPHIC:
        return 1
    if args.expect == "noniso" and verdict.outcome == ellinv.ISOMORPHIC:
        return 1
    return 0


def _cmd_gkm(args) -> int:
    from . import gkm

    f, name, data = fan_io.resolve_fan_argument(args.fan, args.corpus)
    with fan_io.operand(name):
        graph = gkm.moment_graph(f)
    result = {"fan": name, "graph": fan_io.graph_json(graph),
              "partial_skeleton": fan_io.skeleton_json(graph)}
    _emit(fan_io.make_report("gkm", [(name, data)], result), args.format, lambda: (
        gkm.to_dot(graph) if args.format == "dot" else
        f"{name}: {len(graph.vertices)} fixed points, {len(graph.edges)} edges "
        f"({sum(1 for e in graph.edges if e.compact)} compact)\n"))
    return 0


def _cmd_cech(args) -> int:
    from . import cech

    f, name, data = fan_io.resolve_fan_argument(args.fan, args.corpus)
    with fan_io.operand(name):
        poset = cech.cech_poset(f)
        witness = cech.cohomology_witness(f)
    result = {"fan": name, **fan_io.cech_json(poset, witness)}
    _emit(fan_io.make_report("cech", [(name, data)], result), args.format, lambda: (
        f"{name}: cover size {result['cover_size']}, "
        f"poset size {result['element_count']}, "
        f"singular top-grade elements {witness.singular_count}\n"))
    return 0


def _resolve_triangulation(arg: str):
    from . import triang

    if arg == "mu2-kernel":
        t, _ = triang.mu2_kernel_triangulations()
        return t, arg, fan_io.dumps_canonical(fan_io.triangulation_json(t)).encode()
    data = Path(arg).read_bytes()
    with fan_io.operand(arg):
        return fan_io.parse_triangulation(data), arg, data


def _flip_listing(t):
    from . import triang

    moves = triang.flips(t)
    alias_of = {m: [] for m in moves}
    for name, move in triang.flip_aliases(t).items():
        alias_of[move].append(name)
    return moves, alias_of


def _cmd_flop(args) -> int:
    from . import triang

    t, name, data = _resolve_triangulation(args.triangulation)
    with fan_io.operand(name):
        moves, alias_of = _flip_listing(t)
    listing = [{"id": i,
                "aliases": sorted(alias_of[m]),
                "removed_edge": list(m.removed_edge),
                "added_edge": list(m.added_edge)}
               for i, m in enumerate(moves)]
    if args.apply is None:
        result = {"triangulation": fan_io.triangulation_json(t), "flips": listing}
        _emit(fan_io.make_report("flop", [(name, data)], result), args.format, lambda: _lines(
            [f"{name}: {len(moves)} legal flips"] + [
                f"  [{entry['id']}] remove {entry['removed_edge']} add {entry['added_edge']}"
                + (f" ({', '.join(entry['aliases'])})" if entry["aliases"] else "")
                for entry in listing]))
        return 0
    chosen = None
    for i, m in enumerate(moves):
        if args.apply == str(i) or args.apply in alias_of[m]:
            chosen = m
            break
    if chosen is None:
        raise TorellError(f"no flip with id {args.apply!r}; use --list")
    from . import ellinv

    with fan_io.operand(name):
        flipped, certificate = triang.apply_flip(t, chosen)
        fan_before = triang.cone_fan(t)
        fan_after = triang.cone_fan(flipped)
        verdict = ellinv.compare(ellinv.ell_shadow(fan_before), ellinv.ell_shadow(fan_after),
                                 fans=(fan_before, fan_after))
    result = {
        "triangulation": fan_io.triangulation_json(t),
        "flipped": fan_io.triangulation_json(flipped),
        "fan": fan_io.fan_to_document(fan_after, name=f"{name}:flipped"),
        "certificate": fan_io.certificate_json(certificate),
        "comparison": fan_io.verdict_json(verdict),
    }
    _emit(fan_io.make_report("flop", [(name, data)], result), args.format, lambda: (
        f"{name}: applied flip removing {list(chosen.removed_edge)}; "
        f"invariant comparison: {verdict.outcome}\n"))
    return 0


# No weight of a group of order at most WORK_LIMIT needs a longer token.
_MAX_WEIGHT_SIZE = 100


def _parse_generators(spec: str):
    from fractions import Fraction

    gens = []
    for part in filter(None, (p.strip() for p in spec.split(";"))):
        weights = []
        for token in (t.strip() for t in part.split(",")):
            # Bound the len(token) + |exponent| digits before Fraction writes them.
            _, e, exponent = token.lower().partition("e")
            try:
                if len(token) > _MAX_WEIGHT_SIZE or e and abs(int(exponent)) > _MAX_WEIGHT_SIZE:
                    raise ParseError(f"--generators: weight {token[:24]!r} has more than "
                                     f"{_MAX_WEIGHT_SIZE} characters or a larger exponent")
                weights.append(Fraction(token))
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"--generators: cannot read weight {token!r}") from None
        gens.append(tuple(weights))
    return gens


def _cmd_mckay(args) -> int:
    from . import triang

    if args.generators is None and args.rank is None:
        gens, label = triang.mu2_kernel_generators(), "built-in"
    elif args.generators is None:
        gens, label = [], f"rank {args.rank}"
    else:
        gens, label = _parse_generators(args.generators), args.generators
    simplex = triang.quotient_simplex(gens, rank=args.rank)
    result = {"simplex": fan_io.simplex_json(simplex)}
    if simplex.dim <= 2 and len(simplex.points) <= 12:
        triangulations = triang.unimodular_triangulations(simplex)
        result["triangulation_count"] = len(triangulations)
        result["triangulations"] = [fan_io.triangulation_json(t)
                                    for t in triangulations]
    lines = [f"simplex with {len(simplex.points)} lattice points, "
             f"normalized volume {simplex.normalized_volume}"]
    if "triangulation_count" in result:
        lines.append(f"unimodular triangulations: {result['triangulation_count']}")
    # Digested as text: the rank, then one line of weights per generator.
    group = f"rank {simplex.dim + 1}\n" + "".join(",".join(map(str, g)) + "\n" for g in gens)
    _emit(fan_io.make_report("mckay-example", [(label, group.encode())], result),
          args.format, lambda: _lines(lines))
    return 0


_HANDLERS = {
    "validate": _cmd_validate,
    "invariant": _cmd_invariant,
    "compare": _cmd_compare,
    "gkm": _cmd_gkm,
    "cech": _cmd_cech,
    "flop": _cmd_flop,
    "mckay-example": _cmd_mckay,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except TorellError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        if exc.filename is None:
            sys.stderr.write(f"error: {exc}\n")
        else:
            sys.stderr.write(f"error: cannot read {exc.filename}: {exc.strerror}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
