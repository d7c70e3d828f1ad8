"""Fan documents, the golden corpus, and deterministic report envelopes.

Fans travel as versioned JSON documents listing rays and maximal cones;
faces are completed on load.  A tolerant text reader accepts a bare ray
list like ``(1,0) (0,1) (-1,-1)`` and builds the complete surface fan with
those rays.  Reports are canonical JSON: two runs on identical inputs
produce identical bytes.
"""

from __future__ import annotations

import json
import os
import re
import sys
from contextlib import contextmanager
from importlib import resources
from itertools import zip_longest
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from . import __version__
from .errors import MalformedFan, ParseError, SchemaError, TorellError
from .fan import Fan, FanReport, ccw_order
from .lattice import SublatticeClass, as_integers, primitive_normal

if TYPE_CHECKING:
    # Annotations only: parsing and validating fans must not load these layers.
    from .cech import CechPoset, CoverElement, WitnessReport
    from .ellinv import EllShadow, MayerVietorisLadder, Verdict
    from .gkm import MomentGraph
    from .triang import DerivedEquivalenceCertificate, LatticeSimplex, Triangulation

SCHEMA_VERSION = "1"

CORPUS_ENV = "TORELL_CORPUS"


# --- parsing ---------------------------------------------------------------

def parse_fan_document(data) -> tuple[Fan, dict]:
    """Parse JSON (or a bare ray list) into a validated fan plus metadata."""
    text = _text(data).strip()
    if not text.startswith("{"):
        return complete_surface_fan(parse_ray_text(text)), {}
    doc = _load_json(text)
    fan, metadata = _fan_from_dict(doc), doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise SchemaError("metadata must be an object")
    for key in ("name", "source"):
        if not isinstance(metadata.get(key, ""), str):
            raise SchemaError(f"metadata.{key} must be a string")
    return fan, metadata


def _text(data) -> str:
    if isinstance(data, bytes):
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not UTF-8: {exc}") from exc
    return data


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
                         line=exc.lineno, column=exc.colno) from exc
    except RecursionError:
        raise ParseError("invalid JSON: arrays and objects nested too deeply") from None
    except ValueError:
        # The one other ValueError: an integer literal too long to convert.
        raise ParseError(f"invalid JSON: an integer has more than "
                         f"{sys.get_int_max_str_digits()} digits") from None


def parse_fan(data) -> Fan:
    return parse_fan_document(data)[0]


def _is_int(x) -> bool:
    # JSON true/false load as bool, which Python counts as an int.
    return isinstance(x, int) and not isinstance(x, bool)


def _check_int_lists(doc: dict, key: str, what: str) -> None:
    """Require doc[key] to be a list of lists of integers."""
    items = doc[key]
    if not isinstance(items, list):
        raise SchemaError(f"{key} must be a list")
    for k, item in enumerate(items):
        if not isinstance(item, list) or not all(_is_int(x) for x in item):
            raise SchemaError(f"{key}[{k}] is {json.dumps(item)}, not {what}")


def _fan_from_dict(doc) -> Fan:
    if not isinstance(doc, dict):
        raise SchemaError("fan document must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema_version {version!r}")
    for key in ("ambient_rank", "rays", "cones"):
        if key not in doc:
            raise SchemaError(f"missing field {key!r}")
    n = doc["ambient_rank"]
    rays = doc["rays"]
    cones = doc["cones"]
    if not _is_int(n) or n < 1:
        raise SchemaError(f"ambient_rank is {json.dumps(n)}, not a positive integer")
    _check_int_lists(doc, "rays", "an integer vector")
    _check_int_lists(doc, "cones", "a list of ray indices")
    for cone in cones:
        for i in cone:
            if not 0 <= i < len(rays):
                raise SchemaError(f"cone {cone} references missing ray index {i}")
    return Fan.from_cones(n, rays, cones)


_RAY_GROUP = re.compile(r"\(([^()]*)\)")


def parse_ray_text(text: str) -> list[tuple[int, ...]]:
    """Read a tolerant ray list: ``(1,0) (0,1)`` or one ray per line."""
    groups = _RAY_GROUP.findall(text)
    if not groups:
        groups = [line for line in text.splitlines() if line.strip()]
    rays = []
    for group in groups:
        parts = [p for p in re.split(r"[,\s;]+", group.strip()) if p]
        try:
            rays.append(tuple(int(p) for p in parts))
        except ValueError as exc:
            raise ParseError(f"cannot read ray {group!r}") from exc
    if not rays:
        raise ParseError("no rays found in text input")
    return rays


def complete_surface_fan(rays: Sequence[Sequence[int]]) -> Fan:
    """The complete fan with the given rays; surfaces only.

    Rays are sorted by angle and consecutive pairs span the top cones, so
    this is the unique complete simplicial fan on the given rays.
    """
    rays = [as_integers(r, "ray coordinate", MalformedFan) for r in rays]
    if any(len(r) != 2 for r in rays):
        raise SchemaError("ray-list input builds surface fans only")
    if not all(any(r) for r in rays):
        raise MalformedFan("zero vector is not a ray")
    order = ccw_order(rays, (1, 0))
    if len(order) < 3:
        raise MalformedFan("a complete surface fan needs at least three rays")
    for k in range(len(order)):
        u, v = rays[order[k]], rays[order[(k + 1) % len(order)]]
        cross = u[0] * v[1] - u[1] * v[0]
        if cross < 0 or (cross == 0 and u[0] * v[0] + u[1] * v[1] < 0):
            raise MalformedFan(f"no ray between {u} and {v}, an angular gap of at least "
                               "half a turn: the rays do not surround the origin")
    cones = [(order[k], order[(k + 1) % len(order)]) for k in range(len(order))]
    return Fan.from_cones(2, rays, cones)


# --- emission --------------------------------------------------------------

def fan_to_document(fan: Fan, name: Optional[str] = None,
                    source: Optional[str] = None) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "ambient_rank": fan.ambient_rank,
        "rays": [list(r) for r in fan.rays],
        "cones": [list(c) for c in fan.maximal_cones()],
    }
    metadata = {}
    if name:
        metadata["name"] = name
    if source:
        metadata["source"] = source
    if metadata:
        doc["metadata"] = metadata
    return doc


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def emit_fan(fan: Fan, name: Optional[str] = None, source: Optional[str] = None) -> str:
    return dumps_canonical(fan_to_document(fan, name=name, source=source))


# --- corpus ----------------------------------------------------------------

def corpus_names(corpus: Optional[str] = None) -> list[str]:
    """The names of the corpus fans: each file name with its one
    ``.fan.json`` suffix removed."""
    if corpus is None:
        corpus = os.environ.get(CORPUS_ENV)
    root = resources.files("torell").joinpath("corpus") if corpus is None else Path(corpus)
    return sorted(p.name[:-len(".fan.json")] for p in root.iterdir()
                  if p.name.endswith(".fan.json"))


def corpus_bytes(name: str, corpus: Optional[str] = None) -> bytes:
    if corpus is None:
        corpus = os.environ.get(CORPUS_ENV)
    filename = f"{name}.fan.json"
    if corpus is not None:
        path = Path(corpus) / filename
        if not path.exists():
            raise SchemaError(f"no corpus fan named {name!r} in {corpus}")
        return path.read_bytes()
    ref = resources.files("torell").joinpath("corpus").joinpath(filename)
    try:
        return ref.read_bytes()
    except FileNotFoundError:
        raise SchemaError(f"no corpus fan named {name!r}") from None


def load_corpus_fan(name: str, corpus: Optional[str] = None) -> Fan:
    return parse_fan(corpus_bytes(name, corpus))


def resolve_fan_argument(arg: str, corpus: Optional[str] = None):
    """Resolve a CLI operand to (fan, display_name, input_bytes).

    Operands containing a path separator or ending in .json are files;
    anything else is looked up in the corpus.
    """
    if os.sep in arg or arg.endswith(".json") or arg.endswith(".txt"):
        data = Path(arg).read_bytes()
    else:
        data = corpus_bytes(arg, corpus)
    with operand(arg):
        return parse_fan(data), arg, data


@contextmanager
def operand(name: str):
    """Name the operand in the message of any TorellError raised inside."""
    try:
        yield
    except TorellError as exc:
        exc.args = (f"{name}: {exc}",) + exc.args[1:]
        raise


# --- JSON views of results --------------------------------------------------

def sublattice_json(s: SublatticeClass) -> dict:
    out = {"ambient_rank": s.ambient_rank, "rank": s.rank,
           "basis": [list(r) for r in s.basis]}
    if s.corank == 1:
        out["normal"] = list(primitive_normal(s))
    return out


def fan_report_json(report: FanReport) -> dict:
    return {"smooth": report.smooth, "good": report.good, "proper": report.proper}


def shadow_json(s: EllShadow) -> dict:
    return {
        "ambient_rank": s.ambient_rank,
        "rank": s.rank,
        "wall_spans": [sublattice_json(c) for c in s.wall_spans],
        "det_divisor": [{"coefficient": coeff, "class": sublattice_json(cls)}
                        for coeff, cls in s.det_divisor],
        "det_divisor_degree": s.det_divisor_degree(),
    }


def ladder_json(ladder: MayerVietorisLadder) -> dict:
    return {
        "terms": [
            [{"cone_ids": list(s.cone_ids),
              "span": sublattice_json(s.span),
              "vanishes_in_codim2": s.vanishes_in_codim2}
             for s in term]
            for term in ladder.terms
        ],
    }


def _witness_detail_json(kind: str, detail) -> object:
    if kind == "rank-mismatch":
        return {"rank_a": detail[0], "rank_b": detail[1]}
    if kind == "wall-span-mismatch":
        return {"only_in_a": [sublattice_json(c) for c in detail[0]],
                "only_in_b": [sublattice_json(c) for c in detail[1]]}
    if kind == "surface-ray-line-bijection":
        return {"pairs": [[list(a), list(b)] for a, b in detail]}
    return None


def verdict_json(v: Verdict) -> dict:
    out = {"outcome": v.outcome, "rule": v.rule, "witness": None}
    if v.witness is not None:
        out["witness"] = {"kind": v.witness.kind,
                          "detail": _witness_detail_json(v.witness.kind, v.witness.detail)}
    return out


def graph_json(g: MomentGraph) -> dict:
    return {
        "ambient_rank": g.ambient_rank,
        "vertices": [list(c) for c in g.vertices],
        "edges": [{"endpoints": list(e.endpoints), "label": list(e.label),
                   "isotropy": sublattice_json(e.isotropy), "compact": e.compact}
                  for e in g.edges],
    }


def skeleton_json(g: MomentGraph) -> dict:
    """The moment graph's partial skeleton, the part the shadow keeps: the
    vertex count and the sorted multiset of compact-edge isotropy classes,
    with no incidence."""
    labels = sorted(e.isotropy for e in g.edges if e.compact)
    return {"vertex_count": len(g.vertices),
            "edge_labels": [sublattice_json(c) for c in labels]}


def element_json(e: CoverElement) -> dict:
    return {"support": list(e.support), "words": list(e.words), "grade": e.grade}


def cech_json(poset: CechPoset, witness: WitnessReport) -> dict:
    """Counts, each element's smoothness (one chart in its support), witness."""
    grading = poset.grading()
    histogram: dict[int, int] = {}
    for e in poset.elements:
        histogram[len(e.support)] = histogram.get(len(e.support), 0) + 1
    return {
        "cover_size": len(grading[0]),       # no c: the cover the poset closes
        "element_count": len(poset.elements),
        "counts_per_grade": {str(k): len(v) for k, v in grading.items()},
        "support_size_histogram": {str(k): v for k, v in sorted(histogram.items())},
        "classification": [
            {"element": element_json(e), "smooth": len(e.support) == 1}
            for e in poset.elements
        ],
        "witness": {
            "singular_count": witness.singular_count,
            "entries": [
                {"singular": element_json(w.singular),
                 "components": [element_json(c) for c in w.components],
                 "smooth_covers": [element_json(c) for c in w.smooth_covers],
                 "divisor_positions": list(w.divisor_positions)}
                for w in witness.entries
            ],
        },
    }


def simplex_json(s: LatticeSimplex) -> dict:
    return {
        "dim": s.dim,
        "vertices": [list(v) for v in s.vertices],
        "points": [list(p) for p in s.points],
        "boundary_points": [list(p) for p in s.boundary_points],
        "interior_points": [list(p) for p in s.interior_points],
        "normalized_volume": s.normalized_volume,
    }


def triangulation_json(t: Triangulation) -> dict:
    return {"schema_version": SCHEMA_VERSION,
            "vertices": [list(v) for v in t.simplex.vertices],
            "points": [list(p) for p in t.simplex.points],
            "cells": [list(c) for c in t.cells]}


def parse_triangulation(data) -> Triangulation:
    from .triang import LatticeSimplex, Triangulation

    doc = _load_json(_text(data))
    if not isinstance(doc, dict):
        raise SchemaError("triangulation document must be a JSON object")
    for key in ("vertices", "cells"):
        if key not in doc:
            raise SchemaError(f"missing field {key!r}")
    _check_int_lists(doc, "vertices", "an integer vector")
    _check_int_lists(doc, "cells", "a list of point indices")
    simplex = LatticeSimplex.from_vertices([tuple(v) for v in doc["vertices"]])
    if "points" in doc:
        # The cells index the points, so only torell's own order is read.
        _check_int_lists(doc, "points", "an integer vector")
        expected = [list(p) for p in simplex.points]
        for k, pair in enumerate(zip_longest(doc["points"], expected)):
            if pair[0] != pair[1]:
                given, point = ("absent" if x is None else json.dumps(x) for x in pair)
                raise SchemaError(f"points[{k}] is {given}, not {point}: points must be "
                                  f"the simplex's lattice points in sorted order")
    cells = tuple(sorted(tuple(sorted(c)) for c in doc["cells"]))
    for cell in cells:
        for i in cell:
            if not 0 <= i < len(simplex.points):
                raise SchemaError(f"cell {cell} references missing point index {i}")
    return Triangulation(simplex, cells)


def certificate_json(cert: DerivedEquivalenceCertificate) -> dict:
    return {
        "source_cells": [list(c) for c in cert.source.cells],
        "target_cells": [list(c) for c in cert.target.cells],
        "moves": [
            {"cells_before": [list(c) for c in m.cells_before],
             "cells_after": [list(c) for c in m.cells_after],
             "removed_edge": list(m.removed_edge),
             "added_edge": list(m.added_edge)}
            for m in cert.moves
        ],
    }


# --- report envelope ---------------------------------------------------------

def input_digest(data: bytes) -> str:
    # Imported here: hashlib loads OpenSSL, about 3.5 MiB of resident
    # memory, and only report envelopes need a digest.
    import hashlib
    return hashlib.sha256(data).hexdigest()


def make_report(command: str, inputs: Sequence[tuple[str, bytes]], result) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "torell", "version": __version__},
        "command": command,
        "inputs": [{"name": name, "sha256": input_digest(data)}
                   for name, data in inputs],
        "result": result,
    }
