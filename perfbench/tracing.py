"""Span recording around torell's public functions, installed from outside.

``install`` replaces each public function of a torell module with a
recorder, under every name torell binds it to (so ``saturate`` is wrapped
where ``torell.fan`` and ``torell.ellinv`` import it), and wraps a few
methods on their classes.  Nothing under ``src/torell`` changes, and
``uninstall`` puts the originals back.

A span is (name id, parent span, start ns, end ns), kept as four entries
of a flat integer array so that a million spans fit in a few tens of MiB.
Self time is a span's duration minus the time its child spans cover.
Counts and self times are accumulated for every traced call; spans
themselves are kept in memory only while ``keep_spans`` is true and are
written out at the end.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

LAYERS = ("lattice", "fan", "gkm", "ellinv", "cech", "triang", "fan_io", "cli")

# One-line helpers called once per letter; their cost stays with the caller.
SKIP = {"cech.letter_leq", "cech.letter_meet"}

# Methods wrapped on their classes: (module, class, method, span name).
METHODS = (
    ("fan", "Fan", "__post_init__", "fan.construct"),
    ("fan", "Fan", "from_cones", "fan.from_cones"),
    ("fan", "Fan", "is_good", "fan.is_good"),
    ("fan", "Fan", "is_smooth", "fan.is_smooth"),
    ("fan", "Fan", "is_proper", "fan.is_proper"),
    ("fan", "Fan", "top_cones", "fan.top_cones"),
    ("fan", "Fan", "maximal_cones", "fan.maximal_cones"),
    ("cech", "CechPoset", "meet", "cech.meet"),
    ("cech", "CechPoset", "leq", "cech.leq"),
    ("cech", "CechPoset", "find", "cech.find"),
    ("triang", "Triangulation", "__post_init__", "triang.construct"),
    ("triang", "LatticeSimplex", "from_vertices", "triang.from_vertices"),
)

# Work measured on a result, added up per span name.
AMOUNTS = {
    "ellinv.mv_ladder": lambda ladder: sum(len(t) for t in ladder.terms),
    "cech.cech_poset": lambda poset: len(poset.elements),
    "triang.unimodular_triangulations": len,
    "fan_io.dumps_canonical": len,
}


class Recorder:
    def __init__(self):
        self.calls = Counter()
        self.self_ns = Counter()
        self.amounts = Counter()
        self.names = {}           # span name -> id
        self.spans = array("q")
        self.keep_spans = True
        self._stack = []          # frames: [name, start, child ns, span index]

    def reset_counts(self):
        self.calls.clear()
        self.self_ns.clear()
        self.amounts.clear()

    def wrap(self, name, fn):
        amount = AMOUNTS.get(name)
        clock = time.perf_counter_ns
        stack = self._stack
        spans = self.spans
        name_id = self.names.setdefault(name, len(self.names))
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][3] if stack else -1
            index = -1
            if rec.keep_spans:
                index = len(spans) // 4
                spans.extend((name_id, parent, 0, 0))
            frame = [name, clock(), 0, index]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                rec.self_ns[name] += duration - frame[2]
                rec.calls[name] += 1
                if stack:
                    stack[-1][2] += duration
                if index >= 0:
                    spans[4 * index + 2] = frame[1]
                    spans[4 * index + 3] = end
            if amount is not None:
                rec.amounts[name] += amount(result)
            return result

        return traced


def _torell_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "torell" or name.startswith("torell.")]


def install(recorder: Recorder) -> list:
    """Wrap every traced callable; returns what ``uninstall`` restores."""
    modules = _torell_modules()
    restore = []
    for layer in LAYERS:
        mod = sys.modules[f"torell.{layer}"]
        for attr, obj in sorted(vars(mod).items()):
            name = f"{layer}.{attr}"
            if (attr.startswith("_") or name in SKIP or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            wrapper = recorder.wrap(name, obj)
            for owner in modules:
                for bound, value in list(vars(owner).items()):
                    if value is obj:
                        restore.append((owner, bound, obj))
                        setattr(owner, bound, wrapper)
    for layer, cls_name, attr, name in METHODS:
        cls = getattr(sys.modules[f"torell.{layer}"], cls_name)
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(recorder.wrap(name, original.__func__))
        else:
            replacement = recorder.wrap(name, original)
        restore.append((cls, attr, original))
        setattr(cls, attr, replacement)
    return restore


def uninstall(restore: list) -> None:
    for owner, attr, original in reversed(restore):
        setattr(owner, attr, original)


# --- layer metrics ---------------------------------------------------------------

def _is_parse(name: str) -> bool:
    fn = name.split(".", 1)[1]
    return fn.startswith(("parse", "load", "resolve", "corpus", "fan_from", "complete_surface"))


def layer_values(calls: Counter, self_ns: Counter, amounts: Counter) -> dict:
    """Per-layer metrics from per-name counts and self times (ns)."""
    ms = lambda names: sum(self_ns[n] for n in names) / 1e6
    of_layer = lambda layer: [n for n in self_ns if n.startswith(layer + ".")]
    fan_io = of_layer("fan_io")
    out = {f"{layer}.self_ms": ms(of_layer(layer)) for layer in LAYERS if layer != "cli"}
    for name in ("lattice.saturate", "fan.is_good", "fan.walls", "ellinv.ell_shadow",
                 "cech.cech_poset", "cech.meet", "triang.construct", "triang.flips",
                 "lattice.determinant"):
        out[f"{name}.calls"] = calls[name]
    for name in ("lattice.saturate", "lattice.solve_integer", "fan.is_good", "fan.walls",
                 "fan.fan_isomorphic", "gkm.moment_graph", "ellinv.ell_shadow",
                 "ellinv.compare", "ellinv.flip_certificate", "ellinv.mv_ladder",
                 "cech.cover", "cech.cech_poset", "cech.cohomology_witness",
                 "triang.unimodular_triangulations", "triang.construct", "triang.flips",
                 "triang.apply_flip", "triang.cone_fan"):
        out[f"{name}.self_ms"] = ms([name])
    out["fan.construct.calls"] = calls["fan.construct"]
    out["fan.construct.self_ms"] = ms(["fan.construct", "fan.from_cones"])
    out["ellinv.mv_ladder.summands"] = amounts["ellinv.mv_ladder"]
    out["cech.cech_poset.elements"] = amounts["cech.cech_poset"]
    out["triang.triangulations"] = amounts["triang.unimodular_triangulations"]
    out["fan_io.parse.self_ms"] = ms([n for n in fan_io if _is_parse(n)])
    out["fan_io.emit.self_ms"] = ms([n for n in fan_io if not _is_parse(n)])
    out["fan_io.emit.bytes"] = amounts["fan_io.dumps_canonical"]
    return out
