"""The benchmark's tracer still finds every function and method it wraps.

``perfbench/tracing.py`` wraps methods by looking them up in their class
dictionaries, so a method that is renamed or turned into something else
breaks traced benchmark runs; this test makes that a test failure.
"""

import importlib.util
from pathlib import Path

# The tracer wraps every layer, the CLI included, so each must be loaded.
from torell import cech, cli, ellinv, gkm, triang  # noqa: F401

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recorder_installs_and_uninstalls(p2):
    tracing = load_tracing()
    recorder = tracing.Recorder()
    restore = tracing.install(recorder)
    try:
        poset = cech.cech_poset(p2)
        first, last = poset.elements[0], poset.elements[-1]
        assert poset.find(first.ray_letters) is first
        poset.meet(first, last)
        poset.leq(first, last)
    finally:
        tracing.uninstall(restore)
    for name in ("cech.cech_poset", "cech.find", "cech.meet", "cech.leq", "fan.top_cones"):
        assert recorder.calls[name] >= 1, name
    assert recorder.amounts["cech.cech_poset"] == len(poset.elements)
    for owner, attr, original in restore:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr}"
