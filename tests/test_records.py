"""Every frozen record type of the library refuses writes the same way."""

import dataclasses
import inspect

import pytest

from torell import cech, ellinv, fan, gkm, lattice, triang
from torell.fan_io import load_corpus_fan

FROZEN = sorted((cls for module in (cech, ellinv, fan, gkm, lattice, triang)
                 for _, cls in inspect.getmembers(module, inspect.isclass)
                 if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls)
                 and cls.__dataclass_params__.frozen),
                key=lambda cls: cls.__qualname__)


def records():
    """One instance of each frozen record type, by type."""
    p2 = load_corpus_fan("p2")
    shadow = ellinv.ell_shadow(p2)
    ladder = ellinv.mv_ladder(p2)
    verdict = ellinv.compare(shadow, ellinv.ell_shadow(load_corpus_fan("p1xp1")))
    graph = gkm.moment_graph(p2)
    poset = cech.cech_poset(p2)
    witness = cech.cohomology_witness(p2)
    t, _ = triang.mu2_kernel_triangulations()
    move = triang.flips(t)[0]
    found = [p2, p2._incidence, fan.walls(p2)[0], fan.validate(p2), shadow, ladder,
             ladder.terms[1][0], verdict, verdict.witness, graph, graph.edges[0], poset,
             poset.elements[0], witness, witness.entries[0], lattice.IntMatrix.from_rows([[1]]),
             t, t.simplex, move, triang.apply_flip(t, move)[1]]
    return {type(r): r for r in found}


RECORDS = records()


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__qualname__)
def test_setting_any_name_raises_frozen_instance_error(cls):
    record = RECORDS[cls]
    for name in (dataclasses.fields(record)[0].name, "not_a_field"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, None)
