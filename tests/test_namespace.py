"""The lazy ``torell`` namespace binds the same public names as eager imports would."""

from importlib import import_module

import pytest

import torell
from test_tracing import load_tracing

HOMES = {
    "cech": "CechPoset CoverElement WitnessReport cech_poset cohomology_witness cover",
    "ellinv": "ISOMORPHIC NOT_ISOMORPHIC UNKNOWN EllShadow MayerVietorisLadder "
              "Verdict compare ell_shadow flip_certificate mv_ladder",
    "errors": "",
    "fan": "Fan FanReport Wall fan_isomorphic validate walls",
    "gkm": "MomentGraph moment_graph",
    "lattice": "IntMatrix SublatticeClass determinant primitive_normal saturate",
    "triang": "DerivedEquivalenceCertificate FlipMove LatticeSimplex Triangulation "
              "apply_flip cone_fan flips quotient_simplex unimodular_triangulations",
}
HOME = {name: module for module, names in HOMES.items() for name in (module, *names.split())}


def test_all_lists_the_forty_five_public_names():
    assert len(HOME) == 45
    assert torell.__all__ == sorted(HOME)


def test_each_name_is_the_object_of_its_home_module():
    for name, home in HOME.items():
        module = import_module(f"torell.{home}")
        expected = module if name == home else getattr(module, name)
        assert getattr(torell, name) is expected, name
    # Resolved names are looked up again each time, never stored in the package.
    assert not set(vars(torell)) & (set(HOME) - set(HOMES))


def test_dir_and_star_import_cover_every_name():
    assert set(torell.__all__) <= set(dir(torell))
    namespace = {}
    exec("from torell import *", namespace)
    for name in torell.__all__:
        assert namespace[name] is getattr(torell, name), name


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        torell.no_such_name
    assert not hasattr(torell, "no_such_name")


def test_tracer_leaves_no_stale_wrapper_behind():
    tracing = load_tracing()   # its test module has loaded every layer the tracer wraps
    original = torell.ellinv.compare
    restore = tracing.install(tracing.Recorder())
    try:
        assert torell.compare is torell.ellinv.compare is not original
    finally:
        tracing.uninstall(restore)
    assert torell.compare is torell.ellinv.compare is original
