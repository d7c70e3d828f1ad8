"""Exact combinatorial invariants of torus-equivariant elliptic cohomology
for smooth toric varieties with an affine-space cover.

The package computes, from a fan alone: the moment graph, the sheaf-level
shadow invariant (rank, interior wall spans, determinant divisor) with
isomorphism verdicts, the distinguished affine cover of the associated
abelian-variety gluing together with its graded intersection poset, and
flop pairs of crepant resolutions of abelian quotient singularities with
derived-equivalence certificates.  All arithmetic is exact.

``import torell`` loads no submodule: each public name below is imported
from its home module on first access, so a caller pays only for the layers
it uses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "cech": (
        "CechPoset", "CoverElement", "WitnessReport", "cech_poset", "cohomology_witness", "cover",
    ),
    "ellinv": (
        "ISOMORPHIC", "NOT_ISOMORPHIC", "UNKNOWN", "EllShadow", "MayerVietorisLadder",
        "Verdict", "compare", "ell_shadow", "flip_certificate", "mv_ladder",
    ),
    "errors": (),
    "fan": (
        "Fan", "FanReport", "Wall", "fan_isomorphic", "validate", "walls",
    ),
    "gkm": ("MomentGraph", "moment_graph"),
    "lattice": (
        "IntMatrix", "SublatticeClass", "determinant", "primitive_normal",
        "saturate",
    ),
    "triang": (
        "DerivedEquivalenceCertificate", "FlipMove", "LatticeSimplex", "Triangulation",
        "apply_flip", "cone_fan", "flips", "quotient_simplex", "unimodular_triangulations",
    ),
}

# Public name -> home module; a submodule is its own home.
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_HOME)


def __getattr__(name):
    # The result is not stored in the package: a later lookup asks the home
    # module again, so it always sees what that module binds now.
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f".{home}", __name__)
    return module if name == home else getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})
