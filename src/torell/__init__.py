"""Exact combinatorial invariants of torus-equivariant elliptic cohomology
for smooth toric varieties with an affine-space cover.

The package computes, from a fan alone: the moment graph, the sheaf-level
shadow invariant (rank, interior wall spans, determinant divisor) with
isomorphism verdicts, the distinguished affine cover of the associated
abelian-variety gluing together with its graded intersection poset, and
flop pairs of crepant resolutions of abelian quotient singularities with
derived-equivalence certificates.  All arithmetic is exact.
"""

__version__ = "0.1.0"

from .cech import (
    CechPoset,
    CoverElement,
    CubePoset,
    FiniteComplex,
    WitnessReport,
    cech_poset,
    classify,
    cohomology_witness,
    cover,
    cube_poset,
    poset_witness,
    reduce_complex,
)
from .ellinv import (
    ISOMORPHIC,
    NOT_ISOMORPHIC,
    UNKNOWN,
    EllShadow,
    MayerVietorisLadder,
    SurfaceIncidence,
    Verdict,
    compare,
    ell_shadow,
    flip_certificate,
    incidence_matrix,
    mv_ladder,
)
from .fan import Fan, ChartBasis, FanReport, Wall, chart, fan_isomorphic, validate, walls
from .gkm import MomentGraph, PartialSkeleton, moment_graph, partial_skeleton
from .lattice import (
    IntMatrix,
    SublatticeClass,
    determinant,
    hnf,
    is_unimodular_basis,
    primitive_normal,
    saturate,
)
from .triang import (
    DerivedEquivalenceCertificate,
    FlipMove,
    LatticeSimplex,
    Triangulation,
    apply_flip,
    cone_fan,
    compose_certificates,
    flips,
    quotient_simplex,
    simplices_equivalent,
    unimodular_triangulations,
)

__all__ = [name for name in dir() if not name.startswith("_")]
