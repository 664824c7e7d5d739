"""Cohomology and transitivity toolkit for group extensions of subshifts.

The library decides transitivity of skew products of subshifts of finite
type with finite or free abelian fiber groups, solves the cohomological
equation for rational and matrix valued cocycles whose sums vanish on
trivial-class periodic orbits, and estimates the distortion constants
that gate the matrix theory.

The solver layer (``abelian``), the matrix layer and the brute-force
oracles load on first use (PEP 562), so rational work never imports
numpy and work that solves nothing never imports the solvers.
"""
from __future__ import annotations

import importlib

from .errors import (
    AlgebraNotClosed,
    AlphaNotConstant,
    BadShape,
    CentralityImpossible,
    ClosureTooLarge,
    CocycleObstruction,
    DeadSymbol,
    DimensionMismatch,
    DocumentError,
    InadmissibleWord,
    InfiniteGroup,
    InvalidCocycle,
    InvariantViolation,
    LivsicError,
    NotAGroup,
    NotAHomomorphism,
    NotIrreducible,
    NotStronglyConnected,
    NotTransitiveError,
    RangeTooLarge,
    SingularMatrix,
    StateSpaceTooLarge,
    TorsionAlpha,
)
from .groups import (
    Group,
    GroupSpec,
    SubgroupReport,
    build_group,
    smith_diagonal,
    subgroup_rank_and_index,
)
from .serialization import (
    SolutionEnvelope,
    SystemEnvelope,
    TOOL_VERSION,
    canonical_json,
    parse_solution_document,
    parse_system_document,
    solution_to_doc,
    system_to_doc,
)
from .sft import (
    BlockGraph,
    LocallyConstantCocycle,
    PeriodicOrbit,
    SftSpec,
    ValidationReport,
    build_block_graph,
    canonical_rotation,
    count_periodic_points,
    enumerate_periodic_orbits,
    make_cocycle,
    primitive_root,
    validate_sft,
    walk_primitive_orbits,
)
from .skew import (
    FrobeniusClassTag,
    NonTransitivityCertificate,
    ProductGraph,
    SkewSystem,
    TransitivityEvidence,
    TransitivityVerdict,
    build_product_graph,
    check_transitivity,
    frobenius_class,
    make_skew_system,
    orbit_weights,
    psi_n,
)

__version__ = TOOL_VERSION

_LAZY = {
    "abelian": (
        "CohomologySolution",
        "DegenerateReport",
        "EqualWeightPair",
        "VerificationReport",
        "ViolationWitness",
        "generate_cocycle",
        "solve_finite_gamma",
        "solve_free_abelian",
        "verify_solution",
        "verify_vanishing",
    ),
    "matrix": (
        "DistortionReport",
        "DistortionVerdict",
        "MatrixCocycle",
        "MatrixSolution",
        "MatrixVerificationReport",
        "MatrixViolationWitness",
        "check_distortion_assumption",
        "cyclic_product",
        "estimate_distortion",
        "generate_matrix_cocycle",
        "make_matrix_cocycle",
        "solve_matrix_finite",
        "verify_matrix_solution",
    ),
    "oracles": (
        "brute_matrix_solution_check",
        "brute_orbit_list",
        "brute_periodic_census",
        "brute_solution_check",
        "brute_transitivity",
        "brute_vanishing",
    ),
}
_LAZY_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    # Not cached in globals(): the name always reads the submodule's
    # current binding.  Unknown names (submodules included) raise, so
    # `from livsic import matrix` falls back to importing the submodule.
    module = _LAZY_HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY_HOME})
