"""Cohomology and transitivity toolkit for group extensions of subshifts.

The library decides transitivity of skew products of subshifts of finite
type with finite or free abelian fiber groups, solves the cohomological
equation for rational and matrix valued cocycles whose sums vanish on
trivial-class periodic orbits, and estimates the distortion constants
that gate the matrix theory.
"""
from __future__ import annotations

from .abelian import (
    CohomologySolution,
    DegenerateReport,
    EqualWeightPair,
    LocallyConstantCocycle,
    VerificationReport,
    ViolationWitness,
    generate_cocycle,
    make_cocycle,
    solve_finite_gamma,
    solve_free_abelian,
    verify_solution,
    verify_vanishing,
)
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
from .matrix import (
    DistortionReport,
    DistortionVerdict,
    MatrixCocycle,
    MatrixSolution,
    MatrixVerificationReport,
    MatrixViolationWitness,
    adjoint_norm,
    check_distortion_assumption,
    cyclic_product,
    estimate_distortion,
    generate_matrix_cocycle,
    make_matrix_cocycle,
    solve_matrix_finite,
    verify_matrix_solution,
)
from .oracles import (
    OracleConfig,
    brute_matrix_solution_check,
    brute_orbit_list,
    brute_periodic_census,
    brute_solution_check,
    brute_transitivity,
    brute_vanishing,
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
    PeriodicOrbit,
    SftSpec,
    ValidationReport,
    birkhoff_sum,
    build_block_graph,
    canonical_rotation,
    count_periodic_points,
    enumerate_periodic_orbits,
    is_primitive,
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
    enumerate_trivial_class_orbits,
    frobenius_class,
    make_skew_system,
    orbit_weights,
    psi_n,
    psi_n_cyclic,
)

__version__ = TOOL_VERSION
