"""Exact rational machinery for algebraic curvature tensors.

Every value is an exact rational: tensors and group-ring elements store
integer numerators over one common denominator, their kernels compute on
those integers, and ``fractions.Fraction`` appears only at the API.
Identities are checked with ``==``, never with tolerances.
"""

from .symgroup import (
    DEGREE_CAP,
    GroupRingElement,
    Permutation,
    enumerate_group,
    perm_compose,
    ring_product,
    solve_right_factor,
    star,
)
from .young import (
    PARTITION_CAP,
    Partition,
    YoungTableau,
    conjugate,
    curvature_tableau,
    derivative_idempotent,
    hook_length_count,
    partitions_of,
    standard_tableaux,
    young_symmetrizer,
)
from .tensor_ops import (
    DenseTensor,
    apply_symmetry_operator,
    slice_pairs,
    sym_split,
    tensor_product,
    to_group_ring,
)
from .curvature import (
    CanonicalElements,
    CriteriaDisagreement,
    CurvatureCheck,
    CurvatureDecomposition,
    DecompositionTerm,
    IdentityTableReport,
    NotACurvatureTensor,
    alpha,
    bianchi_defect,
    canonical_elements,
    check_curvature,
    decompose_mixed,
    decompose_pure,
    gamma,
    is_algebraic_curvature,
    verify_identity_table,
)
from .schur import (
    IDEAL_KINDS,
    LR_WEIGHT_CAP,
    SchurSum,
    ideal_structure,
    lr_product,
    plethysm_sym2,
    plethysm_transpose,
)
from .osserman import (
    LinearMap,
    LorentzReport,
    Metric,
    SignatureError,
    SpectrumReport,
    char_poly,
    clifford_check,
    clifford_family,
    jacobi_alpha_closed,
    jacobi_gamma_closed,
    jacobi_operator,
    jordan_family,
    lorentz_checks,
    nilpotency_check,
    nilpotent_skew_example,
    nilpotent_sym_example,
    osserman_spectrum_sample,
    quaternion_triple,
    rational_roots,
    sample_unit_vectors,
    sample_vectors,
)

__version__ = "0.1.0"
