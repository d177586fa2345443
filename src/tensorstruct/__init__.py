"""Numerical toolkit for tensor structures on vector spaces and bundles.

Construct, normalize and verify symplectic, Krein, tangent, (para-)complex
and Kahler-type structures; check their chart-level integrability through
bracket-defect tensors and curvature; and verify coherent towers of such
structures with their adapted connections.
"""

from .linalg import Tolerance, kernel_and_image, metric_adjoint, spd_sqrt
from .report import CheckEntry, Report
from .structures import (
    BilinearForm,
    ComplexStructure,
    CotangentStructure,
    KreinMetric,
    ParaComplexStructure,
    StructureMatrix,
    SymplecticForm,
    TangentStructure,
    complex_canonical,
    complex_normal_form,
    darboux_basis,
    fundamental_symmetry,
    krein_from_matrix,
    krein_isomorphism,
    para_complex_canonical,
    para_from_complex,
    symplectic_canonical,
    tangent_canonical,
    tangent_normal_form,
    validate,
)
from .compat import (
    CompatibleTriple,
    check_triple,
    complete_pair,
    complete_triple,
    g_from,
    is_compatible,
    lagrangian_orthogonal_decomposition,
    omega_from,
    structure_from,
)
from .bundle import (
    ChartAtlas,
    LocalTensorField,
    check_cocycle,
    check_locally_modelled,
    check_reduction,
    in_isotropy,
    tensor_action,
)
from .calculus import (
    ConnectionData,
    TensorFieldOnChart,
    VectorField,
    covariant_derivative_of_structure,
    curvature,
    is_integrable_structure,
    is_metric_integrable,
    levi_civita,
    lie_bracket,
    nijenhuis,
)
from .limits import (
    BondingSystem,
    CoherentSequence,
    ConnectionFormSequence,
    LevelTuple,
    check_coherent,
    check_connection_coherence,
    gEn_membership,
    limit_eval,
    theta_projection,
    tuple_compose,
    tuple_inverse,
    tuple_membership,
    validate_bonding,
)
from .loopspace import (
    DiscretizedLoopSpace,
    ascending_coherence,
    block_kahler_target,
    block_para_target,
    check_induced_compatibility,
    induced_forms,
)

__version__ = "0.1.0"
