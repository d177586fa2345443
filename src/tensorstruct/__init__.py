"""Numerical toolkit for tensor structures on vector spaces and bundles.

Construct, normalize and verify symplectic, Krein, tangent, (para-)complex
and Kahler-type structures; check their chart-level integrability through
bracket-defect tensors and curvature; and verify coherent towers of such
structures with their adapted connections.

``import tensorstruct`` loads no submodule.  Each public name below is
read from the module that defines it, which is imported the first time a
name of it is read (``from tensorstruct import curvature`` loads
``calculus`` and what it imports, not ``limits`` or ``loopspace``).
"""

import importlib

# the public names, by the module that defines them
_HOMES = {
    "linalg": ("Tolerance", "kernel_and_image", "metric_adjoint", "spd_sqrt"),
    "report": ("CheckEntry", "Report"),
    "structures": (
        "BilinearForm", "ComplexStructure", "CotangentStructure", "KreinMetric",
        "ParaComplexStructure", "StructureMatrix", "SymplecticForm", "TangentStructure",
        "complex_canonical", "complex_normal_form", "darboux_basis", "fundamental_symmetry",
        "krein_from_matrix", "krein_isomorphism", "para_complex_canonical",
        "para_from_complex", "symplectic_canonical", "tangent_canonical",
        "tangent_normal_form", "validate"),
    "compat": (
        "CompatibleTriple", "check_triple", "complete_pair", "complete_triple", "g_from",
        "is_compatible", "lagrangian_orthogonal_decomposition", "omega_from",
        "structure_from"),
    "bundle": (
        "ChartAtlas", "LocalTensorField", "check_cocycle", "check_locally_modelled",
        "check_reduction", "in_isotropy", "tensor_action"),
    "calculus": (
        "ConnectionData", "TensorFieldOnChart", "VectorField",
        "covariant_derivative_of_structure", "curvature", "is_integrable_structure",
        "is_metric_integrable", "levi_civita", "lie_bracket", "nijenhuis"),
    "limits": (
        "BondingSystem", "CoherentSequence", "ConnectionFormSequence", "LevelTuple",
        "check_coherent", "check_connection_coherence", "gEn_membership", "limit_eval",
        "theta_projection", "tuple_compose", "tuple_inverse", "tuple_membership",
        "validate_bonding"),
    "loopspace": (
        "DiscretizedLoopSpace", "ascending_coherence", "block_kahler_target",
        "block_para_target", "check_induced_compatibility", "induced_forms"),
}
_MODULE_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    # nothing is cached here: each read returns what the defining module
    # holds at that moment, so a name rebound there is seen here too
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
