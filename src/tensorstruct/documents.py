"""JSON document schemas for the batch front end.

One input format: JSON, matrices as nested row-major arrays of numbers,
snake_case field names.  Basis arrays list basis vectors (each a row in the
JSON, stored as columns internally).

Structure documents:
    {"kind": "complex" | "para_complex" | "tangent" | "symplectic"
             | "krein" | "cotangent" | "bilinear",
     "dim": n, "matrix": [[...]],
     "decomposition": {...}}          # optional, fields depend on kind

Pair documents (triple completion):
    {"flavor": "kahler" | "para_kahler",
     "given": {two of "g" | "omega" | "structure"}}

Atlas documents:
    {"fiber_dim": n, "base_dim": m,
     "charts": [{"name", "lo", "hi", "samples": [[...], ...]}],
     "overlaps": [{"charts": ["a", "b"], "points": [[...]],
                   "transition": {"constant": [[...]]}
                              | {"affine": {"base": [[...]],
                                            "coeffs": [[[...]], ...]}}}],
     "triples": [{"charts": ["a", "b", "c"], "points": [[...]]}]}

Tensor documents (model tensors):
    {"kind": "1,1" | "2,0", "matrix": [[...]], "symmetry": "symmetric" | "skew"}

Field documents (chart calculus):
    {"dim": d,
     "field": {"name": "constant" | "sphere_stereographic"
                      | "pullback_flat" | "pullback_structure", ...params},
     "grid": {"lo": [...], "hi": [...], "counts": [...]},
     "fd_step": h}                     # optional; also the curvature step

Tower documents:
    {"variance": "projective" | "direct", "dims": [...],
     "maps": [[[...]], ...],           # consecutive maps; omit for padding
     "projections": [[[...]], ...],    # direct, non-padding towers
     "sequence": {"kind": "1,1" | "2,0", "levels": [[[...]], ...]}}

Connection tower documents extend tower documents with:
    {"forms": [{"coeffs": [[[...]], ...], "linear": ...} per level],
     "models": [{"kind": ..., "matrix": ...} per level],
     "sample_points": [[...], ...],
     "morphisms": [{"levels": [i, j], "left": [[...]], "right": [[...]]}]}

Loop documents:
    {"target": {"flavor": "kahler" | "para_kahler", "pairs": m}
             | {"pair": <pair document>},
     "samples": N, "loop": [[...]],
     "tangents": {"x": [[...]], "y": [[...]]}}    # optional
"""

from __future__ import annotations

import numpy as np

from . import calculus
from .bundle import (
    AffineTransition,
    Chart,
    ChartAtlas,
    ConstantTransition,
    IsotropyGroupSpec,
    StructureMatrix,
)
from .compat import CompatibleTriple
from .errors import TensorStructError
from .limits import BondingSystem, CoherentSequence, ConnectionFormSequence, LevelForm
from .structures import (
    BilinearForm,
    ComplexStructure,
    CotangentStructure,
    KreinMetric,
    ParaComplexStructure,
    SymplecticForm,
    TangentStructure,
    krein_from_matrix,
)

__all__ = [
    "DocumentError",
    "parse_structure",
    "parse_pair",
    "parse_atlas",
    "parse_tensor",
    "parse_field",
    "field_step",
    "parse_tower",
    "parse_connection_tower",
    "parse_loop",
]


class DocumentError(TensorStructError):
    """Malformed input document (parse errors exit with status 2)."""


def _require(doc, key, context):
    if key not in doc:
        raise DocumentError(f"{context}: missing field {key!r}")
    return doc[key]


def _matrix(doc, key, context):
    try:
        return np.asarray(_require(doc, key, context), dtype=float)
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"{context}: field {key!r} is not numeric") from exc


def _basis(values, context):
    """JSON lists of basis vectors become column matrices."""
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"{context}: basis is not numeric") from exc
    if arr.ndim != 2:
        raise DocumentError(f"{context}: basis must be a list of vectors")
    return arr.T


def parse_structure(doc):
    kind = _require(doc, "kind", "structure document")
    matrix = _matrix(doc, "matrix", "structure document")
    dim = int(doc.get("dim", matrix.shape[0]))
    if matrix.shape != (dim, dim):
        raise DocumentError(f"structure document: matrix shape {matrix.shape} "
                            f"does not match dim {dim}")
    dec = doc.get("decomposition")
    try:
        if kind == "complex":
            decomposition = None
            if dec is not None:
                decomposition = (_basis(_require(dec, "basis1", "decomposition"),
                                        "decomposition"),
                                 _basis(_require(dec, "basis2", "decomposition"),
                                        "decomposition"),
                                 np.asarray(_require(dec, "iso", "decomposition"),
                                            dtype=float))
            return ComplexStructure(matrix, decomposition)
        if kind == "para_complex":
            if dec is not None:
                return ParaComplexStructure(
                    matrix,
                    _basis(_require(dec, "eigen_plus", "decomposition"), "decomposition"),
                    _basis(_require(dec, "eigen_minus", "decomposition"), "decomposition"))
            from .compat import _involution_eigenbases
            from .linalg import DEFAULT_TOL
            plus, minus = _involution_eigenbases(matrix, DEFAULT_TOL)
            return ParaComplexStructure(matrix, plus, minus)
        if kind == "tangent":
            if dec is not None:
                return TangentStructure(
                    matrix,
                    _basis(_require(dec, "kernel_basis", "decomposition"), "decomposition"),
                    _basis(_require(dec, "complement_basis", "decomposition"),
                           "decomposition"))
            from .linalg import DEFAULT_TOL, kernel_and_image
            kernel, _, _ = kernel_and_image(matrix, DEFAULT_TOL)
            complement, _, _ = kernel_and_image(kernel.T, DEFAULT_TOL)
            return TangentStructure(matrix, kernel, complement)
        if kind == "symplectic":
            return SymplecticForm(matrix)
        if kind == "krein":
            if dec is not None:
                return KreinMetric(
                    matrix,
                    _basis(_require(dec, "plus_basis", "decomposition"), "decomposition"),
                    _basis(_require(dec, "minus_basis", "decomposition"), "decomposition"))
            return krein_from_matrix(matrix)
        if kind == "cotangent":
            if dec is None:
                raise DocumentError("cotangent documents need a decomposition "
                                    "with lagrangian_basis and complement_basis")
            return CotangentStructure(
                SymplecticForm(matrix),
                _basis(_require(dec, "lagrangian_basis", "decomposition"), "decomposition"),
                _basis(_require(dec, "complement_basis", "decomposition"), "decomposition"))
        if kind == "bilinear":
            return BilinearForm(matrix, doc.get("symmetry", "symmetric"))
    except DocumentError:
        raise
    except (TensorStructError, ValueError) as exc:
        raise DocumentError(f"structure document: {exc}") from exc
    raise DocumentError(f"structure document: unknown kind {kind!r}")


def parse_pair(doc):
    """Returns (first, second, flavor) ready for compat.complete_triple."""
    flavor = doc.get("flavor", "kahler")
    if flavor not in ("kahler", "para_kahler"):
        raise DocumentError(f"pair document: unknown flavor {flavor!r}")
    given = _require(doc, "given", "pair document")
    items = []
    if "g" in given:
        g = np.asarray(given["g"], dtype=float)
        if flavor == "kahler":
            items.append(BilinearForm(g, "symmetric"))
        else:
            try:
                items.append(krein_from_matrix(g))
            except TensorStructError as exc:
                raise DocumentError(f"pair document: {exc}") from exc
    if "omega" in given:
        items.append(SymplecticForm(np.asarray(given["omega"], dtype=float)))
    if "structure" in given:
        items.append(parse_structure(given["structure"]))
    if len(items) != 2:
        raise DocumentError("pair document: exactly two of g, omega, structure "
                            "must be given")
    return items[0], items[1], flavor


def _parse_transition(doc, context):
    if "constant" in doc:
        return ConstantTransition(np.asarray(doc["constant"], dtype=float))
    if "affine" in doc:
        aff = doc["affine"]
        return AffineTransition(np.asarray(_require(aff, "base", context), dtype=float),
                                [np.asarray(c, dtype=float)
                                 for c in _require(aff, "coeffs", context)])
    raise DocumentError(f"{context}: transition must be constant or affine")


def parse_atlas(doc):
    fiber_dim = int(_require(doc, "fiber_dim", "atlas document"))
    charts = []
    for cdoc in _require(doc, "charts", "atlas document"):
        charts.append(Chart(_require(cdoc, "name", "chart"),
                            np.asarray(_require(cdoc, "lo", "chart"), dtype=float),
                            np.asarray(_require(cdoc, "hi", "chart"), dtype=float),
                            np.asarray(cdoc.get("samples", []), dtype=float)))
    overlaps = {}
    transitions = {}
    for odoc in doc.get("overlaps", []):
        a, b = _require(odoc, "charts", "overlap")
        points = np.asarray(_require(odoc, "points", "overlap"), dtype=float)
        overlaps[(a, b)] = points
        transitions[(a, b)] = _parse_transition(_require(odoc, "transition", "overlap"),
                                                "overlap")
    triples = []
    for tdoc in doc.get("triples", []):
        a, b, c = _require(tdoc, "charts", "triple overlap")
        triples.append((a, b, c,
                        np.asarray(_require(tdoc, "points", "triple overlap"),
                                   dtype=float)))
    return ChartAtlas(fiber_dim, charts, overlaps, transitions, triples)


def parse_tensor(doc):
    kind = _require(doc, "kind", "tensor document")
    if kind not in ("1,1", "2,0"):
        raise DocumentError(f"tensor document: unknown kind {kind!r}")
    return IsotropyGroupSpec(StructureMatrix(_matrix(doc, "matrix", "tensor document"),
                                             kind, doc.get("symmetry", "symmetric")))


def field_step(doc, fd_step=None):
    """Finite-difference step of a field document: its own ``fd_step``,
    else ``fd_step``, else the package default."""
    return float(doc.get("fd_step", fd_step or calculus.DEFAULT_FD_STEP))


def parse_field(doc, fd_step=None):
    """Returns (tensor field, grid) from a field document."""
    dim = int(_require(doc, "dim", "field document"))
    spec = _require(doc, "field", "field document")
    name = _require(spec, "name", "field document")
    step = field_step(doc, fd_step)

    if name == "constant":
        matrix = np.asarray(_require(spec, "matrix", "constant field"), dtype=float)
        kind = spec.get("kind", "2,0")
        field = calculus.TensorFieldOnChart.constant(matrix, kind,
                                                     spec.get("symmetry", "symmetric"))
    elif name == "sphere_stereographic":
        if dim != 2:
            raise DocumentError("sphere_stereographic is two-dimensional")
        field = calculus.sphere_stereographic_metric(step=step)
    elif name == "pullback_flat":
        base = np.asarray(_require(spec, "base_metric", "pullback field"), dtype=float)
        phi = _parse_polymap(spec, dim)
        field = calculus.pullback_metric(phi, base)
    elif name == "pullback_structure":
        base = np.asarray(_require(spec, "base_matrix", "pullback field"), dtype=float)
        phi = _parse_polymap(spec, dim)
        field = calculus.pullback_endomorphism(phi, base, step=step)
    else:
        raise DocumentError(f"field document: unknown field name {name!r}")

    gdoc = doc.get("grid", {})
    lo = np.asarray(gdoc.get("lo", [-0.5] * dim), dtype=float)
    hi = np.asarray(gdoc.get("hi", [0.5] * dim), dtype=float)
    counts = gdoc.get("counts", 5)
    grid = calculus.grid_points(lo, hi, counts)
    return field, grid


def _parse_polymap(spec, dim):
    from .poly import Poly
    comps_doc = _require(spec, "diffeo", "pullback field")
    comps = []
    for terms in comps_doc:
        coeffs = {}
        for term in terms:
            *expo, coeff = term
            if len(expo) != dim:
                raise DocumentError("diffeo term exponents must match dim")
            coeffs[tuple(int(e) for e in expo)] = float(coeff)
        comps.append(Poly(dim, coeffs))
    if len(comps) != dim:
        raise DocumentError("diffeo needs one polynomial per coordinate")
    return calculus.PolyMap(comps)


def parse_tower(doc):
    variance = _require(doc, "variance", "tower document")
    dims = [int(d) for d in _require(doc, "dims", "tower document")]
    try:
        if "maps" in doc:
            maps = [np.asarray(m, dtype=float) for m in doc["maps"]]
            projections = None
            if "projections" in doc:
                projections = [np.asarray(p, dtype=float) for p in doc["projections"]]
            bonding = BondingSystem(dims, variance, maps, projections)
        else:
            bonding = BondingSystem.padded(dims, variance)
    except (TensorStructError, ValueError) as exc:
        raise DocumentError(f"tower document: {exc}") from exc
    sequence = None
    if "sequence" in doc:
        sdoc = doc["sequence"]
        try:
            sequence = CoherentSequence(
                bonding,
                [np.asarray(m, dtype=float) for m in _require(sdoc, "levels", "sequence")],
                _require(sdoc, "kind", "sequence"))
        except (TensorStructError, ValueError) as exc:
            raise DocumentError(f"tower document: {exc}") from exc
    return bonding, sequence


def parse_connection_tower(doc):
    bonding, _ = parse_tower(doc)
    forms = []
    for fdoc in _require(doc, "forms", "connection document"):
        coeffs = [np.asarray(c, dtype=float) for c in _require(fdoc, "coeffs", "form")]
        linear = None
        if "linear" in fdoc:
            linear = [[np.asarray(m, dtype=float) for m in row] for row in fdoc["linear"]]
        forms.append(LevelForm(coeffs, linear))
    models = []
    for mdoc in _require(doc, "models", "connection document"):
        models.append((_require(mdoc, "kind", "model"),
                       np.asarray(_require(mdoc, "matrix", "model"), dtype=float)))
    morphisms = None
    if "morphisms" in doc:
        morphisms = {}
        for mdoc in doc["morphisms"]:
            i, j = _require(mdoc, "levels", "morphism")
            morphisms[(int(i), int(j))] = (np.asarray(mdoc["left"], dtype=float),
                                           np.asarray(mdoc["right"], dtype=float))
    if len(forms) != bonding.levels or len(models) != bonding.levels:
        raise DocumentError("connection document: one form and one model per level")
    seq = ConnectionFormSequence(bonding, forms, models, morphisms)
    points = np.asarray(_require(doc, "sample_points", "connection document"),
                        dtype=float)
    return seq, points


def parse_loop(doc):
    from .loopspace import DiscretizedLoopSpace, block_kahler_target, block_para_target

    tdoc = _require(doc, "target", "loop document")
    if "pairs" in tdoc:
        pairs = int(tdoc["pairs"])
        flavor = tdoc.get("flavor", "kahler")
        target = (block_kahler_target(pairs) if flavor == "kahler"
                  else block_para_target(pairs))
    else:
        from .compat import complete_triple
        first, second, flavor = parse_pair(_require(tdoc, "pair", "loop target"))
        target = complete_triple(first, second, flavor)
    loop = np.asarray(_require(doc, "loop", "loop document"), dtype=float)
    weights = None
    if "weights" in doc:
        weights = np.asarray(doc["weights"], dtype=float)
    try:
        space = DiscretizedLoopSpace(target, loop, weights)
    except (TensorStructError, ValueError) as exc:
        raise DocumentError(f"loop document: {exc}") from exc
    tangents = None
    if "tangents" in doc:
        tangents = (np.asarray(doc["tangents"]["x"], dtype=float),
                    np.asarray(doc["tangents"]["y"], dtype=float))
    return space, tangents
