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
     "grid": {"lo": [...], "hi": [...], "counts": [...]},   # counts >= 1
     "fd_step": h}                     # optional, > 0; also the curvature step

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

import math
import numbers

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
from .compat import complete_triple
from .errors import TensorStructError
from .limits import BondingSystem, CoherentSequence, ConnectionFormSequence, LevelForm
from .linalg import involution_eigenbases, kernel_and_complement
from .loopspace import DiscretizedLoopSpace, block_kahler_target, block_para_target
from .poly import Poly
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


def _matrix(value, context):
    """Float array of a JSON value; DocumentError unless numeric and finite."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"{context} is not numeric") from exc
    if not np.all(np.isfinite(arr)):
        raise DocumentError(f"{context} is not finite")
    return arr


def _scalar(value, context, integer=False):
    """A JSON number as a float, or as an int when ``integer``;
    DocumentError unless it is a finite number, and whole when ``integer``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DocumentError(f"{context} is not a number: {value!r}")
    if not math.isfinite(value):
        raise DocumentError(f"{context} is not finite")
    if integer:
        if value != int(value):
            raise DocumentError(f"{context} is not an integer: {value!r}")
        return int(value)
    return float(value)


def _list(value, context):
    if not isinstance(value, list):
        raise DocumentError(f"{context} must be a list, got {value!r}")
    return value


def _basis(dec, key):
    """A decomposition's JSON list of basis vectors, as a column matrix."""
    arr = _matrix(_require(dec, key, "decomposition"), f"decomposition {key}")
    if arr.ndim != 2:
        raise DocumentError(f"decomposition: {key} must be a list of vectors")
    return arr.T


def parse_structure(doc):
    kind = _require(doc, "kind", "structure document")
    matrix = _matrix(_require(doc, "matrix", "structure document"), "structure matrix")
    dim = _scalar(doc.get("dim", matrix.shape[0]), "structure dim", integer=True)
    if matrix.shape != (dim, dim):
        raise DocumentError(f"structure document: matrix shape {matrix.shape} "
                            f"does not match dim {dim}")
    dec = doc.get("decomposition")
    try:
        if kind == "complex":
            decomposition = None
            if dec is not None:
                decomposition = (_basis(dec, "basis1"), _basis(dec, "basis2"),
                                 _matrix(_require(dec, "iso", "decomposition"),
                                         "decomposition iso"))
            return ComplexStructure(matrix, decomposition)
        if kind == "para_complex":
            if dec is not None:
                return ParaComplexStructure(matrix, _basis(dec, "eigen_plus"),
                                            _basis(dec, "eigen_minus"))
            return ParaComplexStructure(matrix, *involution_eigenbases(matrix))
        if kind == "tangent":
            if dec is not None:
                return TangentStructure(matrix, _basis(dec, "kernel_basis"),
                                        _basis(dec, "complement_basis"))
            return TangentStructure(matrix, *kernel_and_complement(matrix))
        if kind == "symplectic":
            return SymplecticForm(matrix)
        if kind == "krein":
            if dec is not None:
                return KreinMetric(matrix, _basis(dec, "plus_basis"),
                                   _basis(dec, "minus_basis"))
            return krein_from_matrix(matrix)
        if kind == "cotangent":
            if dec is None:
                raise DocumentError("cotangent documents need a decomposition "
                                    "with lagrangian_basis and complement_basis")
            return CotangentStructure(SymplecticForm(matrix),
                                      _basis(dec, "lagrangian_basis"),
                                      _basis(dec, "complement_basis"))
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
        g = _matrix(given["g"], "pair document g")
        if flavor == "kahler":
            items.append(BilinearForm(g, "symmetric"))
        else:
            try:
                items.append(krein_from_matrix(g))
            except TensorStructError as exc:
                raise DocumentError(f"pair document: {exc}") from exc
    if "omega" in given:
        items.append(SymplecticForm(_matrix(given["omega"], "pair document omega")))
    if "structure" in given:
        items.append(parse_structure(given["structure"]))
    if len(items) != 2:
        raise DocumentError("pair document: exactly two of g, omega, structure "
                            "must be given")
    return items[0], items[1], flavor


def _parse_transition(doc, context):
    if "constant" in doc:
        return ConstantTransition(_matrix(doc["constant"], f"{context} transition"))
    if "affine" in doc:
        aff = doc["affine"]
        base = _matrix(_require(aff, "base", context), f"{context} transition")
        return AffineTransition(base, [_matrix(c, f"{context} transition")
                                       for c in _require(aff, "coeffs", context)])
    raise DocumentError(f"{context}: transition must be constant or affine")


def parse_atlas(doc):
    fiber_dim = _scalar(_require(doc, "fiber_dim", "atlas document"), "atlas fiber_dim",
                        integer=True)
    charts = []
    for cdoc in _require(doc, "charts", "atlas document"):
        charts.append(Chart(_require(cdoc, "name", "chart"),
                            _matrix(_require(cdoc, "lo", "chart"), "chart lo"),
                            _matrix(_require(cdoc, "hi", "chart"), "chart hi"),
                            _matrix(cdoc.get("samples", []), "chart samples")))
    names = [chart.name for chart in charts]

    def declared(odoc, count, context):
        """The chart names of an overlap or triple, all of declared charts."""
        pick = _require(odoc, "charts", context)
        if not isinstance(pick, list) or len(pick) != count or any(
                name not in names for name in pick):
            raise DocumentError(f"{context}: charts {pick!r} are not {count} "
                                f"declared chart names")
        return pick

    overlaps = {}
    transitions = {}
    for odoc in doc.get("overlaps", []):
        a, b = declared(odoc, 2, "overlap")
        overlaps[(a, b)] = _matrix(_require(odoc, "points", "overlap"), "overlap points")
        transitions[(a, b)] = _parse_transition(_require(odoc, "transition", "overlap"),
                                                "overlap")
    triples = []
    for tdoc in doc.get("triples", []):
        a, b, c = declared(tdoc, 3, "triple overlap")
        triples.append((a, b, c, _matrix(_require(tdoc, "points", "triple overlap"),
                                         "triple overlap points")))
    atlas = ChartAtlas(fiber_dim, charts, overlaps, transitions, triples)
    for a, b, c, _ in triples:
        # the cocycle condition T_ac = T_ab T_bc needs all three transitions
        for u, v in ((a, b), (b, c), (a, c)):
            if not atlas.has_transition(u, v):
                raise DocumentError(f"triple overlap {[a, b, c]!r}: no transition "
                                    f"declared between {u!r} and {v!r}")
    return atlas


def parse_tensor(doc):
    kind = _require(doc, "kind", "tensor document")
    if kind not in ("1,1", "2,0"):
        raise DocumentError(f"tensor document: unknown kind {kind!r}")
    matrix = _matrix(_require(doc, "matrix", "tensor document"), "tensor matrix")
    return IsotropyGroupSpec(StructureMatrix(matrix, kind, doc.get("symmetry", "symmetric")))


def field_step(doc, fd_step=None):
    """Finite-difference step of a field document: its own ``fd_step``,
    else ``fd_step``, else the package default; DocumentError unless it is
    positive."""
    if "fd_step" in doc:
        step = _scalar(doc["fd_step"], "fd_step")
    else:
        step = float(calculus.DEFAULT_FD_STEP if fd_step is None else fd_step)
    if not step > 0:
        raise DocumentError(f"fd_step must be positive, got {step!r}")
    return step


def parse_field(doc, fd_step=None):
    """Returns (tensor field, grid) from a field document."""
    dim = _scalar(_require(doc, "dim", "field document"), "field dim", integer=True)
    spec = _require(doc, "field", "field document")
    name = _require(spec, "name", "field document")
    step = field_step(doc, fd_step)

    if name == "constant":
        matrix = _matrix(_require(spec, "matrix", "constant field"), "constant field matrix")
        kind = spec.get("kind", "2,0")
        field = calculus.TensorFieldOnChart.constant(matrix, kind,
                                                     spec.get("symmetry", "symmetric"))
    elif name == "sphere_stereographic":
        if dim != 2:
            raise DocumentError("sphere_stereographic is two-dimensional")
        field = calculus.sphere_stereographic_metric(step=step)
    elif name == "pullback_flat":
        base = _matrix(_require(spec, "base_metric", "pullback field"), "base_metric")
        phi = _parse_polymap(spec, dim)
        field = calculus.pullback_metric(phi, base)
    elif name == "pullback_structure":
        base = _matrix(_require(spec, "base_matrix", "pullback field"), "base_matrix")
        phi = _parse_polymap(spec, dim)
        field = calculus.pullback_endomorphism(phi, base, step=step)
    else:
        raise DocumentError(f"field document: unknown field name {name!r}")

    gdoc = doc.get("grid", {})
    lo = _matrix(gdoc.get("lo", [-0.5] * dim), "grid lo")
    hi = _matrix(gdoc.get("hi", [0.5] * dim), "grid hi")
    counts = gdoc.get("counts", 5)
    if isinstance(counts, list):
        counts = [_scalar(c, "grid counts", integer=True) for c in counts]
    else:
        counts = _scalar(counts, "grid counts", integer=True)
    if np.any(np.asarray(counts) < 1):
        raise DocumentError(f"grid counts must be at least 1, got {counts!r}")
    try:
        grid = calculus.grid_points(lo, hi, counts)
    except ValueError as exc:
        raise DocumentError(f"field document grid: {exc}") from exc
    return field, grid


def _parse_polymap(spec, dim):
    comps_doc = _require(spec, "diffeo", "pullback field")
    comps = []
    for terms in _list(comps_doc, "diffeo"):
        coeffs = {}
        for term in _list(terms, "diffeo component"):
            *expo, coeff = _list(term, "diffeo term")
            if len(expo) != dim:
                raise DocumentError("diffeo term exponents must match dim")
            expo = tuple(_scalar(e, "diffeo exponent", integer=True) for e in expo)
            coeffs[expo] = _scalar(coeff, "diffeo coefficient")
        comps.append(Poly(dim, coeffs))
    if len(comps) != dim:
        raise DocumentError("diffeo needs one polynomial per coordinate")
    return calculus.PolyMap(comps)


def parse_tower(doc):
    variance = _require(doc, "variance", "tower document")
    dims = [_scalar(d, "tower dims", integer=True)
            for d in _list(_require(doc, "dims", "tower document"), "tower dims")]
    try:
        if "maps" in doc:
            maps = [_matrix(m, "tower map") for m in doc["maps"]]
            projections = None
            if "projections" in doc:
                projections = [_matrix(p, "tower projection") for p in doc["projections"]]
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
                [_matrix(m, "sequence level") for m in _require(sdoc, "levels", "sequence")],
                _require(sdoc, "kind", "sequence"))
        except (TensorStructError, ValueError) as exc:
            raise DocumentError(f"tower document: {exc}") from exc
    return bonding, sequence


def parse_connection_tower(doc):
    bonding, _ = parse_tower(doc)
    forms = []
    for fdoc in _require(doc, "forms", "connection document"):
        coeffs = [_matrix(c, "form coeffs") for c in _require(fdoc, "coeffs", "form")]
        linear = None
        if "linear" in fdoc:
            linear = [[_matrix(m, "form linear") for m in row] for row in fdoc["linear"]]
        try:
            forms.append(LevelForm(coeffs, linear))
        except (TensorStructError, ValueError) as exc:
            raise DocumentError(f"connection document: {exc}") from exc
    models = []
    for mdoc in _require(doc, "models", "connection document"):
        models.append((_require(mdoc, "kind", "model"),
                       _matrix(_require(mdoc, "matrix", "model"), "model matrix")))
    morphisms = None
    if "morphisms" in doc:
        morphisms = {}
        for mdoc in doc["morphisms"]:
            levels = _list(_require(mdoc, "levels", "morphism"), "morphism levels")
            if len(levels) != 2:
                raise DocumentError(f"morphism levels {levels!r} are not two levels")
            i, j = (_scalar(lvl, "morphism levels", integer=True) for lvl in levels)
            morphisms[(i, j)] = (
                _matrix(_require(mdoc, "left", "morphism"), "morphism left"),
                _matrix(_require(mdoc, "right", "morphism"), "morphism right"))
    if len(forms) != bonding.levels or len(models) != bonding.levels:
        raise DocumentError("connection document: one form and one model per level")
    for lvl, (form, (kind, model)) in enumerate(zip(forms, models)):
        # a form is evaluated on every tangent direction of its level
        dim = bonding.dims[lvl]
        if len(form.stack) < dim or (form.linear is not None and len(form.linear) < dim):
            raise DocumentError(f"connection document: form {lvl} needs a coefficient "
                                f"matrix per direction of its level, {dim}")
        if form.dim != dim or model.shape != (dim, dim) or kind not in ("1,1", "2,0"):
            raise DocumentError(f"connection document: level {lvl} needs {dim}x{dim} "
                                f"form values and a {dim}x{dim} model of kind 1,1 or 2,0")
    seq = ConnectionFormSequence(bonding, forms, models, morphisms)
    points = _matrix(_require(doc, "sample_points", "connection document"),
                     "sample_points")
    return seq, points


def parse_loop(doc):
    tdoc = _require(doc, "target", "loop document")
    if "pairs" in tdoc:
        pairs = _scalar(tdoc["pairs"], "loop target pairs", integer=True)
        if pairs < 1:
            raise DocumentError(f"loop target: pairs must be at least 1, got {pairs}")
        flavor = tdoc.get("flavor", "kahler")
        target = (block_kahler_target(pairs) if flavor == "kahler"
                  else block_para_target(pairs))
    else:
        first, second, flavor = parse_pair(_require(tdoc, "pair", "loop target"))
        target = complete_triple(first, second, flavor)
    loop = _matrix(_require(doc, "loop", "loop document"), "loop")
    weights = None
    if "weights" in doc:
        weights = _matrix(doc["weights"], "loop weights")
    try:
        space = DiscretizedLoopSpace(target, loop, weights)
    except (TensorStructError, ValueError) as exc:
        raise DocumentError(f"loop document: {exc}") from exc
    tangents = None
    if "tangents" in doc:
        tangents = (_matrix(_require(doc["tangents"], "x", "tangents"), "tangent x"),
                    _matrix(_require(doc["tangents"], "y", "tangents"), "tangent y"))
    return space, tangents
