"""JSON documents of the batch front end: one declarative schema per kind.

The schemas below (``STRUCTURE``, ``PAIR``, ``ATLAS``, ``TENSOR``,
``FIELD``, ``TOWER``, ``CONNECTION``, ``LOOP``) are the reference for the
document formats.  ``check`` walks a document against its schema and
returns the checked values: numeric leaves become float arrays (or Python
numbers), objects keep only the fields their schema names, so unknown keys
are ignored.  Each ``parse_*`` only builds objects from checked values;
a build that needs a numerical verdict (a Krein splitting, a canonical
decomposition) takes it under the caller's ``tol``, and its
``InvalidInput`` reaches the caller.  Only three builds turn a rejection
into a ``DocumentError``: those whose failure is a fault of the document
itself (see ``_building``).

Array shapes are written in symbolic sizes such as ``n``, ``dim``,
``fiber_dim``, ``base`` or ``dims[i]``.  A size expression is
``[k*]name[[index[+o]]][+c|-c]``: a plain name is bound on first sight and
must agree on every later use; ``dims[i]`` reads entry ``i`` (the position
in the enclosing list, or a value bound by ``bind``) of the list ``dims``.
A caller may pin a size to a number or to another expression, so
``n="2*half"`` asks for an even dimension.  Every violation raises
``DocumentError`` with the JSON path of the offending value.

The schemas read only the vocabularies of ``structures`` (``KINDS``,
``SYMMETRIES``, ``FLAVORS``, ``VARIANCES``).  Each parser imports the
module whose objects it builds when it is called: ``parse_atlas`` loads
``bundle``, ``parse_field`` ``calculus`` and ``poly``, ``parse_tower`` and
``parse_connection_tower`` ``limits``, ``parse_loop`` ``loopspace`` and
``compat``; so reading a document loads only what its check needs.
"""

from __future__ import annotations

import functools
import re
from contextlib import contextmanager
from reprlib import repr as _repr  # abbreviates long values in messages

import numpy as np

from .errors import TensorStructError
from .linalg import Tolerance, involution_eigenbases, kernel_and_complement
from .structures import (
    FLAVORS,
    KINDS,
    SYMMETRIES,
    VARIANCES,
    BilinearForm,
    ComplexStructure,
    CotangentStructure,
    KreinMetric,
    ParaComplexStructure,
    StructureMatrix,
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


# ---------------------------------------------------------------------------
# schema nodes and the walker
# ---------------------------------------------------------------------------

_SIZE = re.compile(r"(?:(\d+)\*)?(\w+)(?:\[(-?\w+)(?:\+(\d+))?\])?([+-]\d+)?")


@functools.cache
def _parsed(expr):
    """The parts ``(k, name, index, offset, shift)`` of the size expression
    ``expr``, parsed once per string: ``k``, ``offset`` and ``shift`` as
    numbers (1, 0 and 0 when absent), ``index`` as a number, a name or
    None."""
    k, name, index, offset, shift = _SIZE.fullmatch(expr).groups()
    if index is not None and index.lstrip("-").isdigit():
        index = int(index)
    return int(k or 1), name, index, int(offset or 0), int(shift or 0)


def _unify(expr, size, env):
    """None when ``size`` agrees with the size expression ``expr``, else
    what the expression wants.  Binds an unbound plain name in ``env``."""
    while isinstance(env.get(expr), str):  # a size pinned to an expression
        expr = env[expr]
    bound = expr if isinstance(expr, int) else env.get(expr)
    if isinstance(bound, int):  # a number, or a name bound before
        return None if size == bound else f"want {bound}"
    k, name, index, offset, shift = _parsed(expr)
    if index is not None:
        entries = env[name]
        at = (index if isinstance(index, int) else env[index]) + offset
        if not -len(entries) <= at < len(entries):
            return f"{name} has no entry {at}"
        want = k * entries[at] + shift
    elif name in env:
        want = k * env[name] + shift
    elif size >= shift and (size - shift) % k == 0:
        env[name] = (size - shift) // k
        return None
    else:
        return f"want {expr}"
    return None if size == want else f"want {expr} = {want}"


class Num:
    """A JSON number (no ``shape``) or an array of numbers of the given
    symbolic ``shape``, where ``None`` leaves an axis free; an empty list
    is an array with no rows when the first axis is free.  ``integer`` asks
    for whole numbers (an index such as ``np.s_[..., :-1]`` selects which
    entries), ``least`` and ``positive`` bound every entry, ``scalar`` also
    accepts one number.  ``bind`` names the size a whole number gives, or
    the names an integer array's entries are bound to (one name takes the
    list).  Booleans are numbers only inside arrays of reals."""

    def __init__(self, *shape, integer=False, least=None, positive=False, scalar=False,
                 bind=None):
        self.shape, self.integer, self.least, self.positive = shape, integer, least, positive
        self.scalar, self.bind = scalar, bind
        self.rule = f"at least {least}" if least is not None else positive and "positive"

    def walk(self, value, path, env):
        try:
            arr = np.asarray(value)
        except ValueError:  # ragged nesting
            arr = np.asarray(None)
        if arr.dtype.kind not in ("iuf" if self.integer is True or not self.shape else "biuf"):
            raise DocumentError(f"{path}: expected numbers, got {_repr(value)}")
        arr = arr.astype(float, copy=False)
        if arr.size == 0 and arr.ndim == 1 and self.shape[:1] == (None,):
            arr = arr.reshape((0,) * len(self.shape))
        elif arr.ndim != len(self.shape) and not (self.scalar and arr.ndim == 0):
            raise DocumentError(f"{path}: expected shape {self.shape}, got {arr.shape}")
        elif arr.ndim:
            for axis, (expr, size) in enumerate(zip(self.shape, arr.shape)):
                if expr is not None and (problem := _unify(expr, size, env)):
                    raise DocumentError(f"{path}: shape {arr.shape} does not match "
                                        f"{self.shape} on axis {axis}: {problem}")
        if self.rule and not (arr >= self.least if self.least is not None else arr > 0).all():
            raise DocumentError(f"{path}: {path.rpartition('.')[2]} must be {self.rule}, "
                                f"got {_repr(value)}")
        if not np.isfinite(arr).all():
            raise DocumentError(f"{path}: entries are not finite")
        if self.integer is not False:
            whole = arr if self.integer is True else arr[self.integer]
            if not (whole == np.round(whole)).all():
                raise DocumentError(f"{path}: expected whole numbers, got {_repr(value)}")
        if not self.shape:
            value = int(arr) if self.integer else float(arr)
            if self.bind is not None and (problem := _unify(self.bind, value, env)):
                raise DocumentError(f"{path}: got {value}, {problem}")
            return value
        if self.bind is not None:
            env.update(zip(self.bind, arr.astype(int).tolist()) if isinstance(self.bind, tuple)
                       else {self.bind: arr.astype(int).tolist()})
        return arr


# compiled polynomials hold exponents as int64; a pullback metric's terms
# are products of two Jacobian terms, whose exponents can reach 2**63 in
# one variable, and ``calculus.pullback_metric`` rejects those
_MAX_EXPONENT = 2**62


class _Terms(Num):
    """Polynomial terms ``[exponents..., coefficient]``, one per row, in
    ``dim`` variables: exponents are whole numbers from 0 to 2**62, and no
    two terms share their exponents.  Returns ``{exponents: coefficient}``
    in document order."""

    def __init__(self):
        super().__init__(None, "dim+1", integer=np.s_[..., :-1])

    def walk(self, value, path, env):
        terms, rows = {}, {}
        for row, term in enumerate(super().walk(value, path, env).tolist()):
            expo = tuple(map(int, term[:-1]))
            if min(expo) < 0:
                raise DocumentError(f"{path}[{row}]: exponents must be at least 0, "
                                    f"got {list(expo)}")
            if max(expo) > _MAX_EXPONENT:
                raise DocumentError(f"{path}[{row}]: exponents must be at most 2**62, "
                                    f"got {term[:-1]}")
            if expo in terms:
                raise DocumentError(f"{path}[{rows[expo]}] and {path}[{row}]: "
                                    f"repeated exponents {list(expo)}")
            terms[expo], rows[expo] = term[-1], row
        return terms


class Str:
    """A JSON string, one of ``choices`` when given.  ``declares`` adds it
    to a set of names, which must not hold it yet; ``declared`` requires it
    to be in one."""

    def __init__(self, *choices, declares=None, declared=None):
        self.choices, self.declares, self.declared = choices, declares, declared

    def walk(self, value, path, env):
        if not isinstance(value, str):
            raise DocumentError(f"{path}: expected a string, got {_repr(value)}")
        if self.choices and value not in self.choices:
            raise DocumentError(f"{path}: expected one of {list(self.choices)}, got {value!r}")
        if self.declared is not None and value not in env.get(self.declared, ()):
            raise DocumentError(f"{path}: {value!r} is not a declared {self.declared} name")
        if self.declares is not None:
            names = env.setdefault(self.declares, {})  # name: path of its declaration
            if value in names:
                raise DocumentError(f"{names[value]} and {path}: repeated {self.declares} "
                                    f"name {value!r}")
            names[value] = path
        return value


class Each:
    """A JSON list of ``item``s, ``length`` long when given; ``index``
    names the position of the item being checked."""

    def __init__(self, item, length=None, index=None):
        self.item, self.length, self.index = item, length, index

    def walk(self, value, path, env):
        if not isinstance(value, list):
            raise DocumentError(f"{path}: expected a list, got {_repr(value)}")
        if self.length is not None and (problem := _unify(self.length, len(value), env)):
            raise DocumentError(f"{path}: has {len(value)} entries, {problem}")
        out = []
        for position, item in enumerate(value):
            if self.index is not None:
                env[self.index] = position
            out.append(self.item.walk(item, f"{path}[{position}]", env))
        return out


class Obj:
    """A JSON object.  ``fields`` maps each name to its schema, checked in
    order; a name ending in ``?`` is optional.  ``pick=(k, names)`` asks for
    exactly k of those optional names; ``sizes`` pins sizes on entry."""

    def __init__(self, fields, pick=None, sizes=None):
        self.fields = {key.rstrip("?"): (node, not key.endswith("?"))
                       for key, node in fields.items()}
        self.pick, self.sizes = pick, sizes or {}

    def walk(self, value, path, env):
        if not isinstance(value, dict):
            raise DocumentError(f"{path}: expected an object, got {_repr(value)}")
        for name, size in self.sizes.items():
            if _unify(name, size, env):
                raise DocumentError(f"{path}: needs {name} = {size}")
        if self.pick and len(given := [k for k in self.pick[1] if k in value]) != self.pick[0]:
            raise DocumentError(f"{path}: exactly {self.pick[0]} of {list(self.pick[1])} must "
                                f"be given, got {given}")
        out = {}
        for key, (node, required) in self.fields.items():
            if key in value:
                out[key] = node.walk(value[key], f"{path}.{key}", env)
            elif required:
                raise DocumentError(f"{path}: missing field {key!r}")
        return out


class Case:
    """A JSON object whose schema is chosen by its string field ``key``."""

    def __init__(self, key, variants):
        self.key, self.variants = key, variants
        self.tag = Obj({key: Str(*variants)})

    def walk(self, value, path, env):
        tag = self.tag.walk(value, path, env)[self.key]
        return dict(self.variants[tag].walk(value, path, env), **{self.key: tag})


def check(doc, schema, **sizes):
    """The checked values of ``doc``; ``sizes`` pins sizes of the schema
    (None pins nothing)."""
    return schema.walk(doc, "$", {name: v for name, v in sizes.items() if v is not None})


# ---------------------------------------------------------------------------
# the schemas
# ---------------------------------------------------------------------------

KIND = Str(*KINDS)
SYMMETRY = Str(*SYMMETRIES)
FLAVOR = Str(*FLAVORS)
_MATRIX = {"matrix": Num("n", "n"), "dim?": Num(integer=True, least=1, bind="n")}


def _decomposed(*bases, optional="?"):
    # basis vectors, one per row
    return Obj({**_MATRIX, "decomposition" + optional: Obj(dict.fromkeys(bases, Num(None, "n")))})


STRUCTURE = Case("kind", {
    "complex": Obj({**_MATRIX, "decomposition?": Obj(
        {"basis1": Num("k", "n"), "basis2": Num("k", "n"), "iso": Num("k", "k")})}),
    "para_complex": _decomposed("eigen_plus", "eigen_minus"),
    "tangent": _decomposed("kernel_basis", "complement_basis"),
    "symplectic": Obj(_MATRIX),
    "krein": _decomposed("plus_basis", "minus_basis"),
    "cotangent": _decomposed("lagrangian_basis", "complement_basis", optional=""),
    "bilinear": Obj({**_MATRIX, "symmetry?": SYMMETRY}),
})

PAIR = Obj({"flavor?": FLAVOR, "given": Obj(
    {"g?": Num("n", "n"), "omega?": Num("n", "n"), "structure?": STRUCTURE},
    pick=(2, ("g", "omega", "structure")))})

_POINTS = Num(None, "base")
ATLAS = Obj({
    "fiber_dim": Num(integer=True, least=1, bind="fiber_dim"),
    "charts": Each(Obj({"name": Str(declares="chart"), "lo": Num("base"), "hi": Num("base"),
                        "samples?": _POINTS})),
    "base_dim?": Num(integer=True, least=1, bind="base"),
    "overlaps?": Each(Obj({"charts": Each(Str(declared="chart"), length=2), "points": _POINTS,
                           "transition": Obj({
                               "constant?": Num("fiber_dim", "fiber_dim"),
                               "affine?": Obj({"base": Num("fiber_dim", "fiber_dim"),
                                               "coeffs": Num("base", "fiber_dim", "fiber_dim")}),
                           }, pick=(1, ("constant", "affine")))})),
    "triples?": Each(Obj({"charts": Each(Str(declared="chart"), length=3), "points": _POINTS})),
})

TENSOR = Obj({"kind": KIND, "matrix": Num("fiber_dim", "fiber_dim"), "symmetry?": SYMMETRY})

# per coordinate, a list of terms [exponents..., coefficient]
_DIFFEO = Each(_Terms(), length="dim")
FD_STEP = Num(positive=True)
FIELD = Obj({
    "dim": Num(integer=True, least=1, bind="dim"),
    "field": Case("name", {
        # parse_field pins rank to dim unless it is given
        "constant": Obj({"matrix": Num("rank", "rank"), "kind?": KIND, "symmetry?": SYMMETRY}),
        "sphere_stereographic": Obj({}, sizes={"dim": 2}),
        "pullback_flat": Obj({"base_metric": Num("dim", "dim"), "diffeo": _DIFFEO}),
        "pullback_structure": Obj({"base_matrix": Num("dim", "dim"), "diffeo": _DIFFEO}),
    }),
    "grid?": Obj({"lo?": Num("dim"), "hi?": Num("dim"),
                  "counts?": Num("dim", integer=True, least=1, scalar=True)}),
    "fd_step?": FD_STEP,
})


def _tower(variance, connection=False):
    """Projective maps go down, (dims[i], dims[i+1]); direct maps go up and
    projections down.  A connection tower's sample points live on its top
    level when projective and its bottom level when direct, and a morphism
    (L, R) of levels (i, j) maps W to L W R."""
    down, up, links = ("dims[i]", "dims[i+1]"), ("dims[i+1]", "dims[i]"), "levels-1"
    maps = {"maps?": Each(Num(*down), links, "i")} if variance == "projective" else {
        "maps?": Each(Num(*up), links, "i"), "projections?": Each(Num(*down), links, "i")}
    # L W R carries a level-j value to level i on projective towers and a
    # level-i value to level j on direct ones
    d, (a, b) = "dims[i]", ("ij" if variance == "projective" else "ji")
    per_level = {
        "forms": Each(Obj({"coeffs": Num(d, d, d), "linear?": Num(d, d, d, d)}), "levels", "i"),
        "models": Each(Obj({"kind": KIND, "matrix": Num(d, d)}), "levels", "i"),
        "sample_points": Num("points", "dims[-1]" if variance == "projective" else "dims[0]"),
        "morphisms?": Each(Obj({"levels": Num(2, integer=True, least=0, bind=("i", "j")),
                                "left": Num(f"dims[{a}]", f"dims[{b}]"),
                                "right": Num(f"dims[{b}]", f"dims[{a}]")}))}
    return Obj({"dims": Num("levels", integer=True, least=0, bind="dims"), **maps,
                "sequence?": Obj({"kind": KIND, "levels": Each(Num(d, d), "levels", "i")}),
                **(per_level if connection else {})})


TOWER = Case("variance", {v: _tower(v) for v in VARIANCES})
CONNECTION = Case("variance", {v: _tower(v, connection=True) for v in VARIANCES})

# parse_loop pins n to 2*half: a target of `pairs` pairs has dimension 2*pairs
LOOP = Obj({
    "target": Obj({"pairs?": Num(integer=True, least=1, bind="half"), "flavor?": FLAVOR,
                   "pair?": PAIR}, pick=(1, ("pairs", "pair"))),
    "loop": Num("points", "n"),
    "weights?": Num("points", positive=True),
    "tangents?": Obj({"x": Num("points", "n"), "y": Num("points", "n")}),
})


# ---------------------------------------------------------------------------
# parsers: objects from checked values
# ---------------------------------------------------------------------------

@contextmanager
def _building(what):
    """Report a construction that rejects checked values as a DocumentError.

    It wraps only the three builds whose rejection is a fault of the
    document itself, never a numerical verdict: a diffeo whose pullback
    exponents leave the int64 range, tower ``dims`` that decrease, and loop
    weights that do not sum to one.  Every other build runs under the
    caller's ``tol``, and its ``InvalidInput`` reaches the caller."""
    try:
        yield
    except (TensorStructError, ValueError) as exc:
        raise DocumentError(f"{what}: {exc}") from exc


# kind: (class, the decomposition it takes when a document gives none)
_CANONICAL = {"para_complex": (ParaComplexStructure, involution_eigenbases),
              "tangent": (TangentStructure, kernel_and_complement)}


def _build_structure(v, tol):
    kind, matrix, dec = v["kind"], v["matrix"], v.get("decomposition")
    bases = dec and [basis.T for name, basis in dec.items() if name != "iso"]
    if kind in _CANONICAL:
        cls, canonical = _CANONICAL[kind]
        return cls(matrix, *(bases or canonical(matrix, tol)))
    if kind == "complex":
        return ComplexStructure(matrix, dec and (*bases, dec["iso"]))
    if kind == "krein":
        return KreinMetric(matrix, *bases) if dec else krein_from_matrix(matrix, tol)
    if kind == "cotangent":
        return CotangentStructure(SymplecticForm(matrix), *bases)
    if kind == "symplectic":
        return SymplecticForm(matrix)
    return BilinearForm(matrix, v.get("symmetry", "symmetric"))


def parse_structure(doc, tol: Tolerance, even=False):
    """A structure, its decompositions found under ``tol``; ``even`` asks
    for an even dimension."""
    return _build_structure(check(doc, STRUCTURE, n="2*half" if even else None), tol)


def _build_pair(v, tol):
    build = {"g": lambda g: BilinearForm(g, "symmetric"), "omega": SymplecticForm,
             "structure": lambda doc: _build_structure(doc, tol)}
    first, second = (build[name](value) for name, value in v["given"].items())
    return first, second, v.get("flavor", "kahler")


def parse_pair(doc, tol: Tolerance):
    """Returns (first, second, flavor) ready for compat.complete_pair; a
    given structure is built under ``tol``, and the metric is judged by
    the completion."""
    return _build_pair(check(doc, PAIR), tol)


def parse_atlas(doc):
    from . import bundle

    v = check(doc, ATLAS)
    if v["charts"] and not v["charts"][0]["lo"].size:
        raise DocumentError("$.charts[0].lo: a chart needs at least 1 coordinate, got []")
    overlaps, transitions, rows = {}, {}, {}
    for row, o in enumerate(v.get("overlaps", [])):
        pair, t = tuple(o["charts"]), o["transition"]
        if pair in rows:
            raise DocumentError(f"$.overlaps[{rows[pair]}].charts and $.overlaps[{row}].charts: "
                                f"repeated overlap {list(pair)!r}")
        overlaps[pair], rows[pair] = o["points"], row
        transitions[pair] = (bundle.ConstantTransition(t["constant"]) if "constant" in t
                             else bundle.AffineTransition(t["affine"]["base"],
                                                          t["affine"]["coeffs"]))
    triples = [(*t["charts"], t["points"]) for t in v.get("triples", [])]
    atlas = bundle.ChartAtlas(v["fiber_dim"], [bundle.Chart(**c) for c in v["charts"]],
                              overlaps, transitions, triples)
    paths = {}  # triple: the path of its first declaration
    for row, (a, b, c, _) in enumerate(triples):
        path = f"$.triples[{row}].charts"
        if paths.setdefault((a, b, c), path) != path:
            raise DocumentError(f"{paths[a, b, c]} and {path}: repeated triple {[a, b, c]!r}")
        # the cocycle condition T_ac = T_ab T_bc needs all three transitions
        for u, w in ((a, b), (b, c), (a, c)):
            if not atlas.has_transition(u, w):
                raise DocumentError(f"{path}: triple overlap {[a, b, c]!r} has no "
                                    f"transition declared between {u!r} and {w!r}")
    return atlas


def parse_tensor(doc, fiber_dim):
    """A model tensor on a fiber of dimension ``fiber_dim``."""
    v = check(doc, TENSOR, fiber_dim=fiber_dim)
    return StructureMatrix(v["matrix"], v["kind"], v.get("symmetry", "symmetric"))


def field_step(doc, fd_step=None):
    """Finite-difference step of a field document: its own ``fd_step``,
    else ``fd_step``, else the package default; DocumentError unless it is
    positive."""
    from . import calculus

    step = doc.get("fd_step", calculus.DEFAULT_FD_STEP if fd_step is None else fd_step)
    return FD_STEP.walk(step, "$.fd_step", {})


def parse_field(doc, fd_step=None, rank="dim"):
    """Returns (tensor field, grid) from a field document.  A constant
    field's matrix is ``rank`` x ``rank``: the base dimension, or a number
    such as the fiber dimension of the atlas the field lives on."""
    from . import calculus, poly

    v = check(doc, FIELD, rank=rank)
    dim, spec, step = v["dim"], v["field"], field_step(v, fd_step)
    if spec["name"] == "constant":
        field = calculus.TensorFieldOnChart.constant(spec["matrix"], spec.get("kind", "2,0"))
    elif spec["name"] == "sphere_stereographic":
        field = calculus.sphere_stereographic_metric(step=step)
    else:
        phi = calculus.PolyMap([poly.Poly(dim, terms) for terms in spec["diffeo"]])
        with _building("$.field.diffeo"):
            field = (calculus.pullback_metric(phi, spec["base_metric"])
                     if spec["name"] == "pullback_flat"
                     else calculus.pullback_endomorphism(phi, spec["base_matrix"], step=step))
    grid = v.get("grid", {})
    return field, calculus.grid_points(grid.get("lo", [-0.5] * dim),
                                       grid.get("hi", [0.5] * dim), grid.get("counts", 5))


def _build_bonding(v):
    from . import limits

    with _building("tower document"):
        if "maps" in v:
            return limits.BondingSystem(v["dims"], v["variance"], v["maps"],
                                        v.get("projections"))
        return limits.BondingSystem.padded(v["dims"], v["variance"])


def parse_tower(doc):
    from . import limits

    v = check(doc, TOWER)
    bonding, seq = _build_bonding(v), v.get("sequence")
    return bonding, seq and limits.CoherentSequence(bonding, seq["levels"], seq["kind"])


def parse_connection_tower(doc):
    from . import limits

    v = check(doc, CONNECTION)
    forms = [limits.LevelForm(f["coeffs"], f.get("linear")) for f in v["forms"]]
    morphisms = None
    if "morphisms" in v:
        morphisms = {tuple(m["levels"].astype(int).tolist()): (m["left"], m["right"])
                     for m in v["morphisms"]}
    models = [StructureMatrix(m["matrix"], m["kind"]) for m in v["models"]]
    seq = limits.ConnectionFormSequence(_build_bonding(v), forms, models, morphisms)
    return seq, v["sample_points"]


def parse_loop(doc, tol: Tolerance):
    """Returns (loop space, tangents or None) from a loop document; a
    ``pairs`` or ``pair`` target is completed under ``tol``."""
    from . import compat, loopspace

    v = check(doc, LOOP, n="2*half")
    target = v["target"]
    if "pairs" in target:
        target = loopspace.block_target(target["pairs"], target.get("flavor", "kahler"), tol)[0]
    else:
        target = compat.complete_triple(*_build_pair(target["pair"], tol), tol=tol)
    with _building("loop document"):
        space = loopspace.DiscretizedLoopSpace(target, v["loop"], v.get("weights"))
    tangents = v.get("tangents")
    return space, tangents and (tangents["x"], tangents["y"])
