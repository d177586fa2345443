"""Projective and direct towers of spaces, tensors and connection forms.

A bonding system is a finite family of levels with linear maps between
them: surjections going down for projective towers, injections going up
for direct towers (the latter with complementary projections).  Levels are
0-indexed; non-consecutive maps are generated by composition from the
consecutive ones and must satisfy the composition laws

    projective:  map(i,j) o map(j,k) = map(i,k)           (maps d_j -> d_i)
    direct:      map(j,k) o map(i,j) = map(i,k)           (maps d_i -> d_j)
    direct:      proj(i,j) o map(i,j) = Id,  proj(i,j) o proj(j,k) = proj(i,k)

Coherence of a per-level tensor sequence depends on variance and kind:

    projective (1,1):  A_i map(i,j) = map(i,j) A_j
    direct     (1,1):  map(i,j) A_i = A_j map(i,j)
    projective (2,0):  S_j = map(i,j)^T S_i map(i,j)
    direct     (2,0):  S_i = map(i,j)^T S_j map(i,j)

All checks quantify over the supplied levels and report that count; the
infinite limit object is represented exactly by its levelwise conditions.

Composite tables.  ``BondingSystem.map_table()`` returns every composite
map at once, ``table[i][j] = map(i, j)`` for i <= j: row i starts at the
identity and entry j is one product of entry j-1 with the consecutive map
``maps[j-1]``, so a tower of n levels costs about n^2/2 products instead
of the O(n) per composite that rebuilding each one takes.
``projection_table()`` does the same for projections, column by column
from the identity at level j downwards.  ``map`` and ``projection`` read
one entry of the same row or column, so each table entry is bit-identical
to the single composite.  The checks over pairs and triples
(``validate_bonding``, ``check_coherent``, ``tuple_membership``,
``check_connection_coherence``) build the tables once per call and then
only index into them; ``gEn_membership``, which reads only the composites
into and out of the top level, builds the one projection column it needs.
Nothing is cached on the tower, which stays a plain mutable dataclass.

Connection towers.  ``check_connection_coherence`` evaluates every sample
at once: the (sample point, tangent direction) pairs form one axis of rows,
``LevelForm.at`` evaluates a level's form on all rows in one stacked call,
and each level and each pair of levels costs a fixed number of numpy calls
whatever the number of samples.  Every product is the one the per-sample
evaluation made, row by row, so reports are bit-identical to it.  A NaN
residual (an overflow to inf - inf, say) is the worst residual of its
entry and fails it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bundle import IsotropyGroupSpec, StructureMatrix, in_isotropy
from .errors import (
    IncoherentSequence,
    NotInvertible,
    NotMember,
    ShapeMismatch,
    Singular,
)
from .linalg import DEFAULT_TOL, Tolerance, as_matrix, fro, rank_of
from .report import Report

__all__ = [
    "BondingSystem",
    "CoherentSequence",
    "LevelTuple",
    "ConnectionFormSequence",
    "validate_bonding",
    "check_coherent",
    "limit_eval",
    "tuple_compose",
    "tuple_inverse",
    "tuple_membership",
    "tuple_project",
    "gEn_membership",
    "theta_projection",
    "check_connection_coherence",
]


@dataclass
class BondingSystem:
    """Finite tower of levels joined by consecutive linear maps.

    ``maps[i]`` joins levels i and i+1: shape (dims[i], dims[i+1]) for the
    projective variant (a surjection down) and (dims[i+1], dims[i]) for the
    direct variant (an injection up).  Direct systems carry complementary
    projections ``projections[i]`` of shape (dims[i], dims[i+1]).
    """

    dims: list
    variance: str  # "projective" | "direct"
    maps: list = field(default_factory=list)
    projections: Optional[list] = None

    def __post_init__(self):
        self.dims = [int(d) for d in self.dims]
        if self.variance not in ("projective", "direct"):
            raise ValueError(f"unknown variance {self.variance!r}")
        if any(a > b for a, b in zip(self.dims, self.dims[1:])):
            raise ShapeMismatch("dims must be nondecreasing")
        self.maps = [as_matrix(m) for m in self.maps]
        if len(self.maps) != self.levels - 1:
            raise ShapeMismatch(
                f"need {self.levels - 1} consecutive maps, got {len(self.maps)}")
        for i, m in enumerate(self.maps):
            want = ((self.dims[i], self.dims[i + 1]) if self.variance == "projective"
                    else (self.dims[i + 1], self.dims[i]))
            if m.shape != want:
                raise ShapeMismatch(f"map {i}->{i + 1} has shape {m.shape}, want {want}")
        if self.projections is not None:
            self.projections = [as_matrix(p) for p in self.projections]
            for i, p in enumerate(self.projections):
                want = (self.dims[i], self.dims[i + 1])
                if p.shape != want:
                    raise ShapeMismatch(
                        f"projection {i + 1}->{i} has shape {p.shape}, want {want}")
        elif self.variance == "direct" and self._maps_are_padding():
            self.projections = [
                np.eye(self.dims[i + 1])[: self.dims[i]] for i in range(self.levels - 1)
            ]

    def _maps_are_padding(self):
        for i, m in enumerate(self.maps):
            pad = np.zeros((self.dims[i + 1], self.dims[i]))
            pad[: self.dims[i], :] = np.eye(self.dims[i])
            if not np.array_equal(m, pad):
                return False
        return True

    @classmethod
    def padded(cls, dims, variance):
        """Canonical tower: coordinate padding up / leading-block projection down."""
        dims = [int(d) for d in dims]
        maps = []
        for a, b in zip(dims, dims[1:]):
            if variance == "projective":
                maps.append(np.eye(b)[:a])
            else:
                pad = np.zeros((b, a))
                pad[:a, :] = np.eye(a)
                maps.append(pad)
        return cls(dims, variance, maps)

    @property
    def levels(self):
        return len(self.dims)

    def map(self, i, j):
        """Composite bonding map between levels i <= j (identity at i == j)."""
        self._check_levels(i, j)
        return self._maps_from(i, j)[j]

    def projection(self, i, j):
        """Composite projection from level j down to i (direct variant)."""
        self._check_projections()
        self._check_levels(i, j)
        return self._projections_onto(j, i)[i]

    def map_table(self, levels=None):
        """Every composite map of the first ``levels`` levels (default all):
        ``table[i][j]`` is ``map(i, j)`` for i <= j and None below."""
        top = self.levels - 1 if levels is None else levels - 1
        return [self._maps_from(i, top) for i in range(top + 1)]

    def projection_table(self):
        """Every composite projection: ``table[i][j]`` is ``projection(i, j)``
        for i <= j and None below."""
        self._check_projections()
        n = self.levels
        columns = [self._projections_onto(j, 0) for j in range(n)]
        return [[columns[j][i] if i <= j else None for j in range(n)] for i in range(n)]

    def _check_levels(self, i, j):
        if not 0 <= i <= j < self.levels:
            raise ShapeMismatch(f"levels ({i}, {j}) out of range")

    def _check_projections(self):
        if self.variance != "direct":
            raise ShapeMismatch("projections only exist for direct systems")
        if self.projections is None:
            raise ShapeMismatch("no projections supplied and maps are not padding")

    def _maps_from(self, i, last):
        """``row[j]`` is map(i, j) for i <= j <= last (None below i); each
        entry is one product of the entry before it and one consecutive map."""
        row = [None] * i + [np.eye(self.dims[i])]
        if last > i:
            row.append(self.maps[i])
        for k in range(i + 1, last):
            if self.variance == "projective":
                row.append(row[-1] @ self.maps[k])  # maps[i] ... maps[k]
            else:
                row.append(self.maps[k] @ row[-1])  # maps[k] ... maps[i]
        return row

    def _projections_onto(self, j, first):
        """``column[i]`` is projection(i, j) for first <= i <= j (None below
        first), built downwards from the identity at j, one product each."""
        column = [np.eye(self.dims[j])]
        for k in range(j - 1, first - 1, -1):
            column.append(self.projections[k] @ column[-1])
        return [None] * first + column[::-1]


def validate_bonding(b: BondingSystem, tol: Tolerance = DEFAULT_TOL) -> Report:
    """Composition laws, identity maps, surjectivity/injectivity, sections."""
    report = Report()
    n = b.levels
    report.note(f"{n} levels supplied; all checks quantify over them")
    maps = b.map_table()

    for i in range(n):
        res = fro(maps[i][i] - np.eye(b.dims[i]))
        report.add(f"identity_at[{i}]", tol.accepts(res, 1.0), res)

    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                if b.variance == "projective":
                    lhs = maps[i][j] @ maps[j][k]
                else:
                    lhs = maps[j][k] @ maps[i][j]
                res = fro(lhs - maps[i][k])
                # the scale is at least 1, so a residual accepted at scale 1
                # is accepted at it too: compute it only when that fails
                report.add(f"composition[{i},{j},{k}]",
                           tol.accepts(res) or tol.accepts(res, max(fro(lhs), 1.0)),
                           res)

    for i in range(n - 1):
        m = b.maps[i]
        full = rank_of(m, tol) == min(m.shape)
        name = "surjective" if b.variance == "projective" else "injective"
        report.add(f"{name}[{i}->{i + 1}]", full, 0.0 if full else 1.0)

    if b.variance == "direct" and b.projections is not None:
        projs = b.projection_table()
        for i in range(n - 1):
            for j in range(i + 1, n):
                sec = fro(projs[i][j] @ maps[i][j] - np.eye(b.dims[i]))
                report.add(f"section[{i},{j}]", tol.accepts(sec, 1.0), sec)
        for i in range(n):
            for j in range(i, n):
                for k in range(j, n):
                    lhs = projs[i][j] @ projs[j][k]
                    res = fro(lhs - projs[i][k])
                    report.add(f"projection_composition[{i},{j},{k}]",
                               tol.accepts(res)
                               or tol.accepts(res, max(fro(lhs), 1.0)), res)
    return report


@dataclass
class CoherentSequence:
    """One structure matrix per level, intertwined by the bonding maps."""

    bonding: BondingSystem
    levels: list
    kind: str  # "1,1" | "2,0"

    def __post_init__(self):
        if self.kind not in ("1,1", "2,0"):
            raise ValueError(f"unknown tensor kind {self.kind!r}")
        self.levels = [as_matrix(m, square=True) for m in self.levels]
        if len(self.levels) != self.bonding.levels:
            raise ShapeMismatch(
                f"{len(self.levels)} matrices for {self.bonding.levels} levels")
        for lvl, m in enumerate(self.levels):
            if m.shape[0] != self.bonding.dims[lvl]:
                raise ShapeMismatch(
                    f"level {lvl} matrix is {m.shape[0]}x, dim is {self.bonding.dims[lvl]}")


def _coherence_residual(variance, kind, lam, a_i, a_j):
    """Defect of the variance/kind intertwining law between levels i < j,
    joined by the composite map ``lam`` = map(i, j)."""
    if variance == "projective":
        if kind == "1,1":
            return fro(a_i @ lam - lam @ a_j)
        return fro(a_j - lam.T @ a_i @ lam)
    if kind == "1,1":
        return fro(lam @ a_i - a_j @ lam)
    return fro(a_i - lam.T @ a_j @ lam)


def check_coherent(seq: CoherentSequence, tol: Tolerance = DEFAULT_TOL) -> Report:
    """Per-pair residual of the variance/kind-appropriate intertwining law."""
    report = Report()
    n = seq.bonding.levels
    maps = seq.bonding.map_table()
    for i in range(n):
        for j in range(i + 1, n):
            res = _coherence_residual(seq.bonding.variance, seq.kind, maps[i][j],
                                      seq.levels[i], seq.levels[j])
            scale = max(fro(seq.levels[i]), fro(seq.levels[j]), 1.0)
            report.add(f"coherent[{i},{j}]", tol.accepts(res, scale), res)
    return report


def limit_eval(seq: CoherentSequence, level, vectors, tol: Tolerance = DEFAULT_TOL):
    """Evaluate the level-``level`` representative of the limit tensor.

    (1,1) sequences take one vector and return its image; (2,0) sequences
    take a pair (u, v) and return the scalar form value.  Evaluation is
    refused (IncoherentSequence) unless ``check_coherent`` passes, because
    only coherence makes the answer level-independent.
    """
    rep = check_coherent(seq, tol)
    if not rep.passed:
        worst = max(e.residual for e in rep.failures())
        raise IncoherentSequence(f"worst coherence residual {worst:.3e}")
    m = seq.levels[level]
    if seq.kind == "1,1":
        u = np.asarray(vectors, dtype=float)
        return m @ u
    u, v = (np.asarray(w, dtype=float) for w in vectors)
    return float(u @ m @ v)


# ---------------------------------------------------------------------------
# level tuples (constrained operator families)
# ---------------------------------------------------------------------------

@dataclass
class LevelTuple:
    """Operators (f_0, .., f_{n-1}), one per level, intertwining the bonding."""

    bonding: BondingSystem
    entries: list

    def __post_init__(self):
        self.entries = [as_matrix(m, square=True) for m in self.entries]
        if len(self.entries) > self.bonding.levels:
            raise ShapeMismatch("more entries than levels")
        for lvl, m in enumerate(self.entries):
            if m.shape[0] != self.bonding.dims[lvl]:
                raise ShapeMismatch(f"entry {lvl} has size {m.shape[0]}")

    @property
    def level(self):
        return len(self.entries)


def tuple_compose(a: LevelTuple, b: LevelTuple) -> LevelTuple:
    """Entrywise composition (a . b)_i = a_i b_i (same bonding, same level)."""
    if a.bonding is not b.bonding and a.bonding.dims != b.bonding.dims:
        raise ShapeMismatch("tuples live on different bonding systems")
    if a.level != b.level:
        raise ShapeMismatch(f"levels differ: {a.level} vs {b.level}")
    return LevelTuple(a.bonding, [x @ y for x, y in zip(a.entries, b.entries)])


def tuple_inverse(a: LevelTuple, tol: Tolerance = DEFAULT_TOL) -> LevelTuple:
    """Entrywise inverse; NotInvertible carries the offending level index."""
    out = []
    for lvl, m in enumerate(a.entries):
        if rank_of(m, tol) < m.shape[0]:
            raise NotInvertible(lvl)
        out.append(np.linalg.inv(m))
    return LevelTuple(a.bonding, out)


def tuple_membership(a: LevelTuple, tol: Tolerance = DEFAULT_TOL,
                     isotropy_models=None) -> Report:
    """Intertwining constraint, invertibility, optional per-level isotropy.

    ``isotropy_models`` is an optional list of (kind, matrix) model tensors,
    one per level; when given, each entry must additionally fix its model
    under the tensor action (membership in the constrained subgroup built
    from per-level isotropy groups).
    """
    report = Report()
    maps = a.bonding.map_table(a.level)
    # intertwining: the (1,1) coherence law of the entries
    for i in range(a.level):
        for j in range(i + 1, a.level):
            res = _coherence_residual(a.bonding.variance, "1,1", maps[i][j],
                                      a.entries[i], a.entries[j])
            scale = max(fro(a.entries[i]), fro(a.entries[j]), 1.0)
            report.add(f"intertwines[{i},{j}]", tol.accepts(res, scale), res)
    for lvl, m in enumerate(a.entries):
        ok = rank_of(m, tol) == m.shape[0]
        report.add(f"invertible[{lvl}]", ok, 0.0 if ok else 1.0)
    if isotropy_models is not None:
        for lvl, (kind, model) in enumerate(isotropy_models[: a.level]):
            spec = IsotropyGroupSpec(StructureMatrix(model, kind))
            inside, res = in_isotropy(a.entries[lvl], spec, tol)
            report.add(f"isotropy[{lvl}]", inside, res)
    return report


def tuple_project(a: LevelTuple, level) -> LevelTuple:
    """Drop entries above ``level`` (the group morphism between levels)."""
    if not 0 < level <= a.level:
        raise ShapeMismatch(f"cannot project to level {level}")
    return LevelTuple(a.bonding, a.entries[:level])


# ---------------------------------------------------------------------------
# flag-preserving operators on direct towers
# ---------------------------------------------------------------------------

def gEn_membership(a, bonding: BondingSystem, tol: Tolerance = DEFAULT_TOL):
    """Does an operator at the top level preserve the tower's flag?

    For a direct system with levels 0..n-1 the flag subspaces are the images
    of the composite inclusions; membership requires each to be invariant
    under ``a``.  Returns ``(member, blocks, report)`` where ``blocks`` maps
    each level boundary k >= 1 to its (B_k, B'_k) pair (column block above
    the diagonal and diagonal block) for canonical padding towers, and is
    None otherwise.

    Raises Singular when ``a`` is not invertible.
    """
    if bonding.variance != "direct":
        raise ShapeMismatch("flag membership needs a direct system")
    a = as_matrix(a, square=True)
    top = bonding.levels - 1
    n = bonding.dims[top]
    if a.shape[0] != n:
        raise ShapeMismatch(f"operator size {a.shape[0]}, top dimension {n}")
    if rank_of(a, tol) < n:
        raise Singular("operator is not invertible")

    report = Report()
    member = True
    scale = max(fro(a), 1.0)
    bonding._check_projections()
    # only the projections out of the top level are shared between levels
    projs = bonding._projections_onto(top, 0)
    for k in range(top):
        inc = bonding.map(k, top)
        image = a @ inc
        # residual of the invariance a(E_k) subset E_k measured through the
        # complementary projection
        proj = projs[k]
        resid = fro(image - inc @ (proj @ image))
        ok = tol.accepts(resid, scale)
        member = member and ok
        report.add(f"flag_invariant[{k}]", ok, resid)

    blocks = None
    if member and bonding._maps_are_padding():
        blocks = {}
        prev = 0
        for k in range(bonding.levels):
            d = bonding.dims[k]
            if k == 0:
                blocks[0] = (None, a[:d, :d].copy())
            else:
                blocks[k] = (a[:prev, prev:d].copy(), a[prev:d, prev:d].copy())
            prev = d
    return member, blocks, report


def theta_projection(a, j, i, bonding: BondingSystem, tol: Tolerance = DEFAULT_TOL):
    """Compress a flag-preserving operator from level j down to level i:
    proj(i,j) . a . map(i,j).  Functorial on members:
    theta(i,j) o theta(j,k) = theta(i,k).

    Raises NotMember when ``a`` does not preserve the flag up to level j.
    """
    if bonding.variance != "direct":
        raise ShapeMismatch("theta projections need a direct system")
    sub = BondingSystem(bonding.dims[: j + 1], "direct",
                        bonding.maps[:j],
                        bonding.projections[:j] if bonding.projections else None)
    member, _, rep = gEn_membership(a, sub, tol)
    if not member:
        worst = max(e.residual for e in rep.failures())
        raise NotMember(f"operator violates the flag (worst residual {worst:.3e})")
    return bonding.projection(i, j) @ a @ bonding.map(i, j)


# ---------------------------------------------------------------------------
# adapted connection towers
# ---------------------------------------------------------------------------

class LevelForm:
    """Connection one-form at one level: (x, v) -> matrix, affine in x.

    ``stack`` holds the coefficient matrices as one (d, n, n) array and
    ``stack[a]`` is the matrix attached to the a-th tangent direction;
    ``linear[a][b]`` optionally adds x_b-dependence to that matrix.
    """

    def __init__(self, coeffs, linear=None):
        self.stack = as_matrix(coeffs, square=True, name="coefficient stack", ndim=3)
        if not len(self.stack):
            raise ShapeMismatch("a level form needs one or more coefficient matrices")
        self.linear = None
        if linear is not None:
            self.linear = [[as_matrix(m, square=True) for m in row] for row in linear]

    @property
    def coeffs(self):
        """The coefficient matrices, a tuple of views into ``stack``."""
        return tuple(self.stack)

    @property
    def dim(self):
        return self.stack.shape[1]

    def at(self, xs, vs):
        """The form at every row: ``(S, n, n)`` values for ``(S, k)``
        tangents ``vs`` at ``(S, m)`` points ``xs`` (read only when the form
        has ``linear`` coefficients).

        Each row is the vector-matrix product ``np.tensordot(v, mats,
        axes=1)`` makes, one gemv per row, so every value equals the
        single-row contraction bit for bit; one gemm over all rows would
        not.  The one exception is the sign of a zero: a 1x1 form on a
        one-component tangent adds its single product to +0.0, where
        tensordot multiplies two scalars and may give -0.0.
        """
        vs = np.asarray(vs, dtype=float)
        rows, k = vs.shape
        if k > len(self.stack):
            raise ShapeMismatch(f"tangent has {k} components, form has "
                                f"{len(self.stack)} coefficient matrices")
        n = self.dim
        mats = self.stack[:k]
        if self.linear is not None:
            xs = np.asarray(xs, dtype=float)
            # per row, the sum over x_b M_ab in the order of the single row
            mats = np.stack([mat + sum((xb[:, None, None] * mb for xb, mb in zip(xs.T, row)),
                                       np.zeros((rows, n, n)))
                             for mat, row in zip(mats, self.linear)], axis=1)
        return np.matmul(vs[:, None, :],
                         mats.reshape(*mats.shape[:-2], n * n)).reshape(rows, n, n)

    def __call__(self, x, v):
        return self.at(np.atleast_2d(x), np.atleast_2d(v))[0]


@dataclass
class ConnectionFormSequence:
    """Per-level connection forms over a tower, with algebra morphisms.

    ``models`` holds one (kind, matrix) model tensor per level; adaptedness
    means each form value lies in the model's isotropy algebra (linearized
    isotropy: commutator with the model vanishes for (1,1), W^T S + S W
    vanishes for (2,0)).  ``morphisms`` optionally overrides the default
    algebra morphisms (pairs (L, R) acting by W -> L W R); the defaults are
    built from the bonding maps.
    """

    bonding: BondingSystem
    forms: list
    models: list
    morphisms: Optional[dict] = None

    def morphism(self, i, j, maps, projections):
        """(L, R) for levels i < j, read from the tower's composite tables
        ``maps`` and ``projections`` (None when the tower has none)."""
        if self.morphisms and (i, j) in self.morphisms:
            left, right = self.morphisms[(i, j)]
            return as_matrix(left), as_matrix(right)
        lam = maps[i][j]
        if self.bonding.variance == "projective":
            return lam, lam.T
        if projections is None:
            self.bonding._check_projections()
        return lam, projections[i][j]


def _norms(d):
    """``fro`` of each matrix of the stack ``d``: the one ddot per matrix
    that ``fro`` makes, so each norm is bit-identical to it."""
    d = d.reshape(len(d), -1)
    return np.sqrt(np.vecdot(d, d))


def _algebra_residuals(w, kind, model):
    """Defect of each matrix of the stack ``w`` from the model's isotropy
    algebra."""
    if kind == "1,1":
        return _norms(w @ model - model @ w)
    return _norms(np.swapaxes(w, -1, -2) @ model + model @ w)


def _worst(residuals):
    """The largest residual, 0 for none; a NaN residual is the worst."""
    return float(np.max(residuals, initial=0.0))


def _carry(lam, rows):
    """``lam @ r`` for every row ``r`` of ``rows``: one mat-vec product per
    row, as the single-row product makes, not one gemm over all rows."""
    return np.matmul(lam, rows[:, :, None])[:, :, 0]


def check_connection_coherence(seq: ConnectionFormSequence, sample_points,
                               tol: Tolerance = DEFAULT_TOL) -> Report:
    """Levelwise adaptedness plus the cross-level pullback relations.

    Projective towers: the level-i form evaluated on pushed-down data must
    equal the algebra morphism applied to the level-j value,

        form_i(map(i,j) x)(map(i,j) v) = L form_j(x)(v) R.

    Direct towers: the level-j form on included data matches the morphism
    image of the level-i value,

        form_j(inc(i,j) x)(inc(i,j) v) = L form_i(x)(v) R.

    ``sample_points`` live at the top level for projective towers and at
    the bottom level for direct towers, and the tangents are the coordinate
    directions of that level.
    """
    report = Report()
    b = seq.bonding
    n = b.levels
    variance = b.variance
    base_level = n - 1 if variance == "projective" else 0
    dim = b.dims[base_level]
    pts = np.atleast_2d(np.asarray(sample_points, dtype=float))
    if pts.shape[1] != dim:
        raise ShapeMismatch(f"sample points have dim {pts.shape[1]}, want {dim}")

    maps = b.map_table()
    projs = (b.projection_table() if variance == "direct" and b.projections is not None
             else None)
    if len(seq.forms) < n or len(seq.models) < n:
        raise ShapeMismatch(f"need a form and a model for each of the {n} levels")
    forms = seq.forms[:n]
    models = [(kind, as_matrix(model, square=True)) for kind, model in seq.models[:n]]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    morphisms = [seq.morphism(i, j, maps, projs) for i, j in pairs]
    # one row per sample point and tangent direction, points outermost
    xs = np.repeat(pts, dim, axis=0)
    vs = np.tile(np.eye(dim), (len(pts), 1))
    # the composites that carry sample data from its level to every level;
    # points matter only to forms with x-dependence
    onto = [maps[lvl][n - 1] if variance == "projective" else maps[0][lvl]
            for lvl in range(n)]
    moved_v = [_carry(lam, vs) for lam in onto]
    moved_x = ([_carry(lam, xs) for lam in onto]
               if any(form.linear is not None for form in forms) else [None] * n)
    # each level's form on its own data; adaptedness is sampled there
    values = [form.at(x, v) for form, x, v in zip(forms, moved_x, moved_v)]
    adapted = [_worst(_algebra_residuals(w, kind, model))
               for w, (kind, model) in zip(values, models)]
    coherent = []
    for (i, j), (left, right) in zip(pairs, morphisms):
        # the upper level's data for projective towers, the lower's for direct
        src, dst = (j, i) if variance == "projective" else (i, j)
        lam = maps[i][j]
        x = None if forms[dst].linear is None else _carry(lam, moved_x[src])
        lhs = forms[dst].at(x, _carry(lam, moved_v[src]))
        coherent.append(_worst(_norms(lhs - left @ values[src] @ right)))

    for lvl, (_, model) in enumerate(models):
        report.add(f"adapted[{lvl}]",
                   tol.accepts(adapted[lvl], max(fro(model), 1.0)), adapted[lvl])
    for (i, j), worst in zip(pairs, coherent):
        report.add(f"coherent[{i},{j}]", tol.accepts(worst, 1.0), worst)
    report.note(f"{pts.shape[0]} sample points, {dim} tangent directions")
    return report
