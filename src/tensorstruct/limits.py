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
        if not 0 <= i <= j < self.levels:
            raise ShapeMismatch(f"levels ({i}, {j}) out of range")
        if i == j:
            return np.eye(self.dims[i])
        out = self.maps[i]
        for k in range(i + 1, j):
            if self.variance == "projective":
                out = out @ self.maps[k]  # maps[i] ... maps[j-1]
            else:
                out = self.maps[k] @ out  # maps[j-1] ... maps[i]
        return out

    def projection(self, i, j):
        """Composite projection from level j down to i (direct variant)."""
        if self.variance != "direct":
            raise ShapeMismatch("projections only exist for direct systems")
        if self.projections is None:
            raise ShapeMismatch("no projections supplied and maps are not padding")
        if not 0 <= i <= j < self.levels:
            raise ShapeMismatch(f"levels ({i}, {j}) out of range")
        out = np.eye(self.dims[j])
        for k in range(j - 1, i - 1, -1):
            out = self.projections[k] @ out
        return out


def validate_bonding(b: BondingSystem, tol: Tolerance = DEFAULT_TOL) -> Report:
    """Composition laws, identity maps, surjectivity/injectivity, sections."""
    report = Report()
    n = b.levels
    report.note(f"{n} levels supplied; all checks quantify over them")

    for i in range(n):
        res = fro(b.map(i, i) - np.eye(b.dims[i]))
        report.add(f"identity_at[{i}]", tol.accepts(res, 1.0), res)

    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                if b.variance == "projective":
                    lhs = b.map(i, j) @ b.map(j, k)
                else:
                    lhs = b.map(j, k) @ b.map(i, j)
                res = fro(lhs - b.map(i, k))
                report.add(f"composition[{i},{j},{k}]",
                           tol.accepts(res, max(fro(lhs), 1.0)), res)

    for i in range(n - 1):
        m = b.maps[i]
        full = rank_of(m, tol) == min(m.shape)
        name = "surjective" if b.variance == "projective" else "injective"
        report.add(f"{name}[{i}->{i + 1}]", full, 0.0 if full else 1.0)

    if b.variance == "direct" and b.projections is not None:
        for i in range(n - 1):
            for j in range(i + 1, n):
                sec = fro(b.projection(i, j) @ b.map(i, j) - np.eye(b.dims[i]))
                report.add(f"section[{i},{j}]", tol.accepts(sec, 1.0), sec)
        for i in range(n):
            for j in range(i, n):
                for k in range(j, n):
                    lhs = b.projection(i, j) @ b.projection(j, k)
                    res = fro(lhs - b.projection(i, k))
                    report.add(f"projection_composition[{i},{j},{k}]",
                               tol.accepts(res, max(fro(lhs), 1.0)), res)
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


def _coherence_residual(bonding: BondingSystem, kind, i, j, a_i, a_j):
    """Defect of the variance/kind intertwining law between levels i < j."""
    lam = bonding.map(i, j)
    if bonding.variance == "projective":
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
    for i in range(n):
        for j in range(i + 1, n):
            res = _coherence_residual(seq.bonding, seq.kind, i, j,
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
    # intertwining: the (1,1) coherence law of the entries
    for i in range(a.level):
        for j in range(i + 1, a.level):
            res = _coherence_residual(a.bonding, "1,1", i, j, a.entries[i], a.entries[j])
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
    for k in range(top):
        inc = bonding.map(k, top)
        image = a @ inc
        # residual of the invariance a(E_k) subset E_k measured through the
        # complementary projection
        proj = bonding.projection(k, top)
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

    ``coeffs[a]`` is the matrix attached to the a-th tangent direction;
    ``linear[a][b]`` optionally adds x_b-dependence to that matrix.
    """

    def __init__(self, coeffs, linear=None):
        self.coeffs = [as_matrix(c, square=True) for c in coeffs]
        self.linear = None
        if linear is not None:
            self.linear = [[as_matrix(m, square=True) for m in row] for row in linear]

    @property
    def dim(self):
        return self.coeffs[0].shape[0]

    def __call__(self, x, v):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        v = np.atleast_1d(np.asarray(v, dtype=float))
        out = np.zeros_like(self.coeffs[0])
        for a, va in enumerate(v):
            mat = self.coeffs[a]
            if self.linear is not None:
                mat = mat + sum(xb * mb for xb, mb in zip(x, self.linear[a]))
            out = out + va * mat
        return out


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

    def morphism(self, i, j):
        if self.morphisms and (i, j) in self.morphisms:
            left, right = self.morphisms[(i, j)]
            return as_matrix(left), as_matrix(right)
        if self.bonding.variance == "projective":
            lam = self.bonding.map(i, j)
            return lam, lam.T
        inc = self.bonding.map(i, j)
        return inc, self.bonding.projection(i, j)


def _algebra_residual(w, kind, model):
    if kind == "1,1":
        return fro(w @ model - model @ w)
    return fro(w.T @ model + model @ w)


def check_connection_coherence(seq: ConnectionFormSequence, sample_points,
                               tol: Tolerance = DEFAULT_TOL,
                               tangents=None) -> Report:
    """Levelwise adaptedness plus the cross-level pullback relations.

    Projective towers: the level-i form evaluated on pushed-down data must
    equal the algebra morphism applied to the level-j value,

        form_i(map(i,j) x)(map(i,j) v) = L form_j(x)(v) R.

    Direct towers: the level-j form on included data matches the morphism
    image of the level-i value,

        form_j(inc(i,j) x)(inc(i,j) v) = L form_i(x)(v) R.

    ``sample_points`` live at the top level for projective towers and at
    the bottom level for direct towers; ``tangents`` defaults to the
    coordinate directions of that level.
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
    if tangents is None:
        tangents = list(np.eye(dim))

    # adaptedness per level, sampled on that level's own data
    for lvl in range(n):
        kind, model = seq.models[lvl]
        model = as_matrix(model, square=True)
        worst = 0.0
        for x in pts:
            for v in tangents:
                if variance == "projective":
                    x_l = b.map(lvl, n - 1) @ x
                    v_l = b.map(lvl, n - 1) @ v
                else:
                    x_l = b.map(0, lvl) @ x
                    v_l = b.map(0, lvl) @ v
                w = seq.forms[lvl](x_l, v_l)
                worst = max(worst, _algebra_residual(w, kind, model))
        report.add(f"adapted[{lvl}]",
                   tol.accepts(worst, max(fro(model), 1.0)), worst)

    # cross-level coherence
    for i in range(n):
        for j in range(i + 1, n):
            left, right = seq.morphism(i, j)
            worst = 0.0
            for x in pts:
                for v in tangents:
                    if variance == "projective":
                        x_j = b.map(j, n - 1) @ x
                        v_j = b.map(j, n - 1) @ v
                        lhs = seq.forms[i](b.map(i, j) @ x_j, b.map(i, j) @ v_j)
                        rhs = left @ seq.forms[j](x_j, v_j) @ right
                    else:
                        x_i = b.map(0, i) @ x
                        v_i = b.map(0, i) @ v
                        lhs = seq.forms[j](b.map(i, j) @ x_i, b.map(i, j) @ v_i)
                        rhs = left @ seq.forms[i](x_i, v_i) @ right
                    worst = max(worst, fro(lhs - rhs))
            report.add(f"coherent[{i},{j}]", tol.accepts(worst, 1.0), worst)
    report.note(f"{pts.shape[0]} sample points, {len(tangents)} tangent directions")
    return report
