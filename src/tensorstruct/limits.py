"""Projective and direct towers of spaces, tensors and connection forms.

A bonding system is a finite family of levels with linear maps between
them: surjections going down for projective towers, injections going up
for direct towers (the latter with complementary projections).  Levels are
0-indexed; non-consecutive maps are generated by composition from the
consecutive ones and must satisfy the composition laws

    projective:  map(i,j) o map(j,k) = map(i,k)           (maps d_j -> d_i)
    direct:      map(j,k) o map(i,j) = map(i,k)           (maps d_i -> d_j)
    direct:      proj(i,j) o map(i,j) = Id,  proj(i,j) o proj(j,k) = proj(i,k)

Coherence of a per-level tensor sequence is one law per kind, for the
composite lam = map(i,j) from its source level s to its target level t
(s = j, t = i on projective towers; s = i, t = j on direct ones):

    (1,1):  A_t lam = lam A_s
    (2,0):  S_s = lam^T S_t lam

All checks quantify over the supplied levels and report that count; the
infinite limit object is represented exactly by its levelwise conditions.

Composite tables.  A tower owns its composites: ``map_table()`` is every
composite map at once, ``table[i][j] = map(i, j)`` for i <= j, where row i
starts at the identity and entry j is one product of entry j-1 with the
consecutive map ``maps[j-1]``, so a tower of n levels costs about n^2/2
products instead of the O(n) per composite that rebuilding each one takes.
``projection_table()`` does the same for projections, column by column
from the identity at level j downwards.  The tower is frozen, builds each
table on first use and keeps it, so every check on the same tower
(``validate_bonding``, ``check_coherent``, ``tuple_membership``, the flag
tests of ``gEn_membership`` and ``theta_projection``, and
``ConnectionFormSequence.morphism``) reads the same entries, and ``map``
and ``projection`` index them.

Reports.  Each of those checks collects the residuals of one law over all
its pairs or triples and adds them to its report as one block
(``Report.measured_block``), decided element-wise by the report's
``Tolerance``; no check formats an entry name.  The composition and
section laws are computed in groups whose left-hand sides share a shape:
one (i, k) for a composition law, one i for a section law.  Each product
of a group is written into the group's stack by ``ndarray.dot``, which
calls the BLAS routine ``@`` calls without the ufunc dispatch, and the
group takes one subtraction and one ``linalg.fro_each``, so every residual
has the bits of the per-entry ``fro(lhs - rhs)``.  The tower stores its
maps and projections C-contiguous, so every table entry is, and the bits
of a composite depend on the values of the maps alone, not on the strides
they were passed with.  A product whose inner dimension is 1 is made by
``@``: its factors may be 1 x 1, which ``dot`` takes for a scalar.  A
padding tower (``BondingSystem.padding``) makes none of these products:
each of its composition and section residuals is 0.0, as
``validate_bonding`` proves.  Every bonding law, the identity laws
included, is accepted at scale ``fro(lhs)`` (``_law_block``): the block is
probed at scale 0 first, which accepts a residual of at most ``atol`` at
every scale, and only where that fails is the left-hand side made again
and its norm taken.  The coherence laws take each level's norm once and
build the scale of each pair from those.

Model tensors.  Every per-level model (``tuple_membership``'s isotropy
models, ``ConnectionFormSequence.models``) is a ``StructureMatrix``, and
the group and Lie algebra act on it as ``bundle`` defines: an entry of a
level tuple lies in its level's isotropy group when ``bundle.in_isotropy``
accepts it, and a connection form is adapted where
``bundle.algebra_action`` vanishes on its values.

Connection towers.  ``check_connection_coherence`` evaluates every sample
at once: the (sample point, tangent direction) pairs form one axis of rows,
and ``LevelForm.at`` evaluates a level's form on all rows in one stacked
call.  The pullback laws are checked one destination level at a time (the
lower level i of a pair for projective towers, the upper level j for
direct ones): each pair carries its own rows to that level and writes its
morphism image ``L form(x)(v) R`` into the group's stack, and the group
takes one ``at`` on the concatenated rows, one subtraction, one
``fro_each`` and one row-wise ``np.argmax``, which is ``report.worst_index``
on each pair's rows.  ``at`` makes one product per row, so a row's value
does not depend on the rows that share the call, and a group's stack is
bounded in bytes (``_GROUP_BYTES``).  Every product is the one the
per-sample evaluation made, row by row, so reports are bit-identical to it.
A NaN residual (an overflow to inf - inf, say) is the worst residual of
its entry (``report.worst``) and fails it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .bundle import algebra_action, in_isotropy
from .errors import InvalidInput, ShapeMismatch
from .linalg import DEFAULT_TOL, Tolerance, as_matrix, fro, fro_each, rank_of
from .report import Report, worst
from .structures import KINDS, VARIANCES

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


@dataclass(frozen=True, eq=False)
class BondingSystem:
    """Finite tower of levels joined by consecutive linear maps.

    ``maps[i]`` joins levels i and i+1: shape (dims[i], dims[i+1]) for the
    projective variant (a surjection down) and (dims[i+1], dims[i]) for the
    direct variant (an injection up).  Direct systems carry complementary
    projections ``projections[i]`` of shape (dims[i], dims[i+1]).  Maps and
    projections are stored as read-only C-contiguous float copies.  The
    tower is frozen: it builds its composite tables on first use and keeps
    them.

    ``padding`` is true on a canonical tower: every map equals
    ``np.eye(*m.shape)`` (coordinate padding up, leading-block projection
    down) and, on a direct tower, every projection does too.  A direct
    tower whose maps are padding and that is given no projections gets the
    leading-block ones.
    """

    dims: list
    variance: str  # "projective" | "direct"
    maps: list = field(default_factory=list)
    projections: Optional[list] = None
    padding: bool = field(init=False, repr=False)

    def __post_init__(self):
        dims = [int(d) for d in self.dims]
        object.__setattr__(self, "dims", dims)
        if self.variance not in VARIANCES:
            raise InvalidInput(f"unknown variance {self.variance!r}")
        if any(a > b for a, b in zip(dims, dims[1:])):
            raise ShapeMismatch("dims must be nondecreasing")
        object.__setattr__(self, "maps", _consecutive(self.maps, "maps", self.levels))
        for i, m in enumerate(self.maps):
            want = ((dims[i], dims[i + 1]) if self.variance == "projective"
                    else (dims[i + 1], dims[i]))
            if m.shape != want:
                raise ShapeMismatch(f"map {i}->{i + 1} has shape {m.shape}, want {want}")
        padding = all(np.array_equal(m, np.eye(*m.shape)) for m in self.maps)
        projections = self.projections
        if projections is None and self.variance == "direct" and padding:
            projections = [np.eye(a, b) for a, b in zip(dims, dims[1:])]
        if projections is not None:
            projections = _consecutive(projections, "projections", self.levels)
            for i, p in enumerate(projections):
                want = (dims[i], dims[i + 1])
                if p.shape != want:
                    raise ShapeMismatch(
                        f"projection {i + 1}->{i} has shape {p.shape}, want {want}")
            padding = padding and all(np.array_equal(p, np.eye(*p.shape)) for p in projections)
        object.__setattr__(self, "projections", projections)
        object.__setattr__(self, "padding", padding)

    @classmethod
    def padded(cls, dims, variance):
        """Canonical tower: coordinate padding up / leading-block projection down."""
        dims = [int(d) for d in dims]
        return cls(dims, variance, [np.eye(a, b) if variance == "projective" else np.eye(b, a)
                                    for a, b in zip(dims, dims[1:])])

    @property
    def levels(self):
        return len(self.dims)

    def map(self, i, j):
        """Composite bonding map between levels i <= j (identity at i == j)."""
        self._check_levels(i, j)
        return self._map_table[i][j]

    def projection(self, i, j):
        """Composite projection from level j down to i (direct variant)."""
        table = self._projection_table
        self._check_levels(i, j)
        return table[i][j]

    def map_table(self):
        """Every composite map: ``table[i][j]`` is ``map(i, j)`` for i <= j
        and None below.  Built on first use; later calls return the same
        table."""
        return self._map_table

    def projection_table(self):
        """Every composite projection: ``table[i][j]`` is ``projection(i, j)``
        for i <= j and None below.  Built on first use, like ``map_table``."""
        return self._projection_table

    def _check_levels(self, i, j):
        if not 0 <= i <= j < self.levels:
            raise ShapeMismatch(f"levels ({i}, {j}) out of range")

    @cached_property
    def _map_table(self):
        # row i: the identity, maps[i] itself (an identity product would
        # turn a -0.0 into +0.0), then one product per later map
        table = []
        for i, d in enumerate(self.dims):
            row = [None] * i + [np.eye(d)] + self.maps[i:i + 1]
            for m in self.maps[i + 1:]:
                row.append(row[-1] @ m if self.variance == "projective" else m @ row[-1])
            table.append(row)
        return table

    @cached_property
    def _projection_table(self):
        if self.variance != "direct":
            raise ShapeMismatch("projections only exist for direct systems")
        if self.projections is None:
            raise ShapeMismatch("no projections supplied and maps are not padding")
        n = self.levels
        table = [[None] * n for _ in range(n)]
        # column j: downwards from the identity at level j, one product each
        for j, d in enumerate(self.dims):
            table[j][j] = np.eye(d)
            for k in range(j - 1, -1, -1):
                table[k][j] = self.projections[k] @ table[k + 1][j]
        return table


def _consecutive(matrices, name, levels):
    """Read-only C-contiguous float copies of ``matrices``, one per
    consecutive pair of ``levels`` levels: the tables a tower keeps are
    built from them, so no caller may change them in place."""
    out = [np.array(as_matrix(m), order="C") for m in matrices]
    if len(out) != levels - 1:
        raise ShapeMismatch(f"need {levels - 1} consecutive {name}, got {len(out)}")
    for m in out:
        m.flags.writeable = False
    return out


def validate_bonding(b: BondingSystem, tol: Tolerance = DEFAULT_TOL) -> Report:
    """Composition laws, identity maps, surjectivity/injectivity, sections.

    Every law ``lhs = rhs`` is accepted at the scale ``fro(lhs)``
    (``_law_block``).  On a padding tower (``b.padding``) the
    ``composition``, ``section`` and ``projection_composition`` laws get
    residual 0.0 without a product being formed, because that is the
    residual their products give, bit for bit:

    - every table entry of a padding tower is ``eye(d_i, d_j)``, ones on its
      diagonal and zeros elsewhere: the identity, a padding map, or a
      product of two such matrices;
    - each entry of a product of two such matrices has at most one nonzero
      term, 1 * 1, so BLAS returns ``eye(d_i, d_k)`` exactly, in any
      summation order and with or without FMA;
    - the difference of two such products holds only zeros, and ``fro`` of
      it is +0.0.

    Every other tower, one a single ulp off padding included, forms each
    product; that is the only computation of a law.
    """
    report = Report(tol=tol)
    n = b.levels
    report.note(f"{n} levels supplied; all checks quantify over them")
    maps = b.map_table()

    identity = np.array([fro(maps[i][i] - np.eye(b.dims[i])) for i in range(n)])
    _law_block(report, "identity_at[%d]", [(i,) for i in range(n)], identity,
               lambda ii: fro(maps[ii[0]][ii[0]]))
    _composition_block(report, "composition[%d,%d,%d]", maps, b.variance != "projective",
                       b.padding)

    for i in range(n - 1):
        m = b.maps[i]
        full = rank_of(m, tol) == min(m.shape)
        name = "surjective" if b.variance == "projective" else "injective"
        report.add(f"{name}[{i}->{i + 1}]", full, 0.0 if full else 1.0)

    if b.variance == "direct" and b.projections is not None:
        projs = b.projection_table()
        pairs = [(i, j) for i in range(n - 1) for j in range(i + 1, n)]
        sections = np.zeros(len(pairs))
        if not b.padding:
            # grouped by i: every law of a group has the shape (d_i, d_i)
            sections = np.concatenate([np.empty(0), *(
                _law_norms([projs[i][j] for j in range(i + 1, n)], maps[i][i + 1:],
                           np.eye(b.dims[i])) for i in range(n - 1))])
        _law_block(report, "section[%d,%d]", pairs, sections,
                   lambda ij: fro(projs[ij[0]][ij[1]] @ maps[ij[0]][ij[1]]))
        _composition_block(report, "projection_composition[%d,%d,%d]", projs, False,
                           b.padding)
    return report


def _law_block(report, template, indices, residuals, lhs_norm):
    """Add the laws ``lhs = rhs`` at ``indices``, with their ``residuals``,
    as one block, each accepted at the scale ``fro(lhs)``: a residual
    accepted at scale 0 (at most ``atol``) is accepted at every scale, so
    ``lhs_norm(index)``, the norm of a law's left-hand side, is taken only
    where that fails; every other law keeps scale 0."""
    scales = np.zeros(len(residuals))
    for f in np.flatnonzero(~report.tol.accepts(residuals, 0.0)):
        scales[f] = lhs_norm(indices[f])
    report.measured_block(template, indices, residuals, scales)


def _law_norms(lefts, rights, target):
    """``fro(a @ b - target)`` for each a of ``lefts`` and b of ``rights``,
    bit for bit: every product written into one stack, then one subtraction
    and one ``fro_each`` for the whole stack.  On C-contiguous factors
    ``ndarray.dot`` makes the BLAS call ``@`` makes, without the ufunc
    dispatch, except on a 1 x 1 factor: ``dot`` scales the other factor by
    it and skips a zero one, so 0 * inf reads 0 where ``@`` gives NaN.  A
    1 x 1 factor has an inner dimension of 1, so those products take ``@``."""
    stack = np.empty((len(lefts),) + target.shape)
    for a, b, out in zip(lefts, rights, stack):
        if a.shape[1] == 1:
            np.matmul(a, b, out)
        else:
            a.dot(b, out)
    stack -= target
    return fro_each(stack)


def _composition_block(report, template, table, reverse, padding):
    """The law ``table[i][j] @ table[j][k] = table[i][k]`` (the factors
    swapped when ``reverse``) for every i <= j <= k, as one ``_law_block``
    in the lexicographic order of (i, j, k): every residual is 0.0 on a
    ``padding`` tower (see ``validate_bonding``), and otherwise the laws
    are computed in groups of one (i, k), whose left-hand sides all have
    the shape of ``table[i][k]``."""
    n = len(table)
    triples = [(i, j, k) for i in range(n) for j in range(i, n) for k in range(j, n)]
    residuals = np.zeros(len(triples))
    if not padding:
        r = np.arange(n)
        upper = r[:, None] <= r
        by_jk = np.empty((n, n))
        by_i = []
        for i, row in enumerate(table):
            for k in range(i, n):
                firsts, seconds = row[i:k + 1], [table[j][k] for j in range(i, k + 1)]
                if reverse:
                    firsts, seconds = seconds, firsts
                by_jk[i:k + 1, k] = _law_norms(firsts, seconds, row[k])
            # the (i, j, k) with i <= j <= k in C order, which is lexicographic
            by_i.append(by_jk[i:, i:][upper[i:, i:]])
        residuals = np.concatenate([np.empty(0), *by_i])

    def lhs_norm(ijk):
        i, j, k = ijk
        a, b = (table[j][k], table[i][j]) if reverse else (table[i][j], table[j][k])
        return fro(a @ b)

    _law_block(report, template, triples, residuals, lhs_norm)


@dataclass(eq=False)
class CoherentSequence:
    """One structure matrix per level, intertwined by the bonding maps."""

    bonding: BondingSystem
    levels: list
    kind: str  # "1,1" | "2,0"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidInput(f"unknown tensor kind {self.kind!r}")
        self.levels = [as_matrix(m, square=True) for m in self.levels]
        if len(self.levels) != self.bonding.levels:
            raise ShapeMismatch(
                f"{len(self.levels)} matrices for {self.bonding.levels} levels")
        for lvl, m in enumerate(self.levels):
            if m.shape[0] != self.bonding.dims[lvl]:
                raise ShapeMismatch(
                    f"level {lvl} matrix is {m.shape[0]}x, dim is {self.bonding.dims[lvl]}")


def _coherence_residual(kind, lam, a_src, a_dst):
    """Defect of the ``kind`` intertwining law of the composite map ``lam``
    from the level of ``a_src`` to the level of ``a_dst``."""
    if kind == "1,1":
        return fro(a_dst @ lam - lam @ a_src)
    return fro(a_src - lam.T @ a_dst @ lam)


def _coherence_block(report, template, variance, kind, maps, mats):
    """Add to ``report``, and return it, the variance/kind intertwining law
    of ``mats`` over every pair of levels i < j, as one block, each
    residual accepted at the scale ``max(fro(mats[i]), fro(mats[j]))``."""
    norms = [fro(m) for m in mats]
    pairs = [(i, j) for i in range(len(mats)) for j in range(i + 1, len(mats))]
    # map(i, j) runs from level j down to i on projective towers, up from i to j on direct
    ends = [(j, i) for i, j in pairs] if variance == "projective" else pairs
    residuals = np.array([_coherence_residual(kind, maps[i][j], mats[s], mats[t])
                          for (i, j), (s, t) in zip(pairs, ends)])
    scales = np.array([max(norms[i], norms[j]) for i, j in pairs])
    report.measured_block(template, pairs, residuals, scales)
    return report


def check_coherent(seq: CoherentSequence, tol: Tolerance = DEFAULT_TOL) -> Report:
    """Per-pair residual of the variance/kind-appropriate intertwining law."""
    return _coherence_block(Report(tol=tol), "coherent[%d,%d]", seq.bonding.variance,
                            seq.kind, seq.bonding.map_table(), seq.levels)


def limit_eval(seq: CoherentSequence, level, vectors, tol: Tolerance = DEFAULT_TOL):
    """Evaluate the level-``level`` representative of the limit tensor.

    (1,1) sequences take one vector and return its image; (2,0) sequences
    take a pair (u, v) and return the scalar form value.  Evaluation is
    refused (InvalidInput) unless ``check_coherent`` passes, because
    only coherence makes the answer level-independent.
    """
    rep = check_coherent(seq, tol)
    if not rep.passed:
        resid = worst([e.residual for e in rep.failures()])
        raise InvalidInput(f"worst coherence residual {resid:.3e}")
    m = seq.levels[level]
    if seq.kind == "1,1":
        u = np.asarray(vectors, dtype=float)
        return m @ u
    u, v = (np.asarray(w, dtype=float) for w in vectors)
    return float(u @ m @ v)


# ---------------------------------------------------------------------------
# level tuples (constrained operator families)
# ---------------------------------------------------------------------------

@dataclass(eq=False)
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
    """Entrywise inverse; InvalidInput names the first level whose entry
    is not invertible."""
    out = []
    for lvl, m in enumerate(a.entries):
        if rank_of(m, tol) < m.shape[0]:
            raise InvalidInput(f"entry at level {lvl} is not invertible")
        out.append(np.linalg.inv(m))
    return LevelTuple(a.bonding, out)


def tuple_membership(a: LevelTuple, tol: Tolerance = DEFAULT_TOL,
                     isotropy_models=None) -> Report:
    """Intertwining constraint, invertibility, optional per-level isotropy.

    ``isotropy_models`` is an optional list of model tensors
    (``StructureMatrix``), one per entry; when given, each entry must
    additionally fix its model under the tensor action (membership in the
    constrained subgroup built from per-level isotropy groups), and a
    shorter list raises ShapeMismatch.
    """
    # intertwining: the (1,1) coherence law of the entries
    report = _coherence_block(Report(tol=tol), "intertwines[%d,%d]", a.bonding.variance,
                              "1,1", a.bonding.map_table(), a.entries)
    for lvl, m in enumerate(a.entries):
        ok = rank_of(m, tol) == m.shape[0]
        report.add(f"invertible[{lvl}]", ok, 0.0 if ok else 1.0)
    if isotropy_models is not None:
        if len(isotropy_models) < a.level:
            raise ShapeMismatch(f"{len(isotropy_models)} isotropy models for "
                                f"{a.level} entries")
        for lvl, (entry, model) in enumerate(zip(a.entries, isotropy_models)):
            inside, res = in_isotropy(entry, model, tol)
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

def _flag_report(a, bonding: BondingSystem, top, tol: Tolerance):
    """The invariance of the flag of levels 0..``top`` under ``a``, an
    invertible operator at level ``top``: one entry per level k < top, the
    residual of a(E_k) in E_k measured through the complementary projection
    and read from the tower's tables."""
    if bonding.variance != "direct":
        raise ShapeMismatch("flag membership needs a direct system")
    a = as_matrix(a, square=True)
    n = bonding.dims[top]
    if a.shape[0] != n:
        raise ShapeMismatch(f"operator size {a.shape[0]}, top dimension {n}")
    if rank_of(a, tol) < n:
        raise InvalidInput("operator is not invertible")
    maps, projs = bonding.map_table(), bonding.projection_table()
    report = Report(tol=tol)
    scale = fro(a)
    for k in range(top):
        inc = maps[k][top]
        image = a @ inc
        report.measured(f"flag_invariant[{k}]",
                        fro(image - inc @ (projs[k][top] @ image)), scale)
    return report


def gEn_membership(a, bonding: BondingSystem, tol: Tolerance = DEFAULT_TOL):
    """Does an operator at the top level preserve the tower's flag?

    For a direct system with levels 0..n-1 the flag subspaces are the images
    of the composite inclusions; membership requires each to be invariant
    under ``a``.  Returns ``(member, blocks, report)`` where ``blocks`` maps
    each level boundary k >= 1 to its (B_k, B'_k) pair (column block above
    the diagonal and diagonal block) for padding towers
    (``BondingSystem.padding``), and is None otherwise.

    Raises InvalidInput when ``a`` is not invertible.
    """
    report = _flag_report(a, bonding, bonding.levels - 1, tol)
    member = report.passed
    blocks = None
    if member and bonding.padding:
        a = as_matrix(a)
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

    Raises ShapeMismatch unless 0 <= i <= j < levels on a direct tower
    with projections, and then InvalidInput when ``a`` does not preserve the
    flag up to level j.
    """
    if bonding.variance != "direct":
        raise ShapeMismatch("theta projections need a direct system")
    proj, inc = bonding.projection(i, j), bonding.map(i, j)
    report = _flag_report(a, bonding, j, tol)
    if not report.passed:
        resid = worst([e.residual for e in report.failures()])
        raise InvalidInput(f"operator violates the flag (worst residual {resid:.3e})")
    return proj @ a @ inc


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


@dataclass(eq=False)
class ConnectionFormSequence:
    """Per-level connection forms over a tower, with algebra morphisms.

    ``models`` holds one model tensor (``StructureMatrix``) per level;
    adaptedness means each form value lies in the model's isotropy algebra,
    where ``bundle.algebra_action`` vanishes (the commutator with the model
    for (1,1), W^T S + S W for (2,0)).  ``morphisms`` optionally overrides
    the default algebra morphisms (pairs (L, R) acting by W -> L W R); the
    defaults are built from the bonding maps.
    """

    bonding: BondingSystem
    forms: list
    models: list
    morphisms: Optional[dict] = None

    def morphism(self, i, j):
        """(L, R) for levels i < j, read from the tower's composite tables."""
        if self.morphisms and (i, j) in self.morphisms:
            left, right = self.morphisms[(i, j)]
            return as_matrix(left), as_matrix(right)
        lam = self.bonding.map_table()[i][j]
        if self.bonding.variance == "projective":
            return lam, lam.T
        return lam, self.bonding.projection_table()[i][j]


def _carry(lam, rows):
    """``lam @ r`` for every row ``r`` of ``rows``: one mat-vec product per
    row, as the single-row product makes, not one gemm over all rows."""
    return np.matmul(lam, rows[:, :, None])[:, :, 0]


# Largest stack of form values (of x-dependent coefficients, for a linear
# form) that one group of pullback laws builds: 4 pairs of 2 rows at d = 32.
# Measured over 40 rounds of the benchmark's towers workload in one process
# (tools/peak_rss.py, seed 11), the peak RSS read 57.0 MB one pair at a time,
# 57.2 MB at this bound and 60.1-60.3 MB at 120 or 128 KiB, where a later
# tower check took 3 MB more.
_GROUP_BYTES = 64 * 1024


def _pullback_residuals(form, rows, pulls):
    """The worst pullback residual of each ``(lam, v, x, value, left,
    right)`` of ``pulls``: ``form`` on the ``rows`` tangents ``v`` (and
    points ``x``, read when the form is linear) carried by ``lam``, against
    the morphism image ``left @ value @ right``, all in one stack."""
    n = form.dim
    tangents, points = [], []
    images = np.empty((len(pulls) * rows, n, n))
    for start, (lam, v, x, value, left, right) in zip(range(0, len(images), rows), pulls):
        tangents.append(_carry(lam, v))
        if form.linear is not None:
            points.append(_carry(lam, x))
        np.matmul(left @ value, right, out=images[start:start + rows])
    residuals = form.at(np.concatenate(points) if points else None, np.concatenate(tangents))
    np.subtract(residuals, images, out=residuals)
    norms = fro_each(residuals).reshape(len(pulls), rows)
    return norms[np.arange(len(pulls)), norms.argmax(axis=1)]


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
    report = Report(tol=tol)
    b = seq.bonding
    n = b.levels
    variance = b.variance
    base_level = n - 1 if variance == "projective" else 0
    dim = b.dims[base_level]
    pts = np.atleast_2d(np.asarray(sample_points, dtype=float))
    if pts.shape[1] != dim:
        raise ShapeMismatch(f"sample points have dim {pts.shape[1]}, want {dim}")

    maps = b.map_table()
    if len(seq.forms) < n or len(seq.models) < n:
        raise ShapeMismatch(f"need a form and a model for each of the {n} levels")
    forms = seq.forms[:n]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    morphisms = [seq.morphism(i, j) for i, j in pairs]
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
    adapted = np.array([worst(fro_each(algebra_action(w, model)))
                        for w, model in zip(values, seq.models)])
    coherent = np.zeros(len(pairs))  # the worst of no rows is 0.0
    rows = len(xs)
    number = {pair: k for k, pair in enumerate(pairs)}
    for dst in range(n if rows else 0):
        # the upper level's data for projective towers, the lower's for direct
        if variance == "projective":
            group = [(number[dst, j], j, maps[dst][j]) for j in range(dst + 1, n)]
        else:
            group = [(number[i, dst], i, maps[i][dst]) for i in range(dst)]
        d = b.dims[dst]
        size = max(1, _GROUP_BYTES // (8 * rows * d * d * (1 if forms[dst].linear is None
                                                            else d) or 1))
        for first in range(0, len(group), size):
            chunk = group[first:first + size]
            coherent[[k for k, _, _ in chunk]] = _pullback_residuals(forms[dst], rows, [
                (lam, moved_v[src], moved_x[src], values[src], *morphisms[k])
                for k, src, lam in chunk])

    scales = np.array([fro(model.matrix) for model in seq.models[:n]])
    report.measured_block("adapted[%d]", [(k,) for k in range(n)], adapted, scales)
    report.measured_block("coherent[%d,%d]", pairs, coherent)
    report.note(f"{pts.shape[0]} sample points, {dim} tangent directions")
    return report
