"""Induced structures on discretized spaces of loops into a constant target.

A loop is sampled at N circle points with positive quadrature weights
summing to one (uniform weights by default; on a circle the trapezoid rule
coincides with them).  Tangent vectors to the loop space are N x d arrays,
and the target's form, metric and structure induce

    Omega(X, Y) = sum_t w_t omega(X_t, Y_t)
    g(X, Y)     = sum_t w_t g(X_t, Y_t)
    (I X)_t     = I X_t

which keeps an almost Kahler (or para-Kahler) structure, and coherence
across an ascending family of targets survives by linearity of the sums.

The random checks evaluate all of their trials at once: one draw of a
stack of tangents per check (per level pair for the ascending family), one
quadrature call (``_forms``) per identity over the whole stack, and one
stacked product per image; a check whose quadratures overflow evaluates
them once more, at the target's own scale.  The draw fills the stack in
the order one draw per trial would, so the tangents and the generator's
final state are those of a trial-by-trial loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .compat import CompatibleTriple, check_triple, complete_pair
from .errors import InvalidInput, ShapeMismatch
from .linalg import DEFAULT_TOL, Tolerance, _power_of_two, fro_each, signature_of
from .limits import BondingSystem, CoherentSequence, check_coherent
from .report import Report
from .structures import BilinearForm, ComplexStructure, SymplecticForm, krein_from_matrix

__all__ = [
    "DiscretizedLoopSpace",
    "block_target",
    "block_kahler_target",
    "block_para_target",
    "induced_forms",
    "check_induced_compatibility",
    "ascending_coherence",
]


def _block_diag(block, copies):
    d = block.shape[0]
    out = np.zeros((d * copies, d * copies))
    for c in range(copies):
        out[c * d:(c + 1) * d, c * d:(c + 1) * d] = block
    return out


# the interleaved 2 x 2 blocks: complex structure, symplectic form and
# para-Kahler metric
_I2 = np.array([[0.0, -1.0], [1.0, 0.0]])
_S2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
_G2 = np.diag([1.0, -1.0])


def block_target(pairs, flavor="kahler",
                 tol: Tolerance = DEFAULT_TOL) -> tuple[CompatibleTriple, Report]:
    """The canonical triple of ``flavor`` on R^(2*pairs), and the
    ``check_triple`` report that accepted it: ``complete_pair`` under
    ``tol`` of the identity metric and the block complex structure
    (Kahler), or of the block neutral metric and the block form (para)."""
    if flavor == "kahler":
        first = BilinearForm(np.eye(2 * pairs), "symmetric")
        second = ComplexStructure(_block_diag(_I2, pairs))
    else:
        first = krein_from_matrix(_block_diag(_G2, pairs), tol)
        second = SymplecticForm(_block_diag(_S2, pairs))
    return complete_pair(first, second, flavor, tol)


def block_kahler_target(pairs, tol: Tolerance = DEFAULT_TOL) -> CompatibleTriple:
    """Canonical Kahler triple on R^(2*pairs) in the interleaved convention,
    completed under ``tol``.

    The structure is block diagonal over coordinate pairs, so the family over
    pairs = 1, 2, 3, ... is coherent under coordinate padding (the half-split
    canonical convention is not).
    """
    return block_target(pairs, "kahler", tol)[0]


def block_para_target(pairs, tol: Tolerance = DEFAULT_TOL) -> CompatibleTriple:
    """Canonical para-Kahler triple on R^(2*pairs), interleaved convention,
    completed under ``tol``."""
    return block_target(pairs, "para_kahler", tol)[0]


@dataclass(eq=False)
class DiscretizedLoopSpace:
    """A loop into a constant-coefficient Kahler/para-Kahler target.

    ``loop`` is an (N, d) array of points; tangent vectors share that shape.
    Weights default to uniform 1/N and must be positive with unit sum.
    """

    target: CompatibleTriple
    loop: np.ndarray
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        self.loop = np.asarray(self.loop, dtype=float)
        if self.loop.ndim != 2:
            raise ShapeMismatch("loop must be an (N, d) array")
        n, d = self.loop.shape
        if n == 0:
            raise ShapeMismatch("a loop needs at least one sample")
        if d != self.target.dim:
            raise ShapeMismatch(f"loop points have dim {d}, target dim {self.target.dim}")
        if self.weights is None:
            self.weights = np.full(n, 1.0 / n)
        else:
            self.weights = np.asarray(self.weights, dtype=float)
            if self.weights.shape != (n,):
                raise ShapeMismatch("one weight per sample required")
            if not np.isfinite(self.weights).all():
                raise InvalidInput("weights must be finite")
            if np.any(self.weights <= 0):
                raise InvalidInput("weights must be positive")
            if abs(self.weights.sum() - 1.0) > 1e-12:
                raise InvalidInput("weights must sum to one")

    @property
    def samples(self):
        return self.loop.shape[0]


def _conform(space, x):
    x = np.asarray(x, dtype=float)
    if x.shape != space.loop.shape:
        raise ShapeMismatch(f"tangent array {x.shape}, expected {space.loop.shape}")
    return x


def _forms(space, x, y, scale=1.0):
    """Omega(X, Y) and g(X, Y) for each pair of an ``(..., N, d)`` stack of
    tangent arrays: one quadrature per form over the whole stack, on the
    target's form and metric each divided by ``scale``, a power of two."""
    w = space.weights
    omega, metric = space.target.omega.matrix / scale, space.target.metric_matrix / scale
    return (np.sum(w * np.einsum("...ti,ij,...tj->...t", x, omega, y), axis=-1),
            np.sum(w * np.einsum("...ti,ij,...tj->...t", x, metric, y), axis=-1))


def _overflow_scale(space, pairs, values):
    """The scale at which a check judges its target: None where every pair
    ``(X, Y)`` of finite tangent stacks has finite ``_forms`` ``values``;
    else ``linalg._power_of_two`` of the target's form and metric together,
    one exact scale for both, since the target's entries have overflowed
    the quadrature."""
    if np.isfinite(values).all() or not any(
            np.isfinite(x).all() and np.isfinite(y).all()
            for (x, y), value in zip(pairs, values) if not np.isfinite(value).all()):
        return None
    return _power_of_two(np.stack([space.target.omega.matrix, space.target.metric_matrix]))


def induced_forms(space: DiscretizedLoopSpace, x, y):
    """Quadrature values (Omega(X, Y), g(X, Y)) and the pointwise image I X."""
    x = _conform(space, x)
    y = _conform(space, y)
    omega_val, metric_val = _forms(space, x, y)
    return float(omega_val), float(metric_val), x @ space.target.structure.matrix.T


def check_induced_compatibility(space: DiscretizedLoopSpace, trials=20,
                                tol: Tolerance = DEFAULT_TOL,
                                rng=None) -> Report:
    """Random-tangent verification that the induced data stays compatible.

    Checks, for ``trials`` random tangent pairs: antisymmetry of the induced
    form, invariance under the structure, the linking identity
    g(X, Y) = Omega(X, I Y), and positivity (Kahler) of g(X, X).  The
    induced metric's signature is reported: block-diagonal with one target
    block per sample point, so it is N * signature(target).  The pairs are
    one ``(trials, 2, N, d)`` draw, and each identity is evaluated on all of
    them at once.  Where a quadrature of finite tangents overflows, the
    check judges the target at its own scale: every quadrature is evaluated
    on the target's form and metric divided by ``_overflow_scale``, the
    power of two of the largest entry of either (the signature rescues its
    own range).
    """
    rng = rng or np.random.default_rng(0)
    report = Report(tol=tol)
    flavor = space.target.flavor
    i = space.target.structure.matrix

    x, y = np.moveaxis(rng.normal(size=(trials, 2, *space.loop.shape)), 1, 0)
    ix, iy = x @ i.T, y @ i.T
    kahler = flavor == "kahler"
    pairs = [(x, y), (y, x), (ix, iy), (x, iy)] + ([(x, x)] if kahler else [])
    values = [_forms(space, *pair) for pair in pairs]
    target_scale = _overflow_scale(space, pairs, values)
    if target_scale is not None:
        values = [_forms(space, *pair, target_scale) for pair in pairs]
    (o_xy, g_xy), (o_yx, _), (o_ii, _), (o_x_iy, _), *g_xx = values
    # one residual per trial for each identity; each entry keeps the worst
    scale = np.maximum(np.abs(o_xy), 1.0)
    sign = 1.0 if kahler else -1.0
    for name, residuals, where in (
            ("antisymmetry", np.abs(o_xy + o_yx) / scale, f"{trials} trials"),
            ("form_invariance", np.abs(o_ii - sign * o_xy) / scale, ""),
            ("metric_is_form_of_structure",
             np.abs(g_xy - o_x_iy) / np.maximum(np.abs(g_xy), 1.0), "")):
        report.measured(name, residuals, location=where)
    if kahler:
        positive_ok = bool(np.all(g_xx[0][1] > 0))
        report.add("metric_positive_on_trials", positive_ok,
                   0.0 if positive_ok else 1.0)
    else:
        p, q, _ = signature_of(space.target.metric_matrix, tol)
        p, q = space.samples * p, space.samples * q
        report.add("metric_neutral", p == q, float(abs(p - q)),
                   f"signature ({p}, {q})")
    return report


def ascending_coherence(targets: Sequence[CompatibleTriple], samples,
                        tol: Tolerance = DEFAULT_TOL, rng=None,
                        reports: Optional[Sequence[Report]] = None) -> Report:
    """Coherence of induced loop-space data over an ascending target family.

    ``targets`` live on padded ambient spaces (dim_0 <= dim_1 <= ...); the
    per-point structures must form coherent direct sequences, and then the
    induced forms agree across levels on included tangent arrays exactly
    (linearity of the quadrature).  Both facts are checked: the pointwise
    sequences through the tower machinery, the induced agreement on random
    tangent data.  Each target's ``target_compatible`` entry is read from
    its ``check_triple`` report under ``tol``: ``reports[l]`` when the
    caller holds them, as ``block_target`` and ``complete_pair`` return
    them, else a check run here.  Raises ShapeMismatch unless there is one report per target.
    """
    if reports is not None and len(reports) != len(targets):
        raise ShapeMismatch(f"{len(reports)} reports for {len(targets)} targets")
    rng = rng or np.random.default_rng(0)
    report = Report(tol=tol)
    dims = [t.dim for t in targets]
    bonding = BondingSystem.padded(dims, "direct")

    for name, kind, extract in (
        ("structure", "1,1", lambda t: t.structure.matrix),
        ("form", "2,0", lambda t: t.omega.matrix),
        ("metric", "2,0", lambda t: t.metric_matrix),
    ):
        seq = CoherentSequence(bonding, [extract(t) for t in targets], kind)
        rep = check_coherent(seq, tol)
        report.extend(rep, prefix=f"{name}/")

    for lvl, triple in enumerate(targets):
        rep = check_triple(triple, tol) if reports is None else reports[lvl]
        report.add(f"target_compatible[{lvl}]", rep.passed, rep.worst_residual)

    # induced agreement: evaluate at level i on random tangents, include
    # into level j, evaluate there; the loops only fix the sample count
    maps = bonding.map_table()
    for i in range(len(targets)):
        for j in range(i + 1, len(targets)):
            inc = maps[i][j]
            loop_i, x_i, y_i = np.moveaxis(rng.normal(size=(5, 3, samples, dims[i])), 1, 0)
            space_i = DiscretizedLoopSpace(targets[i], loop_i[0])
            space_j = DiscretizedLoopSpace(targets[j], loop_i[0] @ inc.T)
            x_j = x_i @ inc.T
            o_i, g_i = _forms(space_i, x_i, y_i)
            o_j, g_j = _forms(space_j, x_j, y_i @ inc.T)
            ix_i = x_i @ targets[i].structure.matrix.T
            ix_j = x_j @ targets[j].structure.matrix.T
            # one row per trial, in the order a trial-by-trial loop listed them
            residuals = np.stack([np.abs(o_i - o_j) / np.maximum(np.abs(o_i), 1.0),
                                  np.abs(g_i - g_j) / np.maximum(np.abs(g_i), 1.0),
                                  fro_each(ix_i @ inc.T - ix_j)
                                  / np.maximum(fro_each(ix_i), 1.0)], axis=1)
            report.measured(f"induced_agreement[{i},{j}]", residuals.ravel())
    report.note(f"{samples} circle samples per loop")
    return report
