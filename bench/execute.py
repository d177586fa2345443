"""Run one benchmark operation against tensorstruct and judge its outcome.

An operation fails when its exit status differs from the one expected by
construction, when an exception escapes the call, or when its ``--json``
output does not parse under a strict parser (no ``NaN``/``Infinity``).
Library operations "exit" 0 when their check passes and 1 otherwise.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time

import numpy as np


def _reject_constant(token):
    raise ValueError(f"non-strict JSON constant {token}")


class Outcome:
    __slots__ = ("ms", "status", "error", "entries")

    def __init__(self, ms, status, error=None, entries=()):
        self.ms = ms
        self.status = status
        self.error = error
        self.entries = list(entries)  # [(name, residual)] in report order


def prepare(op):
    """Build library-call inputs outside the timed region."""
    if op["kind"] == "cli":
        return None
    from tensorstruct.limits import BondingSystem, LevelTuple
    from tensorstruct.structures import SymplecticForm

    args = op["args"]
    if op["fn"] == "tuple_membership":
        bonding = BondingSystem.padded(args["dims"], "projective")
        return [LevelTuple(bonding, [m[:d, :d] for d in args["dims"]])
                for m in (args["left"], args["right"])]
    if op["fn"] == "theta_projection":
        return BondingSystem.padded(args["dims"], "direct")
    return SymplecticForm(args["omega"])


def run(op, prepared):
    """Time one operation; library functions are looked up at call time so
    that a traced run sees its wrappers."""
    if op["kind"] == "cli":
        return _run_cli(op)
    import tensorstruct.compat as compat
    import tensorstruct.limits as limits

    args = op["args"]
    start = time.perf_counter()
    try:
        if op["fn"] == "tuple_membership":
            report = limits.tuple_membership(limits.tuple_compose(*prepared))
        elif op["fn"] == "theta_projection":
            a, mid, top = args["member"], args["mid"], len(args["dims"]) - 1
            via = limits.theta_projection(
                limits.theta_projection(a, top, mid, prepared), mid, 0, prepared)
            straight = limits.theta_projection(a, top, 0, prepared)
        else:
            structure, corrected, _ = compat.structure_from(args["g"], prepared)
    except Exception as exc:  # an escaping exception is a failed operation
        return Outcome((time.perf_counter() - start) * 1e3, None,
                       f"{type(exc).__name__}: {exc}")
    ms = (time.perf_counter() - start) * 1e3

    if op["fn"] == "tuple_membership":
        entries = [(e.name, e.residual) for e in report.entries]
        return Outcome(ms, 0 if report.passed else 1, entries=entries)
    if op["fn"] == "theta_projection":
        resid = float(np.linalg.norm(via - straight))
        return Outcome(ms, 0 if resid <= op["tol"] else 1,
                       entries=[("functoriality", resid)])
    # the polar-construction criterion: I^2 = -Id, invariance and link, SPD
    i, s, gm = structure.matrix, prepared.matrix, corrected.matrix
    n = i.shape[0]
    square = float(np.linalg.norm(i @ i + np.eye(n)))
    invariance = float(np.linalg.norm(i.T @ s @ i - s))
    link = float(np.linalg.norm(s @ i - gm))
    ok = (square <= op["tol"]
          and invariance <= op["tol"] * max(float(np.linalg.norm(s)), 1.0)
          and link <= op["tol"] * max(float(np.linalg.norm(gm)), 1.0)
          and float(np.linalg.eigvalsh(gm).min()) > 0.0)
    return Outcome(ms, 0 if ok else 1, entries=[("squares_to_minus_id", square),
                                                ("form_invariance", invariance),
                                                ("metric_link", link)])


def _run_cli(op):
    import tensorstruct.cli as cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.run(op["argv"])
    except Exception as exc:  # an escaping exception is a failed operation
        return Outcome((time.perf_counter() - start) * 1e3, None,
                       f"{type(exc).__name__}: {exc}")
    ms = (time.perf_counter() - start) * 1e3
    if status not in (0, 1):
        return Outcome(ms, status)
    try:
        payload = json.loads(out.getvalue(), parse_constant=_reject_constant)
        entries = [(e["name"], float(e["residual"])) for e in payload["entries"]]
    except (ValueError, KeyError, TypeError) as exc:
        return Outcome(ms, status, f"--json output rejected: {exc}")
    if payload.get("exit_status") != status:
        return Outcome(ms, status, "report exit_status differs from the exit code")
    return Outcome(ms, status, entries=entries)


def failure(op, outcome):
    """None when the outcome is what the input was built to produce."""
    if outcome.error is not None:
        return outcome.error
    if outcome.status != op["expect"]:
        return f"exit status {outcome.status}, expected {op['expect']}"
    return None


# ---------------------------------------------------------------------------
# reference residuals
# ---------------------------------------------------------------------------

def fingerprint(entries):
    """Compact record of a report: entry count, name digest, nonzero residuals.

    Tower reports run to thousands of entries that are exactly zero by
    construction; only the nonzero residuals are stored by name.
    """
    names = "\n".join(name for name, _ in entries)
    return {"count": len(entries),
            "digest": hashlib.sha256(names.encode()).hexdigest()[:16],
            "nonzero": {name: r for name, r in entries if r != 0.0}}


def drift(entries, reference, tol):
    """Largest |r - r_ref| / max(|r_ref|, tol) over the reference's entries.

    Returns (drift, entry name).  A reference entry absent from the new
    report counts as infinite drift; when the set of entry names is
    unchanged, every entry not stored as nonzero has r_ref = 0.
    """
    current = dict(entries)
    same_names = fingerprint(entries)["digest"] == reference["digest"]
    worst, where = 0.0, ""
    for name, ref in reference["nonzero"].items():
        if name not in current:
            return float("inf"), f"{name} (missing)"
        d = abs(current[name] - ref) / max(abs(ref), tol)
        if d > worst:
            worst, where = d, name
    if same_names:
        for name, r in entries:
            if name not in reference["nonzero"] and r != 0.0:
                d = abs(r) / tol
                if d > worst:
                    worst, where = d, name
    elif len(current) < reference["count"]:
        return float("inf"), "report lost entries"
    return worst, where
