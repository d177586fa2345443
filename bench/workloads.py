"""Seeded input generators for the three benchmark workloads.

A workload is a sequence of rounds.  Every round of a workload has the same
composition (the same operations at the same sizes, with fresh random
content), so any whole number of rounds has the same operation mix and the
same share of known-defect inputs.  Round 0 of seed ``s`` is generated from
the reference seed ``s % REFERENCE_SEEDS``; its residuals are recorded in
``reference/`` and every run compares against them.  Rounds 1, 2, ... come
from ``s`` itself, so no document repeats within a run.

An operation is a dict:

    id       stable name, unique within a round
    kind     "cli" (one ``cli.run`` call) or "lib" (one library call)
    argv     CLI arguments (cli) -- ``--json`` always, ``--seed`` when randomized
    fn, args library function name and its inputs (lib)
    expect   exit status by construction (lib: 0 = the check passes)
    tol      tolerance handed to the operation, the floor of residual drift
    defect   name of the known defect the input reproduces, or None

Only this module decides what the program is asked to do; the program sees
nothing but the generated files and arguments.
"""

from __future__ import annotations

import json
import os
import zlib

import numpy as np

WORKLOADS = ("chart-calculus", "towers", "linear-batch")
REFERENCE_SEEDS = 8
SIZES = ("full", "tiny")

ATOL = 1e-9            # the CLI's default --atol
NIJENHUIS_TOL = 1e-6   # the CLI's default nijenhuis --tol
CURVATURE_TOL = 1e-5   # the CLI's default curvature --tol
THETA_TOL = 1e-12      # functoriality bound of the tower acceptance criterion
POLAR_TOL = 1e-8       # residual bound of the polar-construction criterion


def _rng(workload, *keys):
    return np.random.default_rng([zlib.crc32(workload.encode()), *keys])


def round_ops(workload, seed, index, size, directory):
    """Operations of round ``index`` for ``seed``; documents go to ``directory``."""
    source = seed % REFERENCE_SEEDS if index == 0 else seed
    rng = _rng(workload, 0, source, index, SIZES.index(size))
    return _GENERATORS[workload](_Writer(directory), rng, size)


def warmup_ops(workload, seed, directory):
    """Tiny-size operations from a seed stream the timed rounds never use."""
    rng = _rng(workload, 1, seed)
    return _GENERATORS[workload](_Writer(directory), rng, "tiny")


class _Writer:
    def __init__(self, directory):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def doc(self, name, doc):
        path = os.path.join(self.directory, name + ".json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    def text(self, name, text):
        path = os.path.join(self.directory, name + ".json")
        with open(path, "w") as fh:
            fh.write(text)
        return path


def _cli(op_id, argv, expect, tol=ATOL, defect=None):
    return {"id": op_id, "kind": "cli", "argv": ["--json", *argv],
            "expect": expect, "tol": tol, "defect": defect}


def _lib(op_id, fn, args, tol):
    return {"id": op_id, "kind": "lib", "fn": fn, "args": args,
            "expect": 0, "tol": tol, "defect": None}


# ---------------------------------------------------------------------------
# shared constructions
# ---------------------------------------------------------------------------

def _conditioned(rng, n):
    """Random change of basis with singular values in [0.6, 1.8]."""
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q1 @ np.diag(rng.uniform(0.6, 1.8, size=n)) @ q2.T


def _signed_permutation(rng, n):
    q = np.zeros((n, n))
    q[rng.permutation(n), np.arange(n)] = rng.choice([-1.0, 1.0], size=n)
    return q


def _block(pattern, k):
    """[[a I, b I], [c I, d I]] for pattern (a, b, c, d)."""
    a, b, c, d = pattern
    eye = np.eye(k)
    return np.block([[a * eye, b * eye], [c * eye, d * eye]])


def _quadratic_diffeo(rng, dim, scale):
    """x + quadratic terms, as documents spell polynomial maps."""
    comps = []
    for i in range(dim):
        linear = [0] * dim
        linear[i] = 1
        terms = [[*linear, 1.0]]
        for a in range(dim):
            for b in range(a, dim):
                expo = [0] * dim
                expo[a] += 1
                expo[b] += 1
                terms.append([*expo, float(scale * rng.uniform(-1.0, 1.0))])
        comps.append(terms)
    return comps


def _block_diag(block, copies):
    d = block.shape[0]
    out = np.zeros((d * copies, d * copies))
    for c in range(copies):
        out[c * d:(c + 1) * d, c * d:(c + 1) * d] = block
    return out


# ---------------------------------------------------------------------------
# chart-calculus: poly and calculus carry the work
# ---------------------------------------------------------------------------

# (kind, dim, grid counts); "tiny" shrinks grids to two points per axis, one at dim 4
CHART_NIJENHUIS = (("tangent", 2, 9), ("para_complex", 2, 9),
                   ("tangent", 3, 3), ("para_complex", 4, 2))
CHART_CURVATURE = ((2, 13), (3, 3), (4, 2))


def _tiny_counts(dim):
    return 2 if dim < 4 else 1


def _nijenhuis_base(kind, dim):
    if kind == "tangent":
        base = np.zeros((dim, dim))
        k = dim // 2
        base[:k, dim - k:] = np.eye(k)  # J^2 = 0
        return base
    k = dim // 2
    return _block((0, 1, 1, 0), k) if dim % 2 == 0 else np.diag([1.0, 1.0, -1.0])


def _chart_calculus(w, rng, size):
    ops = []
    for kind, dim, counts in CHART_NIJENHUIS:
        counts = _tiny_counts(dim) if size == "tiny" else counts
        doc = {"dim": dim,
               "field": {"name": "pullback_structure",
                         "base_matrix": _nijenhuis_base(kind, dim).tolist(),
                         "diffeo": _quadratic_diffeo(rng, dim, 0.3 / dim)},
               "grid": {"counts": counts}}
        name = f"nijenhuis-{kind}-d{dim}"
        ops.append(_cli(name, ["nijenhuis", w.doc(name, doc), "--kind", kind], 0,
                        NIJENHUIS_TOL))
    for dim, counts in CHART_CURVATURE:
        counts = _tiny_counts(dim) if size == "tiny" else counts
        signature = np.where(rng.random(dim) < 0.5, -1.0, 1.0)
        doc = {"dim": dim,
               "field": {"name": "pullback_flat",
                         "base_metric": np.diag(signature).tolist(),
                         "diffeo": _quadratic_diffeo(rng, dim, 0.3 / dim)},
               "grid": {"counts": counts}}
        name = f"curvature-flat-d{dim}"
        ops.append(_cli(name, ["curvature", w.doc(name, doc)], 0, CURVATURE_TOL))
    # the round sphere is curved everywhere: the known-curved control fails
    centre = rng.uniform(-0.5, 0.5, size=2)
    doc = {"dim": 2, "field": {"name": "sphere_stereographic"},
           "grid": {"lo": (centre - 0.5).tolist(), "hi": (centre + 0.5).tolist(),
                    "counts": 3 if size == "tiny" else 9}}
    ops.append(_cli("curvature-sphere-d2", ["curvature", w.doc("sphere", doc)], 1,
                    CURVATURE_TOL))
    doc = {"dim": 2, "field": {"name": "pullback_flat", "diffeo": []}}
    ops.append(_cli("curvature-malformed", ["curvature", w.doc("malformed", doc)], 2,
                    CURVATURE_TOL))
    return ops


# ---------------------------------------------------------------------------
# towers: limits carries the work
# ---------------------------------------------------------------------------

def _tower_dims(depth, cap=None, low=1):
    """Nondecreasing dims from ``low`` over ``depth`` levels, at most ``cap`` wide."""
    cap = cap or depth
    return [low + (i * (cap - low)) // max(depth - 1, 1) for i in range(depth)]


def _pad(a, b):
    return np.eye(b)[:a]  # (a, b): leading-block projection


def _bonding(rng, dims, variance, explicit):
    """A tower document's bonding part, plus the level changes of basis Q_i.

    Padding towers leave the maps out (Q_i = Id).  Explicit towers spell out
    consecutive maps Q_i E Q_{i+1}^T with signed permutations Q_i and the
    padding E; composites telescope to Q_i E Q_j^T, so every composition
    law holds in exact arithmetic, yet no map is a padding map.
    """
    doc = {"variance": variance, "dims": dims}
    if not explicit:
        return doc, [np.eye(d) for d in dims]
    qs = [_signed_permutation(rng, d) for d in dims]
    downs = [qs[i] @ _pad(dims[i], dims[i + 1]) @ qs[i + 1].T for i in range(len(dims) - 1)]
    if variance == "projective":
        doc["maps"] = [m.tolist() for m in downs]
    else:
        doc["maps"] = [m.T.tolist() for m in downs]
        doc["projections"] = [m.tolist() for m in downs]
    return doc, qs


def _tower_doc(rng, depth, variance, explicit, kind):
    dims = _tower_dims(depth)
    top = dims[-1]
    doc, qs = _bonding(rng, dims, variance, explicit)
    # integer entries keep every coherence residual exact
    if kind == "1,1":
        diag = rng.integers(-5, 6, size=top).astype(float)
        blocks = [np.diag(diag[:d]) for d in dims]
    elif variance == "direct":
        m = rng.integers(-4, 5, size=(top, top)).astype(float)
        m = m + m.T
        blocks = [m[:d, :d] for d in dims]
    else:
        b = rng.integers(-4, 5, size=(dims[0], dims[0])).astype(float)
        b = b + b.T
        blocks = [np.pad(b, (0, d - dims[0])) for d in dims]
    doc["sequence"] = {"kind": kind,
                       "levels": [(q @ m @ q.T).tolist() for q, m in zip(qs, blocks)]}
    return doc


def _skew_int(rng, n):
    m = rng.integers(-3, 4, size=(n, n)).astype(float)
    return m - m.T


def _connection_doc(rng, depth, variance, explicit, points):
    """Adapted, coherent connection forms on a (padding or explicit) tower.

    Level forms restrict one top-level skew family T[a].  For a below the
    bottom dimension T[a] lives on the bottom block (what direct towers
    need); above it, T[a] lives on the coordinates from the widest level
    not wider than ``a`` onwards, so restriction commutes with projective
    bonding maps.  Explicit towers conjugate level j by its signed
    permutation Q_j.
    """
    # projective checks run over every top-level direction: keep the top narrow
    cap = depth if variance == "direct" else (8 if depth <= 16 else 4)
    dims = _tower_dims(depth, cap=cap, low=2)
    top = dims[-1]
    doc, qs = _bonding(rng, dims, variance, explicit)
    family = []
    for a in range(top):
        t = np.zeros((top, top))
        if a < dims[0]:
            t[:dims[0], :dims[0]] = _skew_int(rng, dims[0])
        else:
            start = max(d for d in dims if d <= a)
            t[start:, start:] = _skew_int(rng, top - start)
        family.append(t)
    forms = []
    for q, d in zip(qs, dims):
        coeffs = [family[a][:d, :d] for a in range(d)]
        # coefficient of v_b after the change of coordinates u = Q^T v
        conj = [sum(q.T[a, b] * (q @ coeffs[a] @ q.T) for a in range(d))
                for b in range(d)]
        forms.append({"coeffs": [c.tolist() for c in conj]})
    doc["forms"] = forms
    doc["models"] = [{"kind": "2,0", "matrix": np.eye(d).tolist()} for d in dims]
    base = dims[-1] if variance == "projective" else dims[0]
    doc["sample_points"] = rng.uniform(-1.0, 1.0, size=(points, base)).tolist()
    return doc


# (depth, variance, explicit); tiny runs every depth at 4
TOWER_CHECKS = ((8, "direct", False), (8, "projective", False),
                (8, "direct", True), (8, "projective", True),
                (16, "direct", False), (16, "projective", False),
                (16, "direct", True), (16, "projective", True),
                (32, "direct", False), (32, "projective", True))
CONNECTION_CHECKS = ((8, "direct", False), (8, "direct", True), (8, "projective", True),
                     (16, "direct", True), (16, "projective", False),
                     (32, "direct", False), (32, "projective", True))
TUPLE_DEPTHS = (8, 16, 32)
THETA_DEPTHS = (8, 16, 32)


def _flag_member(rng, dims):
    """Random operator preserving the padding flag (block upper triangular)."""
    top = dims[-1]
    a = np.zeros((top, top))
    prev = 0
    for d in sorted(set(dims)):
        a[prev:d, prev:d] = rng.normal(size=(d - prev, d - prev)) + 3.0 * np.eye(d - prev)
        a[:prev, prev:d] = rng.normal(size=(prev, d - prev))
        prev = d
    return a


def _towers(w, rng, size):
    ops = []
    tiny = size == "tiny"
    for n, (depth, variance, explicit) in enumerate(TOWER_CHECKS):
        depth = 4 if tiny else depth
        kind = "1,1" if n % 2 == 0 else "2,0"
        name = f"tower-{variance}-{'explicit' if explicit else 'padding'}-{depth}-{n}"
        doc = _tower_doc(rng, depth, variance, explicit, kind)
        ops.append(_cli(name, ["tower", "check", w.doc(name, doc)], 0))
    # scaling one unit entry of a consecutive map breaks the section law
    doc = _tower_doc(rng, 4 if tiny else 12, "direct", True, "1,1")
    k = int(rng.integers(0, len(doc["maps"])))
    corrupted = np.asarray(doc["maps"][k])
    r, c = np.argwhere(corrupted != 0.0)[0]
    corrupted[r, c] *= 1.0 + 1e-3
    doc["maps"][k] = corrupted.tolist()
    ops.append(_cli("tower-corrupted-map", ["tower", "check", w.doc("corrupted", doc)], 1))
    for n, (depth, variance, explicit) in enumerate(CONNECTION_CHECKS):
        depth = 4 if tiny else depth
        name = f"connection-{variance}-{'explicit' if explicit else 'padding'}-{depth}-{n}"
        doc = _connection_doc(rng, depth, variance, explicit, points=1 if depth > 16 else 2)
        ops.append(_cli(name, ["connection", "check", w.doc(name, doc)], 0))
    # known defect: a level form with fewer coeffs than its level's dimension
    doc = _connection_doc(rng, 4 if tiny else 8, "direct", False, points=2)
    level = len(doc["forms"]) - 1
    doc["forms"][level]["coeffs"] = doc["forms"][level]["coeffs"][:-1]
    ops.append(_cli("connection-short-coeffs",
                    ["connection", "check", w.doc("short-coeffs", doc)], 2,
                    defect="connection form shorter than its level (IndexError)"))
    for depth in TUPLE_DEPTHS:
        depth = 4 if tiny else depth
        dims = _tower_dims(depth)
        top = dims[-1]
        bases = [np.tril(rng.normal(size=(top, top)) + 4.0 * np.eye(top)) for _ in range(2)]
        args = {"dims": dims, "left": bases[0], "right": bases[1]}
        ops.append(_lib(f"tuple_membership-{depth}-{len(ops)}", "tuple_membership", args,
                        ATOL))
    for depth in THETA_DEPTHS:
        depth = 4 if tiny else depth
        dims = _tower_dims(depth)
        args = {"dims": dims, "member": _flag_member(rng, dims),
                "mid": int(rng.integers(1, depth - 1))}
        ops.append(_lib(f"theta_projection-{depth}-{len(ops)}", "theta_projection", args,
                        THETA_TOL))
    return ops


# ---------------------------------------------------------------------------
# linear-batch: many small documents; linalg ... cli carry the work
# ---------------------------------------------------------------------------

C2 = (0, -1, 1, 0)   # complex canonical [[0, -I], [I, 0]]
P2 = (0, 1, 1, 0)    # para-complex canonical
T2 = (0, 1, 0, 0)    # tangent canonical
S2 = (0, 1, -1, 0)   # symplectic canonical


def _structure_docs(rng, size):
    n = 2 if size == "tiny" else 2 * int(rng.integers(1, 4))
    k = n // 2
    p = _conditioned(rng, n)
    pinv = np.linalg.inv(p)
    eye = np.eye(n)
    docs = {
        "complex": {"kind": "complex", "dim": n,
                    "matrix": (pinv @ _block(C2, k) @ p).tolist()},
        "complex-decomposed": {
            "kind": "complex", "dim": n, "matrix": (pinv @ _block(C2, k) @ p).tolist(),
            "decomposition": {"basis1": (pinv @ eye[:, :k]).T.tolist(),
                              "basis2": (pinv @ eye[:, k:]).T.tolist(),
                              "iso": np.eye(k).tolist()}},
        "para_complex": {"kind": "para_complex",
                         "matrix": (pinv @ _block(P2, k) @ p).tolist()},
        "tangent": {"kind": "tangent", "matrix": (pinv @ _block(T2, k) @ p).tolist()},
        "symplectic": {"kind": "symplectic", "matrix": (p.T @ _block(S2, k) @ p).tolist()},
        "krein": {"kind": "krein",
                  "matrix": (p.T @ np.diag(np.repeat([1.0, -1.0], k)) @ p).tolist()},
        "cotangent": {"kind": "cotangent", "matrix": (p.T @ _block(S2, k) @ p).tolist(),
                      "decomposition": {"lagrangian_basis": (pinv @ eye[:, :k]).T.tolist(),
                                        "complement_basis": (pinv @ eye[:, k:]).T.tolist()}},
        "bilinear": {"kind": "bilinear", "symmetry": "skew",
                     "matrix": (p.T @ _block(S2, k) @ p).tolist()},
    }
    bad = pinv @ _block(C2, k) @ p
    bad[0, 0] += 1e-3
    return docs, {"kind": "complex", "matrix": bad.tolist()}


def _triple_pairs(rng, size):
    """Compatible pairs, every flavor and every missing element."""
    pairs = {}
    for flavor in ("kahler", "para_kahler"):
        n = 2 if size == "tiny" else 2 * int(rng.integers(1, 4))
        k = n // 2
        p = _conditioned(rng, n)
        pinv = np.linalg.inv(p)
        if flavor == "kahler":
            g = p.T @ p
            omega = p.T @ _block(S2, k) @ p
            structure = {"kind": "complex", "matrix": (pinv @ _block(C2, k) @ p).tolist()}
        else:
            s2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
            g2 = np.diag([1.0, -1.0])
            j2 = np.array([[0.0, -1.0], [-1.0, 0.0]])
            g = p.T @ _block_diag(g2, k) @ p
            omega = p.T @ _block_diag(s2, k) @ p
            structure = {"kind": "para_complex",
                         "matrix": (pinv @ _block_diag(j2, k) @ p).tolist()}
        pairs[f"{flavor}-no-structure"] = {"g": g.tolist(), "omega": omega.tolist()}
        pairs[f"{flavor}-no-omega"] = {"g": g.tolist(), "structure": structure}
        pairs[f"{flavor}-no-metric"] = {"omega": omega.tolist(), "structure": structure}
    return {name: {"flavor": name.split("-")[0], "given": given}
            for name, given in pairs.items()}


def _rotation_like(rng, n):
    """Invertible map commuting with the complex canonical structure."""
    k = n // 2
    a = rng.normal(size=(k, k)) + 2.0 * np.eye(k)
    b = rng.normal(size=(k, k))
    return np.block([[a, -b], [b, a]])


def _atlas_doc(rng, size):
    n = 2 if size == "tiny" else 4
    samples = 2 if size == "tiny" else 6
    names = ["a", "b", "c", "d"]
    # transitions from a global gauge: T_xy = G_x G_y^-1 is a cocycle exactly
    gauge = {c: _rotation_like(rng, n) for c in names}
    pts = rng.uniform(-0.5, 0.5, size=(samples, 2))
    charts = [{"name": c, "lo": [-1.0, -1.0], "hi": [1.0, 1.0], "samples": pts.tolist()}
              for c in names]
    overlaps = []
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            t = gauge[a] @ np.linalg.inv(gauge[b])
            overlaps.append({"charts": [a, b], "points": pts.tolist(),
                             "transition": {"constant": t.tolist()}})
    triples = [{"charts": list(t), "points": pts.tolist()}
               for t in (("a", "b", "c"), ("a", "b", "d"), ("a", "c", "d"), ("b", "c", "d"))]
    return {"fiber_dim": n, "charts": charts, "overlaps": overlaps, "triples": triples}


def _linear_batch(w, rng, size):
    ops = []
    docs, bad = _structure_docs(rng, size)
    for kind, doc in docs.items():
        ops.append(_cli(f"validate-{kind}", ["validate", w.doc(f"structure-{kind}", doc)], 0))
    ops.append(_cli("validate-not-complex", ["validate", w.doc("structure-bad", bad)], 1))

    for name, doc in _triple_pairs(rng, size).items():
        ops.append(_cli(f"triple-{name}", ["triple", "complete", w.doc(f"pair-{name}", doc)], 0))

    n = 2 if size == "tiny" else 2 * int(rng.integers(1, 5))
    p = _conditioned(rng, n)
    form = p.T @ _block(S2, n // 2) @ p
    ops.append(_cli("darboux", ["darboux", w.doc("darboux", {"kind": "symplectic",
                                                               "matrix": form.tolist()})], 0))

    atlas = _atlas_doc(rng, size)
    clean = w.doc("atlas", atlas)
    ops.append(_cli("cocycle", ["cocycle", clean], 0))
    dirty = json.loads(json.dumps(atlas))
    dirty["overlaps"][1]["transition"]["constant"][0][0] += 1e-3
    ops.append(_cli("cocycle-perturbed", ["cocycle", w.doc("atlas-perturbed", dirty)], 1))

    fiber = atlas["fiber_dim"]
    tensor = w.doc("tensor", {"kind": "1,1", "matrix": _block(C2, fiber // 2).tolist()})
    ops.append(_cli("reduce", ["reduce", clean, tensor], 0))
    p = _conditioned(rng, fiber)
    field = {"dim": 2, "field": {"name": "constant", "kind": "1,1",
                                 "matrix": (np.linalg.inv(p) @ _block(C2, fiber // 2) @ p).tolist()}}
    ops.append(_cli("reduce-field", ["reduce", clean, tensor, "--field",
                                     w.doc("field", field)], 0))

    levels = 2 if size == "tiny" else int(rng.integers(2, 4))
    samples = 4 if size == "tiny" else 8
    seed = str(int(rng.integers(0, 2 ** 31)))
    ops.append(_cli("loopspace-demo", ["--seed", seed, "loopspace", "demo",
                                       "--levels", str(levels), "--samples", str(samples)], 0))
    pairs = 1 if size == "tiny" else int(rng.integers(1, 3))
    loop = {"target": {"flavor": "kahler" if rng.random() < 0.5 else "para_kahler",
                       "pairs": pairs},
            "samples": samples, "loop": rng.normal(size=(samples, 2 * pairs)).tolist(),
            "tangents": {"x": rng.normal(size=(samples, 2 * pairs)).tolist(),
                         "y": rng.normal(size=(samples, 2 * pairs)).tolist()}}
    ops.append(_cli("loopspace-check", ["--seed", seed, "loopspace", "check",
                                        w.doc("loop", loop)], 0))

    for n in ((2, 4) if size == "tiny" else (2, 4, 6, 8, 10, 12)):
        # a well-conditioned SPD metric and nondegenerate form
        q, p = _conditioned(rng, n), _conditioned(rng, n)
        args = {"g": q.T @ q, "omega": p.T @ _block(S2, n // 2) @ p}
        ops.append(_lib(f"structure_from-{n}", "structure_from", args, POLAR_TOL))

    # malformed documents: parse errors must exit 2
    ops.append(_cli("malformed-json", ["validate", w.text("not-json", "{\"kind\": ")], 2))
    ops.append(_cli("malformed-kind", ["validate", w.doc("bad-kind", {"kind": "mystery",
                                                                        "matrix": [[1.0]]})], 2))
    ops.append(_cli("malformed-pair", ["triple", "complete",
                                       w.doc("one-given", {"given": {"g": [[1.0]]}})], 2))
    # known defects (ROADMAP item 4): each escapes as a Python exception today
    nan_pair = _triple_pairs(rng, "tiny")["kahler-no-structure"]
    nan_pair["given"]["g"][0][0] = float("nan")
    ops.append(_cli("malformed-nan-g", ["triple", "complete", w.doc("nan-pair", nan_pair)], 2,
                    defect="NaN in a pair's g (ValueError)"))
    orphan = json.loads(json.dumps(atlas))
    orphan["overlaps"].append(dict(orphan["overlaps"][0], charts=["a", "zz"]))
    ops.append(_cli("malformed-undeclared-chart", ["cocycle", w.doc("orphan", orphan)], 2,
                    defect="overlap naming an undeclared chart (KeyError)"))
    ops.append(_cli("malformed-levels-0", ["--seed", seed, "loopspace", "demo",
                                           "--levels", "0"], 2,
                    defect="loopspace demo --levels 0 (IndexError)"))
    ops.append(_cli("malformed-samples-0", ["--seed", seed, "loopspace", "demo",
                                            "--samples", "0"], 2,
                    defect="loopspace demo --samples 0 (ZeroDivisionError)"))
    return ops


_GENERATORS = {"chart-calculus": _chart_calculus, "towers": _towers,
               "linear-batch": _linear_batch}
