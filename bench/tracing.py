"""Spans around tensorstruct's public functions, installed from outside.

``Tracer.install`` wraps each target in the module or class that defines
it and rebinds every ``tensorstruct`` module attribute that still names the
original, so names imported with ``from .x import f`` are traced too.
``uninstall`` puts the originals back.

A span records (id, parent id, name, start, end, self seconds, operation).
Self time is the span's duration minus the time of everything traced
inside it.  Very hot leaves (``Poly.__call__``, ``Poly.diff``, field
``__call__``, ``BondingSystem.map``/``projection``, ``LevelForm.__call__``,
``ChartAtlas.transition_at``, ``induced_forms``) get no span each: they
are counted and their self time is summed by name, and their inclusive
time is charged to the enclosing span as child time.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("poly", "calculus", "limits", "linalg", "structures", "compat",
          "bundle", "loopspace", "documents", "cli", "report")


def _targets():
    """(owner, attribute, traced name, leaf?, hook) for every traced callable."""
    import tensorstruct.bundle as bundle
    import tensorstruct.calculus as calculus
    import tensorstruct.cli as cli
    import tensorstruct.compat as compat
    import tensorstruct.documents as documents
    import tensorstruct.limits as limits
    import tensorstruct.linalg as linalg
    import tensorstruct.loopspace as loopspace
    import tensorstruct.poly as poly
    import tensorstruct.structures as structures

    def distinct(name, key):
        def hook(tracer, args, kwargs):
            tracer.see(name, args[0], key(args, kwargs))
        return hook

    def integrable(tracer, args, kwargs):
        field = args[0]
        grid = args[2] if len(args) > 2 else kwargs["grid"]
        points = len(np.atleast_2d(grid))
        tracer.counts["calculus.grid.points"] += points
        tracer.counts["calculus.point_pairs"] += points * field.dim * (field.dim - 1) // 2

    def metric_integrable(tracer, args, kwargs):
        grid = args[1] if len(args) > 1 else kwargs["grid"]
        tracer.counts["calculus.grid.points"] += len(np.atleast_2d(grid))

    def field_eval(tracer, args, kwargs):
        if tracer.active["calculus.is_integrable_structure"]:
            tracer.counts["calculus.field_eval.in_nijenhuis"] += 1

    def emitted(tracer, args, kwargs):
        tracer.counts["report.entries"] += len(args[0].entries)

    def levels(args, kwargs):
        return tuple(args[1:3])

    out = [
        (poly.Poly, "__call__", "poly.eval", True, None),
        (poly.Poly, "diff", "poly.diff", True,
         distinct("poly.diff", lambda a, k: a[1] if len(a) > 1 else k["index"])),
        (calculus.TensorFieldOnChart, "__call__", "calculus.field_eval", True, field_eval),
        (calculus, "lie_bracket", "calculus.lie_bracket", False, None),
        (calculus, "nijenhuis", "calculus.nijenhuis", False, None),
        (calculus.ConnectionData, "__call__", "calculus.christoffel", False, None),
        (calculus, "curvature", "calculus.curvature", False, None),
        (calculus, "is_integrable_structure", "calculus.is_integrable_structure", False,
         integrable),
        (calculus, "is_metric_integrable", "calculus.is_metric_integrable", False,
         metric_integrable),
        (limits.BondingSystem, "map", "limits.map", True, distinct("limits.map", levels)),
        (limits.BondingSystem, "projection", "limits.projection", True,
         distinct("limits.projection", levels)),
        (limits.LevelForm, "__call__", "limits.level_form", True, None),
        (limits, "validate_bonding", "limits.validate_bonding", False, None),
        (limits, "check_coherent", "limits.check_coherent", False, None),
        (limits, "check_connection_coherence", "limits.check_connection_coherence", False,
         None),
        (limits, "tuple_membership", "limits.tuple_membership", False, None),
        (limits, "theta_projection", "limits.theta_projection", False, None),
        (linalg, "spd_sqrt", "linalg.spd_sqrt", False, None),
        (linalg, "kernel_and_image", "linalg.kernel_and_image", False, None),
        (linalg, "signature_of", "linalg.signature_of", False, None),
        (structures, "validate", "structures.validate", False, None),
        (structures, "darboux_basis", "structures.darboux_basis", False, None),
        (compat, "structure_from", "compat.structure_from", False, None),
        (compat, "complete_triple", "compat.complete_triple", False, None),
        (compat, "check_triple", "compat.check_triple", False, None),
        (bundle.ChartAtlas, "transition_at", "bundle.transition_at", True, None),
        (bundle, "in_isotropy", "bundle.in_isotropy", False, None),
        (bundle, "check_cocycle", "bundle.check_cocycle", False, None),
        (bundle, "check_reduction", "bundle.check_reduction", False, None),
        (bundle, "check_locally_modelled", "bundle.check_locally_modelled", False, None),
        (loopspace, "induced_forms", "loopspace.induced_forms", True, None),
        (loopspace, "check_induced_compatibility", "loopspace.check_induced_compatibility",
         False, None),
        (loopspace, "ascending_coherence", "loopspace.ascending_coherence", False, None),
        # _load reads, decodes and digests a document file
        (cli, "_load", "documents.load", False, None),
        (cli, "run", "cli.run", False, None),
        (cli, "build_parser", "cli.argparse", False, None),
        (argparse.ArgumentParser, "parse_args", "cli.argparse", False, None),
        # _emit is to_dict plus JSON serialisation
        (cli, "_emit", "report.emit", False, emitted),
    ]
    for name in documents.__all__:
        if name.startswith("parse_"):
            out.append((documents, name, "documents.parse", False, None))
    return out


class Tracer:
    def __init__(self):
        self.stack = []         # frames [span id, start, child seconds, layer]
        self.spans = []         # (id, parent, name, start, end, self seconds, op)
        self.leaf_calls = Counter()
        self.leaf_self = Counter()
        self.counts = Counter()
        self.active = Counter()  # open spans by name
        self.raised = Counter()  # exceptions leaving each layer
        self.distinct_total = Counter()
        self._distinct = {}      # name -> keys seen in the current operation
        self._alive = []         # keeps keyed objects alive so ids stay unique
        self._next = 0
        self._patched = []
        self.op = None

    # -- operation boundaries -------------------------------------------------

    def begin_op(self, op_id):
        self.end_op()
        self.op = op_id

    def end_op(self):
        for name, keys in self._distinct.items():
            self.distinct_total[name] += len(keys)
        self._distinct = {}
        self._alive = []
        self.op = None

    def see(self, name, owner, key):
        self._distinct.setdefault(name, set()).add((id(owner), key))
        self._alive.append(owner)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, name, leaf, hook):
        tracer = self
        layer = name.split(".", 1)[0]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(tracer, args, kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else None
            frame = [-1, 0.0, 0.0, layer]
            if not leaf:
                frame[0] = tracer._next
                tracer._next += 1
                tracer.active[name] += 1
            stack.append(frame)
            start = frame[1] = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                if parent is None or parent[3] != layer:
                    tracer.raised[layer] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                if leaf:
                    tracer.leaf_calls[name] += 1
                    tracer.leaf_self[name] += duration - frame[2]
                else:
                    tracer.active[name] -= 1
                    tracer.spans.append((frame[0], parent[0] if parent else -1, name,
                                         start, end, duration - frame[2], tracer.op))

        return wrapper

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "tensorstruct" or n.startswith("tensorstruct."))]
        for owner, attr, name, leaf, hook in _targets():
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, name, leaf, hook)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original and module is not owner:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    # -- results ------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def metrics(self, overhead_ratio):
        """Per-layer metrics; times in ms, counts exact."""
        self.end_op()
        span_calls = Counter()
        span_self = Counter()
        for _, _, name, _, _, self_s, _ in self.spans:
            span_calls[name] += 1
            span_self[name] += self_s
        calls = span_calls + self.leaf_calls
        self_ms = {name: 1e3 * s for name, s in (span_self + self.leaf_self).items()}

        def ratio(a, b):
            return a / b if b else 0.0

        m = {}
        for name in ("poly.eval", "poly.diff", "calculus.field_eval", "calculus.lie_bracket",
                     "calculus.nijenhuis", "calculus.christoffel", "calculus.curvature",
                     "limits.map", "limits.projection", "limits.level_form",
                     "limits.tuple_membership", "limits.theta_projection",
                     "linalg.spd_sqrt", "linalg.kernel_and_image", "linalg.signature_of",
                     "compat.structure_from", "bundle.transition_at", "bundle.in_isotropy",
                     "loopspace.induced_forms", "cli.run"):
            m[f"{name}.calls"] = (calls[name], "count")
        for name in ("poly.eval", "poly.diff", "calculus.nijenhuis", "calculus.christoffel",
                     "calculus.curvature", "calculus.is_integrable_structure",
                     "calculus.is_metric_integrable", "limits.map", "limits.projection",
                     "limits.validate_bonding", "limits.check_coherent",
                     "limits.check_connection_coherence", "limits.tuple_membership",
                     "limits.theta_projection", "linalg.spd_sqrt", "linalg.kernel_and_image",
                     "structures.validate", "structures.darboux_basis",
                     "compat.structure_from", "compat.complete_triple", "compat.check_triple",
                     "bundle.transition_at", "bundle.check_cocycle", "bundle.check_reduction",
                     "bundle.check_locally_modelled", "loopspace.check_induced_compatibility",
                     "loopspace.ascending_coherence", "documents.load", "documents.parse",
                     "cli.argparse", "report.emit"):
            m[f"{name}.self_ms"] = (self_ms.get(name, 0.0), "ms")
        for name in ("poly.diff", "limits.map", "limits.projection"):
            m[f"{name}.distinct_ratio"] = (ratio(self.distinct_total[name], calls[name]),
                                           "ratio")
        m["calculus.field_eval.per_pair"] = (
            ratio(self.counts["calculus.field_eval.in_nijenhuis"],
                  self.counts["calculus.point_pairs"]), "ratio")
        m["calculus.grid.points"] = (self.counts["calculus.grid.points"], "count")
        m["report.entries"] = (self.counts["report.entries"], "count")
        for layer in LAYERS:
            m[f"{layer}.raised"] = (self.raised[layer], "count")
        m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}
