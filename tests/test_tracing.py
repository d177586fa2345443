"""The benchmark's tracer against the package it wraps.

``bench/tracing.py`` wraps each target by name in the module or class that
defines it and rebinds every module attribute that still names the
original.  A refactor that moves a target, or that keeps a reference the
rebinding cannot reach, breaks ``bench/run.py --trace 1`` or silently
zeroes its counters; these tests catch both.  The tracer is imported by
path and not changed.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from tensorstruct import bundle
from tensorstruct.bundle import Chart, ChartAtlas, LocalTensorField
from tensorstruct.structures import StructureMatrix

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("tensorstruct_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every attribute of every tensorstruct module, keyed by (module, name)."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "tensorstruct" or name.startswith("tensorstruct.")):
            out.update({(name, key): value for key, value in vars(module).items()})
    return out


def test_every_traced_target_lives_on_its_owner(tracing):
    for owner, attr, name, _, _ in tracing._targets():
        assert attr in owner.__dict__, f"{name}: {attr} not defined on {owner!r}"


def test_install_then_uninstall_restores_every_attribute(tracing):
    owners = {id(owner): owner for owner, *_ in tracing._targets()}
    before = _bindings()
    classes = {key: dict(vars(owner)) for key, owner in owners.items()}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        installed = _bindings()
        assert any(installed[key] is not value for key, value in before.items())
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    for key, owner in owners.items():
        assert all(vars(owner)[attr] is value for attr, value in classes[key].items())


def test_a_traced_form_check_records_its_signatures(tracing):
    # the model's signature once, then one per admitted sample
    samples = np.array([[0.0], [0.5]])
    atlas = ChartAtlas(2, [Chart("u", [-1.0], [1.0], samples)])
    field = LocalTensorField("2,0", {"u": lambda x: np.diag([2.0, 1.0 + x[0]])})
    model = StructureMatrix(np.eye(2), "2,0")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert bundle.check_locally_modelled(field, atlas, model).passed
    finally:
        tracer.uninstall()
    names = [span[2] for span in tracer.spans]
    assert names.count("linalg.signature_of") == 1 + len(samples)
    assert names.count("bundle.check_locally_modelled") == 1
