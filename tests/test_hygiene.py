"""Source hygiene of the package, checked with the standard library's ast."""

import argparse
import ast
import builtins
import importlib
from pathlib import Path

import numpy as np
import pytest

from tensorstruct.bundle import Chart, ChartAtlas
from tensorstruct.compat import OperatorA
from tensorstruct.limits import (
    BondingSystem,
    CoherentSequence,
    ConnectionFormSequence,
    LevelForm,
    LevelTuple,
)
from tensorstruct.loopspace import DiscretizedLoopSpace, block_kahler_target
from tensorstruct.structures import (
    BilinearForm,
    CotangentStructure,
    StructureMatrix,
    complex_canonical,
    krein_from_matrix,
    para_complex_canonical,
    symplectic_canonical,
    tangent_canonical,
)

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tensorstruct"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _imported_names(tree):
    """Every (name, line) bound by an import statement, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("module", [m for m in MODULES if m != "__init__"])
def test_every_import_is_used(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree)
              if name not in used]
    assert not unused, f"{module} imports names it never uses: {unused}"


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    name = "tensorstruct" if module == "__init__" else f"tensorstruct.{module}"
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", []) if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names undefined attributes: {missing}"



def test_every_error_class_is_raised():
    # an exception class that nothing raises is a distinction no caller meets
    errors = ast.parse((PACKAGE / "errors.py").read_text())
    classes = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    raised = set()
    for module in MODULES:
        for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                func = node.exc.func
                raised.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", ""))
    assert not sorted(classes - raised), f"errors.py classes never raised: {sorted(classes - raised)}"


# the built-in exceptions a module may raise ("*": any module): a wrong
# argument type, the overflow poly.sum_of_products signals to its caller
# (which converts it), and the AttributeError a module's __getattr__ must
# raise for a name it does not serve; every other rejected input is a
# TensorStructError
BUILTINS_RAISED = {("*", "TypeError"), ("poly", "OverflowError"), ("__init__", "AttributeError")}


def _raised_builtins(tree):
    """(name, line) of every ``raise`` of a built-in exception class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if (isinstance(exc, ast.Name) and isinstance(getattr(builtins, exc.id, None), type)
                    and issubclass(getattr(builtins, exc.id), BaseException)):
                yield exc.id, node.lineno


@pytest.mark.parametrize("module", MODULES)
def test_rejected_inputs_raise_the_package_errors(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    bad = [f"{name} (line {line})" for name, line in _raised_builtins(tree)
           if not {("*", name), (module, name)} & BUILTINS_RAISED]
    assert not bad, f"{module} raises built-in exceptions: {bad}"


def _catches_everything(handler):
    """Whether an except clause is bare or names Exception or BaseException."""
    if handler.type is None:
        return True
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(t, ast.Name) and t.id in ("Exception", "BaseException")
               for t in types)


@pytest.mark.parametrize("module", MODULES)
def test_no_catch_all_except_clauses(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.ExceptHandler) and _catches_everything(node)]
    assert not lines, f"{module} catches every exception at lines {lines}"


def _tolerance_constants(tree):
    """DEFAULT_TOL and every module-level name bound to a ``Tolerance(...)`` call."""
    names = {"DEFAULT_TOL"}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name) and node.value.func.id == "Tolerance"):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def _defaults(args):
    """(parameter, default) for every parameter of a signature that has one."""
    positional = args.posonlyargs + args.args
    yield from zip(positional[len(positional) - len(args.defaults):], args.defaults)
    yield from ((a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)


@pytest.mark.parametrize("module", MODULES)
def test_tol_parameters_default_to_a_tolerance(module):
    # a bare number as ``tol`` hides which of atol and rtol it stands for
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    allowed = _tolerance_constants(tree)
    bad = [f"line {default.lineno}: tol={ast.unparse(default)}"
           for node in ast.walk(tree)
           if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
           for arg, default in _defaults(node.args)
           if arg.arg == "tol" and not (isinstance(default, ast.Name) and default.id in allowed)]
    assert not bad, f"{module} has tol parameters without a Tolerance default: {bad}"


def _decides_provenance_or_tolerance(node):
    """A ``Tolerance(...)`` call, a ``Report(...)`` call with provenance
    arguments (positional, ``command=`` or ``digest=``; ``tol=`` only hands
    on a tolerance picked elsewhere), or an assignment to a ``.command`` or
    ``.digest``."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id == "Tolerance" or (
            node.func.id == "Report" and bool(node.args or any(
                k.arg in ("command", "digest") for k in node.keywords)))
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else [])
    return any(isinstance(t, ast.Attribute) and t.attr in ("command", "digest")
               for target in targets for t in ast.walk(target))


def test_only_cli_run_names_digests_and_picks_a_tolerance():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    [run] = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "run"]
    inside = {id(node) for node in ast.walk(run)}
    outside = [f"line {node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
               if id(node) not in inside and _decides_provenance_or_tolerance(node)]
    assert not outside, f"cli.py decides a report's name, digest or Tolerance outside run: {outside}"
    # the name, the digest and the two Tolerance policies
    assert sum(map(_decides_provenance_or_tolerance, ast.walk(run))) == 4


def test_documents_judges_under_its_callers_tolerance():
    # a parser that builds a judged object takes the command's tol, with no
    # default, so no value is judged under a tolerance no flag reaches
    tree = ast.parse((PACKAGE / "documents.py").read_text())
    named = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "DEFAULT_TOL"
             or isinstance(node, ast.Attribute) and node.attr == "DEFAULT_TOL"
             or isinstance(node, ast.alias) and node.name == "DEFAULT_TOL"]
    assert not named, f"documents.py names DEFAULT_TOL at lines {named}"
    required = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)
                for arg in node.args.args[:len(node.args.args) - len(node.args.defaults)]
                if arg.arg == "tol"}
    assert required >= {"parse_structure", "parse_pair", "parse_loop"}


def test_build_parser_alone_declares_the_command_line():
    # run reads well-formed argv from the parser's own action table, so no
    # option string and no argument type is written a second time in cli.py
    from tensorstruct import cli

    options, parsers = set(), [cli.build_parser()]
    while parsers:
        for action in parsers.pop()._actions:
            if not isinstance(action, argparse._HelpAction):  # argparse adds -h itself
                options.update(action.option_strings)
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    [build] = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "build_parser"]
    inside = {id(node) for node in ast.walk(build)}
    assert options <= {node.value for node in ast.walk(build) if isinstance(node, ast.Constant)}
    outside = [f"line {node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
               if id(node) not in inside and (
                   isinstance(node, ast.Constant) and node.value in options
                   or isinstance(node, ast.Name) and (node.id == "_number"
                                                      or node.id.startswith("_positive_")))]
    assert not outside, f"cli.py names an option or an argument type outside build_parser: {outside}"


def _calls_to(tree, attr):
    """The lines of every call of a function named ``attr``, as ``np.<attr>(...)``."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and node.func.attr == attr]


def test_only_report_formats_locations():
    # report.location writes every sample point an entry names
    outside = {module: lines for module in MODULES if module != "report"
               if (lines := _calls_to(ast.parse((PACKAGE / f"{module}.py").read_text()),
                                      "array2string"))}
    assert not outside, f"np.array2string called outside report.py: {outside}"


def _term_table_lines(tree):
    """The lines of every ``<x>.add.at`` and every read of ``<x>.coeffs``."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and (
        (node.attr == "coeffs" and isinstance(node.ctx, ast.Load))
        or (node.attr == "at" and isinstance(node.value, ast.Attribute)
            and node.value.attr == "add"))]


def test_only_poly_reads_polynomial_terms_and_folds_them():
    # one polynomial representation: the term format of ``Poly`` and the
    # np.add.at folds over term tables stay behind poly.py
    lines = {module: _term_table_lines(ast.parse((PACKAGE / f"{module}.py").read_text()))
             for module in MODULES}
    assert lines.pop("poly")
    outside = {module: found for module, found in lines.items() if found}
    assert not outside, f"polynomial terms read or folded outside poly.py: {outside}"


def _catchers(tree, name):
    """The function around each except clause that names exception ``name``."""
    for function in ast.walk(tree):
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(function):
                if isinstance(node, ast.ExceptHandler) and node.type is not None:
                    types = (node.type.elts if isinstance(node.type, ast.Tuple)
                             else [node.type])
                    if any(isinstance(t, ast.Name) and t.id == name for t in types):
                        yield function.name, node.lineno


def test_bad_at_point_is_caught_in_one_place_per_kind_of_check():
    # the grid checks in calculus._grid_report, the field check of bundle in
    # check_locally_modelled, twice: around its one call for a chart's
    # samples and in its per-sample loop (the atlas checks get their bad
    # samples from ChartAtlas.transitions_at, which raises nothing per
    # sample); nested functions are reported with their parents
    caught = [(module, function) for module in MODULES
              for function, _ in _catchers(ast.parse((PACKAGE / f"{module}.py").read_text()),
                                           "BadAtPoint")]
    assert sorted(caught) == [("bundle", "check_locally_modelled"),
                              ("bundle", "check_locally_modelled"),
                              ("calculus", "_grid_report")]


def _called_names(tree):
    """The name of every function called in ``tree``, as ``f(...)`` or ``x.f(...)``."""
    return {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))}


def test_the_atlas_checks_evaluate_stacks_and_only_modelled_samples_one_at_a_time():
    # check_cocycle and check_reduction take every sample of a transition
    # at once from ChartAtlas.transitions_at, in _cocycle, whose overlap
    # stacks check_reduction judges too; check_locally_modelled alone loops
    # over its samples, evaluating the field at one sample at a time when
    # it cannot take them all at once
    tree = ast.parse((PACKAGE / "bundle.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "_finite" not in functions
    assert "transitions_at" in _called_names(functions["_cocycle"])
    for name in ("check_cocycle", "check_reduction", "_cocycle"):
        called = _called_names(functions[name])
        assert name == "_cocycle" or "_cocycle" in called
        assert not called & {"transition_at", "at"}, name
    assert [name for name, function in functions.items()
            if "at" in _called_names(function)] == ["check_locally_modelled"]
    # ... inside a try, one sample per iteration of a loop
    assert any(isinstance(node, ast.Try) and "at" in _called_names(node)
               for loop in ast.walk(functions["check_locally_modelled"])
               if isinstance(loop, ast.For) for node in loop.body)


# the constructions that decide their own preconditions, and the public
# predicates; every report entry is decided by ``Report.measured`` or
# ``Report.measured_block``
DECIDE_FOR_THEMSELVES = {
    ("linalg", "spd_sqrt"),
    ("compat", "omega_from"), ("compat", "_g_from"), ("compat", "structure_from"),
    ("structures", "fundamental_symmetry"),
    ("bundle", "in_isotropy"), ("bundle", "_orbit_class"), ("bundle", "_same_orbit"),
    ("calculus", "is_integrable_structure"),
    ("limits", "_composition_block"),  # its probe at scale 0
}


def _outer_functions(tree):
    """Every module-level function and every method of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node
        elif isinstance(node, ast.ClassDef):
            yield from (f for f in node.body if isinstance(f, ast.FunctionDef))


def _accepts_callers(module):
    """(module, function) for every ``.accepts(...)`` call of a module: the
    function or method of the module's body around it (nested functions
    count as their parent), or "<module>" outside every function."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    around = {line: f.name for f in _outer_functions(tree) for line in _calls_to(f, "accepts")}
    return {(module, around.get(line, "<module>")) for line in _calls_to(tree, "accepts")}


def test_only_the_report_decides_measured_entries():
    callers = set().union(*(_accepts_callers(m) for m in MODULES if m != "report"))
    assert callers <= DECIDE_FOR_THEMSELVES, (
        f"Tolerance.accepts called outside report.py by {sorted(callers - DECIDE_FOR_THEMSELVES)}")


def _exported(tree):
    """The names of a module's ``__all__`` when it is a literal; the package
    root builds its ``__all__`` from its table of names that other modules
    define, so it exports none of its own functions."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            try:
                return set(ast.literal_eval(node.value))
            except ValueError:
                return set()
    return set()


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """(qualified name, short name, exported) for every module-level function
    and every method of a module-level class but the dunder ones, which the
    interpreter calls (a module's ``__getattr__`` and ``__dir__`` too); only
    a function of ``__all__`` counts as exported, never a method."""
    exported = _exported(tree)
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not _dunder(node.name):
            yield node.name, node.name, node.name in exported
        elif isinstance(node, ast.ClassDef):
            for f in node.body:
                if isinstance(f, ast.FunctionDef) and not _dunder(f.name):
                    yield f"{node.name}.{f.name}", f.name, False


# public methods of exported classes that nothing in src/ names, each kept
# for a caller outside the package
CALLED_FROM_OUTSIDE = {
    "bundle.ChartAtlas.transition_at": "bench/tracing.py wraps it",
    "poly.Poly.diff": "bench/tracing.py wraps it",
    "calculus.TensorFieldOnChart.apply": "library API the tests use",
    "calculus.VectorField.coordinate": "library API the tests use",
    "poly.Poly.coordinate": "library API the tests use",
}


def test_every_function_is_referenced_or_exported():
    # code that nothing calls is code to delete: every function and method
    # is named somewhere in the package, as ``f`` or ``x.f``, or is a
    # function of ``__all__``; a method counts only when src/ names it, or
    # when CALLED_FROM_OUTSIDE names its caller
    trees = {module: ast.parse((PACKAGE / f"{module}.py").read_text()) for module in MODULES}
    referenced = {node.id if isinstance(node, ast.Name) else node.attr
                  for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute))}
    unused = {f"{module}.{name}" for module, tree in trees.items()
              for name, short, exported in _definitions(tree)
              if not exported and short not in referenced}
    assert unused == set(CALLED_FROM_OUTSIDE), (
        f"functions that nothing in src/ references: {sorted(unused - set(CALLED_FROM_OUTSIDE))}; "
        f"allowed but now referenced: {sorted(set(CALLED_FROM_OUTSIDE) - unused)}")


def _tower():
    return BondingSystem.padded([1, 2], "projective")


# one instance of every dataclass that holds arrays
ARRAY_HOLDERS = {
    "Chart": lambda: Chart("u", [0.0], [1.0], [[0.5]]),
    "ChartAtlas": lambda: ChartAtlas(1, [Chart("u", [0.0], [1.0])]),
    "BondingSystem": _tower,
    "CoherentSequence": lambda: CoherentSequence(_tower(), [[[1.0]], np.eye(2)], "1,1"),
    "LevelTuple": lambda: LevelTuple(_tower(), [[[1.0]], np.eye(2)]),
    "ConnectionFormSequence": lambda: ConnectionFormSequence(
        _tower(), [LevelForm([[[0.0]]]), LevelForm(np.zeros((2, 2, 2)))],
        [StructureMatrix(np.eye(d), "2,0") for d in (1, 2)]),
    "StructureMatrix": lambda: StructureMatrix(np.eye(2), "1,1"),
    "BilinearForm": lambda: BilinearForm(np.eye(2), "symmetric"),
    "SymplecticForm": lambda: symplectic_canonical(2),
    "KreinMetric": lambda: krein_from_matrix(np.diag([1.0, -1.0])),
    "ComplexStructure": lambda: complex_canonical(2),
    "ParaComplexStructure": lambda: para_complex_canonical(2),
    "TangentStructure": lambda: tangent_canonical(2),
    "CotangentStructure": lambda: CotangentStructure(symplectic_canonical(2), [1.0, 0.0],
                                                     [0.0, 1.0]),
    "CompatibleTriple": lambda: block_kahler_target(1),
    "OperatorA": lambda: OperatorA(np.eye(2), np.eye(2), np.eye(2)),
    "DiscretizedLoopSpace": lambda: DiscretizedLoopSpace(block_kahler_target(1),
                                                         np.zeros((3, 2))),
}


@pytest.mark.parametrize("name", sorted(ARRAY_HOLDERS))
def test_array_holders_compare_and_hash_by_identity(name):
    # a generated __eq__ compares the arrays and raises on their truth value
    build = ARRAY_HOLDERS[name]
    value = build()
    assert type(value).__name__ == name
    assert value == value and value != build()
    assert hash(value) == hash(value)
    assert {value: name}[value] == name


def _sites(predicate):
    """(module, function) around every node of the package that satisfies
    ``predicate`` (nested functions count as their parent, "<module>"
    stands for code outside every function)."""
    sites = set()
    for module in MODULES:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        around = {id(node): f.name for f in _outer_functions(tree) for node in ast.walk(f)}
        sites |= {(module, around.get(id(node), "<module>"))
                  for node in ast.walk(tree) if predicate(node)}
    return sites


def _squares_itself(node):
    """``x @ x``: a matrix times itself."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
            and ast.dump(node.left) == ast.dump(node.right))


def _adds_its_transpose(node):
    """``x - x.T``, ``x + x.T`` or ``x.T +- x``: a symmetry defect."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))):
        return False
    return any(isinstance(b, ast.Attribute) and b.attr == "T" and ast.dump(b.value) == ast.dump(a)
               for a, b in ((node.left, node.right), (node.right, node.left)))


def _retries_each_row(node):
    """A loop holding an ``except`` clause that names ``LinAlgError``."""
    return isinstance(node, (ast.For, ast.While)) and any(
        isinstance(handler, ast.ExceptHandler) and handler.type is not None
        and "LinAlgError" in ast.unparse(handler.type) for handler in ast.walk(node))


# symmetry defects computed outside symmetry_defect
OTHER_SCALE = {
    ("linalg", "spd_sqrt"): "linalg lies below structures; it judges at |m|, as symmetry_defect",
    ("compat", "_form_structure"): "the induced metric is judged at the form's scale",
}


def test_each_defining_identity_and_the_row_fallback_have_one_home():
    # A^2 = c Id in structures.square_defect, S = +-S^T in
    # structures.symmetry_defect, and the row-by-row retry of a stacked
    # np.linalg call in linalg.batched: every check calls these
    assert _sites(_squares_itself) == {("structures", "square_defect")}
    assert _sites(_adds_its_transpose) == {("structures", "symmetry_defect"), *OTHER_SCALE}
    assert _sites(_retries_each_row) == {("linalg", "batched")}


def _reads_a_tolerance_bound(node):
    """A comparison that reads ``.atol`` or ``.rtol`` of a Tolerance: of
    ``tol``, of an attribute ``.tol`` or of a ``*_TOL`` constant, the names
    a Tolerance goes by in the package outside its own methods."""
    return isinstance(node, ast.Compare) and any(
        isinstance(a, ast.Attribute) and a.attr in ("atol", "rtol") and (
            isinstance(a.value, ast.Name) and (a.value.id == "tol" or a.value.id.endswith("_TOL"))
            or isinstance(a.value, ast.Attribute) and a.value.attr == "tol")
        for a in ast.walk(node))


def _floors_at_one(node):
    """``max(x, 1.0)``, ``np.maximum(x, 1.0)`` or ``np.fmax(x, 1.0)``: a
    scale raised to at least 1."""
    return isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id == "max"
        or isinstance(node.func, ast.Attribute) and node.func.attr in ("maximum", "fmax")) and any(
        isinstance(a, ast.Constant) and isinstance(a.value, float) and a.value == 1.0
        for a in node.args)


# loopspace divides its residuals by max(|a|, 1): these are residual
# definitions that the benchmark's reference digests pin, not scales
RESIDUALS_DIVIDED_BY_A_FLOOR = {
    ("loopspace", "check_induced_compatibility"), ("loopspace", "ascending_coherence"),
}


def test_every_threshold_is_atol_plus_rtol_times_the_true_scale():
    # only Tolerance turns a scale into a threshold, atol + rtol * scale,
    # and every eigenvalue-sign decision takes tol.eigen_cut: no check
    # compares with atol or rtol itself, and no scale is floored at 1
    assert _sites(_reads_a_tolerance_bound) == set()
    assert _sites(_floors_at_one) == RESIDUALS_DIVIDED_BY_A_FLOOR
