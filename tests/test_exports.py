"""The package's public names and tolerance constants."""
import ast
import inspect
from pathlib import Path

import qnot

# The functions the command line's QNOT_TOL reaches, through ``check
# --gamma`` and ``oracle``; every other threshold, the triple bound's
# included, is a module constant.
TOL_OWNERS = ("check_probabilistic", "search_gamma")


# Every module-level ``*_TOL`` constant; a new tolerance knob fails here
# until it is registered.
TOLERANCES = {
    "feasibility.IMAG_TOL", "feasibility.PARALLEL_TOL",
    "linalg.GRAM_TOL", "linalg.HERMITICITY_TOL", "linalg.PSD_TOL",
    "linalg.RANK_TOL",
    "simulator.FIDELITY_TOL", "simulator.PROB_TOL", "simulator.UNITARITY_TOL",
    "states.NORM_TOL",
}

# Every ``eigvalsh``, ``eigh`` and ``svd`` call, as ``(solver, module.function)``.
# A rank decision reads an ``eigh`` spectrum; ``eigvalsh`` serves only the
# PSD test and EQUAL's lambda_max, and the SVD only the polar factor, so a
# new call fails here until it is registered.
EIGENSOLVERS = {
    ("eigvalsh", "linalg.smallest_eigenvalue"),
    ("eigvalsh", "optimizer.search_gamma"),
    ("eigh", "feasibility.solve_dependent_triple"),
    ("eigh", "linalg.psd_sqrt"),
    ("eigh", "linalg.range_null"),
    ("eigh", "optimizer.gamma_max_triple"),
    ("eigh", "synthesis.synthesize"),
    ("svd", "linalg.completion_block"),
}


def test_every_exported_name_resolves():
    """``import qnot`` does not check ``__all__``; a stale entry shows here."""
    assert [name for name in qnot.__all__ if not hasattr(qnot, name)] == []
    assert len(set(qnot.__all__)) == len(qnot.__all__)


def _public_callables():
    """``(name, callable)`` for each export and each public method of one."""
    for name in qnot.__all__:
        obj = getattr(qnot, name)
        if isinstance(obj, type) and issubclass(obj, BaseException):
            continue
        if callable(obj):
            yield name, obj
        if isinstance(obj, type):
            for attr in vars(obj):
                member = getattr(obj, attr)
                if not attr.startswith("_") and callable(member):
                    yield f"{name}.{attr}", member


def _is_tolerance(param: str) -> bool:
    return (param == "tol" or param.endswith("_tol")
            or param in ("eta", "exact_when_real"))


def test_tol_only_where_qnot_tol_reaches():
    found = {}
    for name, obj in _public_callables():
        params = inspect.signature(obj).parameters
        tolerances = [p for p in params if _is_tolerance(p)]
        if tolerances:
            found[name] = tolerances
    assert found == {name: ["tol"] for name in TOL_OWNERS}


def test_tolerance_constants_are_registered():
    found = set()
    for path in Path(qnot.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            found.update(f"{path.stem}.{t.id}" for t in targets
                         if isinstance(t, ast.Name) and t.id.endswith("_TOL"))
    assert found == TOLERANCES


def _solver_calls(node, module: str, scope: tuple = ()):
    """``(solver, module.scope)`` for each eigensolver call under ``node``."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        scope = scope + (node.name,)
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", None)
        if name in ("eigvalsh", "eigh", "svd"):
            yield name, ".".join((module,) + scope)
    for child in ast.iter_child_nodes(node):
        yield from _solver_calls(child, module, scope)


def test_eigensolver_calls_are_registered():
    found = set()
    for path in Path(qnot.__file__).parent.glob("*.py"):
        found.update(_solver_calls(ast.parse(path.read_text()), path.stem))
    assert found == EIGENSOLVERS
    assert {where for solver, where in found if solver == "eigvalsh"} == {
        "linalg.smallest_eigenvalue", "optimizer.search_gamma"}
