"""The package's public names and tolerance constants."""
import ast
import inspect
from pathlib import Path

import qnot

# The public callables that take a tolerance: none.  Every threshold is a
# module constant, so a PSD question gets one answer in every module.
TOL_OWNERS = ()


# Every module-level ``*_TOL`` constant; a new tolerance knob fails here
# until it is registered.
TOLERANCES = {
    "feasibility.IMAG_TOL", "feasibility.PARALLEL_TOL",
    "linalg.GRAM_TOL", "linalg.HERMITICITY_TOL", "linalg.PSD_TOL",
    "linalg.RANK_TOL",
    "simulator.FIDELITY_TOL", "simulator.PROB_TOL", "simulator.UNITARITY_TOL",
    "states.NORM_TOL",
}

# Every ``eigvalsh``, ``eigh``, ``svd``, ``qr`` and ``cholesky`` call, as
# ``(solver, module.function)``.  A rank decision reads an ``eigh`` spectrum;
# ``eigvalsh`` serves only the PSD test and EQUAL's lambda_max, the failure
# amplitudes' ``eigh`` only a factor of M, never a verdict, the SVD only
# the polar factor, the QR only the completion's shrinking of that SVD, and
# the Cholesky factor only EQUAL's lambda_max and the failure amplitudes,
# never a verdict, so a new call fails here until it is registered.
EIGENSOLVERS = {
    ("eigvalsh", "linalg.smallest_eigenvalue"),
    ("eigvalsh", "optimizer.search_gamma"),
    ("eigh", "feasibility.solve_dependent_triple"),
    ("eigh", "linalg.psd_sqrt"),
    ("eigh", "linalg.range_null"),
    ("eigh", "optimizer.gamma_max_triple"),
    ("eigh", "synthesis._failure_amplitudes"),
    ("eigh", "synthesis.synthesize"),
    ("svd", "linalg.completion_block"),
    ("qr", "linalg.completion_block"),
    ("cholesky", "optimizer.search_gamma"),
    ("cholesky", "synthesis._failure_amplitudes"),
}

# Every function that reads ``PSD_TOL``.  Only ``feasibility.point_rule``
# compares the constraint matrix's lambda_min with it; the others test a
# matrix that is not M (a probe Gram, a square root's argument) or aim a
# closed form at that rule's edge, so a second edge fails here until it is
# registered.
PSD_TOL_READERS = {
    "feasibility.ProbeSpec.full_gram", "feasibility.point_rule",
    "linalg.is_psd", "linalg.psd_sqrt",
    "optimizer.search_gamma", "optimizer.search_gamma.schur_step",
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
    """QNOT_TOL is no longer read, so no public callable takes a ``tol``."""
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


def _scoped(node, where: str):
    """``(module.scope, node)`` for each node under ``node``; the scope is
    the innermost enclosing function or class."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        where = f"{where}.{node.name}"
    yield where, node
    for child in ast.iter_child_nodes(node):
        yield from _scoped(child, where)


def _module_nodes():
    for path in Path(qnot.__file__).parent.glob("*.py"):
        yield from _scoped(ast.parse(path.read_text()), path.stem)


def _called(node):
    """Name of the function a call node calls, else None."""
    if isinstance(node, ast.Call):
        func = node.func
        return func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", None)
    return None


def _reads_psd_tol(node) -> bool:
    return any(isinstance(n, ast.Name) and n.id == "PSD_TOL"
               and isinstance(n.ctx, ast.Load) for n in ast.walk(node))


def test_eigensolver_calls_are_registered():
    found = {(_called(node), where) for where, node in _module_nodes()
             if _called(node) in ("eigvalsh", "eigh", "svd", "qr", "cholesky")}
    assert found == EIGENSOLVERS
    assert {where for solver, where in found if solver == "eigvalsh"} == {
        "linalg.smallest_eigenvalue", "optimizer.search_gamma"}


def test_one_function_holds_the_point_rule():
    """Each reader of ``PSD_TOL`` is registered, and the one that compares
    against it where the constraint matrix is built is the point rule."""
    readers, compares, builds = set(), set(), set()
    for where, node in _module_nodes():
        if isinstance(node, ast.Name) and _reads_psd_tol(node):
            readers.add(where)
        if isinstance(node, ast.Compare) and _reads_psd_tol(node):
            compares.add(where)
        if _called(node) in ("scaled_constraint", "constraint_matrix"):
            builds.add(where)
    assert readers == PSD_TOL_READERS
    assert compares & builds == {"feasibility.point_rule"}


def _environment_reads(tree):
    """Line of each ``os.environ`` or ``os.getenv`` reference under ``tree``,
    as an attribute, a bare name or a ``from os import``."""
    for node in ast.walk(tree):
        name = (node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name)
                else node.name if isinstance(node, ast.alias) else None)
        if name in ("environ", "environb", "getenv", "getenvb"):
            yield node.lineno


def test_no_module_reads_the_environment():
    """No knob can come back through an environment variable unregistered."""
    found = {}
    for path in Path(qnot.__file__).parent.glob("*.py"):
        lines = list(_environment_reads(ast.parse(path.read_text())))
        if lines:
            found[path.stem] = lines
    assert found == {}
