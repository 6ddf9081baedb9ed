"""The package's public names and tolerance constants."""
import ast
import inspect
from pathlib import Path

import qnot
import qnot.serialize  # noqa: F401  (defines SchemaError)

# The public callables that take a tolerance: none.  Every threshold is a
# module constant, so a PSD question gets one answer in every module.
TOL_OWNERS = ()


# Every module-level ``*_TOL`` constant; a new tolerance knob fails here
# until it is registered.
TOLERANCES = {
    "feasibility.PARALLEL_TOL",
    "linalg.GRAM_TOL", "linalg.HERMITICITY_TOL", "linalg.PSD_TOL",
    "linalg.RANK_TOL",
    "simulator.FIDELITY_TOL", "simulator.PROB_TOL", "simulator.UNITARITY_TOL",
    "states.NORM_TOL",
}

# Every ``eigvalsh``, ``eigh``, ``svd``, ``qr`` and ``cholesky`` call, as
# ``(solver, module.function)``.  A rank decision reads an ``eigh`` spectrum;
# ``eigvalsh`` serves only the PSD test and EQUAL's lambda_max.  A Gram's
# ``eigh`` is taken only in ``range_null``, whose split gives the search's
# null space, ``synthesize``'s epsilon and the range every probabilistic
# machine is built on.  ``_cross_svd`` is the one SVD of a cross map for
# every machine, with a QR for the joint span when 2k < rows: the polar
# factor of a completion, and the CS decomposition of a success map.
# ``_clamp_excess``'s ``eigh`` and SVD, and the ``psd_sqrt`` it takes its
# root from, move an edge point's branches to the Gram of G - M_+, never a
# verdict.  The Cholesky factor serves only EQUAL's lambda_max, so a new
# call fails here until it is registered.
EIGENSOLVERS = {
    ("eigvalsh", "linalg.smallest_eigenvalue"),
    ("eigvalsh", "optimizer.search_gamma"),
    ("eigh", "linalg.psd_sqrt"),
    ("eigh", "linalg.range_null"),
    ("eigh", "synthesis._clamp_excess"),
    ("svd", "linalg._cross_svd"),
    ("svd", "synthesis._clamp_excess"),
    ("qr", "linalg._cross_svd"),
    ("cholesky", "optimizer.search_gamma"),
}

# Every function that reads ``PSD_TOL``.  Only ``feasibility.point_rule``
# compares the constraint matrix's lambda_min with it; the others test a
# matrix that is not M (a probe Gram, a square root's argument) or aim a
# closed form at that rule's edge, so a second edge fails here until it is
# registered.
PSD_TOL_READERS = {
    "feasibility.point_rule", "linalg.is_psd", "linalg.psd_sqrt",
    "optimizer.search_gamma", "optimizer.search_gamma.shifted_constraint",
}

# Every function that calls ``scaled_constraint``, the one arithmetic of the
# constraint matrix: the public check, the point rule, the assembly, and
# COORDINATE's one build per point, which every Schur step at that point
# takes its block from, so a second build in the ascent (a rebuild per
# step) fails here until it is registered.
SCALED_CONSTRAINT_CALLERS = {
    "feasibility.constraint_matrix", "feasibility.point_rule",
    "optimizer.search_gamma.shifted_constraint", "synthesis._assemble",
}

# Every function that reads ``GRAM_TOL``.  ``linalg.gram_miss`` is the one
# Gram comparison, which the completion and both exact checks call; the
# others test a null-space residual, so a second Gram test fails here until
# it is registered.
GRAM_TOL_READERS = {
    "linalg.gram_miss", "feasibility._probabilistic", "optimizer.search_gamma",
}

# Every function that reads ``ZERO_SUCCESS``: the efficiencies a request or a
# machine file may design stop where the simulator stops observing an output,
# so a second floor fails here until it is registered.
ZERO_SUCCESS_READERS = {
    "feasibility.efficiencies", "simulator._run_columns",
}

# Every function that reads ``COORDINATE_CONVERGENCE``: it is the Schur
# step's rise floor, and COORDINATE stops when no free member's step moves,
# so a second reader (a sweep-stop test) fails here until it is registered.
COORDINATE_CONVERGENCE_READERS = {"optimizer.search_gamma.schur_step"}

# Every function that calls ``null_count``: ``range_null`` is the one split
# of a Gram's ``eigh``, and every rank decision reads its bases, so a second
# split fails here until it is registered.
NULL_COUNT_CALLERS = {"linalg.range_null"}

# Every function that calls ``efficiencies``: a point's check validates its
# efficiencies once and hands them on, so the assembly that builds from them
# validates nothing, and a second check on the build path fails here until
# it is registered.  The others validate a request that reaches no check (a
# public constraint matrix, the triple's two efficiencies) or a machine's
# own design.
EFFICIENCIES_CALLERS = {
    "feasibility._probabilistic", "feasibility.constraint_matrix",
    "feasibility.solve_dependent_triple", "synthesis.Machine.__init__",
}

# Every function that calls ``machine_phases``: each builder of a
# phase-vector machine refuses any other probe once, up front, and hands the
# phases on, so a second refusal fails here until it is registered.
MACHINE_PHASES_CALLERS = {"feasibility.build_probe_unitary",
                          "synthesis.synthesize_with"}

# Every function that reads ``NORM_TOL``: a set's members and a lone state
# share one member check, and a probe Gram's unit diagonal is the other
# reader, so a second norm test fails here until it is registered.
NORM_TOL_READERS = {"feasibility.ProbeSpec.full_gram", "states._check_members"}

# Every function that calls ``ProbeSpec.phase_vector``.  ``standard_probe``
# is the one default probe: the probe check's witness and the default of the
# search and the CLI.  The others build a probe that is not a default: the
# triple's own probe from its polar data, the zero-phase probe of
# ``synthesize``'s epsilon bound, and an explicit ``--phases``.  A second
# default-probe rule fails here until it is registered.
PROBE_BUILDERS = {
    "feasibility.standard_probe", "optimizer.TripleBoundInput.probe",
    "synthesis.synthesize", "cli._probe_from_args",
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


def test_one_constraint_build_per_caller():
    """``scaled_constraint`` is called only where M is built for a point."""
    found = {where for where, node in _module_nodes()
             if _called(node) == "scaled_constraint"}
    assert found == SCALED_CONSTRAINT_CALLERS


def test_one_gram_comparison():
    """Each reader of ``GRAM_TOL`` is registered, and the only one that
    calls no null-space test is ``gram_miss``."""
    readers, null_tests = set(), set()
    for where, node in _module_nodes():
        if (isinstance(node, ast.Name) and node.id == "GRAM_TOL"
                and isinstance(node.ctx, ast.Load)):
            readers.add(where)
        if _called(node) in ("null_miss", "range_null"):
            null_tests.add(where)
    assert readers == GRAM_TOL_READERS
    assert readers - null_tests == {"linalg.gram_miss"}


def _assigned_and_read(name: str):
    """``(scopes that assign name, scopes that read it)``."""
    assigned, readers = set(), set()
    for where, node in _module_nodes():
        if isinstance(node, ast.Name) and node.id == name:
            (readers if isinstance(node.ctx, ast.Load) else assigned).add(where)
    return assigned, readers


def test_one_success_floor():
    """``ZERO_SUCCESS`` is assigned once, beside the tolerances, and each
    function that reads it is registered."""
    assert _assigned_and_read("ZERO_SUCCESS") == ({"linalg"},
                                                  ZERO_SUCCESS_READERS)


def test_one_rise_floor():
    """``COORDINATE_CONVERGENCE`` is assigned once, in ``optimizer``, and
    each function that reads it is registered."""
    assert _assigned_and_read("COORDINATE_CONVERGENCE") == (
        {"optimizer"}, COORDINATE_CONVERGENCE_READERS)


def test_one_rank_split():
    """``null_count`` is called only where a Gram's ``eigh`` is split."""
    found = {where for where, node in _module_nodes()
             if _called(node) == "null_count"}
    assert found == NULL_COUNT_CALLERS


def test_one_efficiency_check_per_point():
    """``efficiencies`` is called only where a point or a design is checked."""
    found = {where for where, node in _module_nodes()
             if _called(node) == "efficiencies"}
    assert found == EFFICIENCIES_CALLERS


def test_one_phase_probe_refusal_per_build():
    """``machine_phases`` is called only where a machine's build starts."""
    found = {where for where, node in _module_nodes()
             if _called(node) == "machine_phases"}
    assert found == MACHINE_PHASES_CALLERS


def test_one_member_check():
    """``NORM_TOL`` is assigned once, in ``states``, and each function that
    reads it is registered."""
    assert _assigned_and_read("NORM_TOL") == ({"states"}, NORM_TOL_READERS)


def test_one_default_probe_rule():
    """Each function that builds a phase-vector probe is registered."""
    found = {where for where, node in _module_nodes()
             if _called(node) == "phase_vector"}
    assert found == PROBE_BUILDERS


def _package_errors(cls=qnot.QnotError):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("qnot."):
            yield sub.__name__
        yield from _package_errors(sub)


def test_every_error_type_is_raised():
    """Each ``QnotError`` subclass the package defines, ``SchemaError``
    included, is raised somewhere in it: a type nothing raises is dead API."""
    raised = set()
    for _, node in _module_nodes():
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    defined = set(_package_errors())
    assert {"ZeroSuccess", "SchemaError"} <= defined
    assert defined - raised == set()


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
