"""The project's tooling: pytest reports a failing test as a failure,
every docstring cross-reference names something that exists, no module
imports a name it never uses, and the benchmark's own tests pass."""
import ast
import builtins
import importlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5
"""


def test_failing_hypothesis_test_is_reported_not_an_internal_error(pytester):
    """Warnings are errors, and hypothesis's failure report imports libcst,
    which warns; the run must still name the failed test."""
    pytester.makepyprojecttoml(PYPROJECT.read_text())
    pytester.mkdir("tests")
    (pytester.path / "tests" / "test_fails.py").write_text(FAILING)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1)
    output = result.stdout.str() + result.stderr.str()
    assert "INTERNALERROR" not in output
    assert "test_fails.py::test_fails" in output


ROLE = re.compile(r":(?:func|class|meth|attr|data|exc|mod):`~?\.?([\w.]+)")
SOURCES = sorted((PYPROJECT.parent / "src" / "qnot").glob("*.py"))


def _lookup(obj, parts) -> bool:
    for part in parts:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def _imported(path: str) -> bool:
    """``path`` as a module, or an attribute chain below its longest
    importable prefix."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            module = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        return _lookup(module, parts[cut:])
    return False


def _resolves(module, target: str) -> bool:
    parts = target.split(".")
    classes = [v for v in vars(module).values() if isinstance(v, type)]
    return (_lookup(module, parts)
            or any(_lookup(cls, parts) for cls in classes)
            or _imported(f"qnot.{target}") or _imported(target)
            or _lookup(builtins, parts))


def test_docstring_cross_references_resolve():
    """Every Sphinx role target in the package names something that exists,
    so a doc cannot keep naming a helper after it is deleted."""
    stale, seen = [], 0
    for path in SOURCES:
        module = importlib.import_module(
            "qnot" if path.stem == "__init__" else f"qnot.{path.stem}")
        for target in ROLE.findall(path.read_text()):
            seen += 1
            if not _resolves(module, target):
                stale.append(f"{path.name}: {target}")
    assert seen and not stale


def _unused_imports(tree):
    """Names an import binds at any level of ``tree`` that no expression
    reads; a name that appears only in a docstring is unused."""
    bound = {}
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{name}:{line}" for name, line in bound.items()
                  if name not in read)


def test_no_module_imports_a_name_it_never_uses():
    """Only the package's ``__init__`` imports names to re-export them; an
    import elsewhere that nothing reads is dead, or kept for an outside
    reader the module does not serve."""
    found = {}
    for path in SOURCES:
        if path.stem != "__init__":
            unused = _unused_imports(ast.parse(path.read_text()))
            if unused:
                found[path.stem] = unused
    assert found == {}


def test_benchmark_tests_pass():
    """``bench`` and ``tests`` each import a top-level ``conftest`` by name,
    so one pytest run cannot collect both; the benchmark's checks and span
    wrappers read the library, so its suite runs here as a child."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "bench", "-q", "-p", "no:cacheprovider"],
        cwd=PYPROJECT.parent, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_benchmark_spans_stay_bound():
    """The traced run skips a name the library no longer binds, so a layer
    whose every binding is gone would read 0; each layer keeps one here."""
    path = PYPROJECT.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    bound = {}
    for owner, attr, name in spans.LAYERS:
        key = name if isinstance(name, str) else name.__name__
        bound[key] = bound.get(key, False) or attr in vars(owner)
    assert bound and [k for k, ok in bound.items() if not ok] == []
