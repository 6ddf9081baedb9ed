"""The project's pytest settings report a failing test as a failure."""
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
