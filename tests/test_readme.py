"""The README's library example runs and prints what its comments say."""
import contextlib
import io
import pathlib
import re

import numpy as np

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs_as_documented():
    text = README.read_text().split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    phases, ok = out.getvalue().splitlines()
    np.testing.assert_allclose(np.array(phases.strip("[]").split(), float),
                               [0.0, np.pi / 2], atol=1e-12)
    assert ok == "True"
