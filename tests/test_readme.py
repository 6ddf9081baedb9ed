"""The README's examples run and do what its text says."""
import contextlib
import io
import json
import pathlib
import re
import shlex

import numpy as np
from test_tooling import _resolves

import qnot
from qnot import TripleBoundInput
from qnot.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.\w+)+)")
FILE_SUFFIXES = (".py", ".toml", ".json", ".md")


def test_dotted_names_resolve():
    """Every backticked ``module.name`` names something that exists, as the
    docstrings' cross-references do, so README cannot keep naming a helper
    after it is renamed or deleted."""
    names = {name for name in DOTTED.findall(README.read_text())
             if not name.endswith(FILE_SUFFIXES)}
    assert len(names) > 20
    assert sorted(name for name in names if not _resolves(qnot, name)) == []


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


def test_command_line_examples_exit_0(tmp_path, monkeypatch, capsys):
    """Each ``qnot`` line of the command-line block, in README order."""
    text = README.read_text().split("## Command line", 1)[1]
    (tmp_path / "set.json").write_text(
        re.search(r"```json\n(.*?)```", text, re.S).group(1))
    # an independent conjugate qutrit triple, |overlaps| 0.3
    g = TripleBoundInput(0.3, 0.3, 0.3, 0.4, 0.1, 0.2).gram_matrix().matrix
    rows = np.conj(np.linalg.cholesky(g))
    (tmp_path / "triple.json").write_text(json.dumps(
        {"target": "conjugate",
         "states": [{"dim": 3, "amps": [[z.real, z.imag] for z in row]}
                    for row in rows]}))
    lines = re.search(r"```sh\n(.*?)```", text, re.S).group(1).splitlines()
    monkeypatch.chdir(tmp_path)
    assert len(lines) == 7
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "qnot"
        assert main(argv[1:]) == 0, line
        capsys.readouterr()
    assert (tmp_path / "machine.json").exists()
