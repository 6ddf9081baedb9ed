"""End-to-end command line tests driven through ``main(argv)``."""
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qnot import (
    QuditState,
    StateSet,
    TargetMap,
    TripleBoundInput,
    gram,
    serialize,
    standard_probe,
    synthesize,
    synthesize_with,
)
from qnot.cli import main

from conftest import (
    near_dependent_triple,
    random_near_dependent_triple,
    random_set,
    random_state,
    worked_triple,
)

SRC = Path(__file__).resolve().parents[1] / "src"

CANONICAL_PAIR = {
    "target": "not",
    "states": [
        {"dim": 2, "amps": [[1.0, 0.0], [0.0, 0.0]]},
        {"dim": 2, "amps": [[0.5, 0.5], [0.7071067811865476, 0.0]]},
    ],
}

REAL_PAIR = {
    "target": "not",
    "states": [
        {"dim": 2, "amps": [[1.0, 0.0], [0.0, 0.0]]},
        {"dim": 2, "amps": [[0.7071067811865476, 0.0],
                            [0.7071067811865476, 0.0]]},
    ],
}

ORTHOGONAL_PAIR = {
    "target": "not",
    "states": [
        {"dim": 2, "amps": [[1.0, 0.0], [0.0, 0.0]]},
        {"dim": 2, "amps": [[0.0, 0.0], [1.0, 0.0]]},
    ],
}


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def state_set_doc(amps_list, target="conjugate"):
    return {"target": target,
            "states": [{"dim": len(a),
                        "amps": [[float(z.real), float(z.imag)] for z in a]}
                       for a in amps_list]}


def hard_triple_doc():
    """Qutrit triple realizing |overlaps| 0.3 with phases (0.4, 0.1, 0.2)."""
    g = TripleBoundInput(0.3, 0.3, 0.3, 0.4, 0.1, 0.2).gram_matrix().matrix
    amps = np.conj(np.linalg.cholesky(g))
    return state_set_doc(list(amps))


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


def test_check_complex_pair(tmp_path, capsys):
    path = write_doc(tmp_path, "set.json", CANONICAL_PAIR)
    code, doc = run(capsys, ["check", "--input", path])
    assert code == 0
    assert doc["exact_unitary"]["feasible"] is False
    assert doc["exact_with_probe"]["feasible"] is True
    phases = doc["exact_with_probe"]["witness_phases"]
    assert phases == pytest.approx([0.0, np.pi / 2], abs=1e-9)


def test_check_real_pair_is_exactly_flippable(tmp_path, capsys):
    path = write_doc(tmp_path, "set.json", REAL_PAIR)
    code, doc = run(capsys, ["check", "--input", path])
    assert code == 0
    assert doc["exact_unitary"]["feasible"] is True


def test_check_orthogonal_pair_reports_witness_phases(tmp_path, capsys):
    """A zero overlap constrains nothing: the probe check gives a verdict."""
    path = write_doc(tmp_path, "set.json", ORTHOGONAL_PAIR)
    code, doc = run(capsys, ["check", "--input", path])
    assert code == 0
    assert doc["exact_with_probe"] == {"feasible": True,
                                       "witness_phases": [0.0, 0.0],
                                       "violation": None}
    assert doc["exact_unitary"]["feasible"] is True


def great_circle_doc(n=4):
    """The first ``n`` of {|0>, |1>, |+i>, |-i>} under NOT: one great circle
    of the Bloch sphere, with members orthogonal to member 0."""
    s = 1 / np.sqrt(2)
    return state_set_doc(
        [np.array(a) for a in ([1, 0], [0, 1], [s, 1j * s], [s, -1j * s])][:n],
        target="not")


@pytest.mark.parametrize("name", ["orthogonal_pair", "great_circle"])
def test_check_text_never_says_not_applicable(tmp_path, capsys, name):
    doc = ORTHOGONAL_PAIR if name == "orthogonal_pair" else great_circle_doc()
    path = write_doc(tmp_path, "set.json", doc)
    assert main(["check", "--input", path, "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "not applicable" not in out
    assert "exact via unitary + probe: feasible" in out
    assert "witness probe phases" in out


@pytest.mark.parametrize("n", [3, 4])
def test_oracle_on_a_great_circle_is_perfect(tmp_path, capsys, n):
    """The default probe is the probe check's witness, so the search finds
    the perfect NOT that check reports."""
    path = write_doc(tmp_path, "set.json", great_circle_doc(n))
    code, doc = run(capsys, ["oracle", "--input", path])
    assert code == 0
    assert doc["gammas"] == [1.0] * n


@pytest.mark.parametrize("n", [3, 4])
def test_check_at_unit_efficiency_on_a_great_circle(tmp_path, capsys, n):
    path = write_doc(tmp_path, "set.json", great_circle_doc(n))
    code, doc = run(capsys, ["check", "--input", path,
                             "--gamma", ",".join(["1"] * n)])
    assert code == 0
    assert doc["probabilistic"]["feasible"] is True


@pytest.mark.parametrize("n", [3, 4])
def test_great_circle_machine_at_unit_efficiency_simulates(tmp_path, capsys,
                                                           n):
    set_path = write_doc(tmp_path, "set.json", great_circle_doc(n))
    machine_path = str(tmp_path / "machine.json")
    assert main(["synthesize", "--input", set_path, "--gamma",
                 ",".join(["1"] * n), "--output", machine_path]) == 0
    capsys.readouterr()
    code, doc = run(capsys, ["simulate", "--input", set_path,
                             "--machine", machine_path, "--shots", "2000"])
    assert code == 0
    assert doc["all_ok"] is True


@pytest.mark.parametrize("n", [3, 4])
def test_great_circle_synthesize_then_simulate(tmp_path, capsys, n):
    """Without ``--gamma``, a dependent great circle gets the perfect NOT
    that ``check`` certifies, and ``simulate`` passes it."""
    set_path = write_doc(tmp_path, "set.json", great_circle_doc(n))
    machine_path = str(tmp_path / "machine.json")
    assert main(["synthesize", "--input", set_path,
                 "--output", machine_path]) == 0
    capsys.readouterr()
    assert json.loads(Path(machine_path).read_text())["report"]["path"] == (
        "probe")
    code, doc = run(capsys, ["simulate", "--input", set_path,
                             "--machine", machine_path, "--shots", "2000"])
    assert code == 0
    assert doc["all_ok"] is True


def test_great_circle_commands_agree_on_unit_efficiency(tmp_path, capsys):
    """``check``, ``oracle`` and ``synthesize`` give {|0>, |1>, |+i>, |-i>}
    one answer: exact with a probe, at gamma = 1, with the same phases."""
    path = write_doc(tmp_path, "set.json", great_circle_doc())
    _, check = run(capsys, ["check", "--input", path])
    _, oracle = run(capsys, ["oracle", "--input", path])
    code, machine = run(capsys, ["synthesize", "--input", path])
    assert code == 0
    witness = check["exact_with_probe"]
    assert witness["feasible"] is True
    assert oracle["gammas"] == machine["gammas"] == [1.0] * 4
    assert machine["report"]["epsilon"] == 1.0
    assert machine["phases"] == witness["witness_phases"]
    assert machine["phases"] == oracle["probe_phases"]


def test_check_with_efficiencies(tmp_path, capsys):
    path = write_doc(tmp_path, "set.json", CANONICAL_PAIR)
    code, doc = run(capsys, ["check", "--input", path,
                             "--gamma", "0.5,0.5"])
    assert code == 0
    assert doc["probabilistic"]["feasible"] is True


def test_check_reports_the_null_miss_of_a_dependent_set(tmp_path, capsys):
    """{|0>, |1>, |+i>} at gamma ~ 1e-9 with the zero-phase probe:
    lambda_min(M) is within -1e-9, but M misses zero on null(G) by 1."""
    s = 1.0 / np.sqrt(2.0)
    doc = state_set_doc([np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                         np.array([s, 1j * s])])
    path = write_doc(tmp_path, "set.json", doc)
    code, out = run(capsys, ["check", "--input", path, "--gamma",
                             ",".join(["1.00000002722922e-9"] * 3),
                             "--phases", "0,0,0"])
    assert code == 0
    verdict = out["probabilistic"]
    assert verdict["feasible"] is False
    assert verdict["violation"]["lambda_min"] >= -1e-9
    assert verdict["violation"]["null_miss"] == pytest.approx(1.0)


def test_synthesize_then_simulate_roundtrip(tmp_path, capsys):
    set_path = write_doc(tmp_path, "set.json", CANONICAL_PAIR)
    machine_path = str(tmp_path / "machine.json")
    code = main(["synthesize", "--input", set_path,
                 "--output", machine_path])
    capsys.readouterr()
    assert code == 0
    saved = json.loads(Path(machine_path).read_text())
    assert saved["report"]["path"] in ("exact", "general")
    code, doc = run(capsys, ["simulate", "--input", set_path,
                             "--machine", machine_path, "--shots", "2000"])
    assert code == 0
    assert doc["all_ok"] is True
    assert all(s["ok"] for s in doc["states"])


def test_synthesize_dependent_family_exits_3(tmp_path, capsys):
    # complex Gram: the exact path is closed, the general one needs
    # independence
    ss = worked_triple(0.7)
    doc = state_set_doc([s.amps for s in ss], target="not")
    path = write_doc(tmp_path, "set.json", doc)
    assert main(["synthesize", "--input", path]) == 3
    capsys.readouterr()


def test_synthesize_dependent_real_family_takes_exact_path(tmp_path, capsys):
    doc = state_set_doc([np.array([1.0, 0.0]),
                         np.array([0.6, 0.8]),
                         np.array([0.0, 1.0])], target="not")
    path = write_doc(tmp_path, "set.json", doc)
    code, machine = run(capsys, ["synthesize", "--input", path])
    assert code == 0
    assert machine["report"]["path"] == "exact"
    assert machine["probe_dim"] == 1
    machine_path = write_doc(tmp_path, "machine.json", machine)
    code, sim = run(capsys, ["simulate", "--input", path,
                             "--machine", machine_path])
    assert code == 0 and sim["all_ok"]


def test_synthesize_near_dependent_family_simulates_clean(tmp_path, capsys):
    doc = state_set_doc([s.amps for s in near_dependent_triple()])
    set_path = write_doc(tmp_path, "set.json", doc)
    machine_path = str(tmp_path / "machine.json")
    assert main(["synthesize", "--input", set_path,
                 "--output", machine_path]) == 0
    code, sim = run(capsys, ["simulate", "--input", set_path,
                             "--machine", machine_path])
    assert code == 0 and sim["all_ok"]


def test_synthesize_infeasible_gamma_exits_2(tmp_path, capsys):
    path = write_doc(tmp_path, "set.json", hard_triple_doc())
    assert main(["synthesize", "--input", path,
                 "--gamma", "0.9,0.9,0.9"]) == 2
    capsys.readouterr()


def test_synthesize_feasible_gamma_simulates_clean(tmp_path, capsys):
    set_path = write_doc(tmp_path, "set.json", hard_triple_doc())
    machine_path = str(tmp_path / "machine.json")
    code = main(["synthesize", "--input", set_path, "--gamma", "0.7,0.7,0.7",
                 "--output", machine_path])
    capsys.readouterr()
    assert code == 0
    code, doc = run(capsys, ["simulate", "--input", set_path,
                             "--machine", machine_path, "--shots", "2000"])
    assert code == 0
    for s in doc["states"]:
        assert s["p"] == pytest.approx(0.7, abs=1e-8)


def test_simulate_corrupted_machine_exits_4(tmp_path, capsys):
    set_path = write_doc(tmp_path, "set.json", CANONICAL_PAIR)
    machine_path = str(tmp_path / "machine.json")
    main(["synthesize", "--input", set_path, "--output", machine_path])
    capsys.readouterr()
    doc = json.loads(Path(machine_path).read_text())
    doc["unitary"][0][0] = [doc["unitary"][0][0][0] + 1e-3,
                            doc["unitary"][0][0][1]]
    bad_path = write_doc(tmp_path, "bad_machine.json", doc)
    code, out = run(capsys, ["simulate", "--input", set_path,
                             "--machine", bad_path])
    assert code == 4
    assert out["all_ok"] is False


@pytest.mark.parametrize("field, value", [("gammas", []),
                                          ("gammas", [1.0]),
                                          ("target", "conjugate"),
                                          ("phases", [False, True]),
                                          ("gammas", [True, True]),
                                          ("gammas", [float("inf"), 0.5]),
                                          ("phases", [0.0]),
                                          ("system_dim", [2]),
                                          ("system_dim", "2"),
                                          ("system_dim", 2.9),
                                          ("probe_dim", None),
                                          ("gammas", [[1.0], [1.0]])])
def test_simulate_mismatched_machine_exits_2(tmp_path, capsys, field, value):
    set_path = write_doc(tmp_path, "set.json", CANONICAL_PAIR)
    machine_path = str(tmp_path / "machine.json")
    main(["synthesize", "--input", set_path, "--output", machine_path])
    capsys.readouterr()
    doc = json.loads(Path(machine_path).read_text())
    doc[field] = value
    # an infinite value is written as 1e999, which parses to inf without
    # passing through parse_constant
    bad_path = tmp_path / "bad_machine.json"
    bad_path.write_text(json.dumps(doc).replace("Infinity", "1e999"))
    assert main(["simulate", "--input", set_path,
                 "--machine", str(bad_path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("gamma", [-0.5, 0.0, 5.0])
def test_machine_file_efficiency_out_of_range_exits_2(tmp_path, capsys,
                                                      gamma):
    """A machine file's gammas are read as a request's efficiencies are;
    out of range they exited 4, as a failed verification."""
    set_path, machine = synthesized_machine(tmp_path, capsys)
    machine["gammas"] = [gamma, gamma]
    machine_path = write_doc(tmp_path, "machine.json", machine)
    assert main(["simulate", "--input", set_path,
                 "--machine", machine_path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "efficiencies must lie in (0, 1]" in captured.err


REAL_NOT_PAIR = state_set_doc([[1.0, 0.0], [0.6, 0.8]], target="not")
ABOVE_ONE = 1.0000000000005


def test_efficiency_above_one_exits_2(tmp_path, capsys):
    """Efficiencies up to 1 + 1e-12 were accepted and written to the file."""
    set_path = write_doc(tmp_path, "set.json", REAL_NOT_PAIR)
    assert main(["synthesize", "--input", set_path,
                 "--gamma", f"{ABOVE_ONE},{ABOVE_ONE}",
                 "--phases", "0,0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "efficiencies must lie in (0, 1]" in captured.err


def test_machine_file_efficiency_above_one_exits_2(tmp_path, capsys):
    """The unit-efficiency machine of a real NOT pair verified clean with
    its gammas moved above 1."""
    set_path = write_doc(tmp_path, "set.json", REAL_NOT_PAIR)
    code, machine = run(capsys, ["synthesize", "--input", set_path,
                                 "--gamma", "1,1", "--phases", "0,0"])
    assert code == 0
    machine["gammas"] = [ABOVE_ONE, ABOVE_ONE]
    machine_path = write_doc(tmp_path, "machine.json", machine)
    assert main(["simulate", "--input", set_path,
                 "--machine", machine_path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "efficiencies must lie in (0, 1]" in captured.err


def near_real_dependent_set_doc() -> dict:
    """Four real qubits with the third state's |1> amplitude ``a`` turned by
    ``3e-9 / |a|``: dependent, and max |G - conj(G)| inside GRAM_TOL."""
    theta = np.random.default_rng(0).uniform(0.0, np.pi, 4)
    amps = np.stack([np.cos(theta), np.sin(theta)], axis=1).astype(complex)
    amps[2, 1] *= np.exp(1j * 3e-9 / abs(amps[2, 1]))
    ss = StateSet(tuple(QuditState.normalized(a) for a in amps),
                  TargetMap.NOT)
    return serialize.state_set_to_dict(ss)


def test_near_real_dependent_set_takes_the_exact_path(tmp_path, capsys):
    """The plain verdict refused this set at 1e-9 on |Im G| and synthesize
    exited 3 on its rank; its builder's Gram test accepts it."""
    set_path = write_doc(tmp_path, "set.json", near_real_dependent_set_doc())
    code, doc = run(capsys, ["check", "--input", set_path])
    assert code == 0 and doc["exact_unitary"]["feasible"] is True
    machine_path = str(tmp_path / "machine.json")
    assert main(["synthesize", "--input", set_path,
                 "--output", machine_path]) == 0
    machine = json.loads(Path(machine_path).read_text())
    assert machine["report"]["path"] == "exact"
    assert machine["gammas"] == [1.0] * 4
    code, report = run(capsys, ["simulate", "--input", set_path,
                                "--machine", machine_path])
    assert code == 0 and report["all_ok"] is True


@pytest.mark.parametrize("command", ["check", "synthesize"])
@pytest.mark.parametrize("gamma", ["1e-320", "1e-15", "1e-14"])
def test_efficiency_at_or_below_the_success_floor_exits_2(tmp_path, capsys,
                                                          command, gamma):
    """No run observes a success probability at or below 1e-14: check said
    feasible and synthesize built a machine that simulate flagged."""
    set_path = write_doc(tmp_path, "set.json", CANONICAL_PAIR)
    assert main([command, "--input", set_path,
                 "--gamma", f"{gamma},{gamma}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "efficiencies must lie in (0, 1]" in captured.err


@pytest.mark.parametrize("gamma", ["2e-14", "1e-13"])
def test_efficiency_above_the_success_floor_builds_and_verifies(
        tmp_path, capsys, gamma):
    set_path = write_doc(tmp_path, "set.json", CANONICAL_PAIR)
    request = ["--gamma", f"{gamma},{gamma}"]
    code, doc = run(capsys, ["check", "--input", set_path, *request])
    assert code == 0 and doc["probabilistic"]["feasible"] is True
    machine_path = str(tmp_path / "machine.json")
    assert main(["synthesize", "--input", set_path, *request,
                 "--output", machine_path]) == 0
    code, report = run(capsys, ["simulate", "--input", set_path,
                                "--machine", machine_path])
    assert code == 0 and report["all_ok"] is True
    assert [s["p"] for s in report["states"]] == pytest.approx(
        [float(gamma)] * 2, rel=1e-6)


def test_simulate_monte_carlo_is_reproducible(tmp_path, capsys):
    set_path = write_doc(tmp_path, "set.json", CANONICAL_PAIR)
    machine_path = str(tmp_path / "machine.json")
    main(["synthesize", "--input", set_path, "--output", machine_path])
    capsys.readouterr()
    argv = ["simulate", "--input", set_path, "--machine", machine_path,
            "--shots", "5000", "--seed", "9"]
    _, doc_a = run(capsys, argv)
    _, doc_b = run(capsys, argv)
    assert [s["mc_successes"] for s in doc_a["states"]] == \
        [s["mc_successes"] for s in doc_b["states"]]


@pytest.mark.parametrize("shots, code, mode", [("0", 0, "exact"),
                                               ("-1", 2, None)])
def test_simulate_shot_count(tmp_path, capsys, shots, code, mode):
    """--shots 0 is the exact report alone; a negative count is malformed."""
    set_path = write_doc(tmp_path, "set.json", CANONICAL_PAIR)
    machine_path = str(tmp_path / "machine.json")
    main(["synthesize", "--input", set_path, "--output", machine_path])
    capsys.readouterr()
    got, doc = run(capsys, ["simulate", "--input", set_path,
                            "--machine", machine_path, "--shots", shots])
    assert got == code
    if mode is not None:
        assert doc["mode"] == mode and doc["shots"] is None


@pytest.mark.parametrize("shots, code", [("99999999999999999999", 2),
                                         ("9223372036854775807", 0)])
def test_simulate_shot_count_must_fit_in_int64(tmp_path, capsys, shots, code):
    """numpy draws counts as int64: a larger count exits 2, the largest runs."""
    set_path = write_doc(tmp_path, "set.json", CANONICAL_PAIR)
    machine_path = str(tmp_path / "machine.json")
    main(["synthesize", "--input", set_path, "--output", machine_path])
    capsys.readouterr()
    got = main(["simulate", "--input", set_path, "--machine", machine_path,
                "--shots", shots])
    captured = capsys.readouterr()
    assert got == code
    if code == 2:
        assert "shots" in captured.err and captured.out == ""
    else:
        assert json.loads(captured.out)["shots"] == int(shots)


def test_gamma_max_agrees_with_frozen_value(tmp_path, capsys):
    path = write_doc(tmp_path, "set.json", hard_triple_doc())
    code, doc = run(capsys, ["gamma-max", "--input", path])
    assert code == 0
    assert doc["gamma_max"] == pytest.approx(0.7226559350606517, abs=1e-6)
    assert doc["agreement"] is True
    assert doc["difference"] <= 1e-5


def test_gamma_max_dependent_triple_exits_6(tmp_path, capsys):
    ss = worked_triple(0.7)
    doc = state_set_doc([s.amps for s in ss], target="not")
    path = write_doc(tmp_path, "set.json", doc)
    assert main(["gamma-max", "--input", path]) == 6
    capsys.readouterr()


def test_gamma_max_dependent_triple_with_overlap_above_one_exits_6(
        tmp_path, capsys):
    """Two members of norm 1 + 5e-11 give |G_01| = 1 + 1e-10: gamma-max
    exited 2 on the triple input's (0, 1] test, not 6 as at norm 1."""
    edge = [1.00000000005, 0.0, 0.0]
    doc = state_set_doc([edge, edge, [0.6, 0.8j, 0.0]])
    path = write_doc(tmp_path, "set.json", doc)
    assert main(["gamma-max", "--input", path]) == 6
    capsys.readouterr()


def test_gamma_max_needs_three_states(tmp_path, capsys):
    path = write_doc(tmp_path, "set.json", CANONICAL_PAIR)
    assert main(["gamma-max", "--input", path]) == 2
    assert "exactly three states" in capsys.readouterr().err


def test_gamma_max_triple_with_a_zero_overlap_exits_6(tmp_path, capsys):
    """{e0, e1, 0.6 e0 + 0.8 e2} leaves the closed form's domain at
    t12 = 0: gamma-max exited 2, as for a malformed file, where the
    oracle searches the set and gives gamma = 1."""
    doc = state_set_doc([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.6, 0.0, 0.8]])
    path = write_doc(tmp_path, "set.json", doc)
    assert main(["gamma-max", "--input", path]) == 6
    assert "zero overlap" in capsys.readouterr().err
    code, out = run(capsys, ["oracle", "--input", path])
    assert code == 0
    assert out["gammas"] == [1.0, 1.0, 1.0]


def test_oracle_equal_policy_on_pair(tmp_path, capsys):
    path = write_doc(tmp_path, "set.json", CANONICAL_PAIR)
    code, doc = run(capsys, ["oracle", "--input", path])
    assert code == 0
    assert doc["gamma_max"] == 1.0
    assert doc["gammas"] == [1.0, 1.0]
    assert doc["method"] == "equal"


def test_oracle_without_a_certified_efficiency_exits_2(tmp_path, capsys):
    s = 1.0 / np.sqrt(2.0)
    doc = state_set_doc([np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                         np.array([s, 1j * s])])
    path = write_doc(tmp_path, "set.json", doc)
    assert main(["oracle", "--input", path, "--phases", "0,0,0"]) == 2
    capsys.readouterr()


def test_oracle_coordinate_policy_dominates(tmp_path, capsys):
    path = write_doc(tmp_path, "set.json", hard_triple_doc())
    _, eq = run(capsys, ["oracle", "--input", path])
    code, co = run(capsys, ["oracle", "--input", path,
                            "--policy", "coordinate"])
    assert code == 0
    assert co["method"] == "coordinate"
    assert co["mean_gamma"] >= eq["mean_gamma"] - 1e-9
    assert co["lambda_min_at_boundary"] >= -1e-9


def test_missing_input_file_exits_2(tmp_path, capsys):
    assert main(["check", "--input", str(tmp_path / "nope.json")]) == 2
    capsys.readouterr()


def test_unparseable_json_exits_2(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    assert main(["check", "--input", str(path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["check", "synthesize", "gamma-max",
                                     "oracle", "simulate"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, command):
    """1000 nested brackets pass the parser's recursion limit: a schema
    error, not a traceback."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 1000 + "]" * 1000)
    argv = [command, "--input", str(deep)]
    if command == "simulate":
        argv = [command, "--input", write_doc(tmp_path, "set.json",
                                              CANONICAL_PAIR),
                "--machine", str(deep)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot read {deep}")


def test_unnormalized_state_exits_2(tmp_path, capsys):
    doc = state_set_doc([np.array([1.0, 1.0])], target="not")
    path = write_doc(tmp_path, "set.json", doc)
    assert main(["check", "--input", path]) == 2
    capsys.readouterr()


def test_unknown_target_exits_2(tmp_path, capsys):
    doc = dict(CANONICAL_PAIR, target="transpose")
    path = write_doc(tmp_path, "set.json", doc)
    assert main(["check", "--input", path]) == 2
    capsys.readouterr()


def test_spin_flip_rejects_qutrits(tmp_path, capsys):
    doc = state_set_doc([np.array([1.0, 0.0, 0.0])], target="not")
    path = write_doc(tmp_path, "set.json", doc)
    assert main(["check", "--input", path]) == 2
    capsys.readouterr()


def test_bad_gamma_string_exits_2(tmp_path, capsys):
    """An empty field is malformed, not skipped: ``0.1,,0.1`` on a pair is
    not two efficiencies, nor ``,0,1`` two phases, and an empty value is
    not an absent option."""
    path = write_doc(tmp_path, "set.json", CANONICAL_PAIR)
    for request in (["--gamma", "a,b"], ["--gamma", "0.1,,0.1"],
                    ["--gamma", "0.1,0.1,"], ["--gamma", ",0.1,0.1"],
                    ["--gamma", "0.1,0.1", "--phases", ",0,1"],
                    ["--gamma", "0.1,0.1", "--phases", "0,1,"],
                    ["--gamma", ""], ["--gamma", "0.1,0.1", "--phases", ""]):
        for command in ("check", "synthesize"):
            assert main([command, "--input", path, *request]) == 2, request
            assert "cannot parse float list" in capsys.readouterr().err
    for phases in (",0,1", ""):
        assert main(["oracle", "--input", path, "--phases", phases]) == 2
        assert "cannot parse float list" in capsys.readouterr().err


@pytest.mark.parametrize("command, option", [
    ("check", "--shots"), ("check", "--seed"),
    ("synthesize", "--shots"), ("synthesize", "--seed"),
    ("simulate", "--gamma"), ("simulate", "--phases"),
    ("gamma-max", "--gamma"), ("gamma-max", "--phases"),
    ("gamma-max", "--shots"), ("gamma-max", "--seed"),
    ("oracle", "--gamma"), ("oracle", "--shots"), ("oracle", "--seed"),
])
def test_undeclared_option_exits_2(tmp_path, capsys, command, option):
    path = write_doc(tmp_path, "set.json", CANONICAL_PAIR)
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", path, option, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "synthesize"])
def test_phases_without_gamma_exits_2(tmp_path, capsys, command):
    path = write_doc(tmp_path, "set.json", CANONICAL_PAIR)
    for phases in ("0,1.5", ""):
        assert main([command, "--input", path, "--phases", phases]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--phases needs --gamma" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["check", "--gamma", "nan,nan"], "efficiencies must lie in (0, 1]"),
    (["synthesize", "--gamma", "nan,nan"], "efficiencies must lie in (0, 1]"),
    (["check", "--gamma", "0.5,0.5", "--phases", "nan,0"], "finite"),
    (["check", "--gamma", "0.5,0.5", "--phases", "inf,0"], "finite"),
    (["synthesize", "--gamma", "0.5,0.5", "--phases", "0,nan"], "finite"),
    (["oracle", "--phases", "0,1,2"], "probe has 3 states for 2 states"),
    (["oracle", "--policy", "coordinate", "--phases", "0,1,2"],
     "probe has 3 states for 2 states"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_non_finite_or_misfit_request_exits_2(tmp_path, capsys, argv,
                                              message):
    path = write_doc(tmp_path, "set.json", CANONICAL_PAIR)
    assert main([argv[0], "--input", path, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_simulate_without_machine_exits_2(tmp_path, capsys):
    path = write_doc(tmp_path, "set.json", CANONICAL_PAIR)
    assert main(["simulate", "--input", path]) == 2
    capsys.readouterr()


def test_text_format_smoke(tmp_path, capsys):
    path = write_doc(tmp_path, "set.json", CANONICAL_PAIR)
    code = main(["check", "--input", path, "--gamma", "0.5,0.5",
                 "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "overlaps (magnitude / phase):" in out
    assert "exact via unitary + probe: feasible" in out
    assert "witness probe phases" in out
    assert "probabilistic at requested efficiencies: feasible" in out


def test_output_file_roundtrip(tmp_path, capsys):
    set_path = write_doc(tmp_path, "set.json", CANONICAL_PAIR)
    out_path = tmp_path / "verdicts.json"
    code = main(["check", "--input", set_path, "--output", str(out_path)])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["exact_with_probe"]["feasible"] is True


@pytest.mark.parametrize("command", ["check", "synthesize"])
@pytest.mark.parametrize("output", ["missing_dir/out.json", ".", ""])
def test_unwritable_output_exits_2(tmp_path, capsys, command, output):
    """An empty ``--output`` names no file; it does not mean stdout."""
    set_path = write_doc(tmp_path, "set.json", CANONICAL_PAIR)
    code = main([command, "--input", set_path,
                 "--output", str(tmp_path / output) if output else output])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "cannot write" in captured.err


def _outcome(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _ran_with_env_tolerance(capsys, monkeypatch, argv, value):
    """``(exit code, stdout, stderr)`` of ``argv`` with ``QNOT_TOL`` unset,
    then with it set to ``value``."""
    monkeypatch.delenv("QNOT_TOL", raising=False)
    without = _outcome(capsys, argv)
    monkeypatch.setenv("QNOT_TOL", value)
    return without, _outcome(capsys, argv)


def test_env_tolerance_must_be_numeric(tmp_path, capsys, monkeypatch):
    """``QNOT_TOL`` is not read: a value that is not a number changes no
    byte and no exit code of any subcommand, from synthesis to simulation."""
    path = write_doc(tmp_path, "set.json", hard_triple_doc())
    machine_path = tmp_path / "machine.json"
    assert main(["synthesize", "--input", path,
                 "--output", str(machine_path)]) == 0
    for argv in (["check", "--gamma", "0.5,0.5,0.5"], ["synthesize"],
                 ["simulate", "--machine", str(machine_path)],
                 ["gamma-max"], ["oracle"]):
        without, with_env = _ran_with_env_tolerance(
            capsys, monkeypatch, [argv[0], "--input", path, *argv[1:]],
            "not-a-number")
        assert with_env == without and without[0] == 0, argv


TOL_COMMANDS = [["check", "--gamma", "0.5,0.5,0.5"], ["oracle"],
                ["oracle", "--policy", "coordinate"], ["gamma-max"]]


@pytest.mark.parametrize("value", ["nan", "-1", "inf", "0.01"])
@pytest.mark.parametrize("command", TOL_COMMANDS, ids=" ".join)
def test_env_tolerance_must_be_finite_and_nonnegative(tmp_path, capsys,
                                                      monkeypatch, value,
                                                      command):
    """No ``QNOT_TOL``, invalid or loose, reaches the commands it once
    moved: the same bytes and exit code as without it."""
    path = write_doc(tmp_path, "set.json", hard_triple_doc())
    argv = [command[0], "--input", path, *command[1:]]
    without, with_env = _ran_with_env_tolerance(capsys, monkeypatch, argv, value)
    assert with_env == without and without[0] == 0


@pytest.mark.parametrize("seed", range(100, 106))
def test_gamma_max_does_not_read_the_env_tolerance(tmp_path, capsys,
                                                   monkeypatch, seed):
    """Closed form and oracle compare at the one fixed tolerance, so no
    QNOT_TOL can move either past the agreement bound (exit 5)."""
    ss = random_set(np.random.default_rng(seed), 3, 3, TargetMap.CONJUGATE)
    path = write_doc(tmp_path, "set.json", state_set_doc([s.amps for s in ss]))
    for value in ("1e-12", "0.01", "nan", "-1", "inf"):
        without, with_env = _ran_with_env_tolerance(
            capsys, monkeypatch, ["gamma-max", "--input", path], value)
        assert with_env == without and without[0] == 0, value


def test_gamma_max_reports_the_probe_oracle_reports(tmp_path, capsys):
    # 2 theta_12 = 11.58 exceeds 2 pi; both commands reduce it mod 2 pi
    g = TripleBoundInput(0.3, 0.3, 0.3, 5.79, 0.1, 0.2).gram_matrix().matrix
    path = write_doc(tmp_path, "set.json",
                     state_set_doc(list(np.conj(np.linalg.cholesky(g)))))
    code, bound = run(capsys, ["gamma-max", "--input", path])
    assert code == 0
    code, searched = run(capsys, ["oracle", "--input", path])
    assert code == 0
    assert bound["probe_phases"] == pytest.approx(searched["probe_phases"],
                                                  abs=1e-12)
    assert bound["probe_phases"][1] == pytest.approx(11.58 - 2 * np.pi)


def synthesized_machine(tmp_path, capsys):
    set_path = write_doc(tmp_path, "set.json", CANONICAL_PAIR)
    code, machine = run(capsys, ["synthesize", "--input", set_path])
    assert code == 0
    return set_path, machine


def _edited(doc, fields):
    """``doc`` with ``fields`` set, and those given as None removed."""
    doc = dict(doc, **fields)
    return {k: v for k, v in doc.items() if v is not None}


@pytest.mark.parametrize("command, set_fields, machine_fields, message", [
    (["check"], {"states": [{"dim": 2, "amps": [[1, 0, 0], [0, 0, 0]]}]},
     None, "expected [re, im] pairs, got entries of length 3"),
    (["check"], {"states": [{"dim": 2}]}, None,
     "state document needs 'dim' and 'amps'"),
    (["check"], {"states": [{"dim": 3, "amps": [[1, 0], [0, 0]]}]}, None,
     "declared dim 3 but 2 amplitudes"),
    (["check"], {"states": None}, None,
     "state set document needs 'target' and 'states'"),
    (["check"], {"states": []}, None, "'states' must be a nonempty list"),
    (["simulate"], {}, {"gammas": None}, "machine document needs keys"),
    (["simulate"], {}, {"target": "flip"}, "unknown target 'flip'"),
    (["check", "--gamma", "0.5,0.5"], hard_triple_doc(), None,
     "expected 3 efficiencies, got 2"),
    (["synthesize", "--gamma", "0.1,0.1,0.1", "--phases", "0,1"],
     hard_triple_doc(), None, "probe has 2 phases for 3 states"),
], ids=["pair-of-three", "state-without-amps", "dim-mismatch",
        "set-without-states", "empty-states", "machine-without-gammas",
        "machine-target-flip", "gamma-count", "phase-count"])
def test_malformed_document_or_request_exits_2(tmp_path, capsys, command,
                                               set_fields, machine_fields,
                                               message):
    set_path = write_doc(tmp_path, "set.json",
                         _edited(CANONICAL_PAIR, set_fields))
    argv = [command[0], "--input", set_path, *command[1:]]
    if machine_fields is not None:
        _, machine = synthesized_machine(tmp_path, capsys)
        argv += ["--machine", write_doc(tmp_path, "machine.json",
                                        _edited(machine, machine_fields))]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")


@pytest.mark.parametrize("dim", [None, "2", 2.9])
def test_non_integer_state_dim_exits_2(tmp_path, capsys, dim):
    doc = json.loads(json.dumps(CANONICAL_PAIR))
    doc["states"][0]["dim"] = dim
    path = write_doc(tmp_path, "set.json", doc)
    assert main(["check", "--input", path]) == 2
    capsys.readouterr()


def test_nan_amplitude_exits_2(tmp_path, capsys):
    path = write_doc(tmp_path, "set.json", {
        "target": "not",
        "states": [{"dim": 2, "amps": [[float("nan"), 0.0], [1.0, 0.0]]},
                   {"dim": 2, "amps": [[1.0, 0.0], [0.0, 0.0]]}]})
    assert main(["check", "--input", path]) == 2
    capsys.readouterr()


def test_boolean_amplitude_exits_2(tmp_path, capsys):
    path = write_doc(tmp_path, "set.json", {
        "target": "not",
        "states": [{"dim": 2, "amps": [[True, 0], [0, 0]]}]})
    assert main(["check", "--input", path]) == 2
    capsys.readouterr()


def _last_entry(value):
    # a NaN here leaves the success probabilities finite, so a reader
    # that lets it through reaches the unitarity check and exits 4
    def edit(unitary):
        unitary[-1][-1] = value
        return unitary
    return edit


@pytest.mark.parametrize("edit", [
    lambda u: [u[0][:-1]] + u[1:],
    lambda u: [],
    _last_entry([1.0, 0.0, 0.0]),
    _last_entry(["1.0", 0.0]),
    _last_entry([None, 0.0]),
    _last_entry(None),
    _last_entry([True, 0.0]),
    _last_entry([float("nan"), 0.0]),
    _last_entry([float("inf"), 0.0]),
], ids=["ragged", "empty", "triple", "string", "null-in-pair", "null",
        "boolean", "nan", "infinity"])
def test_simulate_malformed_unitary_exits_2(tmp_path, capsys, edit):
    set_path, machine = synthesized_machine(tmp_path, capsys)
    machine["unitary"] = edit(machine["unitary"])
    bad_path = write_doc(tmp_path, "bad_machine.json", machine)
    assert main(["simulate", "--input", set_path, "--machine", bad_path]) == 2
    capsys.readouterr()


def test_simulate_overflowing_entry_exits_2(tmp_path, capsys):
    # 1e999 parses to inf without passing through parse_constant
    set_path, machine = synthesized_machine(tmp_path, capsys)
    machine["unitary"][0][0] = [12345.5, 0.0]
    text = json.dumps(machine).replace("12345.5", "1e999")
    bad_path = tmp_path / "bad_machine.json"
    bad_path.write_text(text)
    assert main(["simulate", "--input", set_path,
                 "--machine", str(bad_path)]) == 2
    capsys.readouterr()


def test_indented_machine_file_still_simulates(tmp_path, capsys):
    set_path, machine = synthesized_machine(tmp_path, capsys)
    machine_path = tmp_path / "machine.json"
    with open(machine_path, "w") as fh:
        json.dump(machine, fh, indent=2)
    code, doc = run(capsys, ["simulate", "--input", set_path,
                             "--machine", str(machine_path)])
    assert code == 0 and doc["all_ok"]


def test_machine_file_keeps_re_im_layout(tmp_path, capsys):
    set_path = write_doc(tmp_path, "set.json", hard_triple_doc())
    machine_path = tmp_path / "machine.json"
    assert main(["synthesize", "--input", set_path,
                 "--output", str(machine_path)]) == 0
    capsys.readouterr()
    text = machine_path.read_text()
    assert text.endswith("}\n") and "\n" not in text[:-1]
    doc = json.loads(text)
    d = doc["system_dim"] * doc["probe_dim"]
    assert np.asarray(doc["unitary"], dtype=float).shape == (d, d, 2)


def _set_path_and_request(tmp_path, case):
    """A set file and the ``synthesize`` options of one of its three paths."""
    rng = np.random.default_rng(44)
    if case == "gamma":
        doc = hard_triple_doc()
        ss = serialize.state_set_from_dict(doc)
        phases = standard_probe(gram(ss)).phases
        return (write_doc(tmp_path, "set.json", doc),
                ["--gamma", "0.7,0.7,0.7",
                 "--phases", ",".join(repr(float(p)) for p in phases)])
    amps = [random_state(rng, 4, real=case == "exact").amps for _ in range(4)]
    return write_doc(tmp_path, "set.json", state_set_doc(amps)), []


@pytest.mark.parametrize("case", ["general", "exact", "gamma"])
def test_machine_file_bytes_are_the_encoders(tmp_path, capsys, case):
    """The file is json.dumps of the JSON-native machine document, byte for
    byte, and reads back as a machine that verifies; text output is one
    line."""
    set_path, request = _set_path_and_request(tmp_path, case)
    ss = serialize.state_set_from_dict(serialize.load(set_path))
    if request:
        machine = synthesize_with(ss, np.full(3, 0.7),
                                  standard_probe(gram(ss)))
        doc = serialize.machine_to_dict(machine)
        summary = "requested efficiencies honored"
    else:
        machine, report = synthesize(ss)
        assert report.path == case
        doc = {**serialize.machine_to_dict(machine),
               "report": dataclasses.asdict(report)}
        summary = f"path={case}, gamma={report.epsilon:.6f}"
    machine_path = tmp_path / "machine.json"
    assert main(["synthesize", "--input", set_path, *request,
                 "--output", str(machine_path)]) == 0
    assert machine_path.read_text() == json.dumps(doc) + "\n"
    code, sim = run(capsys, ["simulate", "--input", set_path,
                             "--machine", str(machine_path)])
    assert code == 0 and sim["all_ok"]
    assert main(["synthesize", "--input", set_path, *request,
                 "--format", "text"]) == 0
    assert capsys.readouterr().out == (
        f"machine on {machine.system_dim}x{machine.probe_dim} "
        f"(system x probe), {summary}\n")


def test_every_oracle_point_builds_and_simulates(tmp_path, capsys):
    """Each point ``oracle`` prints, under either policy, is one ``check
    --gamma`` accepts, ``synthesize --gamma --phases`` builds and
    ``simulate`` reports ``all_ok``: one PSD threshold decides all four."""
    for name, doc in (("triple", hard_triple_doc()), ("pair", CANONICAL_PAIR)):
        path = write_doc(tmp_path, f"{name}.json", doc)
        for policy in ("equal", "coordinate"):
            code, found = run(capsys, ["oracle", "--input", path,
                                       "--policy", policy])
            assert code == 0
            request = ["--gamma", ",".join(map(repr, found["gammas"])),
                       "--phases", ",".join(map(repr, found["probe_phases"]))]
            code, verdict = run(capsys, ["check", "--input", path, *request])
            assert code == 0 and verdict["probabilistic"]["feasible"]
            machine_path = str(tmp_path / f"{name}-{policy}.machine.json")
            assert main(["synthesize", "--input", path, *request,
                         "--output", machine_path]) == 0, (name, policy)
            code, sim = run(capsys, ["simulate", "--input", path,
                                     "--machine", machine_path])
            assert code == 0 and sim["all_ok"], (name, policy)


def test_near_dependent_oracle_point_simulates_or_is_refused(tmp_path,
                                                             capsys):
    """``oracle``, ``synthesize --gamma --phases``, ``simulate`` on the
    second triple of a seeded near-dependent draw.  With the old edge
    lambda_min(M) >= -PSD_TOL, ``oracle`` printed gamma = 7.7e-9 there and
    ``simulate`` exited 4; now the point builds a machine that verifies,
    or ``oracle`` refuses with exit 2."""
    rng = np.random.default_rng(5)
    random_near_dependent_triple(rng)
    doc = state_set_doc([s.amps for s in random_near_dependent_triple(rng)])
    path = write_doc(tmp_path, "set.json", doc)
    for policy in ("equal", "coordinate"):
        code, found = run(capsys, ["oracle", "--input", path,
                                   "--policy", policy])
        if code == 2:
            continue
        assert code == 0
        machine_path = str(tmp_path / f"{policy}.machine.json")
        assert main(["synthesize", "--input", path,
                     "--gamma", ",".join(map(repr, found["gammas"])),
                     "--phases", ",".join(map(repr, found["probe_phases"])),
                     "--output", machine_path]) == 0
        code, sim = run(capsys, ["simulate", "--input", path,
                                 "--machine", machine_path])
        assert code == 0 and sim["all_ok"], (policy, found["gammas"])


def test_cli_runs_as_a_module(tmp_path):
    """``python -m qnot.cli`` as a child process: one JSON line, the same
    with ``QNOT_TOL=nan`` in its environment, which it does not read."""
    path = write_doc(tmp_path, "set.json", CANONICAL_PAIR)
    env = {k: v for k, v in os.environ.items() if k != "QNOT_TOL"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "qnot.cli", "check", "--input", path]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["exact_with_probe"]["feasible"] is True
    ignored = subprocess.run(argv, env=dict(env, QNOT_TOL="nan"),
                             capture_output=True, text=True, timeout=60)
    assert ignored.returncode == 0, ignored.stderr
    assert ignored.stdout == proc.stdout


def test_large_machine_file_is_small_and_verifies(tmp_path, capsys):
    """n = d = 96: the machine acts on D = 2d = 192, so its file holds
    192^2 entries, under 2 MB, and ``simulate`` verifies it."""
    rng = np.random.default_rng(96)
    set_path = write_doc(tmp_path, "set.json", state_set_doc(
        [random_state(rng, 96).amps for _ in range(96)]))
    machine_path = tmp_path / "machine.json"
    assert main(["synthesize", "--input", set_path,
                 "--output", str(machine_path)]) == 0
    assert machine_path.stat().st_size < 2_000_000
    doc = json.loads(machine_path.read_text())
    assert (doc["system_dim"], doc["probe_dim"]) == (96, 2)
    assert doc["report"]["path"] == "general"
    code, sim = run(capsys, ["simulate", "--input", set_path,
                             "--machine", str(machine_path)])
    assert code == 0 and sim["all_ok"]
