"""Tests of the benchmark itself: every check must catch a corrupted result.

Run from the repository root with ``python -m pytest bench -q``.
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import workloads
from checks import CheckFailed
from qnot import linalg, synthesis

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _one(wl, seed=5, **sizes):
    for k, v in sizes.items():
        setattr(wl, k, v)
    wl.pool = 1
    item = wl.setup(seed)[0]
    out = wl.run(item, spans.NullTracer())
    wl.check(item, out)          # the uncorrupted result passes
    return item, out


def _flip(verdict):
    return dataclasses.replace(verdict, feasible=not verdict.feasible)


# --- dense_machines -------------------------------------------------------

def _dense_corruptions():
    def column(out):
        gm, plain, probe, machine, report, sim = out
        machine.unitary = machine.unitary.copy()
        machine.unitary[:, 0] *= np.exp(0.1j)

    def epsilon(out):
        report, machine = out[4], out[3]
        report.epsilon += 1e-3
        machine.gammas = machine.gammas + 1e-3

    def counts(out):
        rec = out[5].mc_records[0]
        sigma = np.sqrt(rec.shots * rec.exact_prob * (1 - rec.exact_prob))
        rec.successes += int(7 * sigma) + 1

    def flagged(out):
        out[5].records[1].ok = False

    return {"column": column, "epsilon": epsilon, "mc_counts": counts,
            "flagged": flagged}


@pytest.mark.parametrize("name", sorted(_dense_corruptions()))
def test_dense_check_catches(name):
    wl = workloads.DenseMachines()
    item, out = _one(wl, n=4, d=4)
    _dense_corruptions()[name](out)
    with pytest.raises(CheckFailed):
        wl.check(item, out)


@pytest.mark.parametrize("index", [1, 2])
def test_dense_check_catches_wrong_verdicts(index):
    wl = workloads.DenseMachines()
    item, out = _one(wl, n=4, d=4)
    out = list(out)
    out[index] = _flip(out[index])
    with pytest.raises(CheckFailed):
        wl.check(item, tuple(out))


# --- gamma_search ---------------------------------------------------------

def _gamma_corruptions():
    def equal(out):
        out[0].gammas = out[0].gammas + 1e-3

    def coordinate_up(out):
        g = out[1].gammas.copy()
        g[int(np.argmin(g))] += 1e-3
        out[1].gammas = g

    def coordinate_below_equal(out):
        g = out[1].gammas.copy()
        g[0] = out[0].gammas[0] - 1e-3
        out[1].gammas = g

    return {"equal": equal, "coordinate_up": coordinate_up,
            "coordinate_below_equal": coordinate_below_equal}


def _one_gamma():
    """One set in a unit of one: returns (workload, unit, that set's output)."""
    wl = workloads.GammaSearch()
    unit, outs = _one(wl, batch=1)
    return wl, unit, list(outs[0])


@pytest.mark.parametrize("name", sorted(_gamma_corruptions()))
def test_gamma_check_catches(name):
    wl, unit, out = _one_gamma()
    _gamma_corruptions()[name](out)
    with pytest.raises(CheckFailed):
        wl.check(unit, [out])


@pytest.mark.parametrize("index", [3, 4])
def test_gamma_check_catches_triple_bound(index):
    wl, unit, out = _one_gamma()
    out[index] += 1e-3
    with pytest.raises(CheckFailed):
        wl.check(unit, [out])


def test_gamma_check_catches_rejected_point():
    wl, unit, out = _one_gamma()
    out[2] = _flip(out[2])
    with pytest.raises(CheckFailed):
        wl.check(unit, [out])


# --- probe_flip -----------------------------------------------------------

def _probe_corruptions():
    def witness(out):
        out[1].witness.phases[1] += 1e-3

    def probe_column(out):
        out[2][:, 0] *= np.exp(0.1j)

    def real_column(out):
        out[5][:, 1] *= -1.0

    def plain_verdict(out):
        return (_flip(out[0]),) + out[1:]

    def real_verdict(out):
        return out[:4] + (_flip(out[4]),) + out[5:]

    def flagged(out):
        out[6].records[0].ok = False

    return {"witness": witness, "probe_column": probe_column,
            "real_column": real_column, "plain_verdict": plain_verdict,
            "real_verdict": real_verdict, "flagged": flagged}


@pytest.mark.parametrize("name", sorted(_probe_corruptions()))
def test_probe_check_catches(name):
    wl = workloads.ProbeFlip()
    item, out = _one(wl)
    out = _probe_corruptions()[name](out) or out
    with pytest.raises(CheckFailed):
        wl.check(item, out)


# --- cli_roundtrip --------------------------------------------------------

@pytest.fixture(scope="module")
def cli_result(tmp_path_factory):
    wl = workloads.CliRoundtrip(tmp_path_factory.mktemp("cli"), ROOT / "src")
    item, out = _one(wl, n=4, d=4)
    return wl, item, out


def _edit(path, change):
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))


def _cli_corruptions(wl):
    def verdict(doc):
        doc["exact_unitary"]["feasible"] = not doc["exact_unitary"]["feasible"]

    def column(doc):
        for row in doc["unitary"]:
            row[0] = [-row[0][0], -row[0][1]]

    def epsilon(doc):
        doc["report"]["epsilon"] += 1e-3

    def prob(doc):
        doc["states"][0]["p"] += 1e-6

    def all_ok(doc):
        doc["all_ok"] = False

    return {"verdict": (wl.check_path, verdict),
            "machine_column": (wl.machine_path, column),
            "epsilon": (wl.machine_path, epsilon),
            "simulated_p": (wl.simulate_path, prob),
            "all_ok": (wl.simulate_path, all_ok)}


@pytest.mark.parametrize("name", ["verdict", "machine_column", "epsilon",
                                  "simulated_p", "all_ok"])
def test_cli_check_catches(cli_result, name):
    wl, item, out = cli_result
    path, change = _cli_corruptions(wl)[name]
    saved = path.read_text()
    try:
        _edit(path, change)
        with pytest.raises(CheckFailed):
            wl.check(item, out)
    finally:
        path.write_text(saved)


def test_cli_nonzero_exit_fails_the_set(cli_result):
    wl, item, _ = cli_result
    missing = dataclasses.replace(item, path=item.path.with_name("missing.json"))
    with pytest.raises(workloads.ChildFailed):
        wl.run(missing, spans.NullTracer())


# --- inputs, tracing, harness --------------------------------------------

@pytest.mark.parametrize("cls, amplitudes", [
    (workloads.DenseMachines, lambda item: item.psi),
    (workloads.GammaSearch, lambda unit: unit[0].psi),
    (workloads.ProbeFlip, lambda item: item.phased_psi)])
def test_inputs_follow_the_seed(cls, amplitudes):
    def second(seed):
        wl = cls()
        wl.pool, wl.batch = 2, 1
        return amplitudes(wl.setup(seed)[1])
    assert np.array_equal(second(3), second(3))
    assert not np.array_equal(second(3), second(4))


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    tracer.spans = [["a", 0.0, 1.0, -1, 0], ["b", 0.2, 0.5, 0, 0],
                    ["b", 0.6, 0.7, 0, 0], ["a", 2.0, 2.5, -1, 1]]
    times = tracer.self_times_ms()
    assert times[0]["a"] == pytest.approx(600.0)
    assert times[0]["b"] == pytest.approx(400.0)
    assert times[1]["a"] == pytest.approx(500.0)


def test_tracer_restores_the_program():
    tracer = spans.Tracer()
    tracer.install(0)
    assert synthesis.psd_sqrt is not linalg.psd_sqrt
    tracer.remove()
    assert synthesis.psd_sqrt is linalg.psd_sqrt
    assert "unitarity_error" in vars(synthesis.Machine)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "gamma_search", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
