"""The four benchmark workloads: inputs, the timed operation, the checks.

Every workload is a closed loop with one caller.  ``setup`` draws the
workload's fixed list of sets from the seed and hands qnot only the
generated amplitudes (or, for ``cli_roundtrip``, files).  ``run`` is the
timed operation on one unit (one set, or eight for ``gamma_search``); it
calls qnot through module attributes
(``feasibility.check_exact_unitary``, not a name imported from it) so the
traced run can wrap those calls.  ``check`` runs outside the timed span
and compares the outputs with :mod:`checks`, which does not import qnot.
"""
from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from checks import CheckFailed
from qnot import feasibility, optimizer, serialize, simulator, states, synthesis
from qnot.states import StateSet, TargetMap

MIN_GRAM_EIG = 1e-3      # same independence margin as the test suite's sets
MIN_OVERLAP = 1e-3       # probe regime needs every overlap nonzero
SHOTS = 100_000


def random_independent(rng, n: int, d: int) -> np.ndarray:
    """``d x n`` complex columns of unit norm with ``lambda_min(G) > 1e-3``."""
    while True:
        psi = rng.normal(size=(d, n)) + 1j * rng.normal(size=(d, n))
        psi /= np.linalg.norm(psi, axis=0)
        if np.linalg.eigvalsh(checks.gram(psi)).min() > MIN_GRAM_EIG:
            return psi


def conjugate_set(psi: np.ndarray) -> StateSet:
    return StateSet.from_amplitudes(psi.T, TargetMap.CONJUGATE)


class Workload:
    """One closed-loop workload; subclasses define setup, run and check."""

    pool = 0      # size of the fixed list of sets drawn from the seed
    batch = 1     # sets timed together as one unit; times are per set
    calibration = "lapack"   # kernel in run.CAL_REF_S that times are scaled by

    def counts(self, item, out) -> dict:
        """Per-set counts and sizes reported by the traced run."""
        return {}

    def traced_extra(self, item, out, tracer) -> dict:
        """Untimed extra work of a traced set; returns more counts."""
        return {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


@dataclass
class Conjugate:
    psi: np.ndarray
    states: StateSet
    seed: int


class DenseMachines(Workload):
    """n = d = 24 conjugate sets, D = 600: the dense joint unitary dominates."""

    pool = 160
    n = d = 24

    def setup(self, seed: int) -> list:
        rng = np.random.default_rng(seed)
        items = []
        for k in range(self.pool):
            psi = random_independent(rng, self.n, self.d)
            items.append(Conjugate(psi, conjugate_set(psi), k))
        return items

    def run(self, item: Conjugate, tracer):
        ss = item.states
        gm = states.gram(ss)
        plain = feasibility.check_exact_unitary(ss)
        probe = feasibility.check_exact_with_probe(ss)
        machine, report = synthesis.synthesize(ss)
        sim = simulator.verify_machine(machine, ss, shots=SHOTS, seed=item.seed)
        return gm, plain, probe, machine, report, sim

    def check(self, item: Conjugate, out) -> None:
        gm, plain, probe, machine, report, sim = out
        g = checks.gram(item.psi)
        checks.check_gram(g, gm.matrix)
        checks.check_plain_verdict(g, plain.feasible)
        checks.check_probe_verdict(
            g, probe.feasible, probe.witness.phases if probe.witness else None)
        if report.path != "general":
            raise CheckFailed(f"synthesize took the {report.path} path")
        eps = report.epsilon
        if np.abs(machine.gammas - eps).max() > 0.0:
            raise CheckFailed("machine gammas differ from the reported epsilon")
        checks.check_conjugating_machine(item.psi, machine.unitary,
                                         machine.probe_dim, eps)
        checks.check_margin(g, eps)
        if not sim.all_ok:
            raise CheckFailed(f"verify_machine flagged {sim.flagged()}")
        checks.check_mc_counts([r.successes for r in sim.mc_records], SHOTS, eps)

    def counts(self, item, out) -> dict:
        machine = out[3]
        return {"synthesis.machine_mb": machine.unitary.nbytes / 1e6}


@dataclass
class Searched:
    psi: np.ndarray
    states: StateSet
    triple: StateSet


class GammaSearch(Workload):
    """n = d = 10 conjugate sets: thousands of small eigvalsh calls.

    A set's cost grows with the number of coordinate sweeps (1 to 5), so
    per-set times are multimodal and their median jumps between modes from
    seed to seed.  Sets are therefore timed in units of eight, and each
    unit's time is reported per set.
    """

    pool = 640
    batch = 8
    n = d = 10

    def setup(self, seed: int) -> list:
        rng = np.random.default_rng(seed)
        sets = []
        for _ in range(self.pool):
            psi = random_independent(rng, self.n, self.d)
            ss = conjugate_set(psi)
            sets.append(Searched(psi, ss, StateSet(ss.states[:3], ss.target)))
        return [sets[k:k + self.batch] for k in range(0, self.pool, self.batch)]

    def run(self, unit: list, tracer):
        return [self._one(item) for item in unit]

    def check(self, unit: list, outs) -> None:
        for item, out in zip(unit, outs):
            self._check_one(item, out)

    def counts(self, unit, outs) -> dict:
        return {"optimizer.eigen_evals": sum(eq.iterations + co.iterations
                                             for eq, co, *_ in outs)}

    def _one(self, item: Searched):
        ss = item.states
        equal = optimizer.search_gamma(ss, policy=optimizer.GammaPolicy.EQUAL)
        coord = optimizer.search_gamma(ss, policy=optimizer.GammaPolicy.COORDINATE)
        verdict = feasibility.check_probabilistic(ss, coord.gammas, coord.probe)
        g3 = states.gram(item.triple)
        inp = optimizer.TripleBoundInput.from_gram(g3)
        closed = optimizer.gamma_max_triple(inp)
        oracle = optimizer.grid_oracle_triple(g3, inp.probe())
        return equal, coord, verdict, closed, oracle

    def _check_one(self, item: Searched, out) -> None:
        equal, coord, verdict, closed, oracle = out
        g = checks.gram(item.psi)
        eq = float(equal.gammas[0])
        if np.ptp(equal.gammas) != 0.0:
            raise CheckFailed("EQUAL search returned unequal efficiencies")
        checks.check_equal_gamma(g, eq)
        checks.check_coordinate_gammas(g, eq, coord.gammas)
        if not verdict.feasible:
            raise CheckFailed("check_probabilistic rejects the COORDINATE point")
        g3 = g[:3, :3]
        checks.check_triple_gamma(g3, closed)
        checks.check_triple_gamma(g3, oracle)


@dataclass
class Flip:
    phased_psi: np.ndarray
    real_psi: np.ndarray
    phased: StateSet
    real: StateSet


class ProbeFlip(Workload):
    """n = 48 real qubit states with random global phases (probe regime)."""

    pool = 240
    n = 48

    def setup(self, seed: int) -> list:
        rng = np.random.default_rng(seed)
        items = []
        while len(items) < self.pool:
            theta = rng.uniform(0.0, np.pi, self.n)
            beta = rng.uniform(0.0, 2.0 * np.pi, self.n)
            cos = np.abs(np.cos(theta[:, None] - theta[None, :]))
            if cos.min() < MIN_OVERLAP:
                continue
            real = np.stack([np.cos(theta), np.sin(theta)]).astype(complex)
            phased = real * np.exp(1j * beta)
            items.append(Flip(phased, real,
                              StateSet.from_amplitudes(phased.T, TargetMap.NOT),
                              StateSet.from_amplitudes(real.T, TargetMap.NOT)))
        return items

    def run(self, item: Flip, tracer):
        n = self.n
        plain = feasibility.check_exact_unitary(item.phased)
        probe = feasibility.check_exact_with_probe(item.phased)
        u = feasibility.build_probe_unitary(item.phased, probe.witness)
        machine = synthesis.Machine(2, 2, TargetMap.NOT, u, np.ones(n),
                                    probe.witness.phases)
        sim = simulator.verify_machine(machine, item.phased)
        plain_real = feasibility.check_exact_unitary(item.real)
        u_real = feasibility.build_exact_unitary(item.real)
        machine_real = synthesis.Machine(2, 1, TargetMap.NOT, u_real,
                                         np.ones(n), np.zeros(n))
        sim_real = simulator.verify_machine(machine_real, item.real)
        return plain, probe, u, sim, plain_real, u_real, sim_real

    def check(self, item: Flip, out) -> None:
        plain, probe, u, sim, plain_real, u_real, sim_real = out
        g = checks.gram(item.phased_psi)
        checks.check_plain_verdict(g, plain.feasible)
        if not probe.feasible:
            raise CheckFailed("phased set refused by check_exact_with_probe")
        phases = probe.witness.phases
        checks.check_probe_verdict(g, True, phases)
        checks.check_probe_machine(item.phased_psi, u, phases)
        checks.check_plain_verdict(checks.gram(item.real_psi), plain_real.feasible)
        if not plain_real.feasible:
            raise CheckFailed("real copy refused by check_exact_unitary")
        checks.check_not_unitary(item.real_psi, u_real)
        if not (sim.all_ok and sim_real.all_ok):
            raise CheckFailed("verify_machine flagged a probe-regime machine")


class ChildFailed(RuntimeError):
    """A ``qnot`` subprocess exited with a code other than 0."""


@dataclass
class SetFile:
    path: Path
    psi: np.ndarray
    seed: int


class CliRoundtrip(Workload):
    """n = d = 16 conjugate set files through check, synthesize, simulate.

    Its time goes to process start-up, imports and JSON, which the LAPACK
    kernel does not track; a child process importing numpy does.
    """

    pool = 24
    calibration = "spawn"
    n = d = 16

    def __init__(self, workdir: Path, src: Path):
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.machine_path = workdir / "machine.json"
        self.check_path = workdir / "check.json"
        self.simulate_path = workdir / "simulate.json"
        self.max_child_kib = 0

    def setup(self, seed: int) -> list:
        rng = np.random.default_rng(seed)
        items = []
        for k in range(self.pool):
            psi = random_independent(rng, self.n, self.d)
            doc = {"target": "conjugate",
                   "states": [{"dim": self.d,
                               "amps": [[float(z.real), float(z.imag)] for z in col]}
                              for col in psi.T]}
            path = self.workdir / f"set_{k:03d}.json"
            path.write_text(json.dumps(doc))
            items.append(SetFile(path, psi, k))
        return items

    def _qnot(self, args: list, stdout_path: Path, count_rss: bool = True) -> None:
        cmd = [sys.executable, "-m", "qnot.cli", *args]
        with open(stdout_path, "wb") as out, \
                open(self.workdir / "stderr.txt", "ab") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env,
                                    cwd=self.workdir)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        if count_rss:
            self.max_child_kib = max(self.max_child_kib, usage.ru_maxrss)
        if proc.returncode != 0:
            raise ChildFailed(f"qnot {args[0]} exited {proc.returncode}")

    def run(self, item: SetFile, tracer):
        path = str(item.path)
        with tracer.span("cli.check"):
            self._qnot(["check", "--input", path], self.check_path)
        with tracer.span("cli.synthesize"):
            self._qnot(["synthesize", "--input", path,
                        "--output", str(self.machine_path)], self.workdir / "synth.out")
        with tracer.span("cli.simulate"):
            self._qnot(["simulate", "--input", path, "--machine", str(self.machine_path),
                        "--shots", str(SHOTS), "--seed", str(item.seed)],
                       self.simulate_path)
        return self.machine_path.stat().st_size

    def check(self, item: SetFile, out) -> None:
        g = checks.gram(item.psi)
        verdict = json.loads(self.check_path.read_text())
        checks.check_plain_verdict(g, verdict["exact_unitary"]["feasible"])
        machine = json.loads(self.machine_path.read_text())
        eps = machine["report"]["epsilon"]
        pairs = np.asarray(machine["unitary"], dtype=float)
        checks.check_conjugating_machine(item.psi, pairs[..., 0] + 1j * pairs[..., 1],
                                         machine["probe_dim"], eps)
        checks.check_simulation(json.loads(self.simulate_path.read_text()), eps)

    def counts(self, item, out) -> dict:
        return {"cli.machine_file_mb": out / 1e6}

    def traced_extra(self, item, out, tracer) -> dict:
        """Startup process and in-process JSON of the machine the child wrote."""
        with tracer.span("cli.startup"):
            self._qnot(["--help"], self.workdir / "help.out", count_rss=False)
        doc = serialize.load(self.machine_path)
        machine = serialize.machine_from_dict(doc)
        serialize.dump(serialize.machine_to_dict(machine), self.workdir / "copy.json")
        return {"synthesis.machine_mb": machine.unitary.nbytes / 1e6}

    def peak_rss_mb(self) -> float:
        return self.max_child_kib * 1024 / 1e6


def make(name: str, workdir: Path, src: Path):
    if name == "cli_roundtrip":
        return CliRoundtrip(workdir, src)
    return {"dense_machines": DenseMachines, "gamma_search": GammaSearch,
            "probe_flip": ProbeFlip}[name]()
