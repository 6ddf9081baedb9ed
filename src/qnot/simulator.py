"""Exact and sampled runs of a machine on input states.

The exact path applies the machine unitary to ``state x probe_0``,
projects on the success outcome (probe back in state 0) and compares the
postselected system state against the target map; a whole set goes
through one product with the ``d x d`` success block of the unitary,
:meth:`qnot.synthesis.Machine.success_block`, and one comparison with
:func:`qnot.states.target_amps` of its columns.  The report's unitarity
error is :meth:`qnot.synthesis.Machine.unitarity_error`, which checks
``U^dag U = I`` only on the ``s`` indices the unitary moves.  Both read
the machine's one stored ``D x D`` unitary: the scan for those indices
costs ``O(D^2)`` and the product ``O(s^3)``, not ``O(D^3)``.  The one
Monte Carlo path is :func:`verify_machine` with ``shots`` set: it
draws each member's success count from the exact probability with numpy's
PCG64 generator, seeded explicitly, so every report is reproducible.
Below :data:`qnot.linalg.ZERO_SUCCESS` a run has no output, and
:func:`qnot.feasibility.efficiencies` refuses every design at or below it.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, MachineMismatch, ZeroSuccess
from .linalg import ZERO_SUCCESS
from .states import QuditState, StateSet, target_amps
from .synthesis import Machine

FIDELITY_TOL = 1e-8
PROB_TOL = 1e-8
UNITARITY_TOL = 1e-9
RNG_ALGORITHM = "pcg64"


@dataclass(eq=False)
class ExactRecord:
    index: Optional[int]
    success_prob: float
    fidelity: float
    global_phase: float
    output_state: np.ndarray
    ok: bool = True


@dataclass
class MonteCarloRecord:
    index: Optional[int]
    exact_prob: float
    shots: int
    successes: int
    empirical: float
    seed: int
    rng: str = RNG_ALGORITHM


@dataclass
class SimulationReport:
    mode: str
    records: list
    unitary_error: float
    seed: Optional[int] = None
    shots: Optional[int] = None
    mc_records: list = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return (self.unitary_error <= UNITARITY_TOL
                and all(r.ok for r in self.records))

    def flagged(self) -> list:
        return [r.index for r in self.records if not r.ok]


def _run_columns(machine: Machine, amps: np.ndarray, targets: np.ndarray):
    """Exact success data for the inputs stacked as columns of ``amps``.

    The success block of ``U (psi_i x |0>)`` is every ``probe_dim``-th
    component, so one product with ``U[::p, ::p]`` gives all of them.
    Returns success probabilities, postselected outputs, and each output's
    fidelity and phase against its target column, all masked once over the
    set: every one is zero where the probability is below ``ZERO_SUCCESS``.
    """
    blocks = machine.success_block() @ amps
    probs = np.sum(np.abs(blocks) ** 2, axis=0)
    alive = probs >= ZERO_SUCCESS
    outputs = np.zeros_like(blocks)
    outputs[:, alive] = blocks[:, alive] / np.sqrt(probs[alive])
    overlaps = np.sum(np.conj(targets) * outputs, axis=0)
    return (np.where(alive, probs, 0.0), outputs,
            np.where(alive, np.abs(overlaps), 0.0),
            np.where(alive, np.angle(overlaps), 0.0))


def run_exact(machine: Machine, state: QuditState,
              index: Optional[int] = None) -> ExactRecord:
    """Success probability and postselected output for one input state."""
    if state.dim != machine.system_dim:
        raise DimensionMismatch(
            f"state dim {state.dim} vs machine system dim {machine.system_dim}")
    amps = state.amps[:, None]
    probs, outputs, fidelities, phases = _run_columns(
        machine, amps, target_amps(amps, machine.target))
    if probs[0] == 0.0:  # the mask zeroes every probability below ZERO_SUCCESS
        raise ZeroSuccess("success probability vanished; no output state")
    return ExactRecord(index, float(probs[0]), float(fidelities[0]),
                       float(phases[0]), outputs[:, 0])


def _integer(value, name: str) -> int:
    """``value`` as a Python int; a bool or a non-integer is a ValueError."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def verify_machine(machine: Machine, state_set: StateSet,
                   shots: Optional[int] = None,
                   seed: int = 42) -> SimulationReport:
    """Exact check of every member against the machine's design values.

    The machine must carry one designed efficiency per member and the set's
    target map, otherwise :class:`MachineMismatch` is raised.  A member is
    flagged when its postselected fidelity drops below ``1 - FIDELITY_TOL``
    or its success probability differs from the designed ``gamma_i`` by
    more than :data:`PROB_TOL`.  The report also carries the machine's
    unitarity error; failures never raise, they are entries in the report.
    With ``shots`` positive, a Monte Carlo record per member is appended
    (one generator seeded with ``seed``, members sampled in order); ``None``
    or 0 means the exact report alone.  ``shots`` and ``seed`` are stored as
    Python ints; a bool, a value that is not an integer (``2.5``, ``5.0``),
    or ``shots`` outside numpy's int64 range ``[0, 2**63 - 1]`` raises
    :class:`ValueError`.
    """
    seed = _integer(seed, "seed")
    if shots is not None:
        shots = _integer(shots, "shots")
        if not 0 <= shots <= np.iinfo(np.int64).max:
            raise ValueError(f"shots must lie in [0, 2**63 - 1], got {shots}")
    if state_set.dim != machine.system_dim:
        raise DimensionMismatch(
            f"set dim {state_set.dim} vs machine system dim {machine.system_dim}")
    n = len(state_set)
    if machine.gammas.size != n:
        raise MachineMismatch(
            f"machine designs {machine.gammas.size} efficiencies for {n} states")
    if machine.target is not state_set.target:
        raise MachineMismatch(
            f"machine target {machine.target.value!r} vs set target "
            f"{state_set.target.value!r}")
    probs, outputs, fidelities, phases = _run_columns(
        machine, state_set.matrix(), state_set.target_matrix())
    oks = ((fidelities >= 1.0 - FIDELITY_TOL)
           & (np.abs(probs - machine.gammas) <= PROB_TOL))
    # one tolist() per column gives the Python floats and bools, not a
    # numpy scalar converted per field
    prob_list = probs.tolist()
    records = [ExactRecord(i, *fields) for i, fields in enumerate(zip(
        prob_list, fidelities.tolist(), phases.tolist(), outputs.T,
        oks.tolist()))]
    report = SimulationReport("exact", records, machine.unitarity_error())
    if shots:
        rng = np.random.default_rng(seed)
        report.mode = "monte_carlo"
        report.seed = seed
        report.shots = shots
        successes = rng.binomial(shots, np.clip(probs, 0.0, 1.0)).tolist()
        report.mc_records = [
            MonteCarloRecord(i, p, shots, k, k / shots, seed)
            for i, (p, k) in enumerate(zip(prob_list, successes))]
    return report
