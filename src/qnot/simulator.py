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

A :class:`SimulationReport` holds the run as per-member columns: success
probabilities, fidelities, phases, the ``d x n`` outputs, the ok mask and,
with shots, the drawn success counts.  Its ``records`` and ``mc_records``
are built on first read and cached, so a caller that reads only
``all_ok`` builds no per-member object; an edit of a record's ``ok`` is
seen by ``all_ok``, ``flagged()`` and the report's JSON.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
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


@dataclass(eq=False)
class SimulationReport:
    """A run of a machine on a set, one entry per member in each column.

    ``outputs`` is ``d x n``, the postselected output of member ``i`` in
    column ``i``; ``oks`` is the mask the tolerances gave.  ``successes``
    (with shots) holds the drawn success counts.
    """
    mode: str
    success_probs: np.ndarray
    fidelities: np.ndarray
    global_phases: np.ndarray
    outputs: np.ndarray
    oks: np.ndarray
    unitary_error: float
    seed: Optional[int] = None
    shots: Optional[int] = None
    successes: Optional[np.ndarray] = None

    @cached_property
    def records(self) -> list:
        """One :class:`ExactRecord` per member, built once from the columns;
        each ``output_state`` is a view of its column."""
        # one tolist() per column gives the Python floats and bools, not a
        # numpy scalar converted per field
        return [ExactRecord(i, *fields) for i, fields in enumerate(zip(
            self.success_probs.tolist(), self.fidelities.tolist(),
            self.global_phases.tolist(), self.outputs.T, self.oks.tolist()))]

    @cached_property
    def mc_records(self) -> list:
        """One :class:`MonteCarloRecord` per member, built once; empty
        without shots."""
        if self.successes is None:
            return []
        return [MonteCarloRecord(i, p, self.shots, k, k / self.shots, self.seed)
                for i, (p, k) in enumerate(zip(self.success_probs.tolist(),
                                               self.successes.tolist()))]

    def ok_mask(self) -> np.ndarray:
        """Each member's verdict: ``oks`` until ``records`` is read, then
        the records' ``ok``, so an edit through a record counts."""
        records = self.__dict__.get("records")
        if records is None:
            return self.oks
        return np.array([r.ok for r in records], dtype=bool)

    @property
    def all_ok(self) -> bool:
        return (self.unitary_error <= UNITARITY_TOL
                and bool(self.ok_mask().all()))

    def flagged(self) -> list:
        return np.flatnonzero(~self.ok_mask()).tolist()


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
    The report keeps the run as per-member columns and builds its
    ``records`` (and ``mc_records``) on first read; an edit of a record's
    ``ok`` is seen by ``all_ok`` and ``flagged()``.  With ``shots``
    positive, each member's success count is drawn (one generator seeded
    with ``seed``, members sampled in order); ``None`` or 0 means the
    exact report alone.  ``shots`` and ``seed`` are stored as
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
    exact = (probs, fidelities, phases, outputs, oks,
             machine.unitarity_error())
    if not shots:
        return SimulationReport("exact", *exact)
    rng = np.random.default_rng(seed)
    return SimulationReport("monte_carlo", *exact, seed, shots,
                            rng.binomial(shots, np.clip(probs, 0.0, 1.0)))
