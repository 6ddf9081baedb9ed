"""JSON serialization of states, machines, verdicts, and reports.

Complex numbers travel as ``[re, im]`` pairs, and a complex array as the
nested lists of its pairs.  Floats are emitted with Python's shortest
round-trip repr, so parsing a written file reproduces every amplitude
bit-for-bit (well inside the 1e-12 contract).  Every document is written
compact by :mod:`json`'s C encoder.  A machine file holds the dense
``2d x 2d`` unitary (``d x d`` on the exact path), so its size grows as
``d^2`` whatever the number of states.  A machine file's ``gammas`` pass
:func:`qnot.feasibility.efficiencies` in :class:`qnot.synthesis.Machine`,
as those of a request do, so every machine the writer takes reads back.
"""
from __future__ import annotations

import itertools
import json

import numpy as np

from .errors import QnotError
from .feasibility import FeasibilityVerdict
from .simulator import RNG_ALGORITHM, SimulationReport
from .states import QuditState, StateSet, TargetMap
from .synthesis import Machine


class SchemaError(QnotError):
    """Input document does not match the expected JSON shape."""


def _complex_lists(z) -> list:
    """Nested lists of ``[re, im]`` pairs, one per entry of ``z``."""
    z = np.asarray(z, dtype=complex)
    return np.stack([z.real, z.imag], -1).tolist()


def _float_array(obj, ndim: int, what: str) -> np.ndarray:
    """Parse nested lists of finite numbers into a float array.

    Ragged nesting, a count of axes other than ``ndim``, an empty array,
    and entries that are not finite numbers (booleans included) raise
    :class:`SchemaError` naming ``what``.
    """
    try:
        arr = np.array(obj)
    except ValueError:
        raise SchemaError(f"ragged nesting in {what}") from None
    if arr.ndim != ndim or arr.size == 0:
        raise SchemaError(f"expected {what} as a nonempty {ndim}-d array, "
                          f"got shape {arr.shape}")
    if arr.dtype.kind not in "iuf":
        raise SchemaError(f"{what} entries must be numbers, got {arr.dtype}")
    # numpy silently reads booleans mixed with numbers as 0 and 1
    leaves = obj
    for _ in range(ndim - 1):
        leaves = itertools.chain.from_iterable(leaves)
    if bool in map(type, leaves):
        raise SchemaError(f"{what} entries must be numbers, got a boolean")
    arr = np.ascontiguousarray(arr, dtype=float)
    if not np.isfinite(arr).all():
        raise SchemaError(f"{what} entries must be finite")
    return arr


def _complex_array(obj, ndim: int) -> np.ndarray:
    """Parse nested ``[re, im]`` pairs into a complex array with ``ndim`` axes."""
    arr = _float_array(obj, ndim + 1, "[re, im] pairs")
    if arr.shape[-1] != 2:
        raise SchemaError(f"expected [re, im] pairs, got entries of length "
                          f"{arr.shape[-1]}")
    return arr.view(complex)[..., 0]


def state_to_dict(state: QuditState) -> dict:
    return {"dim": state.dim, "amps": _complex_lists(state.amps)}


def _state_amps(doc) -> np.ndarray:
    """A state document's amplitudes, schema and ``dim`` checked."""
    if not isinstance(doc, dict) or "dim" not in doc or "amps" not in doc:
        raise SchemaError("state document needs 'dim' and 'amps'")
    amps = _complex_array(doc["amps"], 1)
    # a JSON integer, not a boolean or a float
    if type(doc["dim"]) is not int or doc["dim"] != amps.size:
        raise SchemaError(
            f"declared dim {doc['dim']!r} but {amps.size} amplitudes")
    return amps


def state_from_dict(doc) -> QuditState:
    return QuditState(_state_amps(doc))


def state_set_to_dict(state_set: StateSet) -> dict:
    return {"target": state_set.target.value,
            "states": [state_to_dict(s) for s in state_set]}


def _target(doc: dict) -> TargetMap:
    """A set or machine document's ``target``."""
    try:
        return TargetMap(doc["target"])
    except ValueError:
        raise SchemaError(f"unknown target {doc['target']!r}") from None


def state_set_from_dict(doc) -> StateSet:
    if not isinstance(doc, dict) or "target" not in doc or "states" not in doc:
        raise SchemaError("state set document needs 'target' and 'states'")
    target = _target(doc)
    states = doc["states"]
    if not isinstance(states, list) or not states:
        raise SchemaError("'states' must be a nonempty list")
    # every member's schema is checked before any member's norm
    return StateSet.from_amplitudes([_state_amps(s) for s in states], target)


def machine_to_dict(machine: Machine) -> dict:
    return {
        "system_dim": machine.system_dim,
        "probe_dim": machine.probe_dim,
        "target": machine.target.value,
        "unitary": _complex_lists(machine.unitary),
        "gammas": [float(g) for g in machine.gammas],
        "phases": [float(p) for p in machine.branch_phases],
    }


def machine_from_dict(doc) -> Machine:
    needed = ("system_dim", "probe_dim", "target", "unitary", "gammas",
              "phases")
    if not isinstance(doc, dict) or any(k not in doc for k in needed):
        raise SchemaError(f"machine document needs keys {needed}")
    target = _target(doc)
    gammas = _float_array(doc["gammas"], 1, "gammas")
    phases = _float_array(doc["phases"], 1, "phases")
    return Machine(doc["system_dim"], doc["probe_dim"], target,
                   _complex_array(doc["unitary"], 2), gammas, phases)


def verdict_to_dict(verdict: FeasibilityVerdict) -> dict:
    phases = None
    if verdict.witness is not None and verdict.witness.phases is not None:
        phases = [float(p) for p in verdict.witness.phases]
    return {"feasible": verdict.feasible,
            "witness_phases": phases,
            "violation": verdict.violation}


def report_to_dict(report: SimulationReport) -> dict:
    """The report's JSON, its per-member entries from one ``tolist()`` per
    column; ``ok`` and ``all_ok`` are the report's verdicts."""
    states = [{"i": i, "p": p, "fidelity": f, "global_phase": g, "ok": ok}
              for i, (p, f, g, ok) in enumerate(zip(
                  report.success_probs.tolist(), report.fidelities.tolist(),
                  report.global_phases.tolist(), report.ok_mask().tolist()))]
    if report.successes is not None:
        for entry, k in zip(states, report.successes.tolist()):
            entry["mc_successes"] = k
            entry["mc_empirical"] = k / report.shots
            entry["rng"] = RNG_ALGORITHM
    return {
        "mode": report.mode,
        "seed": report.seed,
        "shots": report.shots,
        "unitary_error": report.unitary_error,
        "all_ok": report.all_ok,
        "states": states,
    }


def dumps(doc) -> str:
    """The one JSON writer: compact text, newline-terminated.  A non-finite
    float raises :class:`ValueError`, as :func:`load` refuses it."""
    return json.dumps(doc, allow_nan=False) + "\n"


def write(path, text: str) -> None:
    """The one file writer; a path it cannot write is a SchemaError."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise SchemaError(f"cannot write {path}: {exc}") from None


def dump(doc, path) -> None:
    write(path, dumps(doc))


def _reject_constant(name: str):
    raise SchemaError(f"non-finite constant {name} is not allowed")


def load(path):
    """The one JSON reader; a file it cannot read or parse is a SchemaError."""
    try:
        with open(path) as fh:
            return json.load(fh, parse_constant=_reject_constant)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
