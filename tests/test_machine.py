"""Machines: the one dense unitary, its checks and its file.

A machine holds one ``D x D`` array, its unitary.  Each exact machine here
is compared with the dense completion of its branches by
:func:`qnot.unitary_completion`, and each probabilistic one with the CS
dilation of its success map: its success and failure branches, its
unitarity and the rows it moves.
"""
import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from conftest import (random_independent_set, random_set, random_state,
                      zero_padded_set)
from qnot import (
    DimensionMismatch,
    Machine,
    ProbeSpec,
    QuditState,
    StateSet,
    TargetMap,
    constraint_matrix,
    gram,
    standard_probe,
    synthesize,
    synthesize_with,
    unitary_completion,
    verify_machine,
)
from qnot.feasibility import constraint_kernel
from qnot.linalg import range_null
from qnot.serialize import dumps, machine_from_dict, machine_to_dict
from qnot.synthesis import _assemble


def _probe_branches(ss, machine):
    """``(success, failure)``: ``U (psi_i x |0>)`` on probe levels 0 and 1,
    each ``d x n``."""
    d, n = ss.dim, len(ss)
    ins = np.zeros((d, 2, n), complex)
    ins[:, 0] = ss.matrix()
    out = (machine.unitary @ ins.reshape(2 * d, n)).reshape(d, 2, n)
    return out[:, 0], out[:, 1]


def _phased_real_set(rng, n, dim, target):
    """Real vectors under random global phases: dependent for ``n > dim``.

    The doubled-phase probe makes ``M = (1 - gamma) G`` at equal
    efficiencies, so every ``gamma`` in (0, 1) has a machine.
    """
    return StateSet(tuple(
        QuditState.normalized(random_state(rng, dim, real=True).amps
                              * np.exp(2j * np.pi * rng.random()))
        for _ in range(n)), target)


def _general(rng, n, dim):
    ss = random_independent_set(rng, n, dim, TargetMap.CONJUGATE)
    return synthesize(ss)[0], ss


def _exact(rng, n, dim):
    ss = random_set(rng, n, dim, TargetMap.CONJUGATE, real=True)
    machine, report = synthesize(ss)
    assert report.path == "exact" and machine.probe_dim == 1
    return machine, ss


def _dependent(rng, n, dim):
    ss = _phased_real_set(rng, n, dim, TargetMap.CONJUGATE)
    return synthesize_with(ss, 0.7, standard_probe(gram(ss))), ss


def _padded(rng, n, dim):
    """States with a zero last entry: the block misses a system index."""
    ss = zero_padded_set(rng, n, dim)
    machine = synthesize(ss)[0]
    assert machine.success_block().shape == (dim, dim)
    return machine, ss


CS_CASES = [(_general, 2, 2), (_general, 3, 4), (_general, 5, 5),
            (_general, 2, 5), (_general, 3, 8),
            (_dependent, 3, 2), (_dependent, 5, 3), (_dependent, 7, 4),
            (_padded, 2, 3), (_padded, 3, 5), (_padded, 2, 6)]
EXACT_CASES = [(_exact, 2, 2), (_exact, 4, 3), (_exact, 6, 5)]
CASES = CS_CASES[:3] + EXACT_CASES + CS_CASES[5:10]


def _ids(cases):
    return [f"{make.__name__[1:]}-{n}x{dim}" for make, n, dim in cases]


IDS = _ids(CASES)


def _build(case, seed):
    make, n, dim = case
    return make(np.random.default_rng(seed), n, dim)


def _bytes(value):
    """An array as its dtype, shape and bytes; any other value as itself."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return value


def _report_facts(report):
    """Every field of a report, its columns as bytes, then every field of
    its records."""
    records = [vars(r) for r in report.records + report.mc_records]
    return [{f.name: _bytes(getattr(report, f.name))
             for f in dataclasses.fields(report)}] + [
        {k: _bytes(v) for k, v in r.items()} for r in records]


def _rebuilt(machine, unitary):
    """The machine's design on another unitary array."""
    return Machine(machine.system_dim, machine.probe_dim, machine.target,
                   unitary, machine.gammas, machine.branch_phases)


@pytest.mark.parametrize("case", EXACT_CASES, ids=_ids(EXACT_CASES))
def test_synthesized_machine_is_the_dense_completion(case):
    machine, ss = _build(case, 41)
    dense_u = unitary_completion(ss.matrix().T, ss.target_matrix().T)
    np.testing.assert_array_equal(machine.unitary, dense_u)
    dense = _rebuilt(machine, dense_u)
    reports = [verify_machine(machine, ss), verify_machine(machine, ss, shots=500)]
    assert reports[0].all_ok
    np.testing.assert_array_equal(machine.success_block(),
                                  dense.success_block())
    assert machine.unitarity_error() == dense.unitarity_error()
    assert [_report_facts(r) for r in reports] == [
        _report_facts(verify_machine(dense, ss)),
        _report_facts(verify_machine(dense, ss, shots=500))]


@pytest.mark.parametrize("case", CS_CASES, ids=_ids(CS_CASES))
def test_synthesized_machine_is_the_cs_dilation(case):
    """``U (psi_i x |0>) = w_i x |0> + sum_j F_ji |j> x |1>`` with ``W = T
    diag(sqrt(gamma) e^{i phi})`` and ``F^dag F = M`` within the residual
    the builder reports, ``F`` on the first ``r = rank G`` rows; the
    unitary error is at rounding.  The machine moves those ``r`` failure
    rows and every system row the set or its targets touch, so ``d + r``
    rows when they touch all; when ``2r < d`` it moves no other row."""
    machine, ss = _build(case, 41)
    d, n = ss.dim, len(ss)
    probe = ProbeSpec.phase_vector(machine.branch_phases)
    gm = gram(ss)
    again, residual = _assemble(ss, gm, range_null(gm.matrix),
                                machine.gammas, probe.phases,
                                constraint_kernel(gm.matrix, probe))
    np.testing.assert_array_equal(again.unitary, machine.unitary)
    success, failure = _probe_branches(ss, machine)
    w = ss.target_matrix() * (np.sqrt(machine.gammas)
                              * np.exp(1j * machine.branch_phases))
    assert np.abs(success - w).max() <= 1e-12
    r = range_null(gm.matrix)[0].shape[1]
    assert not failure[r:].any()
    m = constraint_matrix(gm, machine.gammas, probe)
    assert residual <= 1e-12
    assert np.abs(failure.conj().T @ failure - m).max() <= residual + 1e-14
    assert machine.unitarity_error() <= 1e-13
    moved = (machine.unitary != np.eye(2 * d)).any(axis=0)
    touched = ((ss.matrix() != 0).any(axis=1)
               | (ss.target_matrix() != 0).any(axis=1))
    np.testing.assert_array_equal(moved[1::2], np.arange(d) < r)
    assert moved[::2][touched].all()
    if 2 * r < d:
        assert not moved[::2][~touched].any()
    assert verify_machine(machine, ss).all_ok


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_nan_in_the_block_fails_verification(case):
    machine, ss = _build(case, 42)
    u = machine.unitary.copy()
    assert verify_machine(_rebuilt(machine, u), ss).all_ok
    u[-1, 0] = np.nan
    broken = _rebuilt(machine, u)
    assert np.isnan(broken.unitarity_error())
    assert not verify_machine(broken, ss).all_ok


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_machine_file_bytes_do_not_depend_on_the_storage(case):
    """The same file from the unitary in Fortran order and as a strided
    view of a larger array, and it loads to a machine that verifies."""
    machine, ss = _build(case, 43)
    u = machine.unitary
    strided = np.zeros((u.shape[0], 2 * u.shape[1]), complex)[:, ::2]
    strided[:] = u
    text = dumps(machine_to_dict(machine))
    for stored in (np.asfortranarray(u), strided):
        assert text == dumps(machine_to_dict(_rebuilt(machine, stored)))
    assert verify_machine(machine_from_dict(json.loads(text)), ss).all_ok


def test_synthesize_and_verify_peak_memory():
    """n = d = 40: the D = 80 unitary is 0.1 MB, and the run peaks near 0.6 MB."""
    ss = random_independent_set(np.random.default_rng(1), 40, 40,
                                TargetMap.CONJUGATE)
    tracemalloc.start()
    try:
        machine, _ = synthesize(ss)
        report = verify_machine(machine, ss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_ok
    assert peak < 2e6


def test_machine_holds_one_array_that_reads_do_not_replace():
    """n < d: the branches move s = 8 of the D = 10 indices."""
    ss = random_independent_set(np.random.default_rng(3), 3, 5,
                                TargetMap.CONJUGATE)
    machine = synthesize(ss)[0]
    held = dict(vars(machine))
    assert machine.unitary is machine.unitary
    assert all(vars(machine)[k] is v for k, v in held.items())
    assert [k for k, v in held.items()
            if isinstance(v, np.ndarray) and v.ndim == 2] == ["unitary"]
    before = machine.unitary.copy()
    machine.success_block()[:] = np.nan
    np.testing.assert_array_equal(machine.unitary, before)


def test_machine_keeps_its_own_design():
    """Edits to the caller's design arrays after construction neither change
    the checked machine nor break the file it writes."""
    gammas, phases = np.array([0.5, 0.25]), np.array([0.0, 1.0])
    machine = Machine(2, 1, TargetMap.NOT, np.eye(2), gammas, phases)
    gammas[0], phases[1] = 5.0, np.nan
    assert machine.gammas.tolist() == [0.5, 0.25]
    assert machine.branch_phases.tolist() == [0.0, 1.0]
    back = machine_from_dict(json.loads(dumps(machine_to_dict(machine))))
    np.testing.assert_array_equal(back.gammas, [0.5, 0.25])
    np.testing.assert_array_equal(back.branch_phases, [0.0, 1.0])


def _dense(*args):
    return Machine(*args[:3], np.eye(2), *args[3:])


@pytest.mark.parametrize("build", [_dense])
@pytest.mark.parametrize("args, error", [
    ((2, 1, TargetMap.NOT, np.ones(2), np.zeros(3)), DimensionMismatch),
    ((2, 1, TargetMap.NOT, np.ones(0), np.zeros(1)), DimensionMismatch),
    ((2, 1, TargetMap.NOT, [], []), ValueError),
    ((2, 1, TargetMap.NOT, [1.0, np.nan], np.zeros(2)), ValueError),
    ((2, 1, TargetMap.NOT, [5.0], [0.0]), ValueError),
    ((2, 1, TargetMap.NOT, [-1.0], [0.0]), ValueError),
    ((2, 1, TargetMap.NOT, [1e-14], [0.0]), ValueError),
    ((2, 1, TargetMap.NOT, np.ones(2), [0.0, np.inf]), ValueError),
    ((0, 1, TargetMap.NOT, np.ones(1), np.zeros(1)), ValueError),
    ((2, 1.0, TargetMap.NOT, np.ones(1), np.zeros(1)), ValueError),
    ((2.0, 1, TargetMap.NOT, np.ones(1), np.zeros(1)), ValueError),
    ((2, True, TargetMap.NOT, np.ones(1), np.zeros(1)), ValueError),
    ((2, -1, TargetMap.NOT, np.ones(1), np.zeros(1)), ValueError),
], ids=["phases", "gammas", "empty_design", "nan_gamma", "gamma_above_one",
        "negative_gamma", "gamma_at_success_floor", "inf_phase", "zero_dim",
        "float_probe_dim", "float_system_dim", "bool_dim", "negative_dim"])
def test_machine_refuses_bad_design(build, args, error):
    with pytest.raises(error):
        build(*args)


def test_machine_takes_numpy_integer_dimensions():
    machine = _dense(np.int64(2), np.int64(1), TargetMap.NOT, np.ones(1),
                     np.zeros(1))
    assert (machine.system_dim, machine.total_dim) == (2, 2)
    assert type(machine.system_dim) is int
