"""Block-held machines: the dense unitary, its checks and its file.

A synthesized machine keeps only the indices its unitary moves and the
block on them.  Each machine here is compared with the dense completion of
the same branches, built as one ``D x D`` array.
"""
import json
import tracemalloc

import numpy as np
import pytest

from conftest import random_independent_set, random_set, random_state
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
from qnot.linalg import completion_block
from qnot.serialize import dumps, machine_from_dict, machine_to_dict
from qnot.synthesis import _failure_amplitudes


def _branches(ss, machine):
    """Columns ``psi_i x |0>`` and their images, from the design alone."""
    d, p, n = ss.dim, machine.probe_dim, len(ss)
    ins = np.zeros((d, p, n), complex)
    ins[:, 0, :] = ss.matrix()
    outs = np.zeros((d, p, n), complex)
    if p == 1:
        outs[:, 0, :] = ss.target_matrix()
    else:
        probe = ProbeSpec.phase_vector(machine.branch_phases)
        outs[:, 0, :] = ss.target_matrix() * (
            np.sqrt(machine.gammas) * np.exp(1j * machine.branch_phases))
        failure = _failure_amplitudes(
            constraint_matrix(gram(ss), machine.gammas, probe), d)
        outs[:failure.shape[0], 1, :] = failure
    return ins.reshape(d * p, n), outs.reshape(d * p, n)


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
    inner = random_independent_set(rng, n, dim - 1, TargetMap.CONJUGATE)
    ss = StateSet(tuple(QuditState(np.r_[s.amps, 0.0]) for s in inner.states),
                  TargetMap.CONJUGATE)
    machine = synthesize(ss)[0]
    assert machine.success_block().shape == (dim, dim)
    return machine, ss


CASES = [(_general, 2, 2), (_general, 3, 4), (_general, 5, 5),
         (_exact, 2, 2), (_exact, 4, 3), (_exact, 6, 5),
         (_dependent, 3, 2), (_dependent, 5, 3), (_dependent, 7, 4),
         (_padded, 2, 3), (_padded, 3, 5)]
IDS = [f"{make.__name__[1:]}-{n}x{dim}" for make, n, dim in CASES]


def _build(case, seed):
    make, n, dim = case
    return make(np.random.default_rng(seed), n, dim)


def _report_facts(report):
    """Every field of a report and of its records, arrays as bytes."""
    records = [vars(r) for r in report.records + report.mc_records]
    return [vars(report) | {"records": None, "mc_records": None}] + [
        {k: v.tobytes() if isinstance(v, np.ndarray) else v
         for k, v in r.items()} for r in records]


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_block_machine_matches_the_dense_completion(case):
    machine, ss = _build(case, 41)
    ins, outs = _branches(ss, machine)
    dense_u = unitary_completion(ins.T, outs.T)
    dense = Machine(machine.system_dim, machine.probe_dim, machine.target,
                    dense_u, machine.gammas, machine.branch_phases)
    # read the block before the dense unitary exists
    success, error = machine.success_block(), machine.unitarity_error()
    reports = [verify_machine(machine, ss), verify_machine(machine, ss, shots=500)]
    assert reports[0].all_ok
    np.testing.assert_array_equal(success, dense.success_block())
    assert error == dense.unitarity_error()
    assert [_report_facts(r) for r in reports] == [
        _report_facts(verify_machine(dense, ss)),
        _report_facts(verify_machine(dense, ss, shots=500))]
    np.testing.assert_array_equal(machine.unitary, dense_u)
    np.testing.assert_array_equal(success, machine.success_block())
    assert machine.unitarity_error() == error


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_nan_in_the_block_fails_verification(case):
    machine, ss = _build(case, 42)
    support, block = completion_block(*_branches(ss, machine))
    args = (machine.system_dim, machine.probe_dim, machine.target, support)
    design = (machine.gammas, machine.branch_phases)
    assert verify_machine(Machine.from_block(*args, block, *design), ss).all_ok
    block[-1, 0] = np.nan
    broken = Machine.from_block(*args, block, *design)
    assert np.isnan(broken.unitarity_error())
    assert not verify_machine(broken, ss).all_ok


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_machine_file_bytes_do_not_depend_on_the_storage(case):
    machine, ss = _build(case, 43)
    dense = Machine(machine.system_dim, machine.probe_dim, machine.target,
                    unitary_completion(*(m.T for m in _branches(ss, machine))),
                    machine.gammas, machine.branch_phases)
    text = dumps(machine_to_dict(machine))
    assert text == dumps(machine_to_dict(dense))
    assert verify_machine(machine_from_dict(json.loads(text)), ss).all_ok


def test_synthesize_and_verify_build_no_joint_array():
    """n = d = 40: one complex D x D array, D = 1640, is 43 MB."""
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
    assert peak < 10e6


def _dense(*args):
    return Machine(*args[:3], np.eye(2), *args[3:])


def _blocked(*args):
    return Machine.from_block(*args[:3], [0, 1], np.eye(2), *args[3:])


@pytest.mark.parametrize("build", [_dense, _blocked])
@pytest.mark.parametrize("args, error", [
    ((2, 1, TargetMap.NOT, np.ones(2), np.zeros(3)), DimensionMismatch),
    ((2, 1, TargetMap.NOT, np.ones(0), np.zeros(1)), DimensionMismatch),
    ((2, 1, TargetMap.NOT, [1.0, np.nan], np.zeros(2)), ValueError),
    ((2, 1, TargetMap.NOT, np.ones(2), [0.0, np.inf]), ValueError),
    ((0, 1, TargetMap.NOT, np.ones(1), np.zeros(1)), ValueError),
    ((2, 1.0, TargetMap.NOT, np.ones(1), np.zeros(1)), ValueError),
    ((2.0, 1, TargetMap.NOT, np.ones(1), np.zeros(1)), ValueError),
    ((2, True, TargetMap.NOT, np.ones(1), np.zeros(1)), ValueError),
    ((2, -1, TargetMap.NOT, np.ones(1), np.zeros(1)), ValueError),
], ids=["phases", "gammas", "nan_gamma", "inf_phase", "zero_dim",
        "float_probe_dim", "float_system_dim", "bool_dim", "negative_dim"])
def test_machine_refuses_bad_design(build, args, error):
    with pytest.raises(error):
        build(*args)


def test_machine_takes_numpy_integer_dimensions():
    machine = _blocked(np.int64(2), np.int64(1), TargetMap.NOT, np.ones(1),
                       np.zeros(1))
    assert (machine.system_dim, machine.total_dim) == (2, 2)
    assert type(machine.system_dim) is int


@pytest.mark.parametrize("support, block", [
    ([0, 1], np.eye(3)), ([1, 0], np.eye(2)), ([0, 4], np.eye(2)),
    ([-1, 0], np.eye(2)), ([1, 1], np.eye(2)), ([0.4, 1.9], np.eye(2)),
    ([0.0, np.nan], np.eye(2)), ([True, False], np.eye(2))])
def test_block_must_sit_on_ascending_indices_of_the_machine(support, block):
    with pytest.raises(DimensionMismatch):
        Machine.from_block(2, 2, TargetMap.NOT, support, block, np.ones(1),
                           np.zeros(1))
