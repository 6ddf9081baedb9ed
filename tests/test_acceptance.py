"""Acceptance gate for the package contract.

Six criteria, each a single test contributing one PASS/FAIL line to the
terminal summary (pytest's capture would hide plain prints from passing
tests).  Every random draw is seeded; the whole file is deterministic.
"""
import functools
import time

import numpy as np

from oracles import psd_by_minors, quadratic_roots
from qnot import (
    Machine,
    ProbeSpec,
    QuditState,
    StateSet,
    TargetMap,
    TripleBoundInput,
    build_exact_unitary,
    build_probe_unitary,
    check_exact_unitary,
    check_exact_with_probe,
    gamma_max_triple,
    gram,
    grid_oracle_triple,
    is_psd,
    orthogonal_complement,
    run_exact,
    solve_dependent_triple,
    synthesize,
    synthesize_with,
    target_state,
    unitary_completion,
    verify_machine,
)
from qnot.linalg import gram_of

from conftest import (
    ACCEPTANCE_LINES,
    random_independent_set,
    random_overlapping_pair,
    random_set,
    random_state,
    worked_triple,
)


def criterion(num: int, label: str, budget: float | None = None):
    """Record one pass/fail verdict per criterion and enforce its budget."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                ACCEPTANCE_LINES.append(f"criterion {num} [{label}]: FAIL")
                raise
            elapsed = time.monotonic() - start
            if budget is not None and elapsed >= budget:
                ACCEPTANCE_LINES.append(
                    f"criterion {num} [{label}]: FAIL "
                    f"(budget {budget:.0f}s, took {elapsed:.1f}s)")
                raise AssertionError(f"criterion {num} exceeded its "
                                     f"{budget:.0f}s budget: {elapsed:.1f}s")
            ACCEPTANCE_LINES.append(
                f"criterion {num} [{label}]: PASS ({elapsed:.2f}s)")
        return wrapper
    return deco


@criterion(1, "probe-free flip on real sets", budget=5.0)
def test_criterion_1_exact_unitary():
    rng = np.random.default_rng(101)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        ss = random_set(rng, n, 2, TargetMap.NOT, real=True)
        assert check_exact_unitary(ss).feasible
        u = build_exact_unitary(ss)
        for s in ss:
            out = u @ s.amps
            want = orthogonal_complement(s)
            assert abs(np.vdot(want.amps, out)) >= 1.0 - 1e-8
    drawn = 0
    while drawn < 200:
        n = int(rng.integers(2, 6))
        ss = random_set(rng, n, 2, TargetMap.NOT)
        if np.abs(gram(ss).matrix.imag).max() <= 1e-3:
            continue
        drawn += 1
        assert not check_exact_unitary(ss).feasible


@criterion(2, "any pair flips exactly with a probe", budget=10.0)
def test_criterion_2_pair_universality():
    rng = np.random.default_rng(102)
    for _ in range(500):
        ss = random_overlapping_pair(rng)
        verdict = check_exact_with_probe(ss)
        assert verdict.feasible
        u = build_probe_unitary(ss, verdict.witness)
        machine = Machine(2, 2, TargetMap.NOT, u, np.ones(2),
                          verdict.witness.phases)
        for s in ss:
            rec = run_exact(machine, s)
            assert abs(rec.success_prob - 1.0) <= 1e-8
            assert abs(rec.fidelity - 1.0) <= 1e-8


@criterion(3, "synthesize/verify/sample pipeline", budget=60.0)
def test_criterion_3_pipeline():
    rng = np.random.default_rng(103)
    cases = ([(2, 2, TargetMap.NOT)] * 50
             + [(3, 3, TargetMap.CONJUGATE)] * 50)
    for k, (n, dim, target) in enumerate(cases):
        ss = random_independent_set(rng, n, dim, target)
        machine, _ = synthesize(ss)
        report = verify_machine(machine, ss, shots=100_000, seed=9000 + k)
        assert report.unitary_error <= 1e-9
        assert report.all_ok, report.flagged()
        for rec, g in zip(report.records, machine.gammas):
            assert abs(rec.success_prob - g) <= 1e-8
            assert rec.fidelity >= 1.0 - 1e-8
        for mc in report.mc_records:
            sigma = np.sqrt(mc.exact_prob * (1.0 - mc.exact_prob) / mc.shots)
            assert abs(mc.empirical - mc.exact_prob) <= 4.0 * sigma + 1e-12


@criterion(4, "worked dependent-triple example")
def test_criterion_4_worked_example():
    # right-angle branch phase: the triple flips perfectly
    phi = np.pi / 2
    ss = worked_triple(phi)
    g3, chi = solve_dependent_triple(*ss.states, 1.0, 1.0, phi)
    assert abs(g3 - 1.0) <= 1e-6
    probe = ProbeSpec.phase_vector([0.0, phi, chi])
    machine = synthesize_with(ss, np.ones(3), probe)
    report = verify_machine(machine, ss)
    assert report.all_ok
    for rec in report.records:
        assert abs(rec.success_prob - 1.0) <= 1e-6
        assert rec.fidelity >= 1.0 - 1e-6
    # zero branch phase: PSD boundary equals the quadratic root
    ss0 = worked_triple(0.0)
    roots = quadratic_roots(0.5, -2.0 + np.sin(0.0), 0.5)
    root = min(r.real for r in roots if 0 < r.real <= 1 and abs(r.imag) < 1e-12)
    oracle = grid_oracle_triple(gram(ss0), ProbeSpec.phase_vector([0.0] * 3))
    assert abs(oracle - root) <= 1e-6


@criterion(5, "triple efficiency bound, closed form vs oracle")
def test_criterion_5_gamma_max():
    rng = np.random.default_rng(105)
    checked = 0
    while checked < 100:
        ss = random_independent_set(rng, 3, 3, TargetMap.CONJUGATE)
        inp = TripleBoundInput.from_gram(gram(ss))
        closed = gamma_max_triple(inp)
        oracle = grid_oracle_triple(inp.gram_matrix(), inp.probe())
        assert abs(closed - oracle) <= 1e-5, (inp, closed, oracle)
        checked += 1
    aligned = TripleBoundInput(0.5, 0.4, 0.6, 0.3, 0.5, 0.2)  # delta = 0
    assert gamma_max_triple(aligned) == 1.0
    faint = TripleBoundInput(0.4, 0.5, 1e-12, 0.7, 0.2, 0.9)  # t23 -> 0
    assert abs(gamma_max_triple(faint) - 1.0) <= 1e-9


@criterion(6, "algebraic property sweep")
def test_criterion_6_properties():
    rng = np.random.default_rng(106)
    # conjugation of the Gram matrix under the target map
    for _ in range(1000):
        dim = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        target = TargetMap.NOT if dim == 2 and rng.random() < 0.5 \
            else TargetMap.CONJUGATE
        ss = random_set(rng, n, dim, target)
        t_mat = np.stack([target_state(s, ss.target).amps for s in ss], axis=1)
        dev = np.abs(gram_of(t_mat) - np.conj(gram(ss).matrix)).max()
        assert dev <= 1e-12
    # eigenvalue PSD test against the principal-minors oracle
    for _ in range(500):
        n = int(rng.integers(2, 5))
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m = a.conj().T @ a if rng.random() < 0.5 else a + a.conj().T
        assert is_psd(m) == psd_by_minors(m)
    # unitary completion preserves Gram data and is actually unitary
    for _ in range(500):
        dim = int(rng.integers(2, 6))
        k = int(rng.integers(1, dim + 1))
        xs = [random_state(rng, dim).amps for _ in range(k)]
        q = np.linalg.qr(rng.normal(size=(dim, dim))
                         + 1j * rng.normal(size=(dim, dim)))[0]
        ys = [q @ x for x in xs]
        u = unitary_completion(xs, ys)
        assert np.abs(u @ u.conj().T - np.eye(dim)).max() <= 1e-9
        for x, y in zip(xs, ys):
            assert np.abs(u @ x - y).max() <= 1e-8
    # probability over all probe outcomes is conserved in every simulation
    for _ in range(50):
        dim = int(rng.integers(2, 4))
        n = int(rng.integers(2, dim + 1))
        target = TargetMap.NOT if dim == 2 else TargetMap.CONJUGATE
        ss = random_independent_set(rng, n, dim, target)
        machine, _ = synthesize(ss)
        psi = random_state(rng, dim)
        v = machine.unitary @ np.kron(psi.amps, np.eye(machine.probe_dim)[0])
        blocks = v.reshape(machine.system_dim, machine.probe_dim)
        assert abs(float(np.sum(np.abs(blocks) ** 2)) - 1.0) <= 1e-10
