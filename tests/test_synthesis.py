import json

import numpy as np
import pytest

from conftest import (
    near_dependent_triple,
    phased_real_set,
    qubit,
    random_independent_set,
    random_overlapping_pair,
    random_set,
    worked_triple,
)
from oracles import quadratic_roots
from qnot import (
    GammaPolicy,
    InfeasibleGamma,
    InvalidProbe,
    LinearlyDependent,
    ProbeSpec,
    QuditState,
    StateSet,
    TargetMap,
    check_probabilistic,
    constraint_matrix,
    gram,
    search_gamma,
    solve_dependent_triple,
    standard_probe,
    synthesize,
    synthesize_with,
    verify_machine,
)
from qnot.linalg import range_null, smallest_eigenvalue
from qnot.serialize import dumps, machine_from_dict, machine_to_dict
from qnot.synthesis import _failure_amplitudes


def assert_all_green(machine, ss):
    report = verify_machine(machine, ss)
    assert report.unitary_error <= 1e-9
    assert report.all_ok, report.flagged()
    return report


class TestSynthesize:
    def test_singleton_plus_gets_exact_machine(self):
        ss = StateSet((qubit(1, 1),), TargetMap.NOT)
        machine, report = synthesize(ss)
        assert report.path == "exact"
        assert machine.probe_dim == 1
        np.testing.assert_allclose(machine.gammas, [1.0])
        rep = assert_all_green(machine, ss)
        assert rep.records[0].success_prob == pytest.approx(1.0)

    def test_real_pair_prefers_exact_path(self):
        rng = np.random.default_rng(71)
        ss = random_set(rng, 2, 2, TargetMap.NOT, real=True)
        machine, report = synthesize(ss)
        assert report.path == "exact"
        np.testing.assert_allclose(machine.gammas, [1.0, 1.0])
        assert_all_green(machine, ss)

    def test_complex_qutrit_triple_general_path(self):
        rng = np.random.default_rng(72)
        ss = random_independent_set(rng, 3, 3, TargetMap.CONJUGATE)
        machine, report = synthesize(ss)
        assert report.path == "general"
        assert machine.probe_dim == 2 and machine.total_dim == 6
        assert report.epsilon == pytest.approx(
            0.999 * report.c / report.d_max)
        np.testing.assert_allclose(machine.gammas,
                                   np.full(3, report.epsilon))
        assert report.residual < 1e-10
        assert_all_green(machine, ss)

    def test_eigenvalue_extremes_match_gram(self):
        rng = np.random.default_rng(73)
        ss = random_independent_set(rng, 3, 4, TargetMap.CONJUGATE)
        _, report = synthesize(ss)
        eig = np.linalg.eigvalsh(gram(ss).matrix)
        assert report.c == pytest.approx(eig.min())
        assert report.d_max == pytest.approx(eig.max())

    def test_dependent_family_rejected(self):
        ss = worked_triple(0.4)  # three qubit states are never independent
        with pytest.raises(LinearlyDependent):
            synthesize(ss)

    def test_refuses_exactly_the_families_range_null_calls_dependent(self):
        """Bisect the noise on the last member of ``combination + e noise``
        to the rank edge, where an ``eigvalsh`` spectrum can count a null
        eigenvalue that the ``eigh`` one does not, or the other way round."""
        rng = np.random.default_rng(1)
        for n in (3, 4, 5, 6) * 3:
            psi = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            coef = rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)
            noise = rng.normal(size=n) + 1j * rng.normal(size=n)

            def family(e):
                psi[:, -1] = psi[:, :-1] @ coef + e * noise
                rows = (psi / np.linalg.norm(psi, axis=0)).T
                ss = StateSet.from_amplitudes(rows, TargetMap.CONJUGATE)
                return ss, range_null(gram(ss).matrix)[1].shape[1] > 0

            lo, hi = 0.0, 1.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if family(mid)[1] else (lo, mid)
            for e in (lo, hi):
                ss, dependent = family(e)
                if dependent:
                    with pytest.raises(LinearlyDependent):
                        synthesize(ss)
                else:
                    assert_all_green(synthesize(ss)[0], ss)

    def test_dependent_real_family_takes_exact_path(self):
        # three qubit states are dependent, but a real Gram needs no probe
        ss = StateSet((qubit(1, 0), qubit(0.6, 0.8), qubit(0, 1)),
                      TargetMap.NOT)
        machine, report = synthesize(ss)
        assert report.path == "exact"
        assert machine.probe_dim == 1
        assert report.residual < 1e-10
        assert_all_green(machine, ss)

    def test_near_dependent_family_builds_a_unitary(self):
        ss = near_dependent_triple()
        machine, report = synthesize(ss)
        assert report.path == "exact"
        assert_all_green(machine, ss)


class TestSynthesizeWith:
    def test_real_pair_at_unit_efficiency(self):
        rng = np.random.default_rng(74)
        ss = random_set(rng, 2, 2, TargetMap.NOT, real=True)
        machine = synthesize_with(ss, np.ones(2),
                                  ProbeSpec.phase_vector(np.zeros(2)))
        report = assert_all_green(machine, ss)
        for rec in report.records:
            assert rec.success_prob == pytest.approx(1.0, abs=1e-9)

    def test_worked_triple_perfect_at_right_angle(self):
        phi = np.pi / 2
        ss = worked_triple(phi)
        gamma3, chi = solve_dependent_triple(*ss.states, 1.0, 1.0, phi)
        assert gamma3 == pytest.approx(1.0, abs=1e-10)
        machine = synthesize_with(ss, np.array([1.0, 1.0, gamma3]),
                                  ProbeSpec.phase_vector([0.0, phi, chi]))
        report = assert_all_green(machine, ss)
        for rec in report.records:
            assert rec.success_prob == pytest.approx(1.0, abs=1e-8)
            assert rec.fidelity == pytest.approx(1.0, abs=1e-10)

    def test_worked_triple_at_zero_phase_boundary(self):
        # boundary efficiency from the quadratic, machine still exists
        ss = worked_triple(0.0)
        bound = float(quadratic_roots(0.5, -2.0, 0.5)[0])
        probe = ProbeSpec.phase_vector([0.0, 0.0, 0.0])
        machine = synthesize_with(ss, np.full(3, bound), probe)
        report = assert_all_green(machine, ss)
        for rec in report.records:
            assert rec.success_prob == pytest.approx(bound, abs=1e-8)

    def test_worked_triple_above_boundary_rejected(self):
        ss = worked_triple(0.0)
        probe = ProbeSpec.phase_vector([0.0, 0.0, 0.0])
        with pytest.raises(InfeasibleGamma):
            synthesize_with(ss, np.full(3, 0.5), probe)

    def test_full_gram_probe_rejected(self):
        ss = worked_triple(0.0)
        with pytest.raises(InvalidProbe):
            synthesize_with(ss, np.full(3, 0.1),
                            ProbeSpec.full_gram(np.eye(3)))

    def test_scaling_down_preserves_feasibility(self):
        rng = np.random.default_rng(75)
        for _ in range(5):
            ss = random_independent_set(rng, 2, 2, TargetMap.NOT)
            found = search_gamma(ss)
            for s in (1.0, 0.7, 0.2):
                gammas = np.clip(s * found.gammas, 1e-6, 1.0)
                assert check_probabilistic(ss, gammas, found.probe).feasible
                machine = synthesize_with(ss, gammas, found.probe)
                assert_all_green(machine, ss)


@pytest.mark.parametrize("policy", list(GammaPolicy))
def test_searched_points_build_machines(policy):
    """Every point the search returns passes the test synthesis applies.

    The search stops at most on the point rule's edge, lambda_min(M) =
    -PSD_TOL min(gamma), so a second PSD test in other arithmetic rejected
    many of these points.
    """
    for seed in range(60):
        ss = random_independent_set(np.random.default_rng(seed), 10, 10,
                                    TargetMap.CONJUGATE)
        found = search_gamma(ss, policy)
        machine = synthesize_with(ss, found.gammas, found.probe)
        np.testing.assert_array_equal(machine.gammas, found.gammas)


class TestMachine:
    def test_json_roundtrip_is_exact(self):
        rng = np.random.default_rng(76)
        ss = random_independent_set(rng, 2, 2, TargetMap.NOT)
        general, report = synthesize(ss)
        assert report.path == "general"
        exact, report = synthesize(random_set(rng, 3, 3, TargetMap.CONJUGATE,
                                              real=True))
        assert report.path == "exact" and exact.probe_dim == 1
        triple = random_independent_set(rng, 3, 3, TargetMap.CONJUGATE)
        found = search_gamma(triple, GammaPolicy.COORDINATE)
        chosen = synthesize_with(triple, found.gammas, found.probe)
        for machine in (general, exact, chosen):
            text = dumps(machine_to_dict(machine))
            back = machine_from_dict(json.loads(text))
            np.testing.assert_array_equal(back.unitary, machine.unitary)
            np.testing.assert_array_equal(back.gammas, machine.gammas)
            np.testing.assert_array_equal(back.branch_phases,
                                          machine.branch_phases)
            assert back.target is machine.target
            assert back.probe_dim == machine.probe_dim


def _pair() -> StateSet:
    return random_independent_set(np.random.default_rng(77), 2, 2,
                                  TargetMap.NOT)


# each builds a fresh instance with the same field values on every call
ARRAY_DATACLASSES = {
    "QuditState": lambda: QuditState([0.6, 0.8j]),
    "StateSet": _pair,
    "GramMatrix": lambda: gram(_pair()),
    "ProbeSpec": lambda: ProbeSpec.phase_vector([0.0, 1.0]),
    "Machine": lambda: synthesize(_pair())[0],
    "ExactRecord": lambda: verify_machine(synthesize(_pair())[0],
                                          _pair()).records[0],
    "GammaSearchResult": lambda: search_gamma(_pair()),
    # equal fields but for the witness probe, which compares by identity
    "FeasibilityVerdict": lambda: check_probabilistic(
        _pair(), 0.1, standard_probe(gram(_pair()))),
}


@pytest.mark.parametrize("make", ARRAY_DATACLASSES.values(),
                         ids=ARRAY_DATACLASSES)
def test_dataclasses_holding_arrays_compare_and_hash(make):
    """``==`` answers (identity for a dataclass with an array field) and
    ``hash`` works, where numpy's elementwise ``==`` used to raise."""
    a, b = make(), make()
    assert a == a and not a == b and a != b
    assert hash(a) == hash(a) and len({a, b, a}) == 2


@pytest.mark.parametrize("real", [True, False], ids=["exact", "general"])
def test_synthesize_builds_one_gram(real, monkeypatch):
    """The real-Gram test and the general path read the Gram that
    ``synthesize`` already holds, whichever module's ``gram`` is called."""
    from qnot import feasibility, optimizer, synthesis
    calls = []

    def counted_gram(state_set):
        calls.append(state_set)
        return gram(state_set)

    for module in (feasibility, optimizer, synthesis):
        monkeypatch.setattr(module, "gram", counted_gram)
    ss = random_set(np.random.default_rng(78), 3, 3, TargetMap.CONJUGATE,
                    real=real)
    machine, report = synthesize(ss)
    assert report.path == ("exact" if real else "general")
    assert calls == [ss]
    assert_all_green(machine, ss)


def test_synthesize_with_builds_one_gram(monkeypatch):
    """The point's verdict and the machine read one Gram."""
    from qnot import feasibility, optimizer, synthesis
    ss = random_independent_set(np.random.default_rng(79), 3, 3,
                                TargetMap.CONJUGATE)
    found = search_gamma(ss, GammaPolicy.COORDINATE)
    calls = []

    def counted_gram(state_set):
        calls.append(state_set)
        return gram(state_set)

    for module in (feasibility, optimizer, synthesis):
        monkeypatch.setattr(module, "gram", counted_gram)
    machine = synthesize_with(ss, 0.9 * found.gammas, found.probe)
    assert calls == [ss]
    assert_all_green(machine, ss)


def _positive_definite():
    ss = random_independent_set(np.random.default_rng(80), 4, 4,
                                TargetMap.CONJUGATE)
    machine, report = synthesize(ss)
    assert report.path == "general" and report.residual <= 1e-12
    return machine, ss


def _edge():
    ss = random_independent_set(np.random.default_rng(81), 3, 3,
                                TargetMap.CONJUGATE)
    found = search_gamma(ss, GammaPolicy.COORDINATE)
    return synthesize_with(ss, found.gammas, found.probe), ss


def _dependent():
    """Seven real qudits of dimension 4 under random global phases: the
    doubled-phase probe gives ``M = (1 - gamma) G`` of rank 4."""
    rng = np.random.default_rng(82)
    ss = StateSet(tuple(QuditState.normalized(
        rng.normal(size=4) * np.exp(2j * np.pi * rng.random()))
        for _ in range(7)), TargetMap.CONJUGATE)
    return synthesize_with(ss, 0.7, standard_probe(gram(ss))), ss


@pytest.mark.parametrize("make, cholesky", [
    (_positive_definite, True), (_edge, False), (_dependent, False)],
    ids=["positive-definite", "coordinate-edge", "dependent"])
def test_failure_amplitudes_on_both_sides(make, cholesky):
    """``L^dag`` where Cholesky factors ``M`` and ``n <= d``; else the top
    ``min(n, d)`` eigenpairs, whose rows are orthogonal.  Either way ``F``
    has at most ``d`` rows and ``F^dag F = M``, up to the negative
    eigenvalue clamped at a search's edge."""
    machine, ss = make()
    n, d = len(ss), ss.dim
    m = constraint_matrix(gram(ss), machine.gammas,
                          ProbeSpec.phase_vector(machine.branch_phases))
    failure = _failure_amplitudes(m, d)
    assert failure.shape == (min(n, d), n)
    if cholesky:
        np.testing.assert_array_equal(failure,
                                      np.linalg.cholesky(m).conj().T)
    else:
        if n <= d:
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.cholesky(m)
        rows = failure @ failure.conj().T
        assert np.abs(rows - np.diag(np.diag(rows))).max() <= 1e-12
    clamped = max(0.0, -smallest_eigenvalue(m))
    assert np.abs(failure.conj().T @ failure - m).max() <= 1e-12 + clamped
    assert clamped <= (0.0 if cholesky else 1e-9 * machine.gammas.min())
    assert_all_green(machine, ss)


def _every_path():
    """``(machine, set)`` from each way a machine is built."""
    rng = np.random.default_rng(90)
    for n, dim in [(2, 2), (3, 3), (3, 5), (4, 4), (6, 8)]:
        ss = random_independent_set(rng, n, dim, TargetMap.CONJUGATE)
        yield synthesize(ss)[0], ss
        for policy in GammaPolicy:
            found = search_gamma(ss, policy)
            yield synthesize_with(ss, found.gammas, found.probe), ss
        real = random_set(rng, n, dim, TargetMap.CONJUGATE, real=True)
        yield synthesize(real)[0], real
    for n, dim in [(3, 3), (5, 3), (7, 4), (6, 2)]:
        # dependent when n > dim
        ss = phased_real_set(rng, n, dim, TargetMap.CONJUGATE)
        probe = standard_probe(gram(ss))
        # gamma = 1 is the probe regime: M = 0, no failure branch
        yield synthesize_with(ss, 1.0, probe), ss
        for policy in GammaPolicy:
            found = search_gamma(ss, policy)
            yield synthesize_with(ss, found.gammas, found.probe), ss


def test_every_machine_acts_on_at_most_two_probe_levels():
    """Exact machines have ``probe_dim`` 1, every other ``probe_dim`` 2;
    ``F`` has at most ``d`` rows and ``F^dag F = M`` up to the clamped
    edge, dependent sets with ``n > d`` included."""
    paths = set()
    for machine, ss in _every_path():
        n, dim = len(ss), ss.dim
        assert_all_green(machine, ss)
        if machine.probe_dim == 1:
            np.testing.assert_array_equal(machine.gammas, np.ones(n))
            paths.add("exact")
            continue
        assert (machine.probe_dim, machine.total_dim) == (2, 2 * dim)
        m = constraint_matrix(gram(ss), machine.gammas,
                              ProbeSpec.phase_vector(machine.branch_phases))
        failure = _failure_amplitudes(m, dim)
        assert failure.shape == (min(n, dim), n)
        clamped = max(0.0, -smallest_eigenvalue(m))
        assert clamped <= 1e-9 * machine.gammas.min()
        assert np.abs(failure.conj().T @ failure - m).max() <= 1e-12 + clamped
        paths.add("dependent" if n > dim else "general")
    assert paths == {"exact", "general", "dependent"}
