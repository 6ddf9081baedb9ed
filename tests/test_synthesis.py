import json

import numpy as np
import pytest

from conftest import (
    near_dependent_triple,
    qubit,
    random_independent_set,
    random_overlapping_pair,
    random_set,
    worked_triple,
)
from oracles import quadratic_roots
from qnot import (
    EfficiencyMatrix,
    GammaPolicy,
    InfeasibleGamma,
    InvalidProbe,
    LinearlyDependent,
    ProbeSpec,
    QuditState,
    StateSet,
    TargetMap,
    check_probabilistic,
    gram,
    search_gamma,
    solve_dependent_triple,
    standard_probe,
    synthesize,
    synthesize_with,
    verify_machine,
)
from qnot.serialize import dumps, machine_from_dict, machine_to_dict


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
        assert machine.probe_dim == 4
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

    The search stops on the edge lambda_min = -tol, so a second PSD test
    in other arithmetic rejected many of these points.
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
    "GramMatrix": lambda: gram(_pair()),
    "ProbeSpec": lambda: ProbeSpec.phase_vector([0.0, 1.0]),
    "EfficiencyMatrix": lambda: EfficiencyMatrix([0.5, 0.25]),
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
