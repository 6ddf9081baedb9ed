import json

import numpy as np
import pytest

from conftest import (
    near_dependent_triple,
    phased_real_set,
    qubit,
    random_independent_set,
    random_near_dependent_triple,
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
    QnotError,
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
    unitary_completion,
    verify_machine,
)
from qnot.linalg import (GRAM_TOL, _cross_svd, gram_miss, gram_of, null_count,
                         range_null, smallest_eigenvalue)
from qnot.serialize import dumps, machine_from_dict, machine_to_dict
from qnot.synthesis import _dilation


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


def _failure_branches(machine, ss):
    """``F``: ``U (psi_i x |0>)`` on probe level 1, ``d x n``."""
    d, n = ss.dim, len(ss)
    ins = np.zeros((d, 2, n), complex)
    ins[:, 0] = ss.matrix()
    return (machine.unitary @ ins.reshape(2 * d, n)).reshape(d, 2, n)[:, 1]


def _check_failure_branches(machine, ss):
    """``F`` on the first ``rank G`` rows, ``F^dag F = M`` up to the
    negative eigenvalue clamped at a search's edge, which the point rule
    bounds; returns that clamp."""
    m = constraint_matrix(gram(ss), machine.gammas,
                          ProbeSpec.phase_vector(machine.branch_phases))
    failure = _failure_branches(machine, ss)
    assert not failure[range_null(gram(ss).matrix)[0].shape[1]:].any()
    clamped = max(0.0, -smallest_eigenvalue(m))
    assert clamped <= 1e-9 * machine.gammas.min()
    assert np.abs(failure.conj().T @ failure - m).max() <= 1e-12 + clamped
    return clamped


@pytest.mark.parametrize("make, definite", [
    (_positive_definite, True), (_edge, False), (_dependent, False)],
    ids=["positive-definite", "coordinate-edge", "dependent"])
def test_failure_amplitudes_on_both_sides(make, definite):
    """Inside the point rule's edge and at it, the failure branches ``F =
    C V_a^dag Psi`` sit on the first ``rank G <= min(n, d)`` rows of probe
    level 1 with ``F^dag F = M``, up to the negative eigenvalue clamped at
    the edge, and the machine stays unitary to rounding."""
    machine, ss = make()
    clamped = _check_failure_branches(machine, ss)
    if definite:
        assert clamped == 0.0
    assert machine.unitarity_error() <= 1e-13
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
    ``F`` has at most ``rank G <= d`` rows and ``F^dag F = M`` up to the
    clamped edge, dependent sets with ``n > d`` included."""
    paths = set()
    for machine, ss in _every_path():
        n, dim = len(ss), ss.dim
        assert_all_green(machine, ss)
        if machine.probe_dim == 1:
            np.testing.assert_array_equal(machine.gammas, np.ones(n))
            paths.add("exact")
            continue
        assert (machine.probe_dim, machine.total_dim) == (2, 2 * dim)
        _check_failure_branches(machine, ss)
        paths.add("dependent" if n > dim else "general")
    assert paths == {"exact", "general", "dependent"}


def _near_dependent_triple(rng, eps):
    """Conjugate qutrit triple whose third member lies ``eps`` (relative)
    off the span of the first two."""
    x = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    mix = x @ (rng.normal(size=2) + 1j * rng.normal(size=2))
    noise = rng.normal(size=3) + 1j * rng.normal(size=3)
    third = mix + eps * np.linalg.norm(mix) * noise / np.linalg.norm(noise)
    return StateSet(tuple(QuditState.normalized(v) for v in (*x.T, third)),
                    TargetMap.CONJUGATE)


def _clipped_alone_miss(ss, found):
    """The Gram miss of the CS dilation with ``S`` clipped at 1 and ``W``
    left as designed, and ``A``'s largest singular value."""
    g = gram(ss).matrix
    vals, vecs = np.linalg.eigh(g)
    b, lam = vecs[:, null_count(vals):], vals[null_count(vals):]
    w = ss.target_matrix() * (np.sqrt(found.gammas)
                              * np.exp(1j * found.probe.phases))
    svd = _cross_svd((ss.matrix() @ b) / np.sqrt(lam), (w @ b) / np.sqrt(lam))
    fail_in = _dilation(*svd, lam.size)[1]
    return gram_miss(g, gram_of(w) + gram_of(fail_in @ ss.matrix())), svd[2][0]


@pytest.mark.parametrize("policy", list(GammaPolicy), ids=lambda p: p.value)
def test_edge_point_builds_where_clipping_alone_misses(policy):
    """Set 76 of a seeded near-dependent draw: lambda_min(G) = 1.13e-5 and
    at gamma = 0.153 lambda_min(M) = -1.5e-10, inside the point rule's
    slack, so the success map's largest singular value is 1 + 5.9e-6.
    Clipping it alone misses the Gram by 5.1e-7; moving ``W`` to the Gram
    of ``G - M_+`` first builds a machine that verifies."""
    rng = np.random.default_rng(5)
    ss = [random_near_dependent_triple(rng) for _ in range(77)][76]
    found = search_gamma(ss, policy)
    m = constraint_matrix(gram(ss), found.gammas, found.probe)
    assert -1e-9 * found.gammas.min() <= smallest_eigenvalue(m) < 0.0
    miss, s_max = _clipped_alone_miss(ss, found)
    assert s_max > 1.0
    assert miss is not None and miss[2] > 50 * GRAM_TOL
    machine = synthesize_with(ss, found.gammas, found.probe)
    report = assert_all_green(machine, ss)
    assert np.abs(report.success_probs - found.gammas).max() <= 1e-9
    assert 1.0 - report.fidelities.min() <= 1e-12
    _check_failure_branches(machine, ss)


def _capped_member_set(seed):
    """|0> beside a complex qutrit triple on the other three levels: the
    first member is orthogonal to the rest, so COORDINATE caps it at 1."""
    inner = random_independent_set(np.random.default_rng(seed), 3, 3,
                                   TargetMap.CONJUGATE)
    return StateSet((QuditState(np.eye(4)[0]),) + tuple(
        QuditState(np.r_[0.0, s.amps]) for s in inner.states),
        TargetMap.CONJUGATE)


@pytest.mark.parametrize("make, policy", [
    (lambda: random_independent_set(np.random.default_rng(31), 4, 4,
                                    TargetMap.CONJUGATE), GammaPolicy.EQUAL),
    (lambda: _capped_member_set(30), GammaPolicy.COORDINATE)],
    ids=["equal-edge", "coordinate-capped"])
def test_machines_with_a_singular_value_at_one(make, policy):
    """An EQUAL edge point and a COORDINATE point with a member at gamma =
    1 put a singular value of the success map at 1, where ``C`` vanishes;
    the CS block stays unitary to rounding there."""
    ss = make()
    found = search_gamma(ss, policy)
    if policy is GammaPolicy.COORDINATE:
        assert found.gammas[0] == 1.0 and found.gammas[1:].max() < 1.0
    machine = synthesize_with(ss, found.gammas, found.probe)
    assert machine.unitarity_error() <= 1e-13
    assert_all_green(machine, ss)


def test_near_dependent_triples_build_at_every_certified_point():
    """Conjugate qutrit triples 1e-2 ... 1e-5 off dependence (40 per eps),
    where the whitening ``Lambda^{-1/2}`` of the success map is largest:
    every point a search certifies builds a machine that verifies, with
    ``1 - F`` and ``|p - gamma|`` at most 1e-9 on every member, also where
    the edge point's branches are repaired (``_clamp_excess``)."""
    rng = np.random.default_rng(21)
    certified = 0
    for eps in (1e-2, 1e-3, 1e-4, 1e-5):
        for _ in range(40):
            ss = _near_dependent_triple(rng, eps)
            for policy in GammaPolicy:
                try:
                    found = search_gamma(ss, policy)
                except QnotError:
                    continue
                machine = synthesize_with(ss, found.gammas, found.probe)
                assert machine.unitarity_error() <= 1e-13
                report = assert_all_green(machine, ss)
                assert (1.0 - report.fidelities).max() <= 1e-9
                assert np.abs(report.success_probs
                              - machine.gammas).max() <= 1e-9
                certified += 1
    assert certified >= 200


def _requested(ss):
    """``synthesize_with`` at a point chosen before the call."""
    gammas = 0.5 * search_gamma(ss).gammas.min()
    probe = standard_probe(gram(ss))
    return lambda: synthesize_with(ss, gammas, probe)


@pytest.mark.parametrize("prepare, eighs", [
    (lambda ss: lambda: synthesize(ss)[0], 1), (_requested, 1)],
    ids=["synthesize-general", "synthesize_with"])
def test_probabilistic_machines_take_no_completion(monkeypatch, prepare,
                                                   eighs):
    """The general path of ``synthesize`` builds from the one ``eigh`` of
    ``G`` it takes for epsilon, and ``synthesize_with`` from the one its
    check takes; neither calls ``linalg.unitary_completion`` under any
    name."""
    ss = random_independent_set(np.random.default_rng(62), 3, 3,
                                TargetMap.CONJUGATE)
    calls = {"completion": 0, "eigh": 0}
    eigh = np.linalg.eigh

    def counted_eigh(*args, **kwargs):
        calls["eigh"] += 1
        return eigh(*args, **kwargs)

    def counted_completion(*args):
        calls["completion"] += 1
        return unitary_completion(*args)

    build = prepare(ss)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    for where in ("qnot", "qnot.linalg", "qnot.feasibility", "qnot.synthesis"):
        monkeypatch.setattr(f"{where}.unitary_completion", counted_completion,
                            raising=False)
    machine = build()
    assert machine.probe_dim == 2
    assert calls == {"completion": 0, "eigh": eighs}
