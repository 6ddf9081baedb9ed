import dataclasses

import numpy as np
import pytest

from conftest import (
    phased_real_set,
    qubit,
    random_independent_set,
    random_overlapping_pair,
    random_set,
    random_state,
    worked_triple,
)
from oracles import (
    parallel_fit,
    phase_grid_min_residual,
    probe_congruence_loop,
    quadratic_roots,
)
from qnot import (
    GammaPolicy,
    GramMismatch,
    InvalidProbe,
    InvalidProbeGram,
    LinearlyDependentPair,
    ProbeSpec,
    QuditState,
    StateSet,
    TargetMap,
    WrongDimension,
    ZeroOverlap,
    build_exact_unitary,
    build_probe_unitary,
    check_exact_unitary,
    check_exact_with_probe,
    check_probabilistic,
    constraint_matrix,
    gram,
    orthogonal_complement,
    search_gamma,
    solve_dependent_triple,
    standard_probe,
    synthesize_with,
    target_state,
)
from qnot.feasibility import (branch_block, constraint_kernel, efficiencies,
                              point_rule, scaled_constraint)
from qnot.linalg import completion_block, gram_of, psd_sqrt, range_null


def states_for_gram(g, dim, target):
    """Any family of dim-level states realizing the Gram matrix g."""
    vals, vecs = np.linalg.eigh(g)
    factor = np.diag(np.sqrt(np.clip(vals, 0, None))) @ vecs.conj().T
    n = g.shape[0]
    assert dim >= n
    cols = np.zeros((dim, n), dtype=complex)
    cols[:n, :] = factor
    return StateSet(tuple(QuditState.normalized(cols[:, i])
                          for i in range(n)), target)


class TestExactUnitary:
    def test_real_pair_feasible(self):
        ss = StateSet((qubit(1, 0), qubit(1, 1)), TargetMap.NOT)
        assert check_exact_unitary(ss).feasible

    def test_singleton_feasible(self):
        ss = StateSet((qubit(1, 1j),), TargetMap.NOT)
        assert check_exact_unitary(ss).feasible

    def test_complex_pair_infeasible_with_location(self):
        ss = StateSet((qubit(1, 1), qubit(1, 1j)), TargetMap.NOT)
        verdict = check_exact_unitary(ss)
        assert not verdict.feasible
        assert sorted(verdict.violation["indices"]) == [0, 1]
        assert verdict.violation["residual"] == pytest.approx(0.5)

    def test_build_maps_members_to_complements(self):
        rng = np.random.default_rng(51)
        for n in (1, 2, 4):
            ss = random_set(rng, n, 2, TargetMap.NOT, real=True)
            u = build_exact_unitary(ss)
            for s in ss:
                out = u @ s.amps
                tgt = orthogonal_complement(s).amps
                assert abs(np.vdot(tgt, out)) > 1 - 1e-10

    def test_build_rejects_complex_gram(self):
        ss = StateSet((qubit(1, 1), qubit(1, 1j)), TargetMap.NOT)
        with pytest.raises(GramMismatch):
            build_exact_unitary(ss)


class TestExactWithProbe:
    def test_any_overlapping_pair_is_feasible(self):
        rng = np.random.default_rng(52)
        for _ in range(50):
            ss = random_overlapping_pair(rng)
            verdict = check_exact_with_probe(ss)
            assert verdict.feasible
            theta = gram(ss).phases[0, 1]
            expected = np.mod(2 * theta, 2 * np.pi)
            assert verdict.witness.phases[1] == pytest.approx(expected,
                                                              abs=1e-12)

    def test_witness_phase_for_known_pair(self):
        ss = StateSet((qubit(1, 1), qubit(1, 1j)), TargetMap.NOT)
        verdict = check_exact_with_probe(ss)
        assert verdict.feasible
        np.testing.assert_allclose(verdict.witness.phases, [0, np.pi / 2],
                                   atol=1e-12)

    def test_real_triple_feasible(self):
        rng = np.random.default_rng(53)
        ss = random_set(rng, 3, 2, TargetMap.NOT, real=True)
        assert check_exact_with_probe(ss).feasible

    def test_phased_real_sets_feasible(self):
        rng = np.random.default_rng(54)
        for _ in range(20):
            ss = phased_real_set(rng, 4, 3, TargetMap.CONJUGATE)
            try:
                assert check_exact_with_probe(ss).feasible
            except ZeroOverlap:
                pass  # a random real overlap can vanish; the check opts out

    def test_engineered_qutrit_triple_infeasible(self):
        # overlap phases pi/7, pi/3, pi/5 break the congruence:
        # theta_13 - theta_12 - theta_23 = -pi/105 is not a multiple of pi
        t = 0.3
        g = np.array([
            [1, t * np.exp(1j * np.pi / 7), t * np.exp(1j * np.pi / 3)],
            [t * np.exp(-1j * np.pi / 7), 1, t * np.exp(1j * np.pi / 5)],
            [t * np.exp(-1j * np.pi / 3), t * np.exp(-1j * np.pi / 5), 1]])
        ss = states_for_gram(g, 3, TargetMap.CONJUGATE)
        verdict = check_exact_with_probe(ss)
        assert not verdict.feasible
        # the witness fixes r_01 = r_02 = 0, leaving |G_12 - P_12 conj(G_12)|
        # = 2 t |sin(pi/105)|
        assert verdict.violation["indices"] == [1, 2]
        assert verdict.violation["residual"] == pytest.approx(
            2 * t * abs(np.sin(np.pi / 105)), abs=1e-9)
        # independent confirmation: no probe phase pair comes close to
        # compensating the Gram conjugation (1e-3 grid over both phases)
        assert phase_grid_min_residual(g) > 0.005

    def test_zero_overlap_marks_inapplicable(self):
        ss = StateSet((qubit(1, 0), qubit(0, 1)), TargetMap.NOT)
        with pytest.raises(ZeroOverlap):
            check_exact_with_probe(ss)

    def test_witness_compensates_gram_conjugation(self):
        # G_ij == conj(G_ij) e^{i (phi_j - phi_i)} for feasible families
        rng = np.random.default_rng(55)
        for _ in range(20):
            ss = phased_real_set(rng, 3, 2, TargetMap.NOT)
            try:
                verdict = check_exact_with_probe(ss)
            except ZeroOverlap:
                continue
            assert verdict.feasible
            g = gram(ss).matrix
            p = verdict.witness.matrix
            assert np.abs(g - np.conj(g) * p).max() < 1e-8


@pytest.mark.parametrize("family", ["phased", "unphased", "infeasible"])
def test_probe_check_matches_triple_loop(family):
    """Verdict agrees with the plain triple loop; the violation is the worst
    Gram entry, ``2 |G_ij| |sin r_ij|`` with ``r_ij`` the loop's l = 0 term."""
    rng = np.random.default_rng({"phased": 57, "unphased": 58,
                                 "infeasible": 59}[family])
    for _ in range(15):
        n = int(rng.integers(2, 9))
        dim = int(rng.integers(2, 5))
        if family == "phased":
            ss = phased_real_set(rng, n, dim, TargetMap.CONJUGATE)
        elif family == "unphased":
            ss = random_set(rng, n, dim, TargetMap.CONJUGATE, real=True)
        else:
            ss = random_set(rng, n, dim, TargetMap.CONJUGATE)
        try:
            verdict = check_exact_with_probe(ss)
        except ZeroOverlap:
            continue
        gm = gram(ss)
        residual, _ = probe_congruence_loop(gm.phases)
        assert verdict.feasible == (residual <= 1e-8)
        if verdict.feasible:
            continue
        th = gm.phases
        r = th[0][None, :] - th[0][:, None] - th
        dev = 2 * gm.magnitudes * np.abs(np.sin(r))
        i, j = verdict.violation["indices"]
        assert dev[i, j] == pytest.approx(dev.max(), rel=1e-12)
        assert verdict.violation["residual"] == pytest.approx(dev.max(),
                                                              rel=1e-12)


class TestBuildProbeUnitary:
    def test_maps_with_phase_and_unit_success(self):
        rng = np.random.default_rng(56)
        for _ in range(20):
            ss = random_overlapping_pair(rng)
            witness = check_exact_with_probe(ss).witness
            u = build_probe_unitary(ss, witness)
            d = ss.dim
            e0 = np.array([1.0, 0.0])
            for k, (s, t) in enumerate(
                    zip(ss, (target_state(s, ss.target) for s in ss))):
                out = u @ np.kron(s.amps, e0)
                want = np.exp(1j * witness.phases[k]) * np.kron(t.amps, e0)
                assert np.linalg.norm(out - want) < 1e-8

    def test_infeasible_family_raises_gram_mismatch(self):
        ss = worked_triple(0.3)  # congruence violated for this phase
        assert not check_exact_with_probe(ss).feasible
        with pytest.raises(GramMismatch):
            build_probe_unitary(ss, ProbeSpec.phase_vector([0.0, 0.3, 0.0]))

    def test_full_gram_probe_rejected(self):
        ss = StateSet((qubit(1, 1), qubit(1, 1j)), TargetMap.NOT)
        phases = check_exact_with_probe(ss).witness.phases
        full = ProbeSpec.full_gram(
            np.outer(np.exp(-1j * phases), np.exp(1j * phases)))
        with pytest.raises(InvalidProbe):
            build_probe_unitary(ss, full)


# Near-real qubit triple: every triple residual of the congruence is below
# 1e-8, but the witness leaves |G_12 - P_12 conj(G_12)| = 1.743e-8, past the
# builder's Gram tolerance.
NEAR_EDGE_TRIPLE = [[0.8930931080787534, 0.44987187098354126],
                    [0.5590762194004723, 0.8291162650080356],
                    [0.5089120098988815, 0.8608185442825218 + 2.9478664402239487e-08j]]


def near_edge_triple(rng) -> StateSet:
    """Real qubit triple with an imaginary part of at most 4e-8 added."""
    theta = rng.uniform(0.0, np.pi, 3)
    amps = np.stack([np.cos(theta), np.sin(theta)], axis=1).astype(complex)
    amps[2, 1] += 1j * rng.uniform(0.0, 4e-8)
    return StateSet(tuple(QuditState.normalized(a) for a in amps), TargetMap.NOT)


class TestProbeVerdictBuilds:
    def test_near_edge_counterexample_is_infeasible(self):
        ss = StateSet.from_amplitudes(np.array(NEAR_EDGE_TRIPLE), TargetMap.NOT)
        verdict = check_exact_with_probe(ss)
        assert not verdict.feasible
        assert verdict.violation["indices"] == [1, 2]
        assert verdict.violation["residual"] == pytest.approx(1.743e-8, rel=1e-3)

    def test_every_feasible_verdict_builds(self):
        rng = np.random.default_rng(1)
        verdicts = [(ss, check_exact_with_probe(ss))
                    for ss in (near_edge_triple(rng) for _ in range(300))]
        feasible = [(ss, v.witness) for ss, v in verdicts if v.feasible]
        assert 0 < len(feasible) < len(verdicts)
        for ss, witness in feasible:
            build_probe_unitary(ss, witness)


@pytest.mark.parametrize("builder", ["exact", "probe", "probabilistic"])
def test_branch_layout(builder):
    """U (psi_i x |0>) = sqrt(gamma_i) e^{i phi_i} t_i x |0>
    + sum_j C*_ij |j> x |1>, for every machine builder."""
    rng = np.random.default_rng(62)
    n, dim = 3, 3
    if builder == "exact":
        ss = random_set(rng, n, dim, TargetMap.CONJUGATE, real=True)
        u, p = build_exact_unitary(ss), 1
        gammas, phases, c = np.ones(n), np.zeros(n), np.zeros((n, 0))
    elif builder == "probe":
        ss = phased_real_set(rng, n, dim, TargetMap.CONJUGATE)
        witness = check_exact_with_probe(ss).witness
        u, p = build_probe_unitary(ss, witness), 2
        gammas, phases, c = np.ones(n), witness.phases, np.zeros((n, 1))
    else:
        ss = random_independent_set(rng, n, dim, TargetMap.CONJUGATE)
        probe = standard_probe(gram(ss))
        gammas = 0.9 * search_gamma(ss, GammaPolicy.COORDINATE, probe).gammas
        machine = synthesize_with(ss, gammas, probe)
        assert machine.probe_dim == 2
        u, p, phases = machine.unitary, 2, probe.phases
        psi = ss.matrix()
        g = psi.conj().T @ psi
        s = np.sqrt(gammas) * np.exp(1j * phases)
        m = g - np.conj(s)[:, None] * np.conj(g) * s
        # positive definite at 0.9 of the search's point: M = C C^dag
        c = np.linalg.cholesky(m)
    for i, (s_i, t_i) in enumerate(
            zip(ss, (target_state(s, ss.target) for s in ss))):
        out = (u @ np.kron(s_i.amps, np.eye(p)[0])).reshape(dim, p)
        want = np.zeros((dim, p), complex)
        want[:, 0] = np.sqrt(gammas[i]) * np.exp(1j * phases[i]) * t_i.amps
        want[:c.shape[1], 1:] = np.conj(c[i])[:, None]
        np.testing.assert_allclose(out, want, atol=1e-10)


class TestProbeSpec:
    def test_phase_vector_pins_first_phase(self):
        p = ProbeSpec.phase_vector([0.4, 1.0, 2.0])
        np.testing.assert_allclose(p.phases, [0.0, 0.6, 1.6], atol=1e-12)

    def test_full_gram_validation(self):
        with pytest.raises(InvalidProbeGram):
            ProbeSpec.full_gram(np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(InvalidProbeGram):
            ProbeSpec.full_gram(np.array([[2.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(InvalidProbeGram):
            ProbeSpec.full_gram(np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("matrix", [
        [[1.0, np.nan], [np.nan, 1.0]],
        [[np.nan, 0.0], [0.0, 1.0]],
        # inf - inf in the Hermitian test warns before it refuses
        pytest.param([[1.0, np.inf], [np.inf, 1.0]],
                     marks=pytest.mark.filterwarnings(
                         "ignore:invalid value encountered in subtract"
                         ":RuntimeWarning"))])
    def test_full_gram_refuses_non_finite_entries(self, matrix):
        with pytest.raises(InvalidProbeGram):
            ProbeSpec.full_gram(matrix)

    def test_full_gram_refuses_empty_matrix(self):
        with pytest.raises(InvalidProbeGram, match="nonempty"):
            ProbeSpec.full_gram(np.zeros((0, 0)))

    def test_fields_are_matrix_and_phases(self):
        phased = ProbeSpec.phase_vector([0.0, 1.0])
        full = ProbeSpec.full_gram(np.eye(2))
        assert full.phases is None and full.n == phased.n == 2
        assert [f.name for f in dataclasses.fields(ProbeSpec)] == [
            "matrix", "phases"]

    def test_gram_matrix_of_phase_vector(self):
        p = ProbeSpec.phase_vector([0.0, np.pi / 2])
        g = p.matrix
        assert g[0, 1] == pytest.approx(1j)
        assert np.linalg.eigvalsh(g).min() > -1e-12


class TestEfficiencyMatrix:
    """The diagonal ``Gamma`` of efficiencies, held as its vector."""

    def test_bounds(self):
        with pytest.raises(ValueError):
            efficiencies(np.array([0.0, 0.5]), 2)
        with pytest.raises(ValueError):
            efficiencies(np.array([1.5]), 1)
        assert efficiencies(0.5, 3).tolist() == [0.5] * 3


@pytest.mark.parametrize("gammas", [[np.nan, 0.5], [0.5, np.nan],
                                    [np.nan, np.nan]])
def test_efficiencies_must_not_be_nan(gammas):
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        efficiencies(np.array(gammas), 2)


@pytest.mark.parametrize("phases", [[np.nan, 0.0], [0.0, np.nan],
                                    [np.inf, 0.0], [0.0, -np.inf]])
def test_probe_phases_must_be_finite(phases):
    with pytest.raises(InvalidProbe, match="finite"):
        ProbeSpec.phase_vector(phases)


def test_non_finite_efficiencies_reach_no_verdict_or_machine():
    ss = StateSet((QuditState(np.array([1.0, 0.0])),
                   QuditState(np.array([0.5 + 0.5j, 0.5 ** 0.5]))),
                  TargetMap.NOT)
    probe = standard_probe(gram(ss))
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        check_probabilistic(ss, [np.nan, np.nan], probe)
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        synthesize_with(ss, [np.nan, np.nan], probe)


@pytest.mark.parametrize("n", [3, 4, 10])
def test_a_stack_of_points_gets_the_answers_of_single_calls(n):
    """An ``(m, n)`` stack gives, bit for bit, the verdicts and lambda_min
    of m single calls; points straddle the EQUAL edge, so both verdicts
    occur.  One point still gives a Python bool and float."""
    rng = np.random.default_rng(80 + n)
    ss = random_independent_set(rng, n, n, TargetMap.CONJUGATE)
    g = gram(ss).matrix
    k = constraint_kernel(g, standard_probe(gram(ss)))
    edge = search_gamma(ss).gammas
    points = np.minimum(edge * rng.uniform(0.98, 1.02, (60, n)), 1.0)
    ok, lam = point_rule(g, k, points)
    assert ok.shape == lam.shape == (60,)
    assert 0 < ok.sum() < 60
    singles = [point_rule(g, k, p) for p in points]
    assert all(type(o) is bool and type(x) is float for o, x in singles)
    assert [o for o, _ in singles] == ok.tolist()
    assert [x.hex() for _, x in singles] == [float(x).hex() for x in lam]
    stacked = scaled_constraint(g, k, points.reshape(3, 20, n))
    assert stacked.shape == (3, 20, n, n)
    assert all(np.array_equal(m, scaled_constraint(g, k, p)) for m, p in
               zip(stacked.reshape(60, n, n), points))


class TestProbabilistic:
    def test_vanishing_efficiencies_always_feasible(self):
        # on an independent family the constraint matrix tends to the
        # positive definite Gram, so tiny efficiencies are always accepted
        rng = np.random.default_rng(57)
        for _ in range(20):
            ss = random_independent_set(rng, 3, 3, TargetMap.CONJUGATE)
            probe = ProbeSpec.phase_vector(rng.uniform(0, 2 * np.pi, 3))
            verdict = check_probabilistic(ss, np.full(3, 1e-10), probe)
            assert verdict.feasible

    def test_vanishing_efficiencies_refused_on_dependent_families(self):
        """Three qubit states are dependent: for v in null(G),
        v^dag M v = -||T(w * v)||^2 at any efficiencies, so a probe that
        leaves T(w * v) nonzero is refused however small gamma is.  The
        lambda_min test alone accepted all 20, and every machine built
        from them failed verification."""
        rng = np.random.default_rng(57)
        for _ in range(20):
            ss = random_set(rng, 3, 2, TargetMap.NOT)
            probe = ProbeSpec.phase_vector(rng.uniform(0, 2 * np.pi, 3))
            verdict = check_probabilistic(ss, np.full(3, 1e-10), probe)
            assert verdict.lambda_min >= -1e-9
            assert not verdict.feasible
            assert verdict.violation["null_miss"] > 1e-8

    def test_refuses_an_efficiency_within_the_tolerance(self):
        """{|0>, |1>, |+i>} with the doubled-phase probe: lambda_min(M) =
        -9.9999996e-10 passes the test at -1e-9, but M misses zero on the
        null space of G by 1, and no machine exists there."""
        s = 1.0 / np.sqrt(2.0)
        ss = StateSet((QuditState([1.0, 0.0]), QuditState([0.0, 1.0]),
                       QuditState([s, 1j * s])), TargetMap.CONJUGATE)
        verdict = check_probabilistic(ss, 1.00000002722922e-9,
                                      standard_probe(gram(ss)))
        assert verdict.lambda_min >= -1e-9
        assert not verdict.feasible
        assert verdict.violation["null_miss"] == pytest.approx(1.0)

    def test_exact_regime_embeds_at_unit_efficiency(self):
        # probe-feasible family + witness probe => gamma = 1 feasible with
        # the constraint matrix collapsing to zero
        rng = np.random.default_rng(58)
        for _ in range(10):
            ss = random_overlapping_pair(rng)
            witness = check_exact_with_probe(ss).witness
            m = constraint_matrix(gram(ss), np.ones(2), witness)
            assert np.abs(m).max() < 1e-10
            assert check_probabilistic(ss, np.ones(2), witness).feasible

    def test_real_gram_perfect_with_trivial_probe(self):
        rng = np.random.default_rng(59)
        ss = random_set(rng, 2, 2, TargetMap.NOT, real=True)
        probe = ProbeSpec.phase_vector(np.zeros(2))
        assert check_probabilistic(ss, np.ones(2), probe).feasible

    def test_worked_triple_boundary_matches_inequality(self):
        # with branch phases (0, phi, 0) the triple is feasible exactly on
        # the gamma-interval cut out by 1/2 - 2g + g^2/2 + g sin(phi) >= 0
        for phi in (0.0, 0.9, np.pi / 2):
            ss = worked_triple(phi)
            probe = ProbeSpec.phase_vector([0.0, phi, 0.0])
            roots = quadratic_roots(0.5, -2.0 + np.sin(phi), 0.5)
            in_range = [r for r in roots if 0 < r <= 1]
            bound = min(in_range) if in_range else 1.0
            ok = check_probabilistic(ss, np.full(3, bound - 1e-9), probe)
            assert ok.feasible
            if bound < 1:
                bad = check_probabilistic(ss, np.full(3, bound + 1e-6), probe)
                assert not bad.feasible
                assert bad.violation["lambda_min"] < 0

    def test_scalar_scaling_preserves_feasibility(self):
        rng = np.random.default_rng(60)
        checked = 0
        for _ in range(20):
            ss = random_independent_set(rng, 3, 3, TargetMap.CONJUGATE)
            probe = ProbeSpec.phase_vector(rng.uniform(0, 2 * np.pi, 3))
            gammas = rng.uniform(0.01, 0.5, 3)
            if not check_probabilistic(ss, gammas, probe).feasible:
                continue
            checked += 1
            for s in (0.9, 0.5, 0.1):
                assert check_probabilistic(ss, s * gammas, probe).feasible
        assert checked >= 5


class TestDependentTriple:
    def test_repeated_state_forces_same_gamma(self):
        rng = np.random.default_rng(61)
        s1 = random_state(rng, 2)
        s2 = random_state(rng, 2)
        got = solve_dependent_triple(s1, s2, s1, 0.7, 0.4, 1.3)
        assert got is not None
        gamma3, chi = got
        assert gamma3 == pytest.approx(0.7, abs=1e-12)
        assert chi == pytest.approx(0.0, abs=1e-12)

    def test_worked_family_gets_equal_gamma_and_zero_phase(self):
        rng = np.random.default_rng(62)
        for _ in range(10):
            phi = rng.uniform(0, 2 * np.pi)
            gamma = rng.uniform(0.1, 1.0)
            ss = worked_triple(phi)
            got = solve_dependent_triple(*ss.states, gamma, gamma, phi)
            assert got is not None
            gamma3, chi = got
            assert gamma3 == pytest.approx(gamma, abs=1e-10)
            assert chi == pytest.approx(0.0, abs=1e-10)

    def test_matches_least_squares_oracle(self):
        rng = np.random.default_rng(63)
        hits = 0
        for _ in range(200):
            s1, s2 = random_state(rng, 2), random_state(rng, 2)
            s3 = random_state(rng, 2)
            gamma = rng.uniform(0.1, 1.0)
            # equal efficiencies with the phase that aligns the branches
            basis = np.stack([s1.amps, s2.amps], axis=1)
            alpha, beta = np.linalg.solve(basis, s3.amps)
            phi = float(np.mod(2 * (np.angle(alpha) - np.angle(beta)),
                               2 * np.pi))
            got = solve_dependent_triple(s1, s2, s3, gamma, gamma, phi)
            v = (alpha * np.sqrt(gamma) * orthogonal_complement(s1).amps
                 + beta * np.exp(1j * phi) * np.sqrt(gamma)
                 * orthogonal_complement(s2).amps)
            lam, resid = parallel_fit(v, orthogonal_complement(s3).amps)
            assert resid < 1e-8
            assert got is not None
            assert got[0] == pytest.approx(abs(lam) ** 2, abs=1e-10)
            assert got[1] == pytest.approx(np.angle(lam), abs=1e-8)
            hits += 1
        assert hits == 200

    def test_generic_unequal_gammas_fail(self):
        # parallel alignment forces equal efficiencies, so mismatched ones
        # must come back empty (checked against the least-squares fit)
        rng = np.random.default_rng(64)
        for _ in range(50):
            s1, s2, s3 = (random_state(rng, 2) for _ in range(3))
            got = solve_dependent_triple(s1, s2, s3, 0.9, 0.3,
                                         rng.uniform(0, 2 * np.pi))
            assert got is None

    def test_parallel_pair_rejected(self):
        s = qubit(1, 1)
        with pytest.raises(LinearlyDependentPair):
            solve_dependent_triple(s, QuditState(-s.amps), s, 1.0, 1.0, 0.0)

    def test_near_parallel_pair_refused_as_range_null_calls_it(self):
        """sigma_min of the pair is 7e-7: far above the old SVD cut at
        1e-9, but its Gram's null space is what the rank decision sees."""
        s1, s2 = qubit(1, 0), qubit(1, 1e-6)
        pair = np.stack([s1.amps, s2.amps], axis=1)
        assert np.linalg.svd(pair, compute_uv=False)[-1] > 1e-7
        assert range_null(gram_of(pair))[1].shape[1] == 1
        with pytest.raises(LinearlyDependentPair):
            solve_dependent_triple(s1, s2, qubit(1, 2), 0.5, 0.5, 0.0)

    @pytest.mark.parametrize("phase", [np.nan, np.inf, -np.inf])
    def test_non_finite_phase_refused(self, phase):
        s1, s2 = qubit(1, 0), qubit(1, 1)
        s3 = qubit(1, 2)
        with pytest.raises(ValueError, match="phase"):
            solve_dependent_triple(s1, s2, s3, 0.5, 0.5, phase)

    def test_gamma_bounds_validated(self):
        s1, s2 = qubit(1, 0), qubit(1, 1)
        with pytest.raises(ValueError):
            solve_dependent_triple(s1, s2, s1, 0.0, 1.0, 0.0)

    def test_qutrits_refused(self):
        s = QuditState(np.array([1.0, 0.0, 0.0]))
        with pytest.raises(WrongDimension):
            solve_dependent_triple(s, s, s, 0.5, 0.5, 0.0)

    def test_branch_off_the_target_line_has_no_solution(self):
        # with these efficiencies and phase, v leaves s3_perp's span by 0.14
        s1, s2, s3 = qubit(1, 0), qubit(1, 1), qubit(1, 2)
        assert solve_dependent_triple(s1, s2, s3, 0.5, 0.9, 0.3) is None


def _full_branches(ss, weights, probe_dim, failure):
    """The branches on all ``D = d probe_dim`` joint rows, zeros included:
    the ``(system, probe, member)`` construction ``branch_block`` replaced."""
    d, n = ss.dim, len(ss)
    ins = np.zeros((d, probe_dim, n), complex)
    ins[:, 0, :] = ss.matrix()
    outs = np.zeros((d, probe_dim, n), complex)
    outs[:, 0, :] = ss.target_matrix() * weights
    if failure is not None:
        outs[:failure.shape[0], 1, :] = failure
    return ins.reshape(d * probe_dim, n), outs.reshape(d * probe_dim, n)


def _padded(ss):
    """The set with a zero amplitude appended to every member."""
    return StateSet(tuple(QuditState(np.r_[s.amps, 0.0]) for s in ss),
                    ss.target)


def _exact_branches(rng, n, dim):
    ss = random_set(rng, n, dim, TargetMap.CONJUGATE, real=True)
    return ss, 1.0, 1, None


def _probe_branches(rng, n, probe_dim):
    """A NOT set with the witness phases; a ``probe_dim`` above 2 spaces
    the rows (i, 0) further apart, with no failure."""
    phases = np.pi * rng.random(n)
    ss = StateSet(tuple(QuditState(random_state(rng, 2, real=True).amps
                                   * np.exp(1j * ph)) for ph in phases),
                  TargetMap.NOT)
    witness = check_exact_with_probe(ss).witness
    return ss, np.exp(1j * witness.phases), probe_dim, None


def _general_branches(rng, n, dim):
    """``n <= d`` failure rows from the PSD square root of ``M``."""
    ss = random_independent_set(rng, n, dim, TargetMap.CONJUGATE)
    gammas = np.full(n, 0.5 * search_gamma(ss).gammas.min())
    probe = standard_probe(gram(ss))
    c = psd_sqrt(constraint_matrix(gram(ss), gammas, probe))
    return (ss, np.sqrt(gammas) * np.exp(1j * probe.phases), 2, np.conj(c).T)


def _dependent_branches(rng, n, dim):
    """Real states under random phases, ``n > d``: the doubled-phase probe
    gives ``M = (1 - gamma) G``, so ``F = sqrt(1 - gamma) Psi`` has ``d``
    rows."""
    ss = phased_real_set(rng, n, dim, TargetMap.CONJUGATE)
    probe, gamma = standard_probe(gram(ss)), 0.6
    return (ss, np.sqrt(gamma) * np.exp(1j * probe.phases), 2,
            np.sqrt(1.0 - gamma) * ss.matrix())


BRANCHES = {
    "exact-3x4": lambda rng: _exact_branches(rng, 3, 4),
    "exact-6x3": lambda rng: _exact_branches(rng, 6, 3),
    "not-probe-4": lambda rng: _probe_branches(rng, 4, 2),
    "not-probe-on-n+1": lambda rng: _probe_branches(rng, 3, 4),
    "general-3x3": lambda rng: _general_branches(rng, 3, 3),
    "general-2x5": lambda rng: _general_branches(rng, 2, 5),
    "general-5x5": lambda rng: _general_branches(rng, 5, 5),
    "dependent-5x3": lambda rng: _dependent_branches(rng, 5, 3),
}


@pytest.mark.parametrize("make", BRANCHES.values(), ids=BRANCHES)
@pytest.mark.parametrize("pad", [False, True], ids=["plain", "padded"])
def test_branch_block_is_the_completion_of_the_full_branches(make, pad):
    """Only rows (i, 0) and (j, 1) are built, and the result is bit for bit
    the completion of all ``D`` rows, whose untouched rows are zero."""
    ss, weights, probe_dim, failure = make(np.random.default_rng(61))
    if pad and ss.target is TargetMap.NOT:
        # a qubit cannot be padded: a member with a zero amplitude instead
        zero = QuditState(np.array([0.0, np.exp(0.3j)]))
        ss = StateSet((zero, *ss.states[1:]), ss.target)
        weights = np.exp(1j * check_exact_with_probe(ss).witness.phases)
    elif pad:
        # the Gram, and so the failure branches, stay those of the set
        ss = _padded(ss)
    support, block = branch_block(ss, weights, probe_dim, failure)
    full_support, full_block = completion_block(
        *_full_branches(ss, weights, probe_dim, failure))
    np.testing.assert_array_equal(support, full_support)
    np.testing.assert_array_equal(block, full_block)
    u = np.eye(ss.dim * probe_dim, dtype=complex)
    u[np.ix_(support, support)] = block
    ins, outs = _full_branches(ss, weights, probe_dim, failure)
    assert np.abs(u @ ins - outs).max() < 1e-12
