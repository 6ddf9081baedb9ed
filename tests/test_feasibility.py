import dataclasses
import functools

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
    forest_witness,
    great_circle,
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
    Machine,
    NoFeasiblePoint,
    ProbeSpec,
    QuditState,
    StateSet,
    TargetMap,
    WrongDimension,
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
    synthesize,
    synthesize_with,
    target_state,
    unitary_completion,
    verify_machine,
)
from qnot.feasibility import (_exact, branch_unitary, constraint_kernel,
                              efficiencies, point_rule, scaled_constraint)
from qnot.linalg import GRAM_TOL, gram_of, psd_sqrt, range_null


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
        assert verdict.violation["residual"] == pytest.approx(1.0)

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


def near_real_pair() -> StateSet:
    """Real qubits at angles 0.2 and 1.1, the second's |1> amplitude turned
    so that max |Im G| = 4e-9: 8e-9 = max |G - conj(G)|, inside GRAM_TOL."""
    theta = np.array([0.2, 1.1])
    amps = np.stack([np.cos(theta), np.sin(theta)], axis=1).astype(complex)
    amps[1, 1] *= np.exp(1j * 4e-9 / (np.sin(0.2) * np.sin(1.1)))
    return StateSet.from_amplitudes(amps, TargetMap.NOT)


def test_near_real_pair_is_exact_as_its_builder_says():
    """The plain verdict was refused at 1e-9 on |Im G| while the builder
    built the pair, and synthesize then took the general path at 0.233."""
    ss = near_real_pair()
    assert np.abs(gram(ss).matrix.imag).max() == pytest.approx(4e-9, rel=1e-6)
    assert check_exact_unitary(ss).feasible
    build_exact_unitary(ss)
    machine, report = synthesize(ss)
    assert (report.path, report.epsilon) == ("exact", 1.0)
    assert machine.gammas.tolist() == [1.0, 1.0]
    assert verify_machine(machine, ss).all_ok


def _exact_deviation(ss: StateSet, probe) -> float:
    """``max |G - K|`` of the exact regime with ``probe`` (None: plain)."""
    g = gram(ss).matrix
    k = np.conj(g) if probe is None else constraint_kernel(g, probe)
    return float(np.abs(g - k).max())


def _at_deviation(rng, regime, target):
    """``scale -> (set, witness)`` whose exact deviation is ``scale *
    GRAM_TOL``, the witness None for the plain regimes: a real set (phased
    per state for the probe regime, turned by one random unitary for
    "rotated") with the last state's second amplitude turned by a phase
    fitted in the linear regime."""
    n, dim = 3, 2 if target is TargetMap.NOT else 3
    if regime == "probe":
        base = phased_real_set(rng, n, dim, target)
    else:
        base = random_set(rng, n, dim, target, real=True)
    if regime == "rotated":
        q = np.linalg.qr(rng.normal(size=(dim, dim))
                         + 1j * rng.normal(size=(dim, dim)))[0]
        base = StateSet.from_amplitudes((q @ base.matrix()).T, target)

    def turned(delta):
        amps = base.matrix().T.copy()
        amps[-1, 1] *= np.exp(1j * delta)
        ss = StateSet.from_amplitudes(amps, target)
        return ss, (standard_probe(gram(ss)) if regime == "probe" else None)

    trial = 1e-6
    slope = _exact_deviation(*turned(trial)) / trial
    return lambda scale: turned(scale * GRAM_TOL / slope)


def _set_at_deviation(rng, regime, target, scale) -> StateSet:
    """``(set, witness)`` of :func:`_at_deviation` at one ``scale``."""
    return _at_deviation(rng, regime, target)(scale)


@pytest.mark.parametrize("scale", [0.5, 0.9, 1.1, 2.0])
@pytest.mark.parametrize("target", list(TargetMap), ids=lambda t: t.value)
@pytest.mark.parametrize("regime", ["exact", "probe"])
def test_exact_verdicts_decide_at_their_builders_gram_test(regime, target,
                                                           scale):
    """Each exact verdict is feasible exactly when its builder raises no
    GramMismatch: both test ``max |G - K| <= GRAM_TOL`` at gamma = 1."""
    rng = np.random.default_rng(
        [("exact", "probe").index(regime), list(TargetMap).index(target)])
    for _ in range(5):
        ss, probe = _set_at_deviation(rng, regime, target, scale)
        assert _exact_deviation(ss, probe) == pytest.approx(scale * GRAM_TOL,
                                                            rel=1e-4)
        if probe is None:
            verdict, build = check_exact_unitary(ss), build_exact_unitary
        else:
            verdict = check_exact_with_probe(ss)
            build = functools.partial(build_probe_unitary, probe=probe)
        assert verdict.feasible == (scale < 1.0)
        if verdict.feasible:
            build(ss)
        else:
            assert verdict.violation["residual"] == pytest.approx(
                scale * GRAM_TOL, rel=1e-4)
            with pytest.raises(GramMismatch):
                build(ss)


def test_exact_verdicts_are_their_builders_at_the_edge():
    """Within 1e-7 relative of GRAM_TOL, where the two sides round apart,
    each verdict is feasible exactly when its builder raises no
    GramMismatch: the probe regime, and real NOT sets turned by a unitary,
    whose Gram is real but whose amplitudes are not."""
    rng = np.random.default_rng(0)
    bases = [(regime, target) for regime in ("exact", "probe")
             for target in TargetMap for _ in range(20)]
    bases += [("rotated", TargetMap.NOT)] * 40
    scales = 1.0 + np.linspace(-1e-7, 1e-7, 101)
    swept, disagree, feasible = 0, [], 0
    for regime, target in bases:
        at = _at_deviation(rng, regime, target)
        for scale in scales:
            ss, probe = at(scale)
            verdict = (check_exact_unitary(ss) if probe is None
                       else check_exact_with_probe(ss))
            try:
                (build_exact_unitary(ss) if probe is None
                 else build_probe_unitary(ss, probe))
                built = True
            except GramMismatch:
                built = False
            swept += 1
            feasible += verdict.feasible
            if verdict.feasible != built:
                disagree.append((regime, target.value, scale))
    assert swept == 12120 and 0 < feasible < swept
    assert disagree == []


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
            assert check_exact_with_probe(ss).feasible

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

    def test_witness_folds_row_zero_as_the_full_matrix_does(self):
        """Where ``|G_0j| >= 1e-12`` the witness is read from Gram row 0
        alone, with the same bits as the full matrix's folded phases."""
        rng = np.random.default_rng(56)
        sets = [random_set(rng, n, d, TargetMap.CONJUGATE)
                for n, d in ((2, 2), (5, 3), (24, 24), (48, 7))]
        sets += [phased_real_set(rng, 48, 2, TargetMap.NOT),
                 StateSet((qubit(1, 0), qubit(0, 1), qubit(-1, 0),
                           qubit(1, -1j)), TargetMap.NOT)]
        for ss in sets:
            gm = gram(ss)
            got = standard_probe(gm)
            full = ProbeSpec.phase_vector(np.mod(2.0 * gm.phases[0, :],
                                                 2.0 * np.pi))
            row = np.abs(gm.matrix[0]) >= 1e-12
            assert (list(map(float.hex, got.phases[row]))
                    == list(map(float.hex, full.phases[row])))
            assert (got.matrix[np.ix_(row, row)].tobytes()
                    == full.matrix[np.ix_(row, row)].tobytes())

    def test_orthogonal_pair_is_feasible(self):
        """A zero overlap constrains nothing: member 1 starts its own
        component at phase 0."""
        ss = StateSet((qubit(1, 0), qubit(0, 1)), TargetMap.NOT)
        verdict = check_exact_with_probe(ss)
        assert verdict.feasible
        np.testing.assert_array_equal(verdict.witness.phases, [0.0, 0.0])

    def test_witness_compensates_gram_conjugation(self):
        # G_ij == conj(G_ij) e^{i (phi_j - phi_i)} for feasible families
        rng = np.random.default_rng(55)
        for _ in range(20):
            ss = phased_real_set(rng, 3, 2, TargetMap.NOT)
            verdict = check_exact_with_probe(ss)
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
        verdict = check_exact_with_probe(ss)
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


def support_rows(rng, n, dim):
    """Real members on random supports, each with a random global phase,
    drawn until two supports are disjoint: an exactly orthogonal pair."""
    while True:
        rows = np.zeros((n, dim))
        for row in rows:
            k = int(rng.integers(1, dim + 1))
            row[rng.choice(dim, size=k, replace=False)] = rng.normal(size=k)
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        if (rows @ rows.T == 0).any():
            return rows * np.exp(1j * rng.uniform(0, 2 * np.pi, (n, 1)))


def orthogonal_sweep(seed, count=300):
    """``(phased, perturbed)`` set pairs, n in 2..6 and d in 2..4: a
    phased-real set with an orthogonal pair, and the same set with one
    amplitude's phase moved by ``+-10^U(-12, 0)``."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n, dim = int(rng.integers(2, 7)), int(rng.integers(2, 5))
        target = TargetMap.NOT if dim == 2 else TargetMap.CONJUGATE
        rows = support_rows(rng, n, dim)
        moved = rows.copy()
        i = int(rng.integers(n))
        k = rng.choice(np.flatnonzero(rows[i]))
        moved[i, k] *= np.exp(1j * rng.choice([-1, 1])
                              * 10 ** rng.uniform(-12, 0))
        yield (StateSet.from_amplitudes(rows, target),
               StateSet.from_amplitudes(moved, target))


def assert_flips_exactly(ss, verdict):
    """The witness builds a machine that verifies at unit efficiency."""
    u = build_probe_unitary(ss, verdict.witness)
    machine = Machine(ss.dim, 2, ss.target, u, np.ones(len(ss)),
                      verdict.witness.phases)
    assert verify_machine(machine, ss).all_ok


class TestZeroOverlaps:
    """A zero overlap constrains no probe phase, so every set gets a verdict."""

    def test_great_circle_set_flips_exactly(self):
        """{|0>, |1>, |+i>, |-i>} lie on one great circle (NOT)."""
        s = 1 / np.sqrt(2)
        ss = StateSet.from_amplitudes(
            [[1, 0], [0, 1], [s, 1j * s], [s, -1j * s]], TargetMap.NOT)
        verdict = check_exact_with_probe(ss)
        assert verdict.feasible
        assert_flips_exactly(ss, verdict)

    def test_member_orthogonal_to_member_zero_takes_its_phase_elsewhere(self):
        """Members 1 and 2 are orthogonal to member 0 and overlap each
        other: member 1 starts a component at phase 0, and member 2 then
        takes ``phi_1 + 2 theta_12 = 2 (0.9 - 0.4)`` from it."""
        s = 1 / np.sqrt(2)
        ss = StateSet.from_amplitudes(
            [[1, 0, 0], [0, np.exp(0.4j), 0],
             [0, s * np.exp(0.9j), s * np.exp(0.9j)]], TargetMap.CONJUGATE)
        verdict = check_exact_with_probe(ss)
        assert verdict.feasible
        np.testing.assert_allclose(verdict.witness.phases, [0.0, 0.0, 1.0],
                                   atol=1e-12)
        assert_flips_exactly(ss, verdict)

    def test_row_zero_witness_over_orthogonal_members(self):
        """Member 0 overlaps both others, which are orthogonal to each
        other: the row-0 witness is feasible and builds."""
        s = 1 / np.sqrt(2)
        ss = StateSet.from_amplitudes(
            [[s, s * np.exp(0.7j), 0], [np.exp(0.3j), 0, 0],
             [0, np.exp(1.1j), 0]], TargetMap.CONJUGATE)
        verdict = check_exact_with_probe(ss)
        assert verdict.feasible
        assert_flips_exactly(ss, verdict)

    def test_phased_real_sets_with_orthogonal_pairs_flip_exactly(self):
        for ss, _ in orthogonal_sweep(60):
            verdict = check_exact_with_probe(ss)
            assert verdict.feasible
            assert_flips_exactly(ss, verdict)

    def test_perturbed_sets_match_the_forest_oracle(self):
        """Off the edge the verdict is the max-|G| forest oracle's.

        Where the oracle's residual is within a factor 100 below
        ``GRAM_TOL``, the tree that carries the phases decides: the row-0
        witness is kept wherever row 0 has no zero, and a small ``|G_0j|``
        on it can push the residual past the edge.  Of these 300 sets, 17
        lie in that band, and 2 of them are called infeasible though the
        oracle's forest passes.  A feasible verdict must build everywhere.
        """
        verdicts, band = set(), 0
        for _, ss in orthogonal_sweep(61):
            verdict = check_exact_with_probe(ss)
            _, residual = forest_witness(gram(ss).matrix)
            if verdict.feasible:
                assert_flips_exactly(ss, verdict)
            if GRAM_TOL / 100 < residual <= GRAM_TOL:
                band += 1
                continue
            assert verdict.feasible == (residual <= GRAM_TOL)
            verdicts.add(verdict.feasible)
        assert verdicts == {False, True} and band < 30

    def test_row_zero_without_zero_keeps_the_standard_probe(self):
        """Where member 0 overlaps every member, the verdict is bit for bit
        the row-0 witness's, zeros elsewhere or none."""
        rng = np.random.default_rng(62)
        sets = [random_set(rng, n, d, TargetMap.CONJUGATE)
                for n, d in ((2, 2), (5, 3), (24, 24))]
        sets += [phased_real_set(rng, 48, 2, TargetMap.NOT)]
        sets += [ss for pair in orthogonal_sweep(63, 100) for ss in pair
                 if (np.abs(gram(ss).matrix[0]) >= 1e-12).all()]
        assert len(sets) > 40
        assert any((gram(ss).matrix == 0).any() for ss in sets)
        for ss in sets:
            gm = gram(ss)
            got = check_exact_with_probe(ss)
            want = _exact(ss, gm, ProbeSpec.phase_vector(
                np.mod(2.0 * gm.phases[0], 2.0 * np.pi)))
            assert got.feasible == want.feasible
            assert got.violation == want.violation
            if got.feasible:
                assert (got.witness.phases.tobytes()
                        == want.witness.phases.tobytes())
                assert (got.witness.matrix.tobytes()
                        == want.witness.matrix.tobytes())


def _bloch_qubit(rng, r):
    """A qubit with Bloch vector ``r`` and a random global phase."""
    theta, phi = np.arccos(np.clip(r[2], -1.0, 1.0)), np.arctan2(r[1], r[0])
    return np.exp(1j * rng.uniform(0, 2 * np.pi)) * np.array(
        [np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])


def great_circle_sweep(seed, count=200):
    """``(on, tilted)`` NOT qubit sets, n in 2..6, with random member
    phases.  ``on`` lies on a random great circle, and each member after
    the first is, with probability 0.4, the antipode (an orthogonal state)
    of an earlier one, member 0 included.  ``tilted`` moves one member off
    that plane by an angle in [1e-3, 1], a member whose removal leaves
    Bloch vectors that span the plane with second singular value above
    0.1, so no other great circle holds the set; None where none does."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 7))
        normal = rng.normal(size=3)
        normal /= np.linalg.norm(normal)
        e1 = np.cross(normal, rng.normal(size=3))
        e1 /= np.linalg.norm(e1)
        angles = rng.uniform(0, 2 * np.pi, n)
        for j in range(1, n):
            if rng.random() < 0.4:
                angles[j] = angles[int(rng.integers(j))] + np.pi
        bloch = (np.cos(angles)[:, None] * e1
                 + np.sin(angles)[:, None] * np.cross(normal, e1))
        rows = np.array([_bloch_qubit(rng, r) for r in bloch])
        on = StateSet.from_amplitudes(rows, TargetMap.NOT)
        spread = [k for k in range(n) if np.linalg.svd(
            np.delete(bloch, k, 0), compute_uv=False)[1:2].sum() > 0.1]
        if not spread:
            yield on, None
            continue
        k, delta = rng.choice(spread), rng.uniform(1e-3, 1.0)
        rows[k] = _bloch_qubit(rng, np.cos(delta) * bloch[k]
                               + np.sin(delta) * normal)
        yield on, StateSet.from_amplitudes(rows, TargetMap.NOT)


class TestGreatCircle:
    """The paper's qubit criterion (``oracles.great_circle``): a perfect NOT
    with a probe exists iff the Bloch vectors lie on one great circle.  The
    sets lie on the plane to rounding or off it by at least about 1e-3,
    far from both the oracle's threshold and ``GRAM_TOL``."""

    def test_circle_sets_flip_perfectly(self):
        orthogonal = 0
        for on, _ in great_circle_sweep(70):
            assert great_circle(on.matrix().T)
            orthogonal += bool((np.abs(gram(on).matrix[0]) < 1e-12).any())
            verdict = check_exact_with_probe(on)
            assert verdict.feasible
            assert np.array_equal(search_gamma(on).gammas, np.ones(len(on)))
            assert_flips_exactly(on, verdict)
        assert orthogonal > 40

    def test_tilted_sets_are_refused_as_the_oracle_says(self):
        """Every tilted set has n >= 3 qubits, so it is dependent, and the
        probe that fails the exact check leaves M nonzero on null(G): EQUAL
        certifies no point, so none at gamma = 1."""
        tilted = [t for _, t in great_circle_sweep(71) if t is not None]
        assert len(tilted) > 100
        for ss in tilted:
            assert not great_circle(ss.matrix().T)
            assert not check_exact_with_probe(ss).feasible
            with pytest.raises(NoFeasiblePoint, match="null space"):
                search_gamma(ss)

    def test_search_takes_the_probe_check_witness(self):
        """One default probe: wherever the probe check is feasible, its
        witness is the probe ``search_gamma`` uses without one."""
        rng = np.random.default_rng(72)
        sets = [on for on, _ in great_circle_sweep(73, 60)]
        sets += [ss for ss, _ in orthogonal_sweep(74, 60)]
        sets += [random_set(rng, 2, d, TargetMap.CONJUGATE) for d in (2, 5)]
        for ss in sets:
            verdict = check_exact_with_probe(ss)
            assert verdict.feasible
            assert np.array_equal(verdict.witness.phases,
                                  search_gamma(ss).probe.phases)


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

    def test_full_gram_keeps_its_own_matrix(self):
        """An edit to the caller's matrix leaves the checked probe PSD with a
        unit diagonal."""
        m = np.array([[1.0, 0.5], [0.5, 1.0]], complex)
        probe = ProbeSpec.full_gram(m)
        m[:] = [[5.0, 9.0], [9.0, np.nan]]
        np.testing.assert_array_equal(np.diag(probe.matrix), [1.0, 1.0])
        assert np.linalg.eigvalsh(probe.matrix).min() >= 0.0

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

    @pytest.mark.parametrize("scalar", [0.5, np.float64(0.5), np.array(0.5)])
    def test_every_zero_dimensional_value_is_broadcast(self, scalar):
        assert efficiencies(scalar, 3).tolist() == [0.5] * 3

    def test_one_element_list_is_not_broadcast(self):
        with pytest.raises(ValueError, match="expected 3 efficiencies, got 1"):
            efficiencies([0.5], 3)


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
        """{|0>, |1>, |+i>} with the zero-phase probe: lambda_min(M) =
        -9.9999996e-10 passes the test at -1e-9, but M misses zero on the
        null space of G by 1, and no machine exists there."""
        s = 1.0 / np.sqrt(2.0)
        ss = StateSet((QuditState([1.0, 0.0]), QuditState([0.0, 1.0]),
                       QuditState([s, 1j * s])), TargetMap.CONJUGATE)
        verdict = check_probabilistic(ss, 1.00000002722922e-9,
                                      ProbeSpec.phase_vector(np.zeros(3)))
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
    the ``(system, probe, member)`` construction ``branch_unitary`` replaced."""
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
    """The machine is bit for bit the completion of all ``D`` rows of its
    branches, whose untouched rows are zero."""
    ss, weights, probe_dim, failure = make(np.random.default_rng(61))
    if pad and ss.target is TargetMap.NOT:
        # a qubit cannot be padded: a member with a zero amplitude instead
        zero = QuditState(np.array([0.0, np.exp(0.3j)]))
        ss = StateSet((zero, *ss.states[1:]), ss.target)
        weights = np.exp(1j * check_exact_with_probe(ss).witness.phases)
    elif pad:
        # the Gram, and so the failure branches, stay those of the set
        ss = _padded(ss)
    ins, outs = _full_branches(ss, weights, probe_dim, failure)
    u = branch_unitary(ss, weights, probe_dim, failure)
    np.testing.assert_array_equal(u, unitary_completion(ins.T, outs.T))
    assert np.abs(u @ ins - outs).max() < 1e-12


def _probe_machine(rng):
    ss = _probe_branches(rng, 4, 2)[0]
    return build_probe_unitary(ss, check_exact_with_probe(ss).witness)


def _synthesized(ss, path):
    assert synthesize(ss)[1].path == path


def _requested_machine(rng):
    ss = random_independent_set(rng, 3, 3, TargetMap.CONJUGATE)
    return synthesize_with(ss, 0.5 * search_gamma(ss).gammas.min(),
                           standard_probe(gram(ss)))


MACHINE_BUILDERS = {
    "build_exact_unitary": lambda rng: build_exact_unitary(
        random_set(rng, 3, 4, TargetMap.CONJUGATE, real=True)),
    "build_probe_unitary": _probe_machine,
    "synthesize-exact": lambda rng: _synthesized(
        random_set(rng, 3, 4, TargetMap.CONJUGATE, real=True), "exact"),
    "synthesize-general": lambda rng: _synthesized(
        random_independent_set(rng, 3, 3, TargetMap.CONJUGATE), "general"),
    "synthesize_with": _requested_machine,
}


@pytest.mark.parametrize("build", MACHINE_BUILDERS.values(),
                         ids=MACHINE_BUILDERS)
def test_every_machine_is_one_unitary_completion(monkeypatch, build):
    """Each machine goes through ``feasibility.unitary_completion`` exactly
    once, the name the benchmark's completion span wraps."""
    calls = []

    def counted(*args):
        calls.append(args)
        return unitary_completion(*args)

    monkeypatch.setattr("qnot.feasibility.unitary_completion", counted)
    build(np.random.default_rng(62))
    assert len(calls) == 1
