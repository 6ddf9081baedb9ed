"""Closed-form and searched efficiency maxima."""
import json
from pathlib import Path

import numpy as np
import pytest

from qnot import (
    DegenerateDeterminant,
    GammaPolicy,
    InvalidProbe,
    NoFeasiblePoint,
    NotPSD,
    ProbeSpec,
    QnotError,
    QuditState,
    StateSet,
    TargetMap,
    TripleBoundInput,
    check_probabilistic,
    constraint_matrix,
    gamma_max_triple,
    gram,
    grid_oracle_triple,
    search_gamma,
    standard_probe,
    synthesize,
    synthesize_with,
    verify_machine,
)
from qnot import optimizer
from qnot.feasibility import constraint_kernel, point_rule
from qnot.linalg import PSD_TOL
from qnot.states import GramMatrix

from conftest import (phased_real_set, random_independent_set,
                      random_near_dependent_triple, random_set, random_state,
                      worked_triple)
from oracles import cofactor_det, equal_edge_bisection, quadratic_roots

# Boundary for all-|overlap| 0.3, phases (0.4, 0.1, 0.2), computed by
# bisecting the PSD criterion directly at resolution 1e6 before the closed
# form existed.
FROZEN_03_TRIPLE = 0.7226559350606517


def _random_polar_input(rng) -> TripleBoundInput:
    """Random valid overlap data, drawn from an actual state triple."""
    ss = random_independent_set(rng, 3, 3, TargetMap.CONJUGATE)
    return TripleBoundInput.from_gram(gram(ss))


def test_frozen_equal_overlap_boundary():
    inp = TripleBoundInput(0.3, 0.3, 0.3, 0.4, 0.1, 0.2)
    assert gamma_max_triple(inp) == pytest.approx(FROZEN_03_TRIPLE, abs=1e-6)
    oracle = grid_oracle_triple(inp.gram_matrix(), inp.probe())
    assert oracle == pytest.approx(FROZEN_03_TRIPLE, abs=1e-6)


def _plain_bisection(gram_matrix: GramMatrix, probe: ProbeSpec) -> float:
    """The oracle as 70 sequential halvings, one point_rule call each
    (``oracles.equal_edge_bisection`` forms ``G - gamma K``, other bits)."""
    g = gram_matrix.matrix
    k = constraint_kernel(g, probe)
    n = gram_matrix.n
    if point_rule(g, k, np.ones(n))[0]:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(70):
        mid = 0.5 * (lo + hi)
        if point_rule(g, k, np.full(n, mid))[0]:
            lo = mid
        else:
            hi = mid
    return lo


def _oracle_triples():
    """100 independent and 100 near-dependent triples of ``default_rng(51)``."""
    rng = np.random.default_rng(51)
    sets = [random_independent_set(rng, 3, 3, TargetMap.CONJUGATE)
            for _ in range(100)]
    return sets + [random_near_dependent_triple(rng) for _ in range(100)]


def test_stacked_oracle_equals_the_plain_bisection():
    """The stacked rounds land on the sequential midpoints bit for bit; the
    near-dependent triples, whose gamma reaches 1e-9, use every halving."""
    tiny = 0
    for ss in _oracle_triples():
        gm = gram(ss)
        probe = standard_probe(gm)
        oracle = grid_oracle_triple(gm, probe)
        assert oracle == _plain_bisection(gm, probe)
        tiny += 0.0 < oracle < 2.0 ** -20
    assert tiny >= 10


def test_oracle_decides_levels_halvings_per_rule_call(monkeypatch):
    calls = []
    rule = optimizer.point_rule

    def counted(g, k, gammas):
        calls.append(gammas.shape)
        return rule(g, k, gammas)

    monkeypatch.setattr(optimizer, "point_rule", counted)
    inp = TripleBoundInput(0.3, 0.3, 0.3, 0.4, 0.1, 0.2)
    oracle = grid_oracle_triple(inp.gram_matrix(), inp.probe())
    assert oracle == pytest.approx(FROZEN_03_TRIPLE, abs=1e-6)
    assert optimizer.HALVINGS % optimizer.LEVELS == 0
    assert len(calls) <= optimizer.HALVINGS // optimizer.LEVELS + 1
    assert calls[1] == (2 ** optimizer.LEVELS - 1, 1)


def test_constraint_determinant_factors_through_one_quadratic():
    """det(G - gK) = -(1 - g)(a g^2 + 2(2s - a) g + a); the 2x2 minor on
    states 2 and 3 is -(b g^2 + 2(2s - b) g + b) with b = t23^2 - 1.  By
    interlacing M stops being PSD no later than that minor, so only the
    first quadratic sets the bound."""
    rng = np.random.default_rng(41)
    for _ in range(200):
        inp = _random_polar_input(rng)
        a, b = inp.a, inp.t23 ** 2 - 1.0
        s = inp.t23 ** 2 * np.sin(inp.delta) ** 2
        for g in (0.1, 0.3, 0.5, 0.7, 0.9):
            m = constraint_matrix(inp.gram_matrix(), g, inp.probe())
            det = -(1.0 - g) * (a * g * g + 2.0 * (2.0 * s - a) * g + a)
            minor = -(b * g * g + 2.0 * (2.0 * s - b) * g + b)
            assert abs(cofactor_det(m) - det) < 1e-12
            assert abs(cofactor_det(m[1:, 1:]) - minor) < 1e-12


def test_dense_grid_agrees_with_closed_form():
    """Third route: exhaustive gamma grid, no bisection and no quadratics."""
    inp = TripleBoundInput(0.3, 0.3, 0.3, 0.4, 0.1, 0.2)
    g = inp.gram_matrix().matrix
    p = inp.probe().matrix
    grid = np.linspace(1e-5, 1.0, 100_000)
    best = 0.0
    for chunk in np.array_split(grid, 10):
        stack = g[None, :, :] - chunk[:, None, None] * (np.conj(g) * p)[None, :, :]
        mins = np.linalg.eigvalsh(stack)[:, 0]
        ok = chunk[mins >= -1e-9]
        if ok.size:
            best = max(best, float(ok.max()))
    assert abs(best - gamma_max_triple(inp)) < 2e-5


def test_vanishing_phase_mismatch_gives_unit_efficiency():
    # delta = 0: the probe undoes the conjugation completely
    inp = TripleBoundInput(0.5, 0.4, 0.6, 0.3, 0.5, 0.2)
    assert inp.delta == pytest.approx(0.0)
    assert gamma_max_triple(inp) == 1.0


def test_vanishing_third_overlap_limit():
    inp = TripleBoundInput(0.4, 0.5, 1e-12, 0.7, 0.2, 0.9)
    assert gamma_max_triple(inp) == pytest.approx(1.0, abs=1e-9)


def test_real_gram_oracle_hits_one():
    gm = GramMatrix(np.array([[1.0, 0.3, 0.2],
                              [0.3, 1.0, 0.4],
                              [0.2, 0.4, 1.0]]))
    assert grid_oracle_triple(gm, standard_probe(gm)) == 1.0


def test_closed_form_matches_oracle_on_random_triples():
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 40:
        inp = _random_polar_input(rng)
        try:
            closed = gamma_max_triple(inp)
        except DegenerateDeterminant:
            continue
        oracle = grid_oracle_triple(inp.gram_matrix(), inp.probe())
        assert abs(closed - oracle) <= 1e-5, inp
        checked += 1


def test_boundary_is_sharp():
    """Feasible just below the reported maximum, infeasible just above."""
    rng = np.random.default_rng(32)
    checked = 0
    while checked < 25:
        inp = _random_polar_input(rng)
        try:
            gmax = gamma_max_triple(inp)
        except DegenerateDeterminant:
            continue
        g = inp.gram_matrix()
        probe = inp.probe()
        below = constraint_matrix(g, np.full(3, gmax - 1e-9), probe)
        assert np.linalg.eigvalsh(below).min() >= -1e-9
        if gmax < 1.0 - 1e-6:
            above = constraint_matrix(g, np.full(3, gmax + 1e-6), probe)
            assert np.linalg.eigvalsh(above).min() < -1e-9
        checked += 1


def test_relabeling_second_and_third_state():
    inp = TripleBoundInput(0.3, 0.45, 0.25, 0.4, 0.1, 0.2)
    swapped = TripleBoundInput(inp.t13, inp.t12, inp.t23,
                               inp.theta13, inp.theta12, -inp.theta23)
    assert gamma_max_triple(swapped) == pytest.approx(
        gamma_max_triple(inp), abs=1e-12)


def test_shrinking_overlaps_never_hurts():
    rng = np.random.default_rng(33)
    checked = 0
    while checked < 25:
        inp = _random_polar_input(rng)
        c = rng.uniform(0.3, 0.99)
        shrunk = TripleBoundInput(c * inp.t12, c * inp.t13, c * inp.t23,
                                  inp.theta12, inp.theta13, inp.theta23)
        try:
            g1 = gamma_max_triple(inp)
            g2 = gamma_max_triple(shrunk)
        except DegenerateDeterminant:
            continue
        assert g2 >= g1 - 1e-9
        checked += 1


@pytest.mark.parametrize("field", ["theta12", "theta13", "theta23"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_triple_phases_must_be_finite(field, bad):
    phases = {"theta12": 0.1, "theta13": 0.2, "theta23": 0.3, field: bad}
    with pytest.raises(ValueError, match=field):
        TripleBoundInput(0.3, 0.3, 0.3, **phases)


def test_triple_overlap_above_one_is_refused_with_a_plain_float():
    with pytest.raises(ValueError, match=r"^t12 = 1\.0000000001 must lie"):
        TripleBoundInput(np.float64(1.0000000001), 0.3, 0.3, 0.1, 0.2, 0.3)


def test_degenerate_determinant_raises():
    with pytest.raises(DegenerateDeterminant):
        gamma_max_triple(TripleBoundInput(1.0, 1.0, 1.0, 0.0, 0.0, 0.0))
    dependent = TripleBoundInput.from_gram(gram(worked_triple(0.7)))
    with pytest.raises(DegenerateDeterminant):
        gamma_max_triple(dependent)


# Near-dependent triples, |det| 8.1e-9 and 2.2e-10.  On the first the root
# of det M in its cancelling form, 1 + (2 sqrt(s^2 - a s) - 2 s) / a, is
# 1.37e-8, with lambda_min(M) = -3.0e-9 past the point rule's -PSD_TOL gamma;
# the stable form gives 8.374e-9, which the rule accepts, and the oracle
# finds 8.374e-9.  The rank decision calls the second dependent.
UNCERTIFIED_TRIPLES = [
    TripleBoundInput(0.6184814218435851, 0.7582248613524998,
                     0.5885760250323195, 5.486196772758945,
                     0.4877695367514654, 2.272684129767951),
    TripleBoundInput(0.6532880674500958, 0.6235463204376009,
                     0.9919589245799837, 2.000434124813406,
                     1.7543509159807573, 6.18296334502179),
]


def _triple_states(inp: TripleBoundInput) -> StateSet:
    """Conjugate qutrit triple with the Gram of ``inp``: rows of conj(L)."""
    amps = np.conj(np.linalg.cholesky(inp.gram_matrix().matrix))
    return StateSet(tuple(QuditState.normalized(a) for a in amps),
                    TargetMap.CONJUGATE)


def _verifies(ss: StateSet, gammas, probe) -> bool:
    """The point passes ``check_probabilistic`` and its machine verifies."""
    return (check_probabilistic(ss, gammas, probe).feasible
            and verify_machine(synthesize_with(ss, gammas, probe), ss).all_ok)


def _bound_builds_a_verified_machine(inp: TripleBoundInput) -> float:
    gamma = gamma_max_triple(inp)
    assert _verifies(_triple_states(inp), gamma, inp.probe())
    return gamma


@pytest.mark.parametrize("inp", UNCERTIFIED_TRIPLES[1:], ids=["det-2e-10"])
def test_uncertified_boundary_raises(inp):
    with pytest.raises(DegenerateDeterminant):
        gamma_max_triple(inp)


def test_root_past_the_edge_retreats_to_a_verified_bound():
    """The det-8e-9 triple: the stable root is the retreat's first rung, and
    it builds and verifies; the cancelling root failed, and half of it,
    6.86e-9, was kept."""
    gamma = _bound_builds_a_verified_machine(UNCERTIFIED_TRIPLES[0])
    assert gamma == pytest.approx(8.374e-9, rel=1e-3)


# Near-dependent qutrit triple whose cancelling root 2.466e-8 has
# lambda_min(M) = -1.87e-9.  1e-9 inside it, 2.366e-8 has lambda_min(M) >=
# -PSD_TOL, but a machine built there has fidelity 0.999998.  The stable
# root 2.342e-8 (oracle 2.342e-8) passes the point rule and verifies.
EDGE_ROOT_TRIPLE = TripleBoundInput(
    0.3892444485631532, 0.3587690037753581, 0.8888065421252748,
    0.7933075239697203, 2.2340284076542902, 0.15664014312309466)


def test_returned_bound_passes_the_psd_test():
    gamma = _bound_builds_a_verified_machine(EDGE_ROOT_TRIPLE)
    m = constraint_matrix(EDGE_ROOT_TRIPLE.gram_matrix(), gamma,
                          EDGE_ROOT_TRIPLE.probe())
    assert np.linalg.eigvalsh(m).min() >= -PSD_TOL * gamma


def test_invalid_gram_data_raises():
    # valid pairwise magnitudes that no state triple can realize
    inp = TripleBoundInput(0.99, 0.99, 0.01, 0.0, 0.0, 0.0)
    with pytest.raises(NotPSD):
        gamma_max_triple(inp)


def test_polar_input_validation():
    with pytest.raises(ValueError):
        TripleBoundInput(0.0, 0.3, 0.3, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        TripleBoundInput(0.3, 1.2, 0.3, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        TripleBoundInput.from_gram(GramMatrix(np.eye(2)))


def test_standard_probe_doubles_first_row_phases():
    rng = np.random.default_rng(34)
    ss = random_independent_set(rng, 3, 3, TargetMap.CONJUGATE)
    gm = gram(ss)
    probe = standard_probe(gm)
    expect = np.mod(2.0 * gm.phases[0, :], 2.0 * np.pi)
    assert np.allclose(probe.phases, expect)


def test_search_two_states_reaches_unit_efficiency():
    rng = np.random.default_rng(35)
    ss = random_independent_set(rng, 2, 2, TargetMap.NOT)
    res = search_gamma(ss)
    assert np.array_equal(res.gammas, np.ones(2))
    assert res.mean_gamma == 1.0


def test_search_real_family_reaches_unit_efficiency():
    ss = StateSet((QuditState.normalized([1.0, 2.0, 0.0, 1.0]),
                   QuditState.normalized([0.0, 1.0, 1.0, 3.0]),
                   QuditState.normalized([2.0, 0.0, 1.0, 1.0])),
                  TargetMap.CONJUGATE)
    res = search_gamma(ss)
    assert np.array_equal(res.gammas, np.ones(3))


def test_coordinate_ascent_dominates_equal_policy():
    rng = np.random.default_rng(37)
    for _ in range(5):
        ss = random_independent_set(rng, 3, 3, TargetMap.CONJUGATE)
        eq = search_gamma(ss, GammaPolicy.EQUAL)
        co = search_gamma(ss, GammaPolicy.COORDINATE)
        assert np.all(co.gammas >= eq.gammas - 1e-9)
        assert co.mean_gamma >= eq.mean_gamma - 1e-12
        assert co.boundary_lambda_min >= -1e-9


def test_search_matches_triple_closed_form():
    rng = np.random.default_rng(38)
    ss = random_independent_set(rng, 3, 3, TargetMap.CONJUGATE)
    res = search_gamma(ss)
    closed = gamma_max_triple(TripleBoundInput.from_gram(gram(ss)))
    assert res.gammas[0] == pytest.approx(closed, abs=1e-5)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
@pytest.mark.parametrize("extra", [0, 2])
def test_equal_edge_matches_a_bisection_oracle(n, extra):
    """The Cholesky edge against 70 halvings of G - gamma K at -PSD_TOL gamma."""
    d = max(n + extra, 2)
    ss = random_independent_set(np.random.default_rng(100 * n + extra), n, d,
                                TargetMap.CONJUGATE)
    g = gram(ss).matrix
    res = search_gamma(ss)
    oracle = equal_edge_bisection(g, np.conj(g) * res.probe.matrix, PSD_TOL)
    assert np.ptp(res.gammas) == 0.0
    assert abs(res.gammas[0] - oracle) <= 1e-9, res.gammas[0]


def test_equal_never_falls_below_the_paper_bound():
    """For a phase probe ``u``, ``conj(G) o uu^dag`` is unitarily similar to
    ``conj(G)``, so EQUAL's edge lies at or above ``lambda_min(G) /
    lambda_max(G)`` whatever the probe, above ``synthesize``'s epsilon =
    ETA times that (210 sets; the smallest ratio was 1.072)."""
    rng = np.random.default_rng(17)
    ratios = []
    for n in (2, 3, 4, 6, 10, 16, 24):
        for d in (n, n + 2):
            for _ in range(15):
                ss = random_independent_set(rng, n, d, TargetMap.CONJUGATE)
                report = synthesize(ss)[1]
                assert report.path == "general"
                ratios.append(search_gamma(ss, GammaPolicy.EQUAL).gammas[0]
                              / report.epsilon)
    assert min(ratios) >= 1.0


def test_equal_search_is_one_eigenproblem_and_its_checks():
    """gamma = 1 tested, one eigvalsh, one accepted candidate (was ~70)."""
    ss = random_independent_set(np.random.default_rng(3), 10, 10,
                                TargetMap.CONJUGATE)
    assert search_gamma(ss).iterations <= 3


@pytest.mark.parametrize("n, d", [(3, 3), (4, 4), (6, 8), (10, 10)])
def test_coordinate_step_reaches_the_boundary(n, d):
    """Raising any searched gamma_i < 1 by 1e-5 leaves the feasible set."""
    for seed in range(60):
        ss = random_independent_set(np.random.default_rng(seed), n, d,
                                    TargetMap.CONJUGATE)
        res = search_gamma(ss, GammaPolicy.COORDINATE)
        for i in np.flatnonzero(res.gammas < 1.0):
            raised = res.gammas.copy()
            raised[i] = min(raised[i] + 1e-5, 1.0)
            assert not check_probabilistic(ss, raised, res.probe).feasible


@pytest.mark.parametrize("d", [2, 3, 4])
def test_real_dependent_family_keeps_unit_efficiency(d):
    """n = d + 1 real states: gamma = 1 is tested before any closed form,
    which on a G that passes Cholesky only by rounding is meaningless."""
    for seed in range(10):
        ss = random_set(np.random.default_rng(seed), d + 1, d,
                        TargetMap.CONJUGATE, real=True)
        for policy in GammaPolicy:
            res = search_gamma(ss, policy)
            assert np.array_equal(res.gammas, np.ones(d + 1))


def _singular_schur_block_set():
    """A qutrit triple whose first state is orthogonal to the rest, and the
    zero-phase probe (the default one makes all three perfect)."""
    s = 1.0 / np.sqrt(2.0)
    ss = StateSet((QuditState([1.0, 0.0, 0.0]),
                   QuditState([0.0, 0.6, 0.8j]),
                   QuditState([0.0, s, s])), TargetMap.CONJUGATE)
    return ss, ProbeSpec.phase_vector(np.zeros(3))


def test_coordinate_step_survives_a_singular_schur_block():
    """A state orthogonal to the rest reaches gamma = 1, which zeroes its
    row of M; the next step's block is then singular but for the
    PSD_TOL min(gamma) shift, and the other two still reach the edge."""
    ss, probe = _singular_schur_block_set()
    res = search_gamma(ss, GammaPolicy.COORDINATE, probe)
    assert res.gammas[0] == 1.0
    assert res.boundary_lambda_min >= -PSD_TOL * res.gammas.min()
    for i in (1, 2):
        raised = res.gammas.copy()
        raised[i] = min(raised[i] + 1e-5, 1.0)
        assert not check_probabilistic(ss, raised, res.probe).feasible


def test_search_refuses_an_efficiency_within_the_tolerance():
    """{|0>, |1>, |+i>} has no zero-phase conjugation machine: that probe
    leaves M nonzero on null(G), so no gamma qualifies, although the PSD
    test alone accepts gamma up to about 1e-9.  Phases (0, pi, 0), the
    default probe's, null T(w * v), and there both policies reach a
    perfect machine."""
    s = 1.0 / np.sqrt(2.0)
    ss = StateSet((QuditState([1.0, 0.0]), QuditState([0.0, 1.0]),
                   QuditState([s, 1j * s])), TargetMap.CONJUGATE)
    for policy in GammaPolicy:
        with pytest.raises(NoFeasiblePoint, match="null space"):
            search_gamma(ss, policy, ProbeSpec.phase_vector(np.zeros(3)))
        probe = ProbeSpec.phase_vector([0.0, np.pi, 0.0])
        res = search_gamma(ss, policy, probe)
        assert np.array_equal(res.gammas, np.ones(3))
        assert np.array_equal(search_gamma(ss, policy).gammas, np.ones(3))
        assert verify_machine(synthesize_with(ss, res.gammas, probe),
                              ss).all_ok


def _null_phase_probe(ss: StateSet) -> ProbeSpec:
    """Phases -2 arg(v_i) for the null vector v of the qubit triple's
    amplitudes: the target columns T of NOT(psi_i) have null vector
    conj(v), so T(w * v) = 0 for w_i = exp(-2i arg v_i)."""
    v = np.linalg.svd(ss.matrix())[2][-1].conj()
    return ProbeSpec.phase_vector(-2.0 * np.angle(v))


@pytest.mark.parametrize("phi", [0.3, 0.7, 1.2])
def test_dependent_worked_triple_reaches_the_analytic_root(phi):
    """With the probe that nulls T(w * v) the search runs on range(G) and
    returns the smaller root of g^2/2 + (sin phi - 2) g + 1/2; no
    coordinate can move alone, so COORDINATE stays at the EQUAL point."""
    ss = worked_triple(phi)
    probe = _null_phase_probe(ss)
    root = quadratic_roots(0.5, np.sin(phi) - 2.0, 0.5)[0]
    for policy in GammaPolicy:
        res = search_gamma(ss, policy, probe)
        assert np.abs(res.gammas - root).max() <= 1e-8
        assert verify_machine(synthesize_with(ss, res.gammas, probe),
                              ss).all_ok


def test_coordinate_moves_only_states_outside_the_null_space():
    """worked_triple(0.3) in a qutrit plus |2>: the null vector of G does
    not touch the fourth state, whose efficiency alone rises to 1."""
    w = worked_triple(0.3)
    ss = StateSet(tuple(QuditState(np.r_[s.amps, 0.0]) for s in w.states)
                  + (QuditState([0.0, 0.0, 1.0]),), TargetMap.CONJUGATE)
    probe = ProbeSpec.phase_vector(np.r_[_null_phase_probe(w).phases, 0.0])
    root = quadratic_roots(0.5, np.sin(0.3) - 2.0, 0.5)[0]
    eq = search_gamma(ss, GammaPolicy.EQUAL, probe)
    co = search_gamma(ss, GammaPolicy.COORDINATE, probe)
    assert np.abs(eq.gammas - root).max() <= 1e-8
    assert np.array_equal(co.gammas[:3], eq.gammas[:3])
    assert co.gammas[3] == 1.0
    assert verify_machine(synthesize_with(ss, co.gammas, probe), ss).all_ok


def test_searched_points_on_dependent_sets_build_verified_machines():
    """Random complex conjugate sets with more states than dimensions.
    With the doubled-phase probe the parent returned tolerance artifacts
    here (gamma ~ 1e-6) whose machines failed verification; now every
    search is refused, or returns a point that builds and verifies."""
    rng = np.random.default_rng(5)
    for _ in range(40):
        d = int(rng.integers(2, 4))
        ss = random_set(rng, d + int(rng.integers(1, 3)), d,
                        TargetMap.CONJUGATE)
        for policy in GammaPolicy:
            try:
                res = search_gamma(ss, policy)
            except NoFeasiblePoint:
                continue
            machine = synthesize_with(ss, res.gammas, res.probe)
            assert verify_machine(machine, ss).all_ok


def test_every_certified_point_builds_a_verified_machine():
    """Each search and triple bound is refused or builds a machine that
    verifies, on independent, dependent and near-dependent sets.  With the
    old edge lambda_min(M) >= -PSD_TOL, a machine lost about PSD_TOL / gamma
    of fidelity: the second near-dependent triple failed at gamma 7.7e-9."""
    rng = np.random.default_rng(5)
    sets = [random_near_dependent_triple(rng) for _ in range(200)]
    rng = np.random.default_rng(6)
    sets += [random_independent_set(rng, n, n + 1, TargetMap.CONJUGATE)
             for n in (2, 3, 4, 6) for _ in range(5)]
    sets += [random_set(rng, d + 1, d, TargetMap.CONJUGATE)
             for d in (2, 3) for _ in range(10)]
    certified = 0  # points that reached the build
    for ss in sets:
        for policy in GammaPolicy:
            try:
                res = search_gamma(ss, policy)
            except QnotError:
                continue
            assert _verifies(ss, res.gammas, res.probe)
            certified += 1
        if len(ss) == 3:
            try:
                gamma = gamma_max_triple(TripleBoundInput.from_gram(gram(ss)))
            except QnotError:
                continue
            assert _verifies(ss, gamma, standard_probe(gram(ss)))
            certified += 1
    assert certified >= 150


def test_triple_bound_keeps_the_edge_on_near_dependent_triples():
    """The root without cancellation, certified on the set's own Gram, is
    within 10 % of the oracle wherever it is certified.  The cancelling root
    fell back to half of itself on 192 of 773 such triples of this sweep
    (3000 triples); certifying on the Gram rebuilt from polar data refused
    95 stable roots on the set's own Gram."""
    rng = np.random.default_rng(5)
    certified = 0
    for _ in range(400):
        ss = random_near_dependent_triple(rng)
        gm = gram(ss)
        try:
            gamma = gamma_max_triple(TripleBoundInput.from_gram(gm))
        except QnotError:
            continue
        probe = standard_probe(gm)
        assert gamma >= 0.9 * grid_oracle_triple(gm, probe)
        assert _verifies(ss, gamma, probe)
        certified += 1
    assert certified >= 80


def test_triple_input_keeps_the_gram_it_was_built_from():
    gm = gram(random_independent_set(np.random.default_rng(2), 3, 3,
                                     TargetMap.CONJUGATE))
    inp = TripleBoundInput.from_gram(gm)
    polar = TripleBoundInput(inp.t12, inp.t13, inp.t23, inp.theta12,
                             inp.theta13, inp.theta23)
    assert inp.gram_matrix() is gm
    assert inp == polar and repr(inp) == repr(polar)
    assert np.abs(polar.gram_matrix().matrix - gm.matrix).max() <= 1e-15


def test_schur_solve_falls_back_to_least_squares(monkeypatch):
    """Every Schur solve raises ``LinAlgError`` and goes to ``lstsq``, and
    COORDINATE still ends on a point the rule accepts that verifies."""
    solve = np.linalg.solve
    for n in (4, 10):
        ss = random_independent_set(np.random.default_rng(9), n, n,
                                    TargetMap.CONJUGATE)
        forced = []

        def singular_schur_block(a, b):
            if b.shape == (n - 1, 2):
                forced.append(a.shape)
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", singular_schur_block)
        res = search_gamma(ss, GammaPolicy.COORDINATE)
        monkeypatch.undo()
        assert forced
        assert _verifies(ss, res.gammas, res.probe)
        assert res.mean_gamma >= search_gamma(ss).mean_gamma


def _coordinate_sets(count: int):
    rng = np.random.default_rng(11)
    return [random_independent_set(rng, 10, 10, TargetMap.CONJUGATE)
            for _ in range(count)]


def test_oracle_stops_once_a_midpoint_rounds_onto_an_end(monkeypatch):
    """On the first three members of n = d = 10 sets, as the benchmark
    draws its triples, each edge lies above 0.2, so a midpoint rounds onto
    an end within 28 rounds: at most 29 rule calls, where all 35 rounds
    after the test at gamma = 1 make 36."""
    calls = []
    rule = optimizer.point_rule

    def counted(g, k, gammas):
        calls.append(gammas.shape)
        return rule(g, k, gammas)

    monkeypatch.setattr(optimizer, "point_rule", counted)
    for ss in _coordinate_sets(20):
        gm = gram(StateSet(ss.states[:3], ss.target))
        calls.clear()
        assert 0.0 < grid_oracle_triple(gm, standard_probe(gm)) < 1.0
        assert len(calls) <= 29


def test_coordinate_makes_no_schur_solve_at_unit_efficiency():
    """EQUAL gives gamma = 1 on a real conjugate set, so COORDINATE's only
    evaluation is that rule test: a Schur solve at gamma = 1 could not
    raise it, and four of them made 5 evaluations."""
    ss = random_set(np.random.default_rng(3), 4, 4, TargetMap.CONJUGATE,
                    real=True)
    res = search_gamma(ss, GammaPolicy.COORDINATE)
    assert res.gammas.tolist() == [1.0] * 4
    assert res.iterations == 1


def _wide_pin_cases():
    """``(state set, probe or None)`` past n = d = 10: independent sets at
    n = d in {3, 4, 6, 16, 24}; phased-real dependent sets, alone (gamma = 1)
    and as a null-space block beside an independent complex block, whose
    probe doubles each block's own first-row phases, so COORDINATE moves
    only the complex block; 20 near-dependent triples; and the
    singular-Schur-block set."""
    rng = np.random.default_rng(29)
    cases = [(random_independent_set(rng, n, n, TargetMap.CONJUGATE), None)
             for n in (3, 4, 6, 16, 24) for _ in range(4)]
    cases += [(phased_real_set(rng, m, d, TargetMap.CONJUGATE), None)
              for m, d in ((3, 2), (4, 3), (6, 4))]
    for m, d, n_c, d_c in ((3, 2, 5, 5), (5, 3, 5, 6), (4, 2, 8, 8)):
        blocks = (phased_real_set(rng, m, d, TargetMap.CONJUGATE),
                  random_independent_set(rng, n_c, d_c, TargetMap.CONJUGATE))
        states = tuple(QuditState(np.r_[s.amps, np.zeros(d_c)])
                       for s in blocks[0].states) + tuple(
            QuditState(np.r_[np.zeros(d), s.amps]) for s in blocks[1].states)
        cases.append((StateSet(states, TargetMap.CONJUGATE),
                      ProbeSpec.phase_vector(np.concatenate(
                          [standard_probe(gram(b)).phases for b in blocks]))))
    rng = np.random.default_rng(5)
    cases += [(random_near_dependent_triple(rng), None) for _ in range(20)]
    return cases + [_singular_schur_block_set()]


def _search_pin(ss, policy, probe=None):
    """One search as pinned: its float.hex bits, or None if it refuses."""
    try:
        res = search_gamma(ss, policy, probe)
    except NoFeasiblePoint:
        return None
    return {"gammas": [float(g).hex() for g in res.gammas],
            "boundary_lambda_min": float(res.boundary_lambda_min).hex(),
            "iterations": res.iterations}


# Both searches on the first 20 _coordinate_sets, and the oracle and triple
# bound on _oracle_triples, as float.hex (null: the bound raises), recorded
# before the per-call work around the rule was cut: a change to the bits of
# point_rule moves these, where the plain bisection above would move with it.
# "wide_searches": both searches on _wide_pin_cases (null: NoFeasiblePoint),
# recorded before COORDINATE built M once per point instead of once per step.
PINS = json.loads(Path(__file__).with_name("search_pins.json").read_text())


def test_searches_keep_their_pinned_bits():
    cases = [(ss, None) for ss in _coordinate_sets(len(PINS["searches"]))]
    for (ss, probe), pinned in zip(cases + _wide_pin_cases(),
                                   PINS["searches"] + PINS["wide_searches"],
                                   strict=True):
        for policy in GammaPolicy:
            assert pinned[policy.value] == _search_pin(ss, policy, probe)


def test_oracle_and_triple_bound_keep_their_pinned_bits():
    for ss, pinned in zip(_oracle_triples(), PINS["triples"], strict=True):
        gm = gram(ss)
        oracle = grid_oracle_triple(gm, standard_probe(gm))
        assert oracle.hex() == pinned["grid_oracle_triple"]
        inp = TripleBoundInput.from_gram(gm)
        if pinned["gamma_max_triple"] is None:
            with pytest.raises(DegenerateDeterminant):
                gamma_max_triple(inp)
        else:
            assert gamma_max_triple(inp).hex() == pinned["gamma_max_triple"]


def test_coordinate_repeats_no_step_at_an_unchanged_point():
    """A step is a function of the point, so one that made no move is not
    made again there: mean evaluations 28.655 stepping every coordinate in
    every sweep, 24.495 with the skip."""
    iterations = [search_gamma(ss, GammaPolicy.COORDINATE).iterations
                  for ss in _coordinate_sets(200)]
    assert np.mean(iterations) <= 24.5


def test_coordinate_builds_each_point_once(monkeypatch):
    """Each step takes its block from the one ``M + PSD_TOL min(gamma) I``
    of its point, built when the ascent starts and after each move, so no
    point is built twice: over these sets a search built M 17.79 times,
    once per step, where it now builds it 2.8 times, once per point."""
    built = []
    scaled_constraint = optimizer.scaled_constraint

    def recorded(g, k, gammas):
        built.append(gammas.tobytes())
        return scaled_constraint(g, k, gammas)

    monkeypatch.setattr(optimizer, "scaled_constraint", recorded)
    for ss in _coordinate_sets(200):
        built.clear()
        search_gamma(ss, GammaPolicy.COORDINATE)
        assert built and len(set(built)) == len(built)


def test_search_reports_the_edge_of_its_last_accepted_test(monkeypatch):
    """``boundary_lambda_min`` is the rule's value at the result, taken
    from the test that accepted it: the search calls the rule once per
    feasibility test, which is each evaluation but the Schur solves and
    EQUAL's eigenproblem (made when gamma = 1 is refused).  A Schur solve
    is a solve against the two columns ``[g, h]``."""
    verdicts, solves = [], []
    solve = np.linalg.solve

    def counted_rule(g, k, gammas):
        out = point_rule(g, k, gammas)
        verdicts.append(out[0])
        return out

    def counted_solve(a, b):
        if b.shape == (9, 2):
            solves.append(a.shape)
        return solve(a, b)

    monkeypatch.setattr(optimizer, "point_rule", counted_rule)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    for ss in _coordinate_sets(200):
        g, probe = gram(ss).matrix, standard_probe(gram(ss))
        for policy in GammaPolicy:
            verdicts.clear(), solves.clear()
            res = search_gamma(ss, policy)
            eigenproblem = not verdicts[0]
            assert len(verdicts) == res.iterations - len(solves) - eigenproblem
            fresh = point_rule(g, constraint_kernel(g, probe), res.gammas)
            assert res.boundary_lambda_min == fresh[1]


def test_search_keeps_a_tiny_certified_efficiency():
    """The 278th near-dependent triple of ``default_rng(5)`` passes the null
    test, and its equal-efficiency edge, about 4e-10, is below ``PSD_TOL``.
    The point rule accepts it, so both policies return the triple bound (a
    floor at ``PSD_TOL`` refused it) and the machine there verifies."""
    rng = np.random.default_rng(5)
    for _ in range(277):
        random_near_dependent_triple(rng)
    ss = random_near_dependent_triple(rng)
    bound = gamma_max_triple(TripleBoundInput.from_gram(gram(ss)))
    assert bound < PSD_TOL
    for policy in GammaPolicy:
        res = search_gamma(ss, policy)
        np.testing.assert_allclose(res.gammas, bound, rtol=1e-6)
        assert verify_machine(synthesize_with(ss, res.gammas, res.probe),
                              ss).all_ok


def test_search_refuses_when_no_retreat_rung_is_certified():
    """A real dependent triple with the full-Gram probe ``(1 - e) J + e I``,
    ``e = 5e-9``: ``K N = e N`` on the null vector ``N`` of ``G`` passes the
    null test, but ``lambda_min(M) = -e gamma`` at every equal point, below
    ``-PSD_TOL gamma``, so no rung of EQUAL's retreat passes."""
    rng = np.random.default_rng(8)
    a, b = (random_state(rng, 2, real=True).amps for _ in range(2))
    ss = StateSet(tuple(map(QuditState.normalized, (a, b, a + b))),
                  TargetMap.CONJUGATE)
    e = 5e-9
    probe = ProbeSpec.full_gram((1.0 - e) * np.ones((3, 3)) + e * np.eye(3))
    for policy in GammaPolicy:
        with pytest.raises(NoFeasiblePoint, match="certified"):
            search_gamma(ss, policy, probe)


def test_equal_search_on_near_parallel_pairs():
    """Pairs 1e-9 from parallel, with a random relative phase, have a Gram
    singular to rounding; the rank decision takes them to range(G), where
    the edge is gamma ~ 1.  A PSD test at 0 instead of PSD_TOL is decided
    by rounding on null(G) (about 1e-16): it refused 15 of these 200 and
    returned gamma below 1 - 1e-7 on 24 more."""
    rng = np.random.default_rng(563)
    for _ in range(200):
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        b = (a * np.exp(2j * np.pi * rng.random())
             + 1e-9 * (rng.normal(size=2) + 1j * rng.normal(size=2)))
        ss = StateSet((QuditState.normalized(a), QuditState.normalized(b)),
                      TargetMap.CONJUGATE)
        res = search_gamma(ss, GammaPolicy.EQUAL)
        assert res.gammas.min() >= 0.9999999
        assert verify_machine(synthesize_with(ss, res.gammas, res.probe),
                              ss).all_ok


def test_search_policy_must_be_a_gamma_policy():
    ss = random_independent_set(np.random.default_rng(1), 4, 4,
                                TargetMap.CONJUGATE)
    with pytest.raises(ValueError, match="policy"):
        search_gamma(ss, "coordinate")


def test_search_honors_custom_probe():
    rng = np.random.default_rng(39)
    ss = random_independent_set(rng, 3, 3, TargetMap.CONJUGATE)
    probe = ProbeSpec.phase_vector([0.0, 0.1, 0.2])
    res = search_gamma(ss, probe=probe)
    assert res.probe is probe
    m = constraint_matrix(gram(ss), res.gammas, probe)
    assert np.linalg.eigvalsh(m).min() >= -1e-9


def test_searches_refuse_a_probe_of_the_wrong_size():
    rng = np.random.default_rng(40)
    ss = random_independent_set(rng, 2, 2, TargetMap.CONJUGATE)
    probe = ProbeSpec.phase_vector([0.0, 1.0, 2.0])
    for policy in GammaPolicy:
        with pytest.raises(InvalidProbe, match="3 states for 2"):
            search_gamma(ss, policy, probe)
    with pytest.raises(InvalidProbe, match="3 states for 2"):
        grid_oracle_triple(gram(ss), probe)
