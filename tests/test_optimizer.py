"""Closed-form and searched efficiency maxima."""
import numpy as np
import pytest

from qnot import (
    DegenerateDeterminant,
    GammaPolicy,
    InvalidProbe,
    NoFeasiblePoint,
    NotPSD,
    ProbeSpec,
    QuditState,
    StateSet,
    TargetMap,
    TripleBoundInput,
    constraint_matrix,
    gamma_max_triple,
    gram,
    grid_oracle_triple,
    search_gamma,
    standard_probe,
)
from qnot.states import GramMatrix

from conftest import random_independent_set, worked_triple
from oracles import cofactor_det

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


def test_degenerate_determinant_raises():
    with pytest.raises(DegenerateDeterminant):
        gamma_max_triple(TripleBoundInput(1.0, 1.0, 1.0, 0.0, 0.0, 0.0))
    dependent = TripleBoundInput.from_gram(gram(worked_triple(0.7)))
    with pytest.raises(DegenerateDeterminant):
        gamma_max_triple(dependent)


# Near-dependent triples (|det| 8.1e-9 and 2.2e-10, above the 1e-12 cut)
# where neither the root of det M nor 1e-9 inside it passes the PSD test:
# the root is 1.37e-8 with lambda_min(M) = -3.0e-9 on the first and 0 on
# the second, while the oracle finds 1.0e-8 and 1.7e-8.
UNCERTIFIED_TRIPLES = [
    TripleBoundInput(0.6184814218435851, 0.7582248613524998,
                     0.5885760250323195, 5.486196772758945,
                     0.4877695367514654, 2.272684129767951),
    TripleBoundInput(0.6532880674500958, 0.6235463204376009,
                     0.9919589245799837, 2.000434124813406,
                     1.7543509159807573, 6.18296334502179),
]


@pytest.mark.parametrize("inp", UNCERTIFIED_TRIPLES,
                         ids=["det-8e-9", "det-2e-10"])
def test_uncertified_boundary_raises(inp):
    with pytest.raises(DegenerateDeterminant):
        gamma_max_triple(inp)


# Near-dependent qutrit triple whose a-root 2.466e-8 has lambda_min(M)
# = -1.87e-9; 1e-9 inside it, 2.366e-8 passes the PSD test.
EDGE_ROOT_TRIPLE = TripleBoundInput(
    0.3892444485631532, 0.3587690037753581, 0.8888065421252748,
    0.7933075239697203, 2.2340284076542902, 0.15664014312309466)


def test_returned_bound_passes_the_psd_test():
    gamma = gamma_max_triple(EDGE_ROOT_TRIPLE)
    assert gamma == pytest.approx(2.366e-8, rel=1e-3)
    m = constraint_matrix(EDGE_ROOT_TRIPLE.gram_matrix(), gamma,
                          EDGE_ROOT_TRIPLE.probe())
    assert np.linalg.eigvalsh(m).min() >= -1e-9


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


def test_search_refuses_an_efficiency_within_the_tolerance():
    """{|0>, |1>, |+i>} has no conjugation machine; the bisection still
    finds gamma = 1e-9, accepted only because lambda_min(M) = -1e-9."""
    s = 1.0 / np.sqrt(2.0)
    ss = StateSet((QuditState([1.0, 0.0]), QuditState([0.0, 1.0]),
                   QuditState([s, 1j * s])), TargetMap.CONJUGATE)
    with pytest.raises(NoFeasiblePoint):
        search_gamma(ss)


@pytest.mark.parametrize("tol", [-1.0, float("nan")])
def test_search_certifies_nothing_at_an_invalid_tolerance(tol):
    """Such a tol accepts no point; the floor at 0 refuses gamma = 0."""
    rng = np.random.default_rng(36)
    ss = random_independent_set(rng, 3, 3, TargetMap.CONJUGATE)
    with pytest.raises(NoFeasiblePoint):
        search_gamma(ss, tol=tol)


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
