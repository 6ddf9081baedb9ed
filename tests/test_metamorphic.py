"""Metamorphic properties (Chen, Cheung & Yiu 1998): answers that a change
in how a set is written down cannot move.

Each set is drawn from a seed, with or without members projected orthogonal
to member 0.  Re-phasing the members, ``psi_i -> exp(i alpha_i) psi_i``,
turns ``G`` into ``D^dag G D`` for a diagonal unitary ``D``; the default
probe follows it, so ``K`` and ``M`` turn the same way, and the probe
check's verdict, EQUAL's efficiencies and whether the machine built there
verifies stay put.  One unitary on every member (SU(2) under NOT, a real
orthogonal matrix under conjugation; both commute with the target map)
leaves ``G`` itself unchanged, so the plain-unitary verdict stays too.

Left out: the plain-unitary verdict under member phases, which legitimately
moves; COORDINATE, whose greedy end point can move by about 7e-5 on a 1e-9
shift of the set; and member permutations, which still move the default
probe.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qnot import (
    NoFeasiblePoint,
    StateSet,
    TargetMap,
    check_exact_unitary,
    check_exact_with_probe,
    check_probabilistic,
    gram,
    search_gamma,
    standard_probe,
    synthesize_with,
    verify_machine,
)

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)
shapes = st.sampled_from([(TargetMap.NOT, 2)]
                         + [(TargetMap.CONJUGATE, d) for d in range(2, 6)])


@st.composite
def drawn_sets(draw):
    """``(rows, target)``: n in 2..d+2 complex Gaussian members, and with
    ``orthogonal`` some of the members after the first projected
    orthogonal to member 0."""
    target, d = draw(shapes)
    n = draw(st.integers(2, d + 2))
    rng = np.random.default_rng(draw(seeds))
    rows = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    rows[0] /= np.linalg.norm(rows[0])
    if draw(st.booleans()):
        count = draw(st.integers(1, n - 1))
        for j in rng.choice(np.arange(1, n), size=count, replace=False):
            rows[j] -= np.vdot(rows[0], rows[j]) * rows[0]
    return rows / np.linalg.norm(rows, axis=1, keepdims=True), target


def equal_point(ss):
    """EQUAL's efficiencies and whether the machine there verifies, or None
    where the search certifies no point."""
    try:
        res = search_gamma(ss)
    except NoFeasiblePoint:
        return None
    machine = synthesize_with(ss, res.gammas, res.probe)
    return res.gammas, verify_machine(machine, ss).all_ok


def assert_same_equal_point(a, b):
    if a is None or b is None:
        assert a is None and b is None
        return
    np.testing.assert_allclose(b[0], a[0], rtol=1e-9, atol=0)
    assert a[1] and b[1]


@settings(max_examples=100, deadline=None)
@given(drawn_sets(), seeds)
def test_member_phases_move_no_answer(drawn, seed):
    rows, target = drawn
    alpha = np.random.default_rng(seed).uniform(0, 2 * np.pi, (len(rows), 1))
    a = StateSet.from_amplitudes(rows, target)
    b = StateSet.from_amplitudes(rows * np.exp(1j * alpha), target)
    assert (check_exact_with_probe(a).feasible
            == check_exact_with_probe(b).feasible)
    assert_same_equal_point(equal_point(a), equal_point(b))


def _shared_unitary(rng, target, d):
    """SU(2) under NOT, a real orthogonal matrix under conjugation."""
    if target is TargetMap.NOT:
        x, y = rng.normal(size=2) + 1j * rng.normal(size=2)
        x, y = np.array([x, y]) / np.hypot(abs(x), abs(y))
        return np.array([[x, -np.conj(y)], [y, np.conj(x)]])
    return np.linalg.qr(rng.normal(size=(d, d)))[0]


@settings(max_examples=100, deadline=None)
@given(drawn_sets(), seeds)
def test_one_unitary_on_every_member_moves_no_answer(drawn, seed):
    rows, target = drawn
    rng = np.random.default_rng(seed)
    u = _shared_unitary(rng, target, rows.shape[1])
    a = StateSet.from_amplitudes(rows, target)
    b = StateSet.from_amplitudes(rows @ u.T, target)
    for check in (check_exact_unitary, check_exact_with_probe):
        assert check(a).feasible == check(b).feasible
    gammas = rng.uniform(0.05, 1.0, len(rows))
    assert (check_probabilistic(a, gammas, standard_probe(gram(a))).feasible
            == check_probabilistic(b, gammas, standard_probe(gram(b))).feasible)
    assert_same_equal_point(equal_point(a), equal_point(b))
