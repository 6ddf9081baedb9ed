import numpy as np

from qnot import QuditState, StateSet, TargetMap, gram

# one verdict line per acceptance criterion, printed after the run
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def random_state(rng, dim, real=False) -> QuditState:
    amps = rng.normal(size=dim)
    if not real:
        amps = amps + 1j * rng.normal(size=dim)
    return QuditState.normalized(amps)


def random_set(rng, n, dim, target, real=False) -> StateSet:
    return StateSet(tuple(random_state(rng, dim, real) for _ in range(n)),
                    target)


def random_independent_set(rng, n, dim, target, min_eig=1e-3) -> StateSet:
    """Random family whose Gram stays safely away from rank deficiency."""
    assert n <= dim
    while True:
        ss = random_set(rng, n, dim, target)
        if np.linalg.eigvalsh(gram(ss).matrix).min() > min_eig:
            return ss


def random_overlapping_pair(rng, target=TargetMap.NOT, dim=2,
                            min_overlap=1e-3) -> StateSet:
    """Two random states with comfortably nonzero overlap."""
    while True:
        ss = random_set(rng, 2, dim, target)
        if abs(ss.states[0].overlap(ss.states[1])) > min_overlap:
            return ss


def qubit(a, b) -> QuditState:
    return QuditState.normalized(np.array([a, b], dtype=complex))


def near_dependent_triple() -> StateSet:
    """Real qutrit triple, the third state 2e-9 off the first two's span."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 2))
    third = x @ [1.0, 1.0] + 2e-9 * rng.normal(size=3)
    return StateSet(tuple(QuditState.normalized(v) for v in (*x.T, third)),
                    TargetMap.CONJUGATE)


def random_near_dependent_triple(rng) -> StateSet:
    """Complex conjugate qutrit triple whose third state is a random complex
    mix of the first two plus complex noise of size 10^U(-9, -2)."""
    x = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    mix = rng.normal(size=2) + 1j * rng.normal(size=2)
    eps = 10.0 ** rng.uniform(-9, -2)
    third = x @ mix + eps * (rng.normal(size=3) + 1j * rng.normal(size=3))
    return StateSet(tuple(QuditState.normalized(v) for v in (*x.T, third)),
                    TargetMap.CONJUGATE)


def worked_triple(phi: float, q: float | None = None) -> StateSet:
    """Dependent qubit triple used in the closed-form boundary checks.

    ``s1 = (|0>+|1>)/sqrt2``, ``s2 = (|0>+i|1>)/sqrt2`` and
    ``s3 = q s1 + r e^{-i phi/2} s2`` with ``q = r`` chosen so that ``s3``
    is normalized.  For this family the third branch phase is 0 and the
    feasible equal efficiencies are exactly the ``gamma`` with
    ``1/2 - 2 gamma + gamma^2/2 + gamma sin(phi) >= 0``.
    """
    if q is None:
        q = 1.0 / np.sqrt(2.0 + np.sqrt(2.0) * np.cos(np.pi / 4 - phi / 2))
    s1 = np.array([1.0, 1.0]) / np.sqrt(2)
    s2 = np.array([1.0, 1.0j]) / np.sqrt(2)
    s3 = q * s1 + q * np.exp(-1j * phi / 2) * s2
    return StateSet((QuditState(s1), QuditState(s2), QuditState(s3)),
                    TargetMap.NOT)
