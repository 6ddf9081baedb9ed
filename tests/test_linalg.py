import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_independent_set, random_state
from oracles import psd_by_minors
from qnot import (
    DimensionMismatch,
    GramMismatch,
    InvalidProbeGram,
    NotHermitian,
    NotPSD,
    NotSquare,
    ProbeSpec,
    TargetMap,
    gram,
    is_psd,
    psd_sqrt,
    unitary_completion,
)
from qnot.linalg import RANK_TOL, null_count, range_null, smallest_eigenvalue


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return a + a.conj().T


class TestIsPsd:
    def test_zero_matrix(self):
        assert is_psd(np.zeros((3, 3)))

    def test_indefinite_2x2(self):
        assert not is_psd([[1.0, 2.0], [2.0, 1.0]])

    def test_gram_minus_scaled_conjugate(self):
        # a Gram minus eta * lambda_min/lambda_max times its conjugate
        # stays PSD -- this is the margin the synthesizer relies on
        rng = np.random.default_rng(12)
        ss = random_independent_set(rng, 3, 3, TargetMap.CONJUGATE)
        g = gram(ss).matrix
        eig = np.linalg.eigvalsh(g)
        eps = 0.999 * eig.min() / eig.max()
        assert is_psd(g - eps * np.conj(g))

    def test_matches_principal_minors_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            if rng.random() < 0.5:
                m = random_hermitian(rng, n)
            else:
                v = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                m = v.conj().T @ v
            assert is_psd(m) == psd_by_minors(m)

    def test_tolerance_floor(self):
        assert is_psd(np.diag([1.0, -1e-10]))
        assert not is_psd(np.diag([1.0, -1e-6]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            is_psd([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_nan(self):
        with pytest.raises(NotHermitian):
            is_psd([[np.nan, 0.0], [0.0, 1.0]])

    def test_rejects_non_square(self):
        with pytest.raises(NotSquare):
            is_psd(np.zeros((2, 3)))


class TestPsdSqrt:
    def test_identity(self):
        np.testing.assert_allclose(psd_sqrt(np.eye(4)), np.eye(4), atol=1e-12)

    def test_diagonal(self):
        np.testing.assert_allclose(psd_sqrt(np.diag([4.0, 9.0])),
                                   np.diag([2.0, 3.0]), atol=1e-12)

    def test_squares_back_and_is_hermitian(self):
        rng = np.random.default_rng(21)
        for n in (2, 3, 5):
            v = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            m = v.conj().T @ v
            c = psd_sqrt(m)
            np.testing.assert_allclose(c @ c, m, atol=1e-9)
            np.testing.assert_allclose(c, c.conj().T, atol=1e-12)
            assert is_psd(c)

    def test_clamps_tiny_negatives(self):
        c = psd_sqrt(np.diag([1.0, -5e-11]))
        np.testing.assert_allclose(c, np.diag([1.0, 0.0]), atol=1e-5)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSD):
            psd_sqrt(np.diag([1.0, -1e-3]))

    def test_rejects_non_hermitian_and_nan(self):
        with pytest.raises(NotHermitian):
            psd_sqrt([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NotHermitian):
            psd_sqrt([[1.0, np.nan], [np.nan, 1.0]])

    def test_rejects_non_square(self):
        with pytest.raises(NotSquare):
            psd_sqrt(np.zeros((2, 3)))

    def test_empty_matrix(self):
        assert psd_sqrt(np.zeros((0, 0))).shape == (0, 0)


@pytest.mark.parametrize("n", [3, 4, 10])
def test_smallest_eigenvalue_of_a_stack_is_that_of_each_matrix(n):
    """A stack over leading axes gives each matrix's own float, bit for bit."""
    rng = np.random.default_rng(70 + n)
    stack = np.array([random_hermitian(rng, n) for _ in range(24)])
    stack = stack.reshape(2, 12, n, n)
    lam = smallest_eigenvalue(stack)
    assert lam.shape == (2, 12)
    singles = [smallest_eigenvalue(m) for m in stack.reshape(24, n, n)]
    assert all(type(x) is float for x in singles)
    assert [float(x).hex() for x in lam.ravel()] == [x.hex() for x in singles]


def test_smallest_eigenvalue_of_an_empty_matrix_is_zero():
    lam = smallest_eigenvalue(np.zeros((0, 0)))
    assert type(lam) is float and lam == 0.0
    assert np.array_equal(smallest_eigenvalue(np.zeros((3, 0, 0))), np.zeros(3))


@pytest.mark.parametrize("lam, accepted", [(-5e-10, True), (-2e-9, False)])
def test_one_psd_tolerance(lam, accepted):
    """is_psd, psd_sqrt and probe Grams draw the PSD line in one place."""
    m = np.diag([1.0, lam])
    # eigenvalues 2 - lam and lam
    probe_gram = [[1.0, 1.0 - lam], [1.0 - lam, 1.0]]
    assert is_psd(m) is accepted
    if accepted:
        psd_sqrt(m)
        ProbeSpec.full_gram(probe_gram)
    else:
        with pytest.raises(NotPSD):
            psd_sqrt(m)
        with pytest.raises(InvalidProbeGram):
            ProbeSpec.full_gram(probe_gram)


class TestUnitaryCompletion:
    def test_basis_swap(self):
        e0, e1 = np.eye(2)
        u = unitary_completion([e0, e1], [e1, e0])
        np.testing.assert_allclose(u @ e0, e1, atol=1e-12)
        np.testing.assert_allclose(u @ e1, e0, atol=1e-12)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)

    def test_plus_minus_to_complements(self):
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        minus = np.array([1.0, -1.0]) / np.sqrt(2)
        u = unitary_completion([plus, minus],
                               [np.array([-1.0, 1.0]) / np.sqrt(2),
                                np.array([1.0, 1.0]) / np.sqrt(2)])
        np.testing.assert_allclose(u @ plus,
                                   np.array([-1.0, 1.0]) / np.sqrt(2),
                                   atol=1e-8)

    def test_dependent_inputs_are_fine(self):
        rng = np.random.default_rng(31)
        v = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, _ = np.linalg.qr(v)
        xs = [random_state(rng, 4).amps for _ in range(2)]
        xs.append((xs[0] + xs[1]) / np.linalg.norm(xs[0] + xs[1]))
        xs.append(xs[0])
        ys = [q @ x for x in xs]
        u = unitary_completion(xs, ys)
        for x, y in zip(xs, ys):
            np.testing.assert_allclose(u @ x, y, atol=1e-8)

    def test_preserves_gram_and_unitarity(self):
        rng = np.random.default_rng(32)
        for _ in range(25):
            dim = int(rng.integers(2, 6))
            n = int(rng.integers(1, 2 * dim))
            v = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            q, _ = np.linalg.qr(v)
            xs = [random_state(rng, dim).amps for _ in range(n)]
            ys = [q @ x for x in xs]
            u = unitary_completion(xs, ys)
            np.testing.assert_allclose(u.conj().T @ u, np.eye(dim),
                                       atol=1e-9)
            x_mat = np.stack(xs, axis=1)
            np.testing.assert_allclose(
                (u @ x_mat).conj().T @ (u @ x_mat), x_mat.conj().T @ x_mat,
                atol=1e-8)

    def test_near_dependent_families_stay_unitary(self):
        """Rank-2 families plus noise of 1e-10 to 1e-9 per vector.

        Residual norms then sit next to any rank threshold: a completion
        that orthonormalizes them loses about 1e-7 of unitarity.
        """
        rng = np.random.default_rng(34)
        s, k, rank = 5, 5, 2
        for _ in range(20):
            basis = rng.normal(size=(s, rank)) + 1j * rng.normal(size=(s, rank))
            x = basis @ (rng.normal(size=(rank, k))
                         + 1j * rng.normal(size=(rank, k)))
            x /= np.linalg.norm(x, axis=0)
            noise = rng.normal(size=(s, k)) + 1j * rng.normal(size=(s, k))
            x += 10 ** rng.uniform(-10, -9, size=k) * noise
            v = rng.normal(size=(s, s)) + 1j * rng.normal(size=(s, s))
            y = np.linalg.qr(v)[0] @ x
            u = unitary_completion(x.T, y.T)
            assert np.abs(u.conj().T @ u - np.eye(s)).max() < 1e-10
            assert np.abs(u @ x - y).max() < 1e-8

    def test_gram_mismatch_rejected_with_location(self):
        e0, e1 = np.eye(2)
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        with pytest.raises(GramMismatch) as err:
            unitary_completion([e0, plus], [e0, e1])
        assert err.value.indices == (0, 1)
        assert abs(err.value.deviation - 1 / np.sqrt(2)) < 1e-12

    @pytest.mark.parametrize("shape", ["independent", "dependent", "overfull"])
    def test_zero_padded_families(self, shape):
        """Identity off the support, and the dense answer on it.

        The family lives on 6 scattered rows of a 40-dimensional space;
        ``overfull`` holds more vectors (k = 9) than support rows.
        """
        rng = np.random.default_rng(33)
        s, dim = 6, 40
        k = {"independent": 3, "dependent": 5, "overfull": 9}[shape]
        x = rng.normal(size=(s, k)) + 1j * rng.normal(size=(s, k))
        if shape == "dependent":
            x[:, 3:] = x[:, :3] @ rng.normal(size=(3, 2))
        x /= np.linalg.norm(x, axis=0)
        v = rng.normal(size=(s, s)) + 1j * rng.normal(size=(s, s))
        y = np.linalg.qr(v)[0] @ x
        rows = np.sort(rng.choice(dim, size=s, replace=False))
        x_pad = np.zeros((dim, k), complex)
        y_pad = np.zeros((dim, k), complex)
        x_pad[rows], y_pad[rows] = x, y
        u = unitary_completion(x_pad.T, y_pad.T)
        off = np.setdiff1d(np.arange(dim), rows)
        assert np.array_equal(u[off], np.eye(dim)[off])
        assert np.array_equal(u[:, off], np.eye(dim)[:, off])
        assert np.abs(u @ x_pad - y_pad).max() < 1e-10
        assert np.abs(u.conj().T @ u - np.eye(dim)).max() < 1e-10
        # full support on its own rows: the block is the dense completion
        assert np.array_equal(u[np.ix_(rows, rows)],
                              unitary_completion(x.T, y.T))

    def test_support_joins_input_and_output_rows(self):
        e = np.eye(6)
        u = unitary_completion([e[1], e[2]], [e[4], e[2]])
        np.testing.assert_allclose(u @ e[1], e[4], atol=1e-12)
        assert abs(u[1, 4]) == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(u[np.ix_([0, 3, 5], [0, 3, 5])], np.eye(3))

    def test_all_zero_family_gives_identity(self):
        zero = np.zeros(5)
        u = unitary_completion([zero, zero], [zero, zero])
        assert np.array_equal(u, np.eye(5))

    @pytest.mark.parametrize("bad", [
        np.nan,
        # inf * 0 in the Gram product warns before the Gram test refuses
        pytest.param(np.inf, marks=pytest.mark.filterwarnings(
            "ignore:invalid value encountered in matmul:RuntimeWarning"))])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(GramMismatch):
            unitary_completion([[bad, 0.0]], [[1.0, 0.0]])
        with pytest.raises(GramMismatch):
            unitary_completion([[1.0, 0.0]], [[0.0, bad]])

    def test_dimension_mismatches_rejected(self):
        e0, e1 = np.eye(2)
        with pytest.raises(DimensionMismatch):
            unitary_completion([e0], [e0, e1])
        with pytest.raises(DimensionMismatch):
            unitary_completion([e0], [np.array([1.0, 0.0, 0.0])])
        with pytest.raises(DimensionMismatch):
            unitary_completion([e0, np.ones(3)], [e0, np.ones(3)])
        with pytest.raises(DimensionMismatch):
            unitary_completion([], [])


# (s, k, rank): s support rows, k vectors spanning ``rank`` dimensions
COMPLETION_SHAPES = {
    "square-qr-free": (4, 4, 4),
    "s=2k": (6, 3, 3),
    "rank-deficient": (6, 4, 2),
    "dependent-k>s": (3, 7, 3),
    "dependent-rank-1": (4, 6, 1),
    "s>2k": (9, 3, 3),
    "s>2k-rank-deficient": (11, 4, 2),
}


def _families(rng, s, k, rank):
    """``k`` unit vectors on all ``s`` rows spanning ``rank`` dimensions, and
    their images under a random unitary."""
    basis = rng.normal(size=(s, rank)) + 1j * rng.normal(size=(s, rank))
    x = basis @ (rng.normal(size=(rank, k)) + 1j * rng.normal(size=(rank, k)))
    x /= np.linalg.norm(x, axis=0)
    v = rng.normal(size=(s, s)) + 1j * rng.normal(size=(s, s))
    return x, np.linalg.qr(v)[0] @ x


def _support(x, y):
    """The rows where some column of ``x`` or ``y`` is nonzero."""
    return np.flatnonzero((x != 0).any(axis=1) | (y != 0).any(axis=1))


@pytest.mark.parametrize("shape", COMPLETION_SHAPES.values(),
                         ids=COMPLETION_SHAPES)
def test_completion_in_both_regimes(shape, monkeypatch):
    """``s <= 2k`` takes the polar factor on the support directly; ``s >
    2k`` shrinks it with one QR.  Both map every input to its output, are
    unitary, leave the identity off the support and refuse a Gram miss."""
    s, k, rank = shape
    qr_calls, qr = [], np.linalg.qr

    def counted_qr(a, *args):
        qr_calls.append(a.shape)
        return qr(a, *args)

    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    rng = np.random.default_rng(35)
    x, y = _families(rng, s, k, rank)
    qr_calls.clear()
    support = _support(x, y)
    block = unitary_completion(x.T, y.T)[np.ix_(support, support)]
    assert qr_calls == ([] if s <= 2 * k else [(s, 2 * k)])
    np.testing.assert_array_equal(support, np.arange(s))
    assert np.abs(block @ x - y).max() < 1e-12
    assert np.abs(block.conj().T @ block - np.eye(s)).max() < 1e-13
    dim = s + 5
    rows = np.sort(rng.choice(dim, size=s, replace=False))
    x_pad = np.zeros((dim, k), complex)
    y_pad = np.zeros((dim, k), complex)
    x_pad[rows], y_pad[rows] = x, y
    u = unitary_completion(x_pad.T, y_pad.T)
    off = np.setdiff1d(np.arange(dim), rows)
    assert np.array_equal(u[off], np.eye(dim)[off])
    assert np.array_equal(u[:, off], np.eye(dim)[:, off])
    assert np.abs(u @ x_pad - y_pad).max() < 1e-12
    y[:, -1] *= 1.5
    with pytest.raises(GramMismatch):
        unitary_completion(x.T, y.T)


def _general_layout(pad):
    """A general-path machine's branches on the rows they touch: the inputs
    and success branches on the rows (i, 0), the failure amplitudes on the
    n rows (0, j) that no input reaches.  ``pad`` trailing system rows are
    zero in every vector, so they fall off the support."""
    rng = np.random.default_rng(36)
    n, d = 4 - pad, 4
    psi = np.zeros((d, n), complex)
    psi[:d - pad] = random_independent_set(rng, n, d - pad,
                                           TargetMap.CONJUGATE).matrix()
    g = psi.conj().T @ psi
    lam = np.linalg.eigvalsh(g)
    gamma = 0.5 * lam[0] / lam[-1]
    x, y = np.zeros((2, n + d, n), complex)
    system = np.r_[0, n + 1:n + d]
    x[system] = psi
    y[system] = np.sqrt(gamma) * np.conj(psi)
    y[1:n + 1] = np.linalg.cholesky(g - gamma * np.conj(g)).conj().T
    return x, y


SPARE_ROW_CASES = {
    "general": lambda: _general_layout(0),
    "zero-padded": lambda: _general_layout(1),
    "not-qubit": lambda: (np.array([[1.0 + 0j], [0.0]]),
                          np.array([[0.0 + 0j], [1.0]])),
}


@pytest.mark.parametrize("make", SPARE_ROW_CASES.values(),
                         ids=SPARE_ROW_CASES)
def test_completion_on_the_input_columns(make, monkeypatch):
    """Support rows that no input reaches (``s <= 2k``): one SVD of the
    ``s x s`` cross product ``Y X^dag``, whose columns on those rows are
    zero, and the block still maps every input, is unitary, leaves the
    identity off the support and refuses a Gram miss."""
    x, y = make()
    svd_shapes, svd = [], np.linalg.svd

    def counted_svd(a, *args):
        svd_shapes.append(a.shape)
        return svd(a, *args)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    support = _support(x, y)
    block = unitary_completion(x.T, y.T)[np.ix_(support, support)]
    s, used = support.size, (x[support] != 0).any(axis=1)
    assert s <= 2 * x.shape[1] and 0 < used.sum() < s
    assert svd_shapes == [(s, s)]
    assert np.abs(block @ x[support] - y[support]).max() < 1e-12
    assert np.abs(block.conj().T @ block - np.eye(s)).max() < 1e-13
    rng = np.random.default_rng(37)
    dim = x.shape[0] + 5
    rows = np.sort(rng.choice(dim, size=x.shape[0], replace=False))
    x_pad, y_pad = np.zeros((2, dim, x.shape[1]), complex)
    x_pad[rows], y_pad[rows] = x, y
    u = unitary_completion(x_pad.T, y_pad.T)
    off = np.setdiff1d(np.arange(dim), rows[support])
    assert np.array_equal(u[off], np.eye(dim)[off])
    assert np.array_equal(u[:, off], np.eye(dim)[:, off])
    np.testing.assert_array_equal(u[np.ix_(rows[support], rows[support])],
                                  block)
    y[:, -1] *= 1.5
    with pytest.raises(GramMismatch):
        unitary_completion(x.T, y.T)


@pytest.mark.parametrize(
    "shape", [v for v in COMPLETION_SHAPES.values() if v[0] <= 2 * v[1]],
    ids=[key for key, v in COMPLETION_SHAPES.items() if v[0] <= 2 * v[1]])
def test_inputs_on_every_row_keep_the_square_svd(shape):
    """Where every support row carries an input, the block is the polar
    factor of the ``s x s`` SVD, bit for bit."""
    x, y = _families(np.random.default_rng(38), *shape)
    w, _, vh = np.linalg.svd(y @ x.conj().T)
    support = _support(x, y)
    np.testing.assert_array_equal(
        unitary_completion(x.T, y.T)[np.ix_(support, support)], w @ vh)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=2, max_value=5))
def test_completion_roundtrip_property(seed, dim):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, dim + 2))
    v = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(v)
    xs = [random_state(rng, dim).amps for _ in range(n)]
    ys = [q @ x for x in xs]
    u = unitary_completion(xs, ys)
    for x, y in zip(xs, ys):
        assert np.linalg.norm(u @ x - y) < 1e-8


@settings(max_examples=75, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=1, max_value=64),
       st.sampled_from(["independent", "dependent", "near_dependent",
                        "identity", "overfull"]),
       st.integers(min_value=0, max_value=64))
def test_subspace_completion_property(seed, dim, shape, pad):
    """Unitary and exact on the pairs for spans far smaller than the space.

    ``dependent`` draws k vectors of rank at most k // 2 + 1,
    ``near_dependent`` adds noise of 10^U(-12, -6) to that draw, ``identity``
    maps a family to itself (the two spans coincide) and ``overfull``
    draws more vectors than the dimension.  With ``pad`` positive the
    family is scattered onto ``dim`` of ``dim + pad`` rows, the rest zero:
    then every row and column off those rows must be the identity's.
    """
    rng = np.random.default_rng(seed)
    if shape == "overfull":
        k = int(rng.integers(dim + 1, 2 * dim + 2))
    else:
        k = int(rng.integers(1, max(2, dim // 4) + 1))
    dependent = shape in ("dependent", "near_dependent")
    rank = k // 2 + 1 if dependent else k
    basis = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    mix = rng.normal(size=(rank, k)) + 1j * rng.normal(size=(rank, k))
    x = basis @ mix if dependent else (
        rng.normal(size=(dim, k)) + 1j * rng.normal(size=(dim, k)))
    if shape == "near_dependent":
        x += 10 ** rng.uniform(-12, -6) * (
            rng.normal(size=x.shape) + 1j * rng.normal(size=x.shape))
    x /= np.linalg.norm(x, axis=0)
    if shape == "identity":
        y = x.copy()
    else:
        v = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        y = np.linalg.qr(v)[0] @ x
    rows = np.sort(rng.choice(dim + pad, size=dim, replace=False))
    x_pad = np.zeros((dim + pad, x.shape[1]), complex)
    y_pad = np.zeros_like(x_pad)
    x_pad[rows], y_pad[rows] = x, y
    x, y, dim = x_pad, y_pad, dim + pad
    u = unitary_completion(x.T, y.T)
    assert np.abs(u.conj().T @ u - np.eye(dim)).max() < 1e-10
    if shape == "near_dependent":
        # the noise directions are resolved only to about eps / noise
        assert np.abs(u @ x - y).max() < 1e-8
    else:
        assert np.abs(u @ x - y).max() < 1e-10
    off = np.setdiff1d(np.arange(dim), rows)
    assert np.array_equal(u[off], np.eye(dim)[off])
    assert np.array_equal(u[:, off], np.eye(dim)[:, off])


class TestRankDecision:
    def test_zeroes_eigenvalues_relative_to_the_largest(self):
        scale = RANK_TOL * 3 * 2.0
        assert null_count(np.array([0.0, 1.0, 2.0])) == 1
        assert null_count(np.array([scale, 1.0, 2.0])) == 1
        assert null_count(np.array([2.0 * scale, 1.0, 2.0])) == 0
        # scaling the matrix does not change the decision
        assert null_count(1e-6 * np.array([scale, 1.0, 2.0])) == 1

    def test_near_parallel_pair_has_rank_one(self):
        rng = np.random.default_rng(563)
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        b = a + 1e-9 * (rng.normal(size=2) + 1j * rng.normal(size=2))
        psi = np.stack([a / np.linalg.norm(a), b / np.linalg.norm(b)], 1)
        g = psi.conj().T @ psi
        basis, null, spectrum = range_null(g)
        assert basis.shape == null.shape == (2, 1)
        np.testing.assert_array_equal(spectrum, np.linalg.eigh(g)[0])
        assert np.abs(g @ null).max() < 1e-8
        np.testing.assert_allclose(basis.conj().T @ basis, [[1.0]])

    def test_independent_family_has_no_null_space(self):
        rng = np.random.default_rng(15)
        g = gram(random_independent_set(rng, 4, 5,
                                        TargetMap.CONJUGATE)).matrix
        basis, null, spectrum = range_null(g)
        assert null.shape == (4, 0)
        assert null_count(spectrum) == 0 < spectrum[0] <= spectrum[-1]
        assert basis.shape == (4, 4)
