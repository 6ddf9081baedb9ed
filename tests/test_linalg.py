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
