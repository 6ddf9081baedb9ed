"""Dense Hermitian linear algebra helpers.

The one PSD test, the PSD square root and the unitary-completion routine
that the machine constructions are built on.  The square root takes
``numpy.linalg.eigh`` as it comes: ``V sqrt(L) V^dag`` does not depend on
the phases of the eigenvectors, so none are fixed.  Two tuples
of vectors with identical Gram matrices are related by a unitary, and
:func:`unitary_completion` produces one in closed form, the polar factor
of the families' cross product (orthogonal Procrustes, Schonemann 1966).
It computes only on the families' support, the ``s`` coordinates where
some vector of either family is nonzero: for ``k`` vectors of dimension
``D``, :func:`completion_block` returns that support and the ``s x s``
block, and builds no ``D x D`` array; :func:`unitary_completion`, the
dense form every machine is built by, writes the identity around the
block once.  When ``s <= 2k`` the block is the polar factor itself, from
an SVD of the ``s x c`` columns of the cross product that the ``c`` input
rows reach; when ``s > 2k`` one QR of the two families shrinks that SVD
to ``2k x 2k``, and the block then completes only inside their joint
span, at ``O(s^2 k)``.  The polar factor is unitary to rounding at any
rank, so no rank tolerance decides which vectors count as independent.
Machine branches touch ``s = d + min(n, d)`` of the ``D = 2d``
coordinates of system x probe, of which only the ``d`` system rows carry
an input, so a machine on the general path takes an ``s x d`` SVD when
``d <= n`` and the QR when ``d > n``.

The completion and both exact checks compare Grams by :func:`gram_miss`.
Every PSD decision compares :func:`smallest_eigenvalue` against
``-PSD_TOL`` (:func:`is_psd`, :func:`psd_sqrt`, probe Grams), or, for a
constraint matrix, against ``-PSD_TOL min(gamma)``
(:func:`qnot.feasibility.point_rule`); no caller moves it.  Every rank
decision is :func:`null_count` of a Gram's ``eigh`` spectrum, as in
:func:`range_null`, never of ``eigvalsh`` or an SVD.  The Hermitian and
Gram tests are written so that NaN fails them, so :func:`is_psd`,
:func:`psd_sqrt` and :func:`unitary_completion` refuse a NaN entry.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, GramMismatch, NotHermitian, NotPSD, NotSquare

HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-9
GRAM_TOL = 1e-8
RANK_TOL = 1e-10
ZERO_SUCCESS = 1e-14     # success probability below which no output exists


def _as_complex_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {m.shape}")
    return m


def _require_hermitian(m: np.ndarray) -> np.ndarray:
    dev = np.abs(m - m.conj().T).max() if m.size else 0.0
    if not dev <= HERMITICITY_TOL:
        raise NotHermitian(
            f"max |M - M^dag| = {dev:.3e} exceeds {HERMITICITY_TOL:.1e}")
    return m


def smallest_eigenvalue(m: np.ndarray):
    """Smallest eigenvalue of a Hermitian matrix (0 for an empty one).

    The one PSD test: a matrix is accepted when this is at least ``-PSD_TOL``.
    It is entry 0 of the ascending spectrum ``eigvalsh`` returns, with no
    reduction over it.  One ``n x n`` matrix gives a float; a stack
    ``(..., n, n)`` gives an array over the leading axes, each entry bit for
    bit the float that matrix gives alone (``eigvalsh`` solves a stack one
    matrix at a time).
    """
    lam = (np.linalg.eigvalsh(m)[..., 0] if m.shape[-1]
           else np.zeros(m.shape[:-2]))
    return float(lam) if m.ndim == 2 else lam


def null_count(spectrum: np.ndarray) -> int:
    """The one rank decision: how many of an ascending ``eigh`` spectrum are
    zero, ``lambda <= RANK_TOL * n * lambda_max``."""
    return int(np.count_nonzero(spectrum <= RANK_TOL * spectrum.size
                                * spectrum[-1]))


def range_null(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal range and null bases ``(B, N)`` of PSD ``g``, one ``eigh``."""
    vals, vecs = np.linalg.eigh(g)
    k = null_count(vals)
    return vecs[:, k:], vecs[:, :k]


def is_psd(m) -> bool:
    """True when the Hermitian matrix has no eigenvalue below ``-PSD_TOL``."""
    m = _require_hermitian(_as_complex_matrix(m))
    return smallest_eigenvalue(m) >= -PSD_TOL


def psd_sqrt(m) -> np.ndarray:
    """Hermitian square root of a positive-semidefinite matrix.

    A matrix that fails the PSD test at :data:`PSD_TOL` raises
    :class:`NotPSD`; otherwise eigenvalues below zero are clamped to zero.
    """
    m = _require_hermitian(_as_complex_matrix(m))
    lam_min = smallest_eigenvalue(m)
    if lam_min < -PSD_TOL:
        raise NotPSD(f"smallest eigenvalue {lam_min:.3e} is below -{PSD_TOL:.1e}")
    vals, vecs = np.linalg.eigh(m)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def gram_of(vectors: np.ndarray) -> np.ndarray:
    """Gram matrix of the columns of ``vectors`` (conjugate-linear first slot)."""
    return vectors.conj().T @ vectors


def gram_miss(g: np.ndarray, h: np.ndarray):
    """The one Gram comparison: None when ``max |g - h| <= GRAM_TOL``, else
    the worst entry ``(i, j, |g_ij - h_ij|)``; a NaN entry fails."""
    dev = np.abs(g - h)
    if dev.max(initial=0.0) <= GRAM_TOL:
        return None
    i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
    return int(i), int(j), float(dev[i, j])


def unitary_completion(inputs, outputs) -> np.ndarray:
    """Unitary ``U`` with ``U @ inputs[i] == outputs[i]`` for every pair.

    The dense form of :func:`completion_block`: every row and column of
    ``U`` outside the support is exactly the identity's, and an all-zero
    family gives the identity.

    Parameters
    ----------
    inputs, outputs : sequences of equal-length complex vectors (or 2-D
        arrays whose rows are the vectors) whose Gram matrices agree
        entrywise within :data:`GRAM_TOL`.  The families may be linearly
        dependent, and may hold more vectors than their dimension.

    Raises
    ------
    DimensionMismatch
        A family is empty or ragged, or the counts or vector lengths differ.
    GramMismatch
        Some pair of inner products disagrees beyond :data:`GRAM_TOL`.
    """
    try:
        x_mat = np.array(inputs, dtype=complex, ndmin=2).T
        y_mat = np.array(outputs, dtype=complex, ndmin=2).T
    except ValueError:
        raise DimensionMismatch("all vectors must share one dimension") from None
    if x_mat.ndim != 2 or x_mat.shape != y_mat.shape:
        raise DimensionMismatch(f"inputs {x_mat.shape[::-1]} vs outputs "
                                f"{y_mat.shape[::-1]} (vectors x length)")
    if not x_mat.size:
        raise DimensionMismatch("need at least one input/output pair")
    support, block = completion_block(x_mat, y_mat)
    u = np.eye(x_mat.shape[0], dtype=complex)
    u[np.ix_(support, support)] = block
    return u


def completion_block(x_mat: np.ndarray, y_mat: np.ndarray):
    """``(support, block)`` of the unitary sending each column of ``x_mat``
    to the same column of ``y_mat`` (complex ``D x k`` arrays).

    ``support`` holds, ascending, the ``s`` rows where some input or output
    entry is nonzero (exactly) and ``block`` is ``U`` on those rows and
    columns; every other row and column of ``U`` is the identity's.  With
    ``X`` and ``Y`` the families on the support as columns, equal Grams
    make ``Y = R0 X`` for a unitary ``R0``, so ``A = Y X^dag = R0 X X^dag``
    and every polar factor of ``A`` agrees with ``R0`` on the span of
    ``X``: from the SVD ``W S V^dag`` of ``A``, ``R = W V^dag`` sends each
    input to its output (orthogonal Procrustes).  When ``s <= 2k`` the
    block is ``R`` itself, at ``O(s^2 k + s^3)``.  ``A`` is zero on the
    columns of the support rows no input reaches, so the SVD is taken of
    the ``s x c`` columns the ``c`` others give, ``W S V^dag`` with ``W``
    square: ``R`` is ``W[:, :c] V^dag`` on those columns and ``W[:, c:]``
    on the rest, again a polar factor of ``A``.  When every support row
    carries an input (``c = s``) this is the SVD of ``A`` whole.
    When ``s > 2k`` a thin QR ``Q`` of ``[X Y]`` shrinks the SVD to
    ``2k x 2k``: ``R`` is taken of ``(Q^dag Y)(Q^dag X)^dag`` and
    ``U = I + Q (R - I) Q^dag`` completes only inside the joint span, at
    ``O(s^2 k)``.  As a product of SVD factors ``R`` is unitary to
    rounding whatever the rank of the families, so no rank tolerance is
    needed.  Raises :class:`GramMismatch` when some pair of inner products
    disagrees beyond :data:`GRAM_TOL`.
    """
    used = (x_mat != 0).any(axis=1)
    support = np.flatnonzero(used | (y_mat != 0).any(axis=1))
    x_mat, y_mat, used = x_mat[support], y_mat[support], used[support]
    miss = gram_miss(gram_of(x_mat), gram_of(y_mat))
    if miss:
        raise GramMismatch(*miss)
    if support.size <= 2 * x_mat.shape[1]:
        # a QR would give a square Q: any basis of the support does as well;
        # Y X^dag is zero on the columns no input reaches
        c = int(np.count_nonzero(used))
        w, _, vh = np.linalg.svd(y_mat @ x_mat[used].conj().T)
        block = np.empty((support.size, support.size), complex)
        block[:, used] = w[:, :c] @ vh
        block[:, ~used] = w[:, c:]
        return support, block
    q = np.linalg.qr(np.concatenate([x_mat, y_mat], axis=1))[0]
    qh = q.conj().T
    w, _, vh = np.linalg.svd((qh @ y_mat) @ (qh @ x_mat).conj().T)
    r = w @ vh
    r[np.diag_indices_from(r)] -= 1.0
    block = (q @ r) @ qh
    block[np.diag_indices_from(block)] += 1.0
    return support, block
