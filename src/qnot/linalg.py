"""Dense Hermitian linear algebra helpers.

The one PSD test, the one rank split of a Gram, the CS repair's PSD
square root and the one SVD kernel every machine is built on.  The
square root takes ``numpy.linalg.eigh`` as it comes: ``V sqrt(L) V^dag``
does not depend on the phases of the eigenvectors, so none are fixed.
:func:`_cross_svd` takes one SVD of the cross map ``A = Y X^dag`` of two
``m x k`` families, inside their joint span when ``2k < m``, and
:func:`_lift` writes a block on that span back as ``I + Q (B - I)
Q^dag``.  Two families with identical Gram matrices are related by a
unitary, and :func:`unitary_completion` builds one in closed form, the
polar factor ``U V^dag`` of their cross map (orthogonal Procrustes,
Schonemann 1966), on the ``s`` rows where some vector of either family
is nonzero (:func:`completion_block`).  The polar factor is unitary to
rounding at any rank, so no rank tolerance decides which vectors count
as independent.  An exact machine completes its ``d`` system rows, with
the QR when ``d > 2n``; a probabilistic machine lifts the CS dilation of
its success map from the same kernel (see :mod:`qnot.synthesis`).

The completion, both exact checks and the probabilistic assembly compare
Grams by :func:`gram_miss`.  Every PSD decision compares
:func:`smallest_eigenvalue` against ``-PSD_TOL`` (:func:`is_psd`,
:func:`psd_sqrt`, probe Grams), or, for a constraint matrix, against
``-PSD_TOL min(gamma)`` (:func:`qnot.feasibility.point_rule`); no caller
moves it.  Every rank decision is :func:`null_count` of a Gram's
``eigh`` spectrum, taken in :func:`range_null` and nowhere else, never
of ``eigvalsh`` or an SVD.  The Hermitian and Gram tests are written so
that NaN fails them, so :func:`is_psd`, :func:`psd_sqrt` and
:func:`unitary_completion` refuse a NaN entry.
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


def range_null(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal range and null bases ``(B, N)`` of PSD ``g`` and its
    ascending spectrum: the one ``eigh`` of a Gram, split by
    :func:`null_count`."""
    vals, vecs = np.linalg.eigh(g)
    k = null_count(vals)
    return vecs[:, k:], vecs[:, :k], vals


def is_psd(m) -> bool:
    """True when the Hermitian matrix has no eigenvalue below ``-PSD_TOL``."""
    m = _require_hermitian(_as_complex_matrix(m))
    return smallest_eigenvalue(m) >= -PSD_TOL


def psd_sqrt(m) -> np.ndarray:
    """Hermitian square root of a PSD matrix, the CS repair's root.

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
    ``X``: from the SVD ``W S V^dag`` of ``A`` (:func:`_cross_svd`), ``R
    = W V^dag`` sends each input to its output (orthogonal Procrustes); a
    support row no input reaches is a zero column of ``A``.  When ``s <=
    2k`` the block is ``R``, at ``O(s^2 k + s^3)``; when ``s > 2k`` the
    SVD is taken inside the families' joint span and :func:`_lift` writes
    ``R`` back, the identity outside that span, at ``O(s^2 k)``.  As a
    product of SVD factors ``R`` is unitary to rounding whatever the rank
    of the families, so no rank tolerance is needed.  Raises
    :class:`GramMismatch` when some pair of inner products disagrees
    beyond :data:`GRAM_TOL`.
    """
    support = np.flatnonzero((x_mat != 0).any(axis=1)
                             | (y_mat != 0).any(axis=1))
    x_mat, y_mat = x_mat[support], y_mat[support]
    miss = gram_miss(gram_of(x_mat), gram_of(y_mat))
    if miss:
        raise GramMismatch(*miss)
    q, w, _, vh = _cross_svd(x_mat, y_mat)
    return support, _lift(q, w @ vh)


def _cross_svd(x: np.ndarray, y: np.ndarray):
    """``(Q, U, S, V^dag)``: one SVD of the cross map ``A = Y X^dag`` of
    two ``m x k`` families.  When ``2k < m`` it is taken inside ``K =
    span[X, Y]``, with the basis ``Q`` of one thin QR of ``[X Y]``, as the
    SVD of ``Q^dag A Q``; otherwise ``K`` is the whole space and ``Q`` is
    None."""
    if 2 * x.shape[1] < x.shape[0]:
        q = np.linalg.qr(np.concatenate([x, y], axis=1))[0]
        qh = q.conj().T
        return (q, *np.linalg.svd((qh @ y) @ (qh @ x).conj().T))
    return (None, *np.linalg.svd(y @ x.conj().T))


def _lift(q, block: np.ndarray) -> np.ndarray:
    """``I + Q (B - I) Q^dag`` for the block ``B`` on ``K`` of
    :func:`_cross_svd`, the identity on the complement of ``K``; ``B``
    itself when ``Q`` is None.  ``B`` is overwritten."""
    if q is None:
        return block
    block[np.diag_indices_from(block)] -= 1.0
    lifted = (q @ block) @ q.conj().T
    lifted[np.diag_indices_from(lifted)] += 1.0
    return lifted
