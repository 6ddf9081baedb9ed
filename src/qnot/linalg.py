"""Dense Hermitian linear algebra helpers.

The one PSD test, the PSD square root and the unitary-completion routine
that the machine constructions are built on.  The square root takes
``numpy.linalg.eigh`` as it comes: ``V sqrt(L) V^dag`` does not depend on
the phases of the eigenvectors, so none are fixed.  Two tuples of vectors
with identical Gram matrices are related by a unitary, and
:func:`unitary_completion` produces one in closed form, the polar factor
of the families' cross product (orthogonal Procrustes, Schonemann 1966).
It completes only inside the joint span of the two families, and computes
only on their support, the ``s`` coordinates where some vector of either
family is nonzero: for ``k`` vectors of dimension ``D`` it costs
``O(s^2 k)``, not ``O(D^2 k)``, plus writing the ``D x D`` identity around
the ``s x s`` block.  The polar factor is unitary to rounding at any rank,
so no rank tolerance decides which vectors count as independent.  Machine
branches touch ``s = d + n`` of the ``D = d (n + 1)`` coordinates of
system x probe.

Every PSD decision (:func:`is_psd`, :func:`psd_sqrt`, probe Grams and the
feasibility and search code) compares :func:`smallest_eigenvalue` against
``-PSD_TOL`` (the searches and the probabilistic check at their ``tol``),
so a matrix one of them accepts is accepted by all of them.  The Hermitian
and Gram tests are written so that NaN fails them, so :func:`is_psd`,
:func:`psd_sqrt` and :func:`unitary_completion` refuse a NaN entry.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, GramMismatch, NotHermitian, NotPSD, NotSquare

HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-9
GRAM_TOL = 1e-8


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


def smallest_eigenvalue(m: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix (0 for an empty one).

    The one PSD test: a matrix is accepted when this is at least ``-PSD_TOL``.
    """
    return float(np.linalg.eigvalsh(m).min()) if m.size else 0.0


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


def unitary_completion(inputs, outputs) -> np.ndarray:
    """Unitary ``U`` with ``U @ inputs[i] == outputs[i]`` for every pair.

    The completion acts only inside the joint span of the two families and
    only on their support, the ``s`` rows where some input or output entry
    is nonzero (exactly); every other row and column of ``U`` is exactly the
    identity's, and an all-zero family gives the identity.  On the support,
    with ``X`` and ``Y`` the families as columns and ``Q`` an orthonormal
    basis of ``[X Y]`` (thin QR), ``U = I + Q (R - I) Q^dag`` where ``R``
    is the polar factor of ``(Q^dag Y)(Q^dag X)^dag``: from its SVD
    ``W S V^dag``, ``R = W V^dag`` (orthogonal Procrustes).  Equal Grams
    make ``Q^dag Y = R0 Q^dag X`` for a unitary ``R0``, and every polar
    factor agrees with ``R0`` on the span of ``Q^dag X``, so ``R`` sends
    each input to its output.  As a product of SVD factors ``R`` is unitary
    to rounding whatever the rank of the families, so no rank tolerance is
    needed.  For ``k`` vectors the cost is ``O(s^2 k)``, plus writing the
    ``D x D`` identity around the ``s x s`` block.

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
    dim = x_mat.shape[0]
    support = np.flatnonzero((x_mat != 0).any(axis=1)
                             | (y_mat != 0).any(axis=1))
    x_mat, y_mat = x_mat[support], y_mat[support]
    dev = np.abs(gram_of(x_mat) - gram_of(y_mat))
    if dev.size and not dev.max() <= GRAM_TOL:
        i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
        raise GramMismatch(int(i), int(j), float(dev[i, j]))
    q = np.linalg.qr(np.concatenate([x_mat, y_mat], axis=1))[0]
    qh = q.conj().T
    w, _, vh = np.linalg.svd((qh @ y_mat) @ (qh @ x_mat).conj().T)
    r = w @ vh
    r[np.diag_indices_from(r)] -= 1.0
    block = (q @ r) @ qh
    block[np.diag_indices_from(block)] += 1.0
    u = np.eye(dim, dtype=complex)
    u[np.ix_(support, support)] = block
    return u
