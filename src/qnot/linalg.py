"""Dense Hermitian linear algebra helpers.

Thin wrappers around numpy's eigensolvers plus the unitary-completion
routine that the machine constructions are built on: two tuples of vectors
with identical Gram matrices are related by a unitary, and
:func:`unitary_completion` produces one explicitly.  It completes only
inside the joint span of the two families, and computes only on their
support, the ``s`` coordinates where some vector of either family is
nonzero: for ``k`` independent ``D``-dimensional vectors it costs
``O(s^2 k)``, not ``O(D^2 k)``, plus writing the ``D x D`` identity around
the ``s x s`` block.  Machine branches touch ``s = d + n`` of the
``D = d (n + 1)`` coordinates of system x probe.

Every PSD decision (:func:`is_psd`, :func:`psd_sqrt`, probe Grams and the
feasibility and search code) compares :func:`smallest_eigenvalue` against
``-tol``, and every default ``tol`` is the one :data:`PSD_TOL`, so a matrix
one of them accepts is accepted by all of them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, GramMismatch, NotHermitian, NotPSD, NotSquare

HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-9
GRAM_TOL = 1e-8
RANK_TOL = 1e-9


def _as_complex_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {m.shape}")
    return m


def _require_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    dev = np.abs(m - m.conj().T).max() if m.size else 0.0
    if dev > tol:
        raise NotHermitian(f"max |M - M^dag| = {dev:.3e} exceeds {tol:.1e}")
    return m


@dataclass
class HermEig:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; ``eigenvectors[:, k]`` is the
    unit eigenvector for ``eigenvalues[k]``, with its first component of
    magnitude above 1e-12 rotated to be real and positive so repeated runs
    produce identical output.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def herm_eig(m) -> HermEig:
    """Eigendecomposition of a Hermitian matrix with a fixed phase gauge."""
    m = _require_hermitian(_as_complex_matrix(m))
    vals, vecs = np.linalg.eigh(m)
    big = np.abs(vecs) > 1e-12
    cols = np.flatnonzero(big.any(axis=0))
    if cols.size:
        lead = vecs[big[:, cols].argmax(axis=0), cols]
        vecs[:, cols] *= np.conj(lead) / np.abs(lead)
    return HermEig(vals, vecs)


def smallest_eigenvalue(m: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix (0 for an empty one).

    The one PSD test: a matrix is accepted when this is at least ``-tol``.
    """
    return float(np.linalg.eigvalsh(m).min()) if m.size else 0.0


def is_psd(m, tol: float = PSD_TOL) -> bool:
    """True when the Hermitian matrix has no eigenvalue below ``-tol``."""
    m = _require_hermitian(_as_complex_matrix(m))
    return smallest_eigenvalue(m) >= -tol


def psd_sqrt(m, tol: float = PSD_TOL) -> np.ndarray:
    """Hermitian square root of a positive-semidefinite matrix.

    A matrix that fails the PSD test at ``tol`` raises :class:`NotPSD`;
    otherwise eigenvalues below zero are clamped to zero.
    """
    m = _require_hermitian(_as_complex_matrix(m))
    lam_min = smallest_eigenvalue(m)
    if lam_min < -tol:
        raise NotPSD(f"smallest eigenvalue {lam_min:.3e} is below -{tol:.1e}")
    dec = herm_eig(m)
    clipped = np.clip(dec.eigenvalues, 0.0, None)
    v = dec.eigenvectors
    return v @ np.diag(np.sqrt(clipped)) @ v.conj().T


def gram_of(vectors: np.ndarray) -> np.ndarray:
    """Gram matrix of the columns of ``vectors`` (conjugate-linear first slot)."""
    return vectors.conj().T @ vectors


def _orthonormalize_pair(xs: np.ndarray, ys: np.ndarray, tol: float):
    """Pivoted Gram-Schmidt run on ``xs`` with the pivot order replayed on ``ys``.

    Returns orthonormal bases (as column stacks) for the spans of the two
    vector families.  Each pivot is the remaining column of largest
    residual norm (the lowest index among ties); its projection is then
    removed from every column of both families at once.  Residual columns
    with norm at or below ``tol`` are dropped; because the Gram matrices
    agree, the same columns drop on both sides.
    """
    rx = xs.astype(complex)
    ry = ys.astype(complex)
    remaining = np.ones(xs.shape[1], dtype=bool)
    a_cols, b_cols = [], []
    while remaining.any():
        norms = np.where(remaining, np.linalg.norm(rx, axis=0), -1.0)
        j = int(np.argmax(norms))
        if norms[j] <= tol:
            break
        remaining[j] = False
        a = rx[:, j] / norms[j]
        b = ry[:, j] / np.linalg.norm(ry[:, j])
        a_cols.append(a)
        b_cols.append(b)
        rx -= np.outer(a, a.conj() @ rx)
        ry -= np.outer(b, b.conj() @ ry)
    dim = xs.shape[0]
    a_basis = np.stack(a_cols, axis=1) if a_cols else np.zeros((dim, 0), complex)
    b_basis = np.stack(b_cols, axis=1) if b_cols else np.zeros((dim, 0), complex)
    return a_basis, b_basis


def _extend_to_unitary(basis: np.ndarray) -> np.ndarray:
    """Extend orthonormal columns to a full orthonormal basis.

    The complement comes from the left singular vectors of ``basis``, which
    stays orthonormal to machine precision even when canonical basis vectors
    lie almost inside the existing span.
    """
    dim, k = basis.shape
    if k == dim:
        return basis.copy()
    u = np.linalg.svd(basis, full_matrices=True)[0]
    return np.concatenate([basis, u[:, k:]], axis=1)


def unitary_completion(inputs, outputs, gram_tol: float = GRAM_TOL,
                       rank_tol: float = RANK_TOL) -> np.ndarray:
    """Unitary ``U`` with ``U @ inputs[i] == outputs[i]`` for every pair.

    Pivoted Gram-Schmidt gives orthonormal bases ``A`` and ``B`` of the two
    spans with ``B = U A``.  The completion only acts inside the joint span:
    with ``Q`` an orthonormal basis of ``[A B]`` (thin QR, ``m <= 2k``
    columns for rank ``k``), a small unitary ``R`` on ``Q``'s coordinates
    maps ``Q^dag A`` to ``Q^dag B``, and ``U = I + Q (R - I) Q^dag`` is the
    identity on the orthogonal complement.  All of this runs on the support
    only, the rows where some input or output entry is nonzero (exactly):
    the other rows and columns of ``U`` are exactly those of the identity.
    For ``s`` support rows the cost is ``O(s^2 k)`` rather than the
    ``O(D^3)`` of completing both bases of the full space; a family with
    full support is completed exactly as a dense one, and an all-zero
    family gives the identity.

    Parameters
    ----------
    inputs, outputs : sequences of equal-length complex vectors (or 2-D
        arrays whose rows are the vectors) whose Gram matrices agree
        entrywise within ``gram_tol``.  The families may be linearly
        dependent, and may hold more vectors than their dimension; rank is
        detected with pivoted Gram-Schmidt and residual tolerance
        ``rank_tol``.

    Raises
    ------
    DimensionMismatch
        Counts or vector lengths differ.
    GramMismatch
        Some pair of inner products disagrees beyond ``gram_tol``.
    """
    xs = [np.asarray(v, dtype=complex).ravel() for v in inputs]
    ys = [np.asarray(v, dtype=complex).ravel() for v in outputs]
    if len(xs) != len(ys):
        raise DimensionMismatch(f"{len(xs)} inputs vs {len(ys)} outputs")
    if not xs:
        raise DimensionMismatch("need at least one input/output pair")
    dim = xs[0].size
    for v in xs + ys:
        if v.size != dim:
            raise DimensionMismatch("all vectors must share one dimension")
    x_mat = np.stack(xs, axis=1)
    y_mat = np.stack(ys, axis=1)
    support = np.flatnonzero((x_mat != 0).any(axis=1)
                             | (y_mat != 0).any(axis=1))
    x_mat, y_mat = x_mat[support], y_mat[support]
    gx = gram_of(x_mat)
    gy = gram_of(y_mat)
    dev = np.abs(gx - gy)
    if dev.size and dev.max() > gram_tol:
        i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
        raise GramMismatch(int(i), int(j), float(dev[i, j]))
    a_basis, b_basis = _orthonormalize_pair(x_mat, y_mat, rank_tol)
    q = np.linalg.qr(np.concatenate([a_basis, b_basis], axis=1))[0]
    qh = q.conj().T
    r = (_extend_to_unitary(qh @ b_basis)
         @ _extend_to_unitary(qh @ a_basis).conj().T)
    r[np.diag_indices_from(r)] -= 1.0
    block = (q @ r) @ qh
    block[np.diag_indices_from(block)] += 1.0
    u = np.eye(dim, dtype=complex)
    u[np.ix_(support, support)] = block
    return u
