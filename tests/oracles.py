"""Independent reference implementations used only to check the library.

Nothing here calls into qnot's linear algebra: PSD-ness comes from
principal minors (determinants by cofactor expansion), quadratic roots from
the companion matrix, parallelism from a least-squares fit, the probe
congruence, phase residuals and probe witnesses from plain loops and grids,
and the paper's qubit criterion from Bloch vectors.  Deliberately slow and
simple.
"""
from __future__ import annotations

import cmath
import itertools

import numpy as np


def cofactor_det(m) -> complex:
    """Determinant by Laplace expansion along the first row."""
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    if n == 1:
        return complex(m[0, 0])
    total = 0.0 + 0.0j
    rest = list(range(1, n))
    for j in range(n):
        cols = [c for c in range(n) if c != j]
        minor = m[np.ix_(rest, cols)]
        total += (-1) ** j * m[0, j] * cofactor_det(minor)
    return total


def psd_by_minors(m, tol: float = 1e-9) -> bool:
    """PSD test: every principal minor must be nonnegative (within tol)."""
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    for k in range(1, n + 1):
        for idx in itertools.combinations(range(n), k):
            if cofactor_det(m[np.ix_(idx, idx)]).real < -tol:
                return False
    return True


def parallel_fit(v, t):
    """Least-squares scale lam with v ~ lam * t, and the fit residual."""
    t = np.asarray(t, dtype=complex).reshape(-1, 1)
    sol, *_ = np.linalg.lstsq(t, np.asarray(v, dtype=complex), rcond=None)
    lam = complex(sol[0])
    resid = float(np.linalg.norm(v - lam * t.ravel()))
    return lam, resid


def quadratic_roots(a, b, c) -> np.ndarray:
    """Real parts of the roots of a x^2 + b x + c via the companion matrix."""
    return np.sort(np.roots([a, b, c]).real)


def phase_grid_min_residual(g, step: float = 1e-3) -> float:
    """Best achievable overlap-compensation residual over probe phases.

    For a 3x3 Gram ``g``, scans probe phases ``(phi2, phi3)`` on a grid and
    returns ``min over the grid of max_ij |g_ij - conj(g_ij) e^{i(phi_j -
    phi_i)}|`` with ``phi_1 = 0``.  A perfect probe-compensated map needs
    this to vanish.
    """
    g = np.asarray(g, dtype=complex)
    grid = np.arange(0.0, 2.0 * np.pi, step)
    # pair residuals as functions of a single angle x = phi_j - phi_i
    def pair_residual(x, entry):
        return np.abs(entry - np.conj(entry) * np.exp(1j * x))

    r12 = pair_residual(grid, g[0, 1])          # depends on phi2
    r13 = pair_residual(grid, g[0, 2])          # depends on phi3
    best = np.inf
    chunk = 512
    for start in range(0, grid.size, chunk):
        phi2 = grid[start:start + chunk]
        diff = grid[None, :] - phi2[:, None]    # phi3 - phi2
        r23 = pair_residual(diff, g[1, 2])
        worst = np.maximum(r23, np.maximum(r12[start:start + chunk, None],
                                           r13[None, :]))
        best = min(best, float(worst.min()))
    return best


def probe_congruence_loop(th):
    """Worst ``|sin(th[l, j] - th[l, i] - th[i, j])|`` over every triple.

    The plain O(n^3) loop over ``l``, then ``i``, then ``j``; the first
    triple reaching the maximum wins.  Returns ``(residual, [i, j, l])``,
    or ``(0.0, None)`` when every residual is zero.
    """
    n = th.shape[0]
    worst = 0.0
    worst_idx = None
    for l in range(n):
        for i in range(n):
            for j in range(n):
                r = abs(np.sin(th[l, j] - th[l, i] - th[i, j]))
                if r > worst:
                    worst = r
                    worst_idx = [i, j, l]
    return float(worst), worst_idx


def equal_edge_bisection(g, k, tol: float) -> float:
    """Largest shared efficiency with ``lambda_min(G - gamma K) >= -tol gamma``.

    ``1.0`` if it passes, else 70 halvings of ``[0, 1]``; ``G - gamma K``
    is formed directly, not through the library's scaled constraint.
    """
    g = np.asarray(g, dtype=complex)
    k = np.asarray(k, dtype=complex)

    def ok(gamma):
        return np.linalg.eigvalsh(g - gamma * k).min() >= -tol * gamma

    if ok(1.0):
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(70):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if ok(mid) else (lo, mid)
    return lo


def forest_witness(g, zero: float = 1e-12):
    """Probe phases grown along a maximum-|G| spanning forest (Prim).

    Each tree starts at the lowest index not yet placed, at phase 0, and
    repeatedly adds the unplaced ``j`` with the largest ``|g[i, j]| >=
    zero`` over its members ``i``, at ``phi_j = phi_i + 2 arg g[i, j]``:
    along a nonzero overlap every witness has that phase difference.
    Returns the phases and ``max |g_ij - conj(g_ij) e^{i(phi_j - phi_i)}|``.
    """
    g = np.asarray(g, dtype=complex)
    n = g.shape[0]
    phases = [None] * n
    for root in range(n):
        if phases[root] is not None:
            continue
        phases[root] = 0.0
        tree = [root]
        while True:
            best = None
            for i in tree:
                for j in range(n):
                    if phases[j] is None and abs(g[i, j]) >= zero and (
                            best is None or abs(g[i, j]) > abs(g[best])):
                        best = (i, j)
            if best is None:
                break
            i, j = best
            phases[j] = phases[i] + 2.0 * cmath.phase(g[i, j])
            tree.append(j)
    residual = max(abs(g[i, j] - g[i, j].conjugate()
                       * cmath.exp(1j * (phases[j] - phases[i])))
                   for i in range(n) for j in range(n))
    return phases, float(residual)


def great_circle(amps, tol: float = 1e-8) -> bool:
    """Whether qubit states lie on one great circle of the Bloch sphere.

    The paper's qubit criterion for a perfect NOT with a probe (Buzek,
    Hillery & Werner 1999): the Bloch vectors ``(2 Re(a* b), 2 Im(a* b),
    |a|^2 - |b|^2)`` of the rows ``(a, b)`` of ``amps`` lie in one plane
    through the origin, that is the third singular value of their stack,
    padded with zero rows, is at most ``tol``.  Any two states pass.
    """
    amps = np.asarray(amps, dtype=complex)
    a, b = amps[:, 0], amps[:, 1]
    cross = np.conj(a) * b
    bloch = np.stack([2.0 * cross.real, 2.0 * cross.imag,
                      np.abs(a) ** 2 - np.abs(b) ** 2], axis=1)
    padded = np.vstack([bloch, np.zeros((2, 3))])
    return bool(np.linalg.svd(padded, compute_uv=False)[2] <= tol)
