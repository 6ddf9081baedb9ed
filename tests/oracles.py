"""Independent reference implementations used only to check the library.

Nothing here calls into qnot's linear algebra: PSD-ness comes from
principal minors (determinants by cofactor expansion), quadratic roots from
the companion matrix, parallelism from a least-squares fit, and the probe
congruence and phase residuals from plain loops and grids.  Deliberately
slow and simple.
"""
from __future__ import annotations

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
