"""Correctness checks on benchmark outputs, written with plain numpy only.

Nothing here imports qnot: every expected value is recomputed from the
amplitudes the benchmark generated, or is a property the method must have,
so a fault in the program cannot also hide in its check.  Each check
raises :class:`CheckFailed` with a message naming what disagreed.
"""
from __future__ import annotations

import numpy as np

GRAM_TOL = 1e-12
IMAG_TOL = 1e-9          # plain-unitary verdict: Gram real within this
MAP_TOL = 1e-8           # machine outputs, probabilities, witness phases
FIDELITY_TOL = 1e-8
UNITARITY_TOL = 1e-9
PSD_TOL = 1e-9
# The searches stop exactly at lambda_min = -PSD_TOL, so a recomputation in
# another operation order lands on either side of it by about 1e-15.
ROUNDOFF = 1e-12
EQUAL_GAMMA_TOL = 1e-6
TRIPLE_TOL = 1e-5
MC_SIGMAS = 6.0


class CheckFailed(AssertionError):
    """A benchmark output disagrees with its independent recomputation."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def gram(psi: np.ndarray) -> np.ndarray:
    """Gram matrix ``G[i, j] = <psi_i|psi_j>`` of the columns of ``psi``."""
    return psi.conj().T @ psi


def not_targets(psi: np.ndarray) -> np.ndarray:
    """Qubit spin flip ``(a, b) -> (-b*, a*)`` applied to each column."""
    return np.stack([-np.conj(psi[1]), np.conj(psi[0])])


def doubled_phases(g: np.ndarray) -> np.ndarray:
    """Doubled-phase probe ``phi_j = 2 arg G[0, j]``."""
    return 2.0 * np.angle(g[0])


def phase_gram(phases: np.ndarray) -> np.ndarray:
    """Probe Gram ``P[i, j] = exp(i (phi_j - phi_i))``."""
    u = np.exp(1j * np.asarray(phases, dtype=float))
    return np.outer(np.conj(u), u)


def cholesky_equal_bound(g: np.ndarray, phases: np.ndarray) -> float:
    """Largest equal efficiency: ``min(1, 1 / lambda_max(L^-1 K L^-dag))``.

    ``G = L L^dag`` and ``K = conj(G) * P``; ``G - gamma K`` is PSD exactly
    when ``gamma`` is at most this value.
    """
    low = np.linalg.cholesky(g)
    k = np.conj(g) * phase_gram(phases)
    x = np.linalg.solve(low, k)
    y = np.linalg.solve(low, x.conj().T).conj().T
    lam_max = float(np.linalg.eigvalsh(0.5 * (y + y.conj().T)).max())
    return 1.0 if lam_max <= 1.0 else 1.0 / lam_max


def constraint_lambda_min(g: np.ndarray, gammas: np.ndarray,
                          phases: np.ndarray) -> float:
    """Smallest eigenvalue of ``G - sqrt(Gamma) (conj(G) * P) sqrt(Gamma)``."""
    s = np.sqrt(np.asarray(gammas, dtype=float))
    m = g - np.outer(s, s) * np.conj(g) * phase_gram(phases)
    return float(np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min())


def check_gram(g: np.ndarray, program_gram) -> None:
    dev = float(np.abs(np.asarray(program_gram) - g).max())
    _require(dev <= GRAM_TOL, f"qnot Gram differs from numpy's by {dev:.3e}")


def check_plain_verdict(g: np.ndarray, feasible: bool) -> None:
    """Plain unitary is feasible exactly when the Gram is real."""
    worst = float(np.abs(g.imag).max())
    _require(bool(feasible) == (worst <= IMAG_TOL),
             f"plain-unitary verdict {feasible} but max|Im G| = {worst:.3e}")


def witness_residual(g: np.ndarray, phases: np.ndarray) -> float:
    """``max |G_ij - exp(i (phi_j - phi_i)) conj(G_ij)|``."""
    return float(np.abs(g - phase_gram(phases) * np.conj(g)).max())


def check_probe_verdict(g: np.ndarray, feasible: bool,
                        phases: np.ndarray | None) -> None:
    """Probe verdict agrees with the doubled-phase witness recomputed here.

    A feasible verdict must carry phases that make the target Gram equal
    the Gram; an infeasible one must be refuted by the doubled-phase
    witness, which is the witness whenever one exists.
    """
    if feasible:
        _require(phases is not None, "feasible probe verdict without witness")
        res = witness_residual(g, phases)
        _require(res <= MAP_TOL, f"witness phases leave residual {res:.3e}")
    else:
        res = witness_residual(g, doubled_phases(g))
        _require(res > MAP_TOL,
                 f"probe verdict infeasible but witness residual {res:.3e}")


def check_unitary(u: np.ndarray) -> None:
    err = float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())
    _require(err <= UNITARITY_TOL, f"max|U^dag U - I| = {err:.3e}")


def check_conjugating_machine(psi: np.ndarray, u: np.ndarray, probe_dim: int,
                              epsilon: float) -> None:
    """Postselected conjugation with probability ``epsilon`` on every member.

    ``u`` acts on system x probe, system index major; the success block of
    ``U (psi_i x |0>)`` is every ``probe_dim``-th component.
    """
    _require(0.0 < epsilon <= 1.0, f"designed epsilon {epsilon!r} not in (0, 1]")
    blocks = u[::probe_dim, ::probe_dim] @ psi
    probs = np.sum(np.abs(blocks) ** 2, axis=0)
    worst = float(np.abs(probs - epsilon).max())
    _require(worst <= MAP_TOL,
             f"success probability off the designed epsilon by {worst:.3e}")
    overlaps = np.abs(np.sum(psi * blocks, axis=0)) / np.sqrt(probs)
    lowest = float(overlaps.min())
    _require(lowest >= 1.0 - FIDELITY_TOL,
             f"postselected overlap with conj(psi) is {lowest!r}")
    check_unitary(u)


def check_margin(g: np.ndarray, epsilon: float) -> None:
    """``G - epsilon conj(G)`` is strictly positive definite."""
    lam = float(np.linalg.eigvalsh(g - epsilon * np.conj(g)).min())
    _require(lam > 0.0, f"lambda_min(G - eps conj G) = {lam:.3e}")


def check_mc_counts(successes, shots: int, epsilon: float) -> None:
    """Every sampled success count lies within 6 sigma of ``shots * eps``."""
    counts = np.asarray(successes, dtype=float)
    sigma = np.sqrt(shots * epsilon * (1.0 - epsilon))
    dev = float(np.abs(counts - shots * epsilon).max())
    _require(dev <= MC_SIGMAS * sigma,
             f"Monte Carlo count {dev:.1f} from shots*eps, sigma {sigma:.2f}")


def check_equal_gamma(g: np.ndarray, gamma: float) -> None:
    bound = cholesky_equal_bound(g, doubled_phases(g))
    _require(abs(gamma - bound) <= EQUAL_GAMMA_TOL,
             f"equal gamma {gamma!r} vs Cholesky bound {bound!r}")


def check_coordinate_gammas(g: np.ndarray, equal: float,
                            gammas: np.ndarray) -> None:
    gammas = np.asarray(gammas, dtype=float)
    _require(bool(np.all(gammas >= equal)),
             f"coordinate gamma {gammas.min()!r} below equal gamma {equal!r}")
    _require(bool(np.all(gammas <= 1.0)), "coordinate gamma above 1")
    lam = constraint_lambda_min(g, gammas, doubled_phases(g))
    _require(lam >= -PSD_TOL - ROUNDOFF,
             f"coordinate point has lambda_min {lam:.6e}")


def check_triple_gamma(g3: np.ndarray, gamma: float) -> None:
    bound = cholesky_equal_bound(g3, doubled_phases(g3))
    _require(abs(gamma - bound) <= TRIPLE_TOL,
             f"triple closed form {gamma!r} vs Cholesky bound {bound!r}")


def check_probe_machine(psi: np.ndarray, u: np.ndarray,
                        phases: np.ndarray) -> None:
    """``U (psi_i x |0>) = exp(i phi_i) NOT(psi_i) x |0>`` for a qubit probe."""
    e0 = np.array([1.0, 0.0])
    inputs = np.einsum("ai,b->abi", psi, e0).reshape(4, -1)
    want = np.einsum("ai,b->abi", not_targets(psi) * np.exp(1j * phases),
                     e0).reshape(4, -1)
    dev = float(np.abs(u @ inputs - want).max())
    _require(dev <= MAP_TOL, f"probe machine output off by {dev:.3e}")
    check_unitary(u)


def check_not_unitary(psi: np.ndarray, u: np.ndarray) -> None:
    """``U psi_i = NOT(psi_i)`` for a system-only unitary."""
    dev = float(np.abs(u @ psi - not_targets(psi)).max())
    _require(dev <= MAP_TOL, f"plain machine output off by {dev:.3e}")
    check_unitary(u)


def check_simulation(doc: dict, epsilon: float) -> None:
    """A ``qnot simulate`` report: all ok, every p equal to ``epsilon``."""
    _require(doc.get("all_ok") is True, "simulate did not report all_ok")
    probs = np.array([s["p"] for s in doc["states"]], dtype=float)
    dev = float(np.abs(probs - epsilon).max())
    _require(dev <= MAP_TOL, f"simulated p off the reported epsilon by {dev:.3e}")
