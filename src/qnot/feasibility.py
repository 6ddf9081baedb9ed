"""Feasibility tests for exact and probabilistic target machines.

Three nested regimes are decided here, each on a finite state family:

* a plain unitary realizes the target map exactly iff the Gram matrix is
  entrywise real (:func:`check_exact_unitary`);
* a unitary on system plus probe realizes it exactly iff the Gram phases
  satisfy the congruence ``theta_lj - theta_li = theta_ij  (mod pi)`` for
  every index triple.  With no zero overlap this holds exactly when the
  witness probe phases ``phi_j = 2 * theta_0j`` give
  ``G = P(phi) * conj(G)``, which is the Gram test the probe builder
  applies, so :func:`check_exact_with_probe` decides with that test;
* with per-state efficiencies ``gamma_i`` and a probe Gram ``P``, a
  postselecting machine exists iff
  ``M = G - sqrt(Gamma) (conj(G) * P) sqrt(Gamma)`` is positive
  semidefinite; every point is decided by :func:`point_rule`.  On the
  null space ``N`` of ``G``, ``M N = -sqrt(Gamma) K sqrt(Gamma) N``, so
  ``M`` must vanish there, which that rule can miss;
  :func:`check_probabilistic` tests that residual too.

Every check reads a probe as its Gram matrix ``P``.  A phase-vector probe
is the rank-one case and also keeps its phases, which is the only kind of
probe a machine realizes.  Every machine unitary is built by
:func:`branch_block` on a probe of at most two levels, ``D = 2d``: it
writes the branches on the only joint rows they touch, (any system, probe
0) and, for the at most ``d`` failure rows, (system ``j``, probe 1), and
returns the unitary as the block on the coordinates it moves:
:func:`build_exact_unitary` and :func:`build_probe_unitary` here embed it
in a dense array, and :mod:`qnot.synthesis` keeps the block.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    InvalidProbe,
    InvalidProbeGram,
    LinearlyDependentPair,
    ZeroOverlap,
)
from .linalg import (GRAM_TOL, HERMITICITY_TOL, PSD_TOL, completion_block,
                     embed_block, gram_of, null_count, range_null,
                     smallest_eigenvalue)
from .states import NORM_TOL, GramMatrix, QuditState, StateSet, TargetMap, gram

IMAG_TOL = 1e-9
PARALLEL_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class ProbeSpec:
    """Probe state family, held as its Gram matrix ``P``.

    A phase-vector probe uses a single probe direction per state,
    ``|P_i> = exp(i phi_i) |P_1>``, so ``P`` is the rank-one Gram
    ``P[i, j] = exp(i (phi_j - phi_i))`` and ``phases`` keeps the ``phi_i``.
    A full-Gram probe gives ``P`` directly (Hermitian PSD with unit
    diagonal) and has ``phases`` None.
    """

    matrix: np.ndarray
    phases: Optional[np.ndarray] = None

    @classmethod
    def phase_vector(cls, phases) -> "ProbeSpec":
        ph = np.asarray(phases, dtype=float).ravel()
        if ph.size == 0 or not np.isfinite(ph).all():
            raise InvalidProbe("phase vector must be nonempty and finite")
        # only phase differences are observable; pin the first phase to 0
        ph = np.mod(ph - ph[0], 2.0 * np.pi)
        u = np.exp(1j * ph)
        return cls(np.outer(np.conj(u), u), ph)

    @classmethod
    def full_gram(cls, matrix) -> "ProbeSpec":
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
            raise InvalidProbeGram(
                f"probe Gram must be square and nonempty, got {m.shape}")
        # each test is written to fail on NaN
        if not np.abs(m - m.conj().T).max() <= HERMITICITY_TOL:
            raise InvalidProbeGram("probe Gram must be Hermitian")
        if not np.abs(np.diag(m) - 1.0).max() <= NORM_TOL:
            raise InvalidProbeGram("probe Gram must have unit diagonal")
        if not smallest_eigenvalue(m) >= -PSD_TOL:
            raise InvalidProbeGram("probe Gram must be positive semidefinite")
        return cls(m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def standard_probe(gram_matrix: GramMatrix) -> ProbeSpec:
    """Doubled-phase probe ``phi_j = 2 theta_0j`` for a given Gram."""
    return ProbeSpec.phase_vector(np.mod(2.0 * gram_matrix.phases[0, :],
                                         2.0 * np.pi))


def machine_phases(probe: ProbeSpec, n: int) -> np.ndarray:
    """Phases of a phase-vector probe for ``n`` states; machines build no other."""
    if probe.phases is None:
        raise InvalidProbe("a machine needs a phase-vector probe")
    if probe.phases.size != n:
        raise InvalidProbe(f"probe has {probe.phases.size} phases for {n} states")
    return probe.phases


def efficiencies(gammas, n: int) -> np.ndarray:
    """``n`` efficiencies ``gamma_i`` in ``(0, 1]``; a scalar is broadcast."""
    if np.isscalar(gammas):
        g = np.full(n, float(gammas))
    else:
        g = np.asarray(gammas, dtype=float).ravel()
    if g.size != n:
        raise ValueError(f"expected {n} efficiencies, got {g.size}")
    if not np.all((g > 0.0) & (g <= 1.0 + 1e-12)):
        raise ValueError("efficiencies must lie in (0, 1]")
    return g


@dataclass(frozen=True)
class FeasibilityVerdict:
    feasible: bool
    witness: Optional[ProbeSpec] = None
    violation: Optional[dict] = None
    lambda_min: Optional[float] = None


def check_exact_unitary(state_set: StateSet) -> FeasibilityVerdict:
    """Exact target map by a plain unitary exists iff the Gram is real."""
    return _real_gram(gram(state_set))


def _real_gram(gram_matrix: GramMatrix) -> FeasibilityVerdict:
    """:func:`check_exact_unitary` on a Gram already at hand."""
    return _worst_entry(np.abs(gram_matrix.matrix.imag), IMAG_TOL)


def check_exact_with_probe(state_set: StateSet) -> FeasibilityVerdict:
    """Exact target map by a unitary with probe: the builder's Gram test.

    Requires every pairwise overlap to be nonzero (otherwise the criterion
    does not apply and :class:`ZeroOverlap` is raised).  The witness probe
    phases are ``phi_j = 2 theta_0j`` (mod ``2 pi``), and the family is
    feasible iff ``max |G - P(phi) * conj(G)| <= GRAM_TOL``, the test
    :func:`build_probe_unitary` applies to the same witness.  With
    ``r_ij = theta_0j - theta_0i - theta_ij`` each entry is
    ``2 |G_ij| |sin r_ij|`` and each triple residual of the congruence is
    ``r_li + r_ij - r_lj``, so this is the paper's criterion.  A violation
    names the worst entry ``[i, j]`` and its deviation.
    """
    gm = gram(state_set)
    zero = np.argwhere(np.triu(gm.magnitudes < 1e-12, k=1))
    if zero.size:
        raise ZeroOverlap(int(zero[0, 0]), int(zero[0, 1]))
    witness = standard_probe(gm)
    g = gm.matrix
    return _worst_entry(np.abs(g - witness.matrix * np.conj(g)), GRAM_TOL,
                        witness)


def _worst_entry(dev: np.ndarray, tol: float,
                 witness: Optional[ProbeSpec] = None) -> FeasibilityVerdict:
    """Feasible iff all ``dev <= tol``, else a violation at the worst entry."""
    worst = float(dev.max())
    if worst <= tol:
        return FeasibilityVerdict(True, witness=witness)
    i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
    return FeasibilityVerdict(
        False, violation={"indices": [int(i), int(j)], "residual": worst})


def branch_block(state_set: StateSet, weights, probe_dim: int,
                 failure=None) -> tuple[np.ndarray, np.ndarray]:
    """Machine unitary on system x probe from its branch targets, as the
    ``(support, block)`` of :func:`qnot.linalg.completion_block`.

    Member ``i`` enters as ``psi_i x |0>`` and leaves as
    ``weights_i target_i x |0> + sum_j failure[j, i] |j> x |1>``, so a
    branch touches only the joint indices (any system, probe 0) and
    (system ``j``, probe 1) for the ``f <= d`` rows of ``failure``:
    ``d + f`` ascending rows of the system-major joint index, on which
    alone the completion runs.  Propagates :class:`GramMismatch` when the
    branches do not reproduce the Gram.
    """
    d, n = state_set.dim, len(state_set)
    f = 0 if failure is None else failure.shape[0]
    joint = np.arange(d * probe_dim)
    level = joint % probe_dim
    keep = (level == 0) | ((level == 1) & (joint < f * probe_dim))
    rows, system = joint[keep], level[keep] == 0  # system: the rows (i, 0)
    ins = np.zeros((rows.size, n), complex)
    ins[system] = state_set.matrix()
    outs = np.zeros((rows.size, n), complex)
    outs[system] = state_set.target_matrix() * weights
    if f:
        outs[~system] = failure
    support, block = completion_block(ins, outs)
    return rows[support], block


def build_exact_unitary(state_set: StateSet) -> np.ndarray:
    """System-only unitary sending every member to its target state.

    Propagates :class:`GramMismatch` when the Gram matrix is not real,
    i.e. when :func:`check_exact_unitary` is infeasible.
    """
    return embed_block(state_set.dim, *branch_block(state_set, 1.0, 1))


def build_probe_unitary(state_set: StateSet, probe: ProbeSpec) -> np.ndarray:
    """Unitary on system x probe realizing the target map exactly.

    The probe is two-dimensional; ``U (psi_i x |0>) = target(psi_i) x
    exp(i phi_i)|0>`` where ``phi`` are the probe phases (typically the
    witness of :func:`check_exact_with_probe`).  Success probability is 1
    for every member.  Raises :class:`InvalidProbe` for a full-Gram probe
    and propagates :class:`GramMismatch` when the phases do not actually
    compensate the Gram conjugation.
    """
    phases = machine_phases(probe, len(state_set))
    return embed_block(2 * state_set.dim,
                       *branch_block(state_set, np.exp(1j * phases), 2))


def constraint_matrix(gram_matrix: GramMatrix, gammas,
                      probe: ProbeSpec) -> np.ndarray:
    """Success-branch constraint matrix ``G - sqrt(Gamma) (conj(G) * P) sqrt(Gamma)``.

    Positive semidefiniteness of this matrix is exactly feasibility of a
    probabilistic machine with efficiencies ``gamma_i`` and probe Gram ``P``.
    """
    g = gram_matrix.matrix
    return scaled_constraint(g, constraint_kernel(g, probe),
                             efficiencies(gammas, g.shape[0]))


def constraint_kernel(g: np.ndarray, probe: ProbeSpec) -> np.ndarray:
    """``K = conj(G) * P``; :class:`InvalidProbe` unless ``P`` matches ``G``."""
    if probe.n != g.shape[0]:
        raise InvalidProbe(f"probe has {probe.n} states for {g.shape[0]} states")
    return np.conj(g) * probe.matrix


def scaled_constraint(g: np.ndarray, k: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """``G - sqrt(Gamma) K sqrt(Gamma)`` for ``K = conj(G) * P``, unvalidated.

    The one arithmetic of the constraint matrix: :func:`constraint_matrix`
    and the PSD test of the efficiency searches and the triple bound build
    it here, so a point one of them accepts yields the same matrix bit for
    bit in :func:`check_probabilistic` and :mod:`qnot.synthesis`.  A stack
    of points ``gammas`` of shape ``(..., n)`` gives the stack of matrices
    ``(..., n, n)``, each entry computed as for that point alone.
    """
    s = np.sqrt(gammas)
    return g - (s[..., :, None] * k) * s[..., None, :]


def point_rule(g: np.ndarray, k: np.ndarray, gammas: np.ndarray):
    """``(lambda_min(M) >= -PSD_TOL min(gamma), lambda_min(M))``, the one PSD
    test of a point: the slack scales with ``min(gamma)``, so a machine built
    where it holds loses at most about ``PSD_TOL`` of any member's fidelity.

    One point ``(n,)`` gives a ``bool`` and a ``float``; a stack of points
    ``(..., n)`` gives arrays over the leading axes, each entry bit for bit
    the answer for that point alone.
    """
    lam_min = smallest_eigenvalue(scaled_constraint(g, k, gammas))
    ok = lam_min >= -PSD_TOL * gammas.min(axis=-1)
    return (bool(ok), lam_min) if gammas.ndim == 1 else (ok, lam_min)


def null_miss(k: np.ndarray, gammas: np.ndarray, null: np.ndarray) -> float:
    """``max |K diag(sqrt(gamma) / max sqrt(gamma)) N|``: 0 iff ``M N = 0``."""
    s = np.sqrt(gammas)
    return float(np.abs(k @ (s[:, None] / s.max() * null)).max(initial=0.0))


def check_probabilistic(state_set: StateSet, gammas,
                        probe: ProbeSpec) -> FeasibilityVerdict:
    """Probabilistic machine with efficiencies ``gamma_i`` and given probe:
    :func:`point_rule` and :func:`null_miss` at most ``GRAM_TOL``."""
    return _probabilistic(gram(state_set), gammas, probe)


def _probabilistic(gram_matrix: GramMatrix, gammas,
                   probe: ProbeSpec) -> FeasibilityVerdict:
    """:func:`check_probabilistic` on a Gram already at hand."""
    g = gram_matrix.matrix
    k = constraint_kernel(g, probe)
    gammas = efficiencies(gammas, g.shape[0])
    psd, lam_min = point_rule(g, k, gammas)
    miss = null_miss(k, gammas, range_null(g)[1])
    feasible = psd and miss <= GRAM_TOL
    violation = None if feasible else {"lambda_min": lam_min, "null_miss": miss}
    return FeasibilityVerdict(feasible, probe, violation, lam_min)


def solve_dependent_triple(s1: QuditState, s2: QuditState, s3: QuditState,
                           gamma1: float, gamma2: float, phase: float):
    """Forced efficiency and branch phase of a dependent third qubit state.

    With ``s3 = alpha s1 + beta s2`` and the first two states flipped with
    efficiencies ``gamma1, gamma2`` and relative branch phase ``phase``,
    linearity forces the third branch: the combination

    ``v = alpha sqrt(gamma1) s1_perp + beta exp(i phase) sqrt(gamma2) s2_perp``

    must be parallel to ``s3_perp`` with norm at most 1.  Returns the pair
    ``(gamma3, chi)`` with ``v = sqrt(gamma3) exp(i chi) s3_perp``, or
    ``None`` when the constraint cannot be met.  Raises
    :class:`LinearlyDependentPair` when the rank decision, ``null_count``
    of the pair's Gram, is not 0.
    """
    # a NOT set refuses states that are not qubits
    triple = StateSet((s1, s2, s3), TargetMap.NOT)
    gamma1, gamma2 = efficiencies([gamma1, gamma2], 2)
    if not np.isfinite(phase):
        raise ValueError(f"phase = {phase!r} must be finite")
    psi, perp = triple.matrix(), triple.target_matrix()
    if null_count(np.linalg.eigh(gram_of(psi[:, :2]))[0]):
        raise LinearlyDependentPair("reference states are parallel")
    alpha, beta = np.linalg.solve(psi[:, :2], psi[:, 2])
    v = (alpha * np.sqrt(gamma1) * perp[:, 0]
         + beta * np.exp(1j * phase) * np.sqrt(gamma2) * perp[:, 1])
    t3 = perp[:, 2]
    lam = np.vdot(t3, v)
    if np.linalg.norm(v - lam * t3) > PARALLEL_TOL:
        return None
    if abs(lam) > 1.0 + 1e-12:
        return None
    gamma3 = min(float(abs(lam) ** 2), 1.0)
    return gamma3, float(np.angle(lam))
