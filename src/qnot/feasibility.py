"""Feasibility tests for exact and probabilistic target machines.

Three nested regimes are decided here, each on a finite state family.
With efficiencies ``gamma_i`` in ``(ZERO_SUCCESS, 1]`` (:func:`efficiencies`)
and a probe Gram ``P``, a postselecting machine exists iff
``M = G - sqrt(Gamma) (conj(G) * P) sqrt(Gamma)`` is positive semidefinite.
At ``gamma = 1`` the diagonal of ``M`` is zero, so ``M = 0``: ``G`` equals
``conj(G) * P``, the Gram of the targets times ``exp(i phi)``.  Both exact
regimes test that by :func:`qnot.linalg.gram_miss`, the completion's own
test of a builder's branches, so a verdict is feasible iff it builds:

* a plain unitary iff ``G = conj(G)`` (:func:`check_exact_unitary`);
* a unitary with probe iff phases with ``phi_j - phi_i = 2 theta_ij``
  (mod ``2 pi``) on every nonzero overlap exist (with no zero overlap, the
  congruence ``theta_lj - theta_li = theta_ij  (mod pi)`` on every index
  triple); :func:`standard_probe` grows them (:func:`check_exact_with_probe`);
* otherwise :func:`point_rule` decides a point.  On the null space ``N``
  of ``G``, ``M N = -sqrt(Gamma) K sqrt(Gamma) N``, so ``M`` must vanish
  there, which that rule can miss; :func:`check_probabilistic` tests
  that residual too, on ``N`` from :func:`qnot.linalg.range_null`.

Every check reads a probe as its Gram matrix ``P``.  A phase-vector probe
is the rank-one case and also keeps its phases, which is the only kind of
probe a machine realizes.  Every exact machine unitary is one
:func:`qnot.linalg.unitary_completion` of the members to their targets
(times ``exp(i phi)`` with a probe) on the ``d`` system rows:
:func:`build_exact_unitary` returns it, and :func:`build_probe_unitary`
writes it under probe level 0 of a two-level probe.  A probabilistic
machine has no completion: :mod:`qnot.synthesis` writes the CS dilation
of its success map on ``D = 2d``, from the same SVD kernel.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (InvalidProbe, InvalidProbeGram, LinearlyDependentPair,
                     NotHermitian, NotSquare)
from .linalg import (GRAM_TOL, PSD_TOL, ZERO_SUCCESS, gram_miss, gram_of,
                     is_psd, range_null, smallest_eigenvalue,
                     unitary_completion)
from .states import (NORM_TOL, GramMatrix, QuditState, StateSet, TargetMap,
                     _fold_phases, gram)

PARALLEL_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class ProbeSpec:
    """Probe state family, held as its Gram matrix ``P``.

    A phase-vector probe uses a single probe direction per state,
    ``|P_i> = exp(i phi_i) |P_1>``, so ``P`` is the rank-one Gram
    ``P[i, j] = exp(i (phi_j - phi_i))`` and ``phases`` keeps the ``phi_i``.
    A full-Gram probe gives ``P`` directly (Hermitian PSD with unit
    diagonal) and has ``phases`` None; it holds a copy of the matrix it
    checked.
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
        m = np.array(matrix, dtype=complex)
        try:
            psd = is_psd(m)
        except (NotSquare, NotHermitian) as exc:
            raise InvalidProbeGram(f"probe Gram: {exc}") from None
        if not m.size:
            raise InvalidProbeGram("probe Gram must be nonempty")
        # written to fail on NaN
        if not np.abs(np.diag(m) - 1.0).max() <= NORM_TOL:
            raise InvalidProbeGram("probe Gram must have unit diagonal")
        if not psd:
            raise InvalidProbeGram("probe Gram must be positive semidefinite")
        return cls(m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def standard_probe(gram_matrix: GramMatrix) -> ProbeSpec:
    """The default probe, phases every nonzero overlap forces: ``phi_j = 2
    theta_0j`` where ``|G_0j| >= 1e-12``; level by level each other member
    takes ``phi_i + 2 theta_ij`` from the placed ``i`` it overlaps most, or,
    overlapping none, starts a component at phase 0."""
    g = gram_matrix.matrix
    probe = ProbeSpec.phase_vector(np.mod(2.0 * _fold_phases(g[0], np.abs(g[0])),
                                          2.0 * np.pi))
    placed = np.abs(g[0]) >= 1e-12
    if placed.all():
        return probe
    phases = probe.phases.copy()
    for _ in range(phases.size):  # each pass places at least one member
        if placed.all():
            break
        src, rest = np.flatnonzero(placed), np.flatnonzero(~placed)
        links = g[np.ix_(src, rest)]
        best = np.abs(links).argmax(axis=0)
        link = links[best, np.arange(rest.size)]
        reach = np.abs(link) >= 1e-12
        if not reach.any():
            phases[rest[0]], placed[rest[0]] = 0.0, True
            continue
        phases[rest[reach]] = (phases[src[best[reach]]]
                               + 2.0 * np.angle(link[reach]))
        placed[rest[reach]] = True
    return ProbeSpec.phase_vector(phases)


def machine_phases(probe: ProbeSpec, n: int) -> np.ndarray:
    """Phases of a phase-vector probe for ``n`` states; machines build no other."""
    if probe.phases is None:
        raise InvalidProbe("a machine needs a phase-vector probe")
    if probe.phases.size != n:
        raise InvalidProbe(f"probe has {probe.phases.size} phases for {n} states")
    return probe.phases


def efficiencies(gammas, n: int) -> np.ndarray:
    """``n`` efficiencies in ``(ZERO_SUCCESS, 1]``; a scalar is broadcast."""
    g = np.asarray(gammas, dtype=float)
    g = np.full(n, g) if g.ndim == 0 else g.ravel()
    if g.size != n:
        raise ValueError(f"expected {n} efficiencies, got {g.size}")
    if not g.size:
        raise ValueError("a design needs at least one efficiency")
    if not np.all((g > ZERO_SUCCESS) & (g <= 1.0)):
        raise ValueError(f"efficiencies must lie in (0, 1] and exceed {ZERO_SUCCESS}")
    return g


@dataclass(frozen=True)
class FeasibilityVerdict:
    feasible: bool
    witness: Optional[ProbeSpec] = None
    violation: Optional[dict] = None
    lambda_min: Optional[float] = None


def check_exact_unitary(state_set: StateSet) -> FeasibilityVerdict:
    """Exact target map by a plain unitary: :func:`_exact` with no probe,
    the test of :func:`build_exact_unitary`; each entry is ``2 |Im G_ij|``
    up to rounding."""
    return _exact(state_set, gram(state_set))


def check_exact_with_probe(state_set: StateSet) -> FeasibilityVerdict:
    """Exact target map by a unitary with probe: :func:`_exact` with the
    witness of :func:`standard_probe`, the test :func:`build_probe_unitary`
    applies to it.  Where row 0 has no zero, ``phi_j = 2 theta_0j``; with
    ``r_ij = theta_0j - theta_0i - theta_ij`` each entry is, to rounding,
    ``2 |G_ij| |sin r_ij|`` and each triple residual of the congruence is
    ``r_li + r_ij - r_lj``, so this is the paper's criterion.  A zero
    overlap constrains nothing, so every set gets a verdict.
    """
    gm = gram(state_set)
    return _exact(state_set, gm, standard_probe(gm))


def _exact(state_set: StateSet, gram_matrix: GramMatrix,
           probe: Optional[ProbeSpec] = None) -> FeasibilityVerdict:
    """Feasible, with witness ``probe``, iff :func:`qnot.linalg.gram_miss`
    passes ``G`` and the Gram of the targets times ``w = 1`` (no probe) or
    ``exp(i phi)``, the branches :func:`build_exact_unitary` and
    :func:`build_probe_unitary` complete, else a violation at the worst
    entry."""
    w = 1.0 if probe is None else np.exp(1j * probe.phases)
    miss = gram_miss(gram_matrix.matrix, gram_of(state_set.target_matrix() * w))
    if miss is None:
        return FeasibilityVerdict(True, witness=probe)
    return FeasibilityVerdict(
        False, violation={"indices": list(miss[:2]), "residual": miss[2]})


def build_exact_unitary(state_set: StateSet) -> np.ndarray:
    """System-only unitary sending every member to its target state: the
    :func:`qnot.linalg.unitary_completion` of the members and targets on
    the ``d`` system rows.

    Propagates :class:`GramMismatch` when the targets' Gram misses ``G``
    by more than ``GRAM_TOL``, the test of :func:`check_exact_unitary`.
    """
    return unitary_completion(state_set.matrix().T,
                              state_set.target_matrix().T)


def build_probe_unitary(state_set: StateSet, probe: ProbeSpec) -> np.ndarray:
    """Unitary on system x probe realizing the target map exactly.

    The probe is two-dimensional; ``U (psi_i x |0>) = target(psi_i) x
    exp(i phi_i)|0>`` where ``phi`` are the probe phases (typically the
    witness of :func:`check_exact_with_probe`).  Success probability is 1
    for every member.  The ``d x d`` completion of the members to
    ``target_i exp(i phi_i)`` acts under probe level 0, and probe level 1
    is left as it is.  Raises :class:`InvalidProbe` for a full-Gram probe
    and propagates :class:`GramMismatch` when the phases do not actually
    compensate the Gram conjugation.
    """
    phases = machine_phases(probe, len(state_set))
    outputs = state_set.target_matrix() * np.exp(1j * phases)
    unitary = np.eye(2 * state_set.dim, dtype=complex)
    unitary[::2, ::2] = unitary_completion(state_set.matrix().T, outputs.T)
    return unitary


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
    return _probabilistic(gram(state_set), gammas, probe)[0]


def _probabilistic(gram_matrix: GramMatrix, gammas, probe: ProbeSpec):
    """:func:`check_probabilistic` on a Gram already at hand: the verdict,
    and the Gram's :func:`qnot.linalg.range_null`, whose null space ``N``
    the null test reads and whose range the machine is built on."""
    g = gram_matrix.matrix
    k = constraint_kernel(g, probe)
    gammas = efficiencies(gammas, g.shape[0])
    psd, lam_min = point_rule(g, k, gammas)
    split = range_null(g)
    miss = null_miss(k, gammas, split[1])
    feasible = psd and miss <= GRAM_TOL
    violation = None if feasible else {"lambda_min": lam_min, "null_miss": miss}
    return FeasibilityVerdict(feasible, probe, violation, lam_min), split


def solve_dependent_triple(s1: QuditState, s2: QuditState, s3: QuditState,
                           gamma1: float, gamma2: float, phase: float):
    """Forced efficiency and branch phase of a dependent third qubit state.

    With ``s3 = alpha s1 + beta s2`` and the first two states flipped with
    efficiencies ``gamma1, gamma2`` and relative branch phase ``phase``,
    linearity forces the third branch: the combination

    ``v = alpha sqrt(gamma1) s1_perp + beta exp(i phase) sqrt(gamma2) s2_perp``

    must be parallel to ``s3_perp``, ``v = lambda s3_perp``.  Returns the
    pair ``(gamma3, chi)``, ``gamma3 = min(|lambda|^2, 1)`` and ``chi =
    arg(lambda)``, or ``None`` when ``v`` is not parallel.  Parallel, it has
    ``|lambda| = sqrt(gamma1)`` (``sqrt(gamma2)`` when ``alpha = 0``), so
    the clamp removes only rounding and the norm slack ``NORM_TOL`` allows.
    Raises :class:`LinearlyDependentPair` when
    :func:`qnot.linalg.range_null` finds a null space in the pair's Gram.
    """
    # a NOT set refuses states that are not qubits
    triple = StateSet((s1, s2, s3), TargetMap.NOT)
    gamma1, gamma2 = efficiencies([gamma1, gamma2], 2)
    if not np.isfinite(phase):
        raise ValueError(f"phase = {phase!r} must be finite")
    psi, perp = triple.matrix(), triple.target_matrix()
    if range_null(gram_of(psi[:, :2]))[1].shape[1]:
        raise LinearlyDependentPair("reference states are parallel")
    alpha, beta = np.linalg.solve(psi[:, :2], psi[:, 2])
    v = (alpha * np.sqrt(gamma1) * perp[:, 0]
         + beta * np.exp(1j * phase) * np.sqrt(gamma2) * perp[:, 1])
    t3 = perp[:, 2]
    lam = np.vdot(t3, v)
    if np.linalg.norm(v - lam * t3) > PARALLEL_TOL:
        return None
    gamma3 = min(float(abs(lam) ** 2), 1.0)
    return gamma3, float(np.angle(lam))
