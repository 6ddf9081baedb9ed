"""Construction of postselecting machines for the target maps.

A machine acts with one unitary on system x probe, both prepared with the
probe in its first basis state.  Reading the probe back in that state is
"success"; conditioned on success the system carries the target state.
For a family with Gram matrix ``G``, probe phases ``phi`` and efficiencies
``gamma_i``, the machine exists iff

    M = G - sqrt(Gamma) (conj(G) * P) sqrt(Gamma)   is PSD,

and an explicit unitary follows from Gram-matched completion
(:func:`qnot.feasibility.branch_unitary`): the image of the i-th prepared
input is

    sqrt(gamma_i) e^{i phi_i} (target_i x P_0)  +  sum_j C*_ij (fill x P_j)

with ``C`` the PSD square root of ``M`` (so the failure branches restore
exactly the missing Gram mass) and ``fill`` a fixed system state.

:func:`synthesize` gives families whose Gram is entrywise real an exact
unitary with unit efficiency and no probe.  Other linearly independent
families get safe equal efficiencies
``epsilon = ETA * lambda_min(G) / lambda_max(conj(G))`` with ``ETA = 0.999``
and the zero-phase probe, which keeps ``M = G - epsilon conj(G)`` strictly
positive.  :func:`synthesize_with` decides the caller's point with
:func:`qnot.feasibility.check_probabilistic`; both build through one
assembly step with ``M`` from :func:`qnot.feasibility.constraint_matrix`.

The machine unitary is stored dense, but it moves only the support of its
branches, ``s = d + n`` of the ``D = d (n + 1)`` joint coordinates; every
other row and column is exactly the identity's.
:meth:`Machine.unitarity_error` uses that for any unitary, built or
loaded: it finds the indices whose row or column differs from the
identity by exact comparison and checks ``V^dag V = I`` on that block
alone, ``O(D^2 + s^3)`` instead of the ``O(D^3)`` of ``U^dag U``, for the
same value up to rounding.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InfeasibleGamma, LinearlyDependent
from .feasibility import (
    ProbeSpec,
    branch_unitary,
    build_exact_unitary,
    check_exact_unitary,
    check_probabilistic,
    constraint_matrix,
    efficiencies,
    machine_phases,
)
from .linalg import psd_sqrt
from .states import GramMatrix, StateSet, TargetMap, gram

ETA = 0.999
INDEPENDENCE_TOL = 1e-9


@dataclass(eq=False)
class Machine:
    """Postselecting target-map machine.

    ``unitary`` acts on the Kronecker product system x probe with the
    system index major (component ``i * probe_dim + j``).  Success means
    finding the probe in basis state 0; the projector onto that event is
    ``I_system x |0><0|``.  ``gammas`` are the designed per-member success
    probabilities and ``branch_phases`` the designed success-branch phases.
    """

    system_dim: int
    probe_dim: int
    target: TargetMap
    unitary: np.ndarray
    gammas: np.ndarray
    branch_phases: np.ndarray

    def __post_init__(self):
        if not isinstance(self.target, TargetMap):
            raise ValueError(f"target must be a TargetMap, got {self.target!r}")
        self.unitary = np.asarray(self.unitary, dtype=complex)
        self.gammas = np.asarray(self.gammas, dtype=float).ravel()
        self.branch_phases = np.asarray(self.branch_phases, dtype=float).ravel()
        d = self.system_dim * self.probe_dim
        if self.unitary.shape != (d, d):
            raise DimensionMismatch(
                f"unitary shape {self.unitary.shape} does not match "
                f"system_dim * probe_dim = {d}")

    @property
    def total_dim(self) -> int:
        return self.system_dim * self.probe_dim

    def unitarity_error(self) -> float:
        """``max |U^dag U - I|``, computed on the indices ``U`` moves.

        An index whose row and column are exactly those of the identity
        contributes exactly 0 to ``U^dag U - I``, so with ``S`` the other
        indices the error is ``max |V^dag V - I|`` for ``V = U[S, S]``.
        An entry that differs from the identity's (NaN included) puts its
        row and its column in ``S``, so no corruption escapes the check.
        """
        u = self.unitary
        moved = u != 0
        np.fill_diagonal(moved, np.diagonal(u) != 1)
        s = np.flatnonzero(moved.any(axis=0) | moved.any(axis=1))
        if not s.size:
            return 0.0
        v = u[np.ix_(s, s)]
        return float(np.abs(v.conj().T @ v - np.eye(s.size)).max())


@dataclass
class SynthesisReport:
    epsilon: float
    c: float
    d_max: float
    residual: float
    path: str = "general"


def _assemble(state_set: StateSet, gram_matrix: GramMatrix, gammas,
              probe: ProbeSpec):
    """Machine at efficiencies ``gammas`` with a phase-vector probe, and residual.

    The failure branches carry ``C = sqrt(M)``, which :func:`psd_sqrt`
    refuses unless ``M`` passes the PSD test.  The residual is
    ``max |C^2 - M|``; the completion refuses a Gram miss above ``GRAM_TOL``.
    """
    n = len(state_set)
    phases = machine_phases(probe, n)
    gammas = efficiencies(gammas, n)
    m_matrix = constraint_matrix(gram_matrix, gammas, probe)
    c_matrix = psd_sqrt(m_matrix)
    # member i puts amplitude C*_ij on fill x P_{j+1}, with fill = |0>
    weights = np.sqrt(gammas) * np.exp(1j * phases)
    unitary = branch_unitary(state_set, weights, n + 1, np.conj(c_matrix).T)
    machine = Machine(state_set.dim, n + 1, state_set.target, unitary,
                      gammas.copy(), phases.copy())
    return machine, float(np.abs(c_matrix @ c_matrix - m_matrix).max())


def synthesize(state_set: StateSet):
    """Machine with safe equal efficiencies for an independent family.

    Returns ``(machine, report)``.  When the Gram matrix is entrywise real
    the probe is skipped and the machine is an exact system-only unitary
    with ``gamma = 1``; this path also takes linearly dependent families.
    Otherwise efficiencies are ``epsilon = ETA * c / d_max`` with ``c`` the
    smallest and ``d_max`` the largest eigenvalue of the Gram, whose
    conjugate has the same spectrum; ``c <= d_max`` and ``ETA < 1`` keep
    ``epsilon`` below 1.

    Raises :class:`LinearlyDependent` when the general path is needed and
    the family has Gram rank below its size.
    """
    n = len(state_set)
    gm = gram(state_set)
    spectrum = np.linalg.eigvalsh(gm.matrix)
    c, d_max = float(spectrum[0]), float(spectrum[-1])

    if check_exact_unitary(state_set).feasible:
        unitary = build_exact_unitary(state_set)
        residual = float(np.abs(unitary @ state_set.matrix()
                                - state_set.target_matrix()).max())
        machine = Machine(state_set.dim, 1, state_set.target, unitary,
                          np.ones(n), np.zeros(n))
        report = SynthesisReport(1.0, c, d_max, residual, path="exact")
        return machine, report

    if c <= INDEPENDENCE_TOL:
        raise LinearlyDependent(
            f"Gram rank is below {n} (smallest eigenvalue {c:.3e})")
    epsilon = ETA * c / d_max
    machine, residual = _assemble(state_set, gm, epsilon,
                                  ProbeSpec.phase_vector(np.zeros(n)))
    return machine, SynthesisReport(epsilon, c, d_max, residual)


def synthesize_with(state_set: StateSet, gammas, probe: ProbeSpec) -> Machine:
    """Machine with caller-chosen efficiencies and probe phases.

    The probe must be of phase-vector kind (else :class:`InvalidProbe`),
    and :func:`check_probabilistic` at its default tolerance must accept the
    point (else :class:`InfeasibleGamma`).  Dependent families are fine
    here; the completion handles rank deficiency.
    """
    # a probe no machine realizes is refused before the efficiencies are read
    machine_phases(probe, len(state_set))
    verdict = check_probabilistic(state_set, gammas, probe)
    if not verdict.feasible:
        raise InfeasibleGamma(
            f"constraint matrix has eigenvalue {verdict.lambda_min:.3e}")
    return _assemble(state_set, gram(state_set), gammas, probe)[0]
