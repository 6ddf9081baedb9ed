"""Construction of postselecting machines for the target maps.

A machine acts with one unitary on system x probe, both prepared with the
probe in its first basis state.  Reading the probe back in that state is
"success"; conditioned on success the system carries the target state.
For a family with Gram matrix ``G``, probe phases ``phi`` and efficiencies
``gamma_i``, the machine exists iff

    M = G - sqrt(Gamma) (conj(G) * P) sqrt(Gamma)   is PSD,

and an explicit unitary follows from Gram-matched completion
(:func:`qnot.feasibility.branch_unitary`) on a two-level probe: the image of
the i-th prepared input is

    sqrt(gamma_i) e^{i phi_i} (target_i x P_0)  +  sum_j F_ji (|j> x P_1)

with ``F`` any matrix with ``F^dag F = M``, so the failure branches restore
exactly the missing Gram mass (Duan & Guo, PRL 80, 4999, 1998).
``0 <= M <= G`` gives ``rank M <= d``, so ``F`` needs at most ``d`` rows
and fits on the ``d`` system states under probe state 1.  ``F`` is
``L^dag`` of the Cholesky factor ``M = L L^dag`` when ``n <= d``; where
Cholesky refuses a singular ``M`` (a search's edge point), or ``n > d``
(a dependent family), it is ``sqrt(Lambda) V^dag`` of the top
``min(n, d)`` eigenpairs of ``M``.  Neither factor decides anything: the
point is decided before, and the completion refuses a Gram miss.

:func:`synthesize` gives a family whose Gram equals its targets' at
``GRAM_TOL`` (:func:`qnot.feasibility.check_exact_unitary`) an exact
unitary with unit efficiency and no probe.  Other linearly independent
families get safe equal efficiencies
``epsilon = ETA * lambda_min(G) / lambda_max(conj(G))`` with ``ETA = 0.999``
and the zero-phase probe, which keeps ``M = G - epsilon conj(G)`` strictly
positive; a family is dependent when :func:`qnot.linalg.null_count`, the
one rank decision, zeroes part of the Gram's ``eigh`` spectrum.
:func:`synthesize` computes the Gram once: its exact test, which also
reads the set's targets, the spectrum and ``M`` all read that one matrix.
:func:`synthesize_with` decides the caller's point by the test of
:func:`qnot.feasibility.check_probabilistic`, on the one Gram it then
builds from; both build through one assembly step with ``M`` from
:func:`qnot.feasibility.constraint_matrix`.

Every machine acts on ``D = 2d`` joint coordinates (``D = d`` on the
exact path, which has no probe) and holds one dense ``D x D`` unitary.  A
machine checks its design once, when it is built, and keeps its own copy
of the efficiencies and phases; the unitary is kept as given.  Its
branches touch at most ``s = d + min(n, d)`` of those coordinates, and
every other row and column is exactly the identity's.
:meth:`Machine.unitarity_error` scans the unitary by exact comparison for
the indices whose row or column differs from the identity's and checks
``V^dag V = I`` on them, at ``O(D^2 + s^3)`` instead of the ``O(D^3)`` of
``U^dag U``, so an edit anywhere is still checked;
:meth:`Machine.success_block` copies ``U[::p, ::p]``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InfeasibleGamma, LinearlyDependent
from .feasibility import (
    ProbeSpec,
    _exact,
    _probabilistic,
    branch_unitary,
    build_exact_unitary,
    constraint_matrix,
    efficiencies,
    machine_phases,
)
# psd_sqrt is not called here; bench/spans.py wraps it under this name
from .linalg import null_count, psd_sqrt  # noqa: F401
from .states import GramMatrix, StateSet, TargetMap, _check_target, gram

ETA = 0.999


class Machine:
    """Postselecting target-map machine.

    ``unitary`` acts on the Kronecker product system x probe with the
    system index major (component ``i * probe_dim + j``).  Success means
    finding the probe in basis state 0; the projector onto that event is
    ``I_system x |0><0|``.  ``gammas`` are the designed per-member success
    probabilities, which pass :func:`qnot.feasibility.efficiencies`, and
    ``branch_phases`` the designed success-branch phases, one finite value
    each per member.

    The constructor is the one check of a machine.  It keeps its own
    copies of ``gammas`` and ``branch_phases``, so an edit of the caller's
    arrays leaves the checked design as it was.  ``unitary`` is the one
    ``D x D`` array given, not copied: :meth:`unitarity_error` and
    :func:`qnot.simulator.verify_machine` read it again on every use, so
    an edit to it is still caught.
    """

    def __init__(self, system_dim: int, probe_dim: int, target: TargetMap,
                 unitary, gammas, branch_phases):
        _check_target(target)
        for name, value in (("system_dim", system_dim),
                            ("probe_dim", probe_dim)):
            if (not isinstance(value, (int, np.integer))
                    or isinstance(value, bool) or value < 1):
                raise ValueError(f"{name} must be a positive int, got {value!r}")
        self.system_dim, self.probe_dim = int(system_dim), int(probe_dim)
        self.target = target
        gammas = np.array(gammas, dtype=float).ravel()
        self.branch_phases = np.array(branch_phases, dtype=float).ravel()
        if gammas.size != self.branch_phases.size:
            raise DimensionMismatch(f"{self.branch_phases.size} branch phases "
                                    f"for {gammas.size} gammas")
        self.gammas = efficiencies(gammas, gammas.size)
        if not np.isfinite(self.branch_phases).all():
            raise ValueError("branch_phases must be finite")
        u = np.asarray(unitary, dtype=complex)
        d = self.total_dim
        if u.shape != (d, d):
            raise DimensionMismatch(
                f"unitary shape {u.shape} does not match "
                f"system_dim * probe_dim = {d}")
        self.unitary = u

    @property
    def total_dim(self) -> int:
        return self.system_dim * self.probe_dim

    def unitarity_error(self) -> float:
        """``max |U^dag U - I|``, computed on the indices ``U`` moves.

        An index whose row and column are exactly those of the identity
        contributes exactly 0 to ``U^dag U - I``, so with ``S`` the other
        indices the error is ``max |V^dag V - I|`` for ``V = U[S, S]``.
        The unitary is scanned exactly: an entry that differs from the
        identity's (NaN included) puts its row and its column in ``S``, so
        no edit escapes.
        """
        v = self.unitary
        moved = v != 0
        np.fill_diagonal(moved, np.diagonal(v) != 1)
        s = np.flatnonzero(moved.any(axis=0) | moved.any(axis=1))
        if not s.size:
            return 0.0
        if s.size < v.shape[0]:
            v = v[np.ix_(s, s)]
        return float(np.abs(v.conj().T @ v - np.eye(s.size)).max())

    def success_block(self) -> np.ndarray:
        """``U[::p, ::p]``: system to system with the probe kept in state 0."""
        p = self.probe_dim
        return self.unitary[::p, ::p].copy()


@dataclass
class SynthesisReport:
    """:func:`synthesize`'s choices and health.  ``epsilon`` is the equal
    efficiency and ``c``, ``d_max`` are the Gram's extreme eigenvalues.
    ``residual`` is ``max |F^dag F - M|`` of the failure amplitudes on the
    general path, and ``max |U_s Psi - T|`` of the success block on the
    set's matrix ``Psi`` and targets ``T`` on the exact path."""

    epsilon: float
    c: float
    d_max: float
    residual: float
    path: str = "general"


def _assemble(state_set: StateSet, gram_matrix: GramMatrix, gammas,
              probe: ProbeSpec):
    """Machine at efficiencies ``gammas`` with a phase-vector probe, and residual.

    The failure branches carry ``F`` of :func:`_failure_amplitudes`, with
    ``F^dag F = M``.  The residual is ``max |F^dag F - M|``; the completion
    refuses a Gram miss above ``GRAM_TOL``.  Which factor ``F`` is says
    nothing about the point, which the caller has decided.
    """
    n = len(state_set)
    phases = machine_phases(probe, n)
    gammas = efficiencies(gammas, n)
    m_matrix = constraint_matrix(gram_matrix, gammas, probe)
    failure = _failure_amplitudes(m_matrix, state_set.dim)
    # member i puts amplitude F_ji on |j> x |1>
    weights = np.sqrt(gammas) * np.exp(1j * phases)
    machine = Machine(state_set.dim, 2, state_set.target,
                      branch_unitary(state_set, weights, 2, failure),
                      gammas, phases)
    return machine, float(np.abs(failure.conj().T @ failure - m_matrix).max())


def _failure_amplitudes(m_matrix: np.ndarray, d: int) -> np.ndarray:
    """``F`` with ``F^dag F = M`` and at most ``d`` rows: ``L^dag`` of the
    Cholesky factor ``M = L L^dag`` when ``n <= d`` and Cholesky factors
    ``M``, else ``sqrt(Lambda) V^dag`` of the top ``min(n, d)`` eigenpairs
    of ``M``, clamped at 0; ``rank M <= d`` makes the pairs left out zero
    up to rounding."""
    n = m_matrix.shape[0]
    if n <= d:
        try:
            return np.linalg.cholesky(m_matrix).conj().T
        except np.linalg.LinAlgError:
            pass
    vals, vecs = np.linalg.eigh(m_matrix)
    vals, vecs = vals[-d:], vecs[:, -d:]  # the top min(n, d) pairs
    return np.sqrt(np.clip(vals, 0.0, None))[:, None] * vecs.conj().T


def synthesize(state_set: StateSet):
    """Machine with safe equal efficiencies for an independent family.

    Returns ``(machine, report)``.  When
    :func:`qnot.feasibility.check_exact_unitary` is feasible the probe is
    skipped and the machine is an exact system-only unitary with
    ``gamma = 1``; this path also takes linearly dependent families.
    Otherwise efficiencies are ``epsilon = ETA * c / d_max`` with ``c`` the
    smallest and ``d_max`` the largest eigenvalue of the Gram, whose
    conjugate has the same spectrum; ``c <= d_max`` and ``ETA < 1`` keep
    ``epsilon`` below 1.

    Raises :class:`LinearlyDependent` when the general path is needed and
    the rank decision puts the Gram's rank below the family's size.
    """
    n = len(state_set)
    gm = gram(state_set)
    spectrum = np.linalg.eigh(gm.matrix)[0]
    c, d_max = float(spectrum[0]), float(spectrum[-1])

    if _exact(state_set, gm).feasible:
        machine = Machine(state_set.dim, 1, state_set.target,
                          build_exact_unitary(state_set), np.ones(n),
                          np.zeros(n))
        # the residual of the dense d x d product, as the machine file records it
        residual = float(np.abs(machine.success_block() @ state_set.matrix()
                                - state_set.target_matrix()).max())
        return machine, SynthesisReport(1.0, c, d_max, residual, path="exact")

    if null_count(spectrum):
        raise LinearlyDependent(
            f"Gram rank is below {n} (smallest eigenvalue {c:.3e})")
    epsilon = ETA * c / d_max
    machine, residual = _assemble(state_set, gm, epsilon,
                                  ProbeSpec.phase_vector(np.zeros(n)))
    return machine, SynthesisReport(epsilon, c, d_max, residual)


def synthesize_with(state_set: StateSet, gammas, probe: ProbeSpec) -> Machine:
    """Machine with caller-chosen efficiencies and probe phases.

    The probe must be of phase-vector kind (else :class:`InvalidProbe`),
    and :func:`qnot.feasibility.check_probabilistic` must accept the point
    (else :class:`InfeasibleGamma`); it decides on the Gram the machine is
    built from.  Dependent families are fine here; the completion handles
    rank deficiency.
    """
    # a probe no machine realizes is refused before the efficiencies are read
    machine_phases(probe, len(state_set))
    gm = gram(state_set)
    verdict = _probabilistic(gm, gammas, probe)
    if not verdict.feasible:
        raise InfeasibleGamma(
            f"constraint matrix has eigenvalue {verdict.lambda_min:.3e}")
    return _assemble(state_set, gm, gammas, probe)[0]
