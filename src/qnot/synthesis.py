"""Construction of postselecting machines for the target maps.

A machine acts with one unitary on system x probe, both prepared with the
probe in its first basis state.  Reading the probe back in that state is
"success"; conditioned on success the system carries the target state.
For a family with Gram matrix ``G``, probe phases ``phi`` and efficiencies
``gamma_i``, the machine exists iff

    M = G - sqrt(Gamma) (conj(G) * P) sqrt(Gamma)   is PSD,

and an explicit unitary follows on a two-level probe: the image of the
i-th prepared input is

    sqrt(gamma_i) e^{i phi_i} (target_i x P_0)  +  sum_j F_ji (|j> x P_1)

with ``F^dag F = M``, so the failure branches restore exactly the missing
Gram mass (Duan & Guo, PRL 80, 4999, 1998).  The unitary is written by
formula.  With ``W = T diag(sqrt(gamma) e^{i phi})`` the success map ``A``
with ``A Psi = W`` is a contraction on span Psi, since ``Psi^dag (I -
A^dag A) Psi = M``, and the machine is its dilation (Halmos, Summa Brasil.
Math. 2, 125, 1950) in CS form (Paige & Wei, LAA 208/209, 303, 1994):
from one SVD ``A = U_a S V_a^dag`` and ``C = sqrt((1 - S)(1 + S))`` it is
``[[U_a S V_a^dag, U_a C], [C V_a^dag, -S]]`` on the system under probe
level 0 and ``r = rank G <= d`` failure rows under level 1, so ``F = C
V_a^dag Psi``.  That block is unitary to rounding at every ``S``, a
singular value at 1 (a search's edge, a member at ``gamma = 1``)
included.  The SVD reuses the Gram's :func:`qnot.linalg.range_null`:
its range whitens ``Psi`` and ``W``.  It is the exact completion's kernel,
:func:`qnot.linalg._cross_svd`, taken on the span of both when ``2r <
d``, and :func:`qnot.linalg._lift` makes the machine exactly the
identity outside it.  The point is decided before the build, and the
build refuses a Gram miss.

:func:`synthesize` gives a family whose Gram equals its targets' at
``GRAM_TOL`` (:func:`qnot.feasibility.check_exact_unitary`) an exact
unitary with unit efficiency and no probe.  Other linearly independent
families get safe equal efficiencies
``epsilon = ETA * lambda_min(G) / lambda_max(conj(G))`` with ``ETA = 0.999``
and the zero-phase probe, which keeps ``M = G - epsilon conj(G)`` strictly
positive; a family is dependent when :func:`qnot.linalg.range_null`, the
one rank decision, finds a null space in the Gram.
:func:`synthesize` computes the Gram once: its exact test, which also
reads the set's targets, the spectrum and ``M`` all read that one matrix.
:func:`synthesize_with` decides the caller's point by the test of
:func:`qnot.feasibility.check_probabilistic`, on the one Gram it then
builds from; both build through one assembly step with ``M`` from
:func:`qnot.feasibility.constraint_matrix`.  :func:`synthesize` hands it
the split it took for the spectrum, and :func:`synthesize_with` the one
its check took; an edge point's repair takes :func:`qnot.linalg.psd_sqrt`.

Every machine acts on ``D = 2d`` joint coordinates (``D = d`` on the
exact path, which has no probe) and holds one dense ``D x D`` unitary.  A
machine checks its design once, when it is built, and keeps its own copy
of the efficiencies and phases; the unitary is kept as given.  It moves
at most ``s = d + min(n, d)`` of those coordinates, and every other row
and column is exactly the identity's.
:meth:`Machine.unitarity_error` scans the unitary by exact comparison for
the indices whose row or column differs from the identity's and checks
``V^dag V = I`` on them, at ``O(D^2 + s^3)``, so an edit anywhere is
still checked.  With ``s = d + r`` that is still about ``(D/2)^3`` when
``n << d``: a probabilistic machine moves all ``d`` system rows;
:meth:`Machine.success_block` copies ``U[::p, ::p]``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, GramMismatch, InfeasibleGamma,
                     LinearlyDependent)
from .feasibility import (
    ProbeSpec,
    _exact,
    _probabilistic,
    build_exact_unitary,
    constraint_matrix,
    efficiencies,
    machine_phases,
)
from .linalg import _cross_svd, _lift, gram_miss, gram_of, psd_sqrt, range_null
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
        return float(np.abs(gram_of(v) - np.eye(s.size)).max())

    def success_block(self) -> np.ndarray:
        """``U[::p, ::p]``: system to system with the probe kept in state 0."""
        p = self.probe_dim
        return self.unitary[::p, ::p].copy()


@dataclass
class SynthesisReport:
    """:func:`synthesize`'s choices and health.  ``epsilon`` is the equal
    efficiency and ``c``, ``d_max`` are the Gram's extreme eigenvalues.
    ``residual`` is ``max |F^dag F - M|`` on the general path, for the
    failure branches ``F = C V_a^dag Psi`` of the CS dilation, and ``max
    |U_s Psi - T|`` of the success block on the set's matrix ``Psi`` and
    targets ``T`` on the exact path."""

    epsilon: float
    c: float
    d_max: float
    residual: float
    path: str = "general"


def _assemble(state_set: StateSet, gram_matrix: GramMatrix, split, gammas,
              probe: ProbeSpec):
    """Machine at efficiencies ``gammas`` with a phase-vector probe, and residual.

    ``split`` is the Gram's :func:`qnot.linalg.range_null`; its range
    ``B`` and eigenvalues ``Lambda`` on it whiten the branches: ``Q_psi =
    Psi B Lambda^{-1/2}`` is an orthonormal basis of span Psi, and the
    success map ``A = X Q_psi^dag`` with ``X = W B Lambda^{-1/2}`` sends
    each member to its branch ``W = T diag(sqrt(gamma) e^{i phi})``.
    On span Psi, ``I - A^dag A`` is ``M`` whitened, so ``A`` is a
    contraction; :func:`qnot.linalg._cross_svd` takes its SVD, as for an
    exact completion, and :func:`_dilation` writes its CS dilation, with
    failure branches ``F = C V_a^dag Psi``.  A point inside the point
    rule's slack has ``lambda_min(M) < 0`` and shows a singular value
    above 1; there ``W`` first moves to the Gram of ``G - M_+``
    (:func:`_clamp_excess`), since clipping ``S`` alone moves the Gram by
    up to the excess times ``lambda_max(G)``.  The branches are tested by
    :func:`qnot.linalg.gram_miss` of ``G`` and ``W^dag W + F^dag F``,
    whose miss raises :class:`GramMismatch`, and the residual is
    ``max |F^dag F - M|``.  Which point is built is decided by the caller.
    """
    n = len(state_set)
    phases = machine_phases(probe, n)
    gammas = efficiencies(gammas, n)
    m_matrix = constraint_matrix(gram_matrix, gammas, probe)
    w = state_set.target_matrix() * (np.sqrt(gammas) * np.exp(1j * phases))
    psi = state_set.matrix()
    b, null, vals = split
    lam = vals[null.shape[1]:]
    whiten = 1.0 / np.sqrt(lam)
    q_psi, w_range = (psi @ b) * whiten, w @ b
    svd = _cross_svd(q_psi, w_range * whiten)
    if svd[2][0] > 1.0:
        w_range = _clamp_excess(w_range, b.conj().T @ m_matrix @ b)
        svd = _cross_svd(q_psi, w_range * whiten)
    unitary, fail_in = _dilation(*svd, lam.size)
    failure_gram = gram_of(fail_in @ psi)
    miss = gram_miss(gram_matrix.matrix, gram_of(w) + failure_gram)
    if miss:
        raise GramMismatch(*miss)
    machine = Machine(state_set.dim, 2, state_set.target, unitary, gammas,
                      phases)
    return machine, float(np.abs(failure_gram - m_matrix).max())


def _clamp_excess(w_range: np.ndarray, m_range: np.ndarray) -> np.ndarray:
    """Success branches ``W B`` moved to the Gram of ``G - M_+`` on the
    range, ``M_+`` the clamp of ``M`` at 0: ``W (W^dag W)^{-1/2} (G -
    M_+)^{1/2}``.  With ``W B = U S V^dag`` and ``P = M_+ - M``, that is
    ``U (S^2 - V^dag P V)^{1/2} V^dag``, whose square root
    (:func:`qnot.linalg.psd_sqrt`, behind the one PSD test) is taken next
    to the exact ``S^2``, not of the difference ``G - M_+``; with no
    negative eigenvalue in ``M``, ``P = 0`` and the branches are kept."""
    m_vals, m_vecs = np.linalg.eigh(m_range)
    neg = m_vals < 0.0
    if not neg.any():
        return w_range
    part = (m_vecs[:, neg] * -m_vals[neg]) @ m_vecs[:, neg].conj().T
    u_w, s_w, vh_w = np.linalg.svd(w_range, full_matrices=False)
    root = psd_sqrt(np.diag(s_w ** 2) - vh_w @ part @ vh_w.conj().T)
    return (u_w @ root) @ vh_w


def _dilation(q, u_a, s, vh_a, r: int):
    """The ``2d x 2d`` machine and its ``r x d`` map into the failure rows,
    from the SVD ``(Q, U_a, S, V_a^dag)`` of :func:`qnot.linalg._cross_svd`.

    The top ``r`` singular values carry the input, clipped at 1; the
    directions of ``K`` that carry none get ``s = 1`` and no failure row.
    With ``C = sqrt((1 - S)(1 + S))`` the machine on ``(K x |0>) +``
    (failure row ``j`` at ``|j> x |1>``, ``j < r``) is ``[[U_a S V_a^dag,
    U_a C], [C V_a^dag, -S]]``, unitary to rounding at every ``S``, and
    exactly the identity everywhere else, so at most ``d + r`` rows move;
    :func:`qnot.linalg._lift` writes the success block back from ``K``.
    """
    s_in = np.minimum(s[:r], 1.0)
    c = np.sqrt((1.0 - s_in) * (1.0 + s_in))
    s_used = np.ones(s.size)
    s_used[:r] = s_in
    success = _lift(q, (u_a * s_used) @ vh_a)
    fail_in, fail_out = c[:, None] * vh_a[:r], u_a[:, :r] * c
    if q is not None:
        fail_in, fail_out = fail_in @ q.conj().T, q @ fail_out
    d = success.shape[0]
    unitary = np.eye(2 * d, dtype=complex)
    rows = np.arange(1, 2 * r, 2)
    unitary[::2, ::2] = success
    unitary[1:2 * r:2, ::2] = fail_in
    unitary[::2, 1:2 * r:2] = fail_out
    unitary[rows, rows] = -s_in
    return unitary, fail_in


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
    _, null, spectrum = split = range_null(gm.matrix)
    c, d_max = float(spectrum[0]), float(spectrum[-1])

    if _exact(state_set, gm).feasible:
        machine = Machine(state_set.dim, 1, state_set.target,
                          build_exact_unitary(state_set), np.ones(n),
                          np.zeros(n))
        # the residual of the dense d x d product, as the machine file records it
        residual = float(np.abs(machine.success_block() @ state_set.matrix()
                                - state_set.target_matrix()).max())
        return machine, SynthesisReport(1.0, c, d_max, residual, path="exact")

    if null.shape[1]:
        raise LinearlyDependent(
            f"Gram rank is below {n} (smallest eigenvalue {c:.3e})")
    epsilon = ETA * c / d_max
    machine, residual = _assemble(state_set, gm, split, epsilon,
                                  ProbeSpec.phase_vector(np.zeros(n)))
    return machine, SynthesisReport(epsilon, c, d_max, residual)


def synthesize_with(state_set: StateSet, gammas, probe: ProbeSpec) -> Machine:
    """Machine with caller-chosen efficiencies and probe phases.

    The probe must be of phase-vector kind (else :class:`InvalidProbe`),
    and :func:`qnot.feasibility.check_probabilistic` must accept the point
    (else :class:`InfeasibleGamma`); it decides on the Gram the machine is
    built from.  Dependent families are fine here: the machine is built on
    the range of the Gram that :func:`qnot.linalg.null_count` decides.
    """
    # a probe no machine realizes is refused before the efficiencies are read
    machine_phases(probe, len(state_set))
    gm = gram(state_set)
    verdict, split = _probabilistic(gm, gammas, probe)
    if not verdict.feasible:
        raise InfeasibleGamma(
            f"constraint matrix has eigenvalue {verdict.lambda_min:.3e}")
    return _assemble(state_set, gm, split, gammas, probe)[0]
