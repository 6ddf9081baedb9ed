"""Largest achievable efficiencies for probabilistic machines.

For a triple with overlap magnitudes ``t_ij``, phases ``theta_ij`` and the
doubled-phase probe ``P`` (``<P_1|P_j> = e^{2i theta_1j}``), equal
efficiencies ``gamma`` are feasible while ``M = G - gamma K`` is PSD;
``K = conj(G) * P`` is PSD, so they form an interval ``(0, gamma_max]``.
With ``delta = theta_12 - theta_13 + theta_23``, ``s = t_23^2 sin^2(delta)``
and ``a = -1 + t12^2 + t13^2 + t23^2 - 2 t12 t13 t23 cos(delta)`` (minus
the Gram determinant, negative for independent triples),

    det M = -(1 - gamma) (a gamma^2 + 2 (2 s - a) gamma + a),

and the quadratic's roots multiply to 1: ``gamma_max`` is the one in
``(0, 1]``, ``1 + (2 sqrt(s^2 - a s) - 2 s) / a``.  :func:`gamma_max_triple`
returns it, or 1e-9 inside it, whichever the PSD test accepts first, and
raises when neither passes (a nearly dependent triple).
:func:`grid_oracle_triple` is the independent check: pure bisection
against the PSD criterion.

For general families :func:`search_gamma` runs the same bisection with a
shared efficiency (policy ``EQUAL``), optionally followed by cyclic
per-state coordinate ascent (policy ``COORDINATE``).  The doubled-phase
probe makes these certified lower bounds on what an optimal probe could do.

Every feasibility decision here builds the constraint matrix with
:func:`qnot.feasibility.scaled_constraint` and tests it with
:func:`qnot.linalg.smallest_eigenvalue` against ``-tol`` in
:func:`search_gamma`, and against the fixed ``-PSD_TOL`` in the triple
bound and its oracle, so those two always compare at one tolerance.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateDeterminant, NoFeasiblePoint, NotPSD
from .feasibility import (ProbeSpec, check_probabilistic, constraint_kernel,
                          scaled_constraint, standard_probe)
from .linalg import PSD_TOL, smallest_eigenvalue
from .states import GramMatrix, StateSet, gram

DET_TOL = 1e-12
COORDINATE_CONVERGENCE = 1e-6


@dataclass(frozen=True)
class TripleBoundInput:
    """Polar overlap data of three pairwise nonorthogonal states."""

    t12: float
    t13: float
    t23: float
    theta12: float
    theta13: float
    theta23: float

    def __post_init__(self):
        for name in ("t12", "t13", "t23"):
            t = getattr(self, name)
            if not (0.0 < t <= 1.0):
                raise ValueError(f"{name} = {t!r} must lie in (0, 1]")
        for name in ("theta12", "theta13", "theta23"):
            theta = getattr(self, name)
            if not np.isfinite(theta):
                raise ValueError(f"{name} = {theta!r} must be finite")

    @classmethod
    def from_gram(cls, gram_matrix: GramMatrix) -> "TripleBoundInput":
        if gram_matrix.n != 3:
            raise ValueError("triple bound needs exactly three states")
        t = gram_matrix.magnitudes
        th = gram_matrix.phases
        return cls(t[0, 1], t[0, 2], t[1, 2], th[0, 1], th[0, 2], th[1, 2])

    @property
    def delta(self) -> float:
        return self.theta12 - self.theta13 + self.theta23

    @property
    def a(self) -> float:
        """Minus the Gram determinant: the boundary quadratic's coefficient."""
        return (-1.0 + self.t12 ** 2 + self.t13 ** 2 + self.t23 ** 2
                - 2.0 * self.t12 * self.t13 * self.t23 * np.cos(self.delta))

    def gram_matrix(self) -> GramMatrix:
        g12 = self.t12 * np.exp(1j * self.theta12)
        g13 = self.t13 * np.exp(1j * self.theta13)
        g23 = self.t23 * np.exp(1j * self.theta23)
        return GramMatrix(np.array([
            [1.0, g12, g13],
            [np.conj(g12), 1.0, g23],
            [np.conj(g13), np.conj(g23), 1.0]]))

    def probe(self) -> ProbeSpec:
        return ProbeSpec.phase_vector([0.0, 2.0 * self.theta12,
                                       2.0 * self.theta13])


def _feasible(g: np.ndarray, k: np.ndarray, gammas: np.ndarray,
              tol: float = PSD_TOL) -> bool:
    """The PSD test of the constraint matrix at efficiencies ``gammas``."""
    return smallest_eigenvalue(scaled_constraint(g, k, gammas)) >= -tol


def gamma_max_triple(inp: TripleBoundInput) -> float:
    """Closed-form largest equal efficiency for a triple, PSD-certified.

    Raises :class:`NotPSD` when the overlap data is not a valid Gram at
    all, and :class:`DegenerateDeterminant` when the triple is too close to
    dependent for the closed form: the Gram determinant sits below 1e-12 in
    magnitude, or neither the root nor 1e-9 inside it passes the PSD test.
    """
    g = inp.gram_matrix().matrix
    if smallest_eigenvalue(g) < -PSD_TOL:
        raise NotPSD("overlap data is not a positive semidefinite Gram")
    a = inp.a
    if abs(a) < DET_TOL:
        raise DegenerateDeterminant(
            f"|det| = {abs(a):.3e} is below {DET_TOL:.1e}")
    s = inp.t23 ** 2 * np.sin(inp.delta) ** 2
    root = np.sqrt(max(s * s - a * s, 0.0))
    val = min(1.0 + (2.0 * root - 2.0 * s) / a, 1.0)
    k = constraint_kernel(g, inp.probe())
    # the root can sit a hair past the edge; step 1e-9 inside, and return
    # only a value the PSD test accepted
    for point in (val, val - 1e-9):
        if point > 0.0 and _feasible(g, k, np.full(3, point)):
            return float(point)
    raise DegenerateDeterminant(
        f"the root of det M fails the PSD test (|det| = {abs(a):.3e})")


def _bisect_boundary(feasible, lo: float = 0.0, steps: int = 70) -> float:
    """Largest value in ``[lo, 1]`` a monotone predicate accepts.

    ``1.0`` is tested first; otherwise ``steps`` halvings of ``[lo, 1]``
    follow, and the last accepted value (``lo`` if none) is returned.
    """
    if feasible(1.0):
        return 1.0
    hi = 1.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def grid_oracle_triple(gram_matrix: GramMatrix, probe: ProbeSpec) -> float:
    """Bisection boundary of equal-efficiency feasibility; no closed form."""
    g = gram_matrix.matrix
    k = constraint_kernel(g, probe)
    n = gram_matrix.n
    return _bisect_boundary(lambda v: _feasible(g, k, np.full(n, v)))


class GammaPolicy(Enum):
    EQUAL = "equal"
    COORDINATE = "coordinate"


@dataclass(eq=False)
class GammaSearchResult:
    gammas: np.ndarray
    probe: ProbeSpec
    mean_gamma: float
    iterations: int
    boundary_lambda_min: float


def search_gamma(state_set: StateSet, policy: GammaPolicy = GammaPolicy.EQUAL,
                 probe: ProbeSpec | None = None,
                 tol: float = PSD_TOL) -> GammaSearchResult:
    """Feasible efficiency vector found by bisection and coordinate ascent.

    ``EQUAL`` bisects one shared efficiency; ``COORDINATE`` then raises
    each ``gamma_i`` in turn (holding the others) until a full sweep moves
    no coordinate by more than 1e-6.  Every point kept was tested feasible
    with the arithmetic and the PSD test that
    :func:`qnot.synthesis.synthesize_with` applies, so a returned point
    (with ``tol`` at its default) always builds a machine.  Raises
    :class:`NoFeasiblePoint` when no shared efficiency above ``tol`` (and
    above 0) passes the test: the PSD test, which accepts eigenvalues down
    to ``-tol``, cannot tell a shared efficiency that small from 0.  A
    probe of the wrong size raises :class:`InvalidProbe`.
    """
    if not isinstance(policy, GammaPolicy):
        raise ValueError(f"policy must be a GammaPolicy, got {policy!r}")
    gm = gram(state_set)
    if probe is None:
        probe = standard_probe(gm)
    g = gm.matrix
    k = constraint_kernel(g, probe)
    n = gm.n
    evals = 0

    def feasible_vec(vec) -> bool:
        nonlocal evals
        evals += 1
        return _feasible(g, k, vec, tol)

    equal = _bisect_boundary(lambda v: feasible_vec(np.full(n, v)))
    if not equal > max(tol, 0.0):
        raise NoFeasiblePoint("no feasible efficiencies certified")
    gammas = np.full(n, equal)

    if policy is GammaPolicy.COORDINATE:
        for _ in range(200):
            biggest_move = 0.0
            for i in range(n):
                trial = gammas.copy()

                def feasible_at(v) -> bool:
                    trial[i] = v
                    return feasible_vec(trial)

                best = _bisect_boundary(feasible_at, lo=gammas[i], steps=60)
                biggest_move = max(biggest_move, best - gammas[i])
                gammas[i] = best
            if biggest_move < COORDINATE_CONVERGENCE:
                break

    lam_min = check_probabilistic(state_set, gammas, probe, tol).lambda_min
    return GammaSearchResult(gammas, probe, float(gammas.mean()), evals,
                             lam_min)
