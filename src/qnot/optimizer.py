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
``(0, 1]``, ``1 + (2 sqrt(s^2 - a s) - 2 s) / a``, or without cancellation
``1 / (sqrt(x) + sqrt(1 + x))^2``, ``x = -s / a``.  :func:`gamma_max_triple`
returns the first point of its retreat toward 0 (:data:`RETREAT`) that
:func:`point_rule` accepts on the triple's own Gram, or raises if the
triple is dependent or none does; :func:`grid_oracle_triple`, the
independent check, bisects on it.
Its :data:`HALVINGS` halvings of ``[0, 1]`` are the sequential ``mid =
(lo + hi) / 2`` ones, but one stacked :func:`point_rule` call tests every
point ``lo + (hi - lo) j / 2^LEVELS`` the next :data:`LEVELS` halvings can
reach, passed as one column of equal efficiencies that broadcasts over the
states, and the outcomes are walked as the bisection would, on Python
floats from one ``tolist`` per call.  The bracket's
width is a power of two, so each such point is its exact value rounded
once, as the sequential midpoint is: the two agree bit for bit until a
midpoint rounds onto ``lo`` or ``hi``, after which no halving moves the
bracket, and the oracle stops there.

:func:`search_gamma` returns the edge of the same rule, which
:func:`check_probabilistic` applies.  With ``B``, ``N`` the range and null
bases of G, ``M`` must vanish on ``N``, which depends only on the probe and
the ratios of the ``gamma_i``: a probe that fails it has no feasible point.
Otherwise ``gamma = 1`` if accepted, else ``EQUAL`` shares ``min(1, 1 /
lambda_max(L^-1 (B^dag K B - PSD_TOL I) L^-dag))``, ``L L^dag = B^dag G B``
(G and K as they are at full rank), the rule's edge rearranged.
``COORDINATE`` then raises one ``x = sqrt(gamma_i)`` at a time, for ``i``
off the support of ``N``: with ``e = PSD_TOL min(gamma)``, ``A`` =
``M + e I`` without row and column ``i``, ``g = G[-i, i]`` and ``h =
sqrt(gamma_-i) K[-i, i]``, the Schur complement keeps the point feasible
while ``-(K_ii + h^dag A^-1 h) x^2 + 2 Re(g^dag A^-1 h) x + G_ii + e -
g^dag A^-1 g >= 0``; one solve against ``[g, h]`` (least squares for a
singular ``A``) gives the larger root, capped at 1.  ``M + e I`` (from
:func:`qnot.feasibility.scaled_constraint`) and ``sqrt(gamma)`` are built
once per point, when the ascent starts and after each move, and every step
at that point takes its ``A`` and ``h`` from them; the columns
``G[-i, i]``, ``K[-i, i]`` and the real diagonals are read once per
search, and the root is solved on Python floats.  A rise below
:data:`COORDINATE_CONVERGENCE` is not taken; any other candidate is kept
once the rule accepts it, else retreated toward the last certified value
along :data:`RETREAT`.  Steps go round the free members in a fixed
cyclic order, and the ascent ends once as many steps in a row as there are
free members make no move (or after 200 steps per free member): a step is
a function of the point alone, so each member's next step would make no
move either.  Without a probe the search takes
:func:`qnot.feasibility.standard_probe`, the witness of the exact probe
check, so the two agree; its points are certified lower bounds for an
optimal probe.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DegenerateDeterminant, NoFeasiblePoint, NotPSD
from .feasibility import (ProbeSpec, constraint_kernel, null_miss, point_rule,
                          scaled_constraint, standard_probe)
from .linalg import GRAM_TOL, PSD_TOL, is_psd, range_null
from .states import GramMatrix, StateSet, gram

COORDINATE_CONVERGENCE = 1e-6
# the oracle's halvings of [0, 1], decided LEVELS at a time; LEVELS divides
# HALVINGS, or the last round would halve past the sequential bisection
HALVINGS = 70
LEVELS = 2
# steps t of a closed-form candidate c back toward v0, to c - t (c - v0)
RETREAT = (0.0, 2.0 ** -44, 2.0 ** -34, 2.0 ** -24, 2.0 ** -14, 0.5)


@dataclass(frozen=True)
class TripleBoundInput:
    """Polar overlap data of three pairwise nonorthogonal states; built by
    :meth:`from_gram`, it keeps that Gram for :meth:`gram_matrix`, and a
    zero overlap raises :class:`DegenerateDeterminant` there."""

    t12: float
    t13: float
    t23: float
    theta12: float
    theta13: float
    theta23: float
    _gram: GramMatrix | None = field(default=None, init=False, compare=False,
                                     repr=False)

    def __post_init__(self):
        for name in ("t12", "t13", "t23"):
            t = getattr(self, name)
            if not (0.0 < t <= 1.0):
                raise ValueError(f"{name} = {float(t)!r} must lie in (0, 1]")
        for name in ("theta12", "theta13", "theta23"):
            theta = getattr(self, name)
            if not np.isfinite(theta):
                raise ValueError(f"{name} = {float(theta)!r} must be finite")

    @classmethod
    def from_gram(cls, gram_matrix: GramMatrix) -> "TripleBoundInput":
        if gram_matrix.n != 3:
            raise ValueError("triple bound needs exactly three states")
        # norms accepted within NORM_TOL of 1 can put |G_ij| just above 1
        t = np.minimum(gram_matrix.magnitudes, 1.0)
        if not t.all():
            raise DegenerateDeterminant("the triple has a zero overlap")
        th = gram_matrix.phases
        inp = cls(t[0, 1], t[0, 2], t[1, 2], th[0, 1], th[0, 2], th[1, 2])
        object.__setattr__(inp, "_gram", gram_matrix)
        return inp

    @property
    def delta(self) -> float:
        return self.theta12 - self.theta13 + self.theta23

    @property
    def a(self) -> float:
        """Minus the Gram determinant: the boundary quadratic's coefficient."""
        return (-1.0 + self.t12 ** 2 + self.t13 ** 2 + self.t23 ** 2
                - 2.0 * self.t12 * self.t13 * self.t23 * np.cos(self.delta))

    def gram_matrix(self) -> GramMatrix:
        if self._gram is not None:
            return self._gram
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


def gamma_max_triple(inp: TripleBoundInput) -> float:
    """Closed-form largest equal efficiency for a triple, PSD-certified.

    Raises :class:`NotPSD` when the overlap data is not a valid Gram at
    all, and :class:`DegenerateDeterminant` when the rank decision calls the
    triple dependent, or no rung of the retreat from the root toward 0
    passes :func:`point_rule`.
    """
    g = inp.gram_matrix().matrix
    if not is_psd(g):
        raise NotPSD("overlap data is not a positive semidefinite Gram")
    a = inp.a
    if range_null(g)[1].shape[1]:
        raise DegenerateDeterminant(
            f"Gram rank is below 3 (|det| = {abs(a):.3e})")
    x = -inp.t23 ** 2 * np.sin(inp.delta) ** 2 / a
    k = constraint_kernel(g, inp.probe())
    val = _retreat(lambda v: point_rule(g, k, np.full(3, v))[0],
                   1.0 / (np.sqrt(x) + np.sqrt(1.0 + x)) ** 2, 0.0)
    if val > 0.0:
        return float(val)
    raise DegenerateDeterminant(
        f"no retreat from the root of det M passes (|det| = {abs(a):.3e})")


def grid_oracle_triple(gram_matrix: GramMatrix, probe: ProbeSpec) -> float:
    """Bisection boundary of equal-efficiency feasibility; no closed form.

    :data:`HALVINGS` halvings of ``[0, 1]``, :data:`LEVELS` per stacked
    :func:`point_rule` call (see the module doc); it stops at the first
    midpoint that equals an end, where no halving moves the bracket.
    """
    g = gram_matrix.matrix
    k = constraint_kernel(g, probe)
    n = gram_matrix.n
    if point_rule(g, k, np.ones(n))[0]:
        return 1.0
    lo, hi = 0.0, 1.0
    steps = np.arange(1, 2 ** LEVELS) / 2 ** LEVELS
    for _ in range(HALVINGS // LEVELS):
        mids = lo + (hi - lo) * steps
        # one column: each row is an equal point, broadcast over the n states
        ok = point_rule(g, k, mids[:, None])[0].tolist()
        mids = mids.tolist()
        at = 0  # lo is the round's point j = at (the old lo is j = 0)
        for level in reversed(range(LEVELS)):
            m = at + 2 ** level
            mid = mids[m - 1]
            if mid in (lo, hi):
                return lo
            if ok[m - 1]:
                lo, at = mid, m
            else:
                hi = mid
    return lo


class GammaPolicy(Enum):
    EQUAL = "equal"
    COORDINATE = "coordinate"


@dataclass(eq=False)
class GammaSearchResult:
    """``iterations``: the evaluations the search made, its rule tests,
    EQUAL's eigenproblem and its Schur solves; a skipped step makes none."""

    gammas: np.ndarray
    probe: ProbeSpec
    mean_gamma: float
    iterations: int
    boundary_lambda_min: float


def _retreat(feasible, c: float, v0: float) -> float:
    """First ``c - t (c - v0)``, ``t`` in :data:`RETREAT`, that ``feasible``
    accepts; else ``v0``, the last certified value (``t = 1``)."""
    if c > v0:
        for t in RETREAT:
            v = c - t * (c - v0)
            if feasible(v):
                return v
    return v0


def search_gamma(state_set: StateSet, policy: GammaPolicy = GammaPolicy.EQUAL,
                 probe: ProbeSpec | None = None) -> GammaSearchResult:
    """Largest efficiencies :func:`check_probabilistic` accepts.

    See the module doc.  Each point kept passed :func:`point_rule`, so it
    builds a machine that verifies.  :class:`NoFeasiblePoint` for a probe
    that fails the null test, or when no rung of EQUAL's retreat passes;
    :class:`InvalidProbe` for a probe of the wrong size.
    """
    if not isinstance(policy, GammaPolicy):
        raise ValueError(f"policy must be a GammaPolicy, got {policy!r}")
    gm = gram(state_set)
    if probe is None:
        probe = standard_probe(gm)
    g = gm.matrix
    k = constraint_kernel(g, probe)
    n = gm.n
    basis, null, _ = range_null(g)
    if not null_miss(k, np.ones(n), null) <= GRAM_TOL:
        raise NoFeasiblePoint(
            "this probe leaves M nonzero on the null space of G")
    calls = 0
    gammas = np.zeros(n)
    edge = 0.0  # lambda_min(M) at the last point the rule accepted

    def feasible(v, i=slice(None)) -> bool:
        """The point rule at ``gammas`` with entry ``i`` (default all) at v."""
        nonlocal calls, edge
        calls += 1
        trial = gammas.copy()
        trial[i] = v
        ok, lam = point_rule(g, k, trial)
        edge = lam if ok else edge
        return ok

    equal = 1.0
    if not feasible(1.0):
        g_b, k_b = (g, k) if not null.size else (
            basis.conj().T @ g @ basis, basis.conj().T @ k @ basis)
        low = np.linalg.cholesky(g_b)
        c = np.linalg.solve(low, np.linalg.solve(
            low, k_b - PSD_TOL * np.eye(g_b.shape[0])).conj().T)
        calls += 1
        lam_max = np.linalg.eigvalsh(c + c.conj().T)[-1] / 2.0
        equal = _retreat(feasible, min(1.0, 1.0 / lam_max), 0.0)
    if equal == 0.0:
        raise NoFeasiblePoint("no feasible efficiencies certified")
    gammas[:] = equal

    if policy is GammaPolicy.COORDINATE:
        col = np.arange(n - 1)
        # row i: every index but i
        others = col + (col >= np.arange(n)[:, None])
        # row i: G[-i, i] and K[-i, i]
        g_off, k_off = (m[others, np.arange(n)[:, None]] for m in (g, k))
        # the quadratic's scalars as Python floats
        g_diag = g.diagonal().real.tolist()
        k_diag = k.diagonal().real.tolist()
        gh = np.empty((n - 1, 2), complex)

        def shifted_constraint():
            """``(M + e I, sqrt(gamma), e)`` at the current point, for each
            step there to take its block and ``h`` from."""
            slack = PSD_TOL * float(gammas.min())
            shifted = scaled_constraint(g, k, gammas)
            shifted.flat[::n + 1] += slack
            return shifted, np.sqrt(gammas), slack

        def schur_step(i) -> float:
            nonlocal calls
            gamma = float(gammas[i])
            if gamma >= 1.0:
                return gamma
            rest = others[i]
            shifted, root, slack = point
            a = shifted.take(rest, 0).take(rest, 1)
            gh[:, 0] = g_off[i]
            gh[:, 1] = root[rest] * k_off[i]
            calls += 1
            try:
                sol = np.linalg.solve(a, gh)
            except np.linalg.LinAlgError:
                sol = np.linalg.lstsq(a, gh, rcond=None)[0]
            (q00, q01), (_, q11) = (gh.conj().T @ sol).tolist()
            alpha, beta = k_diag[i] + q11.real, q01.real
            disc = beta * beta + alpha * (g_diag[i] + slack - q00.real)
            x = min((beta + math.sqrt(max(disc, 0.0))) / alpha, 1.0)
            if not x * x - gamma >= COORDINATE_CONVERGENCE:
                return gamma
            return _retreat(lambda v: feasible(v, i), x * x, gamma)

        free = np.flatnonzero(np.abs(null).max(axis=1, initial=0.0)
                              <= GRAM_TOL)
        point = shifted_constraint()  # what every step at this point reads
        idle = 0  # steps since the last move
        for step in range(200 * free.size):
            i = free[step % free.size]
            best = schur_step(i)
            if best != gammas[i]:
                gammas[i], idle = best, 0
                point = shifted_constraint()
            else:
                idle += 1
                if idle == free.size:
                    break

    # every accepted point is kept, so the last one is the result
    return GammaSearchResult(gammas, probe, float(gammas.mean()), calls, edge)
