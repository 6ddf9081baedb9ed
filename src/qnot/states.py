"""States, target maps, and Gram matrices.

Two antiunitary target maps are supported: the qubit spin flip
``(a, b) -> (-b*, a*)`` that sends every state to its orthogonal
complement, and entrywise conjugation on qudits of any dimension.  Both
conjugate the Gram matrix of a state family, which is the single fact the
feasibility and synthesis machinery rests on.  Each map is one array
expression, :func:`target_amps`, applied to one state or to a whole set's
columns at once, so a set reaches its targets with no per-member object.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DimensionMismatch, InvalidState, WrongDimension
from .linalg import gram_of

NORM_TOL = 1e-10


class TargetMap(Enum):
    NOT = "not"
    CONJUGATE = "conjugate"


@dataclass(frozen=True, eq=False)
class QuditState:
    """Normalized pure state on a d-level system."""

    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex).ravel()
        object.__setattr__(self, "amps", amps)
        if amps.size < 2:
            raise WrongDimension("qudit dimension must be at least 2")
        nrm = float(np.linalg.norm(amps))
        # a NaN or infinite amplitude makes the norm NaN or infinite, which
        # fails this test as written (``abs(nan - 1) > tol`` would not)
        if not abs(nrm - 1.0) <= NORM_TOL:
            raise InvalidState(f"norm {nrm!r} is not 1 within {NORM_TOL:.1e}")

    @property
    def dim(self) -> int:
        return self.amps.size

    @classmethod
    def normalized(cls, amps) -> "QuditState":
        """Build a state from an unnormalized amplitude vector."""
        amps = np.asarray(amps, dtype=complex).ravel()
        nrm = np.linalg.norm(amps)
        if nrm < 1e-12:
            raise InvalidState("cannot normalize the zero vector")
        return cls(amps / nrm)

    def overlap(self, other: "QuditState") -> complex:
        if other.dim != self.dim:
            raise DimensionMismatch(f"dims {self.dim} and {other.dim} differ")
        return complex(np.vdot(self.amps, other.amps))


def target_amps(amps: np.ndarray, target: TargetMap) -> np.ndarray:
    """The target map on an amplitude vector, or on each column of a matrix."""
    if target is TargetMap.CONJUGATE:
        return np.conj(amps)
    if amps.shape[0] != 2:
        raise WrongDimension("orthogonal complement is defined for qubits only")
    out = np.conj(amps[::-1])
    out[0] = -out[0]
    return out


def target_state(state: QuditState, target: TargetMap) -> QuditState:
    """Apply the antiunitary target map to one state."""
    return QuditState(target_amps(state.amps, target))


def orthogonal_complement(state: QuditState) -> QuditState:
    """Qubit orthogonal complement ``a|0> + b|1> -> a*|1> - b*|0>``."""
    return target_state(state, TargetMap.NOT)


def conjugate(state: QuditState) -> QuditState:
    """Entrywise complex conjugation in the computational basis."""
    return target_state(state, TargetMap.CONJUGATE)


@dataclass(frozen=True)
class StateSet:
    """Finite family of equal-dimension states with a designated target map."""

    states: tuple[QuditState, ...]
    target: TargetMap

    def __post_init__(self):
        if not isinstance(self.target, TargetMap):
            raise ValueError(f"target must be a TargetMap, got {self.target!r}")
        states = tuple(self.states)
        object.__setattr__(self, "states", states)
        if not states:
            raise DimensionMismatch("state set must contain at least one state")
        dim = states[0].dim
        for s in states:
            if s.dim != dim:
                raise DimensionMismatch("all states must share one dimension")
        if self.target is TargetMap.NOT and dim != 2:
            raise WrongDimension("NOT target requires qubit states")

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self):
        return iter(self.states)

    @property
    def dim(self) -> int:
        return self.states[0].dim

    @classmethod
    def from_amplitudes(cls, rows, target: TargetMap) -> "StateSet":
        return cls(tuple(map(QuditState, rows)), target)

    def matrix(self) -> np.ndarray:
        """States stacked as columns of a dim-by-n matrix."""
        return np.stack([s.amps for s in self.states], axis=1)

    def target_matrix(self) -> np.ndarray:
        """Target states stacked as columns, like :meth:`matrix`."""
        return target_amps(self.matrix(), self.target)


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Gram matrix of a state family together with its polar data.

    ``magnitudes[i, j]`` is ``|<i|j>|`` and ``phases[i, j]`` its argument
    folded into ``[0, 2*pi)``.  Entries with vanishing magnitude get phase
    zero; nothing downstream consumes the phase of a zero.
    """

    matrix: np.ndarray
    magnitudes: np.ndarray = field(init=False, repr=False)
    phases: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        mags = np.abs(m)
        phis = np.mod(np.angle(m), 2.0 * np.pi)
        phis[mags < 1e-15] = 0.0
        object.__setattr__(self, "magnitudes", mags)
        object.__setattr__(self, "phases", phis)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def gram(state_set: StateSet) -> GramMatrix:
    """Gram matrix ``G[i, j] = <i|j>`` of the member states."""
    return GramMatrix(gram_of(state_set.matrix()))
