"""States, target maps, and Gram matrices.

Two antiunitary target maps are supported: the qubit spin flip
``(a, b) -> (-b*, a*)`` that sends every state to its orthogonal
complement, and entrywise conjugation on qudits of any dimension.  Both
conjugate the Gram matrix of a state family, which is the single fact the
feasibility and synthesis machinery rests on.  Each map is one array
expression, :func:`target_amps`, applied to one state or to a whole set's
columns at once, so a set reaches its targets with no per-member object.
A set holds only its target and one read-only d-by-n matrix of its
members' amplitudes; a member read from it is a view of its column.
:meth:`StateSet.from_amplitudes` builds that matrix in one array pass and
checks every member at once, with the one member check a single
:class:`QuditState` also makes, so no member object is built.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, InvalidState, WrongDimension
from .linalg import gram_of

NORM_TOL = 1e-10


class TargetMap(Enum):
    NOT = "not"
    CONJUGATE = "conjugate"


@dataclass(frozen=True, eq=False)
class QuditState:
    """Normalized pure state on a d-level system, with read-only ``amps``."""

    amps: np.ndarray

    def __post_init__(self):
        # flatten always copies, so no caller's array can reach the state
        amps = np.asarray(self.amps, dtype=complex).flatten()
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)
        _check_members(amps.reshape(1, -1))

    @classmethod
    def _view(cls, amps: np.ndarray) -> "QuditState":
        """Wrap read-only amplitudes validated already: no copy, no check."""
        state = object.__new__(cls)
        object.__setattr__(state, "amps", amps)
        return state

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


def _check_members(amps: np.ndarray) -> None:
    """Refuse the first row of an n-by-d amplitude matrix that is not a
    normalized state of dimension d >= 2: the one member check.

    Each squared norm is two BLAS dots, over the row's real and imaginary
    parts, as ``np.linalg.norm`` forms it for one vector, so a row gets the
    same norm here whichever way it arrives.
    """
    if amps.shape[1] < 2:
        raise WrongDimension("qudit dimension must be at least 2")
    re, im = amps.real, amps.imag
    norms = np.sqrt((re[:, None] @ re[..., None]
                     + im[:, None] @ im[..., None]).ravel())
    # a NaN or infinite amplitude makes its norm NaN or infinite, which
    # fails these tests as written (``abs(nan - 1) > tol`` would not)
    ok = np.abs(norms - 1.0) <= NORM_TOL
    if not ok.all():
        nrm = float(norms[ok.argmin()])
        raise InvalidState(f"norm {nrm!r} is not 1 within {NORM_TOL:.1e}")


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


def _check_target(target) -> None:
    if not isinstance(target, TargetMap):
        raise ValueError(f"target must be a TargetMap, got {target!r}")


@dataclass(frozen=True, eq=False, init=False)
class StateSet:
    """Finite family of equal-dimension states with a designated target map.

    A set holds its target and one read-only d-by-n matrix of its members'
    amplitudes, each checked once when the set is built: as a
    :class:`QuditState` given to the constructor, or all at once by
    :meth:`from_amplitudes`.  ``states`` and iteration return views of its
    columns, with no copy and no second check.  Sets compare and hash by
    identity.
    """

    target: TargetMap
    _matrix: np.ndarray = field(repr=False)

    def __init__(self, states, target: TargetMap):
        _check_target(target)
        states = tuple(states)
        if not states:
            raise DimensionMismatch("state set must contain at least one state")
        if not all(isinstance(s, QuditState) for s in states):
            raise ValueError("members must be QuditState instances")
        if len({s.dim for s in states}) != 1:
            raise DimensionMismatch("all states must share one dimension")
        self._hold(target, np.stack([s.amps for s in states], axis=1))

    def _hold(self, target: TargetMap, matrix: np.ndarray) -> None:
        """Keep ``matrix``, a new d-by-n array, read-only as the set's."""
        matrix.flags.writeable = False
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "_matrix", matrix)
        if target is TargetMap.NOT and self.dim != 2:
            raise WrongDimension("NOT target requires qubit states")

    def __len__(self) -> int:
        return self._matrix.shape[1]

    def __iter__(self):
        return (QuditState._view(column) for column in self._matrix.T)

    @property
    def states(self) -> tuple[QuditState, ...]:
        """The members, each a view of its column of :meth:`matrix`."""
        return tuple(self)

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    @classmethod
    def from_amplitudes(cls, rows, target: TargetMap) -> "StateSet":
        """The set whose members have the amplitude rows ``rows``.

        One array pass: the rows become one n-by-d array (a row with more
        axes is flattened, as :class:`QuditState` flattens it), the member
        check a :class:`QuditState` makes runs on every row at once, and
        the set keeps a transposed copy.  No member object is built.  Each
        refusal, its message and their order are the constructor's given
        ``QuditState(row)`` for each row.
        """
        # an array is converted whole: its rows as a tuple would cost one
        # view object a member, more than the set keeps
        rows = rows if isinstance(rows, np.ndarray) else tuple(rows)
        try:
            amps = np.asarray(rows, dtype=complex).reshape(len(rows), -1)
        except (TypeError, ValueError, OverflowError):
            # no rows, ragged rows, or rows numpy cannot convert together:
            # each row is checked alone, in order, as a member given to the
            # constructor is, and the constructor then refuses the set, or
            # stacks rows that flatten to one length ([1, 0] and [[0, 1]])
            return cls(tuple(QuditState(row) for row in rows), target)
        _check_members(amps)
        _check_target(target)
        state_set = object.__new__(cls)
        state_set._hold(target, amps.T.copy())
        return state_set

    def matrix(self) -> np.ndarray:
        """States stacked as columns of a dim-by-n matrix (read-only)."""
        return self._matrix

    def target_matrix(self) -> np.ndarray:
        """Target states stacked as columns, like :meth:`matrix`."""
        return target_amps(self.matrix(), self.target)


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Gram matrix of a state family, with its polar data on first read.

    ``magnitudes[i, j]`` is ``|<i|j>|`` and ``phases[i, j]`` its argument
    folded into ``[0, 2*pi)``.  Entries with vanishing magnitude get phase
    zero; nothing downstream consumes the phase of a zero.  The checks, the
    efficiency searches and synthesis read only ``matrix``, so the polar
    data is computed once, by the first caller that reads it.
    """

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix",
                           np.asarray(self.matrix, dtype=complex))

    @cached_property
    def magnitudes(self) -> np.ndarray:
        return np.abs(self.matrix)

    @cached_property
    def phases(self) -> np.ndarray:
        return _fold_phases(self.matrix, self.magnitudes)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _fold_phases(values: np.ndarray, magnitudes: np.ndarray) -> np.ndarray:
    """Arguments of ``values`` folded into ``[0, 2*pi)``, zero where the
    magnitude is below 1e-15: the rule of :attr:`GramMatrix.phases`."""
    phis = np.mod(np.angle(values), 2.0 * np.pi)
    phis[magnitudes < 1e-15] = 0.0
    return phis


def gram(state_set: StateSet) -> GramMatrix:
    """Gram matrix ``G[i, j] = <i|j>`` of the member states."""
    return GramMatrix(gram_of(state_set.matrix()))
