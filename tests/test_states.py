import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import qubit, random_set, random_state
from qnot import (
    DimensionMismatch,
    GramMatrix,
    InvalidState,
    QuditState,
    StateSet,
    TargetMap,
    WrongDimension,
    conjugate,
    gram,
    orthogonal_complement,
    target_state,
)
from qnot.states import NORM_TOL, target_amps
from qnot.serialize import (
    SchemaError,
    dump,
    dumps,
    load,
    state_from_dict,
    state_set_from_dict,
    state_set_to_dict,
    state_to_dict,
)

FLIP = np.array([[0.0, -1.0], [1.0, 0.0]])


def amps_strategy(dim):
    finite = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
    return st.lists(st.tuples(finite, finite), min_size=dim, max_size=dim)


def make_state(pairs):
    amps = np.array([complex(re, im) for re, im in pairs])
    if np.linalg.norm(amps) < 1e-2:
        return None
    return QuditState.normalized(amps)


class TestQuditState:
    def test_requires_normalization(self):
        with pytest.raises(InvalidState):
            QuditState(np.array([1.0, 1.0]))

    @pytest.mark.parametrize("amps", [[np.nan, 1.0], [np.inf, 0.0],
                                      [1.0, complex(0.0, np.nan)]])
    def test_rejects_non_finite_amplitudes(self, amps):
        with pytest.raises(InvalidState):
            QuditState(np.array(amps))

    def test_requires_dim_two_or_more(self):
        with pytest.raises(WrongDimension):
            QuditState(np.array([1.0]))

    def test_normalized_factory(self):
        s = QuditState.normalized([3.0, 4.0])
        np.testing.assert_allclose(s.amps, [0.6, 0.8])

    def test_normalized_refuses_the_zero_vector(self):
        with pytest.raises(InvalidState, match="zero vector"):
            QuditState.normalized([0, 0])

    def test_overlap_conjugate_linearity(self):
        a = qubit(1, 1j)
        b = qubit(1, 0)
        assert a.overlap(b) == pytest.approx(np.conj(b.overlap(a)))

    def test_overlap_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            qubit(1, 0).overlap(QuditState(np.array([1.0, 0, 0])))

    def test_amplitudes_are_frozen(self):
        s = qubit(1, 1j)
        with pytest.raises(ValueError, match="read-only"):
            s.amps[0] = 5
        # it owns its array, so no writable base reaches it either: from a
        # list, a strided real row and a complex column alike
        for amps in ([0.6, 0.8], np.array([[0.6, 0.2], [0.8, 0.1]])[:, 0],
                     np.array([[0.6], [0.8j]])):
            assert QuditState(amps).amps.flags.owndata

    def test_editing_the_callers_array_leaves_the_state_alone(self):
        flat = np.array([0.6, 0.8j])
        rows = np.array([[1.0, 0.0], [0.6, 0.8j]])
        s = QuditState(flat)
        t = StateSet.from_amplitudes(rows, TargetMap.NOT).states[1]
        flat[0], rows[1, 0] = 5.0, 5.0
        np.testing.assert_array_equal(s.amps, [0.6, 0.8j])
        np.testing.assert_array_equal(t.amps, [0.6, 0.8j])


class TestTargetMaps:
    def test_complement_of_basis_states(self):
        np.testing.assert_allclose(orthogonal_complement(qubit(1, 0)).amps,
                                   [0, 1], atol=1e-15)
        # |1> goes to -|0>
        np.testing.assert_allclose(
            target_state(qubit(0, 1), TargetMap.NOT).amps, [-1, 0],
            atol=1e-15)

    def test_complement_of_plus(self):
        got = orthogonal_complement(qubit(1, 1))
        np.testing.assert_allclose(got.amps, np.array([-1, 1]) / np.sqrt(2),
                                   atol=1e-15)

    def test_complement_is_orthogonal(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            s = random_state(rng, 2)
            assert abs(s.overlap(orthogonal_complement(s))) < 1e-12

    def test_complement_rejects_qutrits(self):
        with pytest.raises(WrongDimension):
            orthogonal_complement(QuditState(np.array([1.0, 0, 0])))

    def test_conjugate_qutrit(self):
        s = QuditState.normalized([1.0, 1.0j, 1.0 - 1.0j])
        np.testing.assert_allclose(conjugate(s).amps,
                                   np.conj(s.amps), atol=1e-15)
        np.testing.assert_allclose(
            target_state(QuditState(np.eye(3)[2]), TargetMap.CONJUGATE).amps,
            np.eye(3)[2], atol=1e-15)

    def test_flip_equals_rotation_after_conjugation(self):
        # the qubit complement is the fixed rotation [[0,-1],[1,0]] applied
        # to the conjugated state
        rng = np.random.default_rng(42)
        for _ in range(50):
            s = random_state(rng, 2)
            np.testing.assert_allclose(
                orthogonal_complement(s).amps, FLIP @ np.conj(s.amps),
                atol=1e-14)

    def test_complement_involution_flips_sign(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            s = random_state(rng, 2)
            twice = orthogonal_complement(orthogonal_complement(s))
            np.testing.assert_allclose(twice.amps, -s.amps, atol=1e-14)


@pytest.mark.parametrize("target, dim", [(TargetMap.NOT, 2),
                                         (TargetMap.CONJUGATE, 2),
                                         (TargetMap.CONJUGATE, 3)])
def test_target_matrix_is_the_stacked_per_member_map(target, dim):
    """Bit for bit, so the signs of exact zeros (|0>, |1>) are pinned too."""
    rng = np.random.default_rng(49)
    eye = np.eye(dim)
    members = [QuditState(eye[k]) for k in range(dim)]
    members += [QuditState(-eye[0]), QuditState(-1j * eye[1]),
                random_state(rng, dim), random_state(rng, dim, real=True)]
    ss = StateSet(tuple(members), target)
    want = np.stack([target_state(s, ss.target).amps for s in ss], axis=1)
    got = ss.target_matrix()
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_target_amps_not_rejects_a_qutrit_column():
    with pytest.raises(WrongDimension, match="qubits only"):
        target_amps(np.eye(3, 1, dtype=complex), TargetMap.NOT)


class TestStateSet:
    def test_mixed_dims_rejected(self):
        with pytest.raises(DimensionMismatch):
            StateSet((qubit(1, 0), QuditState(np.array([1.0, 0, 0]))),
                     TargetMap.CONJUGATE)

    def test_not_requires_qubits(self):
        with pytest.raises(WrongDimension):
            StateSet((QuditState(np.array([1.0, 0, 0])),), TargetMap.NOT)

    def test_empty_rejected(self):
        with pytest.raises(DimensionMismatch):
            StateSet((), TargetMap.NOT)

    def test_members_must_be_states(self):
        for members in (([1, 0], [0, 1]), (qubit(1, 0), [0.0, 1.0])):
            with pytest.raises(ValueError) as info:
                StateSet(members, TargetMap.NOT)
            assert str(info.value) == "members must be QuditState instances"

    def test_matrix_is_read_only_and_stacked_once(self):
        ss = StateSet((qubit(1, 0), qubit(1, 1j)), TargetMap.NOT)
        assert ss.matrix() is ss.matrix()
        with pytest.raises(ValueError, match="read-only"):
            ss.matrix()[0, 0] = 5
        # the edit that once made the set's Gram read 25
        with pytest.raises(ValueError, match="read-only"):
            ss.states[0].amps[0] = 5

    def test_target_must_be_a_target_map(self):
        # a bare string would reach target_amps and get the spin flip
        states = (qubit(1, 0), qubit(1, 1j))
        with pytest.raises(ValueError, match="target"):
            StateSet(states, "conjugate")

    def test_members_are_views_of_the_matrix_columns(self, monkeypatch):
        rng = np.random.default_rng(47)
        rows = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        ss = StateSet.from_amplitudes(rows, TargetMap.CONJUGATE)

        def second_check(state):
            raise AssertionError("a member was validated again on read")

        monkeypatch.setattr(QuditState, "__post_init__", second_check)
        for members in (ss.states, list(ss)):
            assert len(members) == len(ss) == 5
            for row, member in zip(rows, members):
                assert not member.amps.flags.writeable
                assert member.amps.tobytes() == row.tobytes()
                assert np.shares_memory(member.amps, ss.matrix())

    def test_a_set_retains_only_its_matrix(self):
        rng = np.random.default_rng(48)
        rows = rng.normal(size=(10_000, 2)) + 1j * rng.normal(size=(10_000, 2))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ss = StateSet.from_amplitudes(rows, TargetMap.NOT)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # the 2 x 10 000 matrix alone is 32 B a member
        assert retained / len(rows) <= 64

        def held(obj):
            for ref in gc.get_referents(obj):
                yield ref
                if isinstance(ref, (dict, tuple, list)):
                    yield from held(ref)

        assert not any(isinstance(ref, QuditState) for ref in held(ss))

    @pytest.mark.parametrize("delta", [0.9e-10, -0.9e-10])
    def test_norms_within_the_tolerance_are_accepted(self, delta):
        rows = [[1.0 + delta, 0.0], [0.0, 1.0]]
        for build in (_build_from_states, StateSet.from_amplitudes):
            assert len(build(rows, TargetMap.NOT)) == 2

    @pytest.mark.parametrize("rows, target, error, message", [
        ([[1.0 + 1.1e-10, 0.0]], TargetMap.NOT, InvalidState,
         f"norm {1.0 + 1.1e-10!r} is not 1 within 1.0e-10"),
        ([[1.0 - 1.1e-10, 0.0]], TargetMap.NOT, InvalidState,
         f"norm {1.0 - 1.1e-10!r} is not 1 within 1.0e-10"),
        ([[1.0, 0.0], [np.nan, 1.0]], TargetMap.NOT, InvalidState,
         "norm nan is not 1 within 1.0e-10"),
        ([[np.inf, 0.0]], TargetMap.NOT, InvalidState,
         "norm inf is not 1 within 1.0e-10"),
        ([[1.0]], TargetMap.CONJUGATE, WrongDimension,
         "qudit dimension must be at least 2"),
        ([[1.0, 0.0], [1.0, 0.0, 0.0]], TargetMap.CONJUGATE,
         DimensionMismatch, "all states must share one dimension"),
        ([], TargetMap.NOT, DimensionMismatch,
         "state set must contain at least one state"),
        ([[1.0, 0.0]], "not", ValueError,
         "target must be a TargetMap, got 'not'"),
        ([[1.0, 0.0, 0.0]], TargetMap.NOT, WrongDimension,
         "NOT target requires qubit states"),
        # a bad member is refused before a bad target
        ([[2.0, 0.0]], "not", InvalidState,
         "norm 2.0 is not 1 within 1.0e-10"),
        # ragged rows: each member is checked, in order, before the lengths
        ([[2.0, 0.0], [1.0, 0.0, 0.0]], TargetMap.CONJUGATE, InvalidState,
         "norm 2.0 is not 1 within 1.0e-10"),
        ([[1.0], [1.0, 0.0, 0.0]], TargetMap.CONJUGATE, WrongDimension,
         "qudit dimension must be at least 2"),
        ([[1.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0]], TargetMap.CONJUGATE,
         InvalidState, "norm 2.0 is not 1 within 1.0e-10"),
        ([[1.0, 0.0], [1.0, 0.0, 0.0]], "not", ValueError,
         "target must be a TargetMap, got 'not'"),
        # a flat vector is a column of one-amplitude members
        (np.array([0.6, 0.8]), TargetMap.NOT, WrongDimension,
         "qudit dimension must be at least 2"),
        (np.zeros((0, 2)), TargetMap.NOT, DimensionMismatch,
         "state set must contain at least one state"),
        (np.zeros((0, 2)), "not", ValueError,
         "target must be a TargetMap, got 'not'"),
        (["10", "01"], TargetMap.CONJUGATE, WrongDimension,
         "qudit dimension must be at least 2"),
        ([["a", "b"]], TargetMap.CONJUGATE, ValueError,
         "complex() arg is a malformed string"),
        ([[1.0, 0.0], ["a", "b"], [2.0, 0.0]], TargetMap.CONJUGATE,
         ValueError, "complex() arg is a malformed string"),
        ([[2.0, 0.0], ["a", "b"]], TargetMap.CONJUGATE, InvalidState,
         "norm 2.0 is not 1 within 1.0e-10"),
        (np.array(1.0), TargetMap.NOT, TypeError,
         "iteration over a 0-d array"),
        ([[2.0, 0.0], [10 ** 400, 0.0]], TargetMap.NOT, InvalidState,
         "norm 2.0 is not 1 within 1.0e-10"),
    ], ids=["norm-over", "norm-under", "nan", "inf", "d1", "mixed-dims",
            "empty", "bad-target", "not-on-qutrits", "member-first",
            "ragged-norm-first", "ragged-d1-first", "ragged-norm-later",
            "ragged-bad-target", "flat-vector", "empty-array",
            "empty-array-bad-target", "string-scalars", "string-row",
            "string-row-later", "string-row-after-bad-norm", "0-d-array",
            "overflow-after-bad-norm"])
    def test_refusals_are_the_same_from_states_and_from_rows(
            self, rows, target, error, message):
        for build in (_build_from_states, StateSet.from_amplitudes):
            with pytest.raises(error) as info:
                build(rows, target)
            assert str(info.value) == message


    @pytest.mark.parametrize("make_rows, target, want", [
        (lambda: ([1.0, 0.0] if k == 0 else [0.6, 0.8j] for k in range(2)),
         TargetMap.NOT, [[1.0, 0.0], [0.6, 0.8j]]),
        (lambda: (np.array([1.0, 0.0]), np.array([0.6, 0.8j])),
         TargetMap.NOT, [[1.0, 0.0], [0.6, 0.8j]]),
        # an (n, 1, d) array: each member is flattened
        (lambda: np.array([[[1.0, 0.0]], [[0.6, 0.8j]]]), TargetMap.NOT,
         [[1.0, 0.0], [0.6, 0.8j]]),
        # rows of different nesting flatten to one dimension
        (lambda: [[1.0, 0.0], [[0.0, 1.0]]], TargetMap.NOT,
         [[1.0, 0.0], [0.0, 1.0]]),
        (lambda: [["1", "0"], ["0", "1j"]], TargetMap.CONJUGATE,
         [[1.0, 0.0], [0.0, 1j]]),
        (lambda: np.eye(3, dtype=int), TargetMap.CONJUGATE, np.eye(3)),
        (lambda: np.eye(3, dtype=np.float32)[::-1], TargetMap.CONJUGATE,
         np.eye(3)[::-1]),
    ], ids=["generator", "tuple-of-arrays", "n-1-d-array", "mixed-nesting",
            "string-rows", "int-array", "float32-array"])
    def test_row_shapes_are_read_as_members_are(self, make_rows, target,
                                                 want):
        want = np.array(want, dtype=complex).T.copy()
        for build in (_build_from_states, StateSet.from_amplitudes):
            got = build(make_rows(), target).matrix()
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.flags.c_contiguous and not got.flags.writeable
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("form", [np.asarray, list, np.ndarray.tolist])
    def test_rows_build_no_member_object(self, monkeypatch, form):
        rng = np.random.default_rng(50)
        rows = rng.normal(size=(10_000, 2)) + 1j * rng.normal(size=(10_000, 2))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        rows = form(rows)

        def member_object(state):
            raise AssertionError("a member object was built")

        monkeypatch.setattr(QuditState, "__post_init__", member_object)
        assert len(StateSet.from_amplitudes(rows, TargetMap.NOT)) == 10_000

    @pytest.mark.parametrize("form", [np.asarray, list, np.ndarray.tolist])
    def test_rows_peak_at_most_four_times_the_set(self, form):
        rng = np.random.default_rng(50)
        rows = rng.normal(size=(10_000, 2)) + 1j * rng.normal(size=(10_000, 2))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        rows = form(rows)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            StateSet.from_amplitudes(rows, TargetMap.NOT)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # the set keeps 32 B a member; a QuditState for each took 434
        assert peak / 10_000 <= 128

    def test_a_last_bit_norm_prints_the_same_from_states_and_rows(self):
        """d = 24 rows whose norm from ``np.linalg.norm`` and from a plain
        row-wise sum differ in the last bit: both builds print the former,
        so both read one norm expression."""
        rng = np.random.default_rng(51)
        rows = rng.normal(size=(200, 24)) + 1j * rng.normal(size=(200, 24))
        rows *= 1.5 / np.linalg.norm(rows, axis=1, keepdims=True)
        split = [r for r in rows if np.linalg.norm(r)
                 != np.sqrt((np.abs(r) ** 2).sum())]
        assert len(split) >= 10
        for row in split[:10]:
            nrm = float(np.linalg.norm(row))
            message = f"norm {nrm!r} is not 1 within 1.0e-10"
            for build in (_build_from_states, StateSet.from_amplitudes):
                with pytest.raises(InvalidState) as info:
                    build([rows[0] / 1.5, row], TargetMap.CONJUGATE)
                assert str(info.value) == message


def _build_from_states(rows, target) -> StateSet:
    return StateSet(tuple(QuditState(r) for r in rows), target)


@st.composite
def amplitude_rows(draw):
    """Rows of n unit vectors in dimension d, some scaled to within a few
    1e-11 of the norm tolerance on either side, some holding NaN or inf,
    given as an array, a list of row arrays or nested lists, with a target
    map that is mostly conjugation, so most sets reach the norm test."""
    n = draw(st.integers(min_value=1, max_value=60))
    d = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 24]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    index = st.integers(min_value=0, max_value=n - 1)
    for i, side, k in draw(st.lists(st.tuples(
            index, st.sampled_from([-1, 0, 1]), st.integers(-3, 3)),
            max_size=6)):
        rows[i] *= 1.0 + side * NORM_TOL + k * 1e-11
    for i, j, value in draw(st.lists(st.tuples(
            index, st.integers(0, d - 1),
            st.sampled_from([np.nan, np.inf, -np.inf, complex(0, np.nan)])),
            max_size=2)):
        rows[i, j] = value
    form = draw(st.sampled_from([np.asarray, list, np.ndarray.tolist]))
    target = draw(st.sampled_from([TargetMap.CONJUGATE] * 3 + [TargetMap.NOT]))
    return form(rows), target


def _outcome(build, rows, target):
    try:
        return build(rows, target).matrix().tobytes()
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(amplitude_rows())
def test_rows_and_states_build_the_same_set(drawn):
    """Same matrix bytes, or the same refusal, from rows and from states;
    both are the written-out member rule with ``np.linalg.norm``."""
    given_rows, target = drawn
    got = _outcome(StateSet.from_amplitudes, given_rows, target)
    assert got == _outcome(_build_from_states, given_rows, target)
    rows = np.array(given_rows, dtype=complex)
    norms = [float(np.linalg.norm(r)) for r in rows]
    bad = [nrm for nrm in norms if not abs(nrm - 1.0) <= NORM_TOL]
    if rows.shape[1] < 2:
        want = (WrongDimension, "qudit dimension must be at least 2")
    elif bad:
        want = (InvalidState, f"norm {bad[0]!r} is not 1 within 1.0e-10")
    elif target is TargetMap.NOT and rows.shape[1] != 2:
        want = (WrongDimension, "NOT target requires qubit states")
    else:
        want = rows.T.copy().tobytes()
    assert got == want


class TestGram:
    def test_known_pair(self):
        ss = StateSet((qubit(1, 1), qubit(1, 1j)), TargetMap.NOT)
        g = gram(ss)
        assert g.matrix[0, 1] == pytest.approx((1 + 1j) / 2)
        assert g.magnitudes[0, 1] == pytest.approx(1 / np.sqrt(2))
        assert g.phases[0, 1] == pytest.approx(np.pi / 4)

    def test_hermitian_unit_diagonal(self):
        rng = np.random.default_rng(44)
        ss = random_set(rng, 4, 2, TargetMap.NOT)
        g = gram(ss).matrix
        np.testing.assert_allclose(g, g.conj().T, atol=1e-14)
        np.testing.assert_allclose(np.diag(g), np.ones(4), atol=1e-12)

    def test_zero_magnitude_gets_zero_phase(self):
        g = GramMatrix(np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex))
        assert g.phases[0, 1] == 0.0
        assert (g.phases >= 0).all() and (g.phases < 2 * np.pi).all()

    def test_polar_data_is_computed_on_first_read(self):
        """``magnitudes`` and ``phases`` are the eager formulas, computed
        once when first read; an entry below 1e-15 has phase 0."""
        rng = np.random.default_rng(46)
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        m[0, 1], m[1, 2], m[2, 3], m[3, 4] = 0.0, -0.0, 3e-16j, -2e-15
        g = GramMatrix(m)
        assert "magnitudes" not in vars(g) and "phases" not in vars(g)
        phases = np.mod(np.angle(m), 2.0 * np.pi)
        phases[np.abs(m) < 1e-15] = 0.0
        np.testing.assert_array_equal(g.phases, phases)
        np.testing.assert_array_equal(g.magnitudes, np.abs(m))
        assert g.phases is g.phases and g.magnitudes is g.magnitudes
        assert g.phases[2, 3] == 0.0 and g.phases[3, 4] == np.pi

    def test_target_family_has_conjugate_gram(self):
        rng = np.random.default_rng(45)
        for target, dim in ((TargetMap.NOT, 2), (TargetMap.CONJUGATE, 3)):
            for _ in range(25):
                ss = random_set(rng, 3, dim, target)
                g = gram(ss).matrix
                t_mat = np.stack([target_state(s, ss.target).amps for s in ss], axis=1)
                np.testing.assert_allclose(t_mat.conj().T @ t_mat,
                                           np.conj(g), atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(amps_strategy(2), amps_strategy(2))
def test_gram_psd_and_conjugation_property(pairs_a, pairs_b):
    a, b = make_state(pairs_a), make_state(pairs_b)
    if a is None or b is None:
        return
    ss = StateSet((a, b), TargetMap.NOT)
    g = gram(ss).matrix
    assert np.linalg.eigvalsh(g).min() > -1e-12
    t_mat = np.stack([target_state(s, ss.target).amps for s in ss], axis=1)
    assert np.abs(t_mat.conj().T @ t_mat - np.conj(g)).max() < 1e-12


class TestJson:
    def test_state_roundtrip_is_exact(self):
        rng = np.random.default_rng(46)
        s = random_state(rng, 3)
        back = state_from_dict(state_to_dict(s))
        np.testing.assert_array_equal(back.amps, s.amps)

    def test_set_roundtrip_is_exact(self):
        rng = np.random.default_rng(47)
        ss = random_set(rng, 3, 2, TargetMap.NOT)
        back = state_set_from_dict(state_set_to_dict(ss))
        assert back.target is TargetMap.NOT
        for s, b in zip(ss, back):
            np.testing.assert_array_equal(b.amps, s.amps)

    @pytest.mark.parametrize("amps", [[[True, 0], [0, 0]],
                                      [[1.0, 0.0], [False, 0.0]],
                                      [[float("inf"), 0.0], [0.0, 0.0]],
                                      [[1.0, 0.0], 0.0],
                                      []])
    def test_state_rejects_malformed_amplitudes(self, amps):
        with pytest.raises(SchemaError):
            state_from_dict({"dim": 2, "amps": amps})

    @pytest.mark.parametrize("dim", [None, "1", 1.5, True, [1]])
    def test_state_dim_must_be_an_integer(self, dim):
        with pytest.raises(SchemaError):
            state_from_dict({"dim": dim, "amps": [[1.0, 0.0]]})

    def test_set_file_builds_no_member_object(self, monkeypatch):
        doc = state_set_to_dict(random_set(np.random.default_rng(49), 5, 3,
                                           TargetMap.CONJUGATE))

        def member_object(state):
            raise AssertionError("a member object was built")

        monkeypatch.setattr(QuditState, "__post_init__", member_object)
        assert len(state_set_from_dict(doc)) == 5

    def test_set_file_checks_every_schema_before_any_norm(self):
        doc = {"target": "not", "states": [{"dim": 2, "amps": [[2.0, 0.0],
                                                                [0.0, 0.0]]},
                                           {"dim": 3, "amps": [[1.0, 0.0],
                                                               [0.0, 0.0]]}]}
        with pytest.raises(SchemaError, match="declared dim 3"):
            state_set_from_dict(doc)
        doc["states"][1]["dim"] = 2
        with pytest.raises(InvalidState):
            state_set_from_dict(doc)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_writer_refuses_non_finite_floats(value):
    """The one writer never emits what the one reader refuses."""
    with pytest.raises(ValueError):
        dumps({"lambda_min": value})


def test_reader_reports_unreadable_files_as_schema_errors(tmp_path):
    with pytest.raises(SchemaError, match="cannot read"):
        load(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SchemaError, match="cannot read"):
        load(bad)


def test_dump_then_load_round_trips(tmp_path):
    rng = np.random.default_rng(48)
    doc = state_set_to_dict(random_set(rng, 3, 3, TargetMap.CONJUGATE))
    dump(doc, tmp_path / "set.json")
    assert load(tmp_path / "set.json") == doc


@pytest.mark.parametrize("name", ["missing_dir/out.json", "."])
def test_writer_reports_unwritable_paths_as_schema_errors(tmp_path, name):
    with pytest.raises(SchemaError, match="cannot write"):
        dump({"feasible": True}, tmp_path / name)
