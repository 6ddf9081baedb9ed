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
from qnot.states import target_amps
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

    def test_target_must_be_a_target_map(self):
        # a bare string would reach target_amps and get the spin flip
        states = (qubit(1, 0), qubit(1, 1j))
        with pytest.raises(ValueError, match="target"):
            StateSet(states, "conjugate")


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
