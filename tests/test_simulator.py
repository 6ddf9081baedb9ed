"""Exact and Monte Carlo simulation of synthesized machines."""
import json

import numpy as np
import pytest

from qnot import (
    ExactRecord,
    GammaPolicy,
    Machine,
    MonteCarloRecord,
    ProbeSpec,
    QuditState,
    StateSet,
    TargetMap,
    ZeroSuccess,
    build_probe_unitary,
    check_exact_unitary,
    check_exact_with_probe,
    gram,
    run_exact,
    search_gamma,
    synthesize,
    synthesize_with,
    target_state,
    verify_machine,
)
from qnot.errors import DimensionMismatch, MachineMismatch
from qnot.serialize import dumps, report_to_dict

from conftest import (
    qubit,
    random_independent_set,
    random_overlapping_pair,
    random_set,
    random_state,
)


def test_exact_machine_perfect_on_members():
    rng = np.random.default_rng(11)
    ss = random_set(rng, 3, 4, TargetMap.CONJUGATE, real=True)
    machine, _ = synthesize(ss)
    for i, s in enumerate(ss):
        rec = run_exact(machine, s, index=i)
        assert rec.index == i
        assert rec.success_prob == pytest.approx(1.0, abs=1e-10)
        assert rec.fidelity == pytest.approx(1.0, abs=1e-10)


def test_probe_machine_reports_designed_global_phase():
    """The success branch carries exactly the compensating probe phase."""
    rng = np.random.default_rng(12)
    ss = random_overlapping_pair(rng)
    verdict = check_exact_with_probe(ss)
    assert verdict.feasible
    u = build_probe_unitary(ss, verdict.witness)
    phases = verdict.witness.phases
    machine = Machine(2, 2, TargetMap.NOT, u,
                      np.ones(2), phases)
    for i, s in enumerate(ss):
        rec = run_exact(machine, s)
        assert rec.success_prob == pytest.approx(1.0, abs=1e-9)
        assert rec.fidelity == pytest.approx(1.0, abs=1e-9)
        dphi = (rec.global_phase - phases[i]) % (2 * np.pi)
        assert min(dphi, 2 * np.pi - dphi) < 1e-8


def test_success_block_is_linear_in_the_input():
    """For any superposition of members the success branch is the same
    superposition of the designed branches: the machine is one fixed
    unitary, so coefficients pass through untouched (no conjugation even
    for the antiunitary target)."""
    rng = np.random.default_rng(13)
    ss = random_independent_set(rng, 2, 2, TargetMap.NOT)
    machine, _ = synthesize(ss)
    alpha, beta = 0.3 - 0.4j, 0.7 + 0.2j
    psi = alpha * ss.states[0].amps + beta * ss.states[1].amps
    v = machine.unitary @ np.kron(psi, np.eye(machine.probe_dim)[0])
    block = v.reshape(machine.system_dim, machine.probe_dim)[:, 0]
    expected = np.zeros(2, complex)
    for c, s, g, ph in zip((alpha, beta), ss.states,
                           machine.gammas, machine.branch_phases):
        expected += c * np.sqrt(g) * np.exp(1j * ph) * target_state(s, ss.target).amps
    assert np.abs(block - expected).max() < 1e-8


def test_zero_success_raises():
    # swap the probe: the success branch is empty for every input
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    u = np.kron(np.eye(2), x)
    machine = Machine(2, 2, TargetMap.NOT, u, np.array([1.0]), np.array([0.0]))
    with pytest.raises(ZeroSuccess):
        run_exact(machine, qubit(1, 0))


def test_dimension_mismatch():
    rng = np.random.default_rng(14)
    ss = random_set(rng, 2, 2, TargetMap.NOT, real=True)
    machine, _ = synthesize(ss)
    with pytest.raises(DimensionMismatch):
        run_exact(machine, random_state(rng, 3))


def test_probability_conservation_across_probe_outcomes():
    """Norms of all probe blocks sum to one for any input."""
    rng = np.random.default_rng(15)
    ss = random_independent_set(rng, 3, 3, TargetMap.CONJUGATE)
    machine, _ = synthesize(ss)
    for _ in range(20):
        psi = random_state(rng, 3)
        v = machine.unitary @ np.kron(psi.amps, np.eye(machine.probe_dim)[0])
        blocks = v.reshape(machine.system_dim, machine.probe_dim)
        total = float(np.sum(np.abs(blocks) ** 2))
        assert total == pytest.approx(1.0, abs=1e-10)


def test_global_phase_of_input_is_irrelevant():
    rng = np.random.default_rng(16)
    ss = random_independent_set(rng, 2, 2, TargetMap.NOT)
    machine, _ = synthesize(ss)
    s = ss.states[0]
    base = run_exact(machine, s)
    rotated = QuditState(np.exp(1.23j) * s.amps)
    rec = run_exact(machine, rotated)
    assert rec.success_prob == pytest.approx(base.success_prob, abs=1e-12)
    # fidelity is against target(rotated state); magnitudes must agree
    assert rec.fidelity == pytest.approx(base.fidelity, abs=1e-10)


def _successes(report):
    return [m.successes for m in report.mc_records]


def test_monte_carlo_is_reproducible():
    rng = np.random.default_rng(17)
    ss = random_independent_set(rng, 2, 2, TargetMap.NOT)
    machine, _ = synthesize(ss)
    a = verify_machine(machine, ss, shots=5000, seed=7)
    b = verify_machine(machine, ss, shots=5000, seed=7)
    assert _successes(a) == _successes(b)
    assert all(m.rng == "pcg64" and m.seed == 7 for m in a.mc_records)
    c = verify_machine(machine, ss, shots=5000, seed=8)
    assert _successes(c) != _successes(a)  # 1-in-millions collision odds


def test_monte_carlo_single_shot_and_bounds():
    rng = np.random.default_rng(18)
    ss = random_independent_set(rng, 2, 2, TargetMap.NOT)
    machine, _ = synthesize(ss)
    one = verify_machine(machine, ss, shots=1, seed=3)
    assert one.mode == "monte_carlo" and one.shots == 1
    assert all(m.successes in (0, 1) for m in one.mc_records)
    # no shots or zero shots: the exact report alone
    for shots in (None, 0):
        exact = verify_machine(machine, ss, shots=shots, seed=3)
        assert exact.mode == "exact"
        assert exact.shots is None and exact.mc_records == []
    with pytest.raises(ValueError, match="shots"):
        verify_machine(machine, ss, shots=-1)


def test_monte_carlo_within_four_sigma():
    rng = np.random.default_rng(19)
    ss = random_independent_set(rng, 2, 2, TargetMap.NOT)
    machine, _ = synthesize(ss)
    shots = 100_000
    for seed in (100, 101):
        for rec in verify_machine(machine, ss, shots=shots,
                                  seed=seed).mc_records:
            p = rec.exact_prob
            sigma = np.sqrt(p * (1 - p) / shots)
            assert abs(rec.empirical - p) <= 4 * sigma + 1e-12


def test_monte_carlo_error_scales_as_inverse_sqrt_shots():
    """RMS deviation over many seeds tracks sqrt(p(1-p)/N) and halves
    when the shot count quadruples."""
    rng = np.random.default_rng(20)
    ss = random_independent_set(rng, 2, 2, TargetMap.NOT)
    machine, _ = synthesize(ss)
    p = run_exact(machine, ss.states[0]).success_prob
    seeds = range(300)

    def rms(shots):
        devs = [verify_machine(machine, ss, shots=shots,
                               seed=k).mc_records[0].empirical - p
                for k in seeds]
        return float(np.sqrt(np.mean(np.square(devs))))

    r1, r2 = rms(400), rms(1600)
    # rms^2 is a mean of 300 iid squares: relative sd ~ sqrt(2/300) ~ 8%
    tol = 4 * np.sqrt(2 / 300)
    assert abs(r1 ** 2 / (p * (1 - p) / 400) - 1) < tol
    assert abs(r2 ** 2 / (p * (1 - p) / 1600) - 1) < tol
    assert r1 > r2


def test_verify_machine_clean_report():
    rng = np.random.default_rng(21)
    ss = random_independent_set(rng, 3, 3, TargetMap.CONJUGATE)
    machine, _ = synthesize(ss)
    report = verify_machine(machine, ss)
    assert report.mode == "exact"
    assert report.all_ok
    assert report.flagged() == []
    assert report.unitary_error < 1e-12
    for rec, g in zip(report.records, machine.gammas):
        assert rec.success_prob == pytest.approx(g, abs=1e-9)


def test_verify_machine_flags_corruption():
    ss = StateSet((qubit(1, 0), qubit(1, 1)), TargetMap.NOT)
    machine, _ = synthesize(ss)
    machine.unitary[0, 0] += 1e-3
    report = verify_machine(machine, ss)
    assert not report.all_ok
    assert report.unitary_error > 1e-4


def _full_unitarity_error(u):
    return float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())


def _moved_block_unitary(rng, dim, size):
    """Random ``V`` on ``size`` scattered indices, identity elsewhere."""
    s = np.sort(rng.choice(dim, size=size, replace=False))
    v = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    u = np.eye(dim, dtype=complex)
    u[np.ix_(s, s)] = np.linalg.qr(v)[0]
    return u, s


@pytest.mark.parametrize("spot", ["block", "untouched_diagonal",
                                  "untouched_row", "untouched_column",
                                  "untouched_pair"])
def test_unitarity_error_matches_full_product(spot):
    """One corrupted entry anywhere: the moved-block check equals U^dag U."""
    rng = np.random.default_rng(23)
    for trial in range(20):
        dim = int(rng.integers(3, 40))
        u, s = _moved_block_unitary(rng, dim, int(rng.integers(1, dim - 1)))
        rest = np.setdiff1d(np.arange(dim), s)
        t, t2 = rng.choice(rest), rng.choice(rest)
        i, j = rng.choice(s), rng.choice(s)
        where = {"block": (i, j), "untouched_diagonal": (t, t),
                 "untouched_row": (t, j), "untouched_column": (i, t),
                 "untouched_pair": (t, t2)}[spot]
        u[where] += 10.0 ** rng.uniform(-8, 0) * np.exp(2j * np.pi * rng.random())
        machine = Machine(dim, 1, TargetMap.CONJUGATE, u, np.ones(1),
                          np.zeros(1))
        assert abs(machine.unitarity_error()
                   - _full_unitarity_error(u)) <= 1e-12


def test_unitarity_error_on_synthesized_machines():
    """Built machines move d + n of the 2d indices; same error."""
    rng = np.random.default_rng(24)
    ss = random_independent_set(rng, 3, 5, TargetMap.CONJUGATE)
    machine, _ = synthesize(ss)
    moved = ~np.all(machine.unitary == np.eye(machine.total_dim), axis=0)
    assert machine.total_dim == 2 * 5 and moved.sum() == 5 + 3
    assert abs(machine.unitarity_error()
               - _full_unitarity_error(machine.unitary)) <= 1e-12
    untouched = np.flatnonzero(~moved)
    machine.unitary[untouched[0], untouched[-1]] = 3e-6
    assert machine.unitarity_error() == pytest.approx(3e-6, abs=1e-12)
    assert abs(machine.unitarity_error()
               - _full_unitarity_error(machine.unitary)) <= 1e-12
    assert not verify_machine(machine, ss).all_ok


@pytest.mark.parametrize("spot", ["moved", "untouched_diagonal",
                                  "untouched_off_diagonal"])
def test_unitarity_error_nan_fails_verification(spot):
    """n = 3, d = 7: the machine moves d + n of its 2d indices and leaves
    the other failure rows as the identity's."""
    rng = np.random.default_rng(25)
    ss = random_independent_set(rng, 3, 7, TargetMap.CONJUGATE)
    machine, _ = synthesize(ss)
    moved = ~np.all(machine.unitary == np.eye(machine.total_dim), axis=0)
    k = np.flatnonzero(moved if spot == "moved" else ~moved)[-1]
    col = 0 if spot == "untouched_off_diagonal" else k
    machine.unitary[k, col] = np.nan
    assert np.isnan(_full_unitarity_error(machine.unitary))
    assert np.isnan(machine.unitarity_error())
    assert not verify_machine(machine, ss).all_ok


def test_unitarity_error_of_identity_is_zero():
    machine = Machine(3, 2, TargetMap.CONJUGATE, np.eye(6), np.ones(1),
                      np.zeros(1))
    assert machine.unitarity_error() == 0.0


def test_machine_of_wrong_size_raises_dimension_mismatch():
    with pytest.raises(DimensionMismatch, match="does not match"):
        Machine(2, 2, TargetMap.NOT, np.eye(6), np.ones(2), np.zeros(2))


def test_machine_target_must_be_a_target_map():
    with pytest.raises(ValueError, match="target"):
        Machine(2, 1, "not", np.eye(2), np.ones(1), np.zeros(1))


def test_shot_count_must_fit_in_int64():
    rng = np.random.default_rng(23)
    ss = random_independent_set(rng, 2, 2, TargetMap.NOT)
    machine, _ = synthesize(ss)
    for shots in (2**63, 2**64):
        with pytest.raises(ValueError, match="shots"):
            verify_machine(machine, ss, shots=shots)
    top = verify_machine(machine, ss, shots=2**63 - 1)
    assert top.shots == 2**63 - 1
    assert all(0 <= m.successes <= top.shots for m in top.mc_records)


@pytest.mark.parametrize("kwargs", [{"shots": 2.5}, {"shots": 5.0},
                                    {"shots": True}, {"shots": np.True_},
                                    {"shots": "5"}, {"shots": 5, "seed": True},
                                    {"shots": 5, "seed": 1.5},
                                    {"shots": 5, "seed": None}])
def test_shot_count_and_seed_must_be_integers(kwargs):
    rng = np.random.default_rng(23)
    ss = random_independent_set(rng, 2, 2, TargetMap.NOT)
    machine, _ = synthesize(ss)
    name = "seed" if "seed" in kwargs else "shots"
    with pytest.raises(ValueError, match=name):
        verify_machine(machine, ss, **kwargs)


def test_numpy_integer_shots_and_seed_are_stored_as_ints():
    rng = np.random.default_rng(23)
    ss = random_independent_set(rng, 2, 2, TargetMap.NOT)
    machine, _ = synthesize(ss)
    report = verify_machine(machine, ss, shots=np.int64(5), seed=np.int32(7))
    assert type(report.shots) is int and type(report.seed) is int
    assert all(type(m.shots) is int and type(m.seed) is int
               for m in report.mc_records)
    doc = json.loads(dumps(report_to_dict(report)))
    assert doc["shots"] == 5 and doc["seed"] == 7
    assert report.mc_records == verify_machine(machine, ss, shots=5,
                                               seed=7).mc_records


def test_verify_machine_flags_zero_success_member():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    u = np.kron(np.eye(2), x)
    machine = Machine(2, 2, TargetMap.NOT, u, np.ones(2), np.zeros(2))
    ss = StateSet((qubit(1, 0), qubit(0, 1)), TargetMap.NOT)
    report = verify_machine(machine, ss)
    assert report.flagged() == [0, 1]
    assert all(r.success_prob == 0.0 for r in report.records)


def test_verify_machine_monte_carlo_records():
    rng = np.random.default_rng(22)
    ss = random_independent_set(rng, 2, 2, TargetMap.NOT)
    machine, _ = synthesize(ss)
    r1 = verify_machine(machine, ss, shots=2000, seed=5)
    r2 = verify_machine(machine, ss, shots=2000, seed=5)
    assert r1.mode == "monte_carlo" and r1.shots == 2000 and r1.seed == 5
    assert len(r1.mc_records) == len(ss)
    assert [m.successes for m in r1.mc_records] == \
        [m.successes for m in r2.mc_records]
    for m in r1.mc_records:
        sigma = np.sqrt(max(m.exact_prob * (1 - m.exact_prob), 1e-12) / m.shots)
        assert abs(m.empirical - m.exact_prob) <= 4 * sigma + 1e-9


def test_report_fields_keep_their_values_and_types():
    """Each record field is the Python float, bool or column that the
    per-member conversion of numpy scalars gives."""
    from qnot.simulator import FIDELITY_TOL, PROB_TOL, _run_columns
    rng = np.random.default_rng(27)
    ss = random_independent_set(rng, 4, 4, TargetMap.CONJUGATE)
    machine, _ = synthesize(ss)
    machine.gammas[1] *= 0.5
    report = verify_machine(machine, ss, shots=300, seed=9)
    probs, outputs, fidelities, phases = _run_columns(
        machine, ss.matrix(), ss.target_matrix())
    oks = ((fidelities >= 1.0 - FIDELITY_TOL)
           & (np.abs(probs - machine.gammas) <= PROB_TOL))
    assert report.flagged() == [1]
    for i, rec in enumerate(report.records):
        got = (rec.index, rec.success_prob, rec.fidelity, rec.global_phase,
               rec.ok)
        assert got == (i, float(probs[i]), float(fidelities[i]),
                       float(phases[i]), bool(oks[i]))
        assert [type(v) for v in got] == [int, float, float, float, bool]
        np.testing.assert_array_equal(rec.output_state, outputs[:, i])
    for i, rec in enumerate(report.mc_records):
        assert rec.exact_prob == float(probs[i])
        assert type(rec.exact_prob) is float and type(rec.successes) is int


def test_verify_machine_dimension_check():
    rng = np.random.default_rng(23)
    ss = random_independent_set(rng, 2, 2, TargetMap.NOT)
    machine, _ = synthesize(ss)
    other = random_set(rng, 2, 3, TargetMap.CONJUGATE)
    with pytest.raises(DimensionMismatch):
        verify_machine(machine, other)


def test_verify_machine_requires_matching_design():
    """A machine without one efficiency per member, or built for another
    target map, cannot be checked against the set."""
    rng = np.random.default_rng(25)
    ss = random_independent_set(rng, 2, 2, TargetMap.NOT)
    machine, _ = synthesize(ss)
    for gammas in (machine.gammas[:1], np.append(machine.gammas, 1.0)):
        short = Machine(machine.system_dim, machine.probe_dim, machine.target,
                        machine.unitary, gammas, np.zeros(gammas.size))
        with pytest.raises(MachineMismatch):
            verify_machine(short, ss)
    other = StateSet(ss.states, TargetMap.CONJUGATE)
    with pytest.raises(MachineMismatch):
        verify_machine(machine, other)


def test_set_verification_matches_per_state_runs():
    """verify_machine's one-product path agrees with run_exact per member."""
    rng = np.random.default_rng(26)
    ss = random_independent_set(rng, 4, 5, TargetMap.CONJUGATE)
    machine, _ = synthesize(ss)
    report = verify_machine(machine, ss)
    for i, s in enumerate(ss):
        rec = run_exact(machine, s, index=i)
        got = report.records[i]
        assert got.success_prob == pytest.approx(rec.success_prob, abs=1e-14)
        assert got.fidelity == pytest.approx(rec.fidelity, abs=1e-14)
        assert got.global_phase == pytest.approx(rec.global_phase, abs=1e-12)
        np.testing.assert_allclose(got.output_state, rec.output_state,
                                   atol=1e-14)


def test_partial_efficiency_machine_matches_design():
    """A deliberately throttled machine shows the requested probabilities."""
    rng = np.random.default_rng(24)
    ss = random_independent_set(rng, 2, 2, TargetMap.NOT)
    gammas = np.array([0.25, 0.5])
    probe = ProbeSpec.phase_vector(2.0 * gram(ss).phases[0, :])
    machine = synthesize_with(ss, gammas, probe)
    report = verify_machine(machine, ss)
    assert report.all_ok
    for rec, g in zip(report.records, gammas):
        assert rec.success_prob == pytest.approx(g, abs=1e-9)
        assert rec.fidelity == pytest.approx(1.0, abs=1e-9)


def test_pipeline_builds_no_per_member_state(monkeypatch):
    """Sets reach their targets as one array expression, not member by member.

    A real NOT set takes the exact path of ``synthesize``; a phased real
    CONJUGATE set with n = d = 4 takes the probe and general paths.
    """
    rng = np.random.default_rng(62)
    phased = random_set(rng, 4, 4, TargetMap.CONJUGATE, real=True).matrix()
    phased = phased * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 4))
    sets = [random_set(rng, 6, 2, TargetMap.NOT, real=True),
            StateSet.from_amplitudes(phased.T, TargetMap.CONJUGATE)]
    built = []
    post_init = QuditState.__post_init__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(QuditState, "__post_init__", counting_post_init)
    for ss in sets:
        check_exact_unitary(ss)
        verdict = check_exact_with_probe(ss)
        assert verdict.feasible
        build_probe_unitary(ss, verdict.witness)
        machine, _ = synthesize(ss)
        assert verify_machine(machine, ss, shots=100).all_ok
        search_gamma(ss, GammaPolicy.EQUAL)
    assert len(built) == 0


# --- the report's columns and the records built from them -----------------

def _columnar_report(shots=None):
    """A four-member report with member 1 flagged (its gamma halved)."""
    ss = random_independent_set(np.random.default_rng(27), 4, 4,
                                TargetMap.CONJUGATE)
    machine, _ = synthesize(ss)
    machine.gammas[1] *= 0.5
    return verify_machine(machine, ss, shots=shots, seed=9)


def _clean_pair():
    ss = random_independent_set(np.random.default_rng(21), 3, 3,
                                TargetMap.CONJUGATE)
    return synthesize(ss)[0], ss


def _hex_fields(record):
    """A record's fields, floats as ``float.hex``, arrays as their bytes,
    each with its type."""
    out = {}
    for name, value in vars(record).items():
        out[name] = type(value), value
        if isinstance(value, float):
            out[name] = float, value.hex()
        elif isinstance(value, np.ndarray):
            out[name] = np.ndarray, value.dtype.str, value.shape, value.tobytes()
    return out


@pytest.mark.parametrize("shots", [None, 300])
def test_records_are_the_eager_construction_from_the_columns(shots):
    """Records read after the run are, field for field and bit for bit,
    the records built member by member from the report's columns."""
    report = _columnar_report(shots)
    eager = [ExactRecord(i, float(report.success_probs[i]),
                         float(report.fidelities[i]),
                         float(report.global_phases[i]),
                         report.outputs[:, i], bool(report.oks[i]))
             for i in range(4)]
    assert ([_hex_fields(r) for r in report.records]
            == [_hex_fields(r) for r in eager])
    for rec in report.records:
        assert np.shares_memory(rec.output_state, report.outputs)
    if shots is None:
        assert report.successes is None and report.mc_records == []
        return
    eager_mc = [MonteCarloRecord(i, float(report.success_probs[i]), shots,
                                 int(k), int(k) / shots, 9)
                for i, k in enumerate(report.successes)]
    assert ([_hex_fields(r) for r in report.mc_records]
            == [_hex_fields(r) for r in eager_mc])


def test_records_are_built_once():
    report = _columnar_report(shots=300)
    assert report.records is report.records
    assert report.mc_records is report.mc_records
    report.mc_records[0].successes += 1
    assert report.mc_records[0].successes == int(report.successes[0]) + 1


def test_verdicts_are_the_mask_before_and_after_records_are_read():
    report = _columnar_report()
    assert report.oks.tolist() == [True, False, True, True]
    for _ in range(2):
        assert report.flagged() == [1]
        assert report.all_ok is False
        assert [r.ok for r in report.records] == report.oks.tolist()
    clean = verify_machine(*_clean_pair())
    assert clean.all_ok is True and clean.flagged() == []
    assert clean.records and clean.all_ok is True and clean.flagged() == []


def test_an_edit_through_a_record_is_seen_by_the_verdicts():
    report = verify_machine(*_clean_pair())
    report.records[2].ok = False
    assert report.all_ok is False and report.flagged() == [2]
    doc = report_to_dict(report)
    assert doc["all_ok"] is False
    assert [s["ok"] for s in doc["states"]] == [True, True, False]
    report.records[2].ok = True
    assert report.all_ok is True and report.flagged() == []


def test_reading_the_verdicts_builds_no_record(monkeypatch):
    """``all_ok``, ``flagged()`` and the JSON read the columns: no record of
    either kind is built until ``records`` or ``mc_records`` is read."""
    from qnot import simulator
    built = []

    def counting(cls):
        def make(*args):
            built.append(cls.__name__)
            return cls(*args)
        return make

    for cls in (ExactRecord, MonteCarloRecord):
        monkeypatch.setattr(simulator, cls.__name__, counting(cls))
    report = _columnar_report(shots=300)
    assert not report.all_ok and report.flagged() == [1]
    report_to_dict(report)
    assert built == []
    assert "records" not in vars(report) and "mc_records" not in vars(report)
    report.records
    report.mc_records
    assert built == ["ExactRecord"] * 4 + ["MonteCarloRecord"] * 4
