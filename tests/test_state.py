import numpy as np
import pytest

from qbelief.errors import (
    ImpossibleOutcome,
    IndexOutOfRange,
    IndexOverlap,
    NotUnitary,
    QubitCountMismatch,
    ValidationError,
)
from conftest import make_frame
from oracles import SWAP, extract_register_oracle, sample_counts_oracle
from qbelief.qsim import RY, H, StateVector, X, new_state, product_state
from qbelief.qsim import state as state_module
from qbelief.dst import validate_bba
from qbelief.quantum import prepare_bba_state


def random_state(k, rng):
    amps = rng.normal(size=1 << k) + 1j * rng.normal(size=1 << k)
    return StateVector(k, amps / np.linalg.norm(amps))


def sparse_prepared_state(n, seed):
    """The prepared state of a mass function on at most five focal sets,
    none of them the full set of the n-element frame."""
    rng = np.random.default_rng(seed)
    focal = rng.choice((1 << n) - 1, size=min(5, (1 << n) - 1), replace=False)
    masses = rng.exponential(size=focal.size)
    m = validate_bba(make_frame(n), dict(zip(focal.tolist(), (masses / masses.sum()).tolist())))
    assert m.masses[-1] == 0.0
    return prepare_bba_state(m)


def controlled_operator(k, u, targets, controls):
    """Dense 2^k matrix of u on ``targets`` (targets[j] = bit j of u's index),
    applied where every (qubit, polarity) control matches, built column by column."""
    big = np.zeros((1 << k, 1 << k), dtype=complex)
    tmask = sum(1 << t for t in targets)
    for col in range(1 << k):
        if any((col >> q & 1) != pol for q, pol in controls):
            big[col, col] = 1.0
            continue
        local = sum((col >> t & 1) << j for j, t in enumerate(targets))
        for local2 in range(u.shape[0]):
            row = (col & ~tmask) | sum((local2 >> j & 1) << t for j, t in enumerate(targets))
            big[row, col] = u[local2, local]
    return big


# the first three ids are the original closed-control case; the rest vary
# target order, control polarity and controls on both sides of the targets
CONTROLLED_TWO_QUBIT_CASES = [pytest.param(k, [0, 2], [(3, 1)], id=str(k)) for k in (4, 5, 6)] + [
    pytest.param(k, targets, controls, id=f"{k}-{name}")
    for k in (4, 5, 6)
    for name, targets, controls in [
        ("t20", [2, 0], [(3, 1)]),
        ("t02-open", [0, 2], [(3, 0)]),
        ("t20-open", [2, 0], [(3, 0)]),
        ("t12-below-above", [1, 2], [(0, 1), (3, 0)]),
        ("t21-above-below", [2, 1], [(3, 1), (0, 0)]),
    ]
]


class TestNewState:
    def test_basis_placement(self):
        s = new_state(3, 7)
        assert s.amps[7] == 1.0 and np.abs(s.amps).sum() == 1.0

    def test_ground_state(self):
        s = new_state(1, 0)
        np.testing.assert_array_equal(s.amps, [1, 0])

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            new_state(2, 5)

    def test_real_amplitudes_are_stored_real(self, rng):
        real = [StateVector(2), new_state(2, 3), StateVector(1, [0, 1]),
                product_state([new_state(1, 1), StateVector(1, [0.6, 0.8])])]
        assert [s.amps.dtype for s in real] == [np.float64] * 4
        s = random_state(2, rng)
        assert s.amps.dtype == np.complex128
        assert product_state([s, new_state(1, 0)]).amps.dtype == np.complex128


class TestSingleQubitGates:
    def test_x_flips(self):
        s = new_state(1, 0).apply(X(), 0)
        np.testing.assert_array_equal(s.amps, [0, 1])

    def test_h_makes_plus(self):
        s = new_state(1, 0).apply(H(), 0)
        np.testing.assert_allclose(s.amps, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-15)

    def test_cnot(self):
        # closed control on qubit 1, target qubit 0: |10> -> |11>
        s = new_state(2, 0b10).apply(X(), 0, [(1, 1)])
        np.testing.assert_array_equal(s.amps, [0, 0, 0, 1])

    def test_open_control(self):
        s = new_state(2, 0b00).apply(X(), 0, [(1, 0)])
        assert s.amps[1] == 1.0

    def test_control_must_not_overlap_target(self):
        with pytest.raises(IndexOverlap):
            new_state(2, 0).apply(X(), 0, [(0, 1)])

    def test_norm_preserved_through_random_walk(self, rng):
        s = random_state(4, rng)
        for _ in range(50):
            q = int(rng.integers(4))
            gate = [X(), H(), RY(float(rng.uniform(0, np.pi)))][int(rng.integers(3))]
            ctrl_q = int(rng.integers(4))
            controls = [] if ctrl_q == q else [(ctrl_q, int(rng.integers(2)))]
            s.apply(gate, q, controls)
            assert abs(s.norm() - 1.0) < 1e-10


class TestDenseUnitaries:
    def test_identity_leaves_state(self, rng):
        s = random_state(3, rng)
        before = s.amps.copy()
        s.apply_dense_unitary(np.eye(4), [0, 2])
        np.testing.assert_allclose(s.amps, before, atol=1e-12)

    def test_2x2_dense_equals_gate(self, rng):
        s1 = random_state(3, rng)
        s2 = s1.copy()
        s1.apply(X(), 0)
        s2.apply_dense_unitary(X().matrix(), [0])
        np.testing.assert_allclose(s1.amps, s2.amps, atol=1e-14)

    def test_phase_on_one_component(self):
        s = new_state(1, 0).apply(H(), 0)
        u = np.diag(np.exp(1j * np.array([0.0, np.pi])))
        s.apply_dense_unitary(u, [0])
        np.testing.assert_allclose(s.amps, [1 / np.sqrt(2), -1 / np.sqrt(2)], atol=1e-12)

    def test_complex_unitary_promotes_a_real_state(self, rng):
        amps = rng.normal(size=8)
        real = StateVector(3, amps / np.linalg.norm(amps))
        typed = StateVector(3, real.amps.astype(np.complex128))
        u = np.diag(np.exp(1j * np.array([0.3, -1.1, 2.0, 0.7])))
        for s in (real, typed):
            s.apply_dense_unitary(u, [2, 0]).apply(H(), 1)
        assert real.amps.dtype == np.complex128
        assert real.amps.tobytes() == typed.amps.tobytes()

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            new_state(1, 0).apply_dense_unitary(np.array([[1, 0], [0, 2.0]]), [0])

    def test_rejects_wrong_shape(self):
        with pytest.raises(QubitCountMismatch):
            new_state(2, 0).apply_dense_unitary(np.eye(4), [0])

    @pytest.mark.parametrize("k, targets, controls", CONTROLLED_TWO_QUBIT_CASES)
    def test_controlled_dense_equals_explicit_operator(self, k, targets, controls, rng):
        # controlled application vs the dense 2^k controlled matrix
        for _ in range(10):
            s1 = random_state(k, rng)
            s2 = s1.copy()
            u = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
            s1.apply_dense_unitary(u, targets, controls)
            expect = controlled_operator(k, u, targets, controls) @ s2.amps
            np.testing.assert_allclose(s1.amps, expect, atol=1e-10)

    @pytest.mark.parametrize("k", [4, 5, 6])
    @pytest.mark.parametrize(
        "target, controls",
        [(2, [(0, 0), (3, 1)]), (1, [(3, 0), (0, 1)]), (2, [(0, 1), (1, 0), (3, 0)])],
    )
    def test_controlled_gate_equals_explicit_operator(self, k, target, controls, rng):
        for _ in range(10):
            s1 = random_state(k, rng)
            s2 = s1.copy()
            gate = RY(float(rng.uniform(0, 2 * np.pi)))
            s1.apply(gate, target, controls)
            expect = controlled_operator(k, gate.matrix(), [target], controls) @ s2.amps
            np.testing.assert_allclose(s1.amps, expect, atol=1e-10)



# (k, target, controls): k = 1, c = 0..3, controls out of order and with
# gaps, the target below, between and above them
MULTIPLEXED_CASES = [
    (1, 0, []),
    (3, 1, []),
    (3, 0, [2]),
    (3, 2, [0]),
    (4, 1, [3, 0]),
    (5, 4, [0, 2]),
    (5, 0, [4, 1, 3]),
    (6, 3, [5, 0, 2]),
    (6, 0, [1, 2, 3]),
]


class TestMultiplexedRY:
    @pytest.mark.parametrize("k, target, controls", MULTIPLEXED_CASES)
    def test_equals_one_controlled_ry_per_pattern(self, k, target, controls, rng):
        for _ in range(5):
            s1 = random_state(k, rng)
            s2 = s1.copy()
            angles = rng.uniform(-2 * np.pi, 2 * np.pi, size=1 << len(controls))
            s1.apply_multiplexed_ry(angles, target, controls)
            for p, angle in enumerate(angles):
                pattern = [(q, p >> b & 1) for b, q in enumerate(controls)]
                s2.apply(RY(float(angle)), target, pattern)
            np.testing.assert_allclose(s1.amps, s2.amps, atol=1e-13)

    def test_rejects_wrong_angle_count(self):
        with pytest.raises(QubitCountMismatch):
            new_state(3).apply_multiplexed_ry(np.zeros(2), 0, [1, 2])

    def test_rejects_target_among_controls(self):
        with pytest.raises(IndexOverlap):
            new_state(3).apply_multiplexed_ry(np.zeros(4), 1, [1, 2])

    @pytest.mark.parametrize("target, controls", [(3, [0]), (0, [1, 3]), (-1, [])])
    def test_rejects_qubit_out_of_range(self, target, controls):
        with pytest.raises(IndexOutOfRange):
            new_state(3).apply_multiplexed_ry(np.zeros(1 << len(controls)), target, controls)

class TestSwapGate:
    def test_swap_exchanges_bits(self):
        s = new_state(2, 0b01).apply_dense_unitary(SWAP, (0, 1))
        assert s.amps[0b10] == 1.0

    def test_controlled_swap(self):
        s = new_state(3, 0b101).apply_dense_unitary(SWAP, (0, 1), [(2, 1)])
        assert s.amps[0b110] == 1.0


class TestPostselect:
    def test_plus_state(self):
        s = new_state(1, 0).apply(H(), 0)
        out, p = s.postselect(0, 1)
        assert p == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(out.amps, [0, 1], atol=1e-12)

    def test_impossible(self):
        with pytest.raises(ImpossibleOutcome):
            new_state(1, 0).postselect(0, 1)

    @pytest.mark.parametrize("outcome", [-1, 2])
    def test_outcome_must_be_a_bit(self, outcome):
        with pytest.raises(ValidationError):
            new_state(2, 0).probability(1, outcome)
        with pytest.raises(ValidationError):
            new_state(2, 0).postselect(1, outcome)

    def test_bell_state(self):
        s = new_state(2, 0).apply(H(), 0).apply(X(), 1, [(0, 1)])
        out, p = s.postselect(0, 1)
        assert p == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(out.amps, [0, 0, 0, 1], atol=1e-12)


class TestExtractRegister:
    @pytest.mark.parametrize(
        "k, qubits, fixed",
        [
            (3, [0, 1], {2: 1}),
            (6, [4, 1], {0: 1, 2: 0, 3: 1, 5: 1}),
            (7, [5, 0, 3], {1: 1, 6: 0}),  # qubits 2 and 4 read 0
            (8, [7, 2, 5, 1], {0: 0, 3: 1, 4: 1, 6: 0}),
            (5, [3, 4, 0, 2, 1], {}),
        ],
    )
    def test_equals_basis_index_loop(self, k, qubits, fixed, rng):
        s = random_state(k, rng)
        out = s.extract_register(qubits, fixed)
        assert out.k == len(qubits)
        assert out.amps.tobytes() == extract_register_oracle(s.amps, qubits, fixed).tobytes()

    @pytest.mark.parametrize(
        "qubits, fixed, error",
        [
            ([0, 3], {1: 0}, IndexOutOfRange),
            ([0], {1: 0, 4: 1}, IndexOutOfRange),
            ([0, 0], {1: 0}, IndexOverlap),
            ([0, 1], {1: 0}, IndexOverlap),
            ([0], {1: 2}, ValidationError),
        ],
    )
    def test_rejects_bad_selection(self, qubits, fixed, error, rng):
        with pytest.raises(error):
            random_state(3, rng).extract_register(qubits, fixed)


class TestSampling:
    def test_basis_state_is_deterministic(self):
        record = new_state(3, 5).sample(shots=999, seed=1)
        assert record.counts == {5: 999}

    def test_determinism_across_calls(self, rng):
        s = random_state(4, rng)
        r1 = s.sample(shots=4096, seed=42)
        r2 = s.sample(shots=4096, seed=42)
        assert r1.counts == r2.counts
        r3 = s.sample(shots=4096, seed=43)
        assert r3.counts != r1.counts

    def test_three_sigma_binomial_bound(self):
        s = new_state(1, 0).apply(H(), 0)
        shots = 10**6
        record = s.sample(shots=shots, seed=11)
        sigma = np.sqrt(0.25 / shots)
        assert abs(record.frequency(0) - 0.5) < 3 * sigma

    def test_twenty_random_states_within_three_sigma(self, rng):
        # seeds frozen: 3-sigma per outcome is a ~35% miss across 160
        # outcome checks under fresh randomness
        shots = 10**6
        for trial in range(20):
            s = random_state(3, rng)
            probs = s.probabilities()
            record = s.sample(shots=shots, seed=2000 + trial)
            for idx, p in enumerate(probs):
                sigma = np.sqrt(p * (1 - p) / shots)
                assert abs(record.frequency(idx) - p) <= max(3 * sigma, 5 / shots)

    def test_counts_sum_to_shots(self, rng):
        s = random_state(3, rng)
        record = s.sample(shots=1234, seed=5)
        assert sum(record.counts.values()) == 1234

    @pytest.mark.parametrize("shots, seed", [(1, 0), (7, 3), (8, 5), (9, 5), (1000, 11),
                                             (4097, 2**40)])
    def test_chunked_draw_equals_one_draw(self, monkeypatch, rng, shots, seed):
        monkeypatch.setattr(state_module, "_SAMPLE_CHUNK", 8)
        s = random_state(4, rng)
        record = s.sample(shots, seed)
        assert list(record.counts.items()) == list(sample_counts_oracle(s, shots, seed).items())

    def test_default_chunks_equal_one_draw(self, rng):
        s = random_state(3, rng)
        shots = (1 << 20) + 12345  # one full chunk and a partial one
        assert s.sample(shots, 8).counts == sample_counts_oracle(s, shots, 8)

    @pytest.mark.parametrize("shots", [1, 7, 4096, (1 << 20) + 12345])
    @pytest.mark.parametrize("n", range(1, 12))
    def test_prepared_sparse_states_equal_one_draw(self, n, shots):
        # a few focal sets and no mass on the full set: the counts read only
        # the support, and the full set's index still closes the CDF at 1
        s = sparse_prepared_state(n, seed=5200 + n)
        record = s.sample(shots, 9)
        assert list(record.counts.items()) == list(sample_counts_oracle(s, shots, 9).items())

    @pytest.mark.parametrize("shots", [1, 7, 4096])
    @pytest.mark.parametrize("n", [1, 4, 11])
    def test_prepared_sparse_states_in_blocks_of_eight(self, monkeypatch, n, shots):
        monkeypatch.setattr(state_module, "_SAMPLE_CHUNK", 8)
        s = sparse_prepared_state(n, seed=5300 + n)
        record = s.sample(shots, 2)
        assert list(record.counts.items()) == list(sample_counts_oracle(s, shots, 2).items())

    def test_memory_does_not_grow_with_shots(self, monkeypatch, rng):
        import tracemalloc

        monkeypatch.setattr(state_module, "_SAMPLE_CHUNK", 1 << 16)
        s = random_state(3, rng)
        tracemalloc.start()
        try:
            record = s.sample(2_000_000, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(record.counts.values()) == 2_000_000
        # one draw of all the shots holds 16 MB of uniforms and 16 MB of outcomes
        assert peak < 2 << 20

    def test_negative_seed_refused(self):
        with pytest.raises(ValidationError, match="seed must be non-negative"):
            new_state(2, 1).sample(16, seed=-1)


class TestProductState:
    def test_first_factor_occupies_low_bits(self):
        s = product_state([new_state(1, 1), new_state(2, 0)])
        assert s.k == 3
        assert s.amps[0b001] == 1.0


class TestCircuitMetadata:
    def test_replay_is_deterministic(self, rng):
        from qbelief.qsim import Circuit

        circ = Circuit(2)
        circ.append(H(), 0)
        circ.append(X(), 1, [(0, 1)])
        a = circ.simulate(0).amps
        b = circ.simulate(0).amps
        np.testing.assert_array_equal(a, b)

    def test_shots_mode_requires_seed(self):
        from qbelief.errors import ValidationError

        with pytest.raises(ValidationError):
            new_state(1, 0).sample(0, seed=1)
