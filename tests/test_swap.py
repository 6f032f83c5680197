import tracemalloc

import numpy as np
import pytest

from conftest import random_bbas
from qbelief.errors import QubitCountMismatch, ValidationError
from qbelief.qsim import H, StateVector, new_state, product_state
from oracles import replay, swap_test_circuit, swap_test_oracle
from qbelief.quantum import prepare_bba_state, swap_test
from qbelief.quantum.swap import swap_test_state


def random_state(k, rng, real=False):
    amps = rng.normal(size=1 << k) + (0 if real else 1j * rng.normal(size=1 << k))
    return StateVector(k, amps / np.linalg.norm(amps))


class TestSwapTest:
    def test_identical_states(self, rng):
        s = random_state(2, rng)
        assert swap_test(s, s.copy()) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_basis_states(self):
        assert swap_test(new_state(2, 1), new_state(2, 2)) == pytest.approx(0.0, abs=1e-12)

    def test_plus_against_zero(self):
        plus = new_state(1, 0).apply(H(), 0)
        est = swap_test(plus, new_state(1, 0))
        # Pr(0) = 3/4, squared overlap 1/2
        assert est == pytest.approx(0.5, abs=1e-12)

    def test_dtype_follows_the_states(self):
        real = prepare_bba_state(random_bbas(1, 2, seed=5)[0])
        assert swap_test_state(real, real).amps.dtype == np.float64
        phased = StateVector(2, 1j * real.amps)
        assert swap_test_state(phased, real).amps.dtype == np.complex128
        # a global phase leaves the overlap whole: the imaginary part is kept
        assert swap_test(phased, real) == pytest.approx(1.0, abs=1e-12)

    def test_fifty_random_pairs_match_identity(self, rng):
        for _ in range(50):
            k = int(rng.integers(1, 4))
            s1, s2 = random_state(k, rng), random_state(k, rng)
            overlap_sq = abs(np.vdot(s1.amps, s2.amps)) ** 2
            est = swap_test(s1, s2)
            # estimate = 2 Pr(0) - 1, so Pr(0) = 1/2 + overlap^2 / 2
            assert est == pytest.approx(overlap_sq, abs=2e-12)

    def test_shots_mode_within_three_sigma(self, rng):
        s1, s2 = random_state(2, rng), random_state(2, rng)
        overlap_sq = abs(np.vdot(s1.amps, s2.amps)) ** 2
        p0 = 0.5 + overlap_sq / 2
        shots = 1 << 16
        est = swap_test(s1, s2, shots=shots, seed=21)
        sigma = np.sqrt(p0 * (1 - p0) / shots)
        assert abs(est - overlap_sq) <= 2 * 3 * sigma  # estimate doubles Pr(0)

    def test_sampled_estimate_is_pinned(self):
        # squared overlap 0.49; 738 of 1000 seeded shots read the ancilla as 0
        s1 = StateVector(2, [0.5, 0.5, 0.5, 0.5])
        s2 = StateVector(2, [0.8, 0.0, 0.6, 0.0])
        assert swap_test(s1, s2, 1000, 42) == 0.476

    def test_register_size_mismatch(self, rng):
        with pytest.raises(QubitCountMismatch):
            swap_test(random_state(1, rng), random_state(2, rng))

    def test_circuit_budget(self):
        circ = swap_test_circuit(3)
        kinds = [kind for kind, *_ in circ]
        assert kinds == ["h", "swap", "swap", "swap", "h"]
        assert all(controls == ((6, 1),) for kind, _, _, controls in circ if kind == "swap")

    @pytest.mark.parametrize("k", range(1, 10))
    def test_fused_state_equals_circuit_replay(self, k, rng):
        s1, s2 = random_state(k, rng), random_state(k, rng)
        joint = product_state([s1, s2, new_state(1, 0)])
        replay(swap_test_circuit(k), joint)
        assert swap_test_state(s1, s2).amps.tobytes() == joint.amps.tobytes()


class TestRegisterRead:
    """Every read equals, byte for byte, the read of the whole register
    that ``swap_test_state`` leaves (``oracles.swap_test_oracle``)."""

    @pytest.mark.parametrize("k", range(1, 10))
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_reads_are_byte_identical(self, k, real):
        rng = np.random.default_rng(k + 10 * real)
        s1, s2 = random_state(k, rng, real), random_state(k, rng, real)
        for shots, seed in [(None, None), (1, 3), (997, 4), (4096, 5)]:
            got = swap_test(s1, s2, shots, seed)
            assert np.float64(got).tobytes() == np.float64(
                swap_test_oracle(s1, s2, shots, seed)).tobytes()

    @pytest.mark.parametrize("k", [1, 5, 9])
    def test_prepared_and_sampled_across_a_block(self, k):
        # RY-prepared states, as the CLI runs them; 2^20 + 5 shots cross a block
        s1, s2 = (prepare_bba_state(m) for m in random_bbas(2, k, seed=k))
        for shots, seed in [(None, None), ((1 << 20) + 5, 6)]:
            got = swap_test(s1, s2, shots, seed)
            assert np.float64(got).tobytes() == np.float64(
                swap_test_oracle(s1, s2, shots, seed)).tobytes()

    @pytest.mark.parametrize("shots, seed, message", [
        (64, None, "sampling needs an explicit seed"),
        (0, 3, "shots must be positive"),
        (64, -1, "seed must be non-negative, not -1"),
    ])
    def test_sampling_refusals_are_kept(self, rng, shots, seed, message):
        with pytest.raises(ValidationError, match=message):
            swap_test(random_state(2, rng), random_state(2, rng), shots, seed)

    @pytest.mark.parametrize("shots, seed", [(None, None), (4096, 5)])
    def test_no_register_is_built(self, rng, register_calls, shots, seed):
        s1, s2 = random_state(3, rng), random_state(3, rng)
        swap_test(s1, s2, shots, seed)
        assert register_calls == {"sample": 0, "run": 0, "product_state": 0}
        # the counters see the register read it replaces
        swap_test_oracle(s1, s2, shots, seed)
        assert register_calls == {"sample": 0 if shots is None else 1, "run": 0,
                                  "product_state": 1}

    def test_exact_read_peak_memory_at_k9(self):
        # the register read peaks at about 2.5 times the 8 MB register; the
        # half read holds two 8 * 4^k-byte blocks and squares in place
        k = 9
        s1, s2 = (prepare_bba_state(m) for m in random_bbas(2, k, seed=4))
        peaks = []
        for read in (swap_test, swap_test_oracle):
            tracemalloc.start()
            try:
                read(s1, s2)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        new, register_read = peaks
        assert new < register_read / 2
        assert new < 16 << (2 * k + 1)
        assert new < 2.5 * (8 << (2 * k))
