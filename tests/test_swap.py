import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_bbas
from qbelief.errors import QubitCountMismatch, ValidationError
from qbelief.qsim import H, StateVector, new_state, product_state
from oracles import replay, swap_test_circuit, swap_test_oracle, swap_test_state
from qbelief.quantum import prepare_bba_state, swap_test


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


def exact_read(s1, s2) -> Fraction:
    """2 Pr(0) - 1 = ||s1||^2 ||s2||^2 + |<s1|s2>|^2 - 1 in exact rationals
    of the float amplitudes."""
    def parts(state):
        return [(Fraction(z.real), Fraction(z.imag))
                for z in np.asarray(state.amps, dtype=np.complex128).tolist()]

    a, b = parts(s1), parts(s2)
    norm1 = sum(x * x + y * y for x, y in a)
    norm2 = sum(x * x + y * y for x, y in b)
    re = sum(ax * bx + ay * by for (ax, ay), (bx, by) in zip(a, b))
    im = sum(ax * by - ay * bx for (ax, ay), (bx, by) in zip(a, b))
    return norm1 * norm2 + re * re + im * im - 1


def assert_exact_read(s1, s2):
    # the closed form is no farther from the rational value than the read of
    # the whole register, and within 4 ulps of 1
    exact = exact_read(s1, s2)
    error = abs(Fraction(swap_test(s1, s2)) - exact)
    assert error <= abs(Fraction(swap_test_oracle(s1, s2)) - exact)
    assert error <= 4 * Fraction(math.ulp(1.0))


class TestRegisterRead:
    """The exact read is held to the exact rational value of 2 Pr(0) - 1
    on the same amplitudes, at least as closely as the read of the whole
    register that ``oracles.swap_test_state`` leaves: the closed form sums
    other products in another order than the register, so the two differ
    in the last bits, and the exact value is the one both approximate.
    A sampled read draws the register's stream with the closed-form Pr(0)
    as the half boundary, and equals the register's sampled read byte for
    byte (``oracles.swap_test_oracle``)."""

    @pytest.mark.parametrize("k", range(1, 10))
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_exact_read_is_the_rational_value(self, k, real):
        rng = np.random.default_rng(k + 10 * real)
        assert_exact_read(random_state(k, rng, real), random_state(k, rng, real))

    @pytest.mark.parametrize("k", range(1, 10))
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_reads_are_byte_identical(self, k, real):
        rng = np.random.default_rng(k + 10 * real)
        s1, s2 = random_state(k, rng, real), random_state(k, rng, real)
        for shots, seed in [(1, 3), (997, 4), (4096, 5)]:
            got = swap_test(s1, s2, shots, seed)
            assert np.float64(got).tobytes() == np.float64(
                swap_test_oracle(s1, s2, shots, seed)).tobytes()

    @pytest.mark.parametrize("k", [1, 5, 9])
    def test_prepared_and_sampled_across_a_block(self, k):
        # RY-prepared states, as the CLI runs them; 2^20 + 5 shots cross a block
        s1, s2 = (prepare_bba_state(m) for m in random_bbas(2, k, seed=k))
        assert_exact_read(s1, s2)
        shots, seed = (1 << 20) + 5, 6
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

    def test_exact_read_peak_memory_at_k20(self):
        # two 2^20-amplitude vectors and no register: the elementwise
        # products are the only arrays the read allocates
        k = 20
        s1, s2 = (prepare_bba_state(m) for m in random_bbas(2, k, seed=4))
        tracemalloc.start()
        try:
            swap_test(s1, s2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * (8 << k)
