import numpy as np
import pytest

from oracles import inverse_circuit, qft_circuit, replay
from qbelief.qsim import StateVector, new_state


def dft_matrix(k):
    size = 1 << k
    x = np.arange(size)
    return np.exp(2j * np.pi * np.outer(x, x) / size) / np.sqrt(size)


class TestQft:
    def test_single_qubit_is_hadamard(self):
        out = replay(qft_circuit(1), new_state(1, 0))
        np.testing.assert_allclose(out.amps, [1, 1] / np.sqrt(2), atol=1e-12)

    def test_ground_state_goes_uniform(self):
        out = replay(qft_circuit(3), new_state(3, 0))
        np.testing.assert_allclose(out.amps, np.full(8, 1 / np.sqrt(8)), atol=1e-12)

    def test_basis_one_closed_form(self):
        # |1> on three qubits: amplitudes are the unit roots e^{2 pi i j / 8}
        out = replay(qft_circuit(3), new_state(3, 1))
        expect = np.exp(2j * np.pi * np.arange(8) / 8) / np.sqrt(8)
        np.testing.assert_allclose(out.amps, expect, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_dft_on_every_basis_state(self, k):
        expect = dft_matrix(k)
        for x in range(1 << k):
            out = replay(qft_circuit(k), new_state(k, x))
            np.testing.assert_allclose(out.amps, expect[:, x], atol=1e-12)

    def test_round_trip_on_random_state(self, rng):
        k = 4
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        amps /= np.linalg.norm(amps)
        s = StateVector(k, amps)
        replay(qft_circuit(k), s)
        replay(inverse_circuit(qft_circuit(k)), s)
        np.testing.assert_allclose(s.amps, amps, atol=1e-10)

    def test_inverse_is_conjugate_transpose(self):
        k = 3
        out = replay(inverse_circuit(qft_circuit(k)), new_state(k, 3))
        np.testing.assert_allclose(out.amps, dft_matrix(k).conj().T[:, 3], atol=1e-12)

    def test_gate_budget(self):
        # k Hadamards, k(k-1)/2 controlled phases, floor(k/2) swaps
        k = 5
        assert len(qft_circuit(k)) == k + k * (k - 1) // 2 + k // 2
