import numpy as np
import pytest

from oracles import matrix_exponential


class TestMatrixExponential:
    def test_zero_matrix_gives_identity(self):
        np.testing.assert_allclose(
            matrix_exponential(np.zeros((4, 4)), 1.7), np.eye(4), atol=1e-12
        )

    def test_diagonal_case(self):
        out = matrix_exponential(np.diag([1.0, 2.0]), np.pi)
        np.testing.assert_allclose(out, np.diag([-1.0, 1.0]), atol=1e-12)

    def test_random_hermitian_unitarity(self, rng):
        for _ in range(10):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = a + a.conj().T
            u = matrix_exponential(h, 0.37)
            assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-8

    def test_eigenvector_phases(self, rng):
        a = rng.normal(size=(4, 4))
        h = a + a.T
        t = 0.21
        evals, evecs = np.linalg.eigh(h)
        u = matrix_exponential(h, t)
        for lam, vec in zip(evals, evecs.T):
            np.testing.assert_allclose(u @ vec, np.exp(1j * lam * t) * vec, atol=1e-8)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            matrix_exponential(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)

    def test_array_of_times_matches_scalar_calls(self, rng):
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = a + a.conj().T
        times = 0.3 * 2.0 ** np.arange(6)
        batched = matrix_exponential(h, times)
        stacked = np.stack([matrix_exponential(h, t) for t in times])
        assert batched.shape == (6, 8, 8)
        assert batched.tobytes() == stacked.tobytes()

    def test_scalar_time_gives_one_matrix(self):
        assert matrix_exponential(np.eye(4), 0.5).shape == (4, 4)
