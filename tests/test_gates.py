import numpy as np
import pytest

from oracles import step_matrix
from qbelief.qsim import RY, Gate, H, X


def unitarity_defect(u):
    return np.abs(u @ u.conj().T - np.eye(u.shape[0])).max()


class TestMatrixConstants:
    def test_x(self):
        np.testing.assert_array_equal(X().matrix(), [[0, 1], [1, 0]])

    def test_h(self):
        np.testing.assert_allclose(
            H().matrix(), np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-15
        )

    def test_ry_rotation_layout(self):
        # standard rotation: column signs put -sin in the upper right, so
        # RY(2a)|0> = cos(a)|0> + sin(a)|1> with non-negative amplitudes
        # for a in [0, pi/2]; the transposed sign layout is the same gate
        # with the angle negated
        theta = 0.7
        c, s = np.cos(theta / 2), np.sin(theta / 2)
        np.testing.assert_allclose(RY(theta).matrix(), [[c, -s], [s, c]], atol=1e-15)
        np.testing.assert_allclose(RY(-theta).matrix(), [[c, s], [-s, c]], atol=1e-15)

    # rz and swap are the QFT's gates; the oracle circuits replay them
    def test_rz_is_a_phase_on_one(self):
        lam = 1.1
        np.testing.assert_allclose(
            step_matrix("rz", lam), [[1, 0], [0, np.exp(1j * lam)]], atol=1e-15
        )

    def test_swap(self):
        m = step_matrix("swap", 0.0)
        np.testing.assert_array_equal(
            m, [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
        )


class TestUnitarity:
    @pytest.mark.parametrize(
        "matrix",
        [
            pytest.param(X().matrix(), id="x"),
            pytest.param(H().matrix(), id="h"),
            pytest.param(RY(0.123).matrix(), id="ry"),
            pytest.param(step_matrix("rz", 2.2), id="rz"),
            pytest.param(step_matrix("swap", 0.0), id="swap"),
        ],
    )
    def test_within_tolerance(self, matrix):
        assert unitarity_defect(matrix) < 1e-12

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Gate("zz").matrix()
