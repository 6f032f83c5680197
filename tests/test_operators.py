import tracemalloc

import numpy as np
import pytest

from conftest import random_bbas
from qbelief.dst import MassFunction, transform_matrix, transform_operator
from qbelief.dst.matrices import KINDS
from qbelief.dst.operators import as_operator
from qbelief.errors import DenseBudgetExceeded, DimensionMismatch, ValidationError
from qbelief.quantum import MEoBConfig, pipelines
from qbelief.qsim import StateVector

NS = range(1, 11)


def _operator_and_matrix(kind, n, rng):
    v = rng.standard_normal(1 << n) if kind == "diag" else None
    return transform_operator(kind, n, v), transform_matrix(kind, n, v)


class TestMatvec:
    @pytest.mark.parametrize("n", NS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_the_dense_product(self, kind, n, rng):
        op, a = _operator_and_matrix(kind, n, rng)
        x = rng.standard_normal(1 << n)
        z = x + 1j * rng.standard_normal(1 << n)
        np.testing.assert_allclose(op.matvec(x), a @ x, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(op.matvec(z), a @ z, rtol=1e-12, atol=1e-12)

    def test_real_input_stays_real(self, rng):
        op = transform_operator("pl", 3)
        assert op.matvec(rng.random(8)).dtype == np.float64
        assert op.matvec(rng.random(8).astype(np.complex128)).dtype == np.complex128

    def test_input_is_not_modified(self, rng):
        for kind in KINDS:
            op, _ = _operator_and_matrix(kind, 4, rng)
            x = rng.random(16)
            before = x.copy()
            op.matvec(x)
            np.testing.assert_array_equal(x, before)


class TestNorm:
    @pytest.mark.parametrize("n", NS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_closed_form_equals_the_svd(self, kind, n, rng):
        op, a = _operator_and_matrix(kind, n, rng)
        want = np.linalg.norm(a, 2)
        assert abs(op.norm - want) <= 1e-13 * want

    @pytest.mark.parametrize("n", [1, 5, 20])
    def test_q_and_b_norms_are_golden_ratio_powers(self, n):
        # sigma_max of [[1, 1], [0, 1]] is the golden ratio; Kronecker powers multiply
        phi = (1 + 5 ** 0.5) / 2
        for kind in ("q", "q_inv", "b", "b_inv"):
            assert transform_operator(kind, n).norm == pytest.approx(phi ** n, rel=1e-13)


class TestDense:
    @pytest.mark.parametrize("kind", KINDS)
    def test_dense_is_the_transform_matrix(self, kind, rng):
        op, a = _operator_and_matrix(kind, 4, rng)
        assert op.dense().tobytes() == a.tobytes()
        assert op.shape == a.shape

    def test_dense_keeps_the_budget_but_the_action_needs_none(self, rng):
        op = transform_operator("q", 13)
        with pytest.raises(DenseBudgetExceeded):
            op.dense()
        x = rng.random(1 << 20)
        tracemalloc.start()
        try:
            out = transform_operator("fractal", 20).matvec(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(out).all()
        assert peak < 64 << 20  # a few vectors of 8 MiB, not 8 TiB of matrix


class TestConstruction:
    def test_unknown_and_dense_only_kinds_refused(self):
        for kind in ("nope", "jaccard", "cred", "card_inv"):
            with pytest.raises(DimensionMismatch):
                transform_operator(kind, 2)

    def test_diag_vector_checked(self):
        with pytest.raises(DimensionMismatch):
            transform_operator("diag", 2)
        with pytest.raises(DimensionMismatch):
            transform_operator("diag", 2, np.ones(3))
        with pytest.raises(ValidationError):
            transform_operator("diag", 1, [1.0, np.nan])

    def test_as_operator(self, rng):
        op = transform_operator("b", 2)
        assert as_operator(op) is op
        a = rng.standard_normal((4, 4))
        wrapped = as_operator(a)
        assert wrapped.norm == pytest.approx(np.linalg.norm(a, 2), rel=1e-15)
        np.testing.assert_allclose(wrapped.matvec(np.ones(4)), a @ np.ones(4), rtol=1e-15)
        with pytest.raises(ValidationError):
            as_operator(np.array([[np.inf]]))


def _values(result) -> np.ndarray:
    if isinstance(result, StateVector):
        return result.amps
    if isinstance(result, MassFunction):
        return result.masses
    return np.atleast_1d(np.asarray(result, dtype=np.float64))


_PIPELINES = {
    **{
        f"transform-{kind}": (1, lambda m, cfg, kind=kind: pipelines.belief_functions_qc(m, kind, cfg))
        for kind in ("bel", "pl", "q", "fbba", "betm")
    },
    "ccr": (2, pipelines.ccr_qc),
    "dcr": (2, pipelines.dcr_qc),
    "dempster": (2, pipelines.dempster_qc),
    "ppt": (1, pipelines.ppt_qc),
    "fb-inner": (2, pipelines.fb_inner_product_qc),
}


class TestOracleMatchesDenseChain:
    """Each oracle pipeline against the same chain run on dense ndarrays,
    which takes the SVD norm and the dense product."""

    @pytest.mark.parametrize("n", [1, 2, 4, 7, 9])
    @pytest.mark.parametrize("name", sorted(_PIPELINES))
    def test_outputs_and_success_probabilities(self, monkeypatch, name, n):
        self._check(monkeypatch, name, n)

    @pytest.mark.parametrize("name", ["transform-q", "transform-betm"])
    def test_at_ten_elements(self, monkeypatch, name):
        self._check(monkeypatch, name, 10)

    @staticmethod
    def _check(monkeypatch, name, n):
        arity, run = _PIPELINES[name]
        masses = random_bbas(arity, n, seed=100 + n, allow_empty=name in ("ccr", "dcr"))
        cfg = MEoBConfig(backend="oracle")
        stages = []
        original = pipelines.meob_apply

        def recording(matrix, state, config):
            out = original(matrix, state, config)
            stages.append(out[1])
            return out

        monkeypatch.setattr(pipelines, "meob_apply", recording)
        by_operator = _values(run(*masses, cfg))
        operator_success = stages[:]
        stages.clear()
        monkeypatch.setattr(
            pipelines, "transform_operator",
            lambda kind, n, v=None: transform_operator(kind, n, v).dense(),
        )
        by_matrix = _values(run(*masses, cfg))
        assert len(operator_success) == len(stages) > 0
        np.testing.assert_allclose(by_operator, by_matrix, rtol=0, atol=1e-12)
        np.testing.assert_allclose(operator_success, stages, rtol=1e-12, atol=0)
