import numpy as np
import pytest

from conftest import make_frame, random_bbas, random_mass_function
from oracles import jaccard_oracle, jousselme_oracle
from qbelief.cli import trend_rows
from qbelief.dst import (
    MassFunction,
    classical_fidelity,
    euclidean_distance,
    fb_inner_product,
    inner_bba,
    jousselme_distance,
    validate_bba,
)
from qbelief.errors import FrameMismatch


class TestDistanceBasics:
    def test_disjoint_certainties_are_distance_one(self, frame2):
        cert_a = validate_bba(frame2, {("A",): 1.0})
        cert_b = validate_bba(frame2, {("B",): 1.0})
        assert jousselme_distance(cert_a, cert_b) == pytest.approx(1.0, abs=1e-12)
        assert euclidean_distance(cert_a, cert_b) == pytest.approx(1.0, abs=1e-12)

    def test_self_distance_zero_self_similarity_one(self, showcase):
        assert jousselme_distance(showcase, showcase) == 0.0
        assert euclidean_distance(showcase, showcase) == 0.0
        assert classical_fidelity(showcase, showcase) == pytest.approx(1.0, abs=1e-12)
        assert fb_inner_product(showcase, showcase) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_and_bounds(self):
        pairs = zip(
            random_bbas(20, 4, seed=71, allow_empty=True),
            random_bbas(20, 4, seed=72, allow_empty=True),
        )
        for m1, m2 in pairs:
            d12 = jousselme_distance(m1, m2)
            assert d12 == pytest.approx(jousselme_distance(m2, m1), abs=1e-14)
            assert -1e-12 <= d12 <= 1.0 + 1e-12
            assert jousselme_distance(m1, m2) == pytest.approx(
                jousselme_oracle(m1.masses, m2.masses, 4), abs=1e-12
            )

    def test_frame_mismatch(self, frame2, showcase):
        with pytest.raises(FrameMismatch):
            jousselme_distance(validate_bba(frame2, {("A",): 1.0}), showcase)


def dense_forms(m1, m2, jac):
    d = m1.masses - m2.masses
    return float(np.sqrt(max(0.5 * d @ jac @ d, 0.0))), float(m1.masses @ jac @ m2.masses)


class TestJaccardForms:
    """The focal-list forms against the dense 4^n Jaccard matrix."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_match_dense_matrix(self, n):
        rng = np.random.default_rng(300 + n)
        frame = make_frame(n)
        jac = jaccard_oracle(n)
        for i in range(12):
            # alternate sparse and full supports, with and without the empty set
            max_focal = 3 if i % 2 else None
            m1, m2 = (
                random_mass_function(frame, rng, allow_empty=i % 3 == 0, max_focal=max_focal)
                for _ in range(2)
            )
            jousselme, inner = dense_forms(m1, m2, jac)
            assert jousselme_distance(m1, m2) == pytest.approx(jousselme, abs=1e-12)
            assert inner_bba(m1, m2) == pytest.approx(inner, abs=1e-12)

    def test_focal_lists_longer_than_one_row_block(self):
        # 700 + 700 focal sets on n = 10 span several row blocks
        rng = np.random.default_rng(310)
        frame = make_frame(10)
        masses = np.zeros((2, frame.size))
        for row in masses:
            row[rng.choice(frame.size, size=700, replace=False)] = rng.exponential(size=700)
        m1, m2 = (MassFunction(frame, row / row.sum()) for row in masses)
        jousselme, inner = dense_forms(m1, m2, jaccard_oracle(10))
        assert jousselme_distance(m1, m2) == pytest.approx(jousselme, abs=1e-12)
        assert inner_bba(m1, m2) == pytest.approx(inner, abs=1e-12)

    def test_empty_set_pair_counts_one(self):
        frame = make_frame(3)
        empty = validate_bba(frame, {0: 1.0})
        assert inner_bba(empty, empty) == 1.0
        assert jousselme_distance(empty, validate_bba(frame, {7: 1.0})) == pytest.approx(
            1.0, abs=1e-12
        )


class TestFidelity:
    def test_matches_elementwise_definition(self):
        pairs = zip(
            random_bbas(10, 3, seed=73, allow_empty=True),
            random_bbas(10, 3, seed=74, allow_empty=True),
        )
        for m1, m2 in pairs:
            expect = sum(
                np.sqrt(m1.masses[f] * m2.masses[f]) for f in range(m1.frame.size)
            )
            assert classical_fidelity(m1, m2) == pytest.approx(expect, abs=1e-12)


class TestFbInner:
    def test_orthogonal_certainties(self, frame2):
        cert_a = validate_bba(frame2, {("A",): 1.0})
        cert_b = validate_bba(frame2, {("B",): 1.0})
        # singleton certainties are fixed points of the reallocation
        assert fb_inner_product(cert_a, cert_b) == pytest.approx(0.0, abs=1e-12)

    def test_inner_bba_is_jaccard_bilinear_form(self):
        pairs = zip(
            random_bbas(10, 3, seed=75, allow_empty=True),
            random_bbas(10, 3, seed=76, allow_empty=True),
        )
        from oracles import jaccard_oracle

        de = jaccard_oracle(3)
        for m1, m2 in pairs:
            assert inner_bba(m1, m2) == pytest.approx(
                float(m1.masses @ de @ m2.masses), abs=1e-12
            )


class TestTrend:
    """Ten nested focal sets against a fixed five-element certainty."""

    def test_shape_and_bounds(self):
        rows = trend_rows()
        assert len(rows) == 10
        for _, values in rows:
            assert len(values) == 5
            for v in values:
                assert -1e-12 <= v <= 1.0 + 1e-12

    def test_fb_inner_peaks_at_matching_support(self):
        # verified against the loop oracles: every column peaks at row 5,
        # where the moving focal set coincides with the fixed one
        rows = trend_rows()
        fb_column = [values[1] for _, values in rows]
        assert int(np.argmax(fb_column)) == 4

    def test_all_columns_peak_together(self):
        rows = trend_rows()
        arr = np.array([values for _, values in rows])
        for col in range(5):
            assert int(np.argmax(arr[:, col])) == 4
