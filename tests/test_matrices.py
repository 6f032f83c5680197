import numpy as np
import pytest

from conftest import make_frame, random_bbas
from oracles import conjunctive_matrix, disjunctive_matrix, jaccard_oracle, popcount
from qbelief.dst import MassFunction, inner_bba, transform_matrix
from qbelief.dst.combine import combine_conjunctive, combine_disjunctive
from qbelief.errors import DenseBudgetExceeded, DimensionMismatch


def jaccard_kernel(n: int) -> np.ndarray:
    """The library's Jaccard kernel as a dense matrix: J(F, G) is the
    inner product of the categorical mass functions on F and on G."""
    frame = make_frame(n)
    cats = [MassFunction(frame, row) for row in np.eye(1 << n)]
    return np.array([[inner_bba(mf, mg) for mg in cats] for mf in cats])


class TestSmallCases:
    def test_q_matrix_one_element(self):
        np.testing.assert_array_equal(transform_matrix("q", 1), [[1, 1], [0, 1]])

    def test_bel_matrix_empty_column_is_zero(self):
        m = transform_matrix("bel", 2)
        np.testing.assert_array_equal(m[:, 0], np.zeros(4))
        assert m[3, 1] == 1 and m[3, 3] == 1 and m[1, 2] == 0

    def test_b_matrix_is_bel_plus_empty_column(self):
        mb = transform_matrix("b", 3)
        mbel = transform_matrix("bel", 3)
        np.testing.assert_array_equal(mb[:, 1:], mbel[:, 1:])
        np.testing.assert_array_equal(mb[:, 0], np.ones(8))

    def test_bet_entries_two_elements(self):
        # subsets ordered {}, {A}, {B}, {A,B}
        m = transform_matrix("bet", 2)
        assert m[3, 3] == pytest.approx(1.0)  # |AB & AB| / |AB| = 2 * 1/2
        assert m[1, 3] == pytest.approx(0.5)
        assert m[1, 1] == pytest.approx(1.0)
        np.testing.assert_array_equal(m[:, 0], np.zeros(4))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_bet_is_cred_times_inverse_cardinality(self, n):
        # cred is |F & G|, card_inv the diagonal 1/|G| (0 on the empty set)
        idx = np.arange(1 << n)
        cred = np.bitwise_count(idx[:, None] & idx).astype(np.float64)
        inv_card = np.zeros(1 << n)
        inv_card[1:] = 1.0 / np.bitwise_count(idx[1:])
        expect = cred @ np.diag(inv_card)
        assert transform_matrix("bet", n).tobytes() == expect.tobytes()

    def test_jaccard_entries(self):
        d = jaccard_kernel(2)
        assert d[1, 3] == pytest.approx(0.5)  # |A & AB| / |A | AB|
        assert d[0, 0] == 1.0
        assert d[1, 2] == 0.0

    def test_diag(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(transform_matrix("diag", 2, v), np.diag(v))
        with pytest.raises(DimensionMismatch):
            transform_matrix("diag", 2)
        with pytest.raises(DimensionMismatch):
            transform_matrix("diag", 2, np.ones(3))

    def test_unknown_kind(self):
        for kind in ("nope", "jaccard", "cred", "card_inv"):
            with pytest.raises(DimensionMismatch):
                transform_matrix(kind, 2)

    @pytest.mark.parametrize("kind", ["q", "pl", "bet", "diag"])
    def test_over_the_dense_budget_is_refused(self, kind):
        # 8 * 4^13 bytes = 512 MiB, twice the budget
        with pytest.raises(DenseBudgetExceeded):
            transform_matrix(kind, 13, np.ones(1 << 13))


class TestStructure:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_q_inverse_identity(self, n):
        mq = transform_matrix("q", n)
        mq_inv = transform_matrix("q_inv", n)
        np.testing.assert_allclose(mq @ mq_inv, np.eye(1 << n), atol=1e-10)
        np.testing.assert_allclose(mq_inv @ mq, np.eye(1 << n), atol=1e-10)

    def test_q_inverse_has_alternating_signs(self):
        # closed form: (-1)^{|G \ F|} on F <= G
        n = 3
        mq_inv = transform_matrix("q_inv", n)
        for f in range(8):
            for g in range(8):
                expect = (-1.0) ** popcount(g & ~f & 7) if f & g == f else 0.0
                assert mq_inv[f, g] == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_b_inverse_identity(self, n):
        mb = transform_matrix("b", n)
        mb_inv = transform_matrix("b_inv", n)
        np.testing.assert_array_equal(mb @ mb_inv, np.eye(1 << n))
        np.testing.assert_array_equal(mb_inv @ mb, np.eye(1 << n))

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_kronecker_kinds_match_set_definitions(self, n):
        # bit for bit, including the sign of every zero
        idx = np.arange(1 << n)
        F, G = idx[:, None], idx[None, :]
        sign = (-1.0) ** np.bitwise_count(F ^ G)
        expect = {
            "q": ((F & G) == F).astype(np.float64),
            "q_inv": np.where((F & G) == F, sign, 0.0),
            "b": ((F & G) == G).astype(np.float64),
            "b_inv": np.where((F & G) == G, sign, 0.0),
            "bel": (((F & G) == G) & (G != 0)).astype(np.float64),
            "pl": ((F & G) != 0).astype(np.float64),
        }
        for kind, want in expect.items():
            assert transform_matrix(kind, n).tobytes() == want.tobytes(), kind

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_jaccard_positive_semidefinite(self, n):
        eigs = np.linalg.eigvalsh(jaccard_kernel(n))
        assert eigs.min() >= -1e-9

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_jaccard_matches_oracle(self, n):
        np.testing.assert_allclose(jaccard_kernel(n), jaccard_oracle(n), atol=0)

    def test_fractal_block_form(self):
        mf = transform_matrix("fractal", 3)
        assert mf[0, 0] == 1.0
        np.testing.assert_array_equal(mf[0, 1:], np.zeros(7))
        np.testing.assert_array_equal(mf[1:, 0], np.zeros(7))
        assert mf[1, 7] == pytest.approx(1 / 7)
        assert mf[2, 6] == pytest.approx(1 / 3)

    def test_bet_matrix_is_not_symmetric(self):
        # the cardinality-spread operator is genuinely asymmetric:
        # entry (F, G) is |F & G| / |G|, so (A, AB) = 1/2 but (AB, A) = 1
        m = transform_matrix("bet", 2)
        assert m[1, 3] != m[3, 1]


class TestCombinationMatrices:
    def test_conjunctive_matrix_reproduces_rule(self):
        for m1, m2 in zip(
            random_bbas(5, 3, seed=21, allow_empty=True),
            random_bbas(5, 3, seed=22, allow_empty=True),
        ):
            via_matrix = conjunctive_matrix(m1) @ m2.masses
            np.testing.assert_allclose(
                via_matrix, combine_conjunctive(m1, m2).masses, atol=1e-10
            )

    def test_disjunctive_matrix_reproduces_rule(self):
        for m1, m2 in zip(
            random_bbas(5, 3, seed=23, allow_empty=True),
            random_bbas(5, 3, seed=24, allow_empty=True),
        ):
            via_matrix = disjunctive_matrix(m1) @ m2.masses
            np.testing.assert_allclose(
                via_matrix, combine_disjunctive(m1, m2).masses, atol=1e-10
            )
