import numpy as np
import pytest

from conftest import random_bbas
from oracles import (
    conjunctive_matrix,
    conjunctive_oracle,
    disjunctive_matrix,
    disjunctive_oracle,
)
from qbelief.dst import (
    combine_conjunctive,
    combine_dempster,
    combine_disjunctive,
    b_from_mass,
    q_from_mass,
    validate_bba,
)
from qbelief.dst.transforms import subset_sum_inverse, superset_sum_inverse
from qbelief.errors import FrameMismatch, TotalConflict


class TestWorkedExamples:
    def test_conjunctive_four_way_split(self, frame2):
        m1 = validate_bba(frame2, {("A",): 0.5, ("A", "B"): 0.5})
        m2 = validate_bba(frame2, {("B",): 0.5, ("A", "B"): 0.5})
        # four product terms: A&B={}, A&AB=A, AB&B=B, AB&AB=AB, each 1/4
        out = combine_conjunctive(m1, m2)
        np.testing.assert_allclose(out.masses, [0.25, 0.25, 0.25, 0.25], atol=1e-12)
        assert out.subnormal

    def test_dempster_normalizes_the_same_pair(self, frame2):
        m1 = validate_bba(frame2, {("A",): 0.5, ("A", "B"): 0.5})
        m2 = validate_bba(frame2, {("B",): 0.5, ("A", "B"): 0.5})
        out = combine_dempster(m1, m2)
        np.testing.assert_allclose(out.masses, [0, 1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_disjunctive_hand_case(self, frame2):
        m1 = validate_bba(frame2, {("A",): 0.5, ("B",): 0.5})
        m2 = validate_bba(frame2, {("A",): 1.0})
        out = combine_disjunctive(m1, m2)
        np.testing.assert_allclose(out.masses, [0, 0.5, 0, 0.5], atol=1e-12)


class TestIdentities:
    def test_vacuous_is_conjunctive_identity(self, frame3, showcase):
        vac = validate_bba(frame3, {("A", "B", "C"): 1})
        np.testing.assert_allclose(
            combine_conjunctive(showcase, vac).masses, showcase.masses, atol=1e-12
        )
        np.testing.assert_allclose(
            combine_dempster(showcase, vac).masses, showcase.masses, atol=1e-12
        )

    def test_empty_certainty_is_disjunctive_identity(self, frame3, showcase):
        empty = validate_bba(frame3, {(): 1.0})
        np.testing.assert_allclose(
            combine_disjunctive(showcase, empty).masses, showcase.masses, atol=1e-12
        )

    def test_vacuous_absorbs_unions(self, frame3, showcase):
        vac = validate_bba(frame3, {("A", "B", "C"): 1})
        out = combine_disjunctive(showcase, vac)
        assert out.vacuous

    def test_total_conflict_cases(self, frame2):
        cert_a = validate_bba(frame2, {("A",): 1.0})
        cert_b = validate_bba(frame2, {("B",): 1.0})
        cap = combine_conjunctive(cert_a, cert_b)
        assert cap.masses[0] == pytest.approx(1.0)
        with pytest.raises(TotalConflict):
            combine_dempster(cert_a, cert_b)

    def test_frame_mismatch(self, frame2, frame3, showcase):
        m = validate_bba(frame2, {("A",): 1.0})
        with pytest.raises(FrameMismatch):
            combine_conjunctive(m, showcase)


class TestTripleFormEquality:
    """Definition loop == belief-function product == combination matrix."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_conjunctive_three_ways(self, n):
        pairs = zip(
            random_bbas(20, n, seed=40 + n, allow_empty=True),
            random_bbas(20, n, seed=60 + n, allow_empty=True),
        )
        for m1, m2 in pairs:
            loop = conjunctive_oracle(m1.masses, m2.masses, n)
            q_product = superset_sum_inverse(
                q_from_mass(m1).values * q_from_mass(m2).values
            )
            via_matrix = conjunctive_matrix(m1) @ m2.masses
            library = combine_conjunctive(m1, m2).masses
            np.testing.assert_allclose(library, loop, atol=1e-10)
            np.testing.assert_allclose(q_product, loop, atol=1e-10)
            np.testing.assert_allclose(via_matrix, loop, atol=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_disjunctive_three_ways(self, n):
        pairs = zip(
            random_bbas(20, n, seed=80 + n, allow_empty=True),
            random_bbas(20, n, seed=90 + n, allow_empty=True),
        )
        for m1, m2 in pairs:
            loop = disjunctive_oracle(m1.masses, m2.masses, n)
            b_product = subset_sum_inverse(
                b_from_mass(m1).values * b_from_mass(m2).values
            )
            via_matrix = disjunctive_matrix(m1) @ m2.masses
            library = combine_disjunctive(m1, m2).masses
            np.testing.assert_allclose(library, loop, atol=1e-10)
            np.testing.assert_allclose(b_product, loop, atol=1e-10)
            np.testing.assert_allclose(via_matrix, loop, atol=1e-10)


class TestAlgebra:
    def test_commutativity(self):
        for rule in (combine_conjunctive, combine_disjunctive, combine_dempster):
            for m1, m2 in zip(
                random_bbas(10, 4, seed=7, allow_empty=rule is not combine_dempster),
                random_bbas(10, 4, seed=8, allow_empty=rule is not combine_dempster),
            ):
                np.testing.assert_allclose(
                    rule(m1, m2).masses, rule(m2, m1).masses, atol=1e-10
                )

    def test_associativity(self):
        for rule in (combine_conjunctive, combine_disjunctive):
            triples = zip(
                random_bbas(10, 5, seed=9, allow_empty=True),
                random_bbas(10, 5, seed=10, allow_empty=True),
                random_bbas(10, 5, seed=11, allow_empty=True),
            )
            for m1, m2, m3 in triples:
                left = rule(rule(m1, m2), m3).masses
                right = rule(m1, rule(m2, m3)).masses
                np.testing.assert_allclose(left, right, atol=1e-9)
