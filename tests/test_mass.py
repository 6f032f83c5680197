import numpy as np
import pytest

from qbelief.dst import Frame, MassFunction, validate_bba
from qbelief.errors import (
    DuplicateFocalSet,
    MassSumViolation,
    NegativeMass,
    UnknownElement,
    ValidationError,
)


class TestFrame:
    def test_index_round_trip(self, frame3):
        assert frame3.index_of(()) == 0
        assert frame3.index_of("A") == 1
        assert frame3.index_of(("B", "C")) == 6
        assert frame3.labels_of(6) == ("B", "C")
        assert frame3.full_set == 7

    def test_order_insensitive_indexing(self, frame3):
        assert frame3.index_of(("C", "A")) == frame3.index_of(("A", "C"))

    def test_unknown_element(self, frame3):
        with pytest.raises(UnknownElement):
            frame3.index_of(("A", "D"))
        with pytest.raises(UnknownElement):
            frame3.index_of((["A"],))  # unhashable label

    def test_rejects_duplicates_and_empties(self):
        with pytest.raises(ValidationError):
            Frame(["A", "A"])
        with pytest.raises(ValidationError):
            Frame([])
        with pytest.raises(ValidationError):
            Frame(["A", ""])

    def test_element_cap(self):
        with pytest.raises(ValidationError):
            Frame([f"e{i}" for i in range(21)])
        Frame([f"e{i}" for i in range(20)])  # the cap itself is fine


class TestValidateBba:
    def test_vacuous(self, frame3):
        m = validate_bba(frame3, {("A", "B", "C"): 1})
        assert m.masses[7] == 1.0
        assert m.vacuous and m.consonant and not m.bayesian and not m.subnormal

    def test_showcase_dense_layout(self, showcase):
        from conftest import SHOWCASE_DENSE

        np.testing.assert_allclose(showcase.masses, SHOWCASE_DENSE, atol=0)

    def test_sum_violation(self, frame3):
        with pytest.raises(MassSumViolation):
            validate_bba(frame3, {("A",): 0.6})

    def test_negative_mass(self, frame3):
        with pytest.raises(NegativeMass):
            validate_bba(frame3, {("A",): -0.2, ("B",): 1.2})

    def test_duplicate_focal(self, frame3):
        class TwoKeys(dict):
            def items(self):
                yield ("A", "B"), 0.5
                yield ("B", "A"), 0.5

        with pytest.raises(DuplicateFocalSet):
            validate_bba(frame3, TwoKeys())

    def test_unknown_element(self, frame3):
        with pytest.raises(UnknownElement):
            validate_bba(frame3, {("D",): 1.0})

    def test_unlisted_subsets_get_zero(self, frame3):
        m = validate_bba(frame3, {("A",): 0.4, ("B", "C"): 0.6})
        assert m.focal_sets == [1, 6]
        assert m.masses[7] == 0.0


class TestShapeFlags:
    def test_bayesian(self, frame3):
        m = validate_bba(frame3, {("A",): 0.2, ("B",): 0.3, ("C",): 0.5})
        assert m.bayesian and not m.vacuous

    def test_subnormal(self, frame3):
        m = validate_bba(frame3, {(): 0.25, ("A",): 0.75})
        assert m.subnormal

    def test_consonant_chain(self, frame3):
        m = validate_bba(frame3, {("A",): 0.5, ("A", "B"): 0.3, ("A", "B", "C"): 0.2})
        assert m.consonant

    def test_not_consonant(self, frame3):
        m = validate_bba(frame3, {("A",): 0.5, ("B",): 0.5})
        assert not m.consonant


class TestMassFunctionInvariants:
    def test_wrong_length(self, frame3):
        with pytest.raises(ValidationError):
            MassFunction(frame3, np.ones(4) / 4)

    def test_immutable(self, showcase):
        with pytest.raises(ValueError):
            showcase.masses[0] = 0.5

    def test_mass_of_accepts_labels_and_indices(self, showcase):
        assert showcase.mass_of(("B", "C")) == pytest.approx(2 / 9)
        assert showcase.mass_of(6) == pytest.approx(2 / 9)
