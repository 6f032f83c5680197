"""Belief/plausibility/commonality transforms against definition-level sums."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_frame, random_bbas
from oracles import (
    _lattice_sum,
    b_oracle,
    bel_oracle,
    fbba_oracle,
    fbba_sweep_oracle,
    mass_from_q_oracle,
    pl_oracle,
    q_oracle,
)
from qbelief.dst import (
    MassFunction,
    b_from_mass,
    bel_from_mass,
    fbba,
    mass_from_q,
    pl_from_mass,
    q_from_mass,
    fb_entropy,
    subset_sum,
    subset_sum_inverse,
    superset_sum,
    superset_sum_inverse,
    transform_matrix,
    validate_bba,
)
from qbelief.dst.mass import BeliefVector
from qbelief.dst.transforms import fractal_masses
from qbelief.errors import InverseNotBBA


class TestShowcaseValues:
    """Frozen expectations, derived by the loop oracles over the exact masses."""

    def test_bel(self, showcase):
        bel = bel_from_mass(showcase)
        assert bel.value_of(("A", "B")) == pytest.approx(1 / 3, abs=1e-12)
        assert bel.value_of(("B", "C")) == pytest.approx(5 / 9, abs=1e-12)
        assert bel.value_of(("A", "B", "C")) == pytest.approx(1.0, abs=1e-12)

    def test_pl(self, showcase):
        pl = pl_from_mass(showcase)
        assert pl.value_of("C") == pytest.approx(2 / 3, abs=1e-12)
        assert pl.value_of("A") == pytest.approx(4 / 9, abs=1e-12)
        assert pl.value_of("B") == pytest.approx(13 / 18, abs=1e-12)

    def test_q(self, showcase):
        q = q_from_mass(showcase)
        assert q.value_of(("B", "C")) == pytest.approx(4 / 9, abs=1e-12)
        assert q.value_of("A") == pytest.approx(4 / 9, abs=1e-12)
        assert q.value_of(()) == pytest.approx(1.0, abs=1e-12)


class TestSpecialShapes:
    def test_vacuous_bel(self, frame3):
        m = validate_bba(frame3, {("A", "B", "C"): 1})
        bel = bel_from_mass(m).values
        assert bel[7] == pytest.approx(1.0)
        assert np.all(bel[:7] == 0.0)

    def test_vacuous_pl_is_one_off_empty(self, frame3):
        m = validate_bba(frame3, {("A", "B", "C"): 1})
        pl = pl_from_mass(m).values
        assert pl[0] == 0.0
        np.testing.assert_allclose(pl[1:], 1.0, atol=1e-12)

    def test_bayesian_bel_is_additive(self, frame3):
        m = validate_bba(frame3, {("A",): 0.2, ("B",): 0.3, ("C",): 0.5})
        bel = bel_from_mass(m)
        assert bel.value_of(("A", "C")) == pytest.approx(0.7, abs=1e-12)
        assert bel.value_of(("A", "B")) == pytest.approx(0.5, abs=1e-12)


class TestAgainstOracles:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_all_transforms_match_loop_sums(self, n):
        for m in random_bbas(6, n, seed=100 + n, allow_empty=True):
            np.testing.assert_allclose(
                bel_from_mass(m).values, bel_oracle(m.masses, n), atol=1e-12
            )
            np.testing.assert_allclose(
                pl_from_mass(m).values, pl_oracle(m.masses, n), atol=1e-12
            )
            np.testing.assert_allclose(
                q_from_mass(m).values, q_oracle(m.masses, n), atol=1e-12
            )
            np.testing.assert_allclose(
                b_from_mass(m).values, b_oracle(m.masses, n), atol=1e-12
            )
            np.testing.assert_allclose(
                fbba(m).masses, fbba_oracle(m.masses, n), atol=1e-12
            )

    def test_moebius_inverse_matches_alternating_sum(self):
        for m in random_bbas(5, 4, seed=7):
            q = q_from_mass(m)
            np.testing.assert_allclose(
                mass_from_q(q).masses, mass_from_q_oracle(q.values, 4), atol=1e-10
            )


SWEEPS = [
    (subset_sum, True, 1),
    (subset_sum_inverse, True, -1),
    (superset_sum, False, 1),
    (superset_sum_inverse, False, -1),
]


def sparse_bba(rng, n: int, k: int) -> MassFunction:
    frame = make_frame(n)
    focal = rng.choice(frame.size, size=min(k, frame.size), replace=False)
    weights = rng.exponential(size=focal.size)
    return validate_bba(frame, dict(zip(focal.tolist(), (weights / weights.sum()).tolist())))


def sha256(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes()).hexdigest()


class TestSweepBytes:
    """Every pass layout of the sweeps (strided halves, complex-view columns)
    gives the bytes of the one-pair-at-a-time reference."""

    @pytest.mark.parametrize("n", [*range(1, 15), 20])
    def test_sweeps_match_pairwise_reference(self, n):
        values = np.random.default_rng(n).standard_normal(1 << n)
        for sweep, upward, sign in SWEEPS:
            expected = _lattice_sum(values, upward, sign)
            assert sweep(values).tobytes() == expected.tobytes(), sweep.__name__

    @pytest.mark.parametrize("n", [*range(1, 15), 20])
    def test_fractal_masses_match_pairwise_reference(self, n):
        m = sparse_bba(np.random.default_rng(40 + n), n, 4096)
        assert fractal_masses(m).tobytes() == fbba_sweep_oracle(m.masses, n).tobytes()

    def test_frame_cap_fractal_bytes_pinned(self):
        """sha256 of the fractal reallocations and fb entropy of one n = 20
        pair, as computed by the strided-halves sweep before the
        complex-view passes.  (The fb inner product of the pair is not
        pinned: its last bits follow the host's BLAS dot kernel.)"""
        rng = np.random.default_rng(2020)
        a, b = sparse_bba(rng, 20, 4096), sparse_bba(rng, 20, 1024)
        assert sha256(fractal_masses(a)) == (
            "a8b80ce0cbb34dc3988b97a5e9c9920716283248667d73a84a25cdfc1430e1c2"
        )
        assert sha256(fractal_masses(b)) == (
            "02f82908a55ca50bbe052cc1820dc166eb1cfb44fa083d0a13c78d5edf8fb25f"
        )
        assert sha256(fb_entropy(a)) == (
            "5380b59c1fbff77e33a0919f92a867e1b86d913f7a13bb9b1bc987c2ee582e56"
        )


class TestMatrixEquivalence:
    """Fast lattice sweeps equal the explicit matrix products."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_bel_pl_q_vs_matrices(self, n):
        per_n = 200 // 8
        mats = {k: transform_matrix(k, n) for k in ("bel", "pl", "q", "b")}
        for m in random_bbas(per_n, n, seed=3000 + n, allow_empty=True):
            np.testing.assert_allclose(
                bel_from_mass(m).values, mats["bel"] @ m.masses, atol=1e-12
            )
            np.testing.assert_allclose(
                pl_from_mass(m).values, mats["pl"] @ m.masses, atol=1e-12
            )
            np.testing.assert_allclose(
                q_from_mass(m).values, mats["q"] @ m.masses, atol=1e-12
            )
            np.testing.assert_allclose(
                b_from_mass(m).values, mats["b"] @ m.masses, atol=1e-12
            )

    def test_fbba_vs_matrix(self):
        mat = transform_matrix("fractal", 4)
        for m in random_bbas(10, 4, seed=11, allow_empty=True):
            np.testing.assert_allclose(fbba(m).masses, mat @ m.masses, atol=1e-12)


@st.composite
def dense_bbas(draw, n: int, allow_empty: bool = True):
    size = 1 << n
    weights = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=size,
            max_size=size,
        ).filter(lambda w: sum(w) > 1e-3)
    )
    arr = np.array(weights)
    if not allow_empty:
        arr[0] = 0.0
        if arr.sum() <= 1e-3:
            arr[-1] = 1.0
    return MassFunction(make_frame(n), arr / arr.sum())


class TestAlgebraicProperties:
    @given(dense_bbas(n=4))
    @settings(max_examples=100, deadline=None)
    def test_moebius_round_trip(self, m):
        back = mass_from_q(q_from_mass(m))
        np.testing.assert_allclose(back.masses, m.masses, atol=1e-10)

    @given(dense_bbas(n=4, allow_empty=False))
    @settings(max_examples=100, deadline=None)
    def test_bel_pl_duality_on_normal_inputs(self, m):
        bel = bel_from_mass(m).values
        pl = pl_from_mass(m).values
        np.testing.assert_allclose(pl, 1.0 - bel[::-1], atol=1e-12)

    @given(dense_bbas(n=4))
    @settings(max_examples=50, deadline=None)
    def test_bel_monotone_q_antimonotone(self, m):
        bel = bel_from_mass(m).values
        q = q_from_mass(m).values
        size = m.frame.size
        for f in range(size):
            for k in range(m.frame.n):
                g = f | (1 << k)
                if g != f:
                    assert bel[f] <= bel[g] + 1e-12
                    assert q[g] <= q[f] + 1e-12

    def test_round_trip_many_sizes(self):
        # 104 random draws spread over n = 1..8
        for n in range(1, 9):
            for m in random_bbas(13, n, seed=500 + n, allow_empty=True):
                back = mass_from_q(q_from_mass(m))
                np.testing.assert_allclose(back.masses, m.masses, atol=1e-10)


class TestInverseGuards:
    def test_non_commonality_vector_rejected(self, frame2):
        bogus = BeliefVector(frame2, "q", np.array([1.0, 0.2, 0.9, 0.4]))
        with pytest.raises(InverseNotBBA):
            mass_from_q(bogus)


class TestFbbaShape:
    def test_vacuous_two_elements(self, frame2):
        m = validate_bba(frame2, {("A", "B"): 1})
        np.testing.assert_allclose(fbba(m).masses, [0, 1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_bayesian_fixed_point(self, frame3):
        m = validate_bba(frame3, {("A",): 0.2, ("B",): 0.3, ("C",): 0.5})
        np.testing.assert_allclose(fbba(m).masses, m.masses, atol=1e-12)

    def test_empty_mass_passes_through(self, frame2):
        m = validate_bba(frame2, {(): 0.25, ("A", "B"): 0.75})
        out = fbba(m)
        assert out.masses[0] == pytest.approx(0.25)
        assert out.masses.sum() == pytest.approx(1.0, abs=1e-12)
