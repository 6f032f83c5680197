import tracemalloc

import numpy as np
import pytest

from conftest import make_frame, random_bbas
from qbelief.dst import (
    bel_from_mass,
    betp,
    combine_conjunctive,
    combine_disjunctive,
    fb_inner_product,
    pl_from_mass,
    pl_p,
    q_from_mass,
    transform_matrix,
    transform_operator,
    validate_bba,
)
from qbelief.errors import DegenerateEmptyMass, TotalConflict, ValidationError
from qbelief.quantum import (
    BeliefQuery,
    MEoBConfig,
    belief_functions_qc,
    ccr_qc,
    dcr_qc,
    dempster_qc,
    encode_state,
    estimate_belief,
    evolve_mass,
    fb_inner_product_qc,
    ppt_qc,
    ptm_qc,
    swap_test,
)
import qbelief.quantum.pipelines as pipelines_module

ORACLE = MEoBConfig(backend="oracle")
CIRCUIT = MEoBConfig(backend="circuit")


def normalized(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def peak_vectors(run, n):
    """The tracemalloc peak of a second ``run()`` (the first fills the
    caches), in float64 vectors of 2^n entries."""
    run()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 << n)


class TestEvolveMass:
    @pytest.mark.parametrize("kind", ["q", "q_inv", "fractal", "bet", "b"])
    def test_matrix_times_masses(self, kind):
        for n in (1, 2, 3):
            matrix = transform_matrix(kind, n)
            for m in random_bbas(5, n, seed=810 + n, allow_empty=kind != "bet"):
                state, _ = evolve_mass(m, matrix, ORACLE)
                expect = matrix @ m.masses
                np.testing.assert_allclose(
                    state.amps.real, normalized(expect), atol=1e-10
                )

    def test_success_probabilities_multiply_spectrally(self, frame2):
        # chained postselections: each stage contributes C^2 ||A psi||^2
        m = validate_bba(frame2, {("A",): 0.25, ("A", "B"): 0.75})
        matrix = transform_matrix("q", 2)
        state, p = evolve_mass(m, matrix, ORACLE)

        d = np.diag(np.sqrt(m.masses))
        c1 = 0.99 / np.abs(np.linalg.eigvalsh(d)).max()  # diagonal is Hermitian
        stage1 = c1**2 * float(np.linalg.norm(d @ np.sqrt(m.masses)) ** 2)

        c2 = 0.99 / np.linalg.norm(matrix, 2)
        stage2 = c2**2 * float(np.linalg.norm(matrix @ normalized(m.masses)) ** 2)
        assert p == pytest.approx(stage1 * stage2, rel=1e-10)


class TestBeliefFunctionStates:
    def test_vacuous_commonality_is_uniform(self, frame2):
        m = validate_bba(frame2, {("A", "B"): 1.0})
        state = belief_functions_qc(m, "q", ORACLE)
        np.testing.assert_allclose(state.amps.real, np.full(4, 0.5), atol=1e-10)

    def test_showcase_plausibility_direction(self, showcase):
        state = belief_functions_qc(showcase, "pl", ORACLE)
        expect = normalized(pl_from_mass(showcase).values)
        np.testing.assert_allclose(state.amps.real, expect, atol=1e-10)

    def test_bayesian_belief_direction(self, frame3):
        m = validate_bba(frame3, {("A",): 0.6, ("B",): 0.3, ("C",): 0.1})
        state = belief_functions_qc(m, "bel", ORACLE)
        expect = normalized(bel_from_mass(m).values)
        np.testing.assert_allclose(state.amps.real, expect, atol=1e-10)

    def test_showcase_commonality_direction(self, showcase):
        state = belief_functions_qc(showcase, "q", ORACLE)
        expect = normalized(q_from_mass(showcase).values)
        np.testing.assert_allclose(state.amps.real, expect, atol=1e-10)

    @pytest.mark.parametrize("backend", ["oracle", "circuit"])
    @pytest.mark.parametrize("kind, matrix", [("fbba", "fractal"), ("betm", "bet")])
    def test_reallocation_kinds_evolve_their_matrix(self, showcase, kind, matrix, backend):
        cfg = MEoBConfig(backend=backend)
        state = belief_functions_qc(showcase, kind, cfg)
        # the operator of that kind, whose dense() the circuit evolves; the
        # oracle's sweeps meet the dense product to 1e-12 (test_operators.py)
        expect, _ = evolve_mass(showcase, transform_operator(matrix, 3), cfg)
        assert state.amps.tobytes() == expect.amps.tobytes()

    def test_unknown_kind(self, showcase):
        with pytest.raises(ValidationError):
            belief_functions_qc(showcase, "fractal", ORACLE)

    def test_oracle_peak_memory_at_n16(self):
        # real states keep each stage's vectors at 8 bytes an amplitude
        (m,) = random_bbas(1, 16, seed=16)
        assert peak_vectors(lambda: belief_functions_qc(m, "q", ORACLE), 16) < 6.5


class TestConjunctivePipeline:
    def test_worked_pair(self, frame2):
        m1 = validate_bba(frame2, {("A",): 0.5, ("A", "B"): 0.5})
        m2 = validate_bba(frame2, {("B",): 0.5, ("A", "B"): 0.5})
        out = ccr_qc(m1, m2, ORACLE)
        np.testing.assert_allclose(out.masses, [0.25, 0.25, 0.25, 0.25], atol=1e-10)

    def test_vacuous_identity(self, frame3, showcase):
        vac = validate_bba(frame3, {("A", "B", "C"): 1.0})
        out = ccr_qc(showcase, vac, ORACLE)
        np.testing.assert_allclose(out.masses, showcase.masses, atol=1e-10)

    def test_dempster_post_step(self, frame2):
        m1 = validate_bba(frame2, {("A",): 0.5, ("A", "B"): 0.5})
        m2 = validate_bba(frame2, {("B",): 0.5, ("A", "B"): 0.5})
        out = dempster_qc(m1, m2, ORACLE)
        np.testing.assert_allclose(out.masses, [0, 1 / 3, 1 / 3, 1 / 3], atol=1e-10)

    def test_total_conflict_raises(self, frame2):
        cert_a = validate_bba(frame2, {("A",): 1.0})
        cert_b = validate_bba(frame2, {("B",): 1.0})
        with pytest.raises(TotalConflict):
            dempster_qc(cert_a, cert_b, ORACLE)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_classical_rule(self, n):
        pairs = zip(
            random_bbas(13, n, seed=820 + n, allow_empty=True),
            random_bbas(13, n, seed=830 + n, allow_empty=True),
        )
        for m1, m2 in pairs:
            out = ccr_qc(m1, m2, ORACLE)
            expect = combine_conjunctive(m1, m2)
            np.testing.assert_allclose(out.masses, expect.masses, atol=1e-8)

    def test_oracle_peak_memory_at_n16(self):
        m1, m2 = random_bbas(2, 16, seed=16)
        assert peak_vectors(lambda: ccr_qc(m1, m2, ORACLE), 16) < 7.5

    def test_circuit_backend_close_at_wide_clock(self):
        # representative spectra case from the chained q-route
        frame = make_frame(1)
        m1 = validate_bba(frame, {(): 0.5, ("e0",): 0.5})
        m2 = validate_bba(frame, {(): 0.25, ("e0",): 0.75})
        out = ccr_qc(m1, m2, MEoBConfig(backend="circuit"))
        expect = combine_conjunctive(m1, m2)
        np.testing.assert_allclose(out.masses, expect.masses, atol=1e-2)


class TestDisjunctivePipeline:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_classical_rule(self, n):
        pairs = zip(
            random_bbas(8, n, seed=840 + n, allow_empty=True),
            random_bbas(8, n, seed=850 + n, allow_empty=True),
        )
        for m1, m2 in pairs:
            out = dcr_qc(m1, m2, ORACLE)
            expect = combine_disjunctive(m1, m2)
            np.testing.assert_allclose(out.masses, expect.masses, atol=1e-8)


class TestProbabilityPipelines:
    def test_showcase_pignistic(self, showcase):
        np.testing.assert_allclose(
            ppt_qc(showcase, ORACLE), np.array([23, 44, 41]) / 108, atol=1e-8
        )

    def test_bayesian_fixed_point(self, frame2):
        m = validate_bba(frame2, {("A",): 0.7, ("B",): 0.3})
        np.testing.assert_allclose(ppt_qc(m, ORACLE), [0.7, 0.3], atol=1e-10)

    def test_vacuous_uniform(self, frame2):
        m = validate_bba(frame2, {("A", "B"): 1.0})
        np.testing.assert_allclose(ppt_qc(m, ORACLE), [0.5, 0.5], atol=1e-10)

    def test_subnormal_rejected(self, frame2):
        m = validate_bba(frame2, {(): 0.2, ("A",): 0.8})
        with pytest.raises(DegenerateEmptyMass):
            ppt_qc(m, ORACLE)

    def test_ppt_matches_classical_on_random_normal_inputs(self):
        for n in (2, 3, 4):
            for m in random_bbas(17, n, seed=860 + n):
                np.testing.assert_allclose(ppt_qc(m, ORACLE), betp(m), atol=1e-8)

    def test_ptm_showcase(self, showcase):
        np.testing.assert_allclose(ptm_qc(showcase), np.array([8, 13, 12]) / 33, atol=1e-10)

    def test_ptm_vacuous_uniform(self, frame3):
        m = validate_bba(frame3, {("A", "B", "C"): 1.0})
        np.testing.assert_allclose(ptm_qc(m), np.ones(3) / 3, atol=1e-10)

    def test_ptm_bayesian_identity(self, frame3):
        m = validate_bba(frame3, {("A",): 0.6, ("B",): 0.3, ("C",): 0.1})
        np.testing.assert_allclose(ptm_qc(m), [0.6, 0.3, 0.1], atol=1e-10)

    def test_ptm_matches_classical(self):
        for n in (2, 3, 4):
            for m in random_bbas(17, n, seed=77 + n):
                np.testing.assert_allclose(ptm_qc(m), pl_p(m), atol=1e-10)

    def test_ptm_sampled_within_three_sigma(self, showcase):
        shots = 1 << 14
        est = ptm_qc(showcase, shots=shots, seed=3)
        exact = pl_p(showcase)
        # normalization mixes the three estimates; 4 sigma of the raw read
        assert np.abs(est - exact).max() <= 4 * np.sqrt(0.25 / shots)

    @pytest.mark.parametrize("shots, seed", [(None, None), (400, 3)],
                             ids=["statevector-None-None", "shots-400-3"])
    def test_ptm_prepares_once(self, showcase, preparation_calls, shots, seed):
        est = ptm_qc(showcase, shots, seed)
        assert len(preparation_calls) == 1
        seeds = [None] * 3 if seed is None else [seed + 2 * j for j in range(3)]
        raw = [
            estimate_belief(showcase, BeliefQuery("pl", 1 << j), shots, seeds[j])
            for j in range(3)
        ]
        np.testing.assert_array_equal(est, np.array(raw) / sum(raw))


class TestSampledRead:
    @pytest.mark.parametrize(
        "read",
        [
            lambda m: estimate_belief(m, BeliefQuery("pl", 0b100), 64),
            lambda m: swap_test(encode_state(m), encode_state(m), 64),
            lambda m: ptm_qc(m, 64),
        ],
        ids=["estimate_belief", "swap_test", "ptm_qc"],
    )
    def test_shots_without_seed_refused(self, showcase, read):
        with pytest.raises(ValidationError, match="seed"):
            read(showcase)


class TestSimilarityPipeline:
    def test_identical_inputs_give_one(self, showcase):
        assert fb_inner_product_qc(showcase, showcase, ORACLE) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_orthogonal_certainties_give_zero(self, frame2):
        cert_a = validate_bba(frame2, {("A",): 1.0})
        cert_b = validate_bba(frame2, {("B",): 1.0})
        assert fb_inner_product_qc(cert_a, cert_b, ORACLE) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_matches_classical_measure(self):
        for n in (2, 3, 4):
            pairs = zip(
                random_bbas(17, n, seed=870 + n),
                random_bbas(17, n, seed=880 + n),
            )
            for m1, m2 in pairs:
                assert fb_inner_product_qc(m1, m2, ORACLE) == pytest.approx(
                    fb_inner_product(m1, m2), abs=1e-8
                )

    def test_trend_endpoint_pair(self):
        # first step of the ten-element trend, cross-checked both routes
        from qbelief.cli import trend_mass_functions

        _, variants, fixed = trend_mass_functions()
        label, moving = variants[0]
        assert label == "t1"
        assert fb_inner_product_qc(moving, fixed, ORACLE) == pytest.approx(
            fb_inner_product(moving, fixed), abs=1e-8
        )


class TestRealStaysReal:
    """Real masses and real transform matrices give float64 states on the
    circuit backend, as on the oracle: no complex array leaves the filter."""

    @pytest.fixture
    def state_dtypes(self, monkeypatch) -> list:
        dtypes = []

        def recorded(matrix, state, config, _original=pipelines_module.meob_apply):
            out, success = _original(matrix, state, config)
            dtypes.append(out.amps.dtype)
            return out, success

        monkeypatch.setattr(pipelines_module, "meob_apply", recorded)
        return dtypes

    @pytest.mark.parametrize(
        "run",
        [
            lambda m1, m2: ccr_qc(m1, m2, CIRCUIT),
            lambda m1, m2: dcr_qc(m1, m2, CIRCUIT),
            *(
                lambda m1, m2, kind=kind: belief_functions_qc(m1, kind, CIRCUIT)
                for kind in ("bel", "pl", "q", "fbba", "betm")
            ),
            lambda m1, m2: ppt_qc(m1, CIRCUIT),
        ],
        ids=["ccr", "dcr", "bel", "pl", "q", "fbba", "betm", "ppt"],
    )
    def test_circuit_pipeline_states_are_float64(self, state_dtypes, run):
        m1, m2 = random_bbas(2, 3, seed=4207)
        run(m1, m2)
        assert state_dtypes and set(state_dtypes) == {np.dtype(np.float64)}

    def test_fb_inner_swaps_float64_states(self, state_dtypes, monkeypatch):
        swapped = []

        def recorded(s1, s2, _original=pipelines_module.swap_test):
            swapped.extend([s1.amps.dtype, s2.amps.dtype])
            return _original(s1, s2)

        monkeypatch.setattr(pipelines_module, "swap_test", recorded)
        m1, m2 = random_bbas(2, 3, seed=4207)
        fb_inner_product_qc(m1, m2, CIRCUIT)
        assert swapped == [np.dtype(np.float64)] * 2
        assert state_dtypes == [np.dtype(np.float64)] * 4
