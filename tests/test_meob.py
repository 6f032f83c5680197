import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import _count_state_methods, make_frame, random_bbas
from oracles import fejer_meob_oracle, phase_estimation_replay
from qbelief.dst import transform_matrix, transform_operator, validate_bba
from qbelief.dst.operators import TransformOperator
from qbelief.errors import (
    BadDimension,
    DenseBudgetExceeded,
    NotUnitary,
    PostselectionFailed,
    SingularMatrix,
    ValidationError,
)
from qbelief.qsim import StateVector
from qbelief.quantum import (
    MEoBConfig,
    ccr_qc,
    decode_eigenvalue,
    encode_state,
    meob_apply,
)
import qbelief.quantum.meob as meob_module
from qbelief.quantum.meob import CLOCK_BITS, _clock_filter, _evolution_constants, _run_circuit

ORACLE = MEoBConfig(backend="oracle")
CIRCUIT = MEoBConfig(backend="circuit")


def normalized(v):
    v = np.asarray(v, dtype=complex)
    return v / np.linalg.norm(v)


def default_constants(a: np.ndarray) -> tuple[float, float]:
    """The t0 and C that meob_apply derives from A's spectral norm."""
    lam_max = np.linalg.norm(a, 2)
    return 0.9 * np.pi / lam_max, 0.99 / lam_max


def run_circuit(a, psi, t, t0=None, c=None):
    """The circuit backend at clock width ``t``, with meob_apply's constants
    for any of ``t0`` and ``c`` not given: (normalized output, success)."""
    default_t0, default_c = default_constants(a)
    out = _run_circuit(
        a, psi, t, default_t0 if t0 is None else t0, default_c if c is None else c
    )
    return out / np.linalg.norm(out), float(np.real(np.vdot(out, out)))


def oracle_evolution(a, psi, c):
    """Ideal phase estimation: (A psi normalized, c^2 ||A psi||^2)."""
    out = a @ psi
    norm = np.linalg.norm(out)
    return out / norm, (c * norm) ** 2


class TestOracleBackend:
    def test_identity_returns_encoded_state(self, frame2):
        m = validate_bba(frame2, {("A",): 0.5, ("A", "B"): 0.5})
        out, p = meob_apply(np.eye(4), encode_state(m), ORACLE)
        np.testing.assert_allclose(out.amps.real, np.sqrt(m.masses), atol=1e-12)
        assert p == pytest.approx(0.99**2, abs=1e-12)

    def test_diagonal_contraction(self):
        frame = make_frame(1)
        m = validate_bba(frame, {(): 0.5, ("e0",): 0.5})
        out, _ = meob_apply(np.diag([0.5, 0.25]), encode_state(m), ORACLE)
        np.testing.assert_allclose(
            out.amps.real, np.array([2.0, 1.0]) / np.sqrt(5.0), atol=1e-12
        )

    def test_q_matrix_on_uniform_bayesian(self, frame2):
        from qbelief.dst import q_from_mass, transform_matrix

        m = validate_bba(frame2, {("A",): 0.5, ("B",): 0.5})
        out, _ = meob_apply(transform_matrix("q", 2), encode_state(m), ORACLE)
        expect = normalized(transform_matrix("q", 2) @ np.sqrt(m.masses))
        np.testing.assert_allclose(out.amps, expect, atol=1e-12)
        # equal masses make sqrt(m) parallel to m, so the output also
        # points along the commonality vector (1, .5, .5, 0)
        np.testing.assert_allclose(
            out.amps.real, normalized(q_from_mass(m).values), atol=1e-12
        )

    def test_success_probability_is_spectral_sum(self, rng):
        # product of C^2 and the squared norms of the eigencomponents,
        # weighted by their eigenvalues
        a = rng.normal(size=(4, 4))
        h = a + a.T
        psi = rng.normal(size=4)
        psi = psi / np.linalg.norm(psi)
        out, p = meob_apply(h, StateVector(2, psi), ORACLE)
        evals, evecs = np.linalg.eigh(h)
        c = 0.99 / np.abs(evals).max()
        betas = evecs.T @ psi
        expect = float(np.sum(betas**2 * c**2 * evals**2))
        assert p == pytest.approx(expect, abs=1e-12)

    def test_state_dtype_is_kept(self, showcase):
        # a real state stays real; a complex one keeps its imaginary part
        a = transform_matrix("q", 3)
        real, p = meob_apply(a, encode_state(showcase), ORACLE)
        assert real.amps.dtype == np.float64
        phased, p_phased = meob_apply(a, StateVector(3, 1j * np.sqrt(showcase.masses)), ORACLE)
        assert phased.amps.dtype == np.complex128
        np.testing.assert_allclose(phased.amps, 1j * real.amps, atol=1e-15)
        assert p_phased == pytest.approx(p, abs=1e-15)

    def test_zero_matrix_is_singular(self, frame2):
        m = validate_bba(frame2, {("A",): 1.0})
        with pytest.raises(SingularMatrix):
            meob_apply(np.zeros((4, 4)), encode_state(m), ORACLE)

    def test_clock_overflow_guard(self, frame2):
        # a norm so small that t0 = 0.9 pi / ||A|| overflows is refused like
        # zero; just above that threshold the state still evolves
        state = encode_state(validate_bba(frame2, {("A",): 1.0}))
        for scale in (1e-308, 1e-310, 5e-324):
            with pytest.raises(SingularMatrix):
                meob_apply(np.eye(4) * scale, state, ORACLE)
        out, p = meob_apply(np.eye(4) * 1e-307, state, ORACLE)
        np.testing.assert_array_equal(out.amps, state.amps)
        assert p == pytest.approx(0.99**2, rel=1e-12)


class TestSharedTail:
    @pytest.mark.parametrize("backend", ["oracle", "circuit"])
    def test_annihilated_state_fails_postselection(self, frame2, backend):
        m = validate_bba(frame2, {("A",): 1.0})
        # matrix kills exactly the populated coordinate
        matrix = np.diag([1.0, 0.0, 1.0, 1.0])
        with pytest.raises(PostselectionFailed):
            meob_apply(matrix, encode_state(m), MEoBConfig(backend=backend))

    @pytest.mark.parametrize("backend", ["oracle", "circuit"])
    def test_success_does_not_depend_on_matrix_scale(self, backend):
        state = StateVector(1, [0.6, 0.8])
        config = MEoBConfig(backend=backend)
        _, base = meob_apply(np.diag([1.0, 2.0]), state, config)
        for scale in (1e-160, 1e-200, 1e150):
            out, success = meob_apply(np.diag([1.0, 2.0]) * scale, state, config)
            assert success == pytest.approx(base, rel=1e-12), scale
            assert np.isfinite(out.amps).all()

    @pytest.mark.parametrize("backend", ["oracle", "circuit"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_refused(self, backend, bad):
        with pytest.raises(ValidationError, match="finite"):
            meob_apply(np.array([[bad, 0.0], [0.0, 1.0]]), StateVector(1, [0.6, 0.8]),
                       MEoBConfig(backend=backend))

    @pytest.mark.parametrize(
        "matrix",
        [np.eye(4) * 1e-307, np.eye(4) * 2.5e-308, np.eye(4) * 1.7e-308,
         np.diag([1e308, 1.0, 1.0, 1.0])],
        ids=["eye-1e-307", "eye-2.5e-308", "eye-1.7e-308", "diag-1e308"],
    )
    def test_extreme_norms_evolve(self, matrix):
        # t0 = 0.9 pi / ||A|| and C = 0.99 / ||A|| are finite for each norm,
        # so both backends evolve the state, with no warning on the way
        state = StateVector(2, np.array([1.0, 2.0, 3.0, 4.0]) / np.sqrt(30.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expect, _ = meob_apply(matrix, state, ORACLE)
            out, _ = meob_apply(matrix, state, CIRCUIT)
        np.testing.assert_allclose(out.amps, expect.amps, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("backend", ["oracle", "circuit"])
    def test_overflowing_norm_refused(self, backend):
        # finite entries whose spectral norm overflows to inf would give
        # t0 = C = 0: refused before either backend runs
        with pytest.raises(SingularMatrix, match="norm inf"):
            meob_apply(np.full((2, 2), 1e308), StateVector(1, [0.6, 0.8]),
                       MEoBConfig(backend=backend))


class TestConfigGuards:
    def test_unknown_backend(self):
        with pytest.raises(ValidationError):
            MEoBConfig(backend="hardware")

    @pytest.mark.parametrize("backend", ["oracle", "circuit"])
    @pytest.mark.parametrize("shape", [(8, 8), (4, 2)])
    def test_meob_apply_rejects_mismatched_matrix(self, backend, shape):
        with pytest.raises(BadDimension):
            meob_apply(np.ones(shape), StateVector(2), MEoBConfig(backend=backend))


class TestEvolutionConstants:
    @pytest.mark.parametrize("lam_max", [2.0**-10, 1e-307, 1.0, 3.0, 2.0**20, 1.7e308])
    def test_constants_keep_the_spectrum_in_range(self, lam_max):
        # every |lambda| <= lam_max has |lambda| t0 below pi and |C lambda|
        # at most 1, with finite positive constants, down to subnormal ones
        t0, c = _evolution_constants(lam_max)
        assert (t0, c) == (0.9 * np.pi / lam_max, 0.99 / lam_max)
        assert 0.0 < t0 < np.inf and 0.0 < c < np.inf
        assert t0 * lam_max < np.pi
        assert c * lam_max <= 1.0


class TestEigenvalueDecoding:
    def test_positive_and_twos_complement(self):
        t, t0 = 4, 1.0
        assert decode_eigenvalue(0, t, t0) == 0.0
        assert decode_eigenvalue(3, t, t0) == pytest.approx(2 * np.pi * 3 / 16)
        assert decode_eigenvalue(15, t, t0) == pytest.approx(-2 * np.pi / 16)
        assert decode_eigenvalue(8, t, t0) == pytest.approx(-2 * np.pi * 8 / 16)

    def test_huge_t0_keeps_the_grid(self):
        # 2^t * t0 would overflow to inf and decode every clock value to 0
        t0 = 1e307
        assert decode_eigenvalue(1, 8, t0) == 2 * np.pi / 256 / t0 > 0.0
        assert decode_eigenvalue(255, 8, t0) == -2 * np.pi / 256 / t0

    def test_int_array_matches_scalar_calls(self):
        t, t0 = 5, 0.7
        values = decode_eigenvalue(np.arange(1 << t), t, t0)
        assert values.shape == (1 << t,)
        for kv in range(1 << t):
            scalar = decode_eigenvalue(kv, t, t0)
            assert type(scalar) is float
            assert values[kv] == scalar


class TestCircuitBackend:
    def test_halving_diagonal_exact_at_three_clock_bits(self):
        # eigenvalues 1/2 and 1/4 with t0 = pi sit on clock values 2 and 1
        frame = make_frame(1)
        m = validate_bba(frame, {(): 0.5, ("e0",): 0.5})
        matrix = np.diag([0.5, 0.25])
        out, _ = run_circuit(matrix, np.sqrt(m.masses), 3, np.pi, 0.99 / 0.5)
        np.testing.assert_allclose(
            out.real, np.array([2.0, 1.0]) / np.sqrt(5.0), atol=1e-9
        )

    def test_exact_phase_diagonal(self):
        # eigenphases k/16 with t=4 are exact clock readouts
        frame = make_frame(1)
        m = validate_bba(frame, {(): 0.36, ("e0",): 0.64})
        matrix = np.diag([2.0 / 8.0, 5.0 / 8.0])
        psi, c = np.sqrt(m.masses), 0.99 / (5.0 / 8.0)
        out, p = run_circuit(matrix, psi, 4, np.pi, c)
        ideal, p_oracle = oracle_evolution(matrix, psi, c)
        assert abs(np.vdot(out, ideal)) >= 1.0 - 1e-6
        assert p == pytest.approx(p_oracle, abs=1e-9)

    def test_exact_phase_non_diagonal(self, rng):
        # Hermitian matrix with chosen spectrum: rotate exact eigenphases
        t, t0 = 5, np.pi
        lams = np.array([4, -6, 10, 7]) / 16.0  # phases k/32 * (2pi/t0) decodable
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        h = (q * lams) @ q.T
        psi = rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        out, _ = run_circuit(h, psi, t, t0)
        ideal = normalized(h @ psi)
        assert abs(np.vdot(out, ideal)) >= 1.0 - 1e-6

    def test_non_hermitian_circuit_run(self):
        # a non-Hermitian matrix with a zero diagonal takes the SVD route
        frame = make_frame(1)
        m = validate_bba(frame, {(): 0.5, ("e0",): 0.5})
        matrix = np.array([[0.0, 0.5], [0.0, 0.5]])  # maps sqrt-encoding into column mix
        out, _ = meob_apply(matrix, encode_state(m), CIRCUIT)
        ideal = normalized(matrix @ np.sqrt(m.masses))
        assert abs(np.vdot(out.amps, ideal)) >= 1.0 - 1e-3

    def test_monotone_refinement(self, rng):
        # widening the clock register cannot hurt on average; seeds frozen
        fids = {6: [], 10: []}
        for _ in range(20):
            q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            lams = rng.uniform(1.0, 5.0, size=4) * rng.choice([-1.0, 1.0], size=4)
            lams[0] = 1.0  # pin condition number at most 5
            h = (q * lams) @ q.T
            psi = rng.normal(size=4)
            psi /= np.linalg.norm(psi)
            ideal = normalized(h @ psi)
            for t in (6, 10):
                out, _ = run_circuit(h, psi, t)
                fids[t].append(abs(np.vdot(out, ideal)))
        assert np.mean(fids[10]) >= np.mean(fids[6])
        assert np.mean(fids[10]) > 1.0 - 1e-4

    @pytest.mark.parametrize("n", [2, 4])
    def test_peak_memory_under_twice_the_register(self, n):
        # the widest clock on a non-Hermitian matrix, whose gate-level
        # register holds the embedding bit, the n input qubits, the clock
        # and the ancilla: the pipeline holds the matrix, its SVD factors
        # and one clock vector per singular value, not that register
        (m,) = random_bbas(1, n, seed=4300 + n)
        psi = np.sqrt(m.masses)
        a = transform_matrix("q", n)
        t = 12
        register = 16 << (n + 1 + t + 1)
        tracemalloc.start()
        try:
            run_circuit(a, psi, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * register

    @pytest.mark.parametrize("hermitian", [True, False])
    def test_real_matrix_gives_real_output(self, hermitian, rng):
        # the kept amplitude g(lambda) is real, so a real A and psi give a
        # float64 output on the eigh and on the SVD route
        a = rng.normal(size=(8, 8))
        if hermitian:
            a = a + a.T
        t0, c = default_constants(a)
        assert _clock_filter(np.linalg.svd(a)[1], CLOCK_BITS, t0, c).dtype == np.float64
        out = _run_circuit(a, normalized(rng.normal(size=8)).real, CLOCK_BITS, t0, c)
        assert out.dtype == np.float64

    def test_one_decomposition_per_stage(self, monkeypatch):
        # ccr's stages diag, q, diag, q_inv: the diagonals are Hermitian and
        # take eigh, q and q_inv take an SVD of the real d x d matrix itself
        calls = []
        for name in ("eigh", "svd"):
            def counted(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
                calls.append((_name, a.shape, a.dtype))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        m1, m2 = random_bbas(2, 3, seed=4207)
        ccr_qc(m1, m2, MEoBConfig(backend="circuit"))
        assert calls == [("eigh", (8, 8), np.float64), ("svd", (8, 8), np.float64)] * 2

    @pytest.mark.parametrize("route, basis", [("eigh", 1), ("svd", 0), ("svd", 2)])
    def test_non_unitary_basis_refused(self, monkeypatch, route, basis):
        # the Gram check covers every basis a route multiplies by
        original = getattr(np.linalg, route)

        def skewed(a):
            parts = list(original(a))
            parts[basis] = parts[basis] * 1.01
            return tuple(parts)

        monkeypatch.setattr(np.linalg, route, skewed)
        matrix = np.diag([1.0, 0.5]) if route == "eigh" else np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(NotUnitary):
            meob_apply(matrix, StateVector(1, [0.6, 0.8]), CIRCUIT)

    def test_combination_peak_under_eight_matrices(self):
        # each stage holds its matrix, the two factors of its decomposition
        # and one clock vector per eigenvalue, not a 2d x 2d embedding
        n = 9
        m1, m2 = random_bbas(2, n, seed=4207)
        tracemalloc.start()
        try:
            ccr_qc(m1, m2, MEoBConfig(backend="circuit"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * (8 << 2 * n)

    @pytest.mark.parametrize("kind", ["q", "pl", "bet"])
    @pytest.mark.parametrize("n", [6, 7, 8, 9, 10])
    def test_dense_budget_covers_the_peak(self, monkeypatch, kind, n):
        # the figure checked against the dense budget is what the circuit
        # path holds at its peak, on the SVD (q, bet) and eigh (pl) routes:
        # the filter's (d, 2^t) arrays below n = 8, four d x d arrays above.
        # The FFT's plan for the clock length is made once per process,
        # outside any one evolution, so a first run makes it before tracing
        meob_apply(transform_operator("q", 1), StateVector(1), CIRCUIT)
        budgets = []

        def recorded(nbytes, what, _original=meob_module.check_dense_budget):
            budgets.append(nbytes)
            return _original(nbytes, what)

        monkeypatch.setattr(meob_module, "check_dense_budget", recorded)
        op = transform_operator(kind, n)
        state = StateVector(n, np.full(1 << n, 2.0 ** (-n / 2)))
        tracemalloc.start()
        try:
            meob_apply(op, state, CIRCUIT)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(budgets) == 1
        assert peak <= 1.05 * budgets[0]

    def test_dense_budget_is_checked_before_the_matrix(self, monkeypatch):
        # at n = 12 the circuit path needs 32 d (d + 2^CLOCK_BITS) bytes,
        # 544 MiB, over the budget: refused before the 128 MiB transform matrix is built
        monkeypatch.setattr(TransformOperator, "dense", lambda self: pytest.fail("matrix built"))
        with pytest.raises(DenseBudgetExceeded):
            meob_apply(transform_operator("q", 12), StateVector(12), CIRCUIT)


class TestOracleCircuitAgreement:
    @pytest.mark.parametrize("n", [1, 2])
    def test_random_diagonal_exact_phases(self, n, rng):
        # diagonals with 5-bit eigenphases: the two backends coincide
        t, t0 = 5, np.pi
        size = 1 << n
        for _ in range(5):
            ks = rng.integers(1, 15, size=size)  # positive eigenvalues k/16
            matrix = np.diag(ks / 16.0)
            for m in random_bbas(1, n, seed=int(rng.integers(1 << 30)), allow_empty=True):
                psi, c = np.sqrt(m.masses), 0.9 / matrix.max()
                out_c, p_c = run_circuit(matrix, psi, t, t0, c)
                out_o, p_o = oracle_evolution(matrix, psi, c)
                assert abs(np.vdot(out_c, out_o)) >= 1.0 - 1e-6
                assert p_c == pytest.approx(p_o, rel=1e-6)

    @pytest.mark.parametrize("case", ["rotated", "nilpotent"])
    def test_non_hermitian_success_matches_oracle(self, case, rng):
        # the circuit's success equals the oracle's C^2 ||A psi||^2 when
        # t0 = pi / (2 ||A||) puts every +/- singular value on an exact
        # 4-bit clock readout: 1/2 and 1/4 for the rotated diagonal, 1 and
        # 0 for the nilpotent [[0, 1], [0, 0]], whose eigenvalues are all 0
        if case == "rotated":
            u, _ = np.linalg.qr(rng.normal(size=(2, 2)))
            v, _ = np.linalg.qr(rng.normal(size=(2, 2)))
            a, norm = (u * [0.5, 0.25]) @ v.T, 0.5
        else:
            a, norm = np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0
        psi = normalized(rng.normal(size=2))
        out_c, p_c = run_circuit(a, psi, 4, np.pi / (2.0 * norm), 0.99 / norm)
        out_o, p_o = oracle_evolution(a, psi, 0.99 / norm)
        assert abs(np.vdot(out_c, out_o)) >= 1.0 - 1e-9
        assert p_c == pytest.approx(p_o, abs=1e-12)


class TestCircuitClosedForm:
    """The circuit backend against the Fejer-kernel closed form of its circuit."""

    @pytest.mark.parametrize("t", [4, 8, 12])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "kind", ["q", "q_inv", "b", "b_inv", "bel", "pl", "fractal", "bet", "diag"])
    def test_output_and_success_to_1e12(self, kind, n, t):
        (m,) = random_bbas(1, n, seed=4100 + 10 * n + t)
        psi = np.sqrt(m.masses)
        extra = (psi,) if kind == "diag" else ()
        a = transform_matrix(kind, n, *extra)
        out, p = run_circuit(a, psi, t)
        t0, c = default_constants(a)
        expect, p_expect = fejer_meob_oracle(a, psi, t, t0, c)
        np.testing.assert_allclose(out, expect, rtol=0, atol=1e-12)
        assert p == pytest.approx(p_expect, rel=1e-12, abs=0)

    @pytest.mark.parametrize("kind", ["q", "bel", "diag"])
    def test_meob_apply_is_the_clock_bits_circuit(self, kind):
        # the program path is the circuit at CLOCK_BITS with t0 and C from ||A||
        (m,) = random_bbas(1, 3, seed=4133)
        psi = np.sqrt(m.masses)
        a = transform_matrix(kind, 3, *((psi,) if kind == "diag" else ()))
        out, p = meob_apply(a, StateVector(3, psi), CIRCUIT)
        expect, p_expect = run_circuit(a, psi, CLOCK_BITS)
        assert out.amps.tobytes() == expect.tobytes()
        assert p == p_expect


class TestFusedEqualsGateReplay:
    """Each fused register operator against the gate-level circuit it replaces."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("hermitian", [True, False])
    def test_replay_matches_to_1e12(self, n, hermitian, rng):
        a = rng.normal(size=(1 << n, 1 << n))
        if hermitian:
            a = a + a.T
        psi = normalized(rng.normal(size=1 << n))
        t = 5
        t0, c = default_constants(a)
        out, p = run_circuit(a, psi, t)
        expect, p_expect = phase_estimation_replay(a, psi, t0, c, t)
        np.testing.assert_allclose(out, expect, rtol=0, atol=1e-12)
        assert p == pytest.approx(p_expect, rel=1e-12, abs=0)

    def test_circuit_combination_reads_one_block(self, readout_calls):
        m1, m2 = random_bbas(2, 3, seed=4207)
        ccr_qc(m1, m2, MEoBConfig(backend="circuit"))
        assert readout_calls == {"postselect": 0, "extract_register": 0}
        # the counter sees a postselection when one is made
        StateVector(1).postselect(0, 0)
        assert readout_calls == {"postselect": 1, "extract_register": 0}

    def test_circuit_combination_applies_no_gates(self, gate_calls):
        m1, m2 = random_bbas(2, 3, seed=4207)
        ccr_qc(m1, m2, MEoBConfig(backend="circuit"))
        assert gate_calls == {"_apply_matrix": 0, "apply_dense_unitary": 0}
        # the counter sees a gate when one is applied
        StateVector(1).apply_dense_unitary(np.eye(2), [0])
        assert gate_calls == {"_apply_matrix": 1, "apply_dense_unitary": 1}

    def test_circuit_combination_applies_no_multiplexed_ry(self, monkeypatch):
        ry_calls = _count_state_methods(monkeypatch, ("apply_multiplexed_ry",))
        m1, m2 = random_bbas(2, 3, seed=4207)
        ccr_qc(m1, m2, MEoBConfig(backend="circuit"))
        assert ry_calls == {"apply_multiplexed_ry": 0}
