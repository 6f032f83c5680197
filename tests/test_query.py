import numpy as np
import pytest

from conftest import make_frame, random_bbas
from oracles import b_oracle, bel_oracle, estimate_prepared_oracle, pl_oracle, q_oracle
from qbelief.dst import MassFunction, validate_bba
from qbelief.errors import EmptyFocal, IndexOutOfRange, ValidationError
from qbelief.quantum import (
    BeliefQuery,
    belief_query_circuit,
    encode_state,
    estimate_belief,
    prepare_bba_state,
    ptm_qc,
)
from qbelief.quantum.query import _estimate_prepared


class TestCircuitShape:
    def test_b_query_is_single_flip(self):
        circ = belief_query_circuit(BeliefQuery("b", 0b011), n=3)
        assert circ.gate_count == 1
        op = circ.ops[0]
        assert op.gate.kind == "x" and op.targets == (3,)
        assert op.controls == ((2, 0),)  # open control on the only outside qubit

    def test_q_query_controls_members(self):
        circ = belief_query_circuit(BeliefQuery("q", 0b110), n=3)
        assert circ.gate_count == 1
        assert circ.ops[0].controls == ((1, 1), (2, 1))

    def test_pl_query_is_flip_plus_ancilla_x(self):
        circ = belief_query_circuit(BeliefQuery("pl", 0b100), n=3)
        assert circ.gate_count == 2
        assert circ.ops[0].controls == ((2, 0),)
        assert circ.ops[1].controls == ()
        assert circ.ops[1].targets == (3,)

    def test_full_frame_b_query_flips_unconditionally(self):
        circ = belief_query_circuit(BeliefQuery("b", 0b111), n=3)
        assert circ.ops[0].controls == ()

    def test_empty_focal_rejected_for_pl_q_bel(self):
        for kind in ("pl", "q", "bel"):
            with pytest.raises(EmptyFocal):
                BeliefQuery(kind, 0)
        BeliefQuery("b", 0)  # the empty-set mass query is legitimate


class TestShowcaseExtraction:
    def test_pl_c(self, showcase):
        assert estimate_belief(showcase, BeliefQuery("pl", 0b100)) == pytest.approx(
            2 / 3, abs=1e-10
        )

    def test_q_bc(self, showcase):
        assert estimate_belief(showcase, BeliefQuery("q", 0b110)) == pytest.approx(
            4 / 9, abs=1e-10
        )

    def test_bel_ab(self, showcase):
        assert estimate_belief(showcase, BeliefQuery("bel", 0b011)) == pytest.approx(
            1 / 3, abs=1e-10
        )

    def test_vacuous_q_on_frame(self, frame3):
        m = validate_bba(frame3, {("A", "B", "C"): 1.0})
        assert estimate_belief(m, BeliefQuery("q", 0b111)) == pytest.approx(1.0, abs=1e-12)

    def test_sampled_pl_c_within_three_sigma(self, showcase):
        shots = 4096
        est = estimate_belief(showcase, BeliefQuery("pl", 0b100), shots, seed=9)
        bound = 3 * np.sqrt((2 / 3) * (1 / 3) / shots)
        assert abs(est - 2 / 3) <= bound

    def test_sampled_pl_c_is_pinned(self, showcase):
        # 654 of 1000 seeded shots read the ancilla as 1
        assert estimate_belief(showcase, BeliefQuery("pl", 0b100), 1000, 42) == 0.654


class TestOracleAgreement:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_query_on_random_inputs(self, n):
        # all four kinds over every non-empty focal set, statevector mode
        for m in random_bbas(50 // 5, n, seed=900 + n, allow_empty=True):
            bel = bel_oracle(m.masses, n)
            pl = pl_oracle(m.masses, n)
            q = q_oracle(m.masses, n)
            b = b_oracle(m.masses, n)
            for f in range(1, 1 << n):
                assert estimate_belief(m, BeliefQuery("pl", f)) == pytest.approx(
                    pl[f], abs=1e-10
                )
                assert estimate_belief(m, BeliefQuery("q", f)) == pytest.approx(
                    q[f], abs=1e-10
                )
                assert estimate_belief(m, BeliefQuery("b", f)) == pytest.approx(
                    b[f], abs=1e-10
                )
                assert estimate_belief(m, BeliefQuery("bel", f)) == pytest.approx(
                    bel[f], abs=1e-10
                )

    def test_empty_set_query_reads_conflict_mass(self, frame2):
        m = validate_bba(frame2, {(): 0.3, ("A",): 0.7})
        assert estimate_belief(m, BeliefQuery("b", 0)) == pytest.approx(0.3, abs=1e-10)



class TestPreparedOnce:
    @pytest.mark.parametrize("shots, seed", [(None, None), (400, 5)],
                             ids=["statevector-None-None", "shots-400-5"])
    def test_bel_query_prepares_once(self, showcase, preparation_calls, shots, seed):
        value = estimate_belief(showcase, BeliefQuery("bel", 0b011), shots, seed)
        assert len(preparation_calls) == 1
        seed2 = None if seed is None else seed + 1
        b_val = estimate_belief(showcase, BeliefQuery("b", 0b011), shots, seed)
        empty = estimate_belief(showcase, BeliefQuery("b", 0), shots, seed2)
        assert value == b_val - empty

class TestNegativeDust:
    def test_tolerated_negative_mass_gives_finite_amplitudes(self, frame2):
        # -1e-10 is within the ingestion tolerance; sqrt of it was NaN
        m = MassFunction(frame2, np.array([0.0, 0.5, 0.5 + 1e-10, -1e-10]))
        assert m.masses[3] == 0.0
        assert m.masses[2] == 0.5 + 1e-10
        assert np.all(np.isfinite(encode_state(m).amps))
        assert np.isfinite(estimate_belief(m, BeliefQuery("pl", 1)))


def _register_read_inputs(n: int) -> dict[str, MassFunction]:
    """A random, a vacuous, a single-focal and an empty-set-mass input on n elements."""
    frame = make_frame(n)
    (random,) = random_bbas(1, n, seed=300 + n, allow_empty=True)
    vacuous = np.zeros(frame.size)
    vacuous[-1] = 1.0
    single = np.zeros(frame.size)
    single[(0b1011 * n) % (frame.size - 1) + 1] = 1.0
    (rest,) = random_bbas(1, n, seed=400 + n)
    conflict = 0.75 * rest.masses
    conflict[0] = 0.25
    return {
        "random": random,
        "vacuous": MassFunction(frame, vacuous),
        "single-focal": MassFunction(frame, single),
        "empty-set-mass": MassFunction(frame, conflict),
    }


class TestRegisterRead:
    """Every read equals, byte for byte, the read of the widened register
    that the query's circuit leaves (``oracles.estimate_prepared_oracle``)."""

    @pytest.mark.parametrize("n", range(1, 12))
    @pytest.mark.parametrize("shots", [None, 1, 997, 4096])
    def test_reads_are_byte_identical(self, n, shots):
        rng = np.random.default_rng(n)
        for m in _register_read_inputs(n).values():
            prepared = prepare_bba_state(m)
            focals = {1, (1 << n) - 1, int(rng.integers(1, 1 << n))}
            for kind in ("b", "q", "pl", "bel"):
                for focal in sorted(focals | ({0} if kind == "b" else set())):
                    query = BeliefQuery(kind, focal)
                    seed = None if shots is None else int(rng.integers(0, 1 << 31))
                    got = _estimate_prepared(prepared.probabilities(), query, shots, seed)
                    want = estimate_prepared_oracle(prepared, query, shots, seed)
                    assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("n", [1, 6, 11])
    def test_sampled_reads_across_a_block_are_byte_identical(self, n):
        # 2^20 + 5 shots draw one full block of the stream and five more
        m = _register_read_inputs(n)["random"]
        prepared = prepare_bba_state(m)
        for kind in ("b", "q", "pl", "bel"):
            query = BeliefQuery(kind, (1 << n) - 1 if kind == "b" else 1)
            got = _estimate_prepared(prepared.probabilities(), query, (1 << 20) + 5, 11)
            want = estimate_prepared_oracle(prepared, query, (1 << 20) + 5, 11)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("shots, seed, message", [
        (64, None, "sampling needs an explicit seed"),
        (0, 3, "shots must be positive"),
        (64, -1, "seed must be non-negative, not -1"),
    ])
    def test_sampling_refusals_are_kept(self, showcase, shots, seed, message):
        with pytest.raises(ValidationError, match=message):
            estimate_belief(showcase, BeliefQuery("pl", 0b100), shots, seed)

    def test_focal_outside_the_frame_is_refused(self, showcase):
        with pytest.raises(IndexOutOfRange, match="focal 8 out of range for n=3"):
            estimate_belief(showcase, BeliefQuery("q", 8))

    @pytest.mark.parametrize("shots, seed", [(None, None), (4096, 5)])
    def test_no_register_is_widened(self, showcase, register_calls, shots, seed):
        for kind in ("b", "q", "pl", "bel"):
            estimate_belief(showcase, BeliefQuery(kind, 0b011), shots, seed)
        ptm_qc(showcase, shots, seed)
        assert register_calls == {"sample": 0, "run": 0, "product_state": 0}
        # the counters see the register read they replace
        estimate_prepared_oracle(prepare_bba_state(showcase), BeliefQuery("pl", 1), shots, seed)
        assert register_calls == {
            "sample": 0 if shots is None else 1, "run": 1, "product_state": 1
        }
