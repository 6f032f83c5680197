import json

import numpy as np
import pytest

from conftest import make_frame
from oracles import dump_bba_oracle, inputs_digest_oracle, round_payload_oracle
from qbelief.documents import (
    dump_bba_document,
    dumps_result,
    inputs_digest,
    parse_bba_document,
    result_document,
)
from qbelief.dst import Frame, MassFunction, random_mass_function, validate_bba
from qbelief.errors import DuplicateFocalSet, MassSumViolation, ValidationError
from qbelief.qasm import circuit_from_json, circuit_to_json, circuit_to_qasm
from qbelief.quantum import build_preparation_tree, synthesize_preparation_circuit


def showcase_doc():
    return {
        "frame": ["A", "B", "C"],
        "masses": [
            {"focal": ["A"], "mass": 1 / 18},
            {"focal": ["B"], "mass": 1 / 6},
            {"focal": ["C"], "mass": 1 / 6},
            {"focal": ["A", "B"], "mass": 1 / 9},
            {"focal": ["A", "C"], "mass": 1 / 18},
            {"focal": ["B", "C"], "mass": 2 / 9},
            {"focal": ["A", "B", "C"], "mass": 2 / 9},
        ],
    }


class TestBbaDocuments:
    def test_parse_round_trip(self):
        m = parse_bba_document(showcase_doc())
        assert len(m.focal_sets) == 7
        again = parse_bba_document(dump_bba_document(m))
        np.testing.assert_allclose(again.masses, m.masses, atol=1e-12)

    def test_duplicate_focal_rejected(self):
        doc = showcase_doc()
        doc["masses"].append({"focal": ["B", "A"], "mass": 0.0})
        with pytest.raises(DuplicateFocalSet):
            parse_bba_document(doc)

    def test_bad_sum_rejected(self):
        doc = {"frame": ["A"], "masses": [{"focal": ["A"], "mass": 0.5}]}
        with pytest.raises(MassSumViolation):
            parse_bba_document(doc)

    def test_missing_keys_rejected(self):
        with pytest.raises(ValidationError):
            parse_bba_document({"frame": ["A"]})
        with pytest.raises(ValidationError):
            parse_bba_document({"frame": ["A"], "masses": [{"focal": ["A"]}]})


class TestResultDocuments:
    def test_twelve_significant_digits(self):
        doc = result_document("op", "d", None, {"value": 1 / 3})
        assert doc["payload"]["value"] == float(f"{1 / 3:.12g}")

    def test_byte_identity_without_timing(self):
        payload = {"vector": list(np.linspace(0, 1, 5))}
        a = dumps_result(result_document("op", inputs_digest("x"), "classical", payload))
        b = dumps_result(result_document("op", inputs_digest("x"), "classical", payload))
        assert a.encode() == b.encode()

    def test_digest_changes_with_input(self):
        assert inputs_digest("a", 1) != inputs_digest("a", 2)

    def test_non_finite_payload_rejected(self):
        with pytest.raises(ValidationError):
            result_document("op", "d", None, {"value": float("inf")})

    def test_shots_and_seed_recorded(self):
        doc = result_document("op", "d", "b", {}, shots=1024, seed=7)
        assert doc["shots"] == 1024 and doc["seed"] == 7

    def test_timing_field_is_opt_in(self):
        doc = result_document("op", "d", None, {})
        assert "wall_time_s" not in doc
        doc = result_document("op", "d", None, {}, wall_time_s=0.125)
        assert doc["wall_time_s"] == 0.125


def edge_mass_function() -> MassFunction:
    """Masses at the 12-digit rounding edges: 1e-13, 0.1 + 0.2 (not 0.3
    in binary) and subnormal dust."""
    frame = make_frame(4)
    masses = np.zeros(frame.size)
    masses[1] = 1e-13
    masses[2] = 0.1 + 0.2
    masses[3] = 5e-324
    masses[4] = 2.2250738585072014e-309
    masses[7] = 1.0 / 3.0
    masses[15] = 1.0 - masses.sum()
    return MassFunction(frame, masses)


class TestInputsDigest:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_random_documents_match_oracle(self, n):
        rng = np.random.default_rng(900 + n)
        frame = make_frame(n)
        for _ in range(5):
            m = random_mass_function(frame, rng, allow_empty=True)
            assert inputs_digest("transform", "q", "classical", m) == inputs_digest_oracle(
                "transform", "q", "classical", m
            )

    def test_rounding_edges_match_oracle(self):
        m = edge_mass_function()
        assert 5e-324 in m.masses  # the dust survives into the document
        assert inputs_digest("entropy", "js", m) == inputs_digest_oracle("entropy", "js", m)

    @pytest.mark.parametrize("shots, seed", [(None, None), (1024, 7), (None, 3), (0, 0)])
    def test_every_cli_shape_matches_oracle(self, showcase, shots, seed):
        other = edge_mass_function()
        shapes = [
            ("transform", "bel", "quantum-oracle", showcase),
            ("combine", "dempster", "classical", showcase, showcase),
            ("similarity", "fidelity", "quantum-circuit", showcase, showcase),
            ("entropy", "fb", other),
            ("prob", "ptm", "quantum-circuit", showcase, shots, seed),
            ("prepare", other, shots, seed),
        ]
        for parts in shapes:
            assert inputs_digest(*parts) == inputs_digest_oracle(*parts), parts

    def test_frame_cap_with_4096_focal_sets_matches_oracle(self):
        rng = np.random.default_rng(2020)
        frame = make_frame(20)
        focal = rng.choice(frame.size, size=4096, replace=False)
        weights = rng.exponential(size=4096)
        m = validate_bba(frame, dict(zip(focal.tolist(), (weights / weights.sum()).tolist())))
        assert m.focal.size == 4096
        assert inputs_digest("similarity", "fidelity", "classical", m, m) == inputs_digest_oracle(
            "similarity", "fidelity", "classical", m, m
        )

    @pytest.mark.parametrize("labels", [
        ["é", "日本", "\U0001f600"],
        ['say "hi"', "back\\slash", "tab\there"],
        ["a", "\u00e9", "\x7f", "\n"],
    ])
    def test_escaped_labels_match_oracle(self, labels):
        frame = Frame(labels)
        m = random_mass_function(frame, np.random.default_rng(len(labels[0])), allow_empty=True)
        assert inputs_digest("entropy", "js", m) == inputs_digest_oracle("entropy", "js", m)
        assert inputs_digest("prob", labels[0], m, None, 3) == inputs_digest_oracle(
            "prob", labels[0], m, None, 3
        )

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_document_form_matches_dense_scan(self, n):
        m = random_mass_function(make_frame(n), np.random.default_rng(n), allow_empty=True)
        assert dump_bba_document(m) == round_payload_oracle(dump_bba_oracle(m))
        edge = edge_mass_function()
        assert dump_bba_document(edge) == round_payload_oracle(dump_bba_oracle(edge))

    @pytest.mark.parametrize("part", [0.5, np.float64(0.5), np.arange(3), np.array(1.0)])
    def test_float_and_array_parts_refused(self, part):
        with pytest.raises(ValidationError):
            inputs_digest("prob", part)


class TestCircuitSerialization:
    def test_json_round_trip_reproduces_state(self):
        m = parse_bba_document(showcase_doc())
        circ = synthesize_preparation_circuit(build_preparation_tree(m))
        text = circuit_to_json(circ)
        loaded = circuit_from_json(text)
        np.testing.assert_allclose(
            loaded.simulate(0).amps, circ.simulate(0).amps, atol=1e-10
        )

    def test_qasm_header_and_gate_subset(self):
        m = parse_bba_document(showcase_doc())
        circ = synthesize_preparation_circuit(build_preparation_tree(m))
        text = circuit_to_qasm(circ)
        lines = text.splitlines()
        assert lines[0] == "OPENQASM 2.0;"
        assert lines[1] == 'include "qelib1.inc";'
        for line in lines[4:]:
            mnemonic = line.split("(")[0].split()[0]
            assert mnemonic in {"x", "ry", "rz", "h", "cx"}

    def test_qasm_json_agree_on_ops(self):
        # json keeps the native form; parsing its ops back gives the
        # same statevector the QASM export started from
        m = parse_bba_document(showcase_doc())
        circ = synthesize_preparation_circuit(build_preparation_tree(m))
        doc = json.loads(circuit_to_json(circ))
        assert doc["qubits"] == 3
        assert len(doc["ops"]) == 7
