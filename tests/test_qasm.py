"""Decomposed-emission correctness: the flattened circuit must reproduce
the native preparation exactly, and oversized registers must refuse."""

import json

import numpy as np
import pytest

from conftest import make_frame, random_bbas
from qbelief.dst import validate_bba
from qbelief.errors import TooManyControls, ValidationError
from qbelief.qasm import circuit_from_json, circuit_to_qasm
from qbelief.qsim import decompose_circuit
from qbelief.quantum import build_preparation_tree, synthesize_preparation_circuit


class TestDecomposedPreparation:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_flattened_circuit_matches_native(self, n):
        for m in random_bbas(4, n, seed=910 + n, allow_empty=True):
            native = synthesize_preparation_circuit(build_preparation_tree(m))
            flat = decompose_circuit(native)
            a = native.simulate(0).amps
            b = flat.simulate(0).amps
            np.testing.assert_allclose(b, a, atol=1e-9)

    def test_single_element_certainty_is_one_rotation(self):
        frame = make_frame(1)
        m = validate_bba(frame, {("e0",): 1.0})
        text = circuit_to_qasm(synthesize_preparation_circuit(build_preparation_tree(m)))
        body = [l for l in text.splitlines()[4:] if l]
        assert len(body) == 1
        assert body[0].startswith("ry(3.14159265358979")

    def test_nine_elements_emit(self):
        # layer 9 uses 8 controls, the decomposition cap
        frame = make_frame(9)
        m = validate_bba(frame, {tuple(frame.elements): 1.0})
        circ = synthesize_preparation_circuit(build_preparation_tree(m))
        text = circuit_to_qasm(circ)
        assert text.startswith("OPENQASM 2.0;")

    def test_ten_elements_refuse(self):
        frame = make_frame(10)
        m = validate_bba(frame, {tuple(frame.elements): 1.0})
        circ = synthesize_preparation_circuit(build_preparation_tree(m))
        with pytest.raises(TooManyControls):
            circuit_to_qasm(circ)


class TestCircuitJSON:
    def test_control_polarity_outside_bits_refused_on_load(self):
        # polarity 2 used to load and export as a plain cx; only run refused it
        doc = {
            "schema": "qbelief/circuit-v1",
            "qubits": 2,
            "ops": [{"gate": "x", "params": [], "targets": [1], "controls": [[0, 2]]}],
        }
        with pytest.raises(ValidationError):
            circuit_from_json(json.dumps(doc))
