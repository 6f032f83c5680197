"""QASM export: the Gray-code multiplexor must reproduce the simulator's
uniformly controlled RY on every basis state, and a preparation tree
exports with 2^n - 1 ``ry`` and 2^n - 2 ``cx`` lines at any n."""

import json

import numpy as np
import pytest

from conftest import circuit_json, make_frame, random_bbas
from oracles import circuit_from_json, qasm_replay
from qbelief.dst import validate_bba
from qbelief.errors import ValidationError
from qbelief.qasm import _multiplexed_ry, circuit_to_qasm
from qbelief.qsim import RY, Circuit, new_state
from qbelief.quantum import build_preparation_tree


def qasm_text(k, body):
    return "\n".join(["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{k}];",
                      f"creg c[{k}];", *body]) + "\n"


def count_lines(text, kind):
    return sum(line.startswith(kind + " ") or line.startswith(kind + "(")
               for line in text.splitlines())


class TestMultiplexor:
    """The emitter against ``StateVector.apply_multiplexed_ry``."""

    # (qubits, target, controls): gapped and unordered controls, with the
    # target below, between and above them
    @pytest.mark.parametrize("k, target, controls", [
        (1, 0, ()),
        (3, 2, ()),
        (2, 0, (1,)),
        (2, 1, (0,)),
        (3, 0, (2, 1)),
        (4, 1, (0, 3)),
        (4, 3, (2, 0)),
        (5, 0, (3, 1, 4)),
        (5, 2, (4, 0, 1)),
        (5, 4, (0, 3, 1)),
        (5, 0, (4, 2, 1, 3)),
        (6, 2, (0, 5, 1, 4)),
        (5, 4, (3, 0, 2, 1)),
    ])
    def test_matches_simulator_on_every_basis_state(self, k, target, controls, rng):
        angles = rng.uniform(-2 * np.pi, 2 * np.pi, size=1 << len(controls))
        text = qasm_text(k, _multiplexed_ry(angles, target, controls))
        assert count_lines(text, "ry") == 1 << len(controls)
        assert count_lines(text, "cx") == (1 << len(controls) if controls else 0)
        for basis in range(1 << k):
            want = new_state(k, basis).apply_multiplexed_ry(angles, target, controls).amps
            np.testing.assert_allclose(qasm_replay(text, basis), want, atol=1e-12)


def assert_export_matches(circuit, tol=1e-12):
    """Export a circuit of one controlled RY as the multiplexor with a
    one-hot angle vector and replay it against the native gate."""
    (op,) = circuit.ops
    wires = tuple(q for q, _ in op.controls)
    angles = np.zeros(1 << len(wires))
    angles[sum(pol << b for b, (_, pol) in enumerate(op.controls))] = op.gate.params[0]
    text = qasm_text(circuit.k, _multiplexed_ry(angles, op.targets[0], wires))
    for basis in range(1 << circuit.k):
        np.testing.assert_allclose(
            qasm_replay(text, basis), circuit.simulate(basis).amps, atol=tol
        )
    return text


class TestControlledRY:
    """One controlled RY of any polarity: one pattern rotated, every other
    pattern left alone."""

    def test_no_controls_is_one_line(self):
        text = assert_export_matches(Circuit(3).append(RY(0.4), 2))
        assert text.splitlines()[4:] == ["ry(0.4) q[2];"]

    @pytest.mark.parametrize("polarity", [(1, 1), (1, 0), (0, 1), (0, 0)])
    def test_double_controlled(self, polarity, rng):
        theta = float(rng.uniform(0, 2 * np.pi))
        controls = [(1, polarity[0]), (2, polarity[1])]
        text = assert_export_matches(Circuit(3).append(RY(theta), 0, controls))
        assert count_lines(text, "ry") == 4 and count_lines(text, "cx") == 4
        assert count_lines(text, "x") == 0  # no conjugation of open controls

    @pytest.mark.parametrize("num_controls", [3, 4, 5])
    def test_deep_random_polarity_chains(self, num_controls, rng):
        theta = float(rng.uniform(0, 2 * np.pi))
        polarities = [int(rng.integers(2)) for _ in range(num_controls)]
        controls = [(q + 1, pol) for q, pol in enumerate(polarities)]
        assert_export_matches(Circuit(num_controls + 1).append(RY(theta), 0, controls))


def preparation_masses(n):
    frame = make_frame(n)
    full = frame.size - 1
    return [
        *random_bbas(2, n, seed=910 + n, allow_empty=True),
        validate_bba(frame, {full: 1.0}),
        validate_bba(frame, {full >> 1 | 1: 1.0}),
        validate_bba(frame, {0: 1.0}),
        validate_bba(frame, {0: 0.25, full: 0.75}),
    ]


class TestPreparationExport:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_replay_matches_native_circuit(self, n):
        for m in preparation_masses(n):
            tree = build_preparation_tree(m)
            native = circuit_from_json(circuit_json(tree))
            text = circuit_to_qasm(tree)
            assert count_lines(text, "ry") == (1 << n) - 1
            assert count_lines(text, "cx") == (1 << n) - 2
            assert len(text.splitlines()) == 4 + (1 << n) - 1 + (1 << n) - 2
            np.testing.assert_allclose(qasm_replay(text), native.simulate(0).amps, atol=1e-12)

    def test_single_element_certainty_is_one_rotation(self):
        frame = make_frame(1)
        m = validate_bba(frame, {("e0",): 1.0})
        text = circuit_to_qasm(build_preparation_tree(m))
        body = [l for l in text.splitlines()[4:] if l]
        assert len(body) == 1
        assert body[0].startswith("ry(3.14159265358979")

    def test_showcase_text_is_pinned(self, showcase):
        assert circuit_to_qasm(build_preparation_tree(showcase)) == SHOWCASE_QASM


SHOWCASE_QASM = """\
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
ry(1.91063323624902) q[2];
ry(2.10557860963544) q[1];
cx q[2],q[1];
ry(0.194945373386422) q[1];
cx q[2],q[1];
ry(1.78225623439646) q[0];
cx q[1],q[0];
ry(0.312138867996732) q[0];
cx q[2],q[0];
ry(0.573938255795882) q[0];
cx q[1],q[0];
ry(0.473259295400716) q[0];
cx q[2],q[0];
"""


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
