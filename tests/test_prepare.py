import json

import numpy as np
import pytest

from conftest import (
    _count_state_methods,
    circuit_json,
    make_frame,
    random_bbas,
    random_mass_function,
)
from oracles import circuit_from_json
from qbelief.cli import main
from qbelief.documents import dump_bba_document
from qbelief.dst import validate_bba
from qbelief.qsim import new_state
from qbelief.quantum import (
    build_preparation_tree,
    encode_state,
    prepare_bba_state,
    ptm_qc,
)


def exported_circuit(m):
    """The preparation circuit, read back from its circuit JSON."""
    return circuit_from_json(circuit_json(build_preparation_tree(m)))


class TestTreeValues:
    def test_showcase_root_split(self, showcase):
        tree = build_preparation_tree(showcase)
        # root splits on the third element: 1/3 of the mass avoids it
        assert tree.values[1][0] == pytest.approx(1 / 3, abs=1e-12)
        assert tree.values[1][1] == pytest.approx(2 / 3, abs=1e-12)
        assert tree.angles[0][0] == pytest.approx(2 * np.arctan(np.sqrt(2)), abs=1e-9)
        assert tree.angles[0][0] == pytest.approx(1.91063, abs=1e-5)

    def test_parents_sum_children(self, showcase):
        tree = build_preparation_tree(showcase)
        assert tree.values[0][0] == pytest.approx(1.0, abs=1e-12)
        for level in range(3):
            child = tree.values[level + 1]
            np.testing.assert_allclose(
                tree.values[level], child[0::2] + child[1::2], atol=1e-12
            )

    def test_leaves_are_masses_in_index_order(self, showcase):
        tree = build_preparation_tree(showcase)
        np.testing.assert_allclose(tree.values[3], showcase.masses, atol=0)

    def test_certainty_angles_select_single_path(self):
        frame = make_frame(3)
        m = validate_bba(frame, {5: 1.0})
        tree = build_preparation_tree(m)
        # every populated node pins its branch: angles on the path are 0 or pi
        path_angles = [tree.angles[0][0], tree.angles[1][1], tree.angles[2][2]]
        for angle in path_angles:
            assert angle in (0.0, np.pi)

    def test_vacuous_single_element(self):
        frame = make_frame(1)
        m = validate_bba(frame, {("e0",): 1.0})
        tree = build_preparation_tree(m)
        assert tree.angles[0][0] == np.pi  # all mass on the |1> branch


class TestCircuitShape:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_gate_count_is_full_tree(self, n):
        frame = make_frame(n)
        m = validate_bba(frame, {tuple(frame.elements): 1.0})
        circ = exported_circuit(m)
        assert circ.gate_count == (1 << n) - 1
        # level l contributes 2^l rotations with l controls
        by_level = {}
        for op in circ.ops:
            by_level[len(op.controls)] = by_level.get(len(op.controls), 0) + 1
        assert by_level == {l: 1 << l for l in range(n)}

    def test_layer_targets_descend(self, showcase):
        circ = exported_circuit(showcase)
        targets = [op.targets[0] for op in circ.ops]
        assert targets == [2, 1, 1, 0, 0, 0, 0]

    def test_every_gate_is_a_rotation(self, showcase):
        circ = exported_circuit(showcase)
        assert all(op.gate.kind == "ry" for op in circ.ops)


class TestPreparedAmplitudes:
    def test_showcase_amplitudes(self, showcase):
        state = prepare_bba_state(showcase)
        np.testing.assert_allclose(state.amps.imag, 0.0, atol=0)
        np.testing.assert_allclose(
            state.amps.real, np.sqrt(showcase.masses), atol=1e-10
        )

    def test_real_masses_give_real_amplitudes(self, showcase):
        assert prepare_bba_state(showcase).amps.dtype == np.float64
        assert encode_state(showcase).amps.dtype == np.float64

    def test_vacuous_two_elements(self, frame2):
        m = validate_bba(frame2, {("A", "B"): 1.0})
        state = prepare_bba_state(m)
        np.testing.assert_allclose(state.amps, [0, 0, 0, 1], atol=1e-12)

    def test_uniform_bayesian_two_elements(self, frame2):
        m = validate_bba(frame2, {("A",): 0.5, ("B",): 0.5})
        state = prepare_bba_state(m)
        np.testing.assert_allclose(
            state.amps, [0, 1 / np.sqrt(2), 1 / np.sqrt(2), 0], atol=1e-12
        )

    @pytest.mark.parametrize("n", range(1, 7))
    def test_hundred_random_assignments(self, n):
        # +sqrt(mass) exactly, not merely the right squared magnitude
        for m in random_bbas(100 // 6, n, seed=700 + n, allow_empty=True):
            state = prepare_bba_state(m)
            assert np.abs(state.amps.imag).max() == 0.0
            assert state.amps.real.min() >= -1e-12
            np.testing.assert_allclose(state.amps.real, np.sqrt(m.masses), atol=1e-10)

    def test_degenerate_subtrees_still_emit_gates(self, frame3):
        # certainty leaves most of the tree empty; the gate count may not shrink
        m = validate_bba(frame3, {("B",): 1.0})
        circ = exported_circuit(m)
        assert circ.gate_count == 7
        state = circ.simulate(0)
        np.testing.assert_allclose(state.amps.real, np.sqrt(m.masses), atol=1e-12)


def multiplexed_ry_reference(m):
    """|0...0> with each tree level applied as one uniformly controlled RY."""
    tree = build_preparation_tree(m)
    state = new_state(tree.n)
    for target, controls, angles in tree.levels():
        state.apply_multiplexed_ry(angles, target, controls)
    return state


class TestSimulatedEqualsExported:
    @pytest.mark.parametrize("n", range(1, 14))
    def test_prepared_state_is_the_synthesized_circuit_bytewise(self, n):
        # the doubled amplitudes, the tree's levels as multiplexed RYs and the
        # 2^n - 1 exported RYs are one construction, down to the last bit of
        # every amplitude
        frame = make_frame(n)
        rng = np.random.default_rng(1200 + n)
        masses = [
            random_mass_function(frame, rng, allow_empty=True),
            random_mass_function(frame, rng, max_focal=3),  # mostly empty subtrees
            validate_bba(frame, {int(rng.integers(0, 1 << n)): 1.0}),
            validate_bba(frame, {tuple(frame.elements): 1.0}),
            validate_bba(frame, {0: 0.25, tuple(frame.elements): 0.75}),
        ]
        # every focal set holds the top element, so the root's left subtree is
        # empty and its angle is pi, whose cos(pi / 2) = 6.1e-17 is not 0
        top = 1 << (n - 1)
        left_empty = rng.choice(np.arange(top, 1 << n), size=min(top, 5), replace=False)
        weights = rng.exponential(size=left_empty.size)
        masses.append(validate_bba(
            frame, dict(zip(left_empty.tolist(), (weights / weights.sum()).tolist()))))
        assert build_preparation_tree(masses[-1]).angles[0][0] == np.pi
        for m in masses:
            got = prepare_bba_state(m).amps.tobytes()
            circ = exported_circuit(m)
            assert got == circ.run(new_state(n)).amps.tobytes()
            assert got == multiplexed_ry_reference(m).amps.tobytes()


class TestDoubling:
    def test_no_gate_is_applied(self, monkeypatch, capsys, tmp_path):
        calls = _count_state_methods(monkeypatch, ("apply_multiplexed_ry", "apply"))
        (m,) = random_bbas(1, 6, seed=61, allow_empty=True)
        prepare_bba_state(m)
        ptm_qc(m)
        ptm_qc(m, 256, 3)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(dump_bba_document(m)))
        main(["prepare", "--shots", "256", "--seed", "3", str(path)])
        assert json.loads(capsys.readouterr().out)["operation"] == "prepare.sample"
        assert calls == {"apply_multiplexed_ry": 0, "apply": 0}
