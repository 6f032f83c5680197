import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import make_frame, random_bbas, random_mass_function
from oracles import circuit_from_json, dumps_result_oracle, inputs_digest_oracle
import qbelief
from qbelief import cli
from qbelief.cli import main
from qbelief.dst import (
    Frame,
    MassFunction,
    classical_fidelity,
    combine_conjunctive,
    fb_inner_product,
    q_from_mass,
    validate_bba,
)
from qbelief.documents import dump_bba_document, dumps_result


TINY_DOC = '{"frame": ["A"], "masses": [{"focal": ["A"], "mass": 1.0}]}'


def write_doc(tmp_path, m, name):
    path = tmp_path / name
    path.write_text(json.dumps(dump_bba_document(m)))
    return str(path)


@pytest.fixture
def showcase_path(tmp_path, showcase):
    return write_doc(tmp_path, showcase, "showcase.json")


@pytest.fixture
def pair_paths(tmp_path, frame2):
    m1 = validate_bba(frame2, {("A",): 0.5, ("A", "B"): 0.5})
    m2 = validate_bba(frame2, {("B",): 0.5, ("A", "B"): 0.5})
    return write_doc(tmp_path, m1, "m1.json"), write_doc(tmp_path, m2, "m2.json")


def run(capsys, argv):
    code = 0
    try:
        main(argv)
    except SystemExit as exc:
        code = exc.code or 0
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


class TestValidate:
    def test_showcase(self, capsys, showcase_path):
        code, out, _ = run(capsys, ["validate", showcase_path])
        assert code == 0
        assert "valid, 7 focal sets, normal" in out

    def test_vacuous(self, capsys, tmp_path, frame3):
        path = write_doc(tmp_path, validate_bba(frame3, {("A", "B", "C"): 1.0}), "v.json")
        code, out, _ = run(capsys, ["validate", path])
        assert code == 0 and "vacuous" in out

    def test_bad_sum_exits_one_with_diagnostic(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"frame": ["A"], "masses": [{"focal": ["A"], "mass": 0.9}]}))
        code, _, err = run(capsys, ["validate", str(path)])
        assert code == 1
        diag = json.loads(err)
        assert diag["error"] == "MassSumViolation"

    def test_missing_file_exits_three(self, capsys):
        code, _, _ = run(capsys, ["validate", "/no/such/file.json"])
        assert code == 3

    @pytest.mark.parametrize("data, error", [
        (b"\x80abc", "UnicodeDecodeError"),
        (b"\xff\xfe" + TINY_DOC.encode("utf-16-le"), "UnicodeDecodeError"),
        (b"\xef\xbb\xbf" + TINY_DOC.encode(), "JSONDecodeError"),
    ], ids=["stray-byte", "utf-16", "utf-8-bom"])
    def test_document_not_utf8_exits_three(self, capsys, tmp_path, data, error):
        # documents are read as UTF-8 only: no UTF-16 or UTF-32 detection,
        # and a byte-order mark is not JSON
        path = tmp_path / "doc.json"
        path.write_bytes(data)
        code, out, err = run(capsys, ["validate", str(path)])
        assert (code, out) == (3, "")
        assert json.loads(err)["error"] == error

    def test_closed_stdout_exits_three(self, capsys, monkeypatch, showcase_path):
        class ClosedPipe(io.StringIO):
            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        with pytest.raises(SystemExit) as exc:
            main(["validate", showcase_path])
        assert exc.value.code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "BrokenPipeError"

    def test_unparseable_json_exits_three(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, _ = run(capsys, ["validate", str(path)])
        assert code == 3

    def test_empty_frame_is_validation_error(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"frame": [], "masses": []}))
        code, _, _ = run(capsys, ["validate", str(path)])
        assert code == 1

    @pytest.mark.parametrize("doc", [
        pytest.param({"frame": "ab", "masses": [{"focal": ["a"], "mass": 1.0}]}, id="frame-str"),
        pytest.param({"frame": ["a"], "masses": 5}, id="masses-int"),
        pytest.param({"frame": ["a"], "masses": [{"focal": 5, "mass": 1.0}]}, id="focal-int"),
        pytest.param({"frame": ["a"], "masses": [{"focal": ["a"], "mass": "abc"}]}, id="mass-abc"),
        pytest.param({"frame": ["a"], "masses": [{"focal": ["a"], "mass": "1.0"}]}, id="mass-str"),
        pytest.param({"frame": ["a"], "masses": [{"focal": ["a"], "mass": None}]}, id="mass-null"),
        pytest.param({"frame": ["a"], "masses": [{"focal": ["a"], "mass": True}]}, id="mass-true"),
        pytest.param({"frame": ["a"], "masses": [{"focal": ["a"], "mass": 10**400}]},
                     id="mass-huge-int"),
    ])
    def test_malformed_document_is_validation_error(self, capsys, tmp_path, doc):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["validate", str(path)])
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "ValidationError"

    def test_unhashable_label_is_unknown_element(self, capsys, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text(json.dumps({"frame": ["a"], "masses": [{"focal": [["a"]], "mass": 1.0}]}))
        code, _, err = run(capsys, ["validate", str(path)])
        assert code == 1
        assert json.loads(err)["error"] == "UnknownElement"


class TestTransform:
    def test_classical_q_vector(self, capsys, showcase_path):
        doc = run_json(capsys, ["transform", "--kind", "q", showcase_path])
        values = doc["payload"]["values"]
        assert values[6] == pytest.approx(4 / 9, abs=1e-10)  # {B,C}
        assert doc["backend"] == "classical"

    def test_quantum_oracle_is_normalized_with_note(self, capsys, showcase_path):
        doc = run_json(
            capsys,
            ["transform", "--kind", "pl", "--backend", "quantum-oracle", showcase_path],
        )
        assert doc["payload"]["normalized_only"] is True
        v = np.array(doc["payload"]["values"])
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-9)


class TestCombine:
    def test_dempster_worked_pair(self, capsys, pair_paths):
        doc = run_json(capsys, ["combine", "--rule", "dempster", *pair_paths])
        np.testing.assert_allclose(
            doc["payload"]["masses"], [0, 1 / 3, 1 / 3, 1 / 3], atol=1e-9
        )

    def test_total_conflict_exits_two(self, capsys, tmp_path, frame2):
        a = write_doc(tmp_path, validate_bba(frame2, {("A",): 1.0}), "a.json")
        b = write_doc(tmp_path, validate_bba(frame2, {("B",): 1.0}), "b.json")
        code, _, err = run(capsys, ["combine", "--rule", "dempster", a, b])
        assert code == 2
        assert json.loads(err)["error"] == "TotalConflict"

    def test_quantum_ccr_with_vacuous_returns_input(self, capsys, tmp_path, frame2):
        m = validate_bba(frame2, {("A",): 0.25, ("A", "B"): 0.75})
        vac = validate_bba(frame2, {("A", "B"): 1.0})
        p1 = write_doc(tmp_path, m, "m.json")
        p2 = write_doc(tmp_path, vac, "vac.json")
        doc = run_json(
            capsys, ["combine", "--rule", "ccr", "--backend", "quantum-oracle", p1, p2]
        )
        np.testing.assert_allclose(doc["payload"]["masses"], m.masses, atol=1e-8)


class TestSimilarity:
    def test_self_similarity(self, capsys, showcase_path):
        doc = run_json(
            capsys, ["similarity", "--measure", "fb-inner", showcase_path, showcase_path]
        )
        assert doc["payload"]["value"] == pytest.approx(1.0, abs=1e-9)

    def test_jousselme_disjoint_certainties(self, capsys, tmp_path, frame2):
        a = write_doc(tmp_path, validate_bba(frame2, {("A",): 1.0}), "a.json")
        b = write_doc(tmp_path, validate_bba(frame2, {("B",): 1.0}), "b.json")
        doc = run_json(capsys, ["similarity", "--measure", "jousselme", a, b])
        assert doc["payload"]["value"] == pytest.approx(1.0, abs=1e-9)

    def test_jaccard_measures_at_frame_cap(self, capsys, tmp_path):
        # n = 20: the dense Jaccard matrix would take 8 TiB
        frame = make_frame(20)
        full = frame.size - 1
        a = write_doc(tmp_path, validate_bba(frame, {1: 0.5, full: 0.5}), "a.json")
        b = write_doc(tmp_path, validate_bba(frame, {1: 1.0}), "b.json")
        # d = (-1/2, 1/2) on ({e0}, frame), J({e0}, frame) = 1/20
        doc = run_json(capsys, ["similarity", "--measure", "jousselme", a, b])
        assert doc["payload"]["value"] == pytest.approx(np.sqrt(0.5 * 0.475), abs=1e-12)
        doc = run_json(capsys, ["similarity", "--measure", "inner-bba", a, b])
        assert doc["payload"]["value"] == pytest.approx(0.5 + 0.5 / 20, abs=1e-12)

    def test_jousselme_has_no_quantum_backend(self, capsys, pair_paths):
        code, _, err = run(
            capsys,
            ["similarity", "--measure", "jousselme", "--backend", "quantum-oracle", *pair_paths],
        )
        assert code == 1

    def test_fidelity_quantum_matches_classical(self, capsys, pair_paths):
        classical = run_json(capsys, ["similarity", "--measure", "fidelity", *pair_paths])
        quantum = run_json(
            capsys,
            ["similarity", "--measure", "fidelity", "--backend", "quantum-oracle", *pair_paths],
        )
        assert quantum["payload"]["value"] == pytest.approx(
            classical["payload"]["value"], abs=1e-8
        )

    @pytest.mark.parametrize("backend", ["quantum-oracle", "quantum-circuit"])
    @pytest.mark.parametrize("other", [("C", "D"), ("C", "D", "E")], ids=["same-size", "larger"])
    def test_quantum_fidelity_refuses_another_frame(self, capsys, tmp_path, frame2, backend, other):
        # equal masses on equal indices: without the frame check the swap
        # test read 1.0 for the same-size frame
        a = write_doc(tmp_path, validate_bba(frame2, {("A",): 0.5, ("B",): 0.5}), "a.json")
        b = write_doc(tmp_path, validate_bba(Frame(other), {("C",): 0.5, ("D",): 0.5}), "b.json")
        for backend_args in (["--backend", backend], []):  # classical agrees
            code, out, err = run(
                capsys, ["similarity", "--measure", "fidelity", *backend_args, a, b])
            assert (code, out) == (1, "")
            assert json.loads(err)["error"] == "FrameMismatch"


class TestEntropyAndProb:
    def test_vacuous_entropies(self, capsys, tmp_path, frame2):
        path = write_doc(tmp_path, validate_bba(frame2, {("A", "B"): 1.0}), "v.json")
        js = run_json(capsys, ["entropy", "--kind", "js", path])
        fb = run_json(capsys, ["entropy", "--kind", "fb", path])
        assert js["payload"]["bits"] == pytest.approx(2.0, abs=1e-9)
        assert fb["payload"]["bits"] == pytest.approx(np.log2(3), abs=1e-9)

    def test_ppt_and_ptm(self, capsys, showcase_path):
        ppt = run_json(capsys, ["prob", "--method", "ppt", showcase_path])
        np.testing.assert_allclose(
            ppt["payload"]["probabilities"], np.array([23, 44, 41]) / 108, atol=1e-9
        )
        ptm = run_json(
            capsys, ["prob", "--method", "ptm", "--backend", "quantum-oracle", showcase_path]
        )
        np.testing.assert_allclose(
            ptm["payload"]["probabilities"], np.array([8, 13, 12]) / 33, atol=1e-9
        )


    # nothing samples unless ptm runs on a quantum backend
    @pytest.mark.parametrize("method, backend", [
        ("ppt", "classical"),
        ("ppt", "quantum-oracle"),
        ("ppt", "quantum-circuit"),
        ("ptm", "classical"),
    ])
    def test_shots_refused_where_nothing_samples(self, capsys, showcase_path, method, backend):
        code, out, err = run(capsys, ["prob", "--method", method, "--backend", backend,
                                      "--shots", "5", showcase_path])
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "ValidationError"


class TestPrepare:
    def test_qasm_emission(self, capsys, tmp_path, frame2):
        path = write_doc(tmp_path, validate_bba(frame2, {("A",): 1.0}), "cert.json")
        code, out, _ = run(capsys, ["prepare", path, "--emit", "qasm"])
        assert code == 0
        assert out.startswith('OPENQASM 2.0;\ninclude "qelib1.inc";')

    def test_qasm_emission_at_ten_elements(self, capsys, tmp_path):
        # ten elements need nine controls on the last tree level
        (m,) = random_bbas(1, 10, seed=77, allow_empty=True)
        code, out, err = run(capsys, ["prepare", write_doc(tmp_path, m, "m.json"),
                                      "--emit", "qasm"])
        assert code == 0, err
        body = out.splitlines()[4:]
        assert sum(line.startswith("ry(") for line in body) == 1023
        assert sum(line.startswith("cx ") for line in body) == 1022

    def test_circuit_json_round_trip(self, capsys, showcase_path, showcase):
        code, out, _ = run(capsys, ["prepare", showcase_path, "--emit", "circuit-json"])
        assert code == 0
        circ = circuit_from_json(out)
        np.testing.assert_allclose(
            circ.simulate(0).amps.real, np.sqrt(showcase.masses), atol=1e-10
        )

    def test_sampled_counts(self, capsys, showcase_path):
        doc = run_json(capsys, ["prepare", showcase_path, "--shots", "1024", "--seed", "7"])
        counts = doc["payload"]["counts"]
        assert sum(counts.values()) == 1024
        assert len(counts) == 7  # no mass on the empty set

    def test_shots_without_seed_rejected(self, capsys, showcase_path):
        code, _, err = run(capsys, ["prepare", showcase_path, "--shots", "8"])
        assert code == 1

    def test_emit_and_sample_together(self, capsys, tmp_path, showcase_path):
        qasm_path = tmp_path / "c.qasm"
        code, out, _ = run(
            capsys,
            ["prepare", showcase_path, "--emit", "qasm", "--out", str(qasm_path),
             "--shots", "64", "--seed", "3"],
        )
        assert code == 0
        assert qasm_path.read_text().startswith("OPENQASM 2.0;")
        doc = json.loads(out)
        assert sum(doc["payload"]["counts"].values()) == 64

    def test_emit_and_sample_without_out_rejected(self, capsys, showcase_path):
        code, _, _ = run(
            capsys,
            ["prepare", showcase_path, "--emit", "qasm", "--shots", "64", "--seed", "3"],
        )
        assert code == 1

    @pytest.mark.parametrize("emit", ["qasm", "circuit-json"])
    def test_qasm_is_written_from_the_tree(self, capsys, monkeypatch, showcase_path, emit):
        # both exports print the tree's levels: no circuit, op or gate is built
        from qbelief.qsim.circuit import Circuit, CircuitOp
        from qbelief.qsim.gates import Gate

        built = []
        for cls in (Circuit, CircuitOp, Gate):
            def counted(self, *args, _init=cls.__init__, **kwargs):
                built.append(type(self).__name__)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        code, _, err = run(capsys, ["prepare", showcase_path, "--emit", emit])
        assert code == 0, err
        assert built == []
        Circuit(1).append(Gate("x"), 0)  # the count sees a construction
        assert built == ["Circuit", "Gate", "CircuitOp"]


class TestWrite:
    def test_file_write_holds_no_copy_of_the_text(self, tmp_path):
        text = "0123456789abcdef" * (1 << 21)  # 32 MiB of ASCII
        path = tmp_path / "big.txt"
        tracemalloc.start()
        try:
            cli._write(text, str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < len(text) // 8
        assert path.read_text(encoding="utf-8") == text

    def test_slices_keep_the_bytes(self, capsys, tmp_path):
        # multi-byte characters on both sides of every slice boundary
        text = "é€x\n" * (3 * cli._SLICE // 4 + 1)
        path = tmp_path / "out.txt"
        cli._write(text, str(path))
        assert path.read_bytes() == text.encode("utf-8")
        cli._write(text, None)
        assert capsys.readouterr().out == text
        cli._write("", str(path))
        assert path.read_bytes() == b""


class TestDeterminism:
    def test_byte_identical_repeats(self, capsys, showcase_path):
        _, out1, _ = run(capsys, ["prepare", showcase_path, "--shots", "256", "--seed", "5"])
        _, out2, _ = run(capsys, ["prepare", showcase_path, "--shots", "256", "--seed", "5"])
        assert out1 == out2
        _, out3, _ = run(capsys, ["prob", "--method", "ptm", showcase_path])
        _, out4, _ = run(capsys, ["prob", "--method", "ptm", showcase_path])
        assert out3 == out4


# labels that need JSON escapes: a quote, a backslash, a non-ASCII letter, a control character
ESCAPED = ['q"uote', "back\\slash", "\u00e9", "bell\x07"]


def escaped_doc(tmp_path, n, seed, name):
    frame = Frame(ESCAPED[:n] + [f"e{i}" for i in range(len(ESCAPED), n)])
    m = random_mass_function(frame, np.random.default_rng(seed), allow_empty=True)
    return write_doc(tmp_path, m, name), frame


class TestDenseDocuments:
    """Dense outputs are written exactly as ``json.dumps(indent=2,
    sort_keys=True)`` writes the document they decode to, with every
    subset labelled as ``Frame.format_subset`` labels it."""

    @pytest.mark.parametrize("argv, count, n", [
        (["transform", "--kind", "pl"], 1, 1),
        (["transform", "--kind", "q"], 1, 9),
        (["transform", "--kind", "fbba"], 1, 6),
        (["transform", "--kind", "betm"], 1, 5),
        (["transform", "--kind", "bel", "--backend", "quantum-oracle"], 1, 3),
        (["combine", "--rule", "ccr"], 2, 9),
        (["combine", "--rule", "dcr"], 2, 2),
        (["combine", "--rule", "ccr", "--backend", "quantum-oracle"], 2, 3),
        (["prob", "--method", "ppt"], 1, 5),
    ])
    def test_layout_and_labels(self, capsys, tmp_path, argv, count, n):
        paths = []
        for i in range(count):
            path, frame = escaped_doc(tmp_path, n, 10 * n + i, f"in{i}.json")
            paths.append(path)
        code, out, err = run(capsys, argv + paths)
        assert code == 0, err
        doc = json.loads(out)
        assert out == dumps_result_oracle(doc)
        if "subsets" in doc["payload"]:
            assert doc["payload"]["subsets"] == [frame.format_subset(i) for i in range(frame.size)]

    def test_sampled_counts_labels(self, capsys, tmp_path):
        path, frame = escaped_doc(tmp_path, 5, 3, "m.json")
        code, out, err = run(capsys, ["prepare", path, "--shots", "4096", "--seed", "2"])
        assert code == 0, err
        doc = json.loads(out)
        assert out == dumps_result_oracle(doc)
        labels = {frame.format_subset(i) for i in range(frame.size)}
        assert set(doc["payload"]["counts"]) <= labels
        assert list(doc["payload"]["counts"]) == list(doc["payload"]["frequencies"])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_vector_refused_before_writing(self, capsys, monkeypatch, tmp_path,
                                                      showcase_path, bad):
        from types import SimpleNamespace

        import qbelief.dst

        values = np.full(8, 0.125)
        values[3] = bad
        monkeypatch.setattr(qbelief.dst, "pl_from_mass", lambda m: SimpleNamespace(values=values))
        out_path = tmp_path / "out.json"
        code, out, err = run(capsys, ["transform", "--kind", "pl", "--out", str(out_path),
                                      showcase_path])
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "ValidationError",
                                   "message": "payload contains a non-finite value"}
        assert not out_path.exists()


class TestSeedRefusal:
    @pytest.mark.parametrize("argv, seed", [
        (["prepare", "--shots", "16", "--seed", "-1"], -1),
        (["prob", "--method", "ptm", "--backend", "quantum-oracle", "--shots", "16",
          "--seed", "-3"], -3),
        (["demo", "--seed", "-1"], -1),
    ])
    def test_negative_seed_exits_one(self, capsys, showcase_path, argv, seed):
        paths = [] if argv[0] == "demo" else [showcase_path]
        code, out, err = run(capsys, argv + paths)
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "ValidationError",
                                   "message": f"seed must be non-negative, not {seed}"}


# every command that answers with a result document: (argv before the
# input paths, number of inputs, the inputs the digest covers around them)
RESULT_COMMANDS = [
    pytest.param(["transform", "--kind", "q", "--backend", "quantum-oracle"], 1,
                 ("transform", "q", "quantum-oracle"), (), id="transform"),
    pytest.param(["combine", "--rule", "dempster"], 2,
                 ("combine", "dempster", "classical"), (), id="combine"),
    pytest.param(["similarity", "--measure", "fidelity", "--backend", "quantum-circuit"], 2,
                 ("similarity", "fidelity", "quantum-circuit"), (), id="similarity"),
    pytest.param(["entropy", "--kind", "fb"], 1, ("entropy", "fb"), (), id="entropy"),
    pytest.param(["prob", "--method", "ptm", "--backend", "quantum-circuit"], 1,
                 ("prob", "ptm", "quantum-circuit"), (None, None), id="prob"),
    pytest.param(["prob", "--method", "ppt", "--seed", "4"], 1,
                 ("prob", "ppt", "classical"), (None, 4), id="prob-seed"),
    pytest.param(["prob", "--method", "ptm", "--backend", "quantum-oracle",
                  "--shots", "64", "--seed", "5"], 1,
                 ("prob", "ptm", "quantum-oracle"), (64, 5), id="prob-shots"),
    pytest.param(["prepare", "--shots", "128", "--seed", "9"], 1,
                 ("prepare",), (128, 9), id="prepare"),
]


class TestResultTail:
    @pytest.fixture
    def inputs(self, tmp_path, showcase):
        other = validate_bba(showcase.frame, {("A",): 0.3, ("B", "C"): 0.5, ("A", "B", "C"): 0.2})
        return [(write_doc(tmp_path, m, f"in{i}.json"), m) for i, m in enumerate([showcase, other])]

    @pytest.mark.parametrize("argv, count, head, tail", RESULT_COMMANDS)
    def test_digest_matches_the_long_composition(self, capsys, inputs, argv, count, head, tail):
        paths, ms = zip(*inputs[:count])
        doc = run_json(capsys, argv + list(paths))
        assert doc["inputs_digest"] == inputs_digest_oracle(*head, *ms, *tail)

    @pytest.mark.parametrize("argv, count, head, tail", RESULT_COMMANDS)
    def test_timing_adds_only_wall_time(self, capsys, inputs, argv, count, head, tail):
        paths = [p for p, _ in inputs[:count]]
        code, plain, err = run(capsys, argv + paths)
        assert code == 0, err
        timed = run_json(capsys, argv + ["--timing"] + paths)
        wall = timed.pop("wall_time_s")
        assert isinstance(wall, float) and np.isfinite(wall) and wall >= 0.0
        assert dumps_result(timed).encode() == plain.encode()
        assert "wall_time_s" not in json.loads(plain)


class TestTrend:
    def test_csv_shape(self, capsys, tmp_path):
        out_path = tmp_path / "trend.csv"
        code, _, _ = run(capsys, ["trend-fb", "--out", str(out_path)])
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 11
        header = lines[0].split(",")
        assert header == [
            "focal_set",
            "one_minus_jousselme",
            "fb_inner",
            "fidelity",
            "one_minus_euclidean",
            "inner_bba",
        ]
        values = np.array([[float(x) for x in line.split(",")[1:]] for line in lines[1:]])
        assert values.shape == (10, 5)
        assert ((values >= 0) & (values <= 1)).all()
        assert int(np.argmax(values[:, 1])) == 4


class TestBackendAgreement:
    def test_quantum_oracle_matches_classical_on_random_fixtures(self, capsys, tmp_path):
        rng_groups = [random_bbas(10, n, seed=990 + n) for n in (2, 3)]
        fixtures = [m for group in rng_groups for m in group]
        paths = [write_doc(tmp_path, m, f"f{i}.json") for i, m in enumerate(fixtures)]

        for i, (m, path) in enumerate(zip(fixtures, paths)):
            # probability transforms agree exactly
            classical = run_json(capsys, ["prob", "--method", "ppt", path])
            oracle = run_json(
                capsys, ["prob", "--method", "ppt", "--backend", "quantum-oracle", path]
            )
            np.testing.assert_allclose(
                oracle["payload"]["probabilities"],
                classical["payload"]["probabilities"],
                atol=1e-8,
            )
            # combination with a partner fixture
            partner = paths[(i + 1) % len(paths)]
            if json.loads(open(path).read())["frame"] == json.loads(open(partner).read())["frame"]:
                classical = run_json(capsys, ["combine", "--rule", "ccr", path, partner])
                oracle = run_json(
                    capsys,
                    ["combine", "--rule", "ccr", "--backend", "quantum-oracle", path, partner],
                )
                np.testing.assert_allclose(
                    oracle["payload"]["masses"], classical["payload"]["masses"], atol=1e-8
                )
            # normalized transform vectors agree in direction
            classical = run_json(capsys, ["transform", "--kind", "q", path])
            oracle = run_json(
                capsys, ["transform", "--kind", "q", "--backend", "quantum-oracle", path]
            )
            cv = np.array(classical["payload"]["values"])
            np.testing.assert_allclose(
                oracle["payload"]["values"], cv / np.linalg.norm(cv), atol=1e-8
            )


class TestDemo:
    def test_report_contents(self, capsys):
        code, out, _ = run(capsys, ["demo", "--shots", "1024", "--seed", "7"])
        assert code == 0
        assert "Pl(C) = 0.666667" in out
        assert "q(BC) = 0.444444" in out
        assert "{B,C}" in out


# (argv, tokens stderr must name); DOC stands for a valid document and DIR
# for a directory
USAGE_ERRORS = [
    pytest.param([], ["COMMAND"], id="no-arguments"),
    pytest.param(["bogus"], ["bogus"], id="unknown-command"),
    pytest.param(["entropy", "--kind", "js", "--verbose", "DOC"],
                 ["usage: qbelief entropy", "--verbose"], id="unknown-option"),
    pytest.param(["transform", "--kind", "q", "--back", "classical", "DOC"],
                 ["usage: qbelief transform", "--back"], id="abbreviated-option"),
    pytest.param(["entropy", "--kind", "js", "--tim", "DOC"], ["usage: qbelief entropy", "--tim"],
                 id="abbreviated-flag"),
    pytest.param(["--bogus", "entropy", "--kind", "js", "DOC"],
                 ["usage: qbelief [--help] COMMAND", "--bogus"], id="option-before-command"),
    pytest.param(["entropy", "--kind", "nope", "DOC"], ["--kind", "nope"], id="bad-kind"),
    pytest.param(["combine", "--rule", "nope", "DOC", "DOC"], ["--rule", "nope"],
                 id="bad-rule"),
    pytest.param(["similarity", "--measure", "nope", "DOC", "DOC"], ["--measure", "nope"],
                 id="bad-measure"),
    pytest.param(["prob", "--method", "nope", "DOC"], ["--method", "nope"], id="bad-method"),
    pytest.param(["prepare", "--emit", "nope", "DOC"], ["--emit", "nope"], id="bad-emit"),
    pytest.param(["transform", "--kind", "q", "--backend", "nope", "DOC"],
                 ["--backend", "nope"], id="bad-backend"),
    pytest.param(["combine", "DOC", "DOC"], ["--rule"], id="missing-option"),
    pytest.param(["entropy", "--kind", "js"], ["PATH"], id="missing-path"),
    pytest.param(["prob", "--method", "ptm", "--shots", "many", "DOC"], ["--shots", "many"],
                 id="non-integer-shots"),
    pytest.param(["demo", "--seed", "seven"], ["--seed", "seven"], id="non-integer-seed"),
    pytest.param(["validate", "DIR"], ["DIR"], id="directory-path"),
    pytest.param(["entropy", "--kind", "js", "--out", "DIR", "DOC"], ["--out", "DIR"],
                 id="directory-out"),
]

BACKEND_HELP = ["--backend", "classical", "quantum-oracle", "quantum-circuit",
                "default: classical"]
RESULT_HELP = ["--out", "--timing", "Attach wall time (breaks byte-identity)."]

# (argv, tokens stdout must name): the first line of the command's docstring
# and every option, choice, default and help text of the command
HELP_PAGES = [
    pytest.param([], ["Belief-function computation on simulated quantum circuits.", "validate",
                      "transform", "combine", "similarity", "entropy", "prob", "prepare", "demo",
                      "trend-fb"], id="top-level"),
    pytest.param(["validate"], ["Check a mass-function document and report its shape.", "PATH"],
                 id="validate"),
    pytest.param(["transform"], ["Belief-function transform of one mass function.", "--kind",
                                 "bel", "pl", "q", "fbba", "betm", *BACKEND_HELP, *RESULT_HELP,
                                 "PATH"], id="transform"),
    pytest.param(["combine"], ["Combine two mass functions; quantum Dempster is quantum",
                               "--rule", "ccr", "dcr", "dempster", *BACKEND_HELP, *RESULT_HELP,
                               "PATH1", "PATH2"], id="combine"),
    pytest.param(["similarity"], ["Similarity or distance between two mass functions.",
                                  "--measure", "jousselme", "fb-inner", "fidelity", "euclidean",
                                  "inner-bba", *BACKEND_HELP, *RESULT_HELP, "PATH1", "PATH2"],
                 id="similarity"),
    pytest.param(["entropy"], ["Total-uncertainty measure of a mass function, in bits.",
                               "--kind", "js", "fb", *RESULT_HELP, "PATH"], id="entropy"),
    pytest.param(["prob"], ["Probability transform of a mass function over the frame elements.",
                            "--method", "ppt", "ptm", *BACKEND_HELP, "--shots",
                            "Sample PTM extraction circuits.", "--seed", *RESULT_HELP, "PATH"],
                 id="prob"),
    pytest.param(["prepare"], ["Synthesize the state-preparation circuit for a mass function.",
                               "--emit", "qasm", "circuit-json", "--shots", "--seed",
                               *RESULT_HELP, "PATH"], id="prepare"),
    pytest.param(["demo"], ["Three-element walkthrough: prepare, extract, sample, compare.",
                            "--shots", "default: 1024", "--seed", "default: 7"], id="demo"),
    pytest.param(["trend-fb"], ["Similarity trend over a growing focal set, as CSV.", "--out"],
                 id="trend-fb"),
]


class TestUsage:
    @pytest.mark.parametrize("argv, tokens", USAGE_ERRORS)
    def test_usage_error_exits_one(self, capsys, tmp_path, showcase_path, argv, tokens):
        names = {"DOC": showcase_path, "DIR": str(tmp_path / "folder")}
        (tmp_path / "folder").mkdir()
        code, out, err = run(capsys, [names.get(a, a) for a in argv])
        assert (code, out) == (1, "")
        for token in tokens:
            # the whole token: "--back" inside "--backend" does not count
            assert re.search(rf"(?<![\w-]){re.escape(names.get(token, token))}(?![\w-])", err)

    @pytest.mark.parametrize("argv", [
        ["entropy", "DOC", "--kind", "js"],
        ["entropy", "--kind=js", "DOC"],
        ["entropy", "--kind", "js", "--", "DOC"],
        ["entropy", "--kind", "fb", "--kind", "js", "DOC"],
    ], ids=["option-after-path", "equals-form", "double-dash", "last-repeat-wins"])
    def test_argument_forms_are_accepted(self, capsys, showcase_path, argv):
        expected = run(capsys, ["entropy", "--kind", "js", showcase_path])
        assert expected[0] == 0
        assert run(capsys, [showcase_path if a == "DOC" else a for a in argv]) == expected

    @pytest.mark.parametrize("argv, tokens", HELP_PAGES)
    def test_help_exits_zero(self, capsys, argv, tokens):
        code, out, err = run(capsys, argv + ["--help"])
        assert (code, err) == (0, "")
        words = " ".join(out.split())
        for token in tokens:
            assert token in words


def _modules_loaded_with_cli(package):
    """Modules of ``package`` that ``import qbelief.cli`` loads in a fresh
    interpreter, as the printed sorted list."""
    src = str(Path(qbelief.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, qbelief.cli\n"
        f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return done.stdout.strip()


def test_cli_import_loads_no_scipy():
    assert _modules_loaded_with_cli("scipy") == "[]"


def test_cli_import_loads_no_numpy_fft():
    # the circuit clock filter's coefficients take one FFT on first use,
    # not at import
    loaded = _modules_loaded_with_cli("numpy")
    assert "'numpy.linalg" in loaded
    assert "'numpy.fft" not in loaded


def test_cli_import_loads_no_click():
    assert _modules_loaded_with_cli("click") == "[]"


def test_cli_import_loads_only_program_modules():
    # a module added to the import graph is added to this list on purpose
    modules = [
        "qbelief", "qbelief.cli", "qbelief.documents", "qbelief.errors", "qbelief.qasm",
        "qbelief.dst", "qbelief.dst.combine", "qbelief.dst.entropy", "qbelief.dst.frame",
        "qbelief.dst.mass", "qbelief.dst.matrices", "qbelief.dst.operators",
        "qbelief.dst.probability", "qbelief.dst.similarity", "qbelief.dst.transforms",
        "qbelief.qsim", "qbelief.qsim.circuit", "qbelief.qsim.gates", "qbelief.qsim.state",
        "qbelief.quantum", "qbelief.quantum.meob", "qbelief.quantum.pipelines",
        "qbelief.quantum.prepare", "qbelief.quantum.query", "qbelief.quantum.swap",
    ]
    assert _modules_loaded_with_cli("qbelief") == str(sorted(modules))


def _run_under_3gib(argv):
    """``qbelief`` on ``argv`` in a fresh process with a 3 GiB address space."""
    src = str(Path(qbelief.__file__).resolve().parents[1])
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
        "from qbelief.cli import main\n"
        "main(sys.argv[1:])\n"
    )
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])), "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("n", [12, 14])
def test_dense_allocation_refused_before_it_is_made(tmp_path, n):
    # an n = 14 transform matrix takes 2 GiB; under a 3 GiB address-space
    # limit a missing budget check dies of MemoryError instead of exit 2.
    # The circuit backend evolves the dense matrix; the oracle needs none.
    # At n = 12 the matrix fits the budget, but not with the two factors
    # of its decomposition, so the circuit backend stops at n = 11.
    (m,) = random_bbas(1, n, seed=n)
    path = write_doc(tmp_path, m, f"n{n}.json")
    done = _run_under_3gib(["transform", "--kind", "q", "--backend", "quantum-circuit", path])
    assert (done.returncode, done.stdout) == (2, ""), done.stderr
    assert json.loads(done.stderr)["error"] == "DenseBudgetExceeded"


def test_circuit_json_written_at_the_frame_cap(tmp_path):
    # at n = 20 the text of the 2^20 - 1 ops is 1.0 GB, a third of the
    # address-space limit: the export writes it a block at a time, so it
    # needs no more memory than a small document
    frame = make_frame(20)
    m = random_mass_function(frame, np.random.default_rng(20), max_focal=64)
    path = write_doc(tmp_path, m, "n20.json")
    done = _run_under_3gib(["prepare", "--emit", "circuit-json", "--out", os.devnull, path])
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")


def _overlapping_pair(tmp_path, n):
    """Two n-element documents on the same focal sets (at most 40) with
    independent masses, so that their fidelity is far from 0."""
    frame = make_frame(n)
    rng = np.random.default_rng(n)
    m1 = random_mass_function(frame, rng, max_focal=40)
    weights = np.zeros(frame.size)
    weights[m1.focal] = rng.exponential(size=m1.focal.size)
    m2 = MassFunction(frame, weights / weights.sum())
    return m1, m2, [write_doc(tmp_path, m, f"n{n}-{i}.json") for i, m in enumerate((m1, m2))]


@pytest.mark.parametrize("measure, n", [("fidelity", 13), ("fb-inner", 13), ("fidelity", 20)])
def test_swap_test_runs_past_the_register_budget(tmp_path, measure, n):
    # two n = 13 states would make a 27-qubit register, 2 GiB of amplitudes;
    # the closed-form read needs only the two 2^n vectors
    m1, m2, paths = _overlapping_pair(tmp_path, n)
    done = _run_under_3gib(
        ["similarity", "--measure", measure, "--backend", "quantum-oracle", *paths])
    assert done.returncode == 0, done.stderr
    classical = {"fidelity": classical_fidelity, "fb-inner": fb_inner_product}[measure]
    value = json.loads(done.stdout)["payload"]["value"]
    assert value == pytest.approx(classical(m1, m2), abs=1e-12)
    assert value > 0.1


def test_circuit_fb_inner_refused_by_its_evolution(tmp_path):
    # the swap test no longer refuses anything: the circuit backend's
    # evolution chain stops fb-inner at n = 13, before either state exists
    *_, paths = _overlapping_pair(tmp_path, 13)
    done = _run_under_3gib(
        ["similarity", "--measure", "fb-inner", "--backend", "quantum-circuit", *paths])
    assert (done.returncode, done.stdout) == (2, ""), done.stderr
    error = json.loads(done.stderr)
    assert error["error"] == "DenseBudgetExceeded"
    assert "the circuit evolution of a 8192x8192 matrix" in error["message"]


@pytest.mark.parametrize("argv, sha256", [
    (["transform", "--kind", "q", "--backend", "quantum-oracle"],
     "aa96216df0ca6960b77e918cdac254fb6c9a7303efa32f4dff075e550b23eff5"),
    (["combine", "--rule", "ccr", "--backend", "quantum-oracle"],
     "7faaca99d12e4d27bfbfe5dfe458e3dd249f27b550cd21f300cc9bb1d34ce4ba"),
    (["transform", "--kind", "q", "--backend", "classical"],
     "0b6fb57c1dfe0393f24cf4f5130a42093b27ccd90b730a228992896347e103f9"),
], ids=["transform-q", "combine-ccr", "classical-transform-q"])
def test_oracle_chains_run_at_the_frame_cap(tmp_path, argv, sha256):
    # under the same limit the oracle backend applies each stage by its
    # action, with no 2^20 x 2^20 matrix.  The digest pins each dense
    # document, its 2^20 subset labels and values, byte for byte; but the
    # oracle scales its state by a BLAS norm, whose last bits vary with the
    # BLAS kernel and thread count, so an oracle document is pinned without
    # its values, which are held to the classical result instead
    frame = make_frame(20)
    rng = np.random.default_rng(20)
    ms = [random_mass_function(frame, rng, max_focal=64)
          for _ in range(2 if argv[0] == "combine" else 1)]
    paths = [write_doc(tmp_path, m, f"n20-{i}.json") for i, m in enumerate(ms)]
    out = tmp_path / "out.json"
    done = _run_under_3gib([*argv, "--out", str(out), *paths])
    assert done.returncode == 0, done.stderr
    raw = out.read_bytes()
    key = "values" if argv[0] == "transform" else "masses"
    if argv[-1] == "quantum-oracle":
        start = raw.index(f'"{key}": ['.encode())
        raw = raw[:start] + raw[raw.index(b"]", start):]
    assert hashlib.sha256(raw).hexdigest() == sha256
    payload = json.loads(out.read_text())["payload"]
    assert len(payload["subsets"]) == 1 << 20
    if argv[0] == "transform":
        expected = q_from_mass(ms[0]).values
        if argv[-1] == "quantum-oracle":
            expected = expected / np.linalg.norm(expected)
    else:
        expected = combine_conjunctive(*ms).masses
    assert np.array(payload[key]) == pytest.approx(expected, abs=1e-12)


def test_prepare_shots_pinned_at_the_frame_cap(capsys, tmp_path):
    # n = 20 with 64 focal sets, a size no benchmark workload prepares: the
    # digest pins the samples of the 2^20-amplitude state, byte for byte
    m = random_mass_function(make_frame(20), np.random.default_rng(20), max_focal=64)
    assert m.focal.size == 64
    code, out, err = run(capsys, ["prepare", "--shots", "4096", "--seed", "3",
                                  write_doc(tmp_path, m, "n20.json")])
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a558e483c2e9a4c9f707f0c7a30e4b9d68d7f70e3ceb8576c94c675c3bc1e200")
