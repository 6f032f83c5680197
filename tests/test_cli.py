import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import make_frame, random_bbas
from oracles import inputs_digest_oracle
import qbelief
from qbelief.cli import main
from qbelief.dst import validate_bba
from qbelief.documents import dump_bba_document, dumps_result


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
        from qbelief.qasm import circuit_from_json

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


class TestDeterminism:
    def test_byte_identical_repeats(self, capsys, showcase_path):
        _, out1, _ = run(capsys, ["prepare", showcase_path, "--shots", "256", "--seed", "5"])
        _, out2, _ = run(capsys, ["prepare", showcase_path, "--shots", "256", "--seed", "5"])
        assert out1 == out2
        _, out3, _ = run(capsys, ["prob", "--method", "ptm", showcase_path])
        _, out4, _ = run(capsys, ["prob", "--method", "ptm", showcase_path])
        assert out3 == out4


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


def test_cli_import_loads_no_scipy():
    src = str(Path(qbelief.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, qbelief.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert done.stdout.strip() == "[]"
