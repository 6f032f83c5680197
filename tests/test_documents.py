import json
import tracemalloc

import numpy as np
import pytest

from conftest import circuit_json, make_frame, random_bbas, random_mass_function
from oracles import (
    circuit_from_json,
    dump_bba_oracle,
    dumps_result_oracle,
    inputs_digest_oracle,
    preparation_json_oracle,
    round_payload_oracle,
)
from qbelief.documents import (
    RESULT_SCHEMA,
    dense_subset_labels,
    dump_bba_document,
    dumps_result,
    inputs_digest,
    parse_bba_document,
    result_document,
    subset_labels,
)
from qbelief.dst import (
    Frame,
    MassFunction,
    combine_conjunctive,
    pl_from_mass,
    validate_bba,
)
from qbelief.errors import (
    DuplicateFocalSet,
    MassSumViolation,
    NegativeMass,
    UnknownElement,
    ValidationError,
)
from qbelief.qasm import circuit_to_qasm, preparation_to_json
from qbelief.quantum import build_preparation_tree, prepare_bba_state


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


F = ["A", "B", "C"]
UNKNOWN_D = "'D' is not an element of ('A', 'B', 'C')"
FOCAL_TYPE = '"focal" must be a list of labels or one label, not '
MASS_TYPE = '"mass" must be a real number, not '
HUGE = f'"mass" {10**400} is not a finite real'
HUGE_NEG = f'"mass" {-(10**400)} is not a finite real'


def e(focal, mass) -> dict:
    return {"focal": focal, "mass": mass}


# One document per fault, and documents with two faults, each with the
# exception class and message that the parser reported before its entry
# loop and mass checks were merged (pinned from that code).
FAULTS = [
    pytest.param(["A"],
                 ValidationError, 'document must have "frame" and "masses" keys', id="not-a-dict"),
    pytest.param(None, ValidationError, 'document must have "frame" and "masses" keys', id="none"),
    pytest.param({"masses": []},
                 ValidationError, 'document must have "frame" and "masses" keys', id="no-frame"),
    pytest.param({"frame": F},
                 ValidationError, 'document must have "frame" and "masses" keys', id="no-masses"),
    pytest.param({"frame": "ABC", "masses": []},
                 ValidationError, '"frame" and "masses" must be lists', id="frame-str"),
    pytest.param({"frame": F, "masses": {"focal": ["A"], "mass": 1.0}},
                 ValidationError, '"frame" and "masses" must be lists', id="masses-dict"),
    pytest.param({"frame": [], "masses": []},
                 ValidationError, 'frame needs at least one element', id="empty-frame"),
    pytest.param({"frame": ["A", "A"], "masses": []},
                 ValidationError, 'element labels must be unique', id="frame-dup-label"),
    pytest.param({"frame": ["A", 1], "masses": []},
                 ValidationError, 'element labels must be non-empty strings',
                 id="frame-int-label"),
    pytest.param({"frame": [f"e{i}" for i in range(21)], "masses": []},
                 ValidationError, 'frame of 21 elements exceeds the dense-storage cap of 20',
                 id="frame-too-big"),
    pytest.param({"frame": F, "masses": [["A"], 1.0]},
                 ValidationError, 'each mass entry needs "focal" and "mass"', id="entry-list"),
    pytest.param({"frame": F, "masses": ["focal"]},
                 ValidationError, 'each mass entry needs "focal" and "mass"', id="entry-str"),
    pytest.param({"frame": F, "masses": [{"focal": ["A"]}]},
                 ValidationError, 'each mass entry needs "focal" and "mass"', id="entry-no-mass"),
    pytest.param({"frame": F, "masses": [{"mass": 1.0}]},
                 ValidationError, 'each mass entry needs "focal" and "mass"', id="entry-no-focal"),
    pytest.param({"frame": F, "masses": [e(5, 1.0)]},
                 ValidationError, FOCAL_TYPE + '5', id="focal-int"),
    pytest.param({"frame": F, "masses": [e(None, 1.0)]},
                 ValidationError, FOCAL_TYPE + 'None', id="focal-none"),
    pytest.param({"frame": F, "masses": [e({"A": 1}, 1.0)]},
                 ValidationError, FOCAL_TYPE + "{'A': 1}", id="focal-dict"),
    pytest.param({"frame": F, "masses": [e(["A", "D"], 1.0)]},
                 UnknownElement, UNKNOWN_D, id="unknown-label"),
    pytest.param({"frame": F, "masses": [e("D", 1.0)]},
                 UnknownElement, UNKNOWN_D, id="unknown-bare-label"),
    pytest.param({"frame": F, "masses": [e([1], 1.0)]},
                 UnknownElement, "1 is not an element of ('A', 'B', 'C')", id="unknown-int-label"),
    pytest.param({"frame": F, "masses": [e([["A"]], 1.0)]},
                 UnknownElement, "['A'] is not an element of ('A', 'B', 'C')",
                 id="unhashable-label"),
    pytest.param({"frame": F, "masses": [e(["A"], True)]},
                 ValidationError, '"mass" must be a real number, not True', id="mass-bool"),
    pytest.param({"frame": F, "masses": [e(["A"], "1.0")]},
                 ValidationError, '"mass" must be a real number, not \'1.0\'', id="mass-str"),
    pytest.param({"frame": F, "masses": [e(["A"], None)]},
                 ValidationError, '"mass" must be a real number, not None', id="mass-none"),
    pytest.param({"frame": F, "masses": [e(["A"], [1.0])]},
                 ValidationError, '"mass" must be a real number, not [1.0]', id="mass-list"),
    pytest.param({"frame": F, "masses": [e(["A"], 10**400)]},
                 ValidationError, HUGE, id="mass-huge-int"),
    pytest.param({"frame": F, "masses": [e(["A"], -(10**400))]},
                 ValidationError, HUGE_NEG, id="mass-huge-neg-int"),
    pytest.param({"frame": F, "masses": [e(["A", "B"], 0.5), e(["B", "A"], 0.5)]},
                 DuplicateFocalSet, 'subset {A,B} listed twice', id="duplicate-reordered"),
    pytest.param({"frame": F, "masses": [e("A", 0.5), e(["A"], 0.5)]},
                 DuplicateFocalSet, 'subset {A} listed twice', id="duplicate-bare-label"),
    pytest.param({"frame": F, "masses": [e(["A"], 0.5), e(["A", "A"], 0.5)]},
                 DuplicateFocalSet, 'subset {A} listed twice', id="duplicate-repeated-label"),
    pytest.param({"frame": F, "masses": [e([], 0.5), e([], 0.5)]},
                 DuplicateFocalSet, 'subset {} listed twice', id="duplicate-empty"),
    pytest.param({"frame": F, "masses": [e(["C"], 1.0), e(["C"], 0.0)]},
                 DuplicateFocalSet, 'subset {C} listed twice', id="duplicate-zero-mass"),
    pytest.param({"frame": F, "masses": [e(["A"], -0.2), e(["B"], 1.2)]},
                 NegativeMass, 'mass of {A} is negative (-0.2)', id="negative"),
    pytest.param({"frame": F, "masses": [e(["A"], -1), e(["B"], 2)]},
                 NegativeMass, 'mass of {A} is negative (-1.0)', id="negative-int"),
    pytest.param({"frame": F, "masses": [e(["A"], float("-inf")), e(["B"], 1.0)]},
                 NegativeMass, 'mass of {A} is negative (-inf)', id="negative-inf"),
    pytest.param({"frame": F, "masses": [e(["A"], float("nan")), e(["B"], 1.0)]},
                 ValidationError, 'masses must be finite', id="nan"),
    pytest.param({"frame": F, "masses": [e(["A"], float("inf"))]},
                 ValidationError, 'masses must be finite', id="inf"),
    pytest.param({"frame": F, "masses": [e(["A"], 1.5), e(["B"], -0.5)]},
                 NegativeMass, 'mass of {B} is negative (-0.5)', id="above-one"),
    pytest.param({"frame": F, "masses": [e(["A"], 1.25), e(["B"], 0.0)]},
                 ValidationError, 'mass exceeds 1 (1.25)', id="above-one-alone"),
    pytest.param({"frame": F, "masses": [e(["A"], 0.5)]},
                 MassSumViolation, 'masses sum to 0.5, expected 1', id="bad-sum"),
    pytest.param({"frame": F, "masses": []},
                 MassSumViolation, 'masses sum to 0.0, expected 1', id="bad-sum-empty-list"),
    pytest.param({"frame": F, "masses": [e(["A"], 0.5), e(["B"], 0.5 + 2e-9)]},
                 MassSumViolation, 'masses sum to 1.0000000020000002, expected 1',
                 id="bad-sum-tolerance"),
    # two faults: entry faults (shape, type, label, duplicate) in document
    # order, then the mass values (negative, non-finite, above one, sum)
    pytest.param({"frame": F, "masses": [e(["A"], 0.5), e(["A"], 0.5), e(["B"], "x")]},
                 DuplicateFocalSet, 'subset {A} listed twice', id="dup-then-mass-type"),
    pytest.param({"frame": F, "masses": [e(["A"], 0.5), e(["A"], 0.5), e(["D"], 0.1)]},
                 DuplicateFocalSet, 'subset {A} listed twice', id="dup-then-unknown"),
    pytest.param({"frame": F, "masses": [e(["A"], 0.5), e(["A"], 0.5), 7]},
                 DuplicateFocalSet, 'subset {A} listed twice', id="dup-then-entry"),
    pytest.param({"frame": F, "masses": [e(["A"], 0.5), e(["A"], 0.5), e(3, 0.1)]},
                 DuplicateFocalSet, 'subset {A} listed twice', id="dup-then-focal-type"),
    pytest.param({"frame": F, "masses": [e(["A"], 0.5), e(["A"], 0.5), e(["B"], 10**400)]},
                 DuplicateFocalSet, 'subset {A} listed twice', id="dup-then-huge-int"),
    pytest.param({"frame": F, "masses": [e(["A"], 0.5), e(["A"], 10**400)]},
                 DuplicateFocalSet, 'subset {A} listed twice', id="dup-with-huge-int"),
    pytest.param({"frame": F, "masses": [e(["A"], 0.5), e(["A"], "x")]},
                 ValidationError, MASS_TYPE + "'x'", id="dup-with-mass-type"),
    pytest.param({"frame": F, "masses": [e(["A"], 0.5), e(["A", "D"], 0.5)]},
                 UnknownElement, UNKNOWN_D, id="dup-with-unknown"),
    pytest.param({"frame": F, "masses": [e(["B"], "x"), e(["A"], 0.5), e(["A"], 0.5)]},
                 ValidationError, MASS_TYPE + "'x'", id="mass-type-then-dup"),
    pytest.param({"frame": F, "masses": [e(["D"], 0.5), e(["A"], 0.5), e(["A"], 0.5)]},
                 UnknownElement, UNKNOWN_D, id="unknown-then-dup"),
    pytest.param({"frame": F, "masses": [e(["D"], "x")]},
                 ValidationError, MASS_TYPE + "'x'", id="mass-type-and-unknown"),
    pytest.param({"frame": F, "masses": [e(3, "x")]},
                 ValidationError, FOCAL_TYPE + '3', id="focal-type-and-mass-type"),
    pytest.param({"frame": F, "masses": [e(["A"], -0.5), e(["B"], 0.5), e(["B"], 1.0)]},
                 DuplicateFocalSet, 'subset {B} listed twice', id="negative-then-dup"),
    pytest.param({"frame": F, "masses": [e(["A"], -0.5), e(["D"], 1.5)]},
                 UnknownElement, UNKNOWN_D, id="negative-then-unknown"),
    pytest.param({"frame": F, "masses": [e(["A"], -0.5), e(["B"], 10**400)]},
                 ValidationError, HUGE, id="negative-then-huge-int"),
    pytest.param({"frame": F, "masses": [e(["A"], float("nan")), e(["B"], -1.0)]},
                 NegativeMass, 'mass of {B} is negative (-1.0)', id="nan-then-negative"),
    pytest.param({"frame": F, "masses": [e(["A"], -0.25), e(["B"], -0.5), e(["C"], 1.75)]},
                 NegativeMass, 'mass of {A} is negative (-0.25)', id="two-negatives"),
    pytest.param({"frame": F, "masses": [e(["A"], 2.0), e(["B"], float("inf"))]},
                 ValidationError, 'masses must be finite', id="inf-and-above-one"),
    pytest.param({"frame": F, "masses": [e(["A"], 1.5)]},
                 ValidationError, 'mass exceeds 1 (1.5)', id="above-one-and-bad-sum"),
]


class TestParseFaults:
    @pytest.mark.parametrize("doc, error, message", FAULTS)
    def test_fault_class_and_message(self, doc, error, message):
        with pytest.raises(ValidationError) as info:
            parse_bba_document(doc)
        assert (type(info.value), str(info.value)) == (error, message)


class TestResultDocuments:
    def test_twelve_significant_digits(self):
        text = dumps_result(result_document("op", "d", None, {"value": 1 / 3}))
        assert json.loads(text)["payload"]["value"] == float(f"{1 / 3:.12g}")

    def test_byte_identity_without_timing(self):
        payload = {"vector": list(np.linspace(0, 1, 5))}
        a = dumps_result(result_document("op", inputs_digest("x"), "classical", payload))
        b = dumps_result(result_document("op", inputs_digest("x"), "classical", payload))
        assert a.encode() == b.encode()

    def test_digest_changes_with_input(self):
        assert inputs_digest("a", 1) != inputs_digest("a", 2)

    def test_non_finite_payload_rejected(self):
        with pytest.raises(ValidationError):
            dumps_result(result_document("op", "d", None, {"value": float("inf")}))

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


DIGEST = "0123456789abcdef"

# 12-digit rounding edges: signed zero, subnormal dust, the smallest normal,
# values that round to an integer, and exponents around repr's switch at 1e16
EDGES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 0.5, 1 - 1e-13, 999999999999.5,
         1.5e13, 1e16, -2.5, 1 / 3, 1e-5, 0.1 + 0.2, 123456789012.25]

# each label needs a JSON escape: a quote, a backslash, a non-ASCII letter,
# a control character, and a brace before a quote, which the escaped
# label keeps apart from the closing brace of its subset's label
ESCAPED = ['q"uote', "back\\slash", "\u00e9", "bell\x07", 'brace}"']


def escaped_frame(n: int) -> Frame:
    return Frame(ESCAPED + [f"e{i}" for i in range(len(ESCAPED), n)])


def written(payload, backend="classical", shots=None, seed=None, wall_time_s=None) -> str:
    return dumps_result(result_document("op", DIGEST, backend, payload, shots, seed, wall_time_s))


def oracle(payload, backend="classical", shots=None, seed=None, wall_time_s=None) -> str:
    doc = {"schema": RESULT_SCHEMA, "operation": "op", "inputs_digest": DIGEST,
           "backend": backend, "payload": payload}
    if shots is not None:
        doc["shots"], doc["seed"] = shots, seed
    if wall_time_s is not None:
        doc["wall_time_s"] = wall_time_s
    return dumps_result_oracle(doc)


def dense_pairs(frame: Frame, vector: np.ndarray, key: str, quantum: bool):
    """The (written, oracle) payloads of one dense transform or combination,
    in the shape the command line builds: table labels on the written side,
    ``format_subset`` labels on the oracle side."""
    extra = {"normalized_only": True, "note": "up to scale"} if quantum else {}
    labels = [frame.format_subset(i) for i in range(frame.size)]
    return ({"subsets": dense_subset_labels(frame), key: vector, **extra},
            {"subsets": labels, key: vector, **extra})


class TestDenseWriter:
    @pytest.mark.parametrize("n", range(1, 14))
    def test_transform_and_combine_match_json_dumps(self, n):
        m1, m2 = (random_mass_function(make_frame(n), np.random.default_rng(40 + n),
                                       allow_empty=True) for _ in range(2))
        cases = [(pl_from_mass(m1).values, "values"),
                 (combine_conjunctive(m1, m2).masses, "masses")]
        for vector, key in cases:
            for quantum in (False, True):
                if quantum:
                    vector = vector / np.linalg.norm(vector)
                fast, slow = dense_pairs(m1.frame, vector, key, quantum)
                backend = "quantum-oracle" if quantum else "classical"
                assert written(fast, backend) == oracle(slow, backend), (key, quantum)

    def test_rounding_edges_match_json_dumps(self):
        edges = np.array(EDGES)
        frame = make_frame(4)
        fast, slow = dense_pairs(frame, np.resize(edges, frame.size), "values", False)
        assert written(fast) == oracle(slow)
        for value in EDGES:
            assert written({"value": value}, wall_time_s=value) == oracle(
                {"value": value}, wall_time_s=value)
        freqs = {f"{{e{i}}}": v for i, v in enumerate(EDGES)}
        assert written({"frequencies": freqs}) == oracle({"frequencies": freqs})
        assert written({"v": edges, "w": -edges}) == oracle({"v": edges, "w": -edges})

    def test_repeated_values_match_json_dumps(self):
        # 4,096 entries of 12 distinct non-zero values and both zeros: each
        # distinct value is formatted once and gathered
        frame = make_frame(12)
        vector = np.random.default_rng(12).choice(np.array(EDGES), size=frame.size)
        zeros = np.signbit(vector[vector == 0])
        assert zeros.any() and not zeros.all()
        fast, slow = dense_pairs(frame, vector, "values", False)
        # line pairs, not the two texts: a diff of 4,096 similar lines takes minutes
        fast_lines, slow_lines = written(fast).splitlines(), oracle(slow).splitlines()
        assert len(fast_lines) == len(slow_lines)
        assert [(a, b) for a, b in zip(fast_lines, slow_lines) if a != b] == []

    @pytest.mark.parametrize("n", [8, 13])
    def test_escaped_labels_match_json_dumps(self, n):
        # n = 13 reads two label chunks
        frame = escaped_frame(n)
        m = random_mass_function(frame, np.random.default_rng(n), allow_empty=True)
        fast, slow = dense_pairs(frame, pl_from_mass(m).values, "values", False)
        assert written(fast) == oracle(slow)
        elements = {"elements": list(frame.elements), "probabilities": m.masses[1 << np.arange(n)]}
        assert written(elements) == oracle(elements)

    @pytest.mark.parametrize("n", [1, 8, 13, 20])
    def test_subset_labels_match_format_subset(self, n):
        frame = escaped_frame(n) if n >= len(ESCAPED) else make_frame(n)
        index = np.random.default_rng(n).choice(frame.size, size=min(frame.size, 500),
                                                replace=False)
        index[0] = 0
        index[-1] = frame.full_set
        assert subset_labels(frame, index) == [frame.format_subset(i) for i in index.tolist()]

    def test_other_payload_shapes_match_json_dumps(self, showcase):
        keys = [escaped_frame(5).format_subset(i) for i in (0, 3, 17, 31)]
        counts = dict(zip(keys, [5, 0, 1000, 19]))
        mixed = {"values": np.zeros(0), "flag": True, "none": None,
                 "items": [1, [2.5, {"b": 1, "a": [0.1]}], "x"],
                 "nested": {"b": np.array([0.5, 1.0]), "a": {"c": np.array([2.0]), "d": {}}},
                 3: 0.1 + 0.2, "grid": np.array([[1 / 3, 2.0], [-0.0, 1e16]]),
                 "ints": np.arange(4), "single": np.array([0.1], dtype=np.float32)}
        shapes = [
            ({"counts": counts, "frequencies": {k: c / 1024 for k, c in counts.items()}},
             1024, 9),
            ({"elements": list(showcase.frame.elements),
              "probabilities": np.array([0.25, 0.5, 0.25])}, 64, 0),
            ({"value": 0.9538630372285076}, None, None),
            ({"bits": np.float64(1 / 3)}, None, None),
            ({}, None, None),
            (mixed, None, None),
        ]
        for payload, shots, seed in shapes:
            for wall in (None, 0.000123456789012345):
                assert written(payload, "quantum-circuit", shots, seed, wall) == oracle(
                    payload, "quantum-circuit", shots, seed, wall), payload

    def test_numpy_scalars_are_written_as_python_numbers(self):
        numpy = {"n": np.int64(7), "x": np.float32(0.1), "y": np.float64(2 / 3)}
        python = {"n": 7, "x": float(np.float32(0.1)), "y": 2 / 3}
        assert written(numpy) == written(python)
        rounded = {"n": 7, "x": 0.100000001490, "y": 0.666666666667}
        assert json.loads(written(numpy))["payload"] == rounded

    def test_unknown_payload_type_refused(self):
        with pytest.raises(ValidationError, match="^cannot serialize payload value"):
            written({"value": {1, 2}})

    def test_decoded_document_round_trips(self, showcase):
        fast, _ = dense_pairs(showcase.frame, showcase.masses, "masses", False)
        text = written(fast, shots=16, seed=3, wall_time_s=0.5)
        assert dumps_result(json.loads(text)) == text

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_dense_value_refused(self, bad):
        vector = np.linspace(0.0, 1.0, 16)
        vector[5] = bad
        with pytest.raises(ValidationError, match="^payload contains a non-finite value$"):
            dumps_result(result_document(
                "op", DIGEST, "classical",
                {"subsets": dense_subset_labels(make_frame(4)), "values": vector}))


class TestCircuitSerialization:
    def test_json_round_trip_reproduces_state(self):
        m = parse_bba_document(showcase_doc())
        loaded = circuit_from_json(circuit_json(build_preparation_tree(m)))
        np.testing.assert_allclose(
            loaded.simulate(0).amps, prepare_bba_state(m).amps, atol=1e-10
        )

    def test_qasm_header_and_gate_subset(self):
        m = parse_bba_document(showcase_doc())
        text = circuit_to_qasm(build_preparation_tree(m))
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
        doc = json.loads(circuit_json(build_preparation_tree(m)))
        assert doc["qubits"] == 3
        assert len(doc["ops"]) == 7

    @pytest.mark.parametrize("n", range(1, 13))
    def test_json_text_is_the_json_dumps_reference(self, n):
        # n >= 11 writes two-digit qubit indices; sparse and certain
        # documents leave subtrees empty, whose angle is 0.0
        frame = make_frame(n)
        rng = np.random.default_rng(3200 + n)
        masses = [
            random_mass_function(frame, rng, allow_empty=True),
            random_mass_function(frame, rng, max_focal=3),
            validate_bba(frame, {int(rng.integers(0, 1 << n)): 1.0}),
            validate_bba(frame, {0: 0.25, frame.size - 1: 0.75}),
        ]
        empty_subtrees = 0
        for m in masses:
            tree = build_preparation_tree(m)
            assert circuit_json(tree) == preparation_json_oracle(tree)
            empty_subtrees += sum(int((angles == 0.0).sum()) for angles in tree.angles)
        assert empty_subtrees > 0 or n == 1  # the root alone cannot be empty

    @pytest.mark.parametrize("n", range(1, 11))
    def test_json_blocks_hold_one_high_run(self, n):
        # level l (l controls) is written in 2^ceil(l/2) blocks of
        # 2^floor(l/2) ops, one per pattern of its high controls, so no
        # block holds a whole level; the head and tail hold no op
        (m,) = random_bbas(1, n, seed=4100 + n)
        tree = build_preparation_tree(m)
        blocks: list[str] = []
        preparation_to_json(tree, blocks.append)
        assert "".join(blocks) == preparation_json_oracle(tree)
        ops = [block.count('"gate"') for block in blocks]
        assert ops[0] == ops[-1] == 0
        assert ops[1:-1] == [1 << (l // 2) for l in range(n) for _ in range(1 << (l - l // 2))]

    def test_json_export_peak_is_a_small_share_of_its_text(self):
        # the ops are written a block at a time, so the export's own memory
        # stays far below its 52 MB text at n = 16; a writer that builds the
        # whole text first peaks at more than twice the text
        (m,) = random_bbas(1, 16, seed=16)
        tree = build_preparation_tree(m)
        written = [0]

        def count(text):
            written[0] += len(text)

        tracemalloc.start()
        try:
            preparation_to_json(tree, count)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert written[0] > 50_000_000
        assert peak < written[0] / 8
