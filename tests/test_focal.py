"""The focal list and the queries that run over it.

``MassFunction.focal`` must be the sorted non-zero support of the dense
vector, whether the mass function was parsed or computed.  The queries
that read only the focal sets (pignistic and plausibility transforms,
the JS entropy, fidelity, the Euclidean distance) and the fractal
reallocation are held to the definition-level oracles at n = 1..10 and
to the dense-sweep formulas at n = 18 and 20.  The counter fixtures
check that those queries run no 2^n sweep and that parsing scans no
dense vector.
"""

import json
import math

import numpy as np
import pytest

from conftest import make_frame
from oracles import (
    betp_oracle,
    betp_sweep_oracle,
    cosine_oracle,
    euclidean_dense_oracle,
    fbba_oracle,
    fbba_sweep_oracle,
    fidelity_dense_oracle,
    nonspecificity_dense_oracle,
    pl_oracle,
    pl_p_sweep_oracle,
    popcount,
    shannon_fsum_oracle,
    shannon_oracle,
)
from qbelief.cli import main
from qbelief.documents import parse_bba_document
from qbelief.dst import (
    MassFunction,
    betp,
    classical_fidelity,
    combine_conjunctive,
    euclidean_distance,
    fb_entropy,
    fb_inner_product,
    fbba,
    js_entropy,
    pl_p,
    random_mass_function,
    validate_bba,
)


def document(frame, focal, masses) -> dict:
    labels = frame.elements
    return {
        "frame": list(labels),
        "masses": [
            {"focal": [labels[k] for k in range(frame.n) if f >> k & 1], "mass": float(v)}
            for f, v in zip(focal, masses)
        ],
    }


def cases(n: int) -> list[tuple[str, MassFunction]]:
    """Random, subnormal, vacuous and single-focal mass functions, and a
    parsed document that lists zero masses."""
    frame = make_frame(n)
    rng = np.random.default_rng(4100 + n)
    base = random_mass_function(frame, rng)
    subnormal = 0.8 * base.masses
    subnormal[0] = 0.2
    listed = random_mass_function(frame, rng)
    free = [f for f in range(frame.size) if listed.masses[f] == 0.0]  # holds the empty set
    zero_doc = document(frame, listed.focal.tolist() + free[:2],
                        listed.masses[listed.focal].tolist() + [0.0] * len(free[:2]))
    return [
        ("random", base),
        ("subnormal", MassFunction(frame, subnormal)),
        ("vacuous", validate_bba(frame, {frame.full_set: 1.0})),
        ("single-focal", validate_bba(frame, {int(rng.integers(1, frame.size)): 1.0})),
        ("listed-zero", parse_bba_document(zero_doc)),
    ]


def singleton_pl(masses: np.ndarray, n: int) -> np.ndarray:
    return pl_oracle(masses, n)[1 << np.arange(n)]


class TestFocalList:
    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_equals_dense_support(self, n):
        rng = np.random.default_rng(n)
        computed = random_mass_function(make_frame(n), rng, allow_empty=True)
        derived = [fbba(computed), combine_conjunctive(computed, computed)]
        for _, m in cases(n) + [("computed", computed)] + [("derived", d) for d in derived]:
            assert m.focal.dtype == np.int64
            np.testing.assert_array_equal(m.focal, np.flatnonzero(m.masses))
            assert m.focal_sets == np.flatnonzero(m.masses).tolist()

    def test_listed_zero_mass_is_not_focal(self):
        frame = make_frame(3)
        m = parse_bba_document(document(frame, [0, 1, 6], [0.0, 0.25, 0.75]))
        assert m.focal.tolist() == [1, 6]
        assert not m.subnormal

    def test_computed_once_and_read_only(self, showcase):
        assert showcase.focal is showcase.focal
        with pytest.raises(ValueError):
            showcase.focal[0] = 0


class TestAgainstDefinitions:
    """n = 1..10, to 1e-12, each case against the definition-level loops;
    the two-operand measures pair each case with the next one."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_focal_list_queries(self, n):
        ms = [m for _, m in cases(n)]
        frac = [fbba_oracle(m.masses, n) for m in ms]
        for i, m in enumerate(ms):
            other, other_frac = ms[(i + 1) % len(ms)], frac[(i + 1) % len(ms)]
            np.testing.assert_allclose(betp(m), betp_oracle(m.masses, n), rtol=0, atol=1e-12)
            pl = singleton_pl(m.masses, n)
            np.testing.assert_allclose(pl_p(m), pl / pl.sum(), rtol=0, atol=1e-12)
            nonspecificity = sum(
                m.masses[f] * math.log2(popcount(f)) for f in range(1, 1 << n) if m.masses[f] > 0
            )
            assert js_entropy(m) == pytest.approx(
                shannon_oracle(pl / pl.sum()) + nonspecificity, abs=1e-12)
            assert fb_entropy(m) == pytest.approx(shannon_oracle(frac[i]), abs=1e-12)
            fid = sum(math.sqrt(m.masses[f] * other.masses[f]) for f in range(1 << n))
            assert classical_fidelity(m, other) == pytest.approx(fid, abs=1e-12)
            dist = math.sqrt(sum((m.masses[f] - other.masses[f]) ** 2 for f in range(1 << n)))
            assert euclidean_distance(m, other) == pytest.approx(dist / math.sqrt(2), abs=1e-12)
            assert fb_inner_product(m, other) == pytest.approx(
                cosine_oracle(frac[i], other_frac), abs=1e-12)


def random_document(rng, n: int, k: int, empty: float = 0.0, share=()) -> dict:
    """``k`` focal sets of up to 12 elements, some of them taken from
    ``share``, with exponential weights; ``empty`` goes to the empty set."""
    focal = list(share[: k // 4])
    taken = set(focal)
    while len(focal) < k:
        f = sum(1 << int(b) for b in rng.choice(n, size=int(rng.integers(1, 13)), replace=False))
        if f not in taken:
            taken.add(f)
            focal.append(f)
    w = rng.exponential(size=k)
    w *= (1.0 - empty) / w.sum()
    if empty:
        focal, w = [0] + focal, np.concatenate([[empty], w])
    return document(make_frame(n), focal, w)


@pytest.fixture(scope="module", params=[(18, 256, 256), (20, 4096, 1024)], ids=["n18", "n20"])
def large_pair(request):
    n, ka, kb = request.param
    rng = np.random.default_rng(n)
    a = parse_bba_document(random_document(rng, n, ka))
    b = parse_bba_document(random_document(rng, n, kb, empty=0.05, share=a.focal.tolist()))
    return n, a, b


class TestAgainstDenseSweeps:
    """At the frame cap, the focal-list kernels agree with the dense-sweep
    formulas they replace, to 1e-12."""

    def test_singleton_queries(self, large_pair):
        n, a, b = large_pair
        for m in (a, b):
            np.testing.assert_allclose(betp(m), betp_sweep_oracle(m.masses, n), rtol=0, atol=1e-12)
            plp = pl_p_sweep_oracle(m.masses, n)
            np.testing.assert_allclose(pl_p(m), plp, rtol=0, atol=1e-12)
            assert js_entropy(m) == pytest.approx(
                shannon_oracle(plp) + nonspecificity_dense_oracle(m.masses, n), abs=1e-12)

    def test_overlap_measures(self, large_pair):
        _, a, b = large_pair
        assert classical_fidelity(a, b) == pytest.approx(
            fidelity_dense_oracle(a.masses, b.masses), abs=1e-12)
        assert classical_fidelity(b, a) == pytest.approx(classical_fidelity(a, b), abs=1e-15)
        assert euclidean_distance(a, b) == pytest.approx(
            euclidean_dense_oracle(a.masses, b.masses), abs=1e-12)

    def test_fractal_measures(self, large_pair):
        n, a, b = large_pair
        fa, fb = fbba_sweep_oracle(a.masses, n), fbba_sweep_oracle(b.masses, n)
        np.testing.assert_allclose(fbba(b).masses, fb, rtol=0, atol=1e-12)
        assert fb_entropy(a) == pytest.approx(shannon_fsum_oracle(fa), abs=1e-12)
        assert fb_inner_product(a, b) == pytest.approx(cosine_oracle(fa, fb), abs=1e-12)


class TestNoDenseWork:
    @pytest.fixture
    def pair(self):
        rng = np.random.default_rng(77)
        a = random_document(rng, 12, 40)
        b = random_document(rng, 12, 30, empty=0.1, share=parse_bba_document(a).focal.tolist())
        return a, b

    def test_parsing_scans_no_dense_vector(self, monkeypatch, pair, nonzero_scans, sweep_calls):
        dense_checks = []
        dense_init = MassFunction.__init__
        monkeypatch.setattr(MassFunction, "__init__",
                            lambda self, *a: dense_checks.append(a) or dense_init(self, *a))
        m = parse_bba_document(pair[0])
        assert m.focal_sets and not m.bayesian and not m.consonant and repr(m)
        assert dense_checks == []
        assert all(size < m.frame.size for size in nonzero_scans), nonzero_scans
        assert not any(sweep_calls.values())

    def test_focal_list_queries_run_no_sweep(self, pair, sweep_calls):
        a, b = (parse_bba_document(d) for d in pair)
        betp(a), pl_p(b), js_entropy(a), classical_fidelity(a, b), euclidean_distance(a, b)
        assert sweep_calls == dict.fromkeys(sweep_calls, 0)
        fb_entropy(a)  # the fractal reallocation still sweeps once
        assert sweep_calls["superset_sum"] == 1

    @pytest.mark.parametrize("argv", [
        ["prob", "--method", "ppt"],
        ["prob", "--method", "ptm"],
        ["entropy", "--kind", "js"],
        ["similarity", "--measure", "fidelity"],
        ["similarity", "--measure", "euclidean"],
    ])
    def test_cli_requests_run_no_sweep(self, tmp_path, capsys, pair, argv, sweep_calls,
                                       nonzero_scans):
        paths = []
        for i, doc in enumerate(pair[: 2 if argv[0] == "similarity" else 1]):
            paths.append(str(tmp_path / f"m{i}.json"))
            (tmp_path / f"m{i}.json").write_text(json.dumps(doc))
        main(argv + paths)
        assert json.loads(capsys.readouterr().out)["operation"] == f"{argv[0]}.{argv[2]}"
        assert sweep_calls == dict.fromkeys(sweep_calls, 0)
        assert all(size < 1 << 12 for size in nonzero_scans), nonzero_scans
