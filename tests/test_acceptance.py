"""Acceptance gate: every shipped guarantee, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines live.
Tolerances are pinned here and nowhere else; each criterion also carries
its wall-clock budget.
"""

import functools
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import make_frame, random_bbas
from oracles import (
    conjunctive_matrix,
    conjunctive_oracle,
    disjunctive_matrix,
    disjunctive_oracle,
)
from test_meob import oracle_evolution, run_circuit
from qbelief.cli import demo_mass_function, trend_rows
from qbelief.dst import (
    b_from_mass,
    bel_from_mass,
    betp,
    combine_dempster,
    fb_entropy,
    fb_inner_product,
    js_entropy,
    pl_from_mass,
    pl_p,
    q_from_mass,
    transform_matrix,
    validate_bba,
)
from qbelief.dst.transforms import subset_sum_inverse, superset_sum_inverse
from qbelief.errors import TotalConflict
from qbelief.qsim import StateVector
from qbelief.quantum import (
    BeliefQuery,
    MEoBConfig,
    belief_query_circuit,
    build_preparation_tree,
    ccr_qc,
    estimate_belief,
    evolve_mass,
    fb_inner_product_qc,
    ppt_qc,
    prepare_bba_state,
    ptm_qc,
    swap_test,
    synthesize_preparation_circuit,
)

ORACLE = MEoBConfig(backend="oracle")


def criterion(number, budget_s, description):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            started = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except Exception:
                print(f"\ncriterion {number:>2} FAIL  {description}")
                raise
            elapsed = time.perf_counter() - started
            print(
                f"\ncriterion {number:>2} PASS  {description}"
                f"  [{elapsed:.2f}s / budget {budget_s}s]"
            )
            assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s"

        return inner

    return wrap


@criterion(1, 1, "preparation amplitudes and 1024-shot frequencies")
def test_criterion_01_preparation():
    m = demo_mass_function()
    state = prepare_bba_state(m)
    np.testing.assert_allclose(np.abs(state.amps) ** 2, m.masses, atol=1e-10)

    shots, seed = 1024, 7
    record = state.sample(shots, seed)
    for idx, p in enumerate(m.masses):
        sigma = np.sqrt(p * (1 - p) / shots)
        assert abs(record.frequency(idx) - p) <= 3 * sigma + 1e-12


@criterion(2, 5, "belief extraction, exact and sampled at one million shots")
def test_criterion_02_extraction():
    m = demo_mass_function()
    assert estimate_belief(m, BeliefQuery("pl", 0b100)) == pytest.approx(2 / 3, abs=1e-10)
    assert estimate_belief(m, BeliefQuery("q", 0b110)) == pytest.approx(4 / 9, abs=1e-10)

    shots, seed = 10**6, 11
    pl_s = estimate_belief(m, BeliefQuery("pl", 0b100), shots, seed)
    q_s = estimate_belief(m, BeliefQuery("q", 0b110), shots, seed + 1)
    assert abs(pl_s - 2 / 3) <= 1.5e-3
    assert abs(q_s - 4 / 9) <= 1.5e-3


@criterion(3, 10, "fast transforms equal explicit matrix products, n up to 8")
def test_criterion_03_transform_matrix_equivalence():
    total = 0
    for n in range(1, 9):
        mats = {k: transform_matrix(k, n) for k in ("bel", "pl", "q")}
        for m in random_bbas(25, n, seed=5000 + n, allow_empty=True):
            np.testing.assert_allclose(
                bel_from_mass(m).values, mats["bel"] @ m.masses, atol=1e-12
            )
            np.testing.assert_allclose(
                pl_from_mass(m).values, mats["pl"] @ m.masses, atol=1e-12
            )
            np.testing.assert_allclose(
                q_from_mass(m).values, mats["q"] @ m.masses, atol=1e-12
            )
            total += 1
    assert total == 200


@criterion(4, 10, "combination triple-form equality and the worked normalization")
def test_criterion_04_triple_form():
    total = 0
    for n in range(1, 6):
        pairs = zip(
            random_bbas(20, n, seed=5100 + n, allow_empty=True),
            random_bbas(20, n, seed=5200 + n, allow_empty=True),
        )
        for m1, m2 in pairs:
            loop_cap = conjunctive_oracle(m1.masses, m2.masses, n)
            q_prod = superset_sum_inverse(q_from_mass(m1).values * q_from_mass(m2).values)
            s_route = conjunctive_matrix(m1) @ m2.masses
            np.testing.assert_allclose(q_prod, loop_cap, atol=1e-10)
            np.testing.assert_allclose(s_route, loop_cap, atol=1e-10)

            loop_cup = disjunctive_oracle(m1.masses, m2.masses, n)
            b_prod = subset_sum_inverse(b_from_mass(m1).values * b_from_mass(m2).values)
            g_route = disjunctive_matrix(m1) @ m2.masses
            np.testing.assert_allclose(b_prod, loop_cup, atol=1e-10)
            np.testing.assert_allclose(g_route, loop_cup, atol=1e-10)
            total += 1
    assert total == 100

    frame = make_frame(2)
    m1 = validate_bba(frame, {("e0",): 0.5, ("e0", "e1"): 0.5})
    m2 = validate_bba(frame, {("e1",): 0.5, ("e0", "e1"): 0.5})
    np.testing.assert_allclose(
        combine_dempster(m1, m2).masses, [0, 1 / 3, 1 / 3, 1 / 3], atol=1e-10
    )


@criterion(5, 60, "matrix evolution: oracle exactness, exact-phase circuits, refinement")
def test_criterion_05_matrix_evolution():
    # oracle backend reproduces the normalized matrix-vector product
    rng = np.random.default_rng(61)
    count = 0
    for n in (1, 2, 3):
        kinds = ["q", "q_inv", "fractal", "bet"]
        for m in random_bbas(17, n, seed=5300 + n):
            kind = kinds[count % len(kinds)]
            matrix = transform_matrix(kind, n)
            state, _ = evolve_mass(m, matrix, ORACLE)
            expect = matrix @ m.masses
            np.testing.assert_allclose(
                state.amps.real, expect / np.linalg.norm(expect), atol=1e-10
            )
            diag = transform_matrix("diag", n, rng.uniform(0.1, 1.0, size=1 << n))
            state, _ = evolve_mass(m, diag, ORACLE)
            expect = diag @ m.masses
            np.testing.assert_allclose(
                state.amps.real, expect / np.linalg.norm(expect), atol=1e-10
            )
            count += 1
            if count >= 50:
                break
        if count >= 50:
            break
    assert count >= 50

    # circuit backend is exact on exactly representable eigenphases:
    # with t0 = pi, eigenvalue k / 2^(t-1) lands on clock value k
    for t, ks in [(4, (2, 5)), (6, (9, 22)), (8, (40, 100))]:
        scale = 1 << (t - 1)
        matrix = np.diag(np.array(ks) / scale)
        psi, c = np.array([0.6, 0.8]), 0.9 * scale / max(ks)
        out, p_circ = run_circuit(matrix, psi, t, np.pi, c)
        ideal, p_orac = oracle_evolution(matrix, psi, c)
        assert abs(np.vdot(out, ideal)) >= 1 - 1e-6
        assert p_circ == pytest.approx(p_orac, rel=1e-6)

    # and on a rotated (non-diagonal) spectrum with signed eigenvalues
    t = 6
    rot, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    lams = np.array([3, -7, 12, 9]) / (1 << (t - 1))
    h = (rot * lams) @ rot.T
    psi = rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    out, _ = run_circuit(h, psi, t, np.pi)
    ideal = h @ psi
    ideal = ideal / np.linalg.norm(ideal)
    assert abs(np.vdot(out, ideal)) >= 1 - 1e-6

    # refinement: a wider clock register does not hurt average fidelity
    fids = {6: [], 10: []}
    for _ in range(20):
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        lams = rng.uniform(1.0, 5.0, size=4) * rng.choice([-1.0, 1.0], size=4)
        lams[0] = 1.0
        h = (q * lams) @ q.T
        psi = rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        ideal = h @ psi
        ideal = ideal / np.linalg.norm(ideal)
        for t in (6, 10):
            out, _ = run_circuit(h, psi, t)
            fids[t].append(abs(np.vdot(out, ideal)))
    assert np.mean(fids[10]) >= np.mean(fids[6])


@criterion(6, 10, "swap-test identity and the similarity pipeline")
def test_criterion_06_swap_test():
    rng = np.random.default_rng(62)
    for _ in range(50):
        k = int(rng.integers(1, 4))
        a = rng.normal(size=1 << k) + 1j * rng.normal(size=1 << k)
        b = rng.normal(size=1 << k) + 1j * rng.normal(size=1 << k)
        s1 = StateVector(k, a / np.linalg.norm(a))
        s2 = StateVector(k, b / np.linalg.norm(b))
        overlap_sq = abs(np.vdot(s1.amps, s2.amps)) ** 2
        est = swap_test(s1, s2)
        # Pr(0) = (est + 1) / 2 must sit at 1/2 + overlap^2/2
        assert abs((est + 1) / 2 - (0.5 + overlap_sq / 2)) <= 1e-12

    pairs = zip(random_bbas(25, 3, seed=63), random_bbas(25, 3, seed=64))
    for m1, m2 in pairs:
        assert fb_inner_product_qc(m1, m2, ORACLE) == pytest.approx(
            fb_inner_product(m1, m2), abs=1e-8
        )


@criterion(7, 30, "combination pipeline plus classical renormalization")
def test_criterion_07_combination_pipeline():
    checked = 0
    draw = 0
    while checked < 50:
        n = 2 + (draw % 3)  # n in {2, 3, 4}
        m1 = random_bbas(1, n, seed=7000 + draw)[0]
        m2 = random_bbas(1, n, seed=8000 + draw)[0]
        draw += 1
        try:
            expect = combine_dempster(m1, m2)
        except TotalConflict:
            continue
        recovered = ccr_qc(m1, m2, ORACLE)
        conflict = float(recovered.masses[0])
        masses = recovered.masses / (1.0 - conflict)
        masses = masses.copy()
        masses[0] = 0.0
        np.testing.assert_allclose(masses, expect.masses, atol=1e-8)
        checked += 1


@criterion(8, 1, "gate-count guarantees of preparation and extraction circuits")
def test_criterion_08_gate_counts():
    for n in range(1, 9):
        frame = make_frame(n)
        m = validate_bba(frame, {tuple(frame.elements): 1.0})
        circ = synthesize_preparation_circuit(build_preparation_tree(m))
        assert circ.gate_count == (1 << n) - 1
        assert all(op.gate.kind == "ry" for op in circ.ops)
        per_level = {}
        for op in circ.ops:
            per_level[len(op.controls)] = per_level.get(len(op.controls), 0) + 1
        assert per_level == {level: 1 << level for level in range(n)}

    for kind, extra in (("b", 0), ("q", 0), ("pl", 1)):
        circ = belief_query_circuit(BeliefQuery(kind, 0b011), n=4)
        flips = [op for op in circ.ops if op.controls]
        assert len(flips) == 1  # exactly one multi-controlled NOT
        assert circ.gate_count == 1 + extra


@criterion(9, 10, "probability transforms and combination consistency")
def test_criterion_09_probability_transforms():
    m = demo_mass_function()
    np.testing.assert_allclose(betp(m), np.array([23, 44, 41]) / 108, atol=1e-10)
    np.testing.assert_allclose(pl_p(m), np.array([8, 13, 12]) / 33, atol=1e-10)
    np.testing.assert_allclose(ppt_qc(m, ORACLE), np.array([23, 44, 41]) / 108, atol=1e-8)
    np.testing.assert_allclose(ptm_qc(m), np.array([8, 13, 12]) / 33, atol=1e-8)

    checked = 0
    draw = 0
    while checked < 50:
        n = 2 + (draw % 3)
        m1 = random_bbas(1, n, seed=9000 + draw)[0]
        m2 = random_bbas(1, n, seed=9500 + draw)[0]
        draw += 1
        try:
            combined = combine_dempster(m1, m2)
        except TotalConflict:
            continue
        prod = pl_p(m1) * pl_p(m2)
        np.testing.assert_allclose(pl_p(combined), prod / prod.sum(), atol=1e-9)
        checked += 1


@criterion(10, 1, "entropy spot values")
def test_criterion_10_entropy():
    frame = make_frame(2)
    vac2 = validate_bba(frame, {tuple(frame.elements): 1.0})
    assert js_entropy(vac2) == pytest.approx(2.0, abs=1e-10)
    assert fb_entropy(vac2) == pytest.approx(np.log2(3), abs=1e-10)
    for n in range(1, 11):
        f = make_frame(n)
        vac = validate_bba(f, {tuple(f.elements): 1.0})
        assert fb_entropy(vac) == pytest.approx(np.log2(2**n - 1), abs=1e-10)


@criterion(11, 5, "similarity trend table over the ten nested focal sets")
def test_criterion_11_trend():
    rows = trend_rows()
    assert len(rows) == 10
    values = np.array([vals for _, vals in rows])
    assert values.shape == (10, 5)
    # verified against the definition-level oracles before freezing:
    # the fractal inner product peaks where the supports coincide
    assert int(np.argmax(values[:, 1])) == 4


@criterion(12, 1, "documentation states the speedup claims are not benchmarked")
def test_criterion_12_docs_statement():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8").lower()
    assert "asymptotic" in text
    assert "exponential" in text
    assert "gate-count" in text or "gate count" in text
