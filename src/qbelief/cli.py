"""Command-line surface.

Exit codes: 0 ok, 1 validation error, 2 computation error (conflict,
singularity, failed postselection), 3 I/O error.  All randomness flows
through explicit ``--seed`` flags; identical inputs, seeds and shot
counts produce byte-identical result documents.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import dst, quantum
from .documents import dumps_result, inputs_digest, load_bba_document, result_document
from .dst.mass import MassFunction, demo_mass_function, trend_mass_functions
from .errors import ComputationError, QBeliefError, ValidationError
from .qasm import circuit_to_json, circuit_to_qasm
from .quantum import MEoBConfig
from .quantum.prepare import build_preparation_tree, synthesize_preparation_circuit

BACKENDS = ("classical", "quantum-oracle", "quantum-circuit")

_backend_option = click.option(
    "--backend", type=click.Choice(BACKENDS), default="classical", show_default=True
)
_out_option = click.option("--out", type=click.Path(dir_okay=False), default=None)
_timing_option = click.option(
    "--timing", is_flag=True, help="Attach wall time (breaks byte-identity)."
)


def _meob_config(backend: str) -> MEoBConfig:
    return MEoBConfig(backend="circuit" if backend == "quantum-circuit" else "oracle")


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        click.echo(text, nl=False)


def _respond(
    inputs: tuple[str | int | MassFunction | None, ...],
    operation: str,
    backend: str | None,
    payload: dict,
    out: str | None,
    timing: bool,
    started: float,
    shots: int | None = None,
    seed: int | None = None,
) -> None:
    """Shared tail of the result commands: digest the inputs, attach the
    ``--timing`` wall time, build the result document and write it."""
    digest = inputs_digest(*inputs)
    wall_time_s = time.perf_counter() - started if timing else None
    doc = result_document(operation, digest, backend, payload, shots, seed, wall_time_s)
    _write(dumps_result(doc), out)


@click.group()
def cli() -> None:
    """Belief-function computation on simulated quantum circuits."""


@cli.command()
@click.argument("path", type=click.Path(dir_okay=False))
def validate(path: str) -> None:
    """Check a mass-function document and report its shape."""
    m = load_bba_document(path)
    flags = [
        name
        for name, active in [
            ("subnormal", m.subnormal),
            ("bayesian", m.bayesian),
            ("vacuous", m.vacuous),
            ("consonant", m.consonant),
        ]
        if active
    ]
    shape = ", ".join(flags) if flags else "normal"
    click.echo(
        f"valid, {m.focal.size} focal sets, {shape} "
        f"(mass sum {m.masses.sum():.12g}, n={m.frame.n})"
    )


@cli.command()
@click.option("--kind", type=click.Choice(["bel", "pl", "q", "fbba", "betm"]), required=True)
@_backend_option
@_out_option
@_timing_option
@click.argument("path", type=click.Path(dir_okay=False))
def transform(kind: str, backend: str, out: str | None, timing: bool, path: str) -> None:
    """Belief-function transform of one mass function.

    Classical backends print the full vector; quantum backends print the
    normalized state amplitudes, which carry the vector only up to scale.
    """
    started = time.perf_counter()
    m = load_bba_document(path)
    labels = [m.frame.format_subset(i) for i in range(m.frame.size)]

    if backend == "classical":
        if kind == "fbba":
            values = dst.fbba(m).masses
        elif kind == "betm":
            values = dst.bet_m(m).values
        else:
            values = {
                "bel": dst.bel_from_mass,
                "pl": dst.pl_from_mass,
                "q": dst.q_from_mass,
            }[kind](m).values
        payload = {"subsets": labels, "values": values}
    else:
        state = quantum.belief_functions_qc(m, kind, _meob_config(backend))
        payload = {
            "subsets": labels,
            "values": np.abs(state.amps),
            "normalized_only": True,
            "note": "amplitudes carry the vector up to scale; totals are not observable",
        }
    _respond(("transform", kind, backend, m), "transform." + kind, backend, payload,
             out, timing, started)


@cli.command()
@click.option("--rule", type=click.Choice(["ccr", "dcr", "dempster"]), required=True)
@_backend_option
@_out_option
@_timing_option
@click.argument("path1", type=click.Path(dir_okay=False))
@click.argument("path2", type=click.Path(dir_okay=False))
def combine(rule: str, backend: str, out: str | None, timing: bool, path1: str, path2: str) -> None:
    """Combine two mass functions; quantum Dempster is quantum conjunctive
    combination plus the classical renormalization step."""
    started = time.perf_counter()
    m1 = load_bba_document(path1)
    m2 = load_bba_document(path2)
    if backend == "classical":
        combined = {
            "ccr": dst.combine_conjunctive,
            "dcr": dst.combine_disjunctive,
            "dempster": dst.combine_dempster,
        }[rule](m1, m2)
    else:
        cfg = _meob_config(backend)
        combined = {
            "ccr": quantum.ccr_qc,
            "dcr": quantum.dcr_qc,
            "dempster": quantum.dempster_qc,
        }[rule](m1, m2, cfg)
    payload = {
        "subsets": [m1.frame.format_subset(i) for i in range(m1.frame.size)],
        "masses": combined.masses,
    }
    _respond(("combine", rule, backend, m1, m2), "combine." + rule, backend, payload,
             out, timing, started)


@cli.command()
@click.option(
    "--measure",
    type=click.Choice(["jousselme", "fb-inner", "fidelity", "euclidean", "inner-bba"]),
    required=True,
)
@_backend_option
@_out_option
@_timing_option
@click.argument("path1", type=click.Path(dir_okay=False))
@click.argument("path2", type=click.Path(dir_okay=False))
def similarity(measure: str, backend: str, out: str | None, timing: bool, path1: str, path2: str) -> None:
    """Similarity or distance between two mass functions.

    Quantum backends exist for the swap-test measures (fb-inner,
    fidelity); quadratic-form measures subtract mass vectors and have no
    circuit formulation.
    """
    started = time.perf_counter()
    m1 = load_bba_document(path1)
    m2 = load_bba_document(path2)
    if backend == "classical":
        value = {
            "jousselme": dst.jousselme_distance,
            "fb-inner": dst.fb_inner_product,
            "fidelity": dst.classical_fidelity,
            "euclidean": dst.euclidean_distance,
            "inner-bba": dst.inner_bba,
        }[measure](m1, m2)
    elif measure == "fb-inner":
        value = quantum.fb_inner_product_qc(m1, m2, _meob_config(backend))
    elif measure == "fidelity":
        est = quantum.swap_test(quantum.prepare_bba_state(m1), quantum.prepare_bba_state(m2))
        value = float(np.sqrt(max(est, 0.0)))
    else:
        raise ValidationError(f"measure {measure!r} has no quantum backend")
    _respond(("similarity", measure, backend, m1, m2), "similarity." + measure, backend,
             {"value": value}, out, timing, started)


@cli.command()
@click.option("--kind", type=click.Choice(["js", "fb"]), required=True)
@_out_option
@_timing_option
@click.argument("path", type=click.Path(dir_okay=False))
def entropy(kind: str, out: str | None, timing: bool, path: str) -> None:
    """Total-uncertainty measure of a mass function, in bits."""
    started = time.perf_counter()
    m = load_bba_document(path)
    value = dst.js_entropy(m) if kind == "js" else dst.fb_entropy(m)
    _respond(("entropy", kind, m), "entropy." + kind, None, {"bits": value}, out, timing, started)


@cli.command()
@click.option("--method", type=click.Choice(["ppt", "ptm"]), required=True)
@_backend_option
@click.option("--shots", type=int, default=None, help="Sample PTM extraction circuits.")
@click.option("--seed", type=int, default=None)
@_out_option
@_timing_option
@click.argument("path", type=click.Path(dir_okay=False))
def prob(method: str, backend: str, shots, seed, out: str | None, timing: bool, path: str) -> None:
    """Probability transform of a mass function over the frame elements."""
    started = time.perf_counter()
    m = load_bba_document(path)
    if backend == "classical":
        values = dst.betp(m) if method == "ppt" else dst.pl_p(m)
    elif method == "ppt":
        values = quantum.ppt_qc(m, _meob_config(backend))
    else:
        if shots is not None:
            if seed is None:
                raise ValidationError("--shots needs --seed for reproducibility")
            values = quantum.ptm_qc(m, mode="shots", shots=shots, seed=seed)
        else:
            values = quantum.ptm_qc(m, mode="statevector")
    payload = {"elements": list(m.frame.elements), "probabilities": values}
    _respond(("prob", method, backend, m, shots, seed), "prob." + method, backend, payload,
             out, timing, started, shots, seed)


@cli.command()
@click.option("--emit", "emit_kind", type=click.Choice(["qasm", "circuit-json"]), default=None)
@click.option("--shots", type=int, default=None)
@click.option("--seed", type=int, default=None)
@_out_option
@_timing_option
@click.argument("path", type=click.Path(dir_okay=False))
def prepare(emit_kind, shots, seed, out, timing: bool, path: str) -> None:
    """Synthesize the state-preparation circuit for a mass function.

    ``--emit`` writes the circuit: circuit JSON keeps the 2^n - 1
    multi-controlled RYs, QASM writes each tree level as one Gray-code
    multiplexor (2^n - 1 ``ry`` and 2^n - 2 ``cx`` lines in all, for any
    n); ``--shots`` with ``--seed`` samples the prepared state.
    """
    started = time.perf_counter()
    m = load_bba_document(path)
    if emit_kind is not None:
        if shots is not None and out is None:
            raise ValidationError("--emit plus --shots needs --out for the circuit file")
        circuit = synthesize_preparation_circuit(build_preparation_tree(m))
        _write(circuit_to_qasm(circuit) if emit_kind == "qasm" else circuit_to_json(circuit), out)
        if shots is None:
            return
        out = None  # the measurement record goes to stdout
    if shots is None:
        raise ValidationError("nothing to do: pass --emit and/or --shots")
    if seed is None:
        raise ValidationError("--shots needs --seed for reproducibility")
    state = quantum.prepare_bba_state(m)
    record = state.sample(shots, seed)
    payload = {
        "counts": {m.frame.format_subset(i): c for i, c in sorted(record.counts.items())},
        "frequencies": {
            m.frame.format_subset(i): c / shots for i, c in sorted(record.counts.items())
        },
    }
    _respond(("prepare", m, shots, seed), "prepare.sample", "quantum-circuit", payload,
             out, timing, started, shots, seed)


@cli.command()
@click.option("--shots", type=int, default=1024, show_default=True)
@click.option("--seed", type=int, default=7, show_default=True)
def demo(shots: int, seed: int) -> None:
    """Three-element walkthrough: prepare, extract, sample, compare.

    Uses the built-in showcase assignment over {A, B, C} whose
    plausibility of C is 2/3 and commonality of {B, C} is 4/9.
    """
    m = demo_mass_function()
    state = quantum.prepare_bba_state(m)
    click.echo("prepared amplitudes (statevector mode):")
    click.echo(f"  {'subset':<8} {'amplitude':>12} {'amp^2':>12} {'mass':>12} {'delta':>10}")
    for i in range(m.frame.size):
        amp = state.amps[i].real
        click.echo(
            f"  {m.frame.format_subset(i):<8} {amp:>12.9f} {amp * amp:>12.9f}"
            f" {m.masses[i]:>12.9f} {abs(amp * amp - m.masses[i]):>10.2e}"
        )

    pl_c = quantum.estimate_belief(m, quantum.BeliefQuery("pl", 0b100))
    q_bc = quantum.estimate_belief(m, quantum.BeliefQuery("q", 0b110))
    click.echo(f"\nextraction (statevector): Pl(C) = {pl_c:.6f}, q(BC) = {q_bc:.6f}")
    click.echo(f"exact targets:            Pl(C) = {2 / 3:.6f}, q(BC) = {4 / 9:.6f}")

    pl_s = quantum.estimate_belief(m, quantum.BeliefQuery("pl", 0b100), "shots", shots, seed)
    q_s = quantum.estimate_belief(m, quantum.BeliefQuery("q", 0b110), "shots", shots, seed + 1)
    sigma_pl = 3 * np.sqrt((2 / 3) * (1 / 3) / shots)
    sigma_q = 3 * np.sqrt((4 / 9) * (5 / 9) / shots)
    click.echo(f"\nsampled with shots={shots}, seed={seed}:")
    click.echo(
        f"  Pl(C) = {pl_s:.6f}  delta {abs(pl_s - 2 / 3):.2e}  (3-sigma bound {sigma_pl:.2e})"
    )
    click.echo(
        f"  q(BC) = {q_s:.6f}  delta {abs(q_s - 4 / 9):.2e}  (3-sigma bound {sigma_q:.2e})"
    )

    record = state.sample(shots, seed)
    click.echo(f"\npreparation sampling, shots={shots}, seed={seed}:")
    for i in range(m.frame.size):
        freq = record.frequency(i)
        click.echo(
            f"  {m.frame.format_subset(i):<8} count {record.counts.get(i, 0):>6}"
            f"  freq {freq:.4f}  mass {m.masses[i]:.4f}"
        )


@cli.command(name="trend-fb")
@_out_option
def trend_fb(out: str | None) -> None:
    """Similarity trend over a growing focal set, as CSV.

    Ten rows: the variable focal set walks {t1}, {t1,t2}, ..., up to the
    whole ten-element frame; distances appear as 1 - distance so every
    column reads as a similarity.
    """
    rows = trend_rows()
    header = "focal_set,one_minus_jousselme,fb_inner,fidelity,one_minus_euclidean,inner_bba"
    lines = [header]
    for label, values in rows:
        lines.append(label + "," + ",".join(f"{v:.12g}" for v in values))
    _write("\n".join(lines) + "\n", out)


def trend_rows() -> list[tuple[str, tuple[float, float, float, float, float]]]:
    _, variants, fixed = trend_mass_functions()
    rows = []
    for label, moving in variants:
        rows.append(
            (
                label,
                (
                    1.0 - dst.jousselme_distance(moving, fixed),
                    dst.fb_inner_product(moving, fixed),
                    dst.classical_fidelity(moving, fixed),
                    1.0 - dst.euclidean_distance(moving, fixed),
                    dst.inner_bba(moving, fixed),
                ),
            )
        )
    return rows


def main(argv: list[str] | None = None) -> None:
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        sys.exit(1)
    except click.Abort:
        sys.exit(1)
    except ValidationError as exc:
        _diagnostic(exc)
        sys.exit(1)
    except ComputationError as exc:
        _diagnostic(exc)
        sys.exit(2)
    except QBeliefError as exc:
        _diagnostic(exc)
        sys.exit(1)
    except (OSError, json.JSONDecodeError) as exc:
        _diagnostic(exc)
        sys.exit(3)


def _diagnostic(exc: Exception) -> None:
    click.echo(json.dumps({"error": type(exc).__name__, "message": str(exc)}), err=True)


if __name__ == "__main__":
    main()
