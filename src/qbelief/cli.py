"""Command-line surface.

Exit codes: 0 ok, 1 validation error, 2 computation error (conflict,
singularity, failed postselection), 3 I/O error (a file that cannot be
read, or a document that is not UTF-8 JSON).  All randomness flows
through explicit ``--seed`` flags; identical inputs, seeds and shot
counts produce byte-identical result documents.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import time
from contextlib import nullcontext
from typing import NoReturn

import numpy as np

from . import dst, quantum
from .documents import (
    dense_subset_labels,
    dumps_result,
    inputs_digest,
    load_bba_document,
    result_document,
    subset_labels,
)
from .dst.mass import MassFunction, demo_mass_function, trend_mass_functions
from .errors import ComputationError, QBeliefError, ValidationError
from .qasm import circuit_to_qasm, preparation_to_json
from .quantum import MEoBConfig
from .quantum.prepare import build_preparation_tree

BACKENDS = ("classical", "quantum-oracle", "quantum-circuit")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        """Usage errors exit 1: argparse's own 2 is the computation-error code."""
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _file(path: str) -> str:
    """A PATH or ``--out`` value; a directory is a usage error."""
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"{path!r} is a directory")
    return path


def _required(flag: str, *choices: str) -> tuple[str, dict]:
    return flag, {"choices": choices, "required": True}


_DEFAULT = "[default: %(default)s]"
_BACKEND = ("--backend", {"choices": BACKENDS, "default": "classical", "help": _DEFAULT})
_OUT = ("--out", {"type": _file, "metavar": "FILE"})
_TIMING = ("--timing", {"action": "store_true", "help": "Attach wall time (breaks byte-identity)."})
_SHOTS = ("--shots", {"type": int})
_SEED = ("--seed", {"type": int})
_HELP = {"action": "help", "help": "Show this message and exit."}

_PARSER = _Parser(prog="qbelief", allow_abbrev=False, add_help=False,
                  description="Belief-function computation on simulated quantum circuits.")
_PARSER.add_argument("--help", **_HELP)
_COMMANDS = _PARSER.add_subparsers(metavar="COMMAND", required=True)


def _command(*options: tuple[str, dict], paths: tuple[str, ...] = ("path",)):
    """Register the decorated function, run on the parsed namespace, as a subcommand."""

    def register(run):
        doc = inspect.cleandoc(run.__doc__ or "")  # None under python -OO
        name = run.__name__.replace("_", "-")
        sub = _COMMANDS.add_parser(
            name, help=doc.partition("\n\n")[0], description=doc,
            formatter_class=argparse.RawDescriptionHelpFormatter, allow_abbrev=False,
            add_help=False)
        for flag, spec in options:
            sub.add_argument(flag, **spec)
        for path in paths:
            sub.add_argument(path, type=_file, metavar=path.upper())
        sub.add_argument("--help", **_HELP)
        sub.set_defaults(run=run)
        return run

    return register


def _meob_config(backend: str) -> MEoBConfig:
    return MEoBConfig(backend="circuit" if backend == "quantum-circuit" else "oracle")


_SLICE = 1 << 20  # characters per write


def _output(out: str | None):
    """The file ``out``, opened for writing, or stdout."""
    return open(out, "w", encoding="utf-8") if out else nullcontext(sys.stdout)


def _write(text: str, out: str | None) -> None:
    """Write ``text`` to the file ``out``, or to stdout, in slices, so that
    no encoded copy of the whole text is held."""
    with _output(out) as stream:
        for start in range(0, len(text), _SLICE):
            stream.write(text[start:start + _SLICE])


def _respond(
    args: argparse.Namespace,
    inputs: tuple[str | int | MassFunction | None, ...],
    operation: str,
    backend: str | None,
    payload: dict,
    shots: int | None = None,
    seed: int | None = None,
) -> None:
    """Shared tail of the result commands: digest the inputs, attach the
    ``--timing`` wall time since ``args.started``, build the result
    document and write it to ``args.out``."""
    digest = inputs_digest(*inputs)
    wall_time_s = time.perf_counter() - args.started if args.timing else None
    doc = result_document(operation, digest, backend, payload, shots, seed, wall_time_s)
    _write(dumps_result(doc), args.out)


@_command()
def validate(args: argparse.Namespace) -> None:
    """Check a mass-function document and report its shape."""
    m = load_bba_document(args.path)
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
    print(f"valid, {m.focal.size} focal sets, {shape} "
          f"(mass sum {m.masses.sum():.12g}, n={m.frame.n})")


@_command(_required("--kind", "bel", "pl", "q", "fbba", "betm"), _BACKEND, _OUT, _TIMING)
def transform(args: argparse.Namespace) -> None:
    """Belief-function transform of one mass function.

    Classical backends print the full vector; quantum backends print the
    normalized state amplitudes, which carry the vector only up to scale.
    """
    kind, backend = args.kind, args.backend
    m = load_bba_document(args.path)
    labels = dense_subset_labels(m.frame)

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
    _respond(args, ("transform", kind, backend, m), "transform." + kind, backend, payload)


@_command(_required("--rule", "ccr", "dcr", "dempster"), _BACKEND, _OUT, _TIMING,
          paths=("path1", "path2"))
def combine(args: argparse.Namespace) -> None:
    """Combine two mass functions; quantum Dempster is quantum conjunctive
    combination plus the classical renormalization step."""
    rule, backend = args.rule, args.backend
    m1 = load_bba_document(args.path1)
    m2 = load_bba_document(args.path2)
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
        "subsets": dense_subset_labels(m1.frame),
        "masses": combined.masses,
    }
    _respond(args, ("combine", rule, backend, m1, m2), "combine." + rule, backend, payload)


@_command(_required("--measure", "jousselme", "fb-inner", "fidelity", "euclidean", "inner-bba"),
          _BACKEND, _OUT, _TIMING, paths=("path1", "path2"))
def similarity(args: argparse.Namespace) -> None:
    """Similarity or distance between two mass functions.

    Quantum backends exist for the swap-test measures (fb-inner,
    fidelity); quadratic-form measures subtract mass vectors and have no
    circuit formulation.
    """
    measure, backend = args.measure, args.backend
    m1 = load_bba_document(args.path1)
    m2 = load_bba_document(args.path2)
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
        value = quantum.fidelity_qc(m1, m2)
    else:
        raise ValidationError(f"measure {measure!r} has no quantum backend")
    _respond(args, ("similarity", measure, backend, m1, m2), "similarity." + measure, backend,
             {"value": value})


@_command(_required("--kind", "js", "fb"), _OUT, _TIMING)
def entropy(args: argparse.Namespace) -> None:
    """Total-uncertainty measure of a mass function, in bits."""
    m = load_bba_document(args.path)
    value = dst.js_entropy(m) if args.kind == "js" else dst.fb_entropy(m)
    _respond(args, ("entropy", args.kind, m), "entropy." + args.kind, None, {"bits": value})


@_command(_required("--method", "ppt", "ptm"), _BACKEND,
          ("--shots", {"type": int, "help": "Sample PTM extraction circuits."}), _SEED, _OUT,
          _TIMING)
def prob(args: argparse.Namespace) -> None:
    """Probability transform of a mass function over the frame elements."""
    method, backend, shots, seed = args.method, args.backend, args.shots, args.seed
    if shots is not None and (method != "ptm" or backend == "classical"):
        raise ValidationError("--shots samples only --method ptm on a quantum backend")
    m = load_bba_document(args.path)
    if backend == "classical":
        values = dst.betp(m) if method == "ppt" else dst.pl_p(m)
    elif method == "ppt":
        values = quantum.ppt_qc(m, _meob_config(backend))
    else:
        if shots is not None and seed is None:
            raise ValidationError("--shots needs --seed for reproducibility")
        values = quantum.ptm_qc(m, shots, seed)
    payload = {"elements": list(m.frame.elements), "probabilities": values}
    _respond(args, ("prob", method, backend, m, shots, seed), "prob." + method, backend,
             payload, shots, seed)


@_command(("--emit", {"choices": ("qasm", "circuit-json")}), _SHOTS, _SEED, _OUT, _TIMING)
def prepare(args: argparse.Namespace) -> None:
    """Synthesize the state-preparation circuit for a mass function.

    ``--emit`` writes the circuit straight from the preparation tree:
    QASM writes each level as one Gray-code multiplexor (2^n - 1 ``ry``
    and 2^n - 2 ``cx`` lines in all, for any n), and circuit JSON spells
    the levels out as 2^n - 1 multi-controlled RYs, written as they are
    made, in memory that does not grow with the text; ``--shots`` with
    ``--seed`` samples the prepared state.
    """
    emit_kind, shots, seed = args.emit, args.shots, args.seed
    m = load_bba_document(args.path)
    if emit_kind is not None:
        if shots is not None and args.out is None:
            raise ValidationError("--emit plus --shots needs --out for the circuit file")
        tree = build_preparation_tree(m)
        if emit_kind == "qasm":
            _write(circuit_to_qasm(tree), args.out)
        else:
            with _output(args.out) as stream:
                preparation_to_json(tree, stream.write)
        if shots is None:
            return
        args.out = None  # the measurement record goes to stdout
    if shots is None:
        raise ValidationError("nothing to do: pass --emit and/or --shots")
    if seed is None:
        raise ValidationError("--shots needs --seed for reproducibility")
    state = quantum.prepare_bba_state(m)
    record = state.sample(shots, seed)
    outcomes = sorted(record.counts)
    counts = [record.counts[i] for i in outcomes]
    labels = subset_labels(m.frame, np.array(outcomes, dtype=np.int64))
    payload = {
        "counts": dict(zip(labels, counts)),
        "frequencies": {label: c / shots for label, c in zip(labels, counts)},
    }
    _respond(args, ("prepare", m, shots, seed), "prepare.sample", "quantum-circuit", payload,
             shots, seed)


@_command(("--shots", {"type": int, "default": 1024, "help": _DEFAULT}),
          ("--seed", {"type": int, "default": 7, "help": _DEFAULT}), paths=())
def demo(args: argparse.Namespace) -> None:
    """Three-element walkthrough: prepare, extract, sample, compare.

    Uses the built-in showcase assignment over {A, B, C} whose
    plausibility of C is 2/3 and commonality of {B, C} is 4/9.
    """
    shots, seed = args.shots, args.seed
    m = demo_mass_function()
    state = quantum.prepare_bba_state(m)
    # sample before printing, so a refused --shots or --seed prints no partial report
    pl_s = quantum.estimate_belief(m, quantum.BeliefQuery("pl", 0b100), shots, seed)
    q_s = quantum.estimate_belief(m, quantum.BeliefQuery("q", 0b110), shots, seed + 1)
    record = state.sample(shots, seed)

    print("prepared amplitudes (statevector mode):")
    print(f"  {'subset':<8} {'amplitude':>12} {'amp^2':>12} {'mass':>12} {'delta':>10}")
    for i in range(m.frame.size):
        amp = state.amps[i]
        print(
            f"  {m.frame.format_subset(i):<8} {amp:>12.9f} {amp * amp:>12.9f}"
            f" {m.masses[i]:>12.9f} {abs(amp * amp - m.masses[i]):>10.2e}"
        )

    pl_c = quantum.estimate_belief(m, quantum.BeliefQuery("pl", 0b100))
    q_bc = quantum.estimate_belief(m, quantum.BeliefQuery("q", 0b110))
    print(f"\nextraction (statevector): Pl(C) = {pl_c:.6f}, q(BC) = {q_bc:.6f}")
    print(f"exact targets:            Pl(C) = {2 / 3:.6f}, q(BC) = {4 / 9:.6f}")

    sigma_pl = 3 * np.sqrt((2 / 3) * (1 / 3) / shots)
    sigma_q = 3 * np.sqrt((4 / 9) * (5 / 9) / shots)
    print(f"\nsampled with shots={shots}, seed={seed}:")
    print(f"  Pl(C) = {pl_s:.6f}  delta {abs(pl_s - 2 / 3):.2e}  (3-sigma bound {sigma_pl:.2e})")
    print(f"  q(BC) = {q_s:.6f}  delta {abs(q_s - 4 / 9):.2e}  (3-sigma bound {sigma_q:.2e})")

    print(f"\npreparation sampling, shots={shots}, seed={seed}:")
    for i in range(m.frame.size):
        freq = record.frequency(i)
        print(
            f"  {m.frame.format_subset(i):<8} count {record.counts.get(i, 0):>6}"
            f"  freq {freq:.4f}  mass {m.masses[i]:.4f}"
        )


@_command(_OUT, paths=())
def trend_fb(args: argparse.Namespace) -> None:
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
    _write("\n".join(lines) + "\n", args.out)


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
    tokens = sys.argv[1:] if argv is None else argv
    # a leading command name goes straight to its own parser, which the top
    # level would hand every later token to; --help, a missing or unknown
    # command and options before the command are the top level's
    command = _COMMANDS.choices.get(tokens[0]) if tokens else None
    owner, rest = (command, tokens[1:]) if command else (_PARSER, tokens)
    args, extra = owner.parse_known_args(rest)
    if extra:
        owner.error(f"unrecognized arguments: {' '.join(extra)}")
    args.started = time.perf_counter()
    try:
        args.run(args)
        sys.stdout.flush()  # a closed pipe is an I/O error here, not at interpreter exit
    except ComputationError as exc:
        _diagnostic(exc)
        sys.exit(2)
    except QBeliefError as exc:
        _diagnostic(exc)
        sys.exit(1)
    # a file that cannot be read, or a document that is not JSON or not UTF-8
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        _diagnostic(exc)
        sys.exit(3)


def _diagnostic(exc: Exception) -> None:
    print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)


if __name__ == "__main__":
    main()
