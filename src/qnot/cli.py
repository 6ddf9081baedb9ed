"""Command line front end.

Subcommands, each accepting only the options listed for it::

    qnot check      --input set.json [--gamma ... [--phases ...]]
    qnot synthesize --input set.json [--gamma ... [--phases ...]]
    qnot simulate   --input set.json --machine m.json [--shots N] [--seed S]
    qnot gamma-max  --input set.json
    qnot oracle     --input set.json [--policy equal|coordinate] [--phases ...]

Every subcommand also takes ``--output FILE`` and ``--format json|text``.
``--phases`` without ``--gamma`` on ``check`` or ``synthesize`` exits 2.

Exit codes: 0 success, 2 malformed input or an unwritable ``--output``,
3 linearly dependent set, 4 simulation contract violation, 5 closed form
vs oracle disagreement, 6 degenerate determinant (a dependent triple, or
one with a zero overlap).  JSON output is compact (no indentation);
``--format text`` is the human-readable form.

``check --gamma`` reports an infeasible point's ``violation`` as
``lambda_min`` of the constraint matrix ``M`` and ``null_miss``, how far
``M`` misses zero on the Gram's null space (feasible at most 1e-8).

Every subcommand decides a point by ``feasibility.point_rule``,
``lambda_min(M) >= -1e-9 min(gamma)``, which no environment variable moves,
so a point that ``check --gamma`` accepts or ``oracle`` prints builds with
``synthesize --gamma`` and ``simulate`` verifies it.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import serialize
from .errors import DegenerateDeterminant, LinearlyDependent, QnotError
from .feasibility import (
    ProbeSpec,
    check_exact_unitary,
    check_exact_with_probe,
    check_probabilistic,
)
from .optimizer import (
    GammaPolicy,
    TripleBoundInput,
    gamma_max_triple,
    grid_oracle_triple,
    search_gamma,
    standard_probe,
)
from .simulator import verify_machine
from .states import gram
from .synthesis import synthesize, synthesize_with

GAMMA_MAX_AGREEMENT = 1e-5


def _parse_floats(text: str) -> np.ndarray:
    try:
        return np.array([float(x) for x in text.split(",")])
    except ValueError:
        raise serialize.SchemaError(f"cannot parse float list {text!r}") from None


def _load_set(path: str):
    return serialize.state_set_from_dict(serialize.load(path))


def _load_machine(path: str):
    return serialize.machine_from_dict(serialize.load(path))


def _emit(doc: dict, args, text_lines=None) -> None:
    if args.format == "text" and text_lines is not None:
        payload = "\n".join(text_lines) + "\n"
    else:
        payload = serialize.dumps(doc)
    if args.output is not None:
        serialize.write(args.output, payload)
    else:
        sys.stdout.write(payload)


def _probe_from_args(args, gram_matrix):
    if args.phases is not None:
        return ProbeSpec.phase_vector(_parse_floats(args.phases))
    return standard_probe(gram_matrix)


def _requested_point(args, state_set):
    """``(gammas, probe)`` from ``--gamma`` and ``--phases``, or None."""
    if args.gamma is None:
        if args.phases is not None:
            raise serialize.SchemaError("--phases needs --gamma")
        return None
    return _parse_floats(args.gamma), _probe_from_args(args, gram(state_set))


def _gram_text(gm) -> list[str]:
    lines = ["overlaps (magnitude / phase):"]
    n = gm.n
    for i in range(n):
        row = "  ".join(f"{gm.magnitudes[i, j]:.6f}/{gm.phases[i, j]:+.6f}"
                        for j in range(n))
        lines.append("  " + row)
    return lines


def cmd_check(args) -> int:
    state_set = _load_set(args.input)
    gm = gram(state_set)
    doc = {}
    v1 = check_exact_unitary(state_set)
    doc["exact_unitary"] = serialize.verdict_to_dict(v1)
    v2 = check_exact_with_probe(state_set)
    doc["exact_with_probe"] = serialize.verdict_to_dict(v2)
    point = _requested_point(args, state_set)
    if point is not None:
        v3 = check_probabilistic(state_set, *point)
        doc["probabilistic"] = serialize.verdict_to_dict(v3)

    lines = _gram_text(gm)
    lines.append(f"exact via plain unitary: "
                 f"{'feasible' if v1.feasible else 'infeasible'}")
    lines.append(f"exact via unitary + probe: "
                 f"{'feasible' if v2.feasible else 'infeasible'}")
    if v2.feasible:
        ph = ", ".join(f"{p:.6f}" for p in v2.witness.phases)
        lines.append(f"  witness probe phases: [{ph}]")
    if "probabilistic" in doc:
        lines.append(f"probabilistic at requested efficiencies: "
                     f"{'feasible' if doc['probabilistic']['feasible'] else 'infeasible'}")
    _emit(doc, args, lines)
    return 0


def cmd_synthesize(args) -> int:
    state_set = _load_set(args.input)
    point = _requested_point(args, state_set)
    if point is not None:
        machine = synthesize_with(state_set, *point)
        doc = serialize.machine_to_dict(machine)
        lines = [f"machine on {machine.system_dim}x{machine.probe_dim} "
                 f"(system x probe), requested efficiencies honored"]
    else:
        machine, report = synthesize(state_set)
        doc = serialize.machine_to_dict(machine)
        doc["report"] = dataclasses.asdict(report)
        lines = [f"machine on {machine.system_dim}x{machine.probe_dim} "
                 f"(system x probe), path={report.path}, "
                 f"gamma={report.epsilon:.6f}"]
    _emit(doc, args, lines)
    return 0


def cmd_simulate(args) -> int:
    if not args.machine:
        raise serialize.SchemaError("simulate needs --machine")
    state_set = _load_set(args.input)
    machine = _load_machine(args.machine)
    report = verify_machine(machine, state_set, shots=args.shots,
                            seed=args.seed)
    doc = serialize.report_to_dict(report)
    lines = [f"unitarity error: {report.unitary_error:.3e}"]
    for entry in doc["states"]:
        lines.append(
            f"state {entry['i']}: p={entry['p']:.8f} "
            f"fidelity={entry['fidelity']:.10f} "
            f"{'ok' if entry['ok'] else 'FLAGGED'}")
    lines.append("all ok" if doc["all_ok"] else "contract violations found")
    _emit(doc, args, lines)
    return 0 if doc["all_ok"] else 4


def cmd_gamma_max(args) -> int:
    state_set = _load_set(args.input)
    gm = gram(state_set)
    inp = TripleBoundInput.from_gram(gm)
    probe = inp.probe()
    closed = gamma_max_triple(inp)
    oracle = grid_oracle_triple(gm, probe)
    diff = abs(closed - oracle)
    boundary = check_probabilistic(state_set, oracle, probe)
    doc = {
        "gamma_max": closed,
        "method": "closed_form",
        "probe_phases": [float(p) for p in probe.phases],
        "lambda_min_at_boundary": boundary.lambda_min,
        "oracle_gamma": oracle,
        "difference": diff,
        "agreement": diff <= GAMMA_MAX_AGREEMENT,
    }
    lines = [f"closed form : {closed:.10f}",
             f"psd oracle  : {oracle:.10f}",
             f"difference  : {diff:.3e}"]
    _emit(doc, args, lines)
    return 0 if diff <= GAMMA_MAX_AGREEMENT else 5


def cmd_oracle(args) -> int:
    state_set = _load_set(args.input)
    gm = gram(state_set)
    policy = GammaPolicy(args.policy)
    probe = _probe_from_args(args, gm)
    result = search_gamma(state_set, policy, probe)
    doc = {
        "gammas": [float(g) for g in result.gammas],
        "mean_gamma": result.mean_gamma,
        "method": policy.value,
        "probe_phases": [float(p) for p in result.probe.phases],
        "lambda_min_at_boundary": result.boundary_lambda_min,
        "iterations": result.iterations,
    }
    if policy is GammaPolicy.EQUAL:
        doc["gamma_max"] = float(result.gammas[0])
    lines = [f"gammas: {np.array2string(result.gammas, precision=8)}",
             f"mean  : {result.mean_gamma:.8f}"]
    _emit(doc, args, lines)
    return 0


_OPTIONS = {
    "--gamma": {"help": "comma-separated efficiencies"},
    "--phases": {"help": "comma-separated probe phases (radians); "
                         "defaults to the phases of the probe check"},
    "--machine": {"help": "machine JSON file"},
    "--shots": {"type": int, "default": 100_000},
    "--seed": {"type": int, "default": 42},
    "--policy": {"choices": ("equal", "coordinate"), "default": "equal"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnot",
        description="Feasibility, synthesis, and simulation of exact and "
                    "probabilistic spin-flip / conjugation machines.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, func, help_text, *options):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="state-set JSON file")
        p.add_argument("--output", help="write the result document here")
        p.add_argument("--format", choices=("json", "text"), default="json")
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
        p.set_defaults(func=func)

    add_command("check", cmd_check, "run the feasibility checks",
                "--gamma", "--phases")
    add_command("synthesize", cmd_synthesize, "build a machine",
                "--gamma", "--phases")
    add_command("simulate", cmd_simulate, "verify a machine on a state set",
                "--machine", "--shots", "--seed")
    add_command("gamma-max", cmd_gamma_max,
                "triple efficiency bound, closed form vs oracle")
    add_command("oracle", cmd_oracle, "search feasible efficiencies",
                "--phases", "--policy")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DegenerateDeterminant as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 6
    except LinearlyDependent as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (QnotError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
