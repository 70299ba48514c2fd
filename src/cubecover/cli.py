"""Command-line surface for the library.

Exit codes: 0 success / property holds, 1 property fails (not essential,
refutation failed soundly, no separated vertex), 2 precondition or hypothesis
failure, 3 input error, 4 internal error (an unexpected exception; the
traceback goes to stderr).  Every command is deterministic given --seed; when
--seed is omitted a random seed is drawn and logged to stderr so the run can
be replayed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
from fractions import Fraction
from typing import NamedTuple

from . import anticonc, construct, decompose, plank, refute
from .core import (
    CapExceededError,
    Params,
    SystemFormatError,
    format_rational,
    parse_rational,
    parse_system,
    unit_row,
)
from .essential import verify_essential

class CommandResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


def _read_input(path: str | None) -> str:
    if path is None:
        raise SystemFormatError("this command needs --input (a file path, or '-' for stdin)")
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        # A missing file, a directory, no permission: the input's fault, not a
        # bug.  str(exc) keeps the errno and path of the message.
        raise SystemFormatError(str(exc)) from exc


def _read_document(path: str | None, **kinds: str) -> dict:
    """Read a JSON object from ``path`` that holds every key of ``kinds``.

    A key of kind "list" must hold a list, one of kind "matrix" a list of
    lists; a "scalar" is checked where it is parsed.  A non-object document,
    a missing key or a wrong kind is an input error.
    """
    doc = json.loads(_read_input(path))
    if not isinstance(doc, dict):
        raise SystemFormatError("top-level JSON value must be an object")
    for key, kind in kinds.items():
        if key not in doc:
            raise SystemFormatError(f"missing key {key!r}")
        value = doc[key]
        if kind != "scalar" and not isinstance(value, list):
            raise SystemFormatError(f"{key} must be a list, got {type(value).__name__}")
        if kind == "matrix" and not all(isinstance(row, list) for row in value):
            raise SystemFormatError(f"{key} must be a list of lists")
    return doc


def _rationals(values: list, key: str) -> list[Fraction]:
    """Each entry of ``values`` as a rational "p" or "p/q" (``parse_rational``):
    any other entry, a JSON number among them, is an input error at ``key[j]``."""
    try:
        return [parse_rational(c) for c in values]
    except SystemFormatError:
        # Parse again, naming each entry, only once one has failed.
        for j, c in enumerate(values):
            parse_rational(c, where=f"{key}[{j}]")
        raise


def _numbers(values: list, key: str) -> list[float]:
    """Each entry of ``values`` as a float: it must be a finite JSON number,
    not a bool, null, string or list."""
    out = []
    for j, c in enumerate(values):
        try:
            x = float(c) if type(c) in (int, float) else math.nan
        except OverflowError:  # an int beyond the float range
            x = math.inf
        if not math.isfinite(x):
            raise SystemFormatError(f"{key}[{j}]: bad number {c!r} (expected a finite JSON number)")
        out.append(x)
    return out


def _emit(doc: dict, fmt: str) -> str:
    if fmt == "csv":
        lines = []
        for key, value in doc.items():
            if isinstance(value, (dict, list)):
                value = json.dumps(value)
            lines.append(f"{key},{value}")
        return "\n".join(lines) + "\n"
    return json.dumps(doc, indent=2) + "\n"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Parsing does not modify the parser (every call gets a fresh namespace),
    so all calls of run_command share this one.
    """
    parser = argparse.ArgumentParser(
        prog="cubecover",
        description="Verify, construct, decompose and refute hyperplane covers of {0,1}^n.",
    )
    sub = parser.add_subparsers(dest="command")

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", help="input JSON file, or '-' for stdin")
        p.add_argument("--seed", type=int, default=None, help="RNG seed (random and logged if omitted)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--cap", type=int, default=None, help="enumeration cap override")
        p.add_argument("--trials", type=int, default=None, help="sampling budget override")

    p = sub.add_parser("verify", help="decide the essential-cover axioms")
    common(p)

    p = sub.add_parser("construct-lr", help="emit the n/2+1 reference cover")
    common(p)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("decompose", help="run the first or second decomposition")
    common(p)
    p.add_argument("--s", type=int, default=None, help="scale count S")
    p.add_argument("--w", type=str, default=None, help="column budget W (rational)")
    p.add_argument("--gamma", type=str, default=None, help="absorption exponent (rational in (0,1])")
    p.add_argument("--stage", choices=("first", "second"), default="second")

    p = sub.add_parser("bang", help="sign vector separated from prescribed targets")
    common(p)

    p = sub.add_parser("find-uncovered", help="uncovered vertex for a small-column-norm system")
    common(p)

    p = sub.add_parser("atom-prob", help="P(<x,v> = a) for uniform x")
    common(p)
    p.add_argument("--mode", choices=("exact", "sampled"), default="exact")

    p = sub.add_parser("scales", help="greedy scale partition of a vector")
    common(p)
    p.add_argument("--target-s", type=int, default=None)

    p = sub.add_parser("window", help="concentration-window probability of a unit row")
    common(p)
    p.add_argument("--c0", type=str, default=None, help="window constant (>= 4.706)")
    p.add_argument("--mode", choices=("exact", "sampled"), default="exact")

    p = sub.add_parser("refute", help="assemble an uncovered vertex or report the failed stage")
    common(p)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--w", type=str, default=None)
    p.add_argument("--c5", type=str, default=None)
    p.add_argument("--c", type=str, default=None, help="multiplier for the default W shape")
    p.add_argument("--gamma", type=str, default=None)
    p.add_argument("--strict-hypotheses", action="store_true")

    p = sub.add_parser("bounds", help="evaluate the pipeline hypothesis inequalities")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--w", type=str, required=True)

    return parser


def _params_from(args: argparse.Namespace, seed: int) -> Params:
    kwargs: dict = {"seed": seed}
    if getattr(args, "cap", None) is not None:
        kwargs["enumeration_cap"] = args.cap
    if getattr(args, "trials", None) is not None:
        kwargs["sample_cap"] = args.trials
    if getattr(args, "s", None) is not None:
        kwargs["S"] = args.s
    if getattr(args, "w", None) is not None:
        kwargs["W"] = parse_rational(args.w)
    if getattr(args, "gamma", None) is not None:
        kwargs["gamma"] = parse_rational(args.gamma)
    if getattr(args, "c5", None) is not None:
        kwargs["C5"] = parse_rational(args.c5)
    if getattr(args, "c", None) is not None:
        kwargs["w_multiplier"] = parse_rational(args.c)
    if getattr(args, "strict_hypotheses", False):
        kwargs["require_hypotheses"] = True
    return Params(**kwargs)


def _cmd_verify(args, params) -> tuple[int, dict]:
    system = parse_system(_read_input(args.input))
    report = verify_essential(system, params)
    return (0 if report.is_essential else 1), report.to_json_dict()


def _cmd_construct_lr(args, params) -> tuple[int, dict]:
    system = construct.lr_cover(args.n)
    return 0, system.to_json_dict()


def _cmd_decompose(args, params) -> tuple[int, dict]:
    system = parse_system(_read_input(args.input))
    s = args.s if args.s is not None else refute.derived_scale_count(system.n, params)
    w = params.W if params.W is not None else refute.derived_column_budget(system.n, system.k, params)
    if args.stage == "first":
        d1 = decompose.first_decomposition(system.rows, s, w, params)
        ok = decompose.check_decomposition1(system.rows, d1, params)
        doc = {
            "stage": "first",
            "S": s,
            "W": format_rational(Fraction(w)),
            "L1": list(d1.L1),
            "L2": list(d1.L2),
            "M1": list(d1.M1),
            "M2": list(d1.M2),
            "row_norm_sq": [format_rational(q) for q in d1.row_norm_sq],
            "renorm_counts": list(d1.renorm_counts),
            "scale_partitions": {str(i): p.to_json_dict() for i, p in d1.scale_partitions.items()},
            "invariants_ok": ok,
        }
        return 0, doc
    d2 = decompose.second_decomposition(system, s, w, params)
    doc = d2.to_json_dict()
    doc["stage"] = "second"
    doc["invariants_ok"] = decompose.check_decomposition2(system, d2, params)
    return (0 if d2.hypotheses_ok else 2), doc


def _cmd_bang(args, params) -> tuple[int, dict]:
    doc = _read_document(args.input, m="matrix", zeta="list", theta="list")
    m = [_numbers(row, f"m[{i}]") for i, row in enumerate(doc["m"])]
    sv = plank.bang_signs(m, _numbers(doc["zeta"], "zeta"), _numbers(doc["theta"], "theta"),
                          seed=params.seed, float_tol=params.float_tol)
    return 0, {"signs": list(sv.signs), "flips": sv.flips, "objective": sv.objective}


def _cmd_find_uncovered(args, params) -> tuple[int, dict]:
    doc = _read_document(args.input, rows="matrix", targets="list")
    rows = [unit_row(_rationals(r, f"rows[{i}]")) for i, r in enumerate(doc["rows"])]
    targets = _rationals(doc["targets"], "targets")
    check = plank.check_small_norm_precondition(rows)
    try:
        vertex, attempts = plank.find_uncovered_small_norm(rows, targets, params, check=check)
    except plank.PlankPreconditionError as exc:
        return 2, {"error": str(exc), "check": exc.check.to_json_dict()}
    except plank.SampleCapError as exc:
        return 1, {"error": str(exc), "attempts": exc.attempts}
    return 0, {"vertex": vertex.to_json(), "attempts": attempts, "check": check.to_json_dict()}


def _cmd_atom_prob(args, params) -> tuple[int, dict]:
    doc = _read_document(args.input, vector="list", a="scalar")
    vector = _rationals(doc["vector"], "vector")
    a = parse_rational(doc["a"], where="a")
    trials = params.sample_cap if args.trials is None else args.trials
    # Rejects the zero vector, before any probability is computed.
    bound = anticonc.littlewood_offord_bound(vector)
    prob = anticonc.atom_probability(vector, a, mode=args.mode, trials=trials,
                                     seed=params.seed, params=params)
    return 0, {
        "probability": format_rational(prob),
        "probability_float": float(prob),
        "littlewood_offord_bound": bound,
        "mode": args.mode,
    }


def _cmd_scales(args, params) -> tuple[int, dict]:
    doc = _read_document(args.input, vector="list")
    vector = _rationals(doc["vector"], "vector")
    try:
        part = anticonc.scale_partition(vector, target_S=args.target_s, params=params)
    except anticonc.ScalePartitionError as exc:
        return 1, {"error": str(exc)}
    return 0, part.to_json_dict()


def _cmd_window(args, params) -> tuple[int, dict]:
    doc = _read_document(args.input, vector="list")
    row = unit_row(_rationals(doc["vector"], "vector"))
    c0 = parse_rational(args.c0) if args.c0 is not None else None
    trials = params.sample_cap if args.trials is None else args.trials
    prob, ok = anticonc.concentration_window_prob(
        row, C0=c0, mode=args.mode, trials=trials, seed=params.seed, params=params
    )
    return (0 if ok else 1), {
        "probability": format_rational(prob),
        "probability_float": float(prob),
        "ok": ok,
    }


def _cmd_refute(args, params) -> tuple[int, dict]:
    system = parse_system(_read_input(args.input))
    outcome = refute.attempt_refutation(system, params)
    return (0 if outcome.status == "uncovered" else 1), outcome.to_json_dict()


def _cmd_bounds(args, params) -> tuple[int, dict]:
    n, k, s = args.n, args.k, args.s
    w = parse_rational(args.w)
    (h1_lhs, h1_rhs), (h2_lhs, h2_rhs) = decompose.hypothesis_sides(n, k, s, w, params)
    # Pipeline-shaped small-norm product with alpha ~ 16k^2/n, beta ~ 1/W, ell ~ k.
    small_norm_lhs = 2.0 * (16.0 * k * k / n) * (1.0 / float(w)) * math.log(4.0 * k)
    w_floor = refute.column_budget_floor(n, k)
    inequalities = (
        ("column-budget: C3*k*S*W <= n/8", h1_lhs, h1_rhs, h1_lhs <= h1_rhs),
        ("row-count: k^5*(S*W)^2 <= C4^5*n^3", h2_lhs, h2_rhs, h2_lhs <= h2_rhs),
        ("small-norm (pipeline shape): 2*(16k^2/n)*(1/W)*log(4k) <= 1", small_norm_lhs, 1.0, small_norm_lhs <= 1.0),
        ("window floor: W >= log(n)*k^2/n", w, w_floor, w >= w_floor),
    )
    return 0, {
        "n": n,
        "k": k,
        "S": s,
        "W": format_rational(w),
        "inequalities": [
            {"name": name, "lhs": float(lhs), "rhs": float(rhs), "ok": ok} for name, lhs, rhs, ok in inequalities
        ],
    }


_DISPATCH = {
    "verify": _cmd_verify,
    "construct-lr": _cmd_construct_lr,
    "decompose": _cmd_decompose,
    "bang": _cmd_bang,
    "find-uncovered": _cmd_find_uncovered,
    "atom-prob": _cmd_atom_prob,
    "scales": _cmd_scales,
    "window": _cmd_window,
    "refute": _cmd_refute,
    "bounds": _cmd_bounds,
}


def run_command(argv: list[str]) -> CommandResult:
    """Parse argv, dispatch, and return (exit_code, stdout JSON, stderr text)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        ok = exc.code in (0, None)
        return CommandResult(0 if ok else 3, "", "" if ok else "argument parsing failed\n")
    if args.command is None or args.command not in _DISPATCH:
        return CommandResult(3, "", parser.format_usage())
    stderr_lines: list[str] = []
    seed = args.seed
    if seed is None:
        seed = random.SystemRandom().getrandbits(63)
        stderr_lines.append(f"seed: {seed} (random; pass --seed {seed} to replay)")
    seeded_commands = {"bang", "find-uncovered", "refute", "atom-prob", "window"}
    try:
        params = _params_from(args, seed)
        code, doc = _DISPATCH[args.command](args, params)
        if args.command in seeded_commands:
            doc.setdefault("seed", seed)
        return CommandResult(code, _emit(doc, args.format), "\n".join(stderr_lines) + ("\n" if stderr_lines else ""))
    except (SystemFormatError, json.JSONDecodeError) as exc:
        stderr_lines.append(f"input error: {exc}")
        return CommandResult(3, "", "\n".join(stderr_lines) + "\n")
    except CapExceededError as exc:
        stderr_lines.append(f"precondition failure: {exc}")
        return CommandResult(2, "", "\n".join(stderr_lines) + "\n")
    except ValueError as exc:
        stderr_lines.append(f"input error: {exc}")
        return CommandResult(3, "", "\n".join(stderr_lines) + "\n")
    except Exception:
        # Exit 1 means "property fails"; a bug must not read as a verdict.
        # Imported here: traceback pulls in textwrap, +0.4 MB RSS at start-up.
        import traceback

        stderr_lines.append("internal error\n" + traceback.format_exc().rstrip("\n"))
        return CommandResult(4, "", "\n".join(stderr_lines) + "\n")


def main() -> None:
    result = run_command(sys.argv[1:])
    if result.stdout:
        sys.stdout.write(result.stdout)
    if result.stderr:
        sys.stderr.write(result.stderr)
    sys.exit(result.exit_code)


if __name__ == "__main__":
    main()
