"""Command-line surface for the library.

Exit codes: 0 success / property holds, 1 property fails (not essential,
refutation failed soundly, no separated vertex), 2 precondition or hypothesis
failure, 3 input error, 4 internal error (an unexpected exception; the
traceback goes to stderr).  Every command is deterministic given --seed.  Only
the commands that draw random numbers (``SEEDED_COMMANDS``) read the seed;
when one of them runs without --seed, a random seed is drawn and logged to
stderr so the run can be replayed, and the output records it.  The others
ignore --seed and log nothing.

argv is parsed in up to two steps.  First ``_fast_args`` reads well-formed
argv (every token an exact option of the command, given once, with a value
that converts) into the namespace the command's subparser would give, without
argparse.  Any other argv goes to the top-level parser, which hands the
command's arguments to that subparser, so that help, usage and errors read
as the top-level parser gives them.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

from . import anticonc, construct, decompose, plank, refute
from .core import (
    CapExceededError,
    Params,
    SystemFormatError,
    _parse_entries,
    cleared_block,
    format_rational,
    parse_object,
    parse_rational,
    parse_system,
    wire,
)
from .essential import verify_essential

# The commands that draw random numbers: only these read --seed.
SEEDED_COMMANDS = frozenset({"bang", "find-uncovered", "refute", "atom-prob", "window"})

# refute and bounds report floats of their numeric options: each option must
# be at most this in magnitude, and --w at least its reciprocal, so that
# every float they print stays finite.
OPTION_LIMIT = 10**30


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
    lists; a "scalar" is checked where it is parsed.  Bad JSON, a non-object
    document, a missing key (``core.parse_object``) or a wrong kind is an input error.
    """
    doc = parse_object(_read_input(path), kinds)
    for key, kind in kinds.items():
        value = doc[key]
        if kind != "scalar" and not isinstance(value, list):
            raise SystemFormatError(f"{key} must be a list, got {type(value).__name__}")
        if kind == "matrix" and not all(isinstance(row, list) for row in value):
            raise SystemFormatError(f"{key} must be a list of lists")
    return doc


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


def _nonzero_row(values: list, where: str) -> tuple[Fraction, ...]:
    """The rationals ``values``, a row that the command reads as a unit
    vector: a zero row is an input error that names its place ``where``."""
    coeffs = _parse_entries(values, lambda j: f"{where}[{j}]", {})
    if not any(coeffs):
        raise SystemFormatError(f"{where}: cannot unit-normalize a zero row")
    return coeffs


def _ascii_int(text: str) -> int:
    """An integer option: ``int(text)`` on ASCII text without "_", whose
    digits, sign and whitespace ``int`` reads as it does everywhere else; any
    other text (a non-ASCII digit such as "\u0666", or "1_0") is an error."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII integer: {text!r}")
    return int(text)


# argparse names the type of a bad value by its __name__: "invalid int value".
_ascii_int.__name__ = "int"


def _emit(doc: dict, fmt: str) -> str:
    """The document as indented JSON, or as CSV: one key,value line per key,
    a scalar or a rational as its text and any other value as compact JSON."""
    if fmt == "csv":
        lines = []
        for key, value in doc.items():
            if isinstance(value, Fraction):
                value = format_rational(value)  # also past the int digit limit, unlike str()
            elif not (value is None or isinstance(value, (str, int, float))):
                value = json.dumps(value, default=wire)
            lines.append(f"{key},{value}")
        return "\n".join(lines) + "\n"
    return json.dumps(doc, indent=2, default=wire) + "\n"


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser],
                             dict[str, dict[str, argparse.Action]]]:
    """The command-line parser, its subparsers by command name, and each
    command's options (option string to ``Action``), built once per process.

    Parsing does not modify the parsers (every call gets a fresh namespace),
    so all calls of run_command share these.
    """
    parser = argparse.ArgumentParser(
        prog="cubecover",
        description="Verify, construct, decompose and refute hyperplane covers of {0,1}^n.",
    )
    sub = parser.add_subparsers(dest="command")
    options: dict[str, dict[str, argparse.Action]] = {}

    reads = {
        "--input": {"help": "input JSON file, or '-' for stdin"},
        "--cap": {"type": _ascii_int, "default": None, "help": "enumeration cap override"},
        "--trials": {"type": _ascii_int, "default": None, "help": "sampling budget override"},
    }

    def command(name: str, help: str, *flags: str) -> Callable[..., None]:
        """Add the subparser ``name`` with --seed and --format, and each of
        ``flags`` (--input, --cap, --trials) that it reads; return a function
        that adds one more option to it.  Every option goes into its table."""
        p = sub.add_parser(name, help=help)
        table = options[name] = {}

        def add(flag: str, **kwargs) -> None:
            table[flag] = p.add_argument(flag, **kwargs)

        add("--seed", type=_ascii_int, default=None, help="RNG seed (random and logged if omitted)")
        add("--format", choices=("json", "csv"), default="json")
        for flag in flags:
            add(flag, **reads[flag])
        return add

    command("verify", "decide the essential-cover axioms", "--input", "--cap")

    add = command("construct-lr", "emit the n/2+1 reference cover")
    add("--n", type=_ascii_int, required=True)

    add = command("decompose", "run the first or second decomposition", "--input")
    add("--s", type=_ascii_int, default=None, help="scale count S")
    add("--w", type=str, default=None, help="column budget W (rational)")
    add("--gamma", type=str, default=None, help="absorption exponent (rational in (0,1])")
    add("--stage", choices=("first", "second"), default="second")

    command("bang", "sign vector separated from prescribed targets", "--input")

    command("find-uncovered", "uncovered vertex for a small-column-norm system", "--input", "--trials")

    add = command("atom-prob", "P(<x,v> = a) for uniform x", "--input", "--cap", "--trials")
    add("--mode", choices=("exact", "sampled"), default="exact")

    add = command("scales", "greedy scale partition of a vector", "--input")
    add("--target-s", type=_ascii_int, default=None)

    add = command("window", "concentration-window probability of a unit row", "--input", "--cap", "--trials")
    add("--c0", type=str, default=None, help="window constant (>= 4.706)")
    add("--mode", choices=("exact", "sampled"), default="exact")

    add = command("refute", "assemble an uncovered vertex or report the failed stage", "--input", "--cap", "--trials")
    add("--s", type=_ascii_int, default=None)
    add("--w", type=str, default=None)
    add("--c5", type=str, default=None)
    add("--c", type=str, default=None, help="multiplier for the default W shape")
    add("--gamma", type=str, default=None)
    add("--strict-hypotheses", action="store_true")

    add = command("bounds", "evaluate the pipeline hypothesis inequalities")
    add("--n", type=_ascii_int, required=True)
    add("--k", type=_ascii_int, required=True)
    add("--s", type=_ascii_int, required=True)
    add("--w", type=str, required=True)

    return parser, sub.choices, options


def _fast_args(command: str, rest: list[str]) -> argparse.Namespace | None:
    """The namespace the subparser of ``command`` gives for ``rest``, read
    without argparse when ``rest`` is well formed, else None.

    Well formed means: each token is an option string of the command, given
    exactly and at most once, followed by its value, or the bare
    --strict-hypotheses; each value is "-" or does not start with "-", and
    converts (``type``) to one of the option's ``choices``; every required
    option is given.  An option not given gets its default, a str default
    through ``type`` (not checked against ``choices``), as argparse does.
    Anything else (help, an abbreviation, "--n=4", "--", a repeated option,
    a missing or bad value) is left to argparse, so that its messages stay
    its own."""
    table = _build_parser()[2][command]
    values: dict[str, object] = {}
    tokens = iter(rest)
    for token in tokens:
        action = table.get(token)
        if action is None or action.dest in values:
            return None
        if action.nargs == 0:  # --strict-hypotheses, a store_true
            values[action.dest] = action.const
            continue
        text = next(tokens, None)
        if text is None or (text.startswith("-") and text != "-"):
            return None
        try:
            value = text if action.type is None else action.type(text)
        except (TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    for action in table.values():
        if action.dest not in values:
            if action.required:
                return None
            default = action.default
            if isinstance(default, str) and action.type is not None:
                default = action.type(default)
            values[action.dest] = default
    args = argparse.Namespace()
    vars(args).update(values)  # Namespace(**values) sets them one by one: 3x slower
    return args


def _params_from(args: argparse.Namespace, seed: int | None) -> Params:
    kwargs: dict = {} if seed is None else {"seed": seed}
    if getattr(args, "cap", None) is not None:
        if args.cap < 0:
            raise SystemFormatError(f"--cap must be >= 0, got {args.cap}")
        kwargs["enumeration_cap"] = args.cap
    if getattr(args, "trials", None) is not None:
        if args.trials < 1:
            raise SystemFormatError(f"--trials must be >= 1, got {args.trials}")
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


def _check_limits(*options: tuple[str, Fraction | int | None]) -> None:
    """Each (flag, value) within OPTION_LIMIT, a positive --w at least
    1/OPTION_LIMIT; an unset (None) value passes.  Otherwise an input error
    that names the flag."""
    for flag, value in options:
        if value is not None and abs(value) > OPTION_LIMIT:
            raise SystemFormatError(f"{flag} must be at most 10^30 in magnitude")
        if flag == "--w" and value is not None and 0 < value * OPTION_LIMIT < 1:
            raise SystemFormatError("--w must be at least 10^-30")


def _cmd_verify(args, params) -> tuple[int, dict]:
    system = parse_system(_read_input(args.input))
    report = verify_essential(system, params.enumeration_cap)
    return (0 if report.is_essential else 1), wire(report)


def _cmd_construct_lr(args, params) -> tuple[int, dict]:
    system = construct.lr_cover(args.n)
    return 0, system.to_json_dict()


def _cmd_decompose(args, params) -> tuple[int, dict]:
    system = parse_system(_read_input(args.input))
    s = refute.derived_scale_count(system.n, params)
    w = refute.derived_column_budget(system.n, system.k, params)
    if args.stage == "first":
        d1 = decompose.first_decomposition(system.block(range(system.k), range(system.n)), s, w)
        ok = decompose.check_decomposition1(system.rows, d1)
        return 0, {"stage": "first", **wire(d1), "invariants_ok": ok}
    d2 = decompose.second_decomposition(system, s, w, params.gamma)
    doc = wire(d2)
    doc["stage"] = "second"
    doc["invariants_ok"] = decompose.check_decomposition2(system, d2)
    return (0 if d2.hypotheses_ok else 2), doc


def _cmd_bang(args, params) -> tuple[int, dict]:
    doc = _read_document(args.input, m="matrix", zeta="list", theta="list")
    m = [_numbers(row, f"m[{i}]") for i, row in enumerate(doc["m"])]
    sv = plank.bang_signs(m, _numbers(doc["zeta"], "zeta"), _numbers(doc["theta"], "theta"), seed=params.seed)
    if not math.isfinite(sv.objective):
        raise SystemFormatError(f"the objective is {sv.objective}: m, zeta and theta are too large for floats")
    return 0, wire(sv)


def _cmd_find_uncovered(args, params) -> tuple[int, dict]:
    doc = _read_document(args.input, rows="matrix", targets="list")
    rows = [_nonzero_row(r, f"rows[{i}]") for i, r in enumerate(doc["rows"])]
    targets = _parse_entries(doc["targets"], lambda j: f"targets[{j}]", {})
    block = cleared_block(rows)
    check = plank.check_small_norm_precondition(block)
    try:
        vertex, attempts = plank.find_uncovered_small_norm(block, targets, params.sample_cap, params.seed, check=check)
    except plank.PlankPreconditionError as exc:
        return 2, {"error": str(exc), "check": exc.check}
    except plank.SampleCapError as exc:
        return 1, {"error": str(exc), "attempts": exc.attempts}
    return 0, {"vertex": vertex, "attempts": attempts, "check": check}


def _cmd_atom_prob(args, params) -> tuple[int, dict]:
    doc = _read_document(args.input, vector="list", a="scalar")
    vector = _parse_entries(doc["vector"], lambda j: f"vector[{j}]", {})
    a = parse_rational(doc["a"], where="a")
    # Rejects the zero vector, before any probability is computed.
    bound = anticonc.littlewood_offord_bound(vector)
    prob = anticonc.atom_probability(vector, a, mode=args.mode, trials=params.sample_cap,
                                     seed=params.seed, cap=params.enumeration_cap)
    return 0, {"probability": prob, "probability_float": float(prob),
               "littlewood_offord_bound": bound, "mode": args.mode}


def _cmd_scales(args, params) -> tuple[int, dict]:
    doc = _read_document(args.input, vector="list")
    vector = _parse_entries(doc["vector"], lambda j: f"vector[{j}]", {})
    try:
        part = anticonc.scale_partition(vector, target_S=args.target_s)
    except anticonc.ScalePartitionError as exc:
        return 1, {"error": str(exc)}
    return 0, wire(part)


def _cmd_window(args, params) -> tuple[int, dict]:
    doc = _read_document(args.input, vector="list")
    row = _nonzero_row(doc["vector"], "vector")
    c0 = parse_rational(args.c0) if args.c0 is not None else None
    prob, ok = anticonc.concentration_window_prob(
        row, C0=c0, mode=args.mode, trials=params.sample_cap, seed=params.seed, cap=params.enumeration_cap
    )
    return (0 if ok else 1), {"probability": prob, "probability_float": float(prob), "ok": ok}


def _cmd_refute(args, params) -> tuple[int, dict]:
    _check_limits(("--s", params.S), ("--w", params.W), ("--c5", params.C5), ("--c", params.w_multiplier))
    system = parse_system(_read_input(args.input))
    outcome = refute.attempt_refutation(system, params)
    return (0 if outcome.status == "uncovered" else 1), wire(outcome)


def _cmd_bounds(args, params) -> tuple[int, dict]:
    n, k, s = args.n, args.k, args.s
    w = parse_rational(args.w)
    for flag, value in (("--n", n), ("--k", k), ("--s", s)):
        if value < 1:
            raise SystemFormatError(f"{flag} must be >= 1, got {value}")
    if w <= 0:
        raise SystemFormatError(f"--w must be positive, got {args.w}")
    _check_limits(("--n", n), ("--k", k), ("--s", s), ("--w", w))
    (h1_lhs, h1_rhs), (h2_lhs, h2_rhs) = decompose.hypothesis_sides(n, k, s, w)
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
        "W": w,
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
    parser, commands, _ = _build_parser()
    try:
        args = _fast_args(argv[0], argv[1:]) if argv and argv[0] in commands else None
        if args is None:
            args = parser.parse_args(argv)
        else:
            args.command = argv[0]
    except SystemExit as exc:
        ok = exc.code in (0, None)
        return CommandResult(0 if ok else 3, "", "" if ok else "argument parsing failed\n")
    if args.command is None or args.command not in _DISPATCH:
        return CommandResult(3, "", parser.format_usage())
    stderr_lines: list[str] = []
    seeded = args.command in SEEDED_COMMANDS
    seed = args.seed
    if seeded and seed is None:
        seed = random.SystemRandom().getrandbits(63)
        stderr_lines.append(f"seed: {seed} (random; pass --seed {seed} to replay)")
    try:
        params = _params_from(args, seed)
        code, doc = _DISPATCH[args.command](args, params)
        if seeded:
            doc.setdefault("seed", seed)
        return CommandResult(code, _emit(doc, args.format), "\n".join(stderr_lines) + ("\n" if stderr_lines else ""))
    except CapExceededError as exc:
        stderr_lines.append(f"precondition failure: {exc}")
        return CommandResult(2, "", "\n".join(stderr_lines) + "\n")
    except ValueError as exc:  # a SystemFormatError, or a value a stage refuses
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
