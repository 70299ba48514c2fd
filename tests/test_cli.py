import argparse
import contextlib
import enum
import functools
import gc
import io
import json
import math
import os
import random
import re
import sys
from collections import OrderedDict
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from _pins import record_missing
from cubecover import cli, decompose, lr_cover, parse_system
from cubecover.cli import _COMMANDS, run_command
from cubecover.core import Vertex, dump_json, wire
from cubecover.essential import verify_essential
from cubecover.refute import attempt_refutation
from test_refute_pinned import _block_system, _plank_system, _system_text


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_construct_then_verify_pipeline(tmp_path):
    built = run_command(["construct-lr", "--n", "4", "--seed", "1"])
    assert built.exit_code == 0
    system = parse_system(built.stdout)
    assert system == lr_cover(4)
    path = tmp_path / "sys.json"
    path.write_text(built.stdout)
    verified = run_command(["verify", "--input", str(path), "--seed", "1"])
    assert verified.exit_code == 0
    doc = json.loads(verified.stdout)
    assert doc["is_essential"] is True


def test_verify_non_cover_exits_1(tmp_path):
    path = write(tmp_path, "sys.json", {"n": 2, "rows": [["1", "0"], ["0", "1"]], "mu": ["0", "0"]})
    result = run_command(["verify", "--input", path, "--seed", "0"])
    assert result.exit_code == 1
    doc = json.loads(result.stdout)
    assert doc["e1"] is False
    assert doc["e1_witness"] == [1, 1]


def test_verify_over_cap_exits_2(tmp_path):
    path = write(tmp_path, "sys.json", lr_cover(10).to_json_dict())
    result = run_command(["verify", "--input", path, "--seed", "0", "--cap", "8"])
    assert result.exit_code == 2


def test_internal_error_exits_4(tmp_path, monkeypatch):
    import cubecover.essential as essential

    # A sweep that reports the covered vertex 0 as uncovered: verify's exact
    # re-check raises, and that must not read as "not essential" (exit 1).
    monkeypatch.setattr(essential, "_coverage_sweep", lambda system, **kw: (None, 0, [None] * system.k))
    path = write(tmp_path, "sys.json", lr_cover(4).to_json_dict())
    result = run_command(["verify", "--input", path, "--seed", "0"])
    assert result.exit_code == 4
    assert result.stdout == ""
    assert result.stderr.startswith("internal error\nTraceback (most recent call last):")
    assert "RuntimeError" in result.stderr


def test_construct_lr_rejects_odd():
    result = run_command(["construct-lr", "--n", "3", "--seed", "0"])
    assert result.exit_code == 3


def test_unknown_command():
    result = run_command(["frobnicate"])
    assert result.exit_code == 3


def test_malformed_input(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    result = run_command(["verify", "--input", str(path), "--seed", "0"])
    assert result.exit_code == 3
    assert "input error" in result.stderr


@pytest.mark.parametrize("n", ["true", "false", "1.0", '"1"'])
def test_non_integer_n_is_an_input_error(tmp_path, n):
    # bool is an int subclass in Python; "n": true must not read as n = 1.
    path = tmp_path / "bad.json"
    path.write_text('{"n": %s, "rows": [["1"]], "mu": ["0"]}' % n)
    result = run_command(["refute", "--input", str(path), "--seed", "0"])
    assert result.exit_code == 3
    assert "n must be a positive integer" in result.stderr


def test_non_ascii_digit_is_an_input_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2, "rows": [["\u0661", "1"]], "mu": ["1"]}', encoding="utf-8")
    result = run_command(["verify", "--input", str(path), "--seed", "0"])
    assert result.exit_code == 3
    assert result.stdout == ""
    assert "row 0, column 0: bad rational" in result.stderr


def test_missing_input_file():
    result = run_command(["verify", "--input", "/nonexistent/x.json", "--seed", "0"])
    assert result == (3, "", "input error: [Errno 2] No such file or directory: '/nonexistent/x.json'\n")


def test_unreadable_input_is_an_input_error(tmp_path):
    # A directory cannot be read as a file; that is an input error, not a bug.
    result = run_command(["verify", "--input", str(tmp_path), "--seed", "0"])
    assert result == (3, "", f"input error: [Errno 21] Is a directory: '{tmp_path}'\n")


def test_random_seed_is_logged(tmp_path):
    path = write(tmp_path, "sys.json", lr_cover(4).to_json_dict())
    result = run_command(["refute", "--input", path])
    assert result.exit_code == 1  # an LR cover has no uncovered vertex
    match = re.fullmatch(r"seed: (\d+) \(random; pass --seed \1 to replay\)\n", result.stderr)
    assert match, result.stderr
    assert json.loads(result.stdout)["seed"] == int(match.group(1))


def test_deterministic_commands_log_no_seed(tmp_path):
    path = write(tmp_path, "sys.json", lr_cover(4).to_json_dict())
    for argv in (["construct-lr", "--n", "4"], ["verify", "--input", path],
                 ["bounds", "--n", "100", "--k", "3", "--s", "2", "--w", "1"]):
        result = run_command(argv)
        assert (result.exit_code, result.stderr) == (0, ""), argv
        assert "seed" not in json.loads(result.stdout), argv


def test_bounds_reports_inequalities():
    result = run_command(["bounds", "--n", "1000", "--k", "10", "--s", "5", "--w", "2", "--seed", "0"])
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    names = [entry["name"] for entry in doc["inequalities"]]
    assert len(names) == 4
    assert all({"lhs", "rhs", "ok"} <= set(entry) for entry in doc["inequalities"])


def test_bounds_csv_format():
    result = run_command(
        ["bounds", "--n", "100", "--k", "3", "--s", "2", "--w", "1", "--seed", "0", "--format", "csv"]
    )
    assert result.exit_code == 0
    assert result.stdout.splitlines()[0].startswith("n,")


def test_atom_prob_command(tmp_path):
    path = write(tmp_path, "v.json", {"vector": ["1", "1", "1", "1"], "a": "2"})
    result = run_command(["atom-prob", "--input", path, "--seed", "0"])
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert doc["probability"] == "3/8"
    assert doc["littlewood_offord_bound"] == 0.5


def test_atom_prob_rejects_a_zero_vector_before_the_cap(tmp_path):
    # The zero vector has no Littlewood-Offord bound: an input error (exit 3)
    # at any dimension, never the cap's exit 2.
    path = write(tmp_path, "v.json", {"vector": ["0"] * 12, "a": "0"})
    for cap in ("8", "16"):
        result = run_command(["atom-prob", "--input", path, "--seed", "0", "--cap", cap])
        assert (result.exit_code, result.stdout) == (3, "")
        assert result.stderr == "input error: zero vector has no Littlewood-Offord bound\n"


def test_scales_command(tmp_path):
    path = write(tmp_path, "v.json", {"vector": ["10000", "100", "1"]})
    result = run_command(["scales", "--input", path, "--seed", "0"])
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert len(doc["parts"]) == 3
    unreachable = run_command(["scales", "--input", path, "--seed", "0", "--target-s", "5"])
    assert unreachable.exit_code == 1


def test_window_command(tmp_path):
    path = write(tmp_path, "v.json", {"vector": ["1", "1"]})
    result = run_command(["window", "--input", path, "--seed", "0"])
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert doc["probability"] == "1/2"
    assert doc["ok"] is True


def test_bang_command(tmp_path):
    path = write(
        tmp_path,
        "bang.json",
        {"m": [[1, 0.5], [0.5, 1]], "zeta": [0, 0], "theta": [1, 1]},
    )
    result = run_command(["bang", "--input", path, "--seed", "3"])
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert doc["signs"] in ([1, 1], [-1, -1])
    repeat = run_command(["bang", "--input", path, "--seed", "3"])
    assert repeat.stdout == result.stdout


def _strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity, which are not JSON."""
    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")
    return json.loads(text, parse_constant=refuse)


def test_bang_refuses_an_infinite_objective(tmp_path):
    path = write(tmp_path, "bang.json", {"m": [[1e308, 1e308], [1e308, 1e308]], "zeta": [0, 0], "theta": [1, 1]})
    result = run_command(["bang", "--input", path, "--seed", "0"])
    assert result.exit_code == 3 and result.stderr.startswith("input error: the objective is inf")
    if result.stdout:
        _strict_json(result.stdout)


def test_pinned_json_stdout_is_strict_json():
    parsed = 0
    for path in sorted((Path(__file__).parent / "data").glob("*_pinned.json")):
        for name, pin in json.loads(path.read_text()).items():
            if pin["stdout"] and "csv" not in name:
                _strict_json(pin["stdout"])
                parsed += 1
    assert parsed >= 250


# Values whose floats would overflow in refute and bounds (exit 4 before).
BIG = str(10**400)
MAGNITUDE_CASES = (
    *(("refute", flag, BIG, f"{flag} must be at most 10^30 in magnitude") for flag in ("--w", "--c", "--c5", "--s")),
    *(("bounds", flag, BIG, f"{flag} must be at most 10^30 in magnitude") for flag in ("--n", "--k", "--s", "--w")),
    ("bounds", "--w", "1/" + BIG, "--w must be at least 10^-30"),
    ("bounds", "--w", "-" + BIG, "--w must be positive, got -" + BIG),
)


@pytest.mark.parametrize("command, flag, value, message", MAGNITUDE_CASES,
                         ids=[f"{case[0]}{case[1]}-{i}" for i, case in enumerate(MAGNITUDE_CASES)])
def test_option_magnitudes_are_limited(tmp_path, command, flag, value, message):
    if command == "refute":
        argv = [*valid_argv(tmp_path, "refute"), "--seed", "0", flag, value]
    else:
        args = {"--n": "100", "--k": "3", "--s": "2", "--w": "1", flag: value}
        argv = ["bounds", *(token for pair in args.items() for token in pair)]
    assert run_command(argv) == (3, "", f"input error: {message}\n")


@pytest.mark.parametrize("flag, value", (("--c", "0"), ("--c", "-1"), ("--c", "0/7"), ("--c5", "0"), ("--c5", "-3")))
def test_refute_refuses_a_multiplier_that_is_not_positive(tmp_path, flag, value):
    # Refused before the input is read: the input file does not exist.
    argv = ["refute", "--input", str(tmp_path / "missing.json"), "--seed", "0", flag, value]
    assert run_command(argv) == (3, "", f"input error: {flag} must be positive, got {value}\n")


@pytest.mark.parametrize("value", (str(cli.OPTION_LIMIT), f"1/{cli.OPTION_LIMIT}"))
def test_bounds_floats_stay_finite_at_the_option_limit(value):
    limit = str(cli.OPTION_LIMIT)
    result = run_command(["bounds", "--n", "1", "--k", limit, "--s", limit, "--w", value])
    assert result.exit_code == 0
    doc = _strict_json(result.stdout)
    assert len(doc["inequalities"]) == 4


def test_find_uncovered_command(tmp_path):
    rows = []
    for i in range(4):
        row = ["0"] * 64
        for j in range(16 * i, 16 * i + 16):
            row[j] = "1/4"
        rows.append(row)
    path = write(tmp_path, "fu.json", {"rows": rows, "targets": ["2", "2", "2", "2"]})
    result = run_command(["find-uncovered", "--input", path, "--seed", "5"])
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert len(doc["vertex"]) == 64
    assert doc["attempts"] >= 1


def test_find_uncovered_precondition_exit_2(tmp_path):
    path = write(
        tmp_path,
        "fu.json",
        {"rows": [["1", "0"], ["1", "0"]], "targets": ["0", "0"]},
    )
    result = run_command(["find-uncovered", "--input", path, "--seed", "0"])
    assert result.exit_code == 2


def test_decompose_command_stages(tmp_path):
    path = write(tmp_path, "sys.json", lr_cover(4).to_json_dict())
    first = run_command(["decompose", "--input", path, "--stage", "first", "--s", "1", "--w", "1", "--seed", "0"])
    assert first.exit_code == 0
    doc = json.loads(first.stdout)
    assert doc["invariants_ok"] is True
    second = run_command(["decompose", "--input", path, "--stage", "second", "--s", "1", "--w", "1", "--seed", "0"])
    assert second.exit_code == 2  # hypotheses fail at this scale, reported not fatal
    doc2 = json.loads(second.stdout)
    assert doc2["invariants_ok"] is True
    assert doc2["hypotheses_ok"] is False


def test_refute_commands(tmp_path):
    cover = write(tmp_path, "cover.json", lr_cover(8).to_json_dict())
    result = run_command(["refute", "--input", cover, "--seed", "0"])
    assert result.exit_code == 1
    doc = json.loads(result.stdout)
    assert doc["status"] == "failed"

    single = write(tmp_path, "single.json", {"n": 8, "rows": [["1"] + ["0"] * 7], "mu": ["0"]})
    found = run_command(["refute", "--input", single, "--seed", "0"])
    assert found.exit_code == 0
    doc2 = json.loads(found.stdout)
    assert doc2["status"] == "uncovered"
    assert doc2["vertex"][0] == 1


def test_refute_deterministic_given_seed(tmp_path):
    single = write(tmp_path, "single.json", {"n": 8, "rows": [["1"] + ["0"] * 7], "mu": ["0"]})
    a = run_command(["refute", "--input", single, "--seed", "9"])
    b = run_command(["refute", "--input", single, "--seed", "9"])
    assert a.stdout == b.stdout


def test_system_json_round_trips_through_cli(tmp_path):
    built = run_command(["construct-lr", "--n", "6", "--seed", "0"])
    system = parse_system(built.stdout)
    assert system.to_json_dict() == json.loads(built.stdout)


def valid_argv(tmp_path, command):
    """A run of ``command`` that parses and reads valid input."""
    system = write(tmp_path, "sys.json", lr_cover(4).to_json_dict())
    vector = write(tmp_path, "v.json", {"vector": ["100", "1"], "a": "1"})
    return {
        "verify": ["verify", "--input", system],
        "construct-lr": ["construct-lr", "--n", "4"],
        "decompose": ["decompose", "--input", system],
        "bang": ["bang", "--input", write(tmp_path, "bang.json", {"m": [[1]], "zeta": [0], "theta": [1]})],
        "find-uncovered": ["find-uncovered", "--input",
                           write(tmp_path, "fu.json", {"rows": [["1/4"] * 16], "targets": ["2"]})],
        "atom-prob": ["atom-prob", "--input", vector],
        "scales": ["scales", "--input", vector],
        "window": ["window", "--input", vector],
        "refute": ["refute", "--input", system],
        "bounds": ["bounds", "--n", "100", "--k", "3", "--s", "2", "--w", "1"],
    }[command]


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_every_command_accepts_seed_and_format(tmp_path, command):
    result = run_command([*valid_argv(tmp_path, command), "--seed", "0", "--format", "csv"])
    assert result.exit_code in (0, 1, 2) and result.stderr == "", result
    # One key,value line per key of the JSON document: a JSON string, number,
    # bool or null as its Python text, a list or an object as compact JSON.
    # A tuple or a record written as its repr differs from both.
    doc = json.loads(run_command([*valid_argv(tmp_path, command), "--seed", "0"]).stdout)
    lines = result.stdout.splitlines()
    assert [line.partition(",")[0] for line in lines] == list(doc)
    for line, value in zip(lines, doc.values()):
        text = line.partition(",")[2]
        assert text == (json.dumps(value) if isinstance(value, (dict, list)) else str(value)), line


# Options a command would not read, so its parser refuses them: --threads
# (evaluation is single-threaded), --input where no document is read, --cap
# where nothing is enumerated and --trials where nothing is sampled.
REMOVED_OPTIONS = (
    ("verify", "--threads"),
    ("construct-lr", "--input"), ("bounds", "--input"),
    *((command, "--cap") for command in ("construct-lr", "decompose", "bang", "find-uncovered", "scales", "bounds")),
    *((command, "--trials") for command in ("verify", "construct-lr", "decompose", "bang", "scales", "bounds")),
)


@pytest.mark.parametrize("command, option", REMOVED_OPTIONS, ids=[c + o for c, o in REMOVED_OPTIONS])
def test_removed_options_are_rejected(tmp_path, command, option):
    result = run_command([*valid_argv(tmp_path, command), "--seed", "0", option, "4"])
    assert result == (3, "", "argument parsing failed\n")


@pytest.mark.parametrize("flag, value, message", (
    ("--n", "0", "--n must be >= 1, got 0"),
    ("--k", "0", "--k must be >= 1, got 0"),
    ("--s", "0", "--s must be >= 1, got 0"),
    ("--w", "0", "--w must be positive, got 0"),
    ("--w", "-1", "--w must be positive, got -1"),
))
def test_bounds_rejects_bad_arguments(flag, value, message):
    args = {"--n": "100", "--k": "3", "--s": "2", "--w": "1", flag: value}
    result = run_command(["bounds", *(token for pair in args.items() for token in pair)])
    assert result == (3, "", f"input error: {message}\n")


# --trials 0 used to divide by zero in refute's N2 stage (this system, S = 1,
# W = 1/10, exit 4) and to search no sample in find-uncovered (exit 1); a
# negative --cap read as a precondition failure (exit 2).  --cap 0 is valid.
@pytest.mark.parametrize("command, flag, value, message", (
    ("refute", "--trials", "0", "--trials must be >= 1, got 0"),
    ("find-uncovered", "--trials", "0", "--trials must be >= 1, got 0"),
    ("verify", "--cap", "-1", "--cap must be >= 0, got -1"),
    ("verify", "--cap", "0", None),
))
def test_sampling_budget_and_cap_are_range_checked(tmp_path, command, flag, value, message):
    argv = valid_argv(tmp_path, command)
    if command == "refute":
        system = tmp_path / "blocks.json"
        system.write_text(_system_text(*_block_system(random.Random(15), 6, 80)))
        argv = ["refute", "--input", str(system), "--cap", "16", "--s", "1", "--w", "1/10"]
    result = run_command([*argv, "--seed", "3", flag, value])
    if message is None:
        assert result == (2, "", "precondition failure: n=4 exceeds enumeration cap 0\n")
    else:
        assert result == (3, "", f"input error: {message}\n")


# Every integer option, on a command that reads it.  argparse's type=int
# read a non-ASCII digit ("\u0666" as 6) and "1_0" as 10.
INT_OPTIONS = (
    ("construct-lr", "--n"), ("bounds", "--n"), ("bounds", "--k"), ("bounds", "--s"), ("decompose", "--s"),
    ("refute", "--s"), ("refute", "--seed"), ("refute", "--trials"), ("refute", "--cap"), ("scales", "--target-s"),
)


@pytest.mark.parametrize("command, flag", INT_OPTIONS, ids=[c + f for c, f in INT_OPTIONS])
@pytest.mark.parametrize("value", ["\u0666", "1_0", "\uff11", "4\u00a0"])
def test_integer_options_read_ascii_digits_only(tmp_path, command, flag, value):
    argv = valid_argv(tmp_path, command)
    if flag in argv:
        argv[argv.index(flag) + 1] = value
    else:
        argv += [flag, value]
    if flag != "--seed":
        argv += ["--seed", "0"]
    assert run_command(argv) == (3, "", "argument parsing failed\n")


@pytest.mark.parametrize("text, value", [("4", 4), ("+4", 4), (" 12\t", 12), ("007", 7), ("-0", 0), ("-3", -3)])
def test_integer_options_keep_int_syntax(text, value):
    assert cli._ascii_int(text) == value
    if value > 0:
        result = run_command(["bounds", "--n", "100", "--k", text, "--s", "2", "--w", "1"])
        assert result.exit_code == 0 and json.loads(result.stdout)["k"] == value


def test_csv_format_flattens_top_level(tmp_path):
    path = write(tmp_path, "v.json", {"vector": ["1", "1"], "a": "1"})
    result = run_command(["atom-prob", "--input", path, "--seed", "0", "--format", "csv"])
    assert result.exit_code == 0
    assert any(line.startswith("probability,") for line in result.stdout.splitlines())


# One well-formed document per command that reads a plain JSON object, and
# the keys it needs: (command, document, list-valued keys, scalar keys).
DOCUMENT_COMMANDS = (
    ("atom-prob", {"vector": ["1", "2"], "a": "1"}, ("vector",), ("a",)),
    ("window", {"vector": ["1", "2"]}, ("vector",), ()),
    ("scales", {"vector": ["1", "2"]}, ("vector",), ()),
    ("bang", {"m": [[1.0]], "zeta": [0.0], "theta": [1.0]}, ("m", "zeta", "theta"), ()),
    ("find-uncovered", {"rows": [["1", "0"]], "targets": ["1/2"]}, ("rows", "targets"), ()),
)


def _run_document(tmp_path, command, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return run_command([command, "--input", str(path), "--seed", "0"])


@pytest.mark.parametrize("command, doc, lists, scalars", DOCUMENT_COMMANDS, ids=[c[0] for c in DOCUMENT_COMMANDS])
def test_document_commands_reject_malformed_documents(tmp_path, command, doc, lists, scalars):
    assert _run_document(tmp_path, command, doc).exit_code in (0, 1, 2)  # not 3 or 4
    bad = [([1, 2], "top-level JSON value must be an object"), ("text", "top-level JSON value must be an object")]
    for key in (*lists, *scalars):
        bad.append(({k: v for k, v in doc.items() if k != key}, f"missing key {key!r}"))
    for key in lists:
        for value in (3, "1", {"0": "1"}, None):
            bad.append((dict(doc, **{key: value}), f"{key} must be a list, got {type(value).__name__}"))
    for broken, message in bad:
        result = _run_document(tmp_path, command, broken)
        assert (result.exit_code, result.stdout, result.stderr) == (3, "", f"input error: {message}\n"), broken


@pytest.mark.parametrize("command, key", [("bang", "m"), ("find-uncovered", "rows")])
def test_document_matrices_need_list_rows(tmp_path, command, key):
    doc = dict(next(c[1] for c in DOCUMENT_COMMANDS if c[0] == command))
    doc[key] = [doc[key][0], 7]
    result = _run_document(tmp_path, command, doc)
    assert (result.exit_code, result.stderr) == (3, f"input error: {key} must be a list of lists\n")


@pytest.mark.parametrize("command", ["verify", "decompose", "refute", *(c[0] for c in DOCUMENT_COMMANDS)])
def test_malformed_json_is_named_on_every_document_command(tmp_path, command):
    # Bad syntax, and arrays nested deeper than the decoder recurses (that
    # raised RecursionError, an internal error).
    path = tmp_path / "bad.json"
    for text in ("{nope", "[" * 100_000):
        path.write_text(text)
        with pytest.raises((json.JSONDecodeError, RecursionError)) as decode:
            json.loads(text)
        result = run_command([command, "--input", str(path), "--seed", "0"])
        assert (result.exit_code, result.stdout, result.stderr) == (
            3, "", f"input error: malformed JSON: {decode.value}\n"), text[:8]
    # An integer literal past the int digit limit: json raises a plain
    # ValueError that words a remedy the user cannot apply.
    text = '{"n": ' + "9" * 5000 + "}"
    path.write_text(text)
    with pytest.raises(ValueError) as decode:
        json.loads(text)
    assert not isinstance(decode.value, json.JSONDecodeError)
    limit = sys.get_int_max_str_digits()
    assert run_command([command, "--input", str(path), "--seed", "0"]) == (
        3, "", f"input error: malformed JSON: an integer literal has more than {limit} digits\n")


# str() refuses an int of more digits than sys.get_int_max_str_digits() (4300
# by default).  An exact result past that is still written in full, in JSON
# and in CSV; an input entry past it is an input error that names its place.
TEN_2500 = "1" + "0" * 2500


@pytest.mark.parametrize("vector, parts, norms, smallest", [
    ([TEN_2500, "1"], [[0], [1]], ["1" + "0" * 5000, "1"], "1"),
    ([TEN_2500, "-" + TEN_2500], [[0, 1]], ["2" + "0" * 5000], "2" + "0" * 5000),
], ids=["two-scales", "one-scale"])
def test_results_past_the_int_digit_limit_are_written(tmp_path, vector, parts, norms, smallest):
    result = _run_document(tmp_path, "scales", {"vector": vector})
    assert (result.exit_code, result.stderr) == (0, "")
    assert json.loads(result.stdout) == {"parts": parts, "C1": "5536609/62500", "squared_norms": norms,
                                         "smallest_scale_sq": smallest}
    lines = [f"parts,{json.dumps(parts)}", "C1,5536609/62500", f"squared_norms,{json.dumps(norms)}",
             f"smallest_scale_sq,{smallest}"]
    csv = run_command(["scales", "--input", str(tmp_path / "doc.json"), "--format", "csv"])
    assert csv == (0, "\n".join(lines) + "\n", "")


@pytest.mark.parametrize("command, entry, place", [
    ("scales", "1" + "0" * 4300, "vector[0]"),
    ("atom-prob", "-1/" + "3" * 4301, "vector[0]"),
    ("verify", "7" * 4301, "row 0, column 0"),
])
def test_entries_past_the_int_digit_limit_are_named(tmp_path, command, entry, place):
    if command == "verify":
        doc = {"n": 2, "rows": [[entry, "1"]], "mu": ["0"]}
    else:
        doc = {"vector": [entry, "1"], "a": "0"}
    digits = len(entry.partition("/")[2] or entry)
    limit = sys.get_int_max_str_digits()
    message = f"input error: {place}: {digits}-digit integer exceeds the limit of {limit} digits\n"
    assert _run_document(tmp_path, command, doc) == (3, "", message)


@pytest.mark.parametrize("n, holds", [(42736, False), (42737, True)])
def test_refute_and_bounds_agree_at_the_column_budget_boundary(tmp_path, n, holds):
    # Two rows at 2 % density: with the default S and W, the column-budget
    # hypothesis C3*k*S*W <= n/8 first holds for k = 2 at n = 42,737.
    rng = random.Random(1)
    rows = [["1" if rng.random() < 0.02 else "0" for _ in range(n)] for _ in range(2)]
    result = run_command(["refute", "--input", write(tmp_path, "sys.json", {"n": n, "rows": rows, "mu": ["1/2"] * 2}),
                          "--seed", "0"])
    detail = json.loads(result.stdout)["detail"]
    hypotheses = detail["hypotheses"]
    assert hypotheses["product_ok"] is holds
    (lhs, rhs), _ = decompose.hypothesis_sides(n, 2, detail["S"], Fraction(detail["W"]))
    assert (lhs <= rhs, float(lhs), float(rhs)) == (holds, hypotheses["product_lhs"], hypotheses["product_rhs"])
    bounds = run_command(["bounds", "--n", str(n), "--k", "2", "--s", str(detail["S"]), "--w", detail["W"]])
    column_budget = json.loads(bounds.stdout)["inequalities"][0]
    assert column_budget["name"].startswith("column-budget")
    assert (column_budget["ok"], column_budget["lhs"], column_budget["rhs"]) == (
        holds, hypotheses["product_lhs"], hypotheses["product_rhs"])


def test_internal_key_error_exits_4(tmp_path, monkeypatch):
    import cubecover.anticonc as anticonc

    # A KeyError raised inside the library is a bug, not an input error.
    def broken(*args, **kwargs):
        return {}["missing"]

    monkeypatch.setattr(anticonc, "scale_partition", broken)
    result = _run_document(tmp_path, "scales", {"vector": ["1", "2"]})
    assert result.exit_code == 4
    assert result.stderr.startswith("internal error\nTraceback (most recent call last):")
    assert "KeyError: 'missing'" in result.stderr


# Bad entries of each document command, as raw JSON text: (text, message).
# Rational entries must be strings "p" or "p/q", as for every system input;
# bang reads finite JSON numbers and nothing else.
_RATIONAL = "(expected 'p' or 'p/q')"
_NUMBER = "(expected a finite JSON number)"
BAD_ENTRIES = {
    "bang": (
        ('{"m": [[null]], "zeta": [0], "theta": [1]}', f"m[0][0]: bad number None {_NUMBER}"),
        ('{"m": [[1, 0], [0, [1]]], "zeta": [0, 0], "theta": [1, 1]}', f"m[1][1]: bad number [1] {_NUMBER}"),
        ('{"m": [[1]], "zeta": [true], "theta": [1]}', f"zeta[0]: bad number True {_NUMBER}"),
        ('{"m": [[1]], "zeta": ["0"], "theta": [1]}', f"zeta[0]: bad number '0' {_NUMBER}"),
        ('{"m": [[1]], "zeta": [0], "theta": [NaN]}', f"theta[0]: bad number nan {_NUMBER}"),
        ('{"m": [[1e400]], "zeta": [0], "theta": [1]}', f"m[0][0]: bad number inf {_NUMBER}"),
        ('{"m": [[1]], "zeta": [0], "theta": [' + "9" * 400 + "]}", f"theta[0]: bad number {'9' * 400} {_NUMBER}"),
    ),
    "find-uncovered": (
        ('{"rows": [[null, "1"]], "targets": ["0"]}', f"rows[0][0]: bad rational None {_RATIONAL}"),
        ('{"rows": [["1", "0"], [0.1, "1"]], "targets": ["0", "0"]}', f"rows[1][0]: bad rational 0.1 {_RATIONAL}"),
        ('{"rows": [["1", ["1"]]], "targets": ["0"]}', f"rows[0][1]: bad rational ['1'] {_RATIONAL}"),
        ('{"rows": [["1", "1"]], "targets": [0]}', f"targets[0]: bad rational 0 {_RATIONAL}"),
        # Too many targets, whether the small-norm precondition fails (first)
        # or holds (second): the count is checked before the precondition.
        ('{"rows": [["1", "1"]], "targets": ["0", "0"]}', "expected 1 targets, got 2"),
        ('{"rows": [["1", "1", "1"]], "targets": ["0", "0"]}', "expected 1 targets, got 2"),
        ('{"rows": [["1", "1"], ["0", "0"]], "targets": ["0", "0"]}', "rows[1]: cannot unit-normalize a zero row"),
        # Every row is read as a unit vector over the same columns.
        ('{"rows": [["1", "1"], ["1"]], "targets": ["0", "0"]}', "rows have inconsistent lengths"),
        ('{"rows": [], "targets": []}', "need at least one row"),
    ),
    "window": (
        ('{"vector": [0.1, "1"]}', f"vector[0]: bad rational 0.1 {_RATIONAL}"),
        ('{"vector": ["1", null]}', f"vector[1]: bad rational None {_RATIONAL}"),
        ('{"vector": ["1", true]}', f"vector[1]: bad rational True {_RATIONAL}"),
        ('{"vector": ["0", "0"]}', "vector: cannot unit-normalize a zero row"),
    ),
    "atom-prob": (
        ('{"vector": ["1", 0.1], "a": "0"}', f"vector[1]: bad rational 0.1 {_RATIONAL}"),
        ('{"vector": ["1", "1"], "a": 1}', f"a: bad rational 1 {_RATIONAL}"),
    ),
    "scales": (
        ('{"vector": ["1", 2]}', f"vector[1]: bad rational 2 {_RATIONAL}"),
    ),
}


@pytest.mark.parametrize("command", sorted(BAD_ENTRIES))
def test_document_commands_reject_bad_entries(tmp_path, command):
    path = tmp_path / "doc.json"
    for text, message in BAD_ENTRIES[command]:
        path.write_text(text)
        result = run_command([command, "--input", str(path), "--seed", "0"])
        assert (result.exit_code, result.stdout, result.stderr) == (3, "", f"input error: {message}\n"), text


# cli._fast_args reads well-formed argv without argparse.  Whenever it returns
# a namespace, that must be the namespace of the command's own subparser, with
# no argument left over; anything it cannot read exactly, it leaves to argparse.
SUBPARSERS = next(action.choices for action in cli._build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction))
FAST_VALUES = ("4", "0", " 7", "1/2", "json", "csv", "first", "second", "exact", "sampled",
               "-", "", "-5", "\u0666", "1_0", "x", "--", "-h", "--inp", "--seed")
HOSTILE_TOKENS = ("-", "", "-5", "\u0666", "1_0", "--inp", "--n=4", "-h", "--help", "--",
                  "--strict-hypotheses", "extra")


@st.composite
def command_argvs(draw):
    """A command and argv for it: some of its options in any order, each
    with a value (the bare --strict-hypotheses without one) that is half the
    time one it reads, and half the time hostile tokens, options without a
    value or repeated options put in between."""
    command = draw(st.sampled_from(sorted(SUBPARSERS)))
    actions = SUBPARSERS[command]._option_string_actions
    options = draw(st.permutations(sorted(actions.keys() - {"-h", "--help"})))
    options = options[:draw(st.integers(0, len(options)))]

    def value(action):
        reads = action.choices or (("4", " 7", "+0") if action.type is cli._ascii_int else ("1/2", "x", "-"))
        return draw(st.one_of(st.sampled_from(reads), st.sampled_from(FAST_VALUES)))

    chunks = [[option] if actions[option].nargs == 0 else [option, value(actions[option])] for option in options]
    for _ in range(draw(st.integers(1, 3)) if draw(st.booleans()) else 0):
        chunk = draw(st.one_of(st.sampled_from(HOSTILE_TOKENS).map(lambda token: [token]),
                               st.sampled_from(sorted(actions)).map(lambda option: [option]),
                               st.sampled_from(chunks or [[]])))
        chunks.insert(draw(st.integers(0, len(chunks))), chunk)
    return command, [token for chunk in chunks for token in chunk]


@settings(max_examples=400, deadline=None)
@given(command_argvs())
def test_fast_args_equal_argparse(case):
    command, rest = case
    fast = cli._fast_args(command, rest)
    if fast is not None:
        args, extra = SUBPARSERS[command].parse_known_args(rest)
        assert (vars(fast), extra) == (vars(args), [])


# One argv per command that gives every option of its subparser once: each
# takes the fast path, so an option it cannot read fails here.
CANONICAL_ARGVS = {
    "verify": ["--input", "-", "--seed", "1", "--format", "csv", "--cap", "16"],
    "construct-lr": ["--n", "6", "--seed", "1", "--format", "json"],
    "decompose": ["--input", "x.json", "--s", "2", "--w", "1/2", "--gamma", "1/3", "--stage", "first",
                  "--seed", "1", "--format", "json"],
    "bang": ["--format", "csv", "--seed", "1", "--input", "-"],
    "find-uncovered": ["--input", "-", "--trials", "10", "--seed", "1", "--format", "json"],
    "atom-prob": ["--input", "-", "--mode", "sampled", "--cap", "8", "--trials", "100", "--seed", "1",
                  "--format", "json"],
    "scales": ["--input", "-", "--target-s", "3", "--seed", "1", "--format", "json"],
    "window": ["--input", "-", "--c0", "5", "--mode", "exact", "--cap", "8", "--trials", "9", "--seed", "1",
               "--format", "csv"],
    "refute": ["--input", "-", "--seed", "1", "--cap", "16", "--trials", "50", "--s", "2", "--w", "1/1000000",
               "--c5", "32", "--c", "2", "--gamma", "1/3", "--strict-hypotheses", "--format", "json"],
    "bounds": ["--n", "100", "--k", "3", "--s", "2", "--w", "1", "--seed", "0", "--format", "csv"],
}


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_fast_args_read_every_option_of_each_command(command):
    rest = CANONICAL_ARGVS[command]
    subparser = SUBPARSERS[command]
    assert {token for token in rest if token.startswith("--")} == set(subparser._option_string_actions) - {
        "-h", "--help"}
    fast = cli._fast_args(command, rest)
    args, extra = subparser.parse_known_args(rest)
    assert fast is not None and (vars(fast), extra) == (vars(args), [])


def test_fast_args_leave_argparse_unused_on_well_formed_argv(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("argparse parsed a well-formed argv")

    monkeypatch.setattr(cli.argparse.ArgumentParser, "parse_known_args", refuse)
    monkeypatch.setattr(cli, "_build_parser", refuse)  # nor is the parser built
    assert run_command(["construct-lr", "--n", "4", "--seed", "1"]).exit_code == 0
    assert run_command(["bounds", "--n", "100", "--k", "3", "--s", "2", "--w", "1"]).exit_code == 0


# argv whose parsing is pinned, with argparse's own messages: help, usage
# errors, unread options, stray arguments, "--" and abbreviations.  argv that
# the fast path does not read is parsed by the top-level parser, which hands
# a command's arguments to its subparser, so every message here must stay as
# the top-level parser alone gave it.  argparse words its
# messages differently on different Python versions, so the pins are recorded
# per version (3.10, 3.11 and 3.13) in data/cli_pinned.json:
#
#     python tests/test_cli.py    # record the cases the data file lacks
CLI_PINS = Path(__file__).parent / "data" / "cli_pinned.json"
PYTHON = "py{}.{}".format(*sys.version_info[:2])
LR4_TEXT = json.dumps(lr_cover(4).to_json_dict())
ARGPARSE_ARGVS = (
    [], ["--help"], ["-h"], ["-x"], ["--", "construct-lr", "--n", "4"],
    ["frobnicate"], ["Refute"], ["help"],
    ["refute", "-h"], ["refute", "--help"], ["window", "-h"], ["construct-lr", "-h", "--n", "x"],
    ["construct-lr"], ["bounds", "--n", "100"], ["construct-lr", "--n", "x"], ["construct-lr", "--cap", "4"],
    ["construct-lr", "--n", "4"], ["construct-lr", "--n=4", "--format", "csv"],
    ["construct-lr", "--n", "6", "--cap", "4"], ["decompose", "--stage", "third"], ["atom-prob", "--mode", "bogus"],
    ["refute", "--seed"], ["refute", "-x"], ["refute", "--input", "-", "--seed", "1", "--format", "xml"],
    ["verify", "--input", "-", "extra"], ["verify", "--inp", "-", "--seed", "0"],
    ["verify", "--input", "-", "--seed", "0"], ["refute", "--input", "-", "--seed", "1", "--seed", "2"],
    ["refute", "--input", "-", "--seed", "1", "--"], ["refute", "--", "--input", "-"],
    ["refute", "--input", "-", "--seed", "1", "--", "extra"],
    ["bounds", "--n", "100", "--k", "3", "--s", "2", "--w", "1"],
    ["bounds", "--n", "100", "--k", "3", "--s", "2", "--w", "1", "--n", "50", "stray"],
    ["construct-lr", "--n", "\u0666", "--seed", "0"], ["construct-lr", "--n", "1_0"],
)
ARGPARSE_CASES = [(f"{PYTHON} {' '.join(argv) or '(no arguments)'}", argv, LR4_TEXT) for argv in ARGPARSE_ARGVS]


def _run_capturing_argparse(argv, text):
    """run_command's result on ``text`` as stdin, with what argparse printed
    to stdout and stderr itself, formatted for 80 columns."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), mock.patch("sys.stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        result = run_command(list(argv))
    return {**result._asdict(), "argparse_stdout": out.getvalue(), "argparse_stderr": err.getvalue()}


@pytest.mark.parametrize("name, argv, text", ARGPARSE_CASES, ids=[c[0] for c in ARGPARSE_CASES])
def test_argparse_messages_are_pinned(name, argv, text):
    pinned = json.loads(CLI_PINS.read_text())
    if name not in pinned:
        pytest.skip(f"no argparse messages recorded on {PYTHON}")
    assert _run_capturing_argparse(argv, text) == pinned[name]


# dump_json must write what json.dumps(indent=2, default=wire) writes, or
# raise what it raises, on every value built of the types a result holds.
# The trees below mix those types with the values at the edges of each (the
# int digit limit, float specials, escaped and astral characters, int keys).
class Bit(enum.IntEnum):
    ONE = 1


class Text(str):
    pass


LIMIT = sys.get_int_max_str_digits()
# +-10**d at the int digit limit and one digit past it, built by map: a
# strategy that holds an int past the limit has no repr.
EDGE_INTS = st.sampled_from((LIMIT - 1, LIMIT)).flatmap(lambda d: st.sampled_from((10**d, -(10**d))))
EDGE_FLOATS = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2e-308, 1e-06, 1e16)
EDGE_TEXT = ('"', "\\", "a\x00\x1f\x7f", " \xe9", "\U0001f600", "\ud800")


@functools.cache
def _records():
    """An essential report, a found and a failed refutation, and a second decomposition."""
    plank = parse_system(_system_text(*_plank_system(random.Random(0), 4, 16)))
    blocks = parse_system(_system_text(*_block_system(random.Random(0), 8, 60)))
    return (verify_essential(lr_cover(4)), attempt_refutation(plank, W=Fraction(1, 10**6), seed=1),
            attempt_refutation(lr_cover(8), seed=7),
            decompose.second_decomposition(blocks, S=1, W=Fraction(1, 10)))


_keys = st.one_of(st.text(), st.sampled_from(EDGE_TEXT), st.integers(), EDGE_INTS)
_leaves = st.one_of(
    st.text(), st.sampled_from(EDGE_TEXT), st.integers(), EDGE_INTS, st.floats(),
    st.sampled_from(EDGE_FLOATS), st.booleans(), st.none(), st.fractions(),
    st.just(LIMIT).map(lambda d: Fraction(10**d + 1, 3)),
    st.lists(st.integers(0, 1)).map(lambda bits: Vertex(tuple(bits))),
    st.deferred(lambda: st.sampled_from(_records())),
)
_trees = st.recursive(_leaves, lambda children: st.one_of(
    st.lists(children), st.lists(children).map(tuple), st.dictionaries(_keys, children)), max_leaves=20)


def _written(write, value):
    try:
        return write(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=500, deadline=None)
@given(_trees)
def test_dump_json_writes_as_json_dumps(value):
    assert _written(dump_json, value) == _written(lambda v: json.dumps(v, indent=2, default=wire), value)


def _refused():
    """(value, exception, message) for values no result holds, which json
    writes (or, for a cycle, refuses with a ValueError) and dump_json does not."""
    loop, mapping = [], {}
    loop.append([loop])
    mapping["self"] = (mapping,)
    unknown = "^Object of type {} is not JSON serializable$"
    return [
        ([Bit.ONE], TypeError, unknown.format("Bit")),
        ({"text": Text("t")}, TypeError, unknown.format("Text")),
        ([OrderedDict(a=1)], TypeError, unknown.format("OrderedDict")),
        ({1.5: "x"}, TypeError, "^keys must be str or int, not float$"),
        (loop, RecursionError, None),
        (mapping, RecursionError, None),
    ]


@pytest.mark.parametrize("value, error, message", _refused(),
                         ids=["int-enum", "str-subclass", "ordered-dict", "float-key", "cycle-list", "cycle-dict"])
def test_dump_json_refuses_what_no_result_holds(value, error, message):
    with pytest.raises(error, match=message):
        dump_json(value)


def test_emit_leaves_no_cyclic_garbage():
    # json.dumps(indent=2) leaves a reference cycle per call for the collector.
    report, found, failed, _ = _records()
    docs = [wire(report), wire(found), wire(failed)]
    gc.collect()
    gc.disable()
    try:
        for doc in docs:
            cli._emit(doc, "json")
        assert gc.collect() == 0
    finally:
        gc.enable()


if __name__ == "__main__":
    record_missing(CLI_PINS, ARGPARSE_CASES, _run_capturing_argparse)
