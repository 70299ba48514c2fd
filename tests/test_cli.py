import contextlib
import io
import json
import os
import random
import re
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from _pins import record_missing
from cubecover import lr_cover, parse_system
from cubecover.cli import _DISPATCH, run_command
from test_refute_pinned import _block_system, _system_text


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
    monkeypatch.setattr(essential, "_coverage_sweep", lambda system, **kw: (1, 0, [None] * system.k))
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


@pytest.mark.parametrize("command", sorted(_DISPATCH))
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


# argv whose parsing is pinned, with argparse's own messages: help, usage
# errors, unread options, stray arguments, "--" and abbreviations.  Each
# command's options are parsed by its own subparser; whatever that parser
# leaves over is parsed again by the top-level parser, so every message here
# must stay as the top-level parser alone gave it.  argparse words its
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


if __name__ == "__main__":
    record_missing(CLI_PINS, ARGPARSE_CASES, _run_capturing_argparse)
