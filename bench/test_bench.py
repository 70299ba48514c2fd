"""Tests of the benchmark itself: inputs, checker, span arithmetic, counts.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import sys
from collections import Counter

import pytest

import run
from checker import Checker, check_batch
from spans import Span, Tracer, exact_counts, install, layer_metrics, op_closure_error, self_times
from workloads import WORKLOADS, _system_op, generate

sys.path.insert(0, str(run.SRC))


def _inputs(workload: str, seed: int) -> bytes:
    """Everything the program receives for a batch: argv and stdin of each op."""
    ops = generate(workload, seed, run.fresh_import()[1].lr_cover)
    return json.dumps([[list(op.argv), op.stdin] for op in ops]).encode()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    first = _inputs(workload, 7)
    assert first == _inputs(workload, 7)
    assert first != _inputs(workload, 8)


def _hand_made_refute(cover: bool):
    # x0 + x1 = 1 and x2 = 1: the vertex (0, 0, 0) misses both rows.
    return _system_op("refute", ("refute", "--input", "-", "--seed", "1"), [[1, 1, 0], [0, 0, 1]], [1, 1],
                      cover=cover)


def _refute_output(vertex, status="uncovered", stage=None):
    return json.dumps({"status": status, "vertex": vertex, "stage": stage, "detail": {}})


def test_checker_flags_a_planted_wrong_vertex():
    checker = Checker()
    op = _hand_made_refute(cover=False)
    assert checker.check(op, 0, _refute_output([0, 0, 0])) is None
    assert "covered" in checker.check(op, 0, _refute_output([1, 0, 1]))
    assert checker.check(op, 1, _refute_output(None, "failed", "n2-sampling")) is not None
    cover_op = _hand_made_refute(cover=True)
    checker = Checker()  # verdicts are cached by input, which both ops share
    assert checker.check(cover_op, 1, _refute_output(None, "failed", "n2-sampling")) is None
    assert checker.check(cover_op, 0, _refute_output([0, 0, 0])) is not None


def test_checker_flags_a_planted_wrong_verdict():
    cli, construct = run.fresh_import()
    ops = [op for op in generate("sweep", 1, construct.lr_cover) if op.kind.startswith("verify-lr")]
    op = min(ops, key=lambda o: len(o.stdin))
    _, _, results = run.run_batch(cli, [op], None, 0)
    code, stdout = results[0]
    checker = Checker()
    assert checker.check(op, code, stdout) is None
    doc = json.loads(stdout)
    doc["is_essential"] = False
    assert checker.check(op, code, json.dumps(doc)) is not None
    doc = json.loads(stdout)
    doc["e3_witnesses"][0] = doc["e3_witnesses"][1]
    assert "exclusive" in checker.check(op, code, json.dumps(doc))


def test_checker_compares_rescaled_twin_outputs():
    op = _hand_made_refute(cover=False)
    twin = _system_op("refute", op.argv, [[2, 2, 0], [0, 0, 3]], [2, 3], cover=False, twin=0)
    good = (0, _refute_output([0, 0, 0]))
    other = (0, _refute_output([0, 1, 0]))
    assert check_batch(Checker(), [op, twin], [good, good]) == [None, None]
    assert check_batch(Checker(), [op, twin], [good, other])[1] is not None


def test_self_times_on_a_hand_made_tree():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.child", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 9.0, 0, 0),
        Span("other-op", 20.0, 21.0, -1, 1),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.0])
    assert op_closure_error(spans, selfs) == pytest.approx(0.0)


def test_self_times_count_overlapping_children_once():
    spans = [Span("root", 0.0, 10.0, -1, 0), Span("x", 1.0, 4.0, 0, 0), Span("y", 3.0, 6.0, 0, 0)]
    assert self_times(spans)[0] == pytest.approx(5.0)


def _traced_counts(workload: str) -> dict:
    """Layer counts of a traced batch holding the smallest op of each kind."""
    cli, construct = run.fresh_import()
    smallest = {}
    for op in generate(workload, 3, construct.lr_cover):
        if "twin" in op.expect:  # its check needs the twin's output from the full batch
            continue
        if op.kind not in smallest or len(op.stdin) < len(smallest[op.kind].stdin):
            smallest[op.kind] = op
    ops = list(smallest.values())
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        _, _, results = run.run_batch(cli, ops, tracer, 0)
    finally:
        uninstall()
    assert check_batch(Checker(), ops, results) == [None] * len(ops)
    spans = list(tracer.spans)
    assert op_closure_error(spans, self_times(spans)) < run.CLOSURE_TOL_S
    return exact_counts(layer_metrics(spans, tracer.counts, tracer.seconds))


@pytest.mark.parametrize("workload, busy", [
    ("sweep", ("essential.vertices", "anticonc.subset_terms")),
    ("refute", ("decompose.first_calls", "decompose.columns_moved", "cube.samples_drawn",
                "plank.rounding_attempts")),
])
def test_layer_counts_repeat_exactly_on_the_same_seed(workload, busy):
    first = _traced_counts(workload)
    assert all(first[name] > 0 for name in busy)
    assert _traced_counts(workload) == first


@pytest.mark.parametrize("workload", WORKLOADS)
def test_batches_are_large_enough_for_the_p90(workload):
    ops = generate(workload, 1, run.fresh_import()[1].lr_cover)
    assert len(ops) >= 100
    assert len({(op.argv, op.stdin) for op in ops}) == len(ops)


def test_install_restores_every_binding():
    cli, _ = run.fresh_import()
    original = cli.verify_essential
    uninstall = install(Tracer())
    assert cli.verify_essential is not original
    uninstall()
    assert cli.verify_essential is original


def test_reported_metrics_match_benchmark_json():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layers = set(layer_metrics([], Counter(), {})) | {"cli.startup_s", "trace.overhead_s"}
    assert {m["name"] for m in doc["per_layer"]} == layers
    assert {m["name"] for m in doc["end_to_end"]} == {"setup_s", "wall_ref", "op_p50_ref", "op_p90_ref", "peak_rss_mb"}
