"""Closed-loop benchmark of the cubecover CLI.

One client, one thread: each op is a ``cubecover.cli.run_command(argv)``
call with its JSON input on stdin, sent only after the previous op has
returned.  That covers argument and JSON parsing, dispatch, the layer work
and JSON emission, without spawning a process per op.  Each workload is a
fixed batch of at least 100 distinct ops drawn from ``--seed``; the run sets
up and sends the whole batch again and again for about ``--seconds``, and
checks every output outside the timed region.  The end-to-end times are
built from each op's fastest repetition in the run (see ``fastest``).

    python3 bench/run.py --workload sweep --seed 1 --seconds 55 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from a separate traced pass and dumps its spans to
``.bench_out/``.  The last line of standard output is the result object;
the line before it holds the run's environment and sample counts.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Sequence

import reference
from checker import Checker, check_batch
from spans import Tracer, exact_counts, install, layer_metrics, op_closure_error, self_times
from workloads import WORKLOADS, generate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
MIN_ROUNDS = 4  # batches in an end-to-end run
SETUP_REPS = 5  # full set-ups in an end-to-end run, spread over it; setup_s is their median
TRACE_MIN_ROUNDS = 2  # an untraced and a traced batch each; traced batches must count alike
STARTUP_REPS = 5
CLOSURE_TOL_S = 1e-9


def fresh_import():
    """Import the package anew: its modules are dropped from sys.modules first."""
    for name in [n for n in sys.modules if n == "cubecover" or n.startswith("cubecover.")]:
        del sys.modules[name]
    cli = importlib.import_module("cubecover.cli")
    construct = importlib.import_module("cubecover.construct")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"cubecover was imported from {cli.__file__}, not from the source tree")
    return cli, construct


def run_batch(cli, ops, tracer: Tracer | None, first_op: int,
              ref_times: list[float] | None = None) -> tuple[float, list[float], list]:
    """Send every op in order; returns (batch wall, per-op latencies, results).

    With ``ref_times``, the reference computation runs after every
    ``reference.EVERY``-th op and its times are appended there.
    """
    latencies, results = [], []
    stdin = sys.stdin
    start = time.perf_counter()
    try:
        for i, op in enumerate(ops):
            sys.stdin = io.StringIO(op.stdin)
            if tracer is not None:
                tracer.op = first_op + i
            t0 = time.perf_counter()
            try:
                r = cli.run_command(list(op.argv))
                res = (r.exit_code, r.stdout)
            except Exception as exc:  # an op that raises is a failed op, not a failed run
                res = f"raised {exc!r}"
            latencies.append(time.perf_counter() - t0)
            results.append(res)
            if ref_times is not None and i % reference.EVERY == 0:
                t0 = time.perf_counter()
                reference.reference_work()
                ref_times.append(time.perf_counter() - t0)
    finally:
        sys.stdin = stdin
    return time.perf_counter() - start, latencies, results


def setup(workload: str, seed: int):
    """Import, seeded generation and serialisation, and warm-up, timed as one."""
    t0 = time.perf_counter()
    cli, construct = fresh_import()
    ops = generate(workload, seed, construct.lr_cover)
    # Warm-up: the smallest op of each kind, so lazy work is done before timing.
    smallest = {}
    for op in ops:
        if op.kind not in smallest or len(op.stdin) < len(smallest[op.kind].stdin):
            smallest[op.kind] = op
    run_batch(cli, list(smallest.values()), None, 0)
    return time.perf_counter() - t0, cli, construct, ops


class Run:
    """Set-ups, batches and failures of one benchmark run; every batch is checked."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload, self.seed = workload, seed
        self.cli = self.construct = self.ops = None
        self.setups: list[float] = []
        self.ref_batches: list[list[float]] = []
        self.checker = Checker()
        self.attempted = 0
        self.failures: list[str] = []
        self.next_op = 0

    def setup(self) -> None:
        """A full set-up; later batches use the package it imported."""
        seconds, self.cli, self.construct, ops = setup(self.workload, self.seed)
        if self.ops is not None and [(o.argv, o.stdin) for o in ops] != [(o.argv, o.stdin) for o in self.ops]:
            raise RuntimeError(f"seed {self.seed} gave a different {self.workload} batch on a second set-up")
        self.ops = ops
        self.setups.append(seconds)

    def batch(self, tracer: Tracer | None = None):
        """One batch, traced when a tracer is given: (wall, latencies, trace or None)."""
        uninstall = install(tracer) if tracer is not None else None
        ref_times = None if tracer is not None else []
        try:
            wall, latencies, results = run_batch(self.cli, self.ops, tracer, self.next_op, ref_times)
        finally:
            if uninstall is not None:
                uninstall()
        if ref_times is not None:
            self.ref_batches.append(ref_times)
        self.next_op += len(self.ops)
        self.attempted += len(results)
        for op, reason in zip(self.ops, check_batch(self.checker, self.ops, results)):
            if reason is not None:
                self.failures.append(f"{op.kind} {' '.join(op.argv)}: {reason}")
        return wall, latencies, tracer.take() if tracer is not None else None


def timed_rounds(seconds: float, min_rounds: int, one_round) -> list:
    """Call one_round until min_rounds are done and another would pass the deadline."""
    rounds = []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        rounds.append(one_round())
        took = time.perf_counter() - t0
        if len(rounds) >= min_rounds and time.perf_counter() + took > deadline:
            return rounds


def fastest(latencies: Sequence[Sequence[float]]) -> list[float]:
    """Each op's fastest latency over the batches of a run.

    On a shared machine other tenants slow ops down, in spells of seconds to
    minutes; that only ever adds time.  An op's fastest repetition, over
    rounds spread across the whole run, is its cost with most of that
    interference removed.  It repeats from run to run far better than the
    median batch wall time of the same run does.
    """
    return [min(op) for op in zip(*latencies)]


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def cli_startup_s() -> tuple[float, bool]:
    """Median cold start of ``python -m cubecover.cli`` (no command: usage, exit 3)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, ok = [], True
    for _ in range(STARTUP_REPS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "cubecover.cli"], cwd=ROOT, env=env,
                              capture_output=True, timeout=60)
        times.append(time.perf_counter() - t0)
        ok = ok and proc.returncode == 3
    return statistics.median(times), ok


def _read(path) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def git_sha() -> str | None:
    """HEAD of the repository the benchmark runs in; None outside a git checkout."""
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(ROOT / ".git" / ref)
    if sha is None:
        for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
            if line.endswith(" " + ref):
                sha = line.split()[0]
    return sha


def environment() -> dict:
    """Read-only facts about the machine; nothing on it is tuned for the run."""
    cpu = next((line.split(":", 1)[1].strip() for line in (_read("/proc/cpuinfo") or "").splitlines()
                if line.startswith("model name")), None)
    quota = _read("/sys/fs/cgroup/cpu.max")
    if quota is None:
        v1 = (_read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us"), _read("/sys/fs/cgroup/cpu/cpu.cfs_period_us"))
        quota = None if None in v1 else " ".join(v1)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "cgroup_cpu_max": quota,
        "machine_tuned": False,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def traced_metrics(run: Run, workload: str, seed: int, seconds: int, construct) -> tuple[dict, bool, dict]:
    """Per-layer metrics from traced batches, each paired with an untraced one.

    Alternating the two keeps slow drifts of the machine out of the tracing
    overhead.  Input generation is traced once more for the construct layer.
    """
    startup, startup_ok = cli_startup_s()
    tracer = Tracer()
    rounds = timed_rounds(seconds, TRACE_MIN_ROUNDS, lambda: (run.batch(), run.batch(tracer)))
    uninstall = install(tracer)
    try:
        generate(workload, seed, construct.lr_cover)
    finally:
        uninstall()
    setup_trace = tracer.take()
    traces = [traced[2] for _, traced in rounds]
    per_batch = [layer_metrics(*t) for t in traces]
    closure = max(op_closure_error(spans, self_times(spans)) for spans, _, _ in traces)
    counts_repeat = all(exact_counts(m) == exact_counts(per_batch[0]) for m in per_batch)
    layers = {name: statistics.median(m[name] for m in per_batch) for name in per_batch[0]}
    layers.update(exact_counts(per_batch[0]))
    layers["construct.lr_cover_s"] = layer_metrics(*setup_trace)["construct.lr_cover_s"]
    layers["cli.startup_s"] = startup
    layers["trace.overhead_s"] = (sum(fastest([traced[1] for _, traced in rounds]))
                                  - sum(fastest([plain[1] for plain, _ in rounds])))
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    dump = {"setup": setup_trace[0], "batches": [spans for spans, _, _ in traces]}
    (out_dir / f"spans-{workload}-seed{seed}.json").write_text(json.dumps(dump))
    info = {"rounds": len(rounds), "max_closure_error_s": closure, "counts_repeat": counts_repeat,
            "startup_exit_ok": startup_ok}
    ok = closure <= CLOSURE_TOL_S and counts_repeat and startup_ok
    return {name: metric(v, _unit(name)) for name, v in sorted(layers.items())}, ok, info


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_frac") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cubecover" / "__init__.py").is_file():
        print(f"no cubecover sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run = Run(args.workload, args.seed)
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "client": "closed loop, 1 client, 1 thread"}
    if args.trace:
        run.setup()
        metrics, ok, extra = traced_metrics(run, args.workload, args.seed, args.seconds, run.construct)
        info.update(extra)
    else:
        def one_round():
            # Set-ups spread over the run, so their median does not hang on one spell of the host.
            if len(run.setups) < SETUP_REPS and time.perf_counter() >= next_setup[0]:
                run.setup()
                next_setup[0] += args.seconds / SETUP_REPS
            return run.batch()

        next_setup = [time.perf_counter()]
        batches = timed_rounds(args.seconds, MIN_ROUNDS, one_round)
        best = fastest([lats for _, lats, _ in batches])
        # The reference calls sit at fixed places in the batch and are repeated like the ops; the
        # median of their fastest repetitions is the speed of the host over this run.
        ref_s = statistics.median(fastest(run.ref_batches))
        seconds = {"wall_s": sum(best), "op_p50_s": nearest_rank(best, 0.5), "op_p90_s": nearest_rank(best, 0.9)}
        metrics = {
            "setup_s": metric(statistics.median(run.setups), "s"),
            **{name[:-2] + "_ref": metric(value / ref_s, "ref") for name, value in seconds.items()},
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        }
        ok = True
        info.update(seconds, ref_s=ref_s, batches=len(batches), batch_walls_s=[wall for wall, _, _ in batches],
                    setups_s=run.setups, latency_samples=len(best))
    info["ops_per_batch"] = len(run.ops)
    info.update(failed_frac=len(run.failures) / run.attempted, failures=run.failures[:5],
                environment=environment())
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": ok and not run.failures, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
