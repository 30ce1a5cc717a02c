"""Runs one workload and prints its metrics.

Every operation is one `python -m scensched.cli ...` process on the working
tree's `src/`.  One client runs the operations one after another (a closed
loop, no concurrency).  A run builds the workload's instances from the seed,
runs one untimed warm-up operation so the bytecode cache exists, then runs at
least three passes over the fixed operation list, more while another fits in
`--seconds`, checking every operation's output.  The set-up is repeated
between operations all through the passes, and `setup_s` is the median of
all set-ups.  With `--trace 1` the same operations run
in-process through `scensched.cli.main`, once plain and once with timing
shims, and the per-layer metrics are printed instead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it carries
the run's metadata.  The exit code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from scensched import cli

from layers import Tracer, layer_metrics
from workloads import CHECK_ERRORS, WORKLOADS, build

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS_PER_PASS = 10
MIN_PASSES = 3  # per-operation times are medians over at least this many passes
IMPORT_REPEATS = 5
TAIL_BEYOND = 10  # op_ms_tail: the highest percentile with this many operations above it

CHILD_ENV = {k: v for k, v in os.environ.items()
             if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "SCHED_GUARD_OVERRIDE")}
CHILD_ENV["PYTHONPATH"] = str(SRC)


def run_child(cmd: list[str], stderr_path: Path):
    """Run one process; return (exit code, stdout, wall seconds, peak RSS in KiB)."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=CHILD_ENV,
                                cwd=ROOT)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), wall, usage.ru_maxrss


def cli_cmd(argv) -> list[str]:
    return [sys.executable, "-m", "scensched.cli", *argv]


class Checker:
    """Applies each operation's check and keeps the failure tally."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.ratios: list[float] = []
        self.messages: list[str] = []

    def __call__(self, op, code: int, out: str, err: str = "") -> None:
        self.attempted += 1
        try:
            ratio = op.check(code, out)
        except CHECK_ERRORS as exc:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(f"{' '.join(op.argv)}: {exc!r} {err.strip()[:200]}")
            return
        if ratio is not None:
            self.ratios.append(ratio)


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND values above it."""
    ranked = sorted(values)
    rank = len(ranked) - TAIL_BEYOND  # 1-based nearest rank
    if rank < 1:
        raise ValueError(f"need more than {TAIL_BEYOND} operations, got {len(ranked)}")
    return ranked[rank - 1], 100.0 * rank / len(ranked)


def timed_setup(workload: str, seed: int, work: Path):
    """Build the workload into an empty `work`; return (operations, seconds)."""
    shutil.rmtree(work, ignore_errors=True)
    start = time.perf_counter()
    ops = build(workload, seed, work)
    return ops, time.perf_counter() - start


def measure(workload: str, seed: int, seconds: float, work: Path):
    # A set-up takes a few milliseconds, a window in which a shared machine's
    # speed can be a fifth off its average over the run.  So it is repeated
    # (into a directory of its own) every `setup_every` operations, and the
    # median samples the whole run as the operation times do.
    ops, setup_s = timed_setup(workload, seed, work)
    setup_times = [setup_s]
    setup_every = max(1, len(ops) // SETUP_REPEATS_PER_PASS)
    repeat_dir = work / "setup-repeat"

    err_path = work / "stderr.txt"
    run_child(cli_cmd(["generate", "random", "--n", "4", "--m", "2", "--K", "2"]), err_path)

    checker = Checker()
    pass_walls, op_walls, peak_kib = [], [[] for _ in ops], 0
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        total = 0.0
        for i, op in enumerate(ops):
            code, out, wall, rss = run_child(cli_cmd(op.argv), err_path)
            total += wall
            op_walls[i].append(wall)
            peak_kib = max(peak_kib, rss)
            checker(op, code, out, err_path.read_text() if code else "")
            if i % setup_every == 0:
                setup_times.append(timed_setup(workload, seed, repeat_dir)[1])
        pass_walls.append(total)
        now = time.perf_counter()
        if len(pass_walls) >= MIN_PASSES and now + (now - started) > deadline:
            break

    per_op_ms = [1000.0 * statistics.median(w) for w in op_walls]
    tail_ms, tail_pct = tail(per_op_ms)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(pass_walls), "s"),
        "op_ms_p50": (statistics.median(per_op_ms), "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
        "approx_ratio_max": (max(checker.ratios), "ratio"),
    }
    meta = {"passes": len(pass_walls), "ops_per_pass": len(ops),
            "op_ms_tail_percentile": round(tail_pct, 2), "op_ms_tail_samples": len(per_op_ms),
            "setup_repeats": len(setup_times),
            "approx_ops_per_pass": len(checker.ratios) // len(pass_walls)}
    return checker, metrics, meta


def run_inprocess(ops, checker: Checker, tracer: Tracer | None = None) -> float:
    """Run the operations through scensched.cli.main; return their summed wall.
    Checks run outside the tracer's "ops" phase, so their calls are not counted."""
    total = 0.0
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        if tracer:
            tracer.phase = "ops"
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = cli.main(list(op.argv))
            total += time.perf_counter() - start
        if tracer:
            tracer.phase = "check"
        checker(op, code, out.getvalue(), err.getvalue())
    return total


def import_ms(work: Path) -> float:
    """Median `import scensched.cli` process time minus an empty interpreter's."""
    err_path = work / "stderr.txt"
    empty, full = [], []
    for _ in range(IMPORT_REPEATS):
        empty.append(run_child([sys.executable, "-c", "pass"], err_path)[2])
        full.append(run_child([sys.executable, "-c", "import scensched.cli"], err_path)[2])
    return 1000.0 * (statistics.median(full) - statistics.median(empty))


def measure_traced(workload: str, seed: int, work: Path):
    checker = Checker()
    ops = build(workload, seed, work)
    run_inprocess(ops[:1], Checker())  # warm-up, untimed
    plain_s = run_inprocess(ops, checker)

    tracer = Tracer()
    tracer.install()
    try:
        build(workload, seed, work)  # traced as the "setup" phase
        traced_s = run_inprocess(ops, checker, tracer)
    finally:
        tracer.uninstall()

    metrics = layer_metrics(tracer.spans)
    metrics["cli.import_ms"] = (import_ms(work), "ms")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    meta = {"ops_per_pass": len(ops), "inprocess_plain_s": plain_s,
            "inprocess_traced_s": traced_s, "spans": len(tracer.spans)}
    return checker, metrics, meta


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=10)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def self_test(work: Path) -> int:
    """Per workload, one operation run twice as a process must give identical
    records apart from time_ms.  Two traced in-process runs of cli-mix's
    `verify --algo fptas` operations, which call both the oracle and the
    FPTAS, must give the same nonzero computed counts."""
    problems = []
    for workload in WORKLOADS:
        ops = build(workload, 0, work)
        op = next(o for o in ops if o.argv[0] in ("solve", "verify"))
        records = []
        for _ in range(2):
            code, out, _, _ = run_child(cli_cmd(op.argv), work / "stderr.txt")
            rec = json.loads(out) if code == 0 else {}
            rec.pop("time_ms", None)
            records.append((code, rec))
        same = records[0] == records[1] and records[0][0] == 0
        if not same:
            problems.append(f"{workload}: records differ or fail for {' '.join(op.argv)}")
        print(f"{workload}: {' '.join(op.argv[:3])} twice: "
              f"{'identical records' if same else 'DIFFERENT'}")

    counted = [o for o in build("cli-mix", 0, work) if o.argv[:3] == ("verify", "--algo", "fptas")]
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            run_inprocess(counted, Checker(), tracer)
        finally:
            tracer.uninstall()
        values = layer_metrics(tracer.spans)
        counts.append((values["oracle.assignments"][0],
                       values["dp_minmax.fptas.weight_scale_max"][0]))
    if counts[0] != counts[1] or 0 in counts[0]:
        problems.append(f"computed counts differ or are 0: {counts}")
    print(f"cli-mix: {len(counted)} verify fptas operations twice: "
          f"(oracle.assignments, fptas.weight_scale_max) = {counts}")
    for p in problems:
        print(f"self-test failed: {p}", file=sys.stderr)
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description="scensched benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    work = WORK / f"{args.workload or 'self-test'}-{args.seed}-{os.getpid()}"
    try:
        if args.self_test:
            return self_test(work)
        if args.trace:
            checker, metrics, meta = measure_traced(args.workload, args.seed, work)
        else:
            checker, metrics, meta = measure(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for msg in checker.messages:
        print(f"check failed: {msg}", file=sys.stderr)
    meta.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": git_commit(), "attempted": checker.attempted, "failed": checker.failed,
        "fail_frac": checker.failed / checker.attempted,
    })
    print(json.dumps({"meta": meta}, sort_keys=True))
    correct = checker.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1
