"""Runs the benchmark on seeds 0-9 of every workload and reports each
end-to-end metric's median, quartiles and spread (quartile distance over
median) per workload.

    python3 benchmark/spread.py [--write-baseline benchmark/baseline.json]

A spread above its metric's bound in BENCHMARK.json fails the check (exit 1);
one above a third of it is flagged.  With --write-baseline the medians and
quartiles are stored as the baseline a later change is compared with.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from measure import git_commit  # noqa: E402

SEEDS = range(10)


def run_once(cmd: list[str], workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [*cmd, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write-baseline")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report, ok = {}, True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            start = time.perf_counter()
            runs.append(run_once(bench["command"], workload, seed, bench["run_seconds"]))
            print(f"{workload} seed {seed}: {time.perf_counter() - start:.1f} s "
                  + " ".join(f"{k}={v:.4g}" for k, v in runs[-1].items()), file=sys.stderr)
        report[workload] = {}
        for name, bound in bounds.items():
            s = summarize([r[name] for r in runs])
            report[workload][name] = s
            ok &= s["spread"] <= bound
            flag = ("" if s["spread"] < bound / 3
                    else "  above bound/3" if s["spread"] <= bound else "  ABOVE BOUND")
            print(f"{workload:16} {name:17} median {s['median']:10.4f}  "
                  f"q1 {s['q1']:10.4f}  q3 {s['q3']:10.4f}  spread {s['spread']:.3f} "
                  f"(bound {bound}){flag}")
    if args.write_baseline:
        doc = {"seeds": list(SEEDS), "run_seconds": bench["run_seconds"], "commit": git_commit(),
               "python": platform.python_version(), "nproc": os.cpu_count(),
               "workloads": report}
        Path(args.write_baseline).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
