"""Runs the hard rungs of the exact solvers, one CLI process per solve.

Each rung is an instance named in ROADMAP.md's notation, an objective and
the optimum, which ``tests/test_rungs.py`` checks by solving every rung
in-process:

- ``r(n, m, K, s)`` is ``gen_random(n, m, K, w_max=9, density=0.5, seed=s)``,
  the defaults of ``scensched generate random``;
- ``u(n, m, K, s)`` is the same with ``w_max=1``;
- ``coloring v=N`` is ``gen_coloring(Graph(N, E), 3)``, where E holds the
  distinct sorted pairs from floor(2.3 N) draws of ``rng.sample(range(N), 2)``
  and one ``rng = random.Random(0)`` serves N = 6, 8, 10, 12 in turn;
- ``p3-36`` is ``gen_partition3([10, 11, 12, 13, 14, 15], 2)``;
- ``unspl`` is ``matrix_to_instance(gen_unsplittable(2, 3))``.

The instances are built once, by this checkout's generators, and written to
a temporary directory.  Every run is one ``python -m scensched.cli solve
--algo dp --objective OBJ -i FILE`` process on a source tree's ``src/``,
started by a small ``python -c`` launcher that runs the module as
``__main__`` (exactly as ``-m`` does) and, when the CLI ends the process,
writes the process's own ``VmHWM`` to a pipe.  ``ru_maxrss`` would not do: a child started by vfork
inherits its parent's high-water mark.  Each child runs under a 3 GiB address
space limit and a time limit; a run past the limit is killed, and reports the
``VmHWM`` read just before.

Per rung and tree, every one of three runs is recorded, in run order: the
exit code, the process's wall time from spawn to exit, its peak RSS, and from
the solve record the value, ``time_ms`` and the instance hash.  With
``--parent DIR`` the rungs also run on the tree at DIR, alternating run by
run with this checkout, and each rung holds a ``parent`` list of runs beside
its ``change`` list.  The top-level ``differ`` lists every rung where some
run, of either tree, does not exit 0 with the rung's optimum, and the script
exits 1 when it is not empty.  Linux only (``/proc/self/status``).

    python tools/rungs.py -o BENCH.json
    python tools/rungs.py --parent ../parent-checkout -o BENCH.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from scensched import generators as gen  # noqa: E402
from scensched.model import instance_hash, instance_to_dict  # noqa: E402

# the 16 rungs of BENCH_27.json, in its order, each with its optimum
RUNGS = [
    ("coloring v=12", "minmax", 3),
    ("r(40,3,3,1)", "minmax", 321),
    ("r(80,4,4,0)", "minavg", 3820),
    ("r(200,4,3,1)", "minavg", 14_095),
    ("r(400,4,3,1)", "minavg", 49_270),
    ("r(300,6,3,1)", "minavg", 18_149),
    ("r(400,4,3,2)", "minavg", 56_498),
    ("u(60,3,3,1)", "minavg", 491),
    ("u(60,3,4,0)", "minavg", 675),
    ("u(120,4,3,0)", "minavg", 1349),
    ("u(100,2,3,3)", "minavg", 2088),
    ("coloring v=10", "minmax", 3),
    ("p3-36", "minmax", 1_164_721_146_076_401),
    ("unspl", "minmax", 5572),
    ("unspl", "minavg", 33_432),
    ("p3-36", "minavg", 3_494_163_438_229_203),
]

RUNS = 3  # per rung and tree
TIME_LIMIT_S = 60
ADDRESS_SPACE = 3 << 30

LAUNCHER = """\
import os, runpy, sys
fd = int(sys.argv.pop(1))
real_exit = os._exit
def report_and_exit(code):
    with open('/proc/self/status') as fh:
        kib = next(line.split()[1] for line in fh if line.startswith('VmHWM:'))
    os.write(fd, kib.encode())
    real_exit(code)
os._exit = report_and_exit
runpy.run_module('scensched.cli', run_name='__main__', alter_sys=True)
"""


def _coloring(vertices: int):
    rng = random.Random(0)
    for n in (6, 8, 10, 12):
        pairs = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(int(2.3 * n))}
        if n == vertices:
            return gen.gen_coloring(gen.Graph(n, tuple(sorted(pairs))), 3)
    raise ValueError(f"coloring v={vertices}: the draw serves v = 6, 8, 10, 12 only")


def instance(rung: str):
    """The instance that ``rung`` names in the notation above."""
    found = re.fullmatch(r"([ru])\((\d+),(\d+),(\d+),(\d+)\)", rung.replace(" ", ""))
    if found:
        n, m, K, seed = map(int, found.groups()[1:])
        w_max = 9 if found[1] == "r" else 1
        return gen.gen_random(n, m, K, w_max=w_max, density=0.5, seed=seed)
    found = re.fullmatch(r"coloring v=(\d+)", rung)
    if found:
        return _coloring(int(found[1]))
    if rung == "p3-36":
        return gen.gen_partition3([10, 11, 12, 13, 14, 15], 2)
    if rung == "unspl":
        return gen.matrix_to_instance(gen.gen_unsplittable(2, 3))
    raise ValueError(f"unknown rung {rung!r}")


def _vmhwm_kib(pid: int):
    try:
        with open(f"/proc/{pid}/status") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        return None


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run_once(src: Path, path: Path, objective: str) -> dict:
    """One solve process on the tree ``src``; its record, as documented above."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = str(src / "src")
    read, write = os.pipe()
    cmd = [sys.executable, "-c", LAUNCHER, str(write), "solve", "--algo", "dp",
           "--objective", objective, "-i", str(path)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                            pass_fds=(write,), preexec_fn=_limit_address_space)
    os.close(write)
    try:
        out, err = proc.communicate(timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        kib = _vmhwm_kib(proc.pid)
        proc.kill()
        proc.communicate()
        os.close(read)
        return {"exit": "timeout", "wall_s": round(time.perf_counter() - start, 3),
                "peak_rss_mb_at_kill": None if kib is None else round(kib / 1024, 1)}
    wall = time.perf_counter() - start
    with os.fdopen(read, "rb") as fh:
        kib = fh.read()
    record = {"exit": proc.returncode, "wall_s": round(wall, 3),
              "peak_rss_mb": round(int(kib) / 1024, 1) if kib else None}
    if proc.returncode == 0:
        solved = json.loads(out)
        record.update(value=solved["value"], time_ms=solved["time_ms"],
                      instance=solved["instance"])
    else:
        record["stderr"] = err.decode().strip()
    return record


def differ(rungs: list[dict]) -> list[str]:
    """``"rung objective"`` for each rung entry where any run, of the parent
    or the change, does not exit 0 with the entry's ``optimum``."""
    return [f"{e['rung']} {e['objective']}" for e in rungs
            if any((r.get("exit"), r.get("value")) != (0, e["optimum"])
                   for r in e.get("parent", []) + e["change"])]


def _commit(tree: Path):
    proc = subprocess.run(["git", "-C", str(tree), "describe", "--always", "--dirty"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path,
                        help="a second source tree to run, alternating with this checkout")
    parser.add_argument("-o", "--output", type=Path, help="JSON file (default: stdout)")
    args = parser.parse_args(argv)
    trees = {"change": ROOT} if args.parent is None else {"parent": args.parent.resolve(),
                                                          "change": ROOT}
    report = {
        "what": "hard rungs of the exact solvers, one `python -m scensched.cli solve --algo dp "
                "--objective OBJ` process per solve" + ("" if args.parent is None else
                "; parent: the tree given by --parent, change: this checkout"),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "commits": {name: _commit(tree) for name, tree in trees.items()},
        "method": {"runs": RUNS, "time_limit_s": TIME_LIMIT_S,
                   "address_space_limit_bytes": ADDRESS_SPACE,
                   "recorded": "every run, in run order"},
        "rungs": [],
    }
    with tempfile.TemporaryDirectory() as tmp:
        for rung, objective, optimum in RUNGS:
            inst = instance(rung)
            path = Path(tmp) / "instance.json"
            path.write_text(json.dumps(instance_to_dict(inst)))
            runs = {name: [] for name in trees}
            for _ in range(RUNS):
                for name, tree in trees.items():
                    runs[name].append(run_once(tree, path, objective))
            entry = {"rung": rung, "objective": objective, "n": inst.n, "m": inst.m,
                     "K": inst.K, "instance": instance_hash(inst), "optimum": optimum}
            entry.update(runs)
            report["rungs"].append(entry)
            print(rung, objective, *(f"{name} {[r['exit'] for r in records]} "
                                     f"{statistics.median(r['wall_s'] for r in records)} s"
                                     for name, records in runs.items()), file=sys.stderr)
    report["differ"] = differ(report["rungs"])
    text = json.dumps(report, indent=1) + "\n"
    if args.output is None:
        sys.stdout.write(text)
    else:
        args.output.write_text(text)
    return 1 if report["differ"] else 0


if __name__ == "__main__":
    sys.exit(main())
