"""scensched benchmark entry point.

    python3 benchmark/run.py --workload minmax-weighted --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --self-test

See benchmark/README.md.  Exits with 2 before measuring anything when the
scensched sources are not beside the benchmark.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

if __name__ == "__main__":
    if not (SRC / "scensched" / "cli.py").is_file():
        print(f"benchmark: no scensched sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import measure

    sys.exit(measure.main())
