"""Time one benchmark set-up in a fresh interpreter: importing sixpoint plus
generating one workload's inputs.  Interpreter start-up and the
benchmark's own imports are not counted.

    python3 bench/setup_probe.py <workload> <seed>

Prints {"setup_s": seconds} as JSON.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    start = time.perf_counter()
    import sixpoint  # noqa: F401

    imported = time.perf_counter()
    import workloads

    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as workdir:
        begin = time.perf_counter()
        workloads.WORKLOADS[name](seed, Path(workdir))
        end = time.perf_counter()
    print(json.dumps({"setup_s": (imported - start) + (end - begin)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
