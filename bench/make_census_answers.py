"""Regenerate census_answers.txt: the stratum label, stabilizer dimension
and conic answer of every six-point multiset of the census grid.

Run from the repository root (takes a few minutes):

    python3 bench/make_census_answers.py

The answers pin today's classifier, so the file is rewritten only when a
change to the library corrects a classification; the label counts below are
those of a full sweep and are asserted before anything is written.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from sixpoint import stability  # noqa: E402
from workloads import ANSWERS_FILE, census_multisets, census_steps  # noqa: E402

FULL_SWEEP_LABELS = {
    "Unstable": 7347, "Stable": 1392, "I": 246, "II": 1092, "III": 2052,
    "IV": 402, "V": 1608, "VI": 2016, "VII": 81, "VIII": 1344, "IX": 660,
    "X": 240, "XI": 84,
}


def main() -> int:
    codes = []
    labels = Counter()
    for points in census_multisets():
        outcome = census_steps(stability.PointConfiguration(2, points))
        code = outcome.code()
        if code is None:
            print(f"unrecognized multiset {points}: {outcome.label}", file=sys.stderr)
            return 1
        codes.append(code)
        labels[outcome.label] += 1
    if dict(labels) != FULL_SWEEP_LABELS:
        print(f"label counts {dict(labels)} differ from the full sweep", file=sys.stderr)
        return 1
    per_line = 26
    lines = ["".join(codes[i : i + per_line]) for i in range(0, len(codes), per_line)]
    ANSWERS_FILE.write_text("\n".join(lines) + "\n", encoding="ascii")
    print(f"wrote {len(codes)} answers to {ANSWERS_FILE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
