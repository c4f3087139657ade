"""Steadiness mode: repeat workloads on the same code and print, for every
metric, the median, the quartiles and the spread (inter-quartile distance
as a share of the median) next to the bound BENCHMARK.json fixes.

    python3 bench/steady.py --workloads census,cubic,cli --seeds 1-10
    python3 bench/steady.py --workloads cli --seeds 3,3,3,3,3 --json a.json
    python3 bench/steady.py --seeds 11-20 --against a.json

A spread above a third of its bound is flagged.  With ``--against`` each median is also compared with
an earlier summary: worse by more than the bound is flagged.  Exits 1 when
anything is flagged or a run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi) + 1)) if sep else [int(lo)]
    return seeds


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="census,cubic,cli")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write the summary here")
    parser.add_argument("--against", help="an earlier summary to compare medians with")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        parser.error("need at least two runs for quartiles")
    earlier = json.loads(Path(args.against).read_text(encoding="utf-8")) if args.against else {}

    summary: dict = {}
    flagged = False
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {m["name"]: [] for m in metrics}
        walls = []
        for seed in seeds:
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace),
            ]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            walls.append(time.perf_counter() - start)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                flagged = True
                record = json.loads(proc.stdout.splitlines()[-2])["record"]
                print(f"{workload} seed {seed}: {result['failed']} failed: {record['failures'][:3]}")
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        summary[workload] = {}
        print(
            f"\n{workload}: {len(seeds)} runs of {seconds} s, trace {args.trace},"
            f" {statistics.mean(walls):.1f} s wall per run"
        )
        print(f"  {'metric':48} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6}")
        for m in metrics:
            s = summarize(values[m["name"]])
            summary[workload][m["name"]] = s
            bound = m.get("bound")
            notes = []
            if bound is not None and s["spread"] > bound / 3:
                notes.append("SPREAD")
            before = earlier.get(workload, {}).get(m["name"])
            if bound is not None and before:
                change = (s["median"] - before["median"]) / before["median"]
                worse = -change if m["better"] == "higher" else change
                notes.append(f"{change:+.3f}")
                if worse > bound:
                    notes.append("WORSE")
            flagged |= "SPREAD" in notes or "WORSE" in notes
            print(
                f"  {m['name']:48} {s['median']:11.4f} {s['q1']:11.4f} {s['q3']:11.4f}"
                f" {s['spread']:7.3f} {'' if bound is None else bound:>6} {' '.join(notes)}"
            )
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
