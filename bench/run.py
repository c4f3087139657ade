"""The sixpoint benchmark: one workload, one seed, one closed loop.

    python3 bench/run.py --workload census --seed 1 --seconds 40 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, measured without
tracing, with times scaled to the host's nominal speed by a reference unit
timed between the items (see reference.py).  With ``--trace 1`` it runs
the items in blocks, each block once untraced and once traced, and prints
the per-layer metrics and the tracing overhead.  Every item's output is
checked against known answers; a failed item is counted and the loop goes
on.

The last line of standard output is the result, the line before it the
full record: stamp, input descriptors, tail percentile and failures.  The
record also goes to bench/out/, the spans of a traced run to
bench/out/spans-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 15
INTERPRETER_PROBES = 7
TAIL_BEYOND = 10
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)


@dataclass
class Tally:
    """Outcome of the items run so far."""

    note: Callable | None = None  # told each passed item and its result
    latencies: list[float] = field(default_factory=list)  # of passed items, s
    busy: float = 0.0  # time inside the program, failed items included
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


def run_item(workload, item, tally: Tally, tracer=None, in_process: bool = False) -> None:
    """Time one item, then check it outside the timed region.  An exception
    or a wrong answer counts as a failure and does not stop the loop."""
    tally.attempted += 1
    problem = result = None
    if tracer is not None:
        tracer.item = item.index
        tracer.active = True
    start = time.perf_counter()
    try:
        result = workload.run(item, in_process)
    except Exception as exc:  # a failing item must not end the run
        problem = f"item {item.index} ({item.kind}) raised {exc!r}"
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
    tally.busy += elapsed
    if problem is None:
        try:
            problem = workload.check(item, result)
        except Exception as exc:
            problem = f"item {item.index} ({item.kind}): checker raised {exc!r}"
    if problem is not None:
        tally.failures.append(problem)
        return
    tally.latencies.append(elapsed)
    if tally.note is not None:
        tally.note(item, result)


def plain_run(
    workload, seconds: float, reference=None, probe: Callable | None = None, probes: int = 0
) -> Tally:
    """The untraced loop.  ``reference``, when given, keeps its units at
    their share of the time between items.  ``probe``, when given, runs
    ``probes`` times between items, spread evenly over the run, so that
    what it measures samples the machine's speed over the whole run and not
    at one moment."""
    tally = Tally(workload.note)
    start = time.perf_counter()
    deadline = start + seconds
    due = [start + (k + 0.5) * seconds / probes for k in range(probes)]
    for item in workload.items():
        now = time.perf_counter()
        if now >= deadline:
            break
        if due and now >= due[0]:
            due.pop(0)
            probe()
        run_item(workload, item, tally)
        if reference is not None:
            reference.keep_up(tally.busy)
    for _ in due:  # items outlasted the run
        probe()
    return tally


def run_block(workload, block: list, tally: Tally, tracer=None) -> None:
    """The items of a block in-process, under ``tracer`` when given."""
    if tracer is not None:
        tracer.install()
    try:
        for item in block:
            run_item(workload, item, tally, tracer, in_process=True)
    finally:
        if tracer is not None:
            tracer.uninstall()


def traced_run(workload, seconds: float, tracer) -> tuple[Tally, Tally, dict[int, str]]:
    """Blocks of items, each run untraced and traced on the same inputs, so
    the two tallies measure the tracing overhead; the half that runs first
    alternates, so that neither gains from warm caches, and the first block
    runs once more beforehand, uncounted.  cli items run
    in-process through ``main`` here.  Also returns each item's kind."""
    plain, traced = Tally(workload.note), Tally()
    kinds = {}
    items = workload.items()
    deadline = time.perf_counter() + seconds
    for number in itertools.count():
        if time.perf_counter() >= deadline:
            break
        block = list(itertools.islice(items, workload.block))
        kinds.update((item.index, item.kind) for item in block)
        if number == 0:  # first calls pay one-time costs: not counted
            run_block(workload, block, Tally())
        halves = [(plain, None), (traced, tracer)]
        if number % 2:
            halves.reverse()
        for tally, with_tracer in halves:
            run_block(workload, block, tally, with_tracer)
    return plain, traced, kinds


def failures_of(tallies, canary: str | None) -> list[str]:
    failures = [f for t in tallies for f in t.failures]
    return ([f"canary: {canary}"] if canary is not None else []) + failures


def outcome(tallies, canary: str | None, metrics: dict) -> dict:
    """The result line: a failed canary counts as one more failure."""
    failed = len(failures_of(tallies, canary))
    attempted = sum(t.attempted for t in tallies) + (canary is not None)
    return {
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile of the ladder with at least ten samples
    beyond it, as (value, percentile), by nearest rank; the median when
    there are too few samples for any."""
    xs = sorted(latencies)
    n = len(xs)
    percentile = max((p for p in TAIL_LADDER if n * (100 - p) / 100 >= TAIL_BEYOND), default=50.0)
    return xs[max(math.ceil(percentile / 100 * n) - 1, 0)], percentile


def _child_seconds(cmd: list[str], env) -> float:
    start = time.perf_counter()
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def setup_seconds(name: str, seed: int, env) -> float:
    """One set-up time, in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)]
    out = subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def measure_interpreter(env) -> tuple[float, float]:
    """Median bare interpreter start and median extra time of a fresh
    ``import sixpoint.cli``, both in ms."""
    bare, imported = [], []
    for _ in range(INTERPRETER_PROBES):
        bare.append(_child_seconds([sys.executable, "-c", "pass"], env))
        imported.append(_child_seconds([sys.executable, "-c", "import sixpoint.cli"], env))
    base = statistics.median(bare)
    return base * 1e3, (statistics.median(imported) - base) * 1e3


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sixpoint").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def stamp(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "python": platform.python_version(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
    }


def end_to_end(
    tally: Tally, setup: list[float], scales: tuple[float, float], peak_rss_kb: int
) -> tuple[dict, dict]:
    """Metric values and the facts behind them.  Item times and set-up times
    are multiplied by their ``scales``, which bring them to the nominal
    processor speed (see reference.py); the facts keep them as measured."""
    measured = dict.fromkeys(("throughput_per_s", "latency_p50_ms", "latency_tail_ms"), 0.0)
    percentile = 0.0
    if tally.latencies:
        tail_s, percentile = tail(tally.latencies)
        measured = {
            "throughput_per_s": len(tally.latencies) / tally.busy,
            "latency_p50_ms": statistics.median(tally.latencies) * 1e3,
            "latency_tail_ms": tail_s * 1e3,
        }
    measured["setup_s"] = statistics.median(setup)
    scale, setup_scale = scales
    values = {
        "throughput_per_s": measured["throughput_per_s"] / scale,
        "latency_p50_ms": measured["latency_p50_ms"] * scale,
        "latency_tail_ms": measured["latency_tail_ms"] * scale,
        "setup_s": measured["setup_s"] * setup_scale,
        "peak_rss_mb": peak_rss_kb / 1024,
    }
    facts = {
        "samples": len(tally.latencies),
        "tail_percentile": percentile,
        "setup_runs_s": setup,
        "speed_scale": scale,
        "setup_speed_scale": setup_scale,
        "measured": measured,
    }
    return values, facts


def with_units(values: dict[str, float], declared: list[dict]) -> dict:
    """The metrics in BENCHMARK.json's order, each with its declared unit."""
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        raise RuntimeError(f"metrics disagree with BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("census", "cubic", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sixpoint" / "__init__.py").is_file():
        print(f"error: no sixpoint sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)

    from reference import Reference
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS, Cli, child_env

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    env = child_env()
    record = {"stamp": stamp(args)}
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload = WORKLOADS[args.workload](args.seed, Path(workdir))
        canary = workload.canary()
        if args.trace:
            interpreter = measure_interpreter(env)
            tracer = Tracer()
            plain, traced, kinds = traced_run(workload, args.seconds, tracer)
            values = layer_metrics(tracer, traced.attempted, kinds, Cli.KINDS)
            values["cli.interpreter_ms"], values["cli.import_ms"] = interpreter
            values["trace.overhead_ratio"] = traced.busy / plain.busy if plain.busy else 0.0
            metrics = with_units(values, spec["per_layer"])
            tracer.write(OUT / f"spans-{args.workload}.jsonl")
            record["traced_items"] = traced.attempted
            record["spans"] = len(tracer.spans)
            record["counters"] = dict(sorted(tracer.counts.items()))
            tallies = (plain, traced)
        else:
            setup_seconds(args.workload, args.seed, env)  # may compile bytecode: not kept
            setup: list[float] = []
            reference = Reference(args.workload, env)
            record["rss_before_loop_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            tally = plain_run(
                workload,
                args.seconds,
                reference,
                lambda: (
                    setup.append(setup_seconds(args.workload, args.seed, env)),
                    reference.beside_probe(),
                ),
                SETUP_PROBES,
            )
            scales = reference.scale(), reference.setup_scale()
            values, facts = end_to_end(tally, setup, scales, workload.peak_rss_kb())
            metrics = with_units(values, spec["end_to_end"])
            record.update(facts)
            record["reference_units_s"] = reference.times
            record["reference_cold_units_s"] = reference.cold_times
            tallies = (tally,)
        record["descriptors"] = workload.describe()

    result = outcome(tallies, canary, metrics)
    record["failed_ratio"] = result["failed"] / result["attempted"]
    record["failures"] = failures_of(tallies, canary)[:10]
    record["metrics"] = values
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
