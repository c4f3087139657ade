"""Self-test of the benchmark's checkers and loop.

    python3 bench/selftest.py

Each workload's checker must accept a real result and reject a corrupted
one; a failing item must be counted and must not stop the loop; the speed
reference must keep its share of the run and scale times, not memory.
"""

from __future__ import annotations

import dataclasses
import statistics
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
from workloads import Census, Cli, Cubic, Item, census_multiset, census_multisets  # noqa: E402


class CheckerTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.workdir = Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def test_census_rejects_swapped_label(self):
        census = Census(3, self.workdir)
        item = next(i for i in census.items() if census.answers[3 * i.data] not in "US")
        original, moved, image = census.run(item)
        self.assertIsNone(census.check(item, (original, moved, image)))
        other = "II" if original.label == "I" else "I"
        swapped = dataclasses.replace(original, label=other)
        self.assertIsNotNone(census.check(item, (swapped, moved, image)))
        swapped = dataclasses.replace(moved, label=other)
        self.assertIsNotNone(census.check(item, (original, swapped, image)))
        closed, target = original.closed
        wrong_target = dataclasses.replace(original, closed=(closed, "VII" if target == "I" else "I"))
        self.assertIsNotNone(census.check(item, (wrong_target, moved, image)))

    def test_census_rejects_unrecognized(self):
        census = Census(3, self.workdir)
        item = next(census.items())
        original, moved, image = census.run(item)
        odd = dataclasses.replace(original, label="Unrecognized")
        self.assertIsNotNone(census.check(item, (odd, odd, image)))

    def test_census_multiset_unranks_the_enumeration(self):
        for rank, points in enumerate(census_multisets()):
            self.assertEqual(census_multiset(rank), points)
        self.assertEqual(rank + 1, 18564)

    def test_cubic_rejects_extra_points_and_failed_duality(self):
        cubic = Cubic(3, self.workdir)
        item = Item(0, "search+duality", (12345, 20))
        extras, report = cubic.run(item)
        self.assertIsNone(cubic.check(item, (extras, report)))
        self.assertIsNotNone(cubic.check(item, ([(1, 1, 1, -1, -1, -1)], report)))
        failed = dataclasses.replace(report, max_residual=float("inf"))
        self.assertIsNotNone(cubic.check(item, (extras, failed)))
        short = dataclasses.replace(report, samples=report.samples - 1)
        self.assertIsNotNone(cubic.check(item, (extras, short)))
        self.assertIsNone(cubic.canary())

    def test_cli_accepts_every_kind_and_rejects_corruptions(self):
        cli = Cli(3, self.workdir)
        items = cli.items()
        cycle = [next(items) for _ in range(Cli.block)]
        self.assertEqual({i.kind for i in cycle}, set(Cli.KINDS))
        for item in cycle:
            result = cli.run(item, in_process=True)
            self.assertIsNone(cli.check(item, result), item)
            crashed = dataclasses.replace(result, code=1)
            self.assertIsNotNone(cli.check(item, crashed), item)
            if item.kind == "paper_report":
                wrong = result.stdout.replace("summary: 81/81", "summary: 80/81")
                self.assertIsNotNone(cli.check(item, dataclasses.replace(result, stdout=wrong)))
            if item.kind == "git_stratum":
                label = item.data[1]
                wrong = result.stdout.replace(f"stratum: {label}\n", "stratum: XII\n")
                self.assertIsNotNone(cli.check(item, dataclasses.replace(result, stdout=wrong)))
        cold = cli.run(cycle[0])
        self.assertIsNone(cli.check(cycle[0], cold))
        self.assertGreater(cold.maxrss_kb, 0)


class FlakyWorkload:
    """Five items: the second raises, the fourth fails its check."""

    name = "flaky"

    def __init__(self):
        self.passed = []

    def items(self):
        return iter(Item(i, "k", i) for i in range(5))

    def run(self, item, in_process=False):
        if item.data == 1:
            raise RuntimeError("boom")
        return item.data

    def check(self, item, result):
        return "wrong" if result == 3 else None

    def note(self, item, result):
        self.passed.append(result)


class LoopTest(unittest.TestCase):
    def test_failed_items_are_counted_and_the_loop_goes_on(self):
        flaky = FlakyWorkload()
        tally = run.plain_run(flaky, seconds=60)
        self.assertEqual(tally.attempted, 5)
        self.assertEqual(len(tally.failures), 2)
        self.assertEqual(flaky.passed, [0, 2, 4])
        self.assertEqual(len(tally.latencies), 3)
        result = run.outcome([tally], None, {})
        self.assertEqual((result["correct"], result["attempted"], result["failed"]), (False, 5, 2))
        result = run.outcome([tally], "template I classifies as II", {})
        self.assertEqual((result["attempted"], result["failed"]), (6, 3))

    def test_every_probe_runs_when_items_run_out(self):
        times = []
        tally = run.plain_run(FlakyWorkload(), seconds=0.2, probe=lambda: times.append(1), probes=3)
        self.assertEqual(len(times), 3)
        self.assertEqual(tally.attempted, 5)

    def test_tail_has_ten_samples_beyond(self):
        for n, want in ((100, 90.0), (199, 90.0), (200, 95.0), (1500, 99.0)):
            values = [float(i) for i in range(n)]
            value, percentile = run.tail(values)
            self.assertEqual(percentile, want)
            self.assertGreaterEqual(sum(v > value for v in values), 10)


class ReferenceTest(unittest.TestCase):
    def test_units_keep_their_share_of_the_run(self):
        ref = reference.Reference.__new__(reference.Reference)
        ref.nominal, ref.times, ref.unit = 0.02, [], lambda: time.sleep(0.01)
        ref.keep_up(0.2)
        self.assertGreaterEqual(sum(ref.times), reference.SHARE * 0.2)
        self.assertLess(sum(ref.times) - max(ref.times), reference.SHARE * 0.2)
        self.assertAlmostEqual(ref.scale(), 0.02 / statistics.mean(ref.times))

    def test_times_scale_and_memory_does_not(self):
        tally = run.Tally(latencies=[0.01, 0.02, 0.03], busy=0.06)
        values, facts = run.end_to_end(tally, [0.5], (2.0, 3.0), 2048)
        self.assertAlmostEqual(values["latency_p50_ms"], 40.0)
        self.assertAlmostEqual(values["throughput_per_s"], 25.0)
        self.assertAlmostEqual(values["setup_s"], 1.5)
        self.assertEqual(values["peak_rss_mb"], 2.0)
        self.assertAlmostEqual(facts["measured"]["latency_p50_ms"], 20.0)

    def test_cli_unit_runs_without_the_program(self):
        code = (
            f"import sys; sys.path.insert(0, {str(HERE)!r}); import reference; "
            "reference.main(); print('sixpoint' in sys.modules)"
        )
        cmd = [sys.executable, "-c", code]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        self.assertEqual(out.stdout.strip(), "False")


if __name__ == "__main__":
    unittest.main()
