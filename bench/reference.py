"""The benchmark's speed reference: a fixed unit of sixpoint work, run
through the copy in pinned/ between the items of an untraced run.

The benchmark's host is shared: the same work runs up to twice as fast or
as slow from one second to the next, and the swings last tens of seconds,
so whole runs of the same code differ by 10-25%.  A run therefore also
times a reference unit, the same work on every run, through a copy of the
program that later changes do not touch.  The unit does the workload's
kind of work (for ``cli`` in a cold interpreter too) and takes about a
tenth of the run, interleaved with the items, so the program's speed and
the unit's move together, while a change to the program moves only the
program's times.

The times the benchmark reports are scaled by the unit's nominal time over
its mean time in the run: they read as times on the host at its nominal
speed.  The mean, not the median: unit times cluster where the host's
speed does, and the median jumps between the clusters.  Set-up times,
taken in fresh interpreters, are scaled by the cold ``cli`` unit timed
beside each set-up probe.

    python3 bench/reference.py cli

runs the unit of the ``cli`` workload once: the child process it times.
"""

from __future__ import annotations

import itertools
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

# reference time over program time; kept as the run goes
SHARE = 0.1
# the mean unit time on the reference machine (2 vCPUs, Intel Xeon,
# Python 3.11.7) in seconds, rounded
NOMINAL_S = {"census": 0.050, "cubic": 0.040, "cli": 0.11}

CENSUS_SEXTUPLES = 2  # fixed multisets, each with a fixed image
CUBIC_BATCH = 100


def _census_inputs():
    """Fixed sextuples of the census grid {-1,0,1}^3/+-, each followed by a
    fixed image; drawn without the program, which the cli unit must not
    import."""
    from pinned import stability

    grid = [
        v
        for v in itertools.product((-1, 0, 1), repeat=3)
        if any(v) and next(x for x in v if x) > 0
    ]
    rng = random.Random(0)
    inputs = []
    for _ in range(CENSUS_SEXTUPLES):
        config = stability.PointConfiguration(2, sorted(rng.choices(grid, k=6)))
        image = stability.apply_transformation(stability.random_transformation(rng, 2), config)
        inputs += [config, image]
    return inputs


def census_unit(inputs) -> None:
    """The census steps of workloads.census_steps on fixed sextuples."""
    from pinned import stability, strata

    weights = stability.symmetric_weights(6, 2)
    for config in inputs:
        verdict = stability.stability_status(config, weights)
        strata.classify_stratum(strata.stratum_signature(config), verdict)
        stability.stabilizer_dimension(config)
        stability.lies_on_conic(config)
        if verdict.status == stability.Status.STRICTLY_SEMISTABLE:
            strata.polystable_degeneration(config)


def cubic_unit() -> None:
    """One search and one duality check on a fixed batch and seed."""
    from pinned import hypersurfaces

    hypersurfaces.search_extra_singular_points(CUBIC_BATCH, 0)
    hypersurfaces.duality_sample_check(CUBIC_BATCH, 1e-9, 0)


class Reference:
    """Times reference units between the items of a run and gives the
    factors that scale the run's times to the nominal speed."""

    def __init__(self, workload: str, env: dict[str, str]):
        self.nominal = NOMINAL_S[workload]
        self.times: list[float] = []
        self.cold_times: list[float] = []  # one beside each set-up probe
        cmd = [sys.executable, str(HERE / "reference.py"), "cli"]
        self.cold = lambda: subprocess.run(
            cmd, env=env, cwd=HERE.parent, check=True, stdout=subprocess.DEVNULL
        )
        if workload == "census":
            inputs = _census_inputs()
            self.unit = lambda: census_unit(inputs)
        elif workload == "cubic":
            self.unit = cubic_unit
        else:
            self.unit = self.cold
        # first calls and bytecode compiling are not timed
        self.unit()
        self.cold()

    def keep_up(self, busy: float) -> None:
        """Run units until they have taken SHARE of ``busy``, the time the
        program has had so far."""
        while sum(self.times) < SHARE * busy:
            self.times.append(_seconds(self.unit))

    def beside_probe(self) -> None:
        """Time one cold unit, next to a set-up probe."""
        seconds = _seconds(self.cold)
        self.cold_times.append(seconds)
        if self.unit is self.cold:  # cli: it counts towards the share too
            self.times.append(seconds)

    def scale(self) -> float:
        """Nominal unit time over the run's mean unit time."""
        if not self.times:
            self.times.append(_seconds(self.unit))
        return self.nominal / statistics.mean(self.times)

    def setup_scale(self) -> float:
        """Nominal cold unit time over the mean beside the set-up probes."""
        if not self.cold_times:
            self.beside_probe()
        return NOMINAL_S["cli"] / statistics.mean(self.cold_times)


def _seconds(unit) -> float:
    start = time.perf_counter()
    unit()
    return time.perf_counter() - start


def main() -> int:
    """The cli unit: a cold interpreter that imports the copy and runs the
    census steps on one fixed sextuple and its image."""
    census_unit(_census_inputs()[:2])
    return 0


if __name__ == "__main__":
    if sys.argv[1:] != ["cli"]:
        sys.exit("usage: python3 bench/reference.py cli")
    sys.exit(main())
