"""The benchmark's workloads: inputs made from a seed, the calls into
sixpoint that make up one item, and the known answers each item is checked
against.

Each workload is a closed loop with a single caller: the next item starts
only after the previous one has returned.  Every call into the library goes
through a module attribute (``stability.stability_status``, never a name
imported from a module), so the tracer's patches see the calls.
"""

from __future__ import annotations

import io
import itertools
import heapq
import json
import math
import os
import random
import resource
import subprocess
import sys
from array import array
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from sixpoint import cli, hypersurfaces, stability, strata
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ANSWERS_FILE = HERE / "census_answers.txt"
REPLAYED_SEXTUPLES = 40

LABELS = ("I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "X", "XI")

# published: strata I-VI degenerate to the closed orbit I, VII-XI to VII
CLOSED_ORBIT = {label: ("I" if i < 6 else "VII") for i, label in enumerate(LABELS)}

_E0, _E1, _E2 = (1, 0, 0), (0, 1, 0), (0, 0, 1)

# one configuration per stratum, with its incidences exact by construction
TEMPLATES = {
    "I": (_E0, _E0, _E1, _E1, _E2, _E2),
    "II": (_E0, _E0, _E1, _E1, _E2, (1, 0, 1)),
    "III": (_E0, _E0, _E1, _E1, _E2, (1, 1, 1)),
    "IV": (_E0, _E0, _E2, (1, 0, 1), _E1, (1, 1, 0)),
    "V": (_E0, _E0, _E2, (1, 0, 1), (1, 1, 0), (1, 1, 1)),
    "VI": (_E0, _E0, _E2, (1, 0, 1), _E1, (2, 1, 1)),
    "VII": (_E2, _E2, _E0, _E1, (1, 1, 0), (1, 2, 0)),
    "VIII": (_E0, _E0, _E1, _E2, (0, 1, 1), (1, 1, 3)),
    "IX": (_E0, _E0, _E1, _E2, (1, 1, 1), (1, 2, 4)),
    "X": (_E0, _E1, (1, 1, 0), (1, 2, 0), _E2, (1, 0, 1)),
    "XI": (_E0, _E1, (1, 1, 0), (1, 2, 0), _E2, (1, 3, 1)),
}


@dataclass(frozen=True)
class Item:
    """One unit of work: its position in the seeded order, its kind and
    its input."""

    index: int
    kind: str
    data: object


def child_env() -> dict[str, str]:
    """Environment for a child interpreter that imports sixpoint from this
    checkout, caching bytecode and buffering piped output as an installed
    package would, whatever the caller's environment says."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONUNBUFFERED", None)
    paths = [str(HERE.parent / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _item_rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + index)


# ---------------------------------------------------------------- census


def census_grid() -> list[tuple[int, int, int]]:
    """The 13 points of {-1,0,1}^3 up to sign, first nonzero entry positive."""
    return [
        v
        for v in itertools.product((-1, 0, 1), repeat=3)
        if any(v) and next(x for x in v if x) > 0
    ]


GRID = census_grid()
CENSUS_SIZE = math.comb(len(GRID) + 5, 6)  # 18,564


def census_multisets():
    """All six-point multisets of the grid, in the order of
    ``itertools.combinations_with_replacement``."""
    return itertools.combinations_with_replacement(GRID, 6)


def census_multiset(rank: int) -> tuple[tuple[int, int, int], ...]:
    """The multiset at position ``rank`` of ``census_multisets()``, built
    without listing the others."""
    points = []
    first = 0
    for left in range(5, -1, -1):  # points still to choose after this one
        for choice in range(first, len(GRID)):
            # multisets of the remaining size starting with this choice
            count = math.comb(len(GRID) - choice + left - 1, left)
            if rank < count:
                break
            rank -= count
        points.append(GRID[choice])
        first = choice
    return tuple(points)


_CODES = {"Unstable": "U", "Stable": "S"}
_CODES.update({label: chr(ord("a") + i) for i, label in enumerate(LABELS)})


@dataclass(frozen=True)
class CensusOutcome:
    status: str
    label: str
    stabilizer: int
    conic: bool
    closed: tuple | None  # (configuration, label) when strictly semistable

    def code(self) -> str | None:
        """Three characters: label, stabilizer dimension, conic answer.
        None when the label is outside Stable, Unstable and I..XI."""
        if self.label not in _CODES:
            return None
        return f"{_CODES[self.label]}{self.stabilizer}{int(self.conic)}"


def census_steps(config) -> CensusOutcome:
    """The census computation on one sextuple."""
    verdict = stability.stability_status(config, stability.symmetric_weights(6, 2))
    label = strata.classify_stratum(strata.stratum_signature(config), verdict)
    stab = stability.stabilizer_dimension(config)
    conic = stability.lies_on_conic(config)
    closed = None
    if verdict.status == stability.Status.STRICTLY_SEMISTABLE:
        closed = strata.polystable_degeneration(config)
    return CensusOutcome(verdict.status.value, label, stab, conic, closed)


def load_census_answers() -> str:
    text = "".join(ANSWERS_FILE.read_text(encoding="ascii").split())
    if len(text) != 3 * CENSUS_SIZE:
        raise ValueError(f"{ANSWERS_FILE.name} holds {len(text)} characters, not {3 * CENSUS_SIZE}")
    return text


def stratified_order(classes: str, rng: random.Random) -> array:
    """All indices, each class shuffled and the classes interleaved so that
    every prefix holds them in their full-grid proportions.

    The median item time sits where fast unstable items give way to slow
    strictly semistable ones, so a plain shuffle would let the median follow
    each seed's chance mix of the two.  Kept in compact arrays, so that the
    benchmark's own tables add little to the census peak memory.
    """
    members: dict[str, array] = {}
    for index, cls in enumerate(classes):
        members.setdefault(cls, array("i")).append(index)
    groups = [members[cls] for cls in sorted(members)]
    for group in groups:
        rng.shuffle(group)

    def keyed(group):
        for k, index in enumerate(group):
            yield (k + rng.random()) / len(group), index

    return array("i", (index for _, index in heapq.merge(*map(keyed, groups))))


class Census:
    """Seeded samples, without replacement, of the six-point multisets of
    the grid, stratified by known label; each item classifies a sextuple and
    its image under a seeded random transformation."""

    name = "census"
    block = 20  # items per untraced/traced block in the traced run

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.answers = load_census_answers()
        self.order = stratified_order(self.answers[::3], random.Random(seed))
        self.statuses: Counter = Counter()
        self.labels: Counter = Counter()
        self.max_bits = 0
        self.semistable: list = []  # (multiset index, image) for the replay

    def items(self):
        # a pass over all 18,564 multisets takes minutes; later passes reuse
        # them with fresh transformations
        for index in itertools.count():
            yield Item(index, "sextuple", self.order[index % len(self.order)])

    def run(self, item: Item, in_process: bool = False):
        config = stability.PointConfiguration(2, census_multiset(item.data))
        matrix = stability.random_transformation(_item_rng(self.seed, item.index), 2)
        image = stability.apply_transformation(matrix, config)
        return census_steps(config), census_steps(image), image

    def check(self, item: Item, result) -> str | None:
        original, moved, _ = result
        known = self.answers[3 * item.data : 3 * item.data + 3]
        if original.code() != known:
            return (
                f"multiset {item.data}: label/stabilizer/conic {original.label}/"
                f"{original.stabilizer}/{original.conic}, known answer {known!r}"
            )
        if (moved.label, moved.stabilizer, moved.conic) != (
            original.label,
            original.stabilizer,
            original.conic,
        ):
            return (
                f"multiset {item.data}: transformed copy gives {moved.label}/"
                f"{moved.stabilizer}/{moved.conic}, original {original.label}/"
                f"{original.stabilizer}/{original.conic}"
            )
        for which, outcome in (("original", original), ("transformed", moved)):
            if (outcome.closed is None) != (outcome.label not in CLOSED_ORBIT):
                return f"multiset {item.data} ({which}): degeneration ran for {outcome.label}"
            if outcome.closed is None:
                continue
            closed, target = outcome.closed
            if target != CLOSED_ORBIT[outcome.label]:
                return (
                    f"multiset {item.data} ({which}): {outcome.label} degenerates "
                    f"to {target}, expected {CLOSED_ORBIT[outcome.label]}"
                )
            again = stratum_label(closed)
            if again != target:
                return (
                    f"multiset {item.data} ({which}): closed configuration "
                    f"re-classifies as {again}, not {target}"
                )
        return None

    def canary(self) -> str | None:
        for label, points in TEMPLATES.items():
            got = stratum_label(stability.PointConfiguration(2, points))
            if got != label:
                return f"template {label} classifies as {got}"
        return None

    def note(self, item: Item, result) -> None:
        original, _, image = result
        self.statuses[original.status] += 1
        self.labels[original.label] += 1
        self.max_bits = max([self.max_bits] + [abs(x).bit_length() for p in image.points for x in p])
        if original.closed is not None and len(self.semistable) < REPLAYED_SEXTUPLES:
            self.semistable.append((item.data, image))

    def describe(self) -> dict:
        total = sum(self.statuses.values()) or 1
        return {
            "status_shares": {k: round(v / total, 4) for k, v in sorted(self.statuses.items())},
            "labels": dict(sorted(self.labels.items())),
            "transformed_max_bits": self.max_bits,
            "degeneration_steps": self._degeneration_steps(),
        }

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def _degeneration_steps(self) -> dict[int, int]:
        """Histogram of advanced limits per degeneration, replayed under a
        tracer on the first strictly semistable sextuples and their images."""
        configs = []
        for index, image in self.semistable:
            configs += [stability.PointConfiguration(2, census_multiset(index)), image]
        tracer = Tracer()
        tracer.install()
        tracer.active = True
        try:
            for config in configs:
                strata.polystable_degeneration(config)
        finally:
            tracer.active = False
            tracer.uninstall()
        return dict(sorted(Counter(tracer.degeneration_steps()).items()))

def stratum_label(config) -> str:
    """Stable, Unstable or a stratum label; classify_stratum gives a stratum
    label only to a strictly semistable sextuple."""
    verdict = stability.stability_status(config, stability.symmetric_weights(6, 2))
    return strata.classify_stratum(strata.stratum_signature(config), verdict)


# ----------------------------------------------------------------- cubic


def _ten_nodes() -> set[tuple[int, ...]]:
    """Sign classes of the permutations of (1,1,1,-1,-1,-1)."""
    nodes = set()
    for perm in set(itertools.permutations((1, 1, 1, -1, -1, -1))):
        nodes.add(perm if perm[0] > 0 else tuple(-x for x in perm))
    return nodes


class Cubic:
    """Seeded batches on the Segre cubic: each item is one singular-point
    search and one duality check with the same seeded batch size and seed.

    Batch sizes spread over 60..300 (180 on average), so item times spread
    wider than the processor's own speed swings; with one fixed size the
    median item time would sit between a fast and a slow cluster.  Every
    cycle of items takes each size once, in a seeded order, so that every
    run holds the sizes in the same proportions and the median does not
    follow each seed's chance mix of them.
    """

    name = "cubic"
    block = 4

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.samples = Counter()

    BATCHES = tuple(range(60, 301, 12))

    def items(self):
        rng = random.Random(self.seed)
        index = itertools.count()
        while True:
            batches = list(self.BATCHES)
            rng.shuffle(batches)
            for batch in batches:
                yield Item(next(index), "search+duality", (rng.randrange(2**31), batch))

    def run(self, item: Item, in_process: bool = False):
        seed, batch = item.data
        extras = hypersurfaces.search_extra_singular_points(batch, seed)
        report = hypersurfaces.duality_sample_check(batch, 1e-9, seed)
        return extras, report

    def check(self, item: Item, result) -> str | None:
        seed, batch = item.data
        extras, report = result
        if extras:
            return f"seed {seed}: singular points beyond the ten nodes: {extras[:3]}"
        if not report.passed or report.samples != batch:
            return f"seed {seed}, batch {batch}: duality report failed: {report}"
        return None

    def canary(self) -> str | None:
        nodes = _ten_nodes()
        if len(nodes) != 10:
            return f"{len(nodes)} sign classes, not 10"
        for node in sorted(nodes):
            if not hypersurfaces.is_singular_point(hypersurfaces.Hypersurface.SEGRE_CUBIC, node):
                return f"node {node} tests nonsingular"
        return None

    def note(self, item: Item, result) -> None:
        report = result[1]
        self.samples["duality_exact_samples"] += report.exact_samples
        self.samples["duality_irrational_samples"] += report.samples - report.exact_samples
        self.samples["duality_skipped"] += report.skipped

    def describe(self) -> dict:
        return dict(self.samples)

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ------------------------------------------------------------------- cli

CHAMBER_RAYS = (
    ("-K", "IgusaQuartic", "true"),
    ("K + 1/3*psi", "SegreCubic", "true"),
    ("psi", "AmpleModel_M06", "false"),
    ("B2", "Point", "true"),
    ("B3", "Point", "true"),
)
ALPHAS = (("7/10", "Point"), ("9/11", "P6QuotientSL2"), ("2", "SatakeA2"))

IMAGES_PER_TEMPLATE = 4
GIT_PER_CYCLE = 5  # of each of stratum and degenerate


def _random_image(rng: random.Random, points) -> list[tuple[int, ...]]:
    """Image of the points under a random invertible integer 3x3 matrix."""
    while True:
        m = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
        det = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
        if det:
            return [tuple(sum(row[j] * p[j] for j in range(3)) for row in m) for p in points]


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str
    maxrss_kb: int


class Cli:
    """Cold ``python -m sixpoint.cli`` processes in a seeded fixed order.

    One cycle is 24 commands: the report twice plain and twice as JSON, five
    each of ``git stratum`` and ``git degenerate`` on seeded projective
    images of the stratum templates, two duality samplers, the five chamber
    rays and the three log-canonical thresholds.
    """

    name = "cli"
    block = 24  # one cycle
    KINDS = (
        "paper_report",
        "paper_report_json",
        "git_stratum",
        "git_degenerate",
        "hypersurface_duality",
        "divisor_chamber",
        "m2_alpha",
    )

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.root = HERE.parent
        self.env = child_env()
        rng = random.Random(seed)
        self.images: list[tuple[str, str]] = []  # (label, path)
        for label, points in TEMPLATES.items():
            for k in range(IMAGES_PER_TEMPLATE):
                path = workdir / f"{label}-{k}.txt"
                lines = [" ".join(str(x) for x in p) for p in _random_image(rng, points)]
                path.write_text("\n".join(lines) + "\n", encoding="ascii")
                self.images.append((label, str(path)))
        rng.shuffle(self.images)
        self.stderr_path = workdir / "stderr.txt"
        self.kinds: Counter = Counter()
        self.max_child_rss_kb = 0

    def _cycle(self, rng: random.Random, git_start: int) -> list[tuple[str, list[str], object]]:
        cmds: list[tuple[str, list[str], object]] = []
        cmds += [("paper_report", ["paper-report"], None)] * 2
        cmds += [("paper_report_json", ["paper-report", "--json"], None)] * 2
        for k in range(2 * GIT_PER_CYCLE):
            label, path = self.images[(git_start + k) % len(self.images)]
            action = "stratum" if k % 2 == 0 else "degenerate"
            cmds.append((f"git_{action}", ["git", action, path], label))
        for _ in range(2):
            s = rng.randrange(10**6)
            cmds.append(("hypersurface_duality", ["hypersurface", "duality", "--samples", "100", "--seed", str(s)], None))
        for expr, model, wall in CHAMBER_RAYS:
            cmds.append(("divisor_chamber", ["divisor", "chamber", f"--expr={expr}"], (model, wall)))
        for alpha, model in ALPHAS:
            cmds.append(("m2_alpha", ["m2", "--alpha", alpha], (model, "true")))
        rng.shuffle(cmds)
        return cmds

    def items(self):
        rng = random.Random(self.seed + 1)
        index = 0
        for cycle in itertools.count():
            for kind, argv, expected in self._cycle(rng, cycle * 2 * GIT_PER_CYCLE):
                yield Item(index, kind, (argv, expected))
                index += 1

    def run(self, item: Item, in_process: bool = False) -> CliResult:
        argv = item.data[0]
        if in_process:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
            return CliResult(code, out.getvalue(), err.getvalue(), 0)
        with open(self.stderr_path, "w+b") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "sixpoint.cli", *argv],
                stdout=subprocess.PIPE,
                stderr=err,
                env=self.env,
                cwd=self.root,
            )
            try:
                out = proc.stdout.read()
            finally:
                proc.stdout.close()
                # wait4 reports this child's own peak memory
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            return CliResult(
                proc.returncode,
                out.decode("utf-8", "replace"),
                err.read().decode("utf-8", "replace"),
                usage.ru_maxrss,
            )

    def check(self, item: Item, result: CliResult) -> str | None:
        kind, (argv, expected) = item.kind, item.data
        where = "sixpoint " + " ".join(argv)
        if result.code != 0:
            return f"{where}: exit code {result.code}: {result.stderr.strip()[-200:]}"
        if kind == "paper_report_json":
            payload = json.loads(result.stdout)
            if payload.get("pass") is not True or payload.get("checks") != 81:
                return f"{where}: pass={payload.get('pass')} checks={payload.get('checks')}"
            return None
        lines = result.stdout.splitlines()
        if kind == "paper_report":
            if not lines or lines[-1] != "summary: 81/81 checks passed":
                return f"{where}: last line {lines[-1] if lines else ''!r}"
            return None
        fields = {}
        for line in lines:
            key, sep, value = line.partition(": ")
            if sep:
                fields.setdefault(key, value)
        if kind == "git_stratum":
            want = {"stratum": expected, "status": "StrictlySemistable"}
        elif kind == "git_degenerate":
            want = {"stratum": CLOSED_ORBIT[expected]}
        elif kind == "hypersurface_duality":
            want = {"pass": "true", "samples": "100"}
        else:  # divisor_chamber, m2_alpha
            want = {"model": expected[0], "wall": expected[1]}
        for key, value in want.items():
            if fields.get(key) != value:
                return f"{where}: {key} is {fields.get(key)!r}, expected {value!r}"
        return None

    def canary(self) -> str | None:
        return None

    def note(self, item: Item, result: CliResult) -> None:
        self.kinds[item.kind] += 1
        self.max_child_rss_kb = max(self.max_child_rss_kb, result.maxrss_kb)

    def describe(self) -> dict:
        return {"kinds": dict(sorted(self.kinds.items()))}

    def peak_rss_kb(self) -> int:
        """The largest child's own peak."""
        return self.max_child_rss_kb


WORKLOADS = {w.name: w for w in (Census, Cubic, Cli)}
