"""Golden output of every ``sixpoint`` action, with and without ``--json``.

``golden_cli.json`` holds the configurations the ``git`` cases read and,
per invocation, its argv, exit code and stdout.  It covers the four
``divisor`` actions, ``git stability`` (default weights, inline weights and
``--dim 3``), ``git limit`` and ``git conic``, ``git stratum`` and ``git
degenerate`` on the eleven stratum templates with and without ``--json``
and on two seeded projective images of each template without it, every
``hypersurface`` action, ``m2`` in its three forms, and ``paper-report``.
The images' coordinates are stored, so the cases do not depend on the
random transformations that produced them.  A ``CONFIG`` argument names
the file of the case's configuration.  The file is data, not a snapshot
this test may rewrite: a change in these bytes is a change in the
command-line output and has to be made by hand and justified.
"""

import json
from pathlib import Path

import pytest

from sixpoint import cli

GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text(encoding="utf-8"))
CASES = GOLDEN["cases"]


def _name(case) -> str:
    return " ".join(case.get("config") if arg == "CONFIG" else arg for arg in case["args"])


def test_golden_file_covers_every_action_with_and_without_json():
    names = [_name(case) for case in CASES]
    assert len(set(names)) == len(names)
    actions = {
        ("divisor", a) for a in ("eval", "intersect", "chamber", "baselocus")
    } | {("git", a) for a in ("stability", "stratum", "limit", "degenerate", "conic")} | {
        ("hypersurface", a) for a in ("eval", "singular", "lines", "nodes", "duality")
    } | {("m2",), ("paper-report",)}
    for as_json in (False, True):
        covered = {
            tuple(case["args"][: 1 if case["args"][0] in ("m2", "paper-report") else 2])
            for case in CASES
            if ("--json" in case["args"]) == as_json
        }
        assert covered == actions


def test_golden_file_covers_every_stratum_template_and_two_images():
    roman = ("I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "X", "XI")
    configs = {f"{s}-{kind}" for s in roman for kind in ("template", "image-1", "image-2")}
    runs = [case for case in CASES if case["args"][1:2] in (["stratum"], ["degenerate"])]
    assert {case["config"] for case in runs} == configs
    assert len(runs) == 11 * 4 + 22 * 2


@pytest.mark.parametrize("case", CASES, ids=[_name(case) for case in CASES])
def test_cli_output_matches_golden(case, tmp_path, capsys):
    argv = case["args"]
    if "config" in case:
        path = tmp_path / f"{case['config']}.cfg"
        path.write_text("\n".join(GOLDEN["configs"][case["config"]]) + "\n", encoding="utf-8")
        argv = [str(path) if arg == "CONFIG" else arg for arg in argv]
    code = cli.main(argv)
    assert (code, capsys.readouterr().out) == (case["exit"], case["stdout"])
