"""Golden output of every ``sixpoint`` action, with and without ``--json``.

``golden_cli.json`` holds the configurations the ``git`` cases read and,
per invocation, its argv, exit code and stdout.  It covers the four
``divisor`` actions, ``git stability`` (default weights, inline weights and
``--dim 3``), ``git limit`` and ``git conic``, every ``hypersurface``
action, ``m2`` in its three forms, and ``paper-report`` both with its defaults
(60 samples, seed 7: the report the bench runs) and with ``--samples 20``.  A
``CONFIG`` argument names the file of the case's configuration.  Like
``golden_git.json``, the file is data, not a snapshot this test may
rewrite: a change in these bytes is a change in the command-line output and
has to be made by hand and justified.
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
    } | {("git", a) for a in ("stability", "limit", "conic")} | {
        ("hypersurface", a) for a in ("eval", "singular", "lines", "nodes", "duality")
    } | {("m2",), ("paper-report",)}
    for as_json in (False, True):
        covered = {
            tuple(case["args"][: 1 if case["args"][0] in ("m2", "paper-report") else 2])
            for case in CASES
            if ("--json" in case["args"]) == as_json
        }
        assert covered == actions


@pytest.mark.parametrize("case", CASES, ids=[_name(case) for case in CASES])
def test_cli_output_matches_golden(case, tmp_path, capsys):
    argv = case["args"]
    if "config" in case:
        path = tmp_path / f"{case['config']}.cfg"
        path.write_text("\n".join(GOLDEN["configs"][case["config"]]) + "\n", encoding="utf-8")
        argv = [str(path) if arg == "CONFIG" else arg for arg in argv]
    code = cli.main(argv)
    assert (code, capsys.readouterr().out) == (case["exit"], case["stdout"])
