"""Golden output of ``sixpoint git stratum`` and ``git degenerate``.

``golden_git.json`` holds, per configuration, its points and the exit code
and stdout of each command run on it: the eleven stratum templates with and
without ``--json``, and two seeded projective images of each template
without it.  The coordinates are stored, so the cases do not depend on the
random transformations that produced them.  The file is data, not a
snapshot this test may rewrite: a change in these bytes is a change in the
command-line output and has to be made by hand and justified.
"""

import json
from pathlib import Path

import pytest

from sixpoint import cli

CASES = json.loads((Path(__file__).parent / "golden_git.json").read_text(encoding="utf-8"))


def test_golden_file_covers_every_template_and_two_images():
    names = [case["name"] for case in CASES]
    assert len(names) == 33 and len(set(names)) == 33
    assert sum(len(case["runs"]) for case in CASES) == 11 * 4 + 22 * 2


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_git_output_matches_golden(case, tmp_path, capsys):
    config = tmp_path / "config.txt"
    config.write_text("\n".join(case["points"]) + "\n", encoding="utf-8")
    for run in case["runs"]:
        action, *flags = run["args"]
        code = cli.main(["git", action, str(config), *flags])
        out = capsys.readouterr().out
        assert (code, out) == (run["exit"], run["stdout"]), run["args"]
