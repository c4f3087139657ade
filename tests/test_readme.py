"""The README's Library example prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def library_example() -> str:
    text = README.read_text(encoding="utf-8")
    return re.search(r"## Library\n\n```python\n(.*?)```", text, re.S).group(1)


def test_each_printed_line_matches_its_comment():
    code = library_example()
    expected = [line.split("  # ", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    assert len(expected) == 3
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
