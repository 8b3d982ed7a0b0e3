"""The README's library quick start runs against the current API.

Each ``print(...)  # expected`` line of the block must print the text of its
comment (quotes stripped, a trailing parenthesized remark ignored).
"""

import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_runs_and_prints_its_comments():
    block = quick_start_block()
    expected = [
        line.split("#", 1)[1].split("  (", 1)[0].strip().strip('"')
        for line in block.splitlines()
        if line.startswith("print(") and "#" in line
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
    assert len(expected) == 3
