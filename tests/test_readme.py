"""The README's library quick start and shell examples run against the
current API.

Each ``print(...)  # expected`` line of the block must print the text of its
comment (quotes stripped, a trailing parenthesized remark ignored).  Each
``echo '<job>' | symdiff2 <command>`` example must give the exit code and the
report fields that its ``# -> ...`` comment states.
"""

import contextlib
import io
import json
import re
from pathlib import Path

from symdiff2.cli import run

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


# each claim of an example's comment, as the report field that bears it out;
# an example without an "exit" claim must succeed
SHELL_CLAIMS = {
    "theorem26": {
        "alpha 0": (("results", "decomposition", "alpha"), "0"),
        "k 0": (("results", "decomposition", "k"), 0),
        "f {-1: 1}": (("results", "decomposition", "f"), {"-1": "1"}),
        "g {-1: -1}": (("results", "decomposition", "g"), {"-1": "-1"}),
        "residual_zero true": (("results", "decomposition", "residual_zero"), True),
        "leaf essential": (("results", "leaf", "singularity"), "essential"),
    },
    "split": {
        "exit 1": (("exit_code",), 1),
        "witness z1": (("results", "split", "witness"), "z1"),
        "odd multiplicity 1": (("results", "split", "odd_multiplicity"), 1),
        "suggested cover degree 2": (("results", "split", "suggested_cover_degree"), 2),
    },
}


def shell_examples():
    """(job text, command, comment) for each example of the README's CLI section."""
    text = README.read_text(encoding="utf-8").split("## Command-line interface", 1)[1]
    block = text.split("Examples:", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    pattern = r"echo '(.*?)'\s*\\?\s*\|\s*symdiff2 (\S+)\s*\n# -> ([^\n]*)"
    return re.findall(pattern, block, flags=re.S)


def test_readme_shell_examples_report_what_their_comments_say():
    examples = shell_examples()
    assert [command for _, command, _ in examples] == list(SHELL_CLAIMS)
    for job, command, comment in examples:
        claims = SHELL_CLAIMS[command]
        assert [c.strip() for c in comment.split(",")] == list(claims), command
        code, text = run([command], job)
        report = json.loads(text)
        assert report["exit_code"] == code
        if "exit 1" not in claims:
            assert code == 0, command
        for claim, (path, want) in claims.items():
            got = report
            for key in path:
                got = got[key]
            assert got == want, (command, claim)
