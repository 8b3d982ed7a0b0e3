"""The package runs on the Python standard library alone."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import json, sys
before = set(sys.modules)
import symdiff2, symdiff2.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_package_and_cli_import_only_the_standard_library():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, check=True
    )
    loaded = json.loads(out.stdout.splitlines()[-1])
    assert "symdiff2.cli" in loaded
    foreign = [
        name for name in loaded
        if name.split(".")[0] not in sys.stdlib_module_names and name.split(".")[0] != "symdiff2"
    ]
    assert foreign == []
