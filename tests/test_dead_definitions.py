"""Every function and method under src/ is named somewhere outside its own def.

Names count as variables, attributes and imported names in the modules of
src/, tests/, demos/ and perfbench/; a name used only inside its own body (a
recursive call) does not count.  Dunder methods are called by Python itself
and are exempt.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "tests", "demos", "perfbench")


def _named(tree) -> Counter:
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rsplit(".", 1)[-1]] += 1
    return names


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def test_every_function_under_src_is_used():
    trees = {path: ast.parse(path.read_text(), str(path))
             for top in SEARCHED for path in sorted((ROOT / top).rglob("*.py"))}
    named = Counter()
    for tree in trees.values():
        named += _named(tree)
    unused = []
    for path, tree in trees.items():
        if not path.is_relative_to(ROOT / "src"):
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _is_dunder(
                node.name
            ):
                if named[node.name] - _named(node)[node.name] <= 0:
                    unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    assert unused == []
