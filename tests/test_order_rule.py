"""One order rule: ``DEFAULT_ORDER`` is read only in ``Series2._resolve_order``.

Every call that omits its order (None or INF) resolves it through that one
method, so a second fallback rule inside the kernel fails here.  The module
that defines the constant and the package that exports it do not read it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _reads(tree, scope=()):
    """(enclosing class/function names, line) of each load of DEFAULT_ORDER."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = scope + (node.name,)
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name == "DEFAULT_ORDER" and isinstance(node.ctx, ast.Load):
            yield scope, node.lineno
        yield from _reads(node, inner)


def test_default_order_is_read_only_in_resolve_order():
    reads = [(path.relative_to(SRC).as_posix(), ".".join(scope), line)
             for path in sorted(SRC.rglob("*.py"))
             for scope, line in _reads(ast.parse(path.read_text(), str(path)))]
    assert [(path, scope) for path, scope, _ in reads] == [
        ("symdiff2/series.py", "Series2._resolve_order")
    ], reads
