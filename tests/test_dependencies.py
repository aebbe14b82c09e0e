"""The package imports nothing at module level beyond the standard library, numpy and scipy."""

import ast
import sys
from pathlib import Path

import adaptrd

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy", "adaptrd"}


def top_level_imports(tree: ast.Module):
    """(line, top-level package) of each import statement at module level."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_only_numpy_and_scipy_beyond_the_standard_library():
    sources = sorted(Path(adaptrd.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    foreign = [
        f"{path.name}:{line}: {name}"
        for path in sources
        for line, name in top_level_imports(ast.parse(path.read_text(encoding="utf-8")))
        if name not in ALLOWED
    ]
    assert foreign == []
