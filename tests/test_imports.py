"""Source hygiene: every top-level import of a module is used by it."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "macres"


def _unused_imports(path):
    """(line, name) of each name a top-level import binds that the
    module never reads."""
    tree = ast.parse(path.read_text(), str(path))
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_no_unused_top_level_imports():
    # package __init__ modules import only to re-export, so they are exempt
    paths = sorted(SRC.glob("*.py")) + sorted((SRC / "macaulay").glob("*.py"))
    unused = {str(p.relative_to(SRC)): _unused_imports(p)
              for p in paths if p.name != "__init__.py"}
    assert {k: v for k, v in unused.items() if v} == {}
