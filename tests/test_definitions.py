"""Source hygiene: every top-level function and class of the package is
named somewhere besides its own definition."""

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORD = re.compile(r"\w+")


def _dead_definitions():
    """(path, line, name) of each module-level def or class under
    src/macres whose name appears in no .py file of src/, tests/ or
    bench/ except on its own definition line."""
    lines = {path: path.read_text().splitlines()
             for top in ("src", "tests", "bench")
             for path in sorted((ROOT / top).rglob("*.py"))}
    words = collections.Counter(word for text in lines.values()
                                for line in text for word in WORD.findall(line))
    dead = []
    for path in sorted((ROOT / "src" / "macres").rglob("*.py")):
        tree = ast.parse("\n".join(lines[path]), str(path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            own = WORD.findall(lines[path][node.lineno - 1]).count(node.name)
            if words[node.name] == own:
                dead.append((str(path.relative_to(ROOT)), node.lineno,
                             node.name))
    return dead


def test_no_dead_top_level_definitions():
    assert _dead_definitions() == []
