"""No function, method or class in `src/swarmsim/` goes unnamed.

A definition whose name appears nowhere in `src/` or `bench/` except at its
own definition is dead: nothing calls it, patches it or dispatches to it.
Tests do not count as users, so a name kept alive only by its own test is
dead too. Dunder methods are called by the language and are not checked.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# name -> why it stays although nothing in src/ or bench/ names it.
ALLOWED = {
    "merge_views": "reference join of two views that A8 checks the "
    "semilattice laws on; the agent merges record by record instead",
}


def _definitions(package: Path) -> dict:
    """name -> number of times a def or class statement in `package` binds it."""
    out: dict = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out[node.name] = out.get(node.name, 0) + 1
    return out


def unnamed_definitions(root: Path = ROOT) -> list:
    """Sorted names defined in src/swarmsim/ and named only at a definition."""
    defs = _definitions(root / "src" / "swarmsim")
    text = "\n".join(
        path.read_text()
        for top in ("src", "bench")
        for path in sorted((root / top).rglob("*.py"))
    )
    words: dict = {}
    for word in re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text):
        words[word] = words.get(word, 0) + 1
    return sorted(
        name
        for name, count in defs.items()
        if not (name.startswith("__") and name.endswith("__"))
        and words.get(name, 0) <= count
    )


def test_every_definition_is_named_outside_itself():
    # Equality, not inclusion: an allowed name that gained a user drops out.
    assert unnamed_definitions() == sorted(ALLOWED)
