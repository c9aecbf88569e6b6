"""No module in `src/swarmsim/` reads another module's private names.

A name with one leading underscore is private to the module that defines
it: as a function, class or method, as an attribute assigned there
(`self._x = ...`), or as a class field or module-level name. A module that
reads `obj._x`, or imports `_x`, while defining no `_x` of its own reaches
into another module's state. The agent's parts (`gossip`, `antientropy`,
`execution`) and the agent itself talk only through public names, so each
part's state stays its own.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "swarmsim"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _defined(tree: ast.AST) -> set:
    """Private names a module defines."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            out.add(node.attr)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.add(node.id)
    return {name for name in out if _private(name)}


def _read(tree: ast.AST) -> list:
    """(line, name) of every private attribute read or name imported."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            out.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            out.extend((node.lineno, alias.name) for alias in node.names)
    return [(line, name) for line, name in out if _private(name)]


def cross_module_reads(sources: dict) -> list:
    """`module:line: name` for each private name a module reads that only
    other modules define; `sources` maps module name -> source text."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    defined = {mod: _defined(tree) for mod, tree in trees.items()}
    out = []
    for mod, tree in sorted(trees.items()):
        foreign = set().union(*(d for m, d in defined.items() if m != mod)) - defined[mod]
        out.extend(f"{mod}:{line}: {name}" for line, name in _read(tree) if name in foreign)
    return sorted(out)


def test_no_module_reads_another_modules_private_names():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert cross_module_reads(sources) == []


def test_guard_flags_a_private_read_across_modules():
    sources = {
        "owner": "class Part:\n    def __init__(self):\n        self._state = {}\n",
        "reader": "def peek(part):\n    return part._state, part.public\n",
        "importer": "from .owner import _helper\n",
        "helper": "def _helper():\n    pass\n",
    }
    assert cross_module_reads(sources) == [
        "importer:1: _helper",
        "reader:2: _state",
    ]
