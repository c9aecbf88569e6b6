"""No function, method, class or module-level name in `src/swarmsim/` goes
unnamed.

A definition whose name appears nowhere in `src/` or `bench/` except at its
own definition is dead: nothing calls it, reads it, patches it or
dispatches to it.
Names count where code names them and inside string literals (a name a
table or a patcher looks up by string), not in comments or docstrings,
which only talk about code. Tests do not count as users, so a name kept
alive only by its own test is dead too. Dunder methods are called by the
language and are not checked.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# name -> why it stays although nothing in src/ or bench/ names it.
ALLOWED = {
    "merge_views": "reference join of two views that A8 checks the "
    "semilattice laws on; the agent merges record by record instead",
}

WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# Token types whose text is string literal content (f-string pieces are
# tokens of their own from Python 3.12 on).
_STRING_TYPES = {tokenize.STRING, getattr(tokenize, "FSTRING_MIDDLE", tokenize.STRING)}


def _bound_names(target: ast.AST) -> list:
    """The names an assignment target binds: `x`, `x, y`, `[x, *rest]`."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        return [name for elt in target.elts for name in _bound_names(elt)]
    if isinstance(target, ast.Starred):
        return _bound_names(target.value)
    return []  # an attribute or an item: no new name


def _definitions(package: Path) -> dict:
    """name -> number of times a def or class statement, or an assignment
    at module level, in `package` binds it."""
    out: dict = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        names = [
            node.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        ]
        for node in tree.body:
            if isinstance(node, ast.Assign):
                names += [n for target in node.targets for n in _bound_names(target)]
            elif isinstance(node, ast.AnnAssign):
                names += _bound_names(node.target)
        for name in names:
            out[name] = out.get(name, 0) + 1
    return out


def _docstring_starts(tree: ast.AST) -> set:
    """(line, column) where each module, class or function docstring starts."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                out.add((first.value.lineno, first.value.col_offset))
    return out


def named_words(text: str) -> list:
    """Every name in Python source `text`: names in code, and words inside
    string literals other than docstrings. Comments are skipped."""
    docstrings = _docstring_starts(ast.parse(text))
    words = []
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.NAME:
            words.append(tok.string)
        elif tok.type in _STRING_TYPES and tok.start not in docstrings:
            words.extend(WORD.findall(tok.string))
    return words


def unnamed_definitions(root: Path = ROOT) -> list:
    """Sorted names defined in src/swarmsim/ and named only at a definition."""
    defs = _definitions(root / "src" / "swarmsim")
    words: dict = {}
    for top in ("src", "bench"):
        for path in sorted((root / top).rglob("*.py")):
            for word in named_words(path.read_text()):
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


def test_comments_and_docstrings_do_not_count_as_users():
    source = '''"""Module docstring naming helper."""

def helper():
    """helper docstring."""
    # a comment naming helper
    return TABLE["helper"]  # looked up by string
'''
    words = named_words(source)
    # Once at the def, once in the string literal; not in the docstrings
    # or the comments.
    assert words.count("helper") == 2
    assert "comment" not in words and "docstring" not in words


def test_module_level_assignments_are_definitions(tmp_path):
    package = tmp_path / "src" / "swarmsim"
    package.mkdir(parents=True)
    (tmp_path / "bench").mkdir()
    (package / "m.py").write_text(
        "USED = 1\n"
        "UNUSED, (PAIR, *REST) = 2, (3, 4)\n"
        "TABLE = {}\n"
        "TABLE['k'] = USED\n"  # an item assignment binds no name
        "class C:\n"
        "    ATTR = 5\n"  # class level: read as C.ATTR, not checked
    )
    assert unnamed_definitions(tmp_path) == ["C", "PAIR", "REST", "UNUSED"]
