"""Every public module-level name of the package has a reader outside the tests.

A public ``def``, ``class`` or assigned name in ``src/emoexplain/*.py`` must
be read somewhere other than its own definition: by its module, outside the
statement that defines it, or, as a whole word, by another file of ``src/``
(``__init__.py`` aside), ``scripts/`` or ``perfbench/``.  A name that only
tests read is made private or deleted.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "emoexplain"


def definitions(tree: ast.Module) -> dict[str, list[ast.stmt]]:
    """Each public module-level name of ``tree`` defined by ``def``, ``class`` or assignment, with its statements."""
    defined: dict[str, list[ast.stmt]] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                defined.setdefault(name, []).append(node)
    return defined


def sources() -> dict[Path, str]:
    """The text of every package module and of every file in ``scripts/`` and ``perfbench/``."""
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "scripts").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]
    return {path: path.read_text(encoding="utf-8") for path in paths}


def unread_names(texts: dict[Path, str]) -> list[str]:
    """``module.name`` for each public name of a package module in ``texts`` that nothing but its definition reads."""
    unread = []
    for path in sorted(path for path in texts if path.parent == PACKAGE):
        tree = ast.parse(texts[path])
        others = [text for other, text in texts.items() if other not in (path, PACKAGE / "__init__.py")]
        for name, statements in sorted(definitions(tree).items()):
            inside = {id(n) for statement in statements for n in ast.walk(statement)}
            read_here = any(isinstance(n, ast.Name) and n.id == name and id(n) not in inside for n in ast.walk(tree))
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not read_here and not any(word.search(text) for text in others):
                unread.append(f"{path.stem}.{name}")
    return unread


def test_every_public_name_has_a_reader_outside_the_tests():
    assert unread_names(sources()) == []


def test_a_function_only_the_tests_read_is_flagged():
    texts = sources()
    texts[PACKAGE / "cli.py"] += "\n\ndef only_tests_call_this():\n    return only_tests_call_this\n"
    assert unread_names(texts) == ["cli.only_tests_call_this"]
