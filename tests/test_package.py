from __future__ import annotations

import ast
import re
from pathlib import Path

import hermflow

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hermflow"


def test_every_exported_name_resolves():
    # a renamed or deleted function must leave __all__ with it
    missing = [name for name in hermflow.__all__ if not hasattr(hermflow, name)]
    assert missing == []
    assert len(set(hermflow.__all__)) == len(hermflow.__all__)


def test_every_public_definition_has_a_reference():
    # a public top-level def or class that nothing in the package, the tests
    # or the README names outside its own definition is dead code
    sources = sorted(PACKAGE.glob("*.py"))
    texts = {p: p.read_text() for p in [*sources, *sorted((ROOT / "tests").glob("*.py")), ROOT / "README.md"]}
    unreferenced = []
    for path in sources:
        lines = texts[path].splitlines()
        for node in ast.parse(texts[path]).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            word = re.compile(rf"\b{node.name}\b")
            outside = "\n".join(lines[: node.lineno - 1] + lines[node.end_lineno :])
            if not word.search(outside) and not any(
                word.search(text) for other, text in texts.items() if other != path
            ):
                unreferenced.append(f"{path.stem}.{node.name}")
    assert unreferenced == []
