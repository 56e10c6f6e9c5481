"""The public surface is what the package itself uses.

A name in `locprob.__all__` that no module of the package reads, only tests,
is a duplicate or dead code: it should move into tests/oracles.py or go.
"""

import ast
from pathlib import Path

import locprob

PACKAGE = Path(locprob.__file__).resolve().parent


def _names_read(path: Path) -> set[str]:
    """Every name a module loads, bare (f) or as an attribute (module.f)."""
    read = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def test_every_public_name_is_used_by_the_package():
    read = set().union(*(_names_read(p) for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
    assert sorted(set(locprob.__all__) - read) == []
