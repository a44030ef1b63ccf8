"""Layering guard: no ``_private`` name crosses a top-level package.

A helper that another package needs is part of the owner's public API
and must be named (and documented) as such; importing an underscore
name from elsewhere couples two packages through an implementation
detail. The scan covers every ``from ... import`` in ``src/repro``,
function-local imports included.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def cross_package_private_imports(root: Path) -> List[str]:
    """``path:line`` descriptions of every import of an ``_underscore``
    name from a top-level package other than the importer's own."""
    found = []
    for path in sorted(root.rglob("*.py")):
        parts = list(path.relative_to(root.parent).with_suffix("").parts)
        is_package = parts[-1] == "__init__"
        if is_package:
            parts.pop()
        own = parts[1] if len(parts) > 1 else None
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module.split(".") if node.module else []
            if node.level:
                keep = len(parts) - node.level + (1 if is_package else 0)
                target = parts[:keep] + module
            else:
                target = module
            if not target or target[0] != root.name:
                continue
            theirs = target[1] if len(target) > 1 else None
            if theirs == own:
                continue
            for alias in node.names:
                if alias.name.startswith("_") \
                        and not alias.name.startswith("__"):
                    found.append(f"{path.relative_to(root.parent)}:"
                                 f"{node.lineno}: {alias.name} from "
                                 f"{'.'.join(target)}")
    return found


def test_no_cross_package_private_imports():
    assert cross_package_private_imports(SRC) == []


def test_scan_sees_relative_and_local_imports(tmp_path):
    pkg = tmp_path / "repro"
    (pkg / "a").mkdir(parents=True)
    (pkg / "b").mkdir()
    for init in (pkg, pkg / "a", pkg / "b"):
        (init / "__init__.py").write_text("")
    (pkg / "a" / "impl.py").write_text("def _helper():\n    pass\n")
    (pkg / "a" / "same.py").write_text("from .impl import _helper\n")
    (pkg / "b" / "user.py").write_text(
        "def f():\n    from ..a.impl import _helper\n")
    assert cross_package_private_imports(pkg) == [
        "repro/b/user.py:2: _helper from repro.a.impl"]
