"""Checks on the package source itself."""

import ast
import sys
from pathlib import Path

import hklat

SOURCES = sorted(Path(hklat.__file__).parent.glob("*.py"))


def test_no_bare_assert_in_the_package():
    # python -O strips assert statements, so a check must raise instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found


def test_package_imports_only_the_standard_library():
    # hklat has no runtime dependencies; sympy and hypothesis are test-only
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {m}" for m in modules
                      if m.split(".")[0] not in sys.stdlib_module_names]
    assert SOURCES and not found, found
