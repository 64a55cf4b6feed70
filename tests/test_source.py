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


def _imported_names(tree: ast.Module):
    # (line, bound name) for each module-level import; ``import a.b``
    # binds ``a``, and ``from __future__`` binds nothing
    for node in tree.body:
        if isinstance(node, ast.Import):
            yield from ((node.lineno, a.asname or a.name.split(".")[0]) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((node.lineno, a.asname or a.name) for a in node.names)


def _read_names(tree: ast.Module) -> set[str]:
    # every name loaded anywhere in the module (the root of each
    # attribute chain is one), plus the strings listed in ``__all__``
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            names |= {c.value for c in ast.walk(node.value)
                      if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return names


def test_no_module_imports_a_name_it_never_reads():
    # a helper deleted or renamed in one module must not leave a stale
    # import behind in another
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        read = _read_names(tree)
        found += [f"{path.name}:{line}: {name}" for line, name in _imported_names(tree) if name not in read]
    assert SOURCES and not found, found


def test_cone_and_zariski_kernels_pair_without_q_eval():
    # the kernels pair coordinates that _vector checked once through linalg;
    # q_eval, which checks both arguments again and boxes a Fraction, is for
    # callers outside them
    found = []
    for path in SOURCES:
        if path.name in ("cones.py", "zariski.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if getattr(node, "id", None) == "q_eval" or getattr(node, "attr", None) == "q_eval"
                      or isinstance(node, ast.alias) and node.name == "q_eval"]
    assert len({p.name for p in SOURCES} & {"cones.py", "zariski.py"}) == 2 and not found, found
