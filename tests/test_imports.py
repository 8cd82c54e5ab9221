"""Module structure of the package: imports stay at module level, acyclic."""

import ast
import pathlib

import vmlkit

SRC = pathlib.Path(vmlkit.__file__).parent


def _vmlkit_modules(node) -> list:
    """The vmlkit modules an import statement names."""
    if isinstance(node, ast.ImportFrom):
        if node.level:
            if node.module:
                return [node.module.split(".")[0]]
            return [alias.name for alias in node.names]
        if node.module and node.module.split(".")[0] == "vmlkit":
            return [node.module]
    if isinstance(node, ast.Import):
        return [a.name for a in node.names if a.name.split(".")[0] == "vmlkit"]
    return []


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_no_function_local_vmlkit_imports():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for func in ast.walk(_parse(path)):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if _vmlkit_modules(node):
                    found.append(f"{path.name}:{node.lineno} in {func.name}")
    assert found == []


def test_diagnostics_does_not_import_evolve():
    tree = _parse(SRC / "diagnostics.py")
    imported = {m for node in ast.walk(tree) for m in _vmlkit_modules(node)}
    assert "evolve" not in imported and "vmlkit.evolve" not in imported
    assert "maxwell" in imported
