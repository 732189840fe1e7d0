"""Every name a library module imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ecidpda"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _string_annotation_names(tree: ast.AST) -> set[str]:
    annotations = [n.annotation for n in ast.walk(tree)
                   if isinstance(n, (ast.arg, ast.AnnAssign))]
    annotations += [n.returns for n in ast.walk(tree)
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return {name.id for ann in annotations if ann is not None
            for node in ast.walk(ann)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            for name in ast.walk(ast.parse(node.value, mode="eval"))
            if isinstance(name, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = imported - used - _string_annotation_names(tree)
    assert not unused, f"{path.stem} imports unused {sorted(unused)}"
