"""Every name a library module imports is used in that module, and no
library or test module imports a private name of the library."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "ecidpda"
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


def _imports_from_library(path: Path):
    """The from-imports of a module that read from an ecidpda module: a
    relative import in the library, or an absolute one anywhere."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (
                (node.level and path.parent == SRC)
                or (not node.level and (node.module or "").split(".")[0]
                    == "ecidpda")):
            yield node


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
    ids=lambda p: f"{p.parent.name}/{p.stem}")
def test_no_private_cross_module_imports(path):
    private = sorted(f"{node.module}.{alias.name}"
                     for node in _imports_from_library(path)
                     for alias in node.names if alias.name.startswith("_"))
    assert not private, f"{path.stem} imports private names {private}"
