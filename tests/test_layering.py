"""The package's import graph: each module imports only the layers below it."""

import ast
from pathlib import Path

import indtree

from helpers import BENCH_SCRIPT

SRC = Path(indtree.__file__).resolve().parent

# module -> the package modules it may import from
ALLOWED = {
    "graph": set(),
    "formats": {"graph"},
    "constructions": {"graph"},
    "canon": {"graph"},
    "solver": {"graph"},
    "enumeration": {"canon", "graph"},
    "verify": {"canon", "constructions", "enumeration", "formats", "graph", "solver"},
}


def package_imports(path: Path) -> set[str]:
    """Package modules named by the relative imports of one source file."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import x
                out.update(alias.name for alias in node.names)
            else:
                out.add(node.module.split(".")[0])
    return out


IMPORTS = {path.stem: package_imports(path) for path in sorted(SRC.glob("*.py"))}


def test_lower_layers_import_only_the_layers_below():
    for module, allowed in ALLOWED.items():
        assert IMPORTS[module] <= allowed, module


def test_nothing_imports_cli():
    """Only ``python -m indtree`` starts the command line."""
    importers = [module for module, imports in IMPORTS.items() if "cli" in imports]
    assert importers == ["__main__"]


def test_no_module_asserts():
    """``python -O`` strips assert statements, so no check may be one; the
    bench's guards must hold under it too."""
    asserting = [
        path.name
        for path in [*sorted(SRC.glob("*.py")), BENCH_SCRIPT]
        if any(isinstance(node, ast.Assert) for node in ast.walk(ast.parse(path.read_text())))
    ]
    assert asserting == []
