"""The runtime stays numpy-only: every module of the package imports the
standard library, numpy or its own modules, and nothing else."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "genval"


def top_level_imports(path: Path) -> set[str]:
    """The top-level names ``path`` imports absolutely, found in its syntax
    tree wherever the import sits; relative imports are left out."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_the_package_imports_only_the_standard_library_and_numpy():
    found = {path.name: top_level_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert "numpy" in set().union(*found.values())
    outside = {name: sorted(names - {"numpy"} - sys.stdlib_module_names) for name, names in found.items()}
    assert {name: names for name, names in outside.items() if names} == {}
