"""Import hygiene: every name a module imports is used in that module.

The package's ``__init__.py`` is left out, since its imports are its exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = [path for path in sorted([*(ROOT / "src" / "pointbethe").glob("*.py"),
                                    *(ROOT / "tests").glob("*.py")])
           if path.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in source that no expression references."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_what_is_never_referenced():
    source = ("from __future__ import annotations\nimport os.path\nimport sys\n"
              "from math import pi as PI, tau\n\nprint(os.sep, PI)\n")
    assert unused_imports(source) == ["sys", "tau"]


def test_every_imported_name_is_used():
    unused = {str(path.relative_to(ROOT)): unused_imports(path.read_text()) for path in MODULES}
    assert {path: names for path, names in unused.items() if names} == {}
