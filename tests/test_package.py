"""The package's surface holds no stale leftovers: every public name is
exported and every import in the source is used."""
import ast
from pathlib import Path
from types import ModuleType

import facevec

SRC = Path(facevec.__file__).resolve().parent


def test_all_lists_exactly_the_public_names():
    public = {name for name, value in vars(facevec).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert sorted(facevec.__all__) == sorted(public)
    assert len(facevec.__all__) == len(set(facevec.__all__))


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_every_import_is_used():
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = [name for name in _imported_names(tree) if name not in used]
        assert not unused, f"{path.name} imports {unused} without using them"
