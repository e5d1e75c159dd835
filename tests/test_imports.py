"""Import lint: each module of the package uses every name it imports,
except the names the benchmark's layer tracer wraps in a module that does
not call them (bench/layers.py)."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "anglecuts"
# (module, name): imported only so that bench/layers.py can wrap the name there
WRAPPED_ONLY = [("bounds", "shortest_path_bound"), ("milp", "pair_bound")]


def unused_imports(tree):
    """The names an import binds that no Name node in the module reads."""
    bound = [alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
             for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(bound) - read)


def test_package_imports_only_what_it_uses():
    sample = "from __future__ import annotations\nimport os.path\nimport re\nfrom x import a, b as c\n\ndef f():\n    return re, c\n"
    assert unused_imports(ast.parse(sample)) == ["a", "os"]
    found = [(path.stem, name) for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
             for name in unused_imports(ast.parse(path.read_text(encoding="utf-8"), str(path)))]
    assert found == WRAPPED_ONLY
