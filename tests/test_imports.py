"""Import lint: each module of the package uses every name it imports,
except the names the benchmark's layer tracer wraps in a module that does
not call them (bench/layers.py), and reads every private helper it
defines.  Decoder lint: only network.read_json decodes JSON, so every
input document's decoding faults are named by one rule."""

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


def dead_helpers(tree):
    """The module-level functions, classes and constants whose name starts
    with one underscore and that no Name node in the module reads."""
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            defined += [t.id for t in (node.targets if isinstance(node, ast.Assign) else [node.target]) if isinstance(t, ast.Name)]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(name for name in set(defined) - read if name.startswith("_") and not name.startswith("__"))


def test_package_reads_every_private_helper_it_defines():
    sample = "_A = 1\n_B: int = 2\n__all__ = []\nC = 3\n\nclass _K:\n    pass\n\ndef _f():\n    return _A\n\ndef _g():\n    pass\n"
    assert dead_helpers(ast.parse(sample)) == ["_B", "_K", "_f", "_g"]
    found = [(path.stem, name) for path in sorted(PACKAGE.glob("*.py"))
             for name in dead_helpers(ast.parse(path.read_text(encoding="utf-8"), str(path)))]
    assert found == []


def json_decodes(tree):
    """The top-level functions (None outside any) that call json.load or
    json.loads, or that import load or loads from json, once per call."""
    found = []
    for node in tree.body:
        name = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
        for inner in ast.walk(node):
            if (isinstance(inner, ast.Call) and isinstance(inner.func, ast.Attribute) and inner.func.attr in ("load", "loads")
                    and isinstance(inner.func.value, ast.Name) and inner.func.value.id == "json"):
                found.append(name)
            elif isinstance(inner, ast.ImportFrom) and inner.module == "json":
                found += [name for alias in inner.names if alias.name in ("load", "loads")]
    return found


def test_only_read_json_decodes_json():
    sample = ("import json\nfrom json import loads as l\nX = json.loads('1')\n\ndef f(h):\n    return json.load(h)\n\n"
              "class K:\n    def g(self):\n        return json.dumps(1), json.loads('2')\n")
    assert json_decodes(ast.parse(sample)) == [None, None, "f", "K"]
    found = [(path.stem, name) for path in sorted(PACKAGE.glob("*.py"))
             for name in json_decodes(ast.parse(path.read_text(encoding="utf-8"), str(path)))]
    assert found == [("network", "read_json")]
