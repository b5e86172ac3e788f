"""No module of the package, the scripts or the tests imports a name it
never uses, and no module of the package defines a private function or
class that nothing in the package uses."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[str]:
    """The names that import statements of `source` bind and no expression
    refers to; `import a.b` is used by any `a.b` or `a.b.c`."""
    tree = ast.parse(source)
    used = {ast.unparse(node) for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    return [f"line {node.lineno}: {name}" for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for name in (alias.asname or alias.name for alias in node.names)
            if name not in used]


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """The module-level functions and classes whose names start with one
    underscore (not dunders) that no module of `sources` (module name ->
    source) refers to by name, attribute or import."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return [f"{module} line {node.lineno}: {node.name}"
            for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and node.name not in used]


@pytest.mark.parametrize("path", sorted(path for pattern in ("src/ude/*.py", "scripts/*.py",
                                                             "tests/*.py")
                                        for path in ROOT.glob(pattern)),
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_no_unused_private_names():
    sources = {path.stem: path.read_text() for path in ROOT.glob("src/ude/*.py")}
    assert unused_private_names(sources) == []


def test_the_check_sees_unused_names():
    source = ("from __future__ import annotations\nimport os\nimport ude.cli\n"
              "import ude.oracle\nfrom x import a, b as c\nude.oracle.f(a)\n")
    assert unused_imports(source) == ["line 2: os", "line 3: ude.cli", "line 5: c"]
    sources = {
        "a": ("def _called():\n    pass\n\n\ndef _imported():\n    pass\n\n\n"
              "def _orphan():\n    pass\n\n\nclass _Lonely:\n    def _method(self):\n"
              "        pass\n\n\ndef __getattr__(name):\n    return _called()\n"),
        "b": "from .a import _imported\nimport a\na._attribute_use()\n",
        "c": "def _attribute_use():\n    pass\n",
    }
    assert unused_private_names(sources) == ["a line 9: _orphan", "a line 13: _Lonely"]
