"""No module of the package, the scripts or the tests imports a name it
never uses."""

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


@pytest.mark.parametrize("path", sorted(path for pattern in ("src/ude/*.py", "scripts/*.py",
                                                             "tests/*.py")
                                        for path in ROOT.glob(pattern)),
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_unused_names():
    source = ("from __future__ import annotations\nimport os\nimport ude.cli\n"
              "import ude.oracle\nfrom x import a, b as c\nude.oracle.f(a)\n")
    assert unused_imports(source) == ["line 2: os", "line 3: ude.cli", "line 5: c"]
