"""No module of the package, the scripts or the tests imports a name it
never uses, and no module of the package defines a function, class or
ALL_CAPS constant that nothing names: a private one nothing in the package
names, a public one nothing in the package, the tests, the scripts or the
benchmark names."""

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


def named(sources) -> set[str]:
    """Every name that `sources` read by name, or refer to by attribute,
    import or a string that is an identifier (as a patch target is named);
    assigning a name is not naming it."""
    used = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.isidentifier():
                used.add(node.value)
    return used


def definitions(source: str):
    """(line, name) of each module-level function, class and ALL_CAPS
    constant of `source`."""
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        targets = getattr(node, "targets", [getattr(node, "target", None)])
        for target in targets:
            if isinstance(target, ast.Name) and target.id.isupper():
                yield node.lineno, target.id


def unused_names(sources: dict[str, str], used: set[str], private: bool) -> list[str]:
    """The private (one leading underscore, not a dunder) or else the public
    definitions of `sources` (module name -> source) not in `used`."""
    return [f"{module} line {line}: {name}"
            for module, source in sources.items() for line, name in definitions(source)
            if not name.startswith("__") and name.startswith("_") == private
            and name not in used]


@pytest.mark.parametrize("path", sorted(path for pattern in ("src/ude/*.py", "scripts/*.py",
                                                             "tests/*.py")
                                        for path in ROOT.glob(pattern)),
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_no_unused_private_names():
    sources = {path.stem: path.read_text() for path in ROOT.glob("src/ude/*.py")}
    assert unused_names(sources, named(sources.values()), private=True) == []


def test_no_unused_public_names():
    sources = {path.stem: path.read_text() for path in ROOT.glob("src/ude/*.py")}
    namers = [path.read_text() for folder in ("src", "tests", "scripts", "perfbench")
              for path in ROOT.glob(f"{folder}/**/*.py")]
    assert unused_names(sources, named(namers), private=False) == []


def imported_modules(source: str) -> set[str]:
    """The last dotted part of every module `source` imports, or imports a
    name from (`from . import x` imports x)."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                modules.add(node.module.rsplit(".", 1)[-1])
            else:
                modules.update(alias.name for alias in node.names)
    return modules


def test_only_the_pipeline_touches_the_artifact_format():
    """Artifacts are declared, saved and loaded in pipeline alone: no other
    module of the package imports tensor_io."""
    importers = {path.stem for path in ROOT.glob("src/ude/*.py")
                 if "tensor_io" in imported_modules(path.read_text())}
    assert importers <= {"pipeline", "tensor_io"}
    assert imported_modules("from . import tensor_io\nimport ude.tensor_io as t\n"
                            "from .tensor_io import x\n") == {"tensor_io"}


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
    assert unused_names(sources, named(sources.values()), private=True) == \
        ["a line 9: _orphan", "a line 13: _Lonely"]
    sources = {
        "a": ("MSG_OLD = 1\nMSG_NEW = 3\nLIMIT: int = 8\nlower = 2\n_PRIVATE = 4\n\n\n"
              "def retired():\n    pass\n\n\ndef patched():\n    pass\n\n\n"
              "class Used:\n    pass\n"),
        "b": "from a import MSG_NEW, Used\nsetattr(a, 'patched', Used)\n",
    }
    assert unused_names(sources, named(sources.values()), private=False) == \
        ["a line 1: MSG_OLD", "a line 3: LIMIT", "a line 8: retired"]
