import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "heatchern"


def _imported(body, lines):
    """Names bound by the import statements directly in ``body``.

    An import marked ``# noqa: F401`` is a deliberate re-export.
    """
    names = []
    for node in body:
        if any("noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def _unused_imports(path):
    """Imported names that are never read: a top-level import anywhere in
    the module, an import in a function body anywhere in that function."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    scopes = [tree] + [node for node in ast.walk(tree) if isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    unused = []
    for scope in scopes:
        used = {node.id for node in ast.walk(scope)
                if isinstance(node, ast.Name)}
        unused += [name for name in _imported(scope.body, lines)
                   if name not in used]
    return unused


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")),
                         ids=lambda p: f"tests/{p.name}")
def test_no_unused_imports_in_tests(path):
    assert _unused_imports(path) == []
