import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "heatchern"


def _private_definitions(tree):
    """Private names a module binds at its top level: its functions,
    classes and assignments whose names start with one ``_``."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names
            if name.startswith("_") and not name.startswith("__")]


def _reads(tree):
    """Names a module reads, as a bare name or as an attribute."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
             and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)})


def test_every_private_name_is_read_in_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    read = set().union(*map(_reads, trees.values()))
    unread = [f"{module}:{name}" for module, tree in trees.items()
              for name in _private_definitions(tree) if name not in read]
    assert unread == []
