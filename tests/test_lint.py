"""Static checks on the package source, with the stdlib's `ast`.

No module of the package other than `__init__.py`, which re-exports, may
import a name it never reads.  No module may define, at module level, a
function, class or constant that no module of the package reads and
`plcmarket.__all__` does not export; a click command is registered by its
decorator and needs no reader.
"""

import ast
from pathlib import Path

import plcmarket

PACKAGE = Path(plcmarket.__file__).resolve().parent


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}  # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_unused_import_is_found():
    assert _unused_imports("import os\nfrom a import b, c as d\nd()\n") == ["line 1: os", "line 2: b"]
    assert _unused_imports("import os.path\nos.path.join\n") == []


def test_no_module_imports_a_name_it_never_reads():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: _unused_imports(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: lines for name, lines in unused.items() if lines} == {}


def _definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level functions, classes and constants -> line, click commands
    and dunder names left out."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute) and d.func.attr == "command"
                       for d in node.decorator_list):
                defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    defined[target.id] = node.lineno
    return {name: line for name, line in defined.items() if not (name.startswith("__") and name.endswith("__"))}


def _unread_definitions(sources: dict[str, str], exported) -> list[str]:
    """Definitions that no source reads, by name or as an attribute, and
    that exported leaves out."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set(exported)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{name} line {line}: {d}" for name, tree in trees.items()
            for d, line in _definitions(tree).items() if d not in read]


def test_unread_definition_is_found():
    sources = {
        "a.py": "X = 1\nY: int = 2\n__all__ = []\ndef f(): pass\nclass C: pass\n"
                "@main.command('go')\ndef go(): pass\ndef g(): return f()\n",
        "b.py": "from . import a\na.C\n",
    }
    assert _unread_definitions(sources, {"Y"}) == ["a.py line 1: X", "a.py line 8: g"]


def test_every_module_level_definition_is_read_or_exported():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert _unread_definitions(sources, plcmarket.__all__) == []
