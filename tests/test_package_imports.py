"""Every name a module of the package imports is read in that module."""

import ast
from pathlib import Path

import vlltr


def unread_imports(path):
    """(line, name) of each name that module `path` imports and never
    reads, `from __future__` imports aside."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_no_module_imports_a_name_it_never_reads():
    found = [f"{path.name}:{line} {name}"
             for path in sorted(Path(vlltr.__file__).parent.glob("*.py"))
             for line, name in unread_imports(path)]
    assert found == []
