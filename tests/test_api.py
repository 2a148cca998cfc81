"""The public API: `windemos.__all__` against the imports of `__init__.py`."""

import ast
import pathlib

import windemos


def _public_imports():
    tree = ast.parse(pathlib.Path(windemos.__file__).read_text(encoding="utf-8"))
    names = (
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    )
    return {name for name in names if not name.startswith("_")}


def test_all_lists_each_public_import_once_and_every_listed_name_exists():
    listed = windemos.__all__
    assert len(listed) == len(set(listed))
    assert [name for name in listed if not hasattr(windemos, name)] == []
    assert sorted(_public_imports() - set(listed)) == []
