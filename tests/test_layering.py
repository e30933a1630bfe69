"""The import structure of the package: module-level imports between its
modules follow one order, so they form no cycle, and only `GameSpec.table`
imports inside a function.

Each module is parsed, not imported, so the test sees every import
statement, run or not.
"""

import ast
from pathlib import Path

import cooplang

PACKAGE = Path(cooplang.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _imported(node, module: str) -> list[str]:
    """The package modules an import statement in `module` loads."""
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    elif node.level == 0:
        names = [node.module]
    else:
        # `from . import data` names a module; `from .games import x` does not
        base = "cooplang" + (f".{node.module}" if node.module else "")
        names = [base] if node.module else [f"{base}.{a.name}" for a in node.names]
    return [n.split(".")[1] for n in names
            if n.startswith("cooplang.") and n.split(".")[1] in MODULES
            and n.split(".")[1] != module]


def _imports(module: str) -> tuple[set[str], list[tuple[str, str]]]:
    """The package modules `module` imports at module level, and the
    (function, module) pairs of its imports inside functions."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    top, inner = set(), []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                for name in _imported(child, module):
                    if function is None:
                        top.add(name)
                    else:
                        inner.append((function, name))
            else:
                visit(child, function)

    visit(tree, None)
    return top, inner


# each module imports only modules before it, so the imports form no cycle
ORDER = ["errors", "schema", "rng", "games", "tables", "semantics",
         "community", "inference", "data", "evaluation", "cli", "__init__"]


def test_module_level_imports_form_no_cycle():
    assert sorted(ORDER) == MODULES
    backward = [(m, n) for i, m in enumerate(ORDER)
                for n in sorted(_imports(m)[0]) if ORDER.index(n) >= i]
    assert backward == []


def test_the_estimators_import_nothing_from_the_harness():
    """`inference` reads observed pairs only, so it never imports the
    `community` module that builds the agents."""
    top, inner = _imports("inference")
    assert "community" not in top | {name for _, name in inner}


def test_only_the_game_table_imports_inside_a_function():
    inner = [(m, function, name) for m in MODULES
             for function, name in _imports(m)[1]]
    assert inner == [("games", "table", "tables")]


def test_the_parser_sees_relative_and_absolute_imports():
    tree = ast.parse("from . import data\nfrom .games import step\n"
                     "import cooplang.rng\nfrom scipy import sparse\n")
    assert [_imported(node, "cli") for node in tree.body] == [
        ["data"], ["games"], ["rng"], []]
