"""No test-only code in `src/`: every public top-level name and method has a caller.

Each public top-level function and class of `src/linvariants/*.py` must be
used somewhere besides its own definition, in `src/` or in the benchmark's
`perfbench/*.py` (read only).  A use is an `ast.Name` or `ast.Attribute`
node, so a mention in a docstring or comment does not count.  The paper
displays the README names are test code, in `tests/paper_displays.py`.

Each public non-dunder method of a class in `src/` must likewise have an
`ast.Attribute` use of its name outside its own definition.  The check goes
by name, not by class: a method that shares its name with a used one (an
`EndoElement.identity` beside the used `WeylElement.identity`) is not caught.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "linvariants").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))


def _used_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names read anywhere in `tree` outside the subtree `skip`."""
    used = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return used


def _public_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node


def test_every_public_src_definition_has_a_use():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SRC + BENCH}
    uses_elsewhere = {path: set().union(*(_used_names(t) for p, t in trees.items() if p != path))
                      for path in SRC}
    unused = []
    for path in SRC:
        for node in _public_definitions(trees[path]):
            if node.name not in uses_elsewhere[path] | _used_names(trees[path], skip=node):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert unused == [], "public definitions with no use outside the tests: " + ", ".join(unused)


def _attribute_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Attribute names read anywhere in `tree` outside the subtree `skip`."""
    used = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Attribute):
            used.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return used


def _public_methods(tree: ast.Module):
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    yield cls, node


def test_every_public_src_method_has_a_use():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SRC + BENCH}
    unused = []
    for path in SRC:
        elsewhere = set().union(*(_attribute_names(t) for p, t in trees.items() if p != path))
        for cls, node in _public_methods(trees[path]):
            if node.name not in elsewhere | _attribute_names(trees[path], skip=node):
                unused.append(f"{path.name}:{node.lineno} {cls.name}.{node.name}")
    assert unused == [], "public methods with no use outside the tests: " + ", ".join(unused)


def test_guard_sees_through_docstrings():
    # a docstring mention of a name is a string constant, not a use
    tree = ast.parse('def lower():\n    pass\n\n\ndef f():\n    """calls lower"""\n')
    (lower, f) = tree.body
    assert "lower" not in _used_names(tree, skip=lower)
    tree = ast.parse("def lower():\n    pass\n\n\ndef f():\n    return lower()\n")
    assert "lower" in _used_names(tree, skip=tree.body[0])
