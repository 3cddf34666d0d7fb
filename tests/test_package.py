"""Package-wide rules: no assert statements in the library, the README's
library tour runs against the public surface as written, ``__all__`` lists
exactly the public names the package imports, every module-level
function is either used inside the package or exported, and every method
is used inside the package."""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "modclass")


def test_library_has_no_assert_statements():
    # python -O strips asserts; a fact the mathematics forces must raise
    # ConsistencyError instead
    found = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, name)) as fh:
            tree = ast.parse(fh.read(), filename=name)
        found += ["%s:%d" % (name, node.lineno) for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_readme_library_tour_runs():
    with open(os.path.join(ROOT, "README.md")) as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), re.S | re.M)
    assert blocks, "README has no python block"
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_public_names_match_all():
    import modclass

    missing = [name for name in modclass.__all__ if not hasattr(modclass, name)]
    assert missing == []
    with open(os.path.join(PACKAGE, "__init__.py")) as fh:
        tree = ast.parse(fh.read())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }
    assert sorted(modclass.__all__) == sorted(imported)


def _references(mod: str, tree: ast.Module) -> set[tuple[str, str, str]]:
    """(module, name, where) for each name the module `mod` refers to, where
    is the top-level statement's function name (or "" outside functions).
    A reference is a bare name (to mod.name), ``alias.name`` for a module
    imported as alias, or ``from .module import name``."""
    aliases = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
        for alias in node.names
    }
    found = set()
    for top in tree.body:
        where = top.name if isinstance(top, ast.FunctionDef) else ""
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found.add((mod, node.id, where))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in aliases:
                    found.add((aliases[node.value.id], node.attr, where))
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                found.update((node.module, alias.name, where) for alias in node.names)
    return found


def _package_trees() -> dict[str, ast.Module]:
    trees = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as fh:
                trees[name[:-3]] = ast.parse(fh.read(), filename=name)
    return trees


def _method_references(tree: ast.Module, classes: set[str]):
    """(receiver class or None, attribute, enclosing definitions) for each
    ``x.attr`` in the module.  The receiver class is known when x is a
    parameter annotated with a class of the package (``group: PermGroup``)
    and stands for its subclasses too; None stands for any class.  The
    enclosing definitions are the nodes of the functions the reference sits
    in."""
    found = []

    def visit(node, inside: tuple, annotations: dict):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = dict(annotations)
            for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs:
                ann = arg.annotation
                name = ann.id if isinstance(ann, ast.Name) else getattr(ann, "value", None)
                annotations[arg.arg] = name if name in classes else None
            inside = inside + (node,)
        if isinstance(node, ast.Attribute):
            receiver = annotations.get(node.value.id) if isinstance(node.value, ast.Name) else None
            found.append((receiver, node.attr, inside))
        for child in ast.iter_child_nodes(node):
            visit(child, inside, annotations)

    visit(tree, (), {})
    return found


def test_every_method_is_used():
    # a method only the tests call belongs in the tests; argparse calls
    # cli._Parser.error, and dunder methods are called by the language
    trees = _package_trees()
    methods = [
        (mod, cls.name, fn)
        for mod, tree in trees.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and not (fn.name.startswith("__") and fn.name.endswith("__"))
    ]
    bases = {
        cls.name: {b.id for b in cls.bases if isinstance(b, ast.Name)}
        for tree in trees.values()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
    }

    def ancestry(cls: str) -> set:
        return {cls}.union(*(ancestry(b) for b in bases.get(cls, ())))

    refs = [ref for tree in trees.values() for ref in _method_references(tree, set(bases))]
    unused = [
        "%s.%s.%s" % (mod, cls, fn.name)
        for mod, cls, fn in methods
        if (mod, cls, fn.name) != ("cli", "_Parser", "error")
        and not any(
            attr == fn.name and (receiver is None or receiver in ancestry(cls)) and fn not in inside
            for receiver, attr, inside in refs
        )
    ]
    assert unused == []


def test_every_function_is_used_or_exported():
    # a function only the tests call belongs in the tests; cli._cmd_* are
    # dispatched by name
    import modclass

    trees = _package_trees()
    used = set()
    for mod, tree in trees.items():
        used.update(
            (target, name)
            for target, name, where in _references(mod, tree)
            if not (target == mod and name == where)  # not inside its own definition
        )
    unused = [
        "%s.%s" % (mod, fn.name)
        for mod, tree in trees.items()
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        and (mod, fn.name) not in used
        and fn.name not in modclass.__all__
        and not (mod == "cli" and fn.name.startswith("_cmd_"))
    ]
    assert unused == []
