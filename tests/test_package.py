"""Package-wide rules: no assert statements in the library, the README's
library tour runs against the public surface as written, and ``__all__``
lists exactly the public names the package imports."""

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
