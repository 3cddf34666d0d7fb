"""Package-wide rules: no assert statements in the library, and the README's
library tour runs against the public surface as written."""

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
