"""Every public top-level name of the package is exported or used by it.

A public ``def`` or ``class`` that neither ``pastdra.__all__`` exports nor
any code under ``src/`` refers to outside its own body exists only for the
tests; such helpers belong in the tests or nowhere.
"""

import ast
from pathlib import Path

import pastdra

SRC = Path(pastdra.__file__).resolve().parent


def _used_names(node):
    """Names loaded and attributes read anywhere under ``node``."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def test_no_public_name_only_tests_use():
    nodes = [(path.stem, node, _used_names(node))
             for path in sorted(SRC.glob("*.py"))
             for node in ast.parse(path.read_text()).body]
    unused = ["%s.%s" % (mod, node.name) for mod, node, _ in nodes
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and node.name not in pastdra.__all__
              and not any(node.name in names
                          for _, other, names in nodes if other is not node)]
    assert not unused, "public names no src code uses: %s" % unused
