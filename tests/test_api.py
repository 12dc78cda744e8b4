"""Every public top-level name of the package is exported or used by it.

A public ``def`` or ``class`` that no code under ``src/`` refers to outside
its own body exists only for the tests; such helpers belong in the tests or
nowhere.  Names are matched per module: ``m.name`` counts as used only when
it is read off an alias of module ``m``, imported from ``m`` (so exporting
it through ``pastdra/__init__.py`` counts), or named inside ``m`` outside
its own body.  A same-named function of another module does not count.

Likewise a public method or property of a public class must be read, as
an attribute, by code under ``src/`` or ``perfbench/`` outside its own
body.  Attributes are matched by name alone, whatever object they are
read off.
"""

import ast
from pathlib import Path

import pastdra

SRC = Path(pastdra.__file__).resolve().parent
PERFBENCH = SRC.parent.parent / "perfbench"


def _uses(tree):
    """(module, name) pairs that a module reads through its imports."""
    aliases = {}              # local name -> package module it binds
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom) and n.level == 1:
            for a in n.names:
                if n.module is None:          # from . import formula as F
                    aliases[a.asname or a.name] = a.name
                else:                         # from .after import af_class
                    out.add((n.module, a.name))
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) \
                and n.value.id in aliases:
            out.add((aliases[n.value.id], n.attr))
    return out


def _loaded(node):
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def test_no_public_name_only_tests_use():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    used = set()
    for tree in trees.values():
        used |= _uses(tree)
    unused = []
    for stem, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_") \
                    or (stem, node.name) in used:
                continue
            if not any(node.name in _loaded(other)
                       for other in tree.body if other is not node):
                unused.append("%s.%s" % (stem, node.name))
    assert not unused, "public names no src code uses: %s" % unused


def _attribute_reads(trees, skip):
    """Names read as attributes anywhere in ``trees`` outside ``skip``."""
    out, stack = set(), list(trees)
    while stack:
        n = stack.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out.add(n.attr)
        stack.extend(ast.iter_child_nodes(n))
    return out


def test_no_public_member_only_tests_use():
    paths = sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    trees = [ast.parse(path.read_text()) for path in paths]
    unused = []
    for path, tree in zip(paths, trees):
        if path.parent != SRC:
            continue
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) \
                        and not node.name.startswith("_") \
                        and node.name not in _attribute_reads(trees, node):
                    unused.append("%s.%s.%s" % (path.stem, cls.name,
                                                node.name))
    assert not unused, \
        "public members no src or perfbench code reads: %s" % unused
