"""The library API is what each module's __all__ lists, and nothing else.

Every public top-level def, class and UPPER constant of a module is in
its __all__, every listed name exists, and every private function is
called or referenced somewhere in the package besides its own def, so
a helper that lost its last caller shows here instead of lingering.
"""

import ast
import importlib
from pathlib import Path

import splitconf

SRC = Path(splitconf.__file__).parent


def _declared(tree):
    """The names a module's __all__ lists, [] without one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def _public(tree):
    """Top-level def, class and UPPER constant names that do not start with _."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name) and t.id.isupper()]
    return [n for n in names if not n.startswith("_")]


def test_the_api_is_declared_and_no_private_function_is_orphaned():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    missing, unlisted, used, private = [], [], set(), set()
    for stem, tree in trees.items():
        declared = _declared(tree)
        if declared:
            module = importlib.import_module(
                "splitconf" if stem == "__init__" else "splitconf." + stem
            )
            missing += ["%s.%s" % (stem, n) for n in declared if not hasattr(module, n)]
        unlisted += ["%s.%s" % (stem, n) for n in _public(tree) if n not in declared]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.FunctionDef) and node.name.startswith("_") \
                    and not node.name.endswith("__"):
                private.add("%s.%s" % (stem, node.name))
    orphans = sorted(n for n in private if n.split(".")[1] not in used)
    assert (missing, unlisted, orphans) == ([], [], [])
