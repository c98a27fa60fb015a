"""Every function, class and method defined in the package is used by the
package or by the benchmark; library code that only the tests use belongs
in the tests.

Definitions and uses are read from the syntax tree, so a name mentioned only
in a docstring or comment is not a use.  Dunder methods are called by the
language, not by name, and are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "entwit"
BENCH = ROOT / "bench"


def _trees(paths):
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}


def _definitions(tree):
    """(name, line) of every function, class and method, nested ones too."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        (node.name, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, kinds)
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def _uses(tree):
    """Every name loaded or stored as a bare name or an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def unused_definitions(package_files, user_files):
    uses = set()
    for tree in _trees(user_files).values():
        uses |= _uses(tree)
    return sorted(
        f"{path.name}:{line} {name}"
        for path, tree in _trees(package_files).items()
        for name, line in _definitions(tree)
        if name not in uses
    )


def _package_and_bench():
    package = sorted(PACKAGE.glob("*.py"))
    bench = sorted(p for p in BENCH.glob("*.py") if not p.name.startswith("test_"))
    return package, package + bench


def test_every_definition_is_used_outside_the_tests():
    package, users = _package_and_bench()
    assert unused_definitions(package, users) == []


def test_an_unused_method_is_flagged(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        "class A:\n"
        "    def used(self):\n"
        '        """unused is named here, in a docstring, which is not a use."""\n'
        "    def unused(self):\n"
        "        pass\n"
        "    def __repr__(self):\n"
        "        return ''\n"
        "def helper():\n"
        "    return A().used()\n"
    )
    user = tmp_path / "user.py"
    user.write_text("from lib import helper\nhelper()\n")
    assert unused_definitions([lib], [lib, user]) == ["lib.py:4 unused"]
