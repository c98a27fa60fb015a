"""Every function, class and method defined in the package is used by the
package or by the benchmark; library code that only the tests use belongs
in the tests.

Definitions and uses are read from the syntax tree, so a name mentioned only
in a docstring or comment is not a use.  Dunder methods are called by the
language, not by name, and are exempt.

Uses are matched by name, not by owner, so a method that two package classes
define is used as soon as either one is called, and the other can lie dead
unseen.  No method name is therefore defined on two package classes, unless
it is listed in ``SHARED_METHOD_NAMES``, each with its reason.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "entwit"
BENCH = ROOT / "bench"

# method name -> why more than one package class may define it
SHARED_METHOD_NAMES = {}


def _trees(paths):
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}


def _definitions(tree):
    """(name, line) of every function, class and method, nested ones too."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        (node.name, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, kinds)
        and not _is_dunder(node.name)
    ]


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


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


def shadowed_methods(package_files, allowed=()):
    """``file:line Class.method`` of every method whose name is defined on two
    or more classes, unless the name is allowed."""
    owners = defaultdict(list)
    for path, tree in _trees(package_files).items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    where = f"{path.name}:{node.lineno} {cls.name}.{node.name}"
                    owners[node.name].append(where)
    return sorted(
        where
        for name, places in owners.items()
        if len(places) > 1 and not _is_dunder(name) and name not in allowed
        for where in places
    )


def _package_and_bench():
    package = sorted(PACKAGE.glob("*.py"))
    bench = sorted(p for p in BENCH.glob("*.py") if not p.name.startswith("test_"))
    return package, package + bench


def test_every_definition_is_used_outside_the_tests():
    package, users = _package_and_bench()
    assert unused_definitions(package, users) == []


def test_no_method_name_is_defined_on_two_classes():
    package, _users = _package_and_bench()
    assert shadowed_methods(package, SHARED_METHOD_NAMES) == []


def test_a_shadowed_unused_method_is_flagged(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        "class A:\n"
        "    def size(self):\n"
        "        return 1\n"
        "class B:\n"
        "    def size(self):\n"
        "        return 2\n"
        "    def __len__(self):\n"
        "        return 2\n"
        "class C:\n"
        "    def __len__(self):\n"
        "        return 3\n"
        "def helper():\n"
        "    return A().size() + len(B()) + len(C())\n"
    )
    user = tmp_path / "user.py"
    user.write_text("from lib import helper\nhelper()\n")
    # A's call hides that nothing calls B.size: the name is used
    assert unused_definitions([lib], [lib, user]) == []
    flagged = ["lib.py:2 A.size", "lib.py:5 B.size"]
    assert shadowed_methods([lib]) == flagged
    assert shadowed_methods([lib], allowed={"size"}) == []


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
