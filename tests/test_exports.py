"""Every name a corelab module lists in ``__all__`` must exist in it, every
name it imports must be read, and every public module-level function and
class must have a caller in ``src/``."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import corelab

MODULES = [
    name
    for name in ["corelab"]
    + [info.name for info in pkgutil.iter_modules(corelab.__path__, "corelab.")]
    if hasattr(importlib.import_module(name), "__all__")
]


def test_modules_with_all_are_found():
    assert {"corelab", "corelab.ehrhart", "corelab.genfun"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    exec("from %s import *" % name, {})


TRACER = "read by name by bench/tracer.py"

# public names that need no caller in src/, each with its reason
NO_CALLER_NEEDED = {
    "coeffs_to_point": TRACER,
    "iter_coweight_coeffs": TRACER,
    "zise_point": TRACER,
    "verify_expected_size_polynomial": "acceptance criterion 6 reads it",
    "main": "the CLI entry point",
}


def test_every_public_name_has_a_caller():
    # code only: a name in a docstring or an __all__ string is not a caller
    defined, used = set(), set()
    for path in sorted(pathlib.Path(corelab.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            owner = getattr(node, "name", None)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not owner.startswith("_"):
                defined.add(owner)
            for sub in ast.walk(node):
                name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
                if name and name != owner:
                    used.add(name)
    assert sorted(defined - used - set(NO_CALLER_NEEDED)) == []


# The assert statements src/ keeps, by module, enclosing definition and test:
# invariants of corelab's own data structures and arithmetic.  An identity of
# the mathematics raises VerificationError instead, which `python -O` keeps.
INTERNAL_ASSERTS = {
    ("ehrhart", "_lagrange_fit", "len(xs) == len(ys) and len(set(xs)) == len(xs)"),
    ("ehrhart", "QuasiPolynomial.__init__", "self.period >= 1"),
    ("ehrhart", "QuasiPolynomial.__init__", "len(self.components) == self.period"),
    ("ehrhart", "QuasiPolynomial.__init__",
     "comp is None or len(comp) <= self.degree + 1"),
    ("lattice_enum", "LatticePointSet.__init__", "self.lattice in ('coweight', 'coroot')"),
    ("lattice_enum", "LatticePointSet.__init__", "list(self.points) == sorted(self.points)"),
    ("lattice_enum", "scaled_value_counts", "rest == 0"),
    ("lattice_enum", "coweight_points_in_bA",
     "min(pairs) >= 0 and sum(map(mul, rs.marks, pairs)) <= bound"),
    ("rootsys", "Root.__init__",
     "all((c >= 0 for c in self.coeffs)) and sum(self.coeffs) == self.height"),
}


def _asserts(node, owner):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Assert):
            yield owner, ast.unparse(child.test)
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _asserts(child, child.name if owner is None else owner + "." + child.name)
        else:
            yield from _asserts(child, owner)


def test_asserts_are_internal_invariants():
    found = set()
    for path in sorted(pathlib.Path(corelab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        found |= {(path.stem, owner, test) for owner, test in _asserts(tree, None)}
    assert sorted(found - INTERNAL_ASSERTS) == []
    assert sorted(INTERNAL_ASSERTS - found) == []  # an entry whose assert is gone leaves too


def _unread_imports(tree):
    """The names a module imports but never reads: neither loaded in its
    code nor re-exported through ``__all__``."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).partition(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for node in tree.body:  # __all__ = [...] names its re-exports as strings
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_every_import_is_read():
    unread = {}
    for path in sorted(pathlib.Path(corelab.__file__).parent.glob("*.py")):
        found = _unread_imports(ast.parse(path.read_text()))
        if found:
            unread[path.name] = found
    assert unread == {}
