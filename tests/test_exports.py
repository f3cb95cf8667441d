"""Every name a corelab module lists in ``__all__`` must exist in it, and
every public module-level function and class must have a caller in ``src/``."""

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
