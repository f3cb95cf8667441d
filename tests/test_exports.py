"""Every name a corelab module lists in ``__all__`` must exist in it."""

import importlib
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
