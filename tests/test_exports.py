"""Each module's ``__all__`` lists only names the module has.

A stale entry breaks ``from module import *`` but no plain import, so a
deletion that misses it passes every other test.
"""

import importlib
import pkgutil

import pytest

import qkd_access

MODULES = ["qkd_access", *sorted(
    name for _, name, _ in pkgutil.walk_packages(qkd_access.__path__, "qkd_access."))]
EXPORTING = [name for name in MODULES if hasattr(importlib.import_module(name), "__all__")]


def test_modules_found():
    assert {"qkd_access.raman", "qkd_access.protocols", "qkd_access.cli"} <= set(EXPORTING)


@pytest.mark.parametrize("name", EXPORTING)
def test_star_import_gives_every_listed_name(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(importlib.import_module(name).__all__) <= namespace.keys()
