"""Each module's ``__all__`` lists only names the module has, and the packages give them.

A name is public where its module's ``__all__`` declares it: the packages
star-import their modules, so ``import qkd_access`` gives every such name
but ``cli.main``.  A stale entry therefore fails ``import qkd_access``, and
``cli``'s fails its star import here.
"""

import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

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


PACKAGE_MODULES = ["budget", "config", "defaults", "numerics", "owc", "protocols", "raman", "sweep"]


@pytest.mark.parametrize("name", PACKAGE_MODULES)
def test_package_gives_every_module_name(name):
    module = importlib.import_module(f"qkd_access.{name}")
    missing = [attr for attr in module.__all__
               if getattr(qkd_access, attr, None) is not getattr(module, attr)]
    assert not missing


def test_protocols_all_joins_its_modules():
    from qkd_access.protocols import bb84, gg02, mdi

    assert qkd_access.protocols.__all__ == [*bb84.__all__, *gg02.__all__, *mdi.__all__]


def test_package_import_leaves_the_cli_out():
    code = "import sys, qkd_access; print('qkd_access.cli' in sys.modules, 'argparse' in sys.modules)"
    src = str(pathlib.Path(qkd_access.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == ["False", "False"]
