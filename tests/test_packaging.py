"""The ``test`` extra in ``pyproject.toml`` names every package the tests and the bench import.

A package missing from it passes here, where it happens to be installed,
but fails a clean ``pip install -e ".[test]"`` at collection.
"""

import ast
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
DIRS = ("tests", "bench")


def _test_extra() -> set:
    # Python 3.10 has no tomllib; the extra is one line of the [project.optional-dependencies] table
    (line,) = [line for line in (ROOT / "pyproject.toml").read_text().splitlines()
               if line.startswith("test = [")]
    return set(ast.literal_eval(line.partition("=")[2].strip()))


def _imported_packages() -> dict:
    """Top-level package -> the files importing it, over every import under ``DIRS``,
    those inside functions included."""
    packages = {}
    for path in sorted(p for d in DIRS for p in (ROOT / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                packages.setdefault(name.partition(".")[0], set()).add(path.relative_to(ROOT))
    return packages


def test_extra_names_every_third_party_import():
    # the scripts are local modules too: tests/test_output_digests.py imports one
    local = {path.stem for d in (*DIRS, "scripts") for path in (ROOT / d).rglob("*.py")}
    local.add("qkd_access")
    third_party = {name: files for name, files in _imported_packages().items()
                   if name not in sys.stdlib_module_names and name not in local}
    assert {"pytest", "numpy", "hypothesis"} <= third_party.keys()
    missing = {name: sorted(map(str, files)) for name, files in third_party.items()
               if name not in _test_extra()}
    assert not missing, f"imported but not in the test extra: {missing}"
