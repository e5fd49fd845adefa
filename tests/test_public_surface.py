"""Every public name of the package has a reader outside the tests.

A name in a src/ module's ``__all__`` must be read somewhere else in src/,
in its own module beyond its definition, in demos/ or bench/, or be
re-exported in ``purestream.__all__``.  Code that only tests read belongs
in tests/ (tests/lemmas.py), so this guard keeps it from creeping back.

The package's own names load their home submodule on first access; the
last tests pin that lazy surface.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import purestream

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "purestream"
READERS = [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py")]
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def declared(tree: ast.Module) -> list[str]:
    """The names a module lists in its __all__ (none if it has no __all__)."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def reads(tree: ast.Module) -> set[str]:
    """Every name a module reads: loaded names, attributes and imported names.

    A definition or an ``__all__`` entry is not a read.
    """
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def unread(module: ast.Module, others: list[ast.Module], exported: list[str]) -> list[str]:
    """The names in module's __all__ that neither it, nor any other reader, reads."""
    read = reads(module).union(exported, *map(reads, others))
    return [name for name in declared(module) if name not in read]


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_has_a_reader(name):
    path = PACKAGE / f"{name}.py"
    others = [parse(p) for p in READERS if p != path]
    assert unread(parse(path), others, purestream.__all__) == []


def test_a_name_only_tests_read_is_caught():
    module = ast.parse("__all__ = ['kept', 'helper', 'lemma']\ndef kept(): return helper()\n"
                       "def helper(): pass\ndef lemma(): pass\n")
    other = ast.parse("from m import kept\nkept()\n")
    assert unread(module, [other], []) == ["lemma"]
    assert unread(module, [other], ["lemma"]) == []


def test_every_exported_name_is_its_home_modules_object():
    for name, home in purestream._HOME.items():
        module = importlib.import_module(f"purestream.{home}")
        assert name in module.__all__, name
        assert getattr(purestream, name) is getattr(module, name), name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from purestream import *", namespace)
    assert set(purestream.__all__) <= set(namespace)


def test_unknown_name_is_an_attribute_error_that_names_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        purestream.no_such_name


def test_import_loads_no_submodule():
    code = "import sys, purestream; print(sorted(m for m in sys.modules if 'purestream' in m))"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "['purestream']\n"
