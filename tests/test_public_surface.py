"""Every public name of the package has a reader outside the tests.

A name in a src/ module's ``__all__`` must be read somewhere else in src/,
in its own module beyond its definition, in demos/ or bench/, or be
re-exported in ``purestream.__all__``.  Code that only tests read belongs
in tests/ (tests/lemmas.py), so this guard keeps it from creeping back.
"""

import ast
from pathlib import Path

import pytest

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
    exported = declared(parse(PACKAGE / "__init__.py"))
    assert unread(parse(path), others, exported) == []


def test_a_name_only_tests_read_is_caught():
    module = ast.parse("__all__ = ['kept', 'helper', 'lemma']\ndef kept(): return helper()\n"
                       "def helper(): pass\ndef lemma(): pass\n")
    other = ast.parse("from m import kept\nkept()\n")
    assert unread(module, [other], []) == ["lemma"]
    assert unread(module, [other], ["lemma"]) == []
