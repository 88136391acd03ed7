"""The reach probe's bookkeeping: the AST walk and the allowlist gate.

Running the probe itself takes minutes (CI's reach job does); these
check, on a tiny package, that it names functions the way a code
object reports them and that ``--check`` fails in each way it should.
"""

from __future__ import annotations

import pytest

from tests.reach import Function, check, package_functions, read_allowlist

SOURCE = '''\
from abc import ABC, abstractmethod
from typing import Protocol


def top():
    def inner():
        return 1
    return inner


class Base(ABC):
    @abstractmethod
    def declared(self): ...

    @property
    def value(self):
        return 2


class Shape(Protocol):
    def area(self) -> float: ...
'''


@pytest.fixture
def package(tmp_path):
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "__init__.py").write_text("")
    (root / "mod.py").write_text(SOURCE)
    return root


def test_walk_names_functions_as_their_code_objects_start(package):
    found = {function.name: function for function in package_functions(package)}
    assert set(found) == {
        "pkg.mod:top",
        "pkg.mod:top.<locals>.inner",
        "pkg.mod:Base.value",
    }
    # a decorated function's code object starts at its first decorator
    namespace: dict = {}
    exec(compile(SOURCE, str(package / "mod.py"), "exec"), namespace)
    value = namespace["Base"].__dict__["value"].fget
    assert found["pkg.mod:Base.value"].line == value.__code__.co_firstlineno
    assert found["pkg.mod:top"].span == 4


def test_allowlist_reads_tags_and_rejects_an_unknown_one(tmp_path):
    good = tmp_path / "good.txt"
    good.write_text("# comment\n\npkg.mod:top  oracle  the reference\n")
    assert read_allowlist(good) == {"pkg.mod:top": ("oracle", "the reference")}
    bad = tmp_path / "bad.txt"
    bad.write_text("pkg.mod:top  because  no reason\n")
    with pytest.raises(SystemExit, match="tag one of"):
        read_allowlist(bad)


def test_check_names_every_disagreement():
    small = Function("pkg.mod", "small", "mod.py", 1, 3)
    big = Function("pkg.mod", "big", "mod.py", 10, 20)
    called = Function("pkg.mod", "called", "mod.py", 40, 2)
    functions = [small, big, called]
    assert check(functions, [small], {"pkg.mod:small": ("accessor", "r")}) == []
    problems = check(
        functions,
        [small, big],
        {
            "pkg.mod:big": ("accessor", "too long for one"),
            "pkg.mod:called": ("oracle", "a product run calls it"),
            "pkg.mod:gone": ("oracle", "deleted"),
        },
    )
    assert problems == [
        "uncalled by any product run and not listed: pkg.mod:small (3 lines)",
        "listed as an accessor but 20 lines long: pkg.mod:big",
        "listed but a product run calls it: pkg.mod:called",
        "listed but no such function: pkg.mod:gone",
    ]
