"""Checks on the package source itself."""

import ast
import pathlib

import diracdual

SRC = pathlib.Path(diracdual.__file__).parent


def test_no_assert_in_package():
    # ``python -O`` strips asserts, which would turn an internal check into
    # a wrong answer with exit 0; the package raises RuntimeError instead
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
