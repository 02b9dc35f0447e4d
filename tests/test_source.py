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


# the package modules each module may import at its top level: weights
# holds the data types (vectors, root data, parameters, K-types), and no
# module loads the tensor algebra of characters unless it computes with it
LAYERS = {
    "__init__": {"weights"},
    "weights": set(),
    "characters": {"weights"},
    "spectrum": {"weights"},
    "unitarity": {"weights"},
    "unipotent": {"weights"},
    "dirac": {"weights", "characters", "spectrum"},
    "cli": {"weights"},
}


def _top_level_imports(path):
    """The package modules a module's body imports outside any function,
    by relative (``from .weights import``) or absolute name."""
    names = set()
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("diracdual." + (node.module or "") if node.level else node.module)
    return {name.split(".")[1] for name in names if name.startswith("diracdual.")}


def test_module_layers():
    modules = {path.stem: path for path in SRC.glob("*.py")}
    assert set(modules) == set(LAYERS)
    got = {name: _top_level_imports(path) for name, path in modules.items()}
    assert got == LAYERS
