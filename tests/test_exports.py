"""Each public name is defined once: every module declares an ``__all__``,
every name in it is real, and no two modules export the same name.  No
module reaches into another's underscore-prefixed names, and each imports
only the modules below it in the layer order."""

import ast
import importlib
import inspect
import pathlib
import pkgutil

import podrom
from podrom import errors


# The package root re-exports the exception types, so ``errors`` declares none.
UNEXPORTED = {"podrom.errors"}


def _all_modules():
    names = ["podrom"] + [
        f"podrom.{info.name}" for info in pkgutil.iter_modules(podrom.__path__)
    ]
    return {name: importlib.import_module(name) for name in names}


def _exporting_modules():
    return {
        name: module for name, module in _all_modules().items() if hasattr(module, "__all__")
    }


def test_every_error_type_derives_from_the_base():
    assert podrom.PodromError is errors.PodromError
    assert "PodromError" in podrom.__all__
    types = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)]
    assert len(types) == 5
    assert all(issubclass(cls, errors.PodromError) for cls in types)
    assert issubclass(errors.InvalidInputError, ValueError)


def test_driver_and_cli_declare_exports():
    modules = _exporting_modules()
    assert "podrom.experiment" in modules
    assert "podrom.cli" in modules


def test_every_module_declares_exports():
    missing = sorted(set(_all_modules()) - set(_exporting_modules()) - UNEXPORTED)
    assert missing == []


def test_every_exported_name_exists():
    for name, module in _exporting_modules().items():
        missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
        assert missing == [], name


def test_no_name_exported_twice():
    owner = {}
    for name, module in _exporting_modules().items():
        assert len(set(module.__all__)) == len(module.__all__), name
        for attr in module.__all__:
            assert attr not in owner, f"{attr} exported by {owner.get(attr)} and {name}"
            owner[attr] = name


def test_no_module_imports_a_private_name():
    offenders = []
    for path in sorted(pathlib.Path(podrom.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("podrom"):
                continue
            offenders += [
                f"{path.name}: {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert offenders == []


# Each module may import podrom modules only from earlier in this order.
LAYERS = ("errors", "linalg", "ode", "fhn", "pod", "bounds", "experiment", "cli")


def _podrom_imports(tree):
    """Names of the podrom modules a module's source imports, relative or absolute."""
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # A relative import (the package is flat) spelled absolutely.
            module = node.module or ""
            if node.level:
                module = f"podrom.{module}" if module else "podrom"
            if module == "podrom":
                modules += [f"podrom.{alias.name}" for alias in node.names]
            else:
                modules.append(module)
    return {name.split(".")[1] for name in modules if name.startswith("podrom.")}


def test_modules_import_only_earlier_layers():
    root = pathlib.Path(podrom.__file__).parent
    assert sorted(p.stem for p in root.glob("*.py") if p.stem != "__init__") == sorted(LAYERS)
    offenders = []
    for rank, name in enumerate(LAYERS):
        tree = ast.parse((root / f"{name}.py").read_text(encoding="utf-8"))
        offenders += [
            f"{name} imports {imported}"
            for imported in sorted(_podrom_imports(tree))
            if imported not in LAYERS[:rank]
        ]
    assert offenders == []
