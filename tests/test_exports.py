"""Each public name is defined once: every module declares an ``__all__``,
every name in it is real, and no two modules export the same name.  No
module reaches into another's underscore-prefixed names."""

import ast
import importlib
import pathlib
import pkgutil

import podrom


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
