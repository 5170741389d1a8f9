"""Each public name is defined once: every module's ``__all__`` is real and
no two modules export the same name."""

import importlib
import pkgutil

import podrom


def _exporting_modules():
    names = ["podrom"] + [
        f"podrom.{info.name}" for info in pkgutil.iter_modules(podrom.__path__)
    ]
    modules = [importlib.import_module(name) for name in names]
    return {module.__name__: module for module in modules if hasattr(module, "__all__")}


def test_driver_and_cli_declare_exports():
    modules = _exporting_modules()
    assert "podrom.experiment" in modules
    assert "podrom.cli" in modules


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
