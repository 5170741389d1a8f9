"""The README's library example runs as written, and its quoted signatures match the code."""

import importlib
import inspect
import math
import pathlib
import pkgutil
import re

import podrom

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example_prints_l_and_a_finite_max_error(capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", text, re.DOTALL).group(1)
    exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})
    l_text, error_text = capsys.readouterr().out.split()
    assert int(l_text) >= 1
    error = float(error_text)
    assert math.isfinite(error) and error >= 0.0


# `name(params)` or `Class.method(params)`, the whole backticked span
SIGNATURE = re.compile(r"`(\w+(?:\.\w+)?)\(([^`]*)\)`")
STARS = {inspect.Parameter.VAR_POSITIONAL: "*", inspect.Parameter.VAR_KEYWORD: "**"}


def exported_names():
    """Every name in a podrom module's ``__all__``, with what it is bound to."""
    modules = [podrom] + [
        importlib.import_module(f"podrom.{info.name}")
        for info in pkgutil.iter_modules(podrom.__path__)
    ]
    return {
        name: getattr(module, name)
        for module in modules
        for name in module.__dict__.get("__all__", ())
    }


def quoted_parameters(text):
    """(name, has a default) per parameter of a quoted signature; a bare * is no parameter."""
    parts = [part.strip() for part in text.split(",")]
    return [(part.split("=")[0].strip(), "=" in part) for part in parts if part not in ("", "*")]


def code_parameters(target):
    """(name, starred as written, has a default) per parameter but ``self``."""
    return [
        (STARS.get(param.kind, "") + param.name, param.default is not param.empty)
        for param in inspect.signature(target).parameters.values()
        if param.name != "self"
    ]


def test_readme_signatures_match_the_code():
    # A signature quoted with ... or under a name no module exports, such as
    # rhs(...) or project(U), is not checked.
    exported = exported_names()
    checked = []
    for dotted, text in SIGNATURE.findall(README.read_text(encoding="utf-8")):
        owner, _, member = dotted.partition(".")
        if "..." in text or owner not in exported:
            continue
        target = getattr(exported[owner], member) if member else exported[owner]
        assert quoted_parameters(text) == code_parameters(target), dotted
        checked.append(dotted)
    assert len(checked) >= 3
