"""The README's library example runs as written."""

import math
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example_prints_l_and_a_finite_max_error(capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", text, re.DOTALL).group(1)
    exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})
    l_text, error_text = capsys.readouterr().out.split()
    assert int(l_text) >= 1
    error = float(error_text)
    assert math.isfinite(error) and error >= 0.0
