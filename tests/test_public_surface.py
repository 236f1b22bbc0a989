"""The package's public surface: every exported name resolves, once, and the
README's library example runs."""

import re
from pathlib import Path

import gridclear


def test_every_exported_name_resolves_once():
    assert len(set(gridclear.__all__)) == len(gridclear.__all__)
    missing = [name for name in gridclear.__all__ if not hasattr(gridclear, name)]
    assert missing == []


def test_readme_python_example_runs():
    # the README's library example uses public names only, so a removed or
    # renamed name fails here instead of leaving the README stale
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {"__name__": "readme_example"})
