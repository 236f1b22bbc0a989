"""The package's public surface: every exported name resolves, once, and the
README's library and CLI examples run."""

import re
import shlex
from pathlib import Path

from click.testing import CliRunner

import gridclear
from gridclear.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves_once():
    assert len(set(gridclear.__all__)) == len(gridclear.__all__)
    missing = [name for name in gridclear.__all__ if not hasattr(gridclear, name)]
    assert missing == []


def test_readme_python_example_runs():
    # the README's library example uses public names only, so a removed or
    # renamed name fails here instead of leaving the README stale
    readme = README.read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {"__name__": "readme_example"})


def readme_cli_examples():
    """Each ``gridclear ...`` command of the README's plain code blocks, with
    backslash continuations joined."""
    blocks = re.findall(r"^```\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("gridclear ")]


def test_readme_cli_examples_run(tmp_path):
    examples = readme_cli_examples()
    assert examples
    for i, argv in enumerate(examples):
        out = tmp_path / str(i)
        argv = [str(out) if prev == "--out" else arg for prev, arg in zip([None, *argv], argv)]
        result = CliRunner().invoke(main, argv)
        assert result.exit_code == 0, (argv, result.output)
        assert any(out.iterdir()), argv
