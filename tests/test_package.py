"""The package's public surface: every exported name exists, and the
README's library example runs as printed."""

import re
from pathlib import Path

import subspec

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    assert [name for name in subspec.__all__ if not hasattr(subspec, name)] == []
    assert len(set(subspec.__all__)) == len(subspec.__all__)


def test_readme_library_example_runs(capsys):
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2 and "<=" in printed[0]
