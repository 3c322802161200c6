"""The package's public surface: every exported name exists, every public
function and class is used, the README's library example runs as printed,
and its command lines parse."""

import ast
import re
import shlex
from pathlib import Path

import pytest

import subspec
from subspec.cli import build_parser

from test_traced_names import load_traced

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(subspec.__file__).resolve().parent


def test_every_exported_name_resolves():
    assert [name for name in subspec.__all__ if not hasattr(subspec, name)] == []
    assert len(set(subspec.__all__)) == len(subspec.__all__)


def test_every_public_definition_is_used():
    # a use is a name or attribute reference in another module or elsewhere
    # in its own, an export, or a name the benchmark tracer wraps; strings
    # and docstrings do not count
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    used.update(subspec.__all__)
    used.update(name for _, names in load_traced().values() for name in names)
    unused = [f"subspec.{module}.{node.name}"
              for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in used]
    assert unused == []


def test_readme_library_example_runs(capsys):
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2 and "<=" in printed[0]


def readme_command_lines():
    """Each `subspec ...` line of README's "Command line" block, with its
    backslash continuations joined and its comment dropped, as an argv."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line, comments=True)
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("subspec ")]


def test_readme_covers_every_subcommand():
    subcommands = next(action.choices for action in build_parser()._actions
                       if action.dest == "subcommand")
    assert sorted({argv[1] for argv in readme_command_lines()}) == sorted(subcommands)


@pytest.mark.parametrize("argv", readme_command_lines(), ids=" ".join)
def test_readme_command_line_parses(argv):
    # parse only: a renamed flag or ensemble fails here, nothing is run
    assert argv[0] == "subspec"
    args = build_parser().parse_args(argv[1:])
    assert args.subcommand == argv[1]
