"""README.md matches the package: every ```python block runs as written,
and the command-line section names the CLI's keys and parses as shown."""

import dataclasses
import pathlib
import re
import shlex

import pytest

from spinboson.cli import RunConfig, build_parser, load_config

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT,
                    flags=re.DOTALL | re.MULTILINE)
COMMAND_LINES = [line for block in re.findall(r"^```sh\n(.*?)^```$", TEXT,
                                              flags=re.DOTALL | re.MULTILINE)
                 for line in block.splitlines()
                 if line.startswith("spinboson ")]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS,
                         ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(code):
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})


def test_readme_key_table_is_run_config():
    section = TEXT.split("## Command line", 1)[1].split("\n#", 1)[0]
    keys = re.findall(r"^\| `(\w+)` ", section, flags=re.MULTILINE)
    assert keys == [f.name for f in dataclasses.fields(RunConfig)]


def test_readme_has_command_lines():
    assert COMMAND_LINES


@pytest.mark.parametrize("line", COMMAND_LINES)
def test_readme_command_line_parses(line):
    # parsed and validated only: no computation runs
    args = build_parser().parse_args(shlex.split(line)[1:])
    overrides = {f.name: getattr(args, f.name)
                 for f in dataclasses.fields(RunConfig)}
    load_config(args.config, overrides, args.command)
