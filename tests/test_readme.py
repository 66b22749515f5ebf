"""The README's CLI examples parse, and its config example and settings table
match the settings the config reader knows."""
import re
import shlex
from pathlib import Path

import pytest

from xlproject import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def section(heading: str) -> str:
    """The README from ``heading`` to the next heading of any level."""
    start = README.index(f"\n{heading}\n") + len(heading) + 2
    end = re.compile(r"^#+ ", re.MULTILINE).search(README, start)
    return README[start:end.start() if end else None]


def fenced_block(heading: str, language: str) -> str:
    """The first ``language`` code block of the section under ``heading``."""
    return re.search(rf"```{language}\n(.*?)```", section(heading), re.DOTALL).group(1)


def test_every_cli_example_parses():
    block = fenced_block("## CLI", "bash").replace("\\\n", " ")
    commands = [shlex.split(line) for line in block.splitlines() if line.strip()]
    assert commands and all(argv[0] == "xlproject" for argv in commands)
    for argv in commands:
        try:
            cli.build_parser().parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"the README's command does not parse: {shlex.join(argv)}")


def test_cli_examples_name_every_subcommand():
    block = fenced_block("## CLI", "bash").replace("\\\n", " ")
    named = [shlex.split(line)[1] for line in block.splitlines() if line.strip()]
    assert sorted(set(named)) == sorted(cli.SUBCOMMANDS)


def test_config_example_loads_with_every_setting(tmp_path):
    config = tmp_path / "mt.yaml"
    config.write_text(fenced_block("### Configuration file", "yaml"), encoding="utf-8")
    assert set(cli.load_config_file(str(config))) == set(cli.CONFIG_SETTINGS)


def test_settings_table_lists_every_setting():
    rows = re.findall(r"^\| `([a-z_.]+)` \|", section("### Configuration file"), re.MULTILINE)
    assert rows == list(cli.CONFIG_SETTINGS)
