"""Every `formdec ...` line of README's CLI block runs through cli.main,
exits 0 with every check passing, and prints the same bytes twice."""

import json
import pathlib
import shlex

import pytest

from formdec import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    cli_section = README.read_text().split("\n## CLI\n", 1)[1]
    block = cli_section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("formdec ")]


def test_readme_lists_commands():
    assert len(readme_commands()) >= 10


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command(capsys, argv):
    outputs = []
    for _ in range(2):
        code = cli.main(argv)
        outputs.append(capsys.readouterr().out)
        assert code == 0
    assert outputs[0] == outputs[1]
    doc = json.loads(outputs[0])
    assert doc["command"] == argv[0]
    assert [c["name"] for c in doc["checks"] if not c["pass"]] == []
