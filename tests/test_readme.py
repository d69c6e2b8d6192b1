"""The README's examples run as written: its Python session, and every
command-line example through `cli.main` in a scratch directory."""

import re
import shlex
from pathlib import Path

from densigraph import cli

README = Path(__file__).resolve().parent.parent / "README.md"

# The README's `run --config experiment.cfg` line reads this small config.
SMALL_CONFIG = """\
n = 40
t_grid = 200,400
seed = 5
limits = false
"""


def fenced_blocks(language):
    """The bodies of the README's code blocks fenced as `language`."""
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.M | re.S)


def cli_examples():
    """The argument lists of the shell blocks' `densigraph` lines, in order,
    with continued lines joined and comments dropped."""
    commands = []
    for block in fenced_blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["densigraph"]:
                commands.append(words[1:])
    return commands


def test_python_session_runs(capsys):
    (session,) = fenced_blocks("python")
    exec(compile(session, str(README), "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 1


def test_command_line_examples_exit_zero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "experiment.cfg").write_text(SMALL_CONFIG, encoding="ascii")
    commands = cli_examples()
    subcommands = {argv[0] if argv[0] != "oracle" else " ".join(argv[:2])
                   for argv in commands}
    assert subcommands == {"run", "sample", "estimate", "invert", "limits",
                           "oracle stationary", "oracle coalescence"}
    for argv in commands:
        assert cli.main(argv) == 0, (argv, capsys.readouterr().err)
