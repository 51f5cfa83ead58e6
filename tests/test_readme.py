"""Every ```python block of README.md runs as written, and so does the
edenet command block of its Quickstart."""

import re
import shlex
from pathlib import Path

from edenet.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_readme_python_block_runs(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        flags=re.S | re.M)
    assert blocks
    monkeypatch.chdir(tmp_path)  # any file a block writes lands here
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), {})


def test_readme_quickstart_commands_run(tmp_path, monkeypatch, capsys):
    """Each command of the Quickstart block, run through cli.main in a
    fresh directory, exits 0."""
    block, = re.findall(r"^## Quickstart\n\n```\n(.*?)^```$",
                        README.read_text(encoding="utf-8"), flags=re.S | re.M)
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    assert [argv[:2] for argv in commands] == [["edenet", "synth"], ["edenet", "train"],
                                               ["edenet", "score"], ["edenet", "eval"]]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, capsys.readouterr().err
