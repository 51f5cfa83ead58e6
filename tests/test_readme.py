"""Every ```python block of README.md runs as written, so does the
edenet command block of its Quickstart, and its Configuration tables
list every config key with its default."""

import dataclasses
import json
import re
import shlex
from pathlib import Path

from edenet.cli import BenchMethod, RunConfig, SynthSpec, SyntheticTask, TaskEntry, main
from edenet.data import Schema, SchemaColumn
from edenet.ensemble import TrainConfig
from edenet.model import ArchSpec
from edenet.svr import SvrSettings

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


# README heading -> (dataclass, its fields whose default column is not the
# field's own: None for a field that is no key). The data set the width
# that make_arch builds arch at, and latent_dim's default from it.
CONFIG_TABLES = {
    "Top level": (RunConfig, {}),
    "`arch`": (ArchSpec, {"input_dim": None, "latent_dim": "max(1, width // 4)"}),
    "`train`": (TrainConfig, {}),
    "`svr`": (SvrSettings, {}),
    "`tasks[]`": (TaskEntry, {}),
    "`methods[]`": (BenchMethod, {}),
    "`synthetic` for `synth`": (SynthSpec, {}),
    "`synthetic` for `bench`": (SyntheticTask, {}),
    "Schema file": (Schema, {}),
    "Column object": (SchemaColumn, {}),
}


def _default_cell(f: dataclasses.Field) -> str:
    if f.default is not dataclasses.MISSING:
        return json.dumps(f.default)
    if f.default_factory is not dataclasses.MISSING:
        return json.dumps(f.default_factory())
    return "required"


def _readme_tables() -> dict[str, list[tuple[str, str]]]:
    """(key, default) of each table row, by the ### heading above it in
    README's Configuration section."""
    section = README.read_text(encoding="utf-8").split("\n## Configuration\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    tables = {}
    for part in section.split("\n### ")[1:]:
        heading, body = part.split("\n", 1)
        cells = [[c.strip() for c in line.strip("|").split("|")]
                 for line in body.splitlines() if line.startswith("| `")]
        tables[heading] = [(key.strip("`"), default) for key, _, default, _ in cells]
    return tables


def test_readme_config_tables_list_every_field_and_default():
    """One README row per config key, in field order, with the field's
    default: a field without a row or a row without a field fails."""
    tables = _readme_tables()
    assert list(tables) == list(CONFIG_TABLES)
    for heading, (cls, own) in CONFIG_TABLES.items():
        expected = [(f.name, own.get(f.name, _default_cell(f)))
                    for f in dataclasses.fields(cls) if own.get(f.name, "") is not None]
        assert tables[heading] == expected, heading
