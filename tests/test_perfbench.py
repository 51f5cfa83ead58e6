"""The benchmark's trace hooks and CLI calls name things that exist.

perfbench/spans.py wraps each (module, function) of its TARGETS when a run
is traced. A renamed or removed function would only show as an
AttributeError inside a `run.py --trace 1` run; this checks the names
against the package, importing spans.py by path. A function that the
commands no longer call would only show as a span that reads 0 calls on
every workload; this runs each command once under spans.py's Tracer.

perfbench/gen.py and perfbench/worker.py call edenet with argument lists,
and gen.py writes config files. A flag the parser no longer takes, or a
config key it no longer reads, would only show as a drop in a workload's
ok_frac; this checks each flag against the parser and each top-level,
train and arch key against the fields of RunConfig, TrainConfig and
ArchSpec, reading the two files with ast without running them.
"""

import argparse
import ast
import dataclasses
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from edenet.cli import RunConfig, build_parser, main
from edenet.ensemble import TrainConfig
from edenet.model import ArchSpec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


spans = _spans()
TARGETS = spans.TARGETS


@pytest.mark.parametrize("span, module, function", TARGETS, ids=[t[0] for t in TARGETS])
def test_each_traced_function_exists(span, module, function):
    assert hasattr(importlib.import_module(f"edenet.{module}"), function), span


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    """A parser's subcommand parsers by name; {} if it has none."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _strings(nodes) -> list[str]:
    return [n.value for n in nodes if isinstance(n, ast.Constant) and isinstance(n.value, str)]


def _cli_flags(path: Path) -> set[tuple[str, str]]:
    """(subcommand, flag) for each "--" string of every list literal whose
    leading strings name an edenet subcommand ("score", "meta build"),
    counting the strings of a list spliced in as *name where name is
    assigned a list literal in the same function."""
    found = set()
    for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(func, ast.FunctionDef):
            continue
        assigned = {target.id: node.value.elts for node in ast.walk(func)
                    if isinstance(node, ast.Assign) and isinstance(node.value, ast.List)
                    for target in node.targets if isinstance(target, ast.Name)}
        for node in ast.walk(func):
            if not isinstance(node, ast.List):
                continue
            words, parser = [], build_parser()
            for elt in node.elts:
                choices = _subcommands(parser)
                if not (isinstance(elt, ast.Constant) and elt.value in choices):
                    break
                words.append(elt.value)
                parser = choices[elt.value]
            if not words:
                continue
            elts = list(node.elts)
            for elt in node.elts:
                if isinstance(elt, ast.Starred) and isinstance(elt.value, ast.Name):
                    elts += assigned.get(elt.value.id, [])
            found |= {(" ".join(words), s) for s in _strings(elts) if s.startswith("--")}
    return found


CLI_FLAGS = sorted(_cli_flags(PERFBENCH / "gen.py") | _cli_flags(PERFBENCH / "worker.py"))


def test_the_checked_calls_include_scores_scaling_flag():
    assert ("score", "--scaling") in CLI_FLAGS
    assert ("score", "--data") in CLI_FLAGS  # from a spliced list


@pytest.mark.parametrize("command, flag", CLI_FLAGS, ids=[" ".join(p) for p in CLI_FLAGS])
def test_each_flag_perfbench_passes_is_taken_by_its_subcommand(command, flag):
    _, unknown = build_parser().parse_known_args([*command.split(), flag, "1"])
    assert flag not in unknown


def _config_keys(path: Path) -> set[tuple[str, str, str]]:
    """(function, section, key) for each key of every dict literal that a
    function writes with write_json to a "...config.json" path: section ""
    for the top level, and "train" or "arch" for the keys of the dict
    literal under that top-level key."""
    found = set()
    for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(func, ast.FunctionDef):
            continue
        for call in ast.walk(func):
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id == "write_json" and isinstance(call.args[1], ast.Dict)
                    and any(s.endswith("config.json") for s in _strings(ast.walk(call.args[0])))):
                continue
            for key, value in zip(call.args[1].keys, call.args[1].values):
                found.add((func.name, "", key.value))
                if key.value in ("train", "arch") and isinstance(value, ast.Dict):
                    found |= {(func.name, key.value, k.value) for k in value.keys}
    return found


CONFIG_KEYS = sorted(_config_keys(PERFBENCH / "gen.py"))
# the keys each section takes; the width is the data's, so input_dim is none
SECTION_KEYS = {"": {f.name for f in dataclasses.fields(RunConfig)},
                "train": {f.name for f in dataclasses.fields(TrainConfig)},
                "arch": {f.name for f in dataclasses.fields(ArchSpec)} - {"input_dim"}}


def test_the_checked_configs_cover_each_section_and_workload():
    assert {section for _, section, _ in CONFIG_KEYS} == set(SECTION_KEYS)
    assert {func for func, _, _ in CONFIG_KEYS} == {"gen_train_lstm", "gen_train_kdd",
                                                     "gen_meta_loop"}


@pytest.mark.parametrize("func, section, key", CONFIG_KEYS,
                         ids=[f"{f} {s or 'top'}.{k}" for f, s, k in CONFIG_KEYS])
def test_each_config_key_perfbench_writes_is_read(func, section, key):
    assert key in SECTION_KEYS[section]


# traced, but entered by no command: training files are scaled as they are
# loaded (data.load_training_rows), and a model scales each block it scores
UNRUN = {"data.fit_scale": "only scripts/run_kdd99.py fits scaling on a Dataset",
         "data.apply_scale": "no command scales a copy of its rows"}


def _synth(out: Path, n_normal: int, n_anomaly: int, seed: int) -> Path:
    assert main(["synth", "--out", str(out), "--d", "4", "--n-normal", str(n_normal),
                 "--n-anomaly", str(n_anomaly), "--seed", str(seed)]) == 0
    return out


def test_every_traced_function_runs_under_a_command(tmp_path):
    """Tiny synth, train (feed-forward and LSTM), score, eval and meta
    build/fit/select runs enter every span of TARGETS but those in UNRUN."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        train, test = _synth(tmp_path / "train", 40, 0, 1), _synth(tmp_path / "test", 16, 8, 2)
        schema = ["--schema", str(train / "schema.json")]
        for encoder in ("feedforward", "lstm"):
            assert main(["train", "--data", str(train / "data.csv"), *schema, "--encoder", encoder,
                         "--epochs", "2", "--members", "2", "--out", str(tmp_path / "run")]) == 0
        assert main(["score", "--model", str(tmp_path / "run" / "model.json"),
                     "--data", str(test / "data.csv"), *schema,
                     "--out", str(tmp_path / "score")]) == 0
        assert main(["eval", "--scores", str(tmp_path / "score" / "scores.csv"),
                     "--data", str(test / "data.csv"), *schema,
                     "--out", str(tmp_path / "eval")]) == 0
        cfg = tmp_path / "meta.json"
        cfg.write_text(json.dumps({
            "schema": schema[1], "candidates": [1, 2], "train": {"epochs": 1},
            "tasks": [{"train": str(train / "data.csv"), "test": str(test / "data.csv")}] * 2}))
        meta = tmp_path / "meta"
        assert main(["meta", "build", "--config", str(cfg), "--out", str(meta)]) == 0
        assert main(["meta", "fit", "--meta", str(meta / "meta.csv"), "--out", str(meta)]) == 0
        assert main(["meta", "select", "--model", str(meta / "meta_model.json"),
                     "--data", str(train / "data.csv"), *schema, "--candidates", "1,2",
                     "--out", str(meta)]) == 0
    finally:
        tracer.uninstall()
    entered = set(tracer.names)
    assert sorted(span for span, _, _ in TARGETS if span not in entered) == sorted(UNRUN)


def test_a_traced_train_counts_one_reweight_pass_per_epoch(tmp_path):
    """layer_metrics counts an ensemble_score call as a reweight pass only
    when train_ensemble makes it itself; a train that reweights (the
    default) over 3 epochs makes 3."""
    train = _synth(tmp_path / "train", 40, 0, 1)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert main(["train", "--data", str(train / "data.csv"),
                     "--schema", str(train / "schema.json"), "--epochs", "3",
                     "--members", "2", "--out", str(tmp_path / "run")]) == 0
    finally:
        tracer.uninstall()
    values, _ = tracer.layer_metrics(1, 0.0)
    assert values["ensemble.ensemble_score.reweight.calls"] == 3
