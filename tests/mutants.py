"""Mutation checks as code: a catalogue of small deliberate bugs, each with
the tests that must catch it.

    python tests/mutants.py [name ...]

copies the checkout's src/, tests/, schemas/, scripts/ and perfbench/, with
pyproject.toml for pytest's settings, into a temporary directory for each
named mutant (every mutant when none is named), applies that one mutant,
and runs its tests there with `pytest -x -q`. A mutant is killed when one
of its tests fails. One line per mutant says killed or survived, and the
exit status is 1 if any mutant was not killed. test_mutants.py checks,
without running any mutant, that every entry still applies.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "schemas", "scripts", "perfbench", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to the checkout
    old: str  # occurs exactly once in file
    new: str
    tests: tuple[str, ...]  # pytest ids; one of them must fail


MUTANTS = (
    Mutant(
        "divergence-reports-the-last-iteration",
        "src/edenet/ensemble.py",
        "raise TrainingDivergedError(epoch, int(bad[0]), float(per_iter[bad[0], 2]))",
        "raise TrainingDivergedError(epoch, int(bad[-1]), float(per_iter[bad[-1], 2]))",
        ("tests/test_ensemble.py::test_divergence_reports_the_first_iteration_in_iteration_order",
         "tests/test_ensemble.py::test_divergence_in_a_later_round_can_come_first",
         "tests/test_ensemble.py::test_one_diverging_member_fails_where_the_direct_loop_fails"),
    ),
    Mutant(
        "divergence-writes-the-block-back",
        "src/edenet/ensemble.py",
        "        if bad.size:\n",
        "        if bad.size:\n            write_back()\n",
        ("tests/test_ensemble.py::"
         "test_a_run_diverging_without_reweighting_leaves_the_members_as_they_were",
         "tests/test_ensemble.py::"
         "test_a_run_diverging_in_a_later_epoch_leaves_the_last_written_back_members"),
    ),
    Mutant(
        "adam-rows-copy-the-step-counts",
        "src/edenet/optim.py",
        "sub.step, sub.m, sub.v = self.step[run], self.m[run], self.v[run]",
        "sub.step, sub.m, sub.v = self.step[run].copy(), self.m[run], self.v[run]",
        ("tests/test_forkpool.py::test_pooled_rounds_advance_the_step_counts_here",
         "tests/test_ensemble.py::test_lockstep_training_is_bit_exact_against_one_at_a_time"),
    ),
    Mutant(
        "stack-cache-keyed-by-row-count",
        "src/edenet/ensemble.py",
        "        if (run.start, a) not in stacks:\n"
        "            stacks[run.start, a] = (member0.bind(params[:a]), member0.bind(grads[:a]))\n"
        "        nets, out = stacks[run.start, a]\n",
        "        if a not in stacks:\n"
        "            stacks[a] = (member0.bind(params[:a]), member0.bind(grads[:a]))\n"
        "        nets, out = stacks[a]\n",
        ("tests/test_forkpool.py::test_one_stacks_dict_serves_two_runs_of_a_block",),
    ),
    Mutant(
        "scores-sum-the-members-in-reverse",
        "src/edenet/ensemble.py",
        "        for member in ensemble.members:\n"
        "            total[block] += anomaly_score(member, x_block, work)\n",
        "        for member in reversed(ensemble.members):\n"
        "            total[block] += anomaly_score(member, x_block, work)\n",
        ("tests/test_ensemble.py::test_scores_are_training_forward_per_block",
         "tests/test_ensemble.py::test_ensemble_score_carries_nothing_between_blocks_or_calls"),
    ),
)


def apply(mutant: Mutant, root: Path) -> None:
    """Write mutant into the copy at root; ValueError unless its old text
    occurs exactly once."""
    path = root / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: old text occurs {text.count(mutant.old)} times "
                         f"in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def run(mutant: Mutant) -> str:
    """killed, survived, or the pytest exit status of a run that neither
    passed nor failed a test."""
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    with tempfile.TemporaryDirectory(prefix="edenet-mutant-") as tmp:
        root = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, root / name, ignore=ignore)
            else:
                shutil.copy2(ROOT / name, root / name)
        apply(mutant, root)
        env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        status = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *mutant.tests], cwd=root, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL).returncode
    return {0: "survived", 1: "killed"}.get(status, f"not run (pytest exit {status})")


def main(names: list[str]) -> int:
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in names if n not in by_name]
    if unknown:
        print(f"error: no mutant named {', '.join(unknown)}", file=sys.stderr)
        return 2
    outcomes = []
    for name in names or list(by_name):
        outcomes.append(run(by_name[name]))
        print(f"{name}: {outcomes[-1]}", flush=True)
    return 0 if all(o == "killed" for o in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
