"""The mutation catalogue (tests/mutants.py) still applies to this checkout.
Running the mutants takes minutes and stays out of this suite."""

import ast

from mutants import MUTANTS, ROOT


def test_every_mutant_applies_and_names_existing_tests():
    """Each mutant's old text occurs exactly once in its file, and each of
    its test ids names a module-level test function of an existing file."""
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        assert (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old) == 1, \
            mutant.name
        assert mutant.tests, mutant.name
        for test_id in mutant.tests:
            path, func = test_id.split("::")
            tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
            defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
            assert func.split("[")[0] in defined, f"{mutant.name}: {test_id}"
