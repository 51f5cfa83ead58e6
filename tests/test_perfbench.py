"""The benchmark's trace hooks name functions that exist.

perfbench/spans.py wraps each (module, function) of its TARGETS when a run
is traced. A renamed or removed function would only show as an
AttributeError inside a `run.py --trace 1` run; this checks the names
against the package, importing spans.py by path without running it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


TARGETS = _targets()


@pytest.mark.parametrize("span, module, function", TARGETS, ids=[t[0] for t in TARGETS])
def test_each_traced_function_exists(span, module, function):
    assert hasattr(importlib.import_module(f"edenet.{module}"), function), span
