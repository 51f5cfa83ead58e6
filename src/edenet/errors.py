"""Exception types shared across the package.

Validation-style failures subclass ValueError so callers can catch broadly;
runtime/state failures subclass RuntimeError. The CLI maps these onto its
exit-code contract (see cli.py). from_fields, check_fields and
expect_numbers are the one check of every value read from a file: each
document is a dataclass, and a wrong type raises, never coerced.
"""

import dataclasses
import functools
import json
import sys
import typing
from pathlib import Path
from types import UnionType

import numpy as np


class ShapeError(ValueError):
    """Array dimensions inconsistent with what an operation requires."""


class ConfigError(ValueError):
    """Invalid run configuration."""


def expect_type(name: str, value, *types: type, error: type = ConfigError):
    """value itself when it is an instance of one of types, else `error`:
    a value is checked, never coerced. A bool passes only where bool is
    listed, though Python counts it as an int."""
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        kinds = " or ".join(t.__name__ for t in types)
        raise error(f"{name} must be {kinds}, got {value!r}")
    return value


def from_fields(cls, doc, what: str, error: type = ConfigError):
    """cls(**doc) for the document `what`: doc must be an object that names
    only fields of the dataclass cls, and each field without a default;
    else `error`."""
    expect_type(what, doc, dict, error=error)
    fields = dataclasses.fields(cls)
    unknown = set(doc) - {f.name for f in fields}
    if unknown:
        raise error(f"{what} has unknown keys: {sorted(unknown)}")
    missing = [f.name for f in fields if f.name not in doc
               and f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING]
    if missing:
        raise error(f"{what} is missing keys: {missing}")
    return cls(**doc)


def check_fields(obj, what: str = "", error: type = ConfigError) -> None:
    """expect_type on each field of the dataclass obj, named `what field`,
    against its annotation: a float field also takes an int but only a
    finite value, X | None also takes None, and list[T] (tuple[T, ...]
    also a tuple) takes a list of T."""
    hints = _type_hints(type(obj))
    for f in dataclasses.fields(obj):
        _check(f"{what} {f.name}".lstrip(), getattr(obj, f.name), hints[f.name], error)


_type_hints = functools.cache(typing.get_type_hints)


def _check(name: str, value, hint, error) -> None:
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is UnionType:  # X | None
        if value is not None:
            _check(name, value, args[0], error)
    elif origin in (list, tuple):
        expect_type(name, value, *((list,) if origin is list else (tuple, list)),
                    error=error)
        for i, item in enumerate(value):
            _check(f"{name}[{i}]", item, args[0], error)
    else:
        expect_type(name, value, *((int, float) if hint is float else (hint,)), error=error)
        if hint is float and not abs(value) <= sys.float_info.max:  # exact for ints too
            raise error(f"{name} must be finite, got {value!r}")


def expect_numbers(name: str, value, error: type = ConfigError) -> np.ndarray:
    """value as a float64 array when it is a number or nested lists of
    numbers, each an int or a float but not a bool, and every one finite;
    else `error`. np.asarray alone would read True as 1.0 and "0.5" as 0.5."""
    items = np.array(value, dtype=object)
    for item in items.flat:
        if type(item) not in (int, float):
            raise error(f"{name} must hold numbers, got {item!r}")
        if not abs(item) <= sys.float_info.max:  # exact for ints of any size
            raise error(f"{name} holds a non-finite value")
    return items.astype(np.float64)


def read_json(path, what: str, error: type = ConfigError):
    """The JSON document in the file at path; `error` names `what` and the
    path when the file is not valid JSON or not UTF-8."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc


class SchemaError(ConfigError):
    """Dataset schema missing, inconsistent, or not matching the CSV."""


class CsvParseError(ValueError):
    """Malformed CSV content; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class FormatError(ValueError):
    """Persisted artifact (model/report file) unreadable or inconsistent."""


class UndefinedAurocError(ValueError):
    """AUROC requested with only one class present in the labels."""


class NotFittedError(RuntimeError):
    """Prediction or transform requested before the owning fit step."""


class FitError(RuntimeError):
    """A fit procedure failed on degenerate inputs."""


class TrainingDivergedError(RuntimeError):
    """Non-finite loss during training; names the offending step."""

    def __init__(self, epoch: int, iteration: int, loss: float):
        super().__init__(
            f"non-finite loss {loss!r} at epoch {epoch}, iteration {iteration}"
        )
        self.epoch = epoch
        self.iteration = iteration
