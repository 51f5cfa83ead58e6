"""Exception types shared across the package.

Validation-style failures subclass ValueError so callers can catch broadly;
runtime/state failures subclass RuntimeError. The CLI maps these onto its
exit-code contract (see cli.py). expect_type, from_fields and check_fields
are the one check of config values: each section is a dataclass.
"""

import dataclasses
import functools
import typing
from types import UnionType


class ShapeError(ValueError):
    """Array dimensions inconsistent with what an operation requires."""


class ConfigError(ValueError):
    """Invalid run configuration."""


def expect_type(name: str, value, *types: type):
    """value itself when it is an instance of one of types, else a
    ConfigError: a config value is checked, never coerced. A bool passes
    only where bool is listed, though Python counts it as an int."""
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        kinds = " or ".join(t.__name__ for t in types)
        raise ConfigError(f"{name} must be {kinds}, got {value!r}")
    return value


def from_fields(cls, doc, what: str):
    """cls(**doc) for the config section `what`: doc must be an object that
    names only fields of the dataclass cls, and each field without a default."""
    expect_type(what, doc, dict)
    fields = dataclasses.fields(cls)
    unknown = set(doc) - {f.name for f in fields}
    if unknown:
        raise ConfigError(f"{what} has unknown keys: {sorted(unknown)}")
    missing = [f.name for f in fields if f.name not in doc
               and f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"{what} is missing keys: {missing}")
    return cls(**doc)


def check_fields(obj, what: str = "") -> None:
    """expect_type on each field of the dataclass obj, named `what field`,
    against its annotation: a float field also takes an int, X | None also
    takes None, and list[T] (tuple[T, ...] also a tuple) takes a list of T."""
    hints = _type_hints(type(obj))
    for f in dataclasses.fields(obj):
        _check(f"{what} {f.name}".lstrip(), getattr(obj, f.name), hints[f.name])


_type_hints = functools.cache(typing.get_type_hints)


def _check(name: str, value, hint) -> None:
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is UnionType:  # X | None
        if value is not None:
            _check(name, value, args[0])
    elif origin in (list, tuple):
        expect_type(name, value, *((list,) if origin is list else (tuple, list)))
        for i, item in enumerate(value):
            _check(f"{name}[{i}]", item, args[0])
    else:
        expect_type(name, value, *((int, float) if hint is float else (hint,)))


class SchemaError(ConfigError):
    """Dataset schema missing, inconsistent, or not matching the CSV."""


class CsvParseError(ValueError):
    """Malformed CSV content; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class FormatError(ValueError):
    """Persisted artifact (model/report file) unreadable or inconsistent."""


class DegenerateWeightsError(ValueError):
    """A sample-weight vector with zero total mass."""


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
