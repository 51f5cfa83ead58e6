"""Exception types shared across the package.

Validation-style failures subclass ValueError so callers can catch broadly;
runtime/state failures subclass RuntimeError. The CLI maps these onto its
exit-code contract (see cli.py).
"""


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
