"""Exception types shared across the package."""


class GridError(ValueError):
    """Invalid grid construction request (e.g. too few points per axis)."""


class ShapeError(ValueError):
    """Field length does not match the collocation set it is paired with."""


class IterationLimitError(RuntimeError):
    """An inner iterative solve failed to reach its tolerance."""


class ConfigError(ValueError):
    """Invalid experiment configuration.

    Carries the bare message, the offending key and, when known, the 1-based
    line number.
    """

    def __init__(self, message, key=None, line=None):
        self.message = message
        self.key = key
        self.line = line
        prefix = ""
        if line is not None:
            prefix += f"line {line}: "
        if key is not None:
            prefix += f"key '{key}': "
        super().__init__(prefix + message)


class PgmError(ValueError):
    """Malformed greymap (PGM) image file."""
