"""Exception hierarchy shared by every engine module.

All deliberate failure paths raise a subclass of :class:`EngineError` so the
CLI can convert any engine fault into a named message and a nonzero exit.
"""


class EngineError(Exception):
    """Base class for all engine errors."""


class DimensionError(EngineError):
    """Grid, block, or index-set sizes are inconsistent."""


class NestingError(EngineError):
    """ring's two sets are not strictly nested (ring is the only raiser)."""


class ParameterError(EngineError):
    """A scalar argument is outside its documented domain."""


class BudgetError(EngineError):
    """A token count or selection budget is out of range."""


class ScheduleError(EngineError):
    """Stage specs or realized counts violate a schedule constraint."""


class FieldContractError(EngineError):
    """A velocity-field implementation returned an ill-shaped or invalid block."""


class ConfigError(EngineError):
    """A run configuration document is missing or misusing a key."""


class FormatError(EngineError):
    """A binary file does not match its declared layout.

    ``offset`` is the byte position at which decoding failed.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset
