"""Exception hierarchy. CLI maps ConfigError to exit 3, PreconditionError to exit 2."""


class FtlError(Exception):
    """Base class for all library errors."""


class ConfigError(FtlError):
    """Malformed scene/IFS description or invalid arguments."""


class PreconditionError(FtlError):
    """A formula's structural hypothesis failed; the message is the diagnostic."""


class ResolutionError(FtlError):
    """Grid too small/large for the requested computation (bbox contact, cell cap)."""
