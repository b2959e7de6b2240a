"""Exception types shared across the package."""


class WavetsError(Exception):
    """Base class for errors raised by this package."""


class UnknownFamilyError(WavetsError, KeyError):
    """Requested wavelet family name is not registered."""

    def __init__(self, name: str):
        super().__init__(f"unknown wavelet family: {name!r}")
        self.name = name

    def __reduce__(self):
        # Rebuild from the name: the default passes the formatted message
        # back to __init__, which would wrap it a second time.
        return type(self), (self.name,)


class SchemaError(WavetsError):
    """A serialized artifact is malformed, incomplete or has the wrong version."""


class FingerprintMismatchError(WavetsError):
    """Artifacts produced under different configurations were mixed."""
