"""The error type shared by modules that test identifiability."""


class NonIdentifiableError(RuntimeError):
    """The data cannot determine the requested unknowns: singular Fisher
    information, or a sparse support unobservable under a mask."""
