"""Exception types shared across the package."""

__all__ = [
    "MimoafError",
    "InvalidParameterError",
    "GridMismatchError",
    "GridAlignmentError",
    "AliasingError",
    "TruncationRiskError",
    "FileFormatError",
]


class MimoafError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(MimoafError, ValueError):
    """A constructor or operation argument is out of its documented range."""


class GridMismatchError(MimoafError, ValueError):
    """Two sampled objects do not live on the same (dt, t0, length) grid."""


class GridAlignmentError(MimoafError, ValueError):
    """A requested coordinate does not land on the sampling grid."""


class AliasingError(MimoafError, ValueError):
    """An operation would push signal content past the Nyquist band."""


class TruncationRiskError(MimoafError, ValueError):
    """A window is too short to hold the requested waveform support."""


class FileFormatError(MimoafError, ValueError):
    """A signal or surface file does not parse as its declared format."""
