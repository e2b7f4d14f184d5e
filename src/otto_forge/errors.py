"""Exception types shared across the package.

Everything physics- or numerics-related derives from :class:`OttoForgeError`
so the CLI can map it onto a single exit code. Plain ``ValueError`` is kept
for malformed arguments (domain violations, bad specs).
"""


class OttoForgeError(Exception):
    """Base class for physics and numerics failures."""


class CutoffTooSmall(OttoForgeError):
    """The requested Fock cutoff cannot resolve the state's occupation tail."""

    def __init__(self, message: str, tail_mass: float = float("nan")) -> None:
        super().__init__(message)
        self.tail_mass = tail_mass  # the unresolved mass measured at that cutoff


class CutoffSearchFailed(OttoForgeError):
    """No cutoff below the hard cap meets the requested tail tolerance."""


class DensityNotPositive(OttoForgeError):
    """A density's spectrum could not be certified to within the round-off floor."""


class LapackFailure(OttoForgeError):
    """A LAPACK routine of the Fock oracle failed, for example did not converge."""


class NotApplicable(OttoForgeError):
    """The requested cycle is undefined for the given bath kind."""


class InvalidExcess(OttoForgeError):
    """A second-kind bath would drive the working fluid below zero occupation."""
