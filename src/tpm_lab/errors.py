"""Exception types shared across the package."""

from __future__ import annotations


class ValidationError(ValueError):
    """An object violates one of its construction invariants.

    Carries the name of the violated invariant and the numerical residual
    so callers (and error messages) can report exactly what failed.
    """

    def __init__(self, message: str, *, invariant: str | None = None,
                 residual: float | None = None):
        super().__init__(message)
        self.invariant = invariant
        self.residual = residual


def require(invariant: str, value: float, bound: float, message: str,
            **fields) -> None:
    """Raise :class:`ValidationError` naming ``invariant``, with ``value`` as
    its residual, unless ``value <= bound``: so NaN fails. The message is
    the template ``message`` formatted with ``value``, ``bound`` and
    ``fields``, only when the check fails."""
    if not value <= bound:
        raise ValidationError(
            message.format(value=value, bound=bound, **fields),
            invariant=invariant, residual=value)


class ConfigError(ValueError):
    """A scenario file cannot be parsed or fails schema validation."""

    def __init__(self, message: str, *, field: str | None = None):
        super().__init__(message)
        self.field = field
