"""Exception types shared across the package, and the record of one check.

A :class:`Check` is one value-within-bound test: its invariant, the value
it measured and the bound it allows. :func:`require` builds it, returns it
when it passes and raises :class:`ValidationError` carrying it when it
fails; the records of :mod:`tpm_lab.tpm` return the checks they ran, and
the CLI's verdicts and diagnostic flags are checks too. A failed check
always carries its value, so the error's residual is read off it.

Two checks keep their own comparison and only attach a :class:`Check` to
the error they raise, because restating them as value ≤ bound would move
a verdict at one rounding of the edge: ``probability_bounds`` (entries
within [−tol, 1 + tol]: ``high − 1 ≤ 1e−12`` rejects
high = fl(1 + 1e−12), which ``high ≤ 1 + 1e−12`` accepts) and ``jensen``
(⟨I⟩ ≥ bound − tol). An error without a residual (a wrong shape, a
non-finite entry, an empty support or family, an overflowed work average
or ratio) carries no check.
"""

from __future__ import annotations

from typing import NamedTuple


class Check(NamedTuple):
    """One check, as an immutable ``NamedTuple``: ``invariant`` names it,
    ``value`` is what it measured and ``bound`` the most it allows."""

    invariant: str
    value: float
    bound: float

    @property
    def passed(self) -> bool:
        """``value <= bound``: so a NaN value or bound fails."""
        return self.value <= self.bound

    @property
    def margin(self) -> float:
        """``bound − value``: negative when the check fails."""
        return self.bound - self.value


class ValidationError(ValueError):
    """An object violates one of its construction invariants.

    Carries the name of the violated invariant and, when the violation is
    a failed :class:`Check`, that check (``check``) and its value as the
    numerical ``residual``, so callers (and error messages) can report
    exactly what failed. Without a check, ``residual`` is None.
    """

    def __init__(self, message: str, *, invariant: str | None = None,
                 check: Check | None = None):
        super().__init__(message)
        self.check = check
        self.invariant = invariant if check is None else check.invariant
        self.residual = None if check is None else check.value


def require(invariant: str, value: float, bound: float, message: str,
            **fields) -> Check:
    """The :class:`Check` of ``value`` against ``bound`` named
    ``invariant``, returned when it passes; when it fails (NaN included),
    :class:`ValidationError` carrying it is raised. The message is the
    template ``message`` formatted with ``value``, ``bound`` and
    ``fields``, only when the check fails."""
    check = Check(invariant, value, bound)
    if not check.passed:
        raise ValidationError(
            message.format(value=value, bound=bound, **fields), check=check)
    return check


class ConfigError(ValueError):
    """A scenario file cannot be parsed or fails schema validation."""

    def __init__(self, message: str, *, field: str | None = None):
        super().__init__(message)
        self.field = field
