"""Precision policy and certified-value plumbing shared by all modules.

Every numeric result that feeds an inequality verdict is carried as a
SpecialValue: a value together with an absolute error bound, so that
comparisons can be made interval-safely instead of on bare floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


# Extra decimal digits of mpmath working precision beyond what is quoted
# in error bounds; absorbs rounding in the elementary-function calls.
GUARD_DIGITS = 10


VERIFIED = "verified"
FALSIFIED = "falsified"
INDETERMINATE = "indeterminate"


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class ParameterError(ValueError):
    """Family or shape parameter outside its admissible range."""


class NumericalError(RuntimeError):
    """A series, enclosure or search could not reach its certified target."""


@dataclass(frozen=True)
class PrecisionConfig:
    """Working precision: working_digits decimal digits of quoted precision
    (>= 15)."""

    working_digits: int = 15

    def __post_init__(self) -> None:
        if self.working_digits < 15:
            raise ParameterError("working_digits must be >= 15")

    @property
    def dps(self) -> int:
        """mpmath working precision actually used internally."""
        return self.working_digits + GUARD_DIGITS

    def doubled(self) -> "PrecisionConfig":
        """Same policy at twice the working precision (indeterminate retry)."""
        return replace(self, working_digits=2 * self.working_digits)


DEFAULT_CONFIG = PrecisionConfig()


@dataclass(frozen=True)
class SpecialValue:
    """A real value with a certified absolute error bound.

    The truth lies in [value - abs_error_bound, value + abs_error_bound];
    downstream comparisons must consume this interval, never the bare value.
    """

    value: object  # mpmath.mpf (kept exact at the producing precision)
    abs_error_bound: float

    def __post_init__(self) -> None:
        if not 0 <= self.abs_error_bound < math.inf:  # rejects nan, +-inf and < 0
            raise ParameterError("abs_error_bound must be finite and nonnegative")

    def __float__(self) -> float:
        return float(self.value)


def require_positive(name: str, x) -> None:
    """Raise DomainError unless x is positive and finite (nan fails too)."""
    if not 0 < x < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {x!r}")


class Sweep:
    """Turns interval-safe margins over a set of check points into a verdict.

    Each point contributes a margin (>= 0 means the claim holds there) and
    the error bound of that margin.  "verified" needs every margin to clear
    its bound, "falsified" needs some margin below minus its bound, and
    anything in between is "indeterminate".
    """

    def __init__(self) -> None:
        self.min_margin = math.inf
        self.argmin = 0.0
        self.all_clear = True
        self.any_falsifying = False

    def add(self, at, margin: float, err: float, allow_equality: bool = False) -> None:
        """Record one margin; `at` labels the point reported as argmin."""
        if margin < self.min_margin:
            self.min_margin = margin
            self.argmin = at
        ok = margin >= -err if allow_equality else margin > err
        if not ok:
            self.all_clear = False
        if margin < -err:
            self.any_falsifying = True

    def result(self):
        """(min_margin, argmin, verdict) of the margins added so far."""
        if self.all_clear:
            verdict = VERIFIED
        elif self.any_falsifying:
            verdict = FALSIFIED
        else:
            verdict = INDETERMINATE
        return self.min_margin, self.argmin, verdict
