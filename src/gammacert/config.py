"""Precision policy and certified-value plumbing shared by all modules.

Every verdict reads the signs of exact enclosures (Sweep), integer
intervals of specfun's layer; a public function returns a SpecialValue, a
value with an absolute error bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


# Extra decimal digits of mpmath working precision beyond what is quoted
# in error bounds; absorbs rounding in the elementary-function calls.
GUARD_DIGITS = 10

# The most working digits accepted, the top of the range in which the
# kernel's bound is tested against a reference and every claim is run; no
# float range sets it since the kernel counts its remainder in integers.
MAX_WORKING_DIGITS = 291


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
    """Working precision: working_digits decimal digits of quoted precision,
    15 to MAX_WORKING_DIGITS."""

    working_digits: int = 15

    def __post_init__(self) -> None:
        if not 15 <= self.working_digits <= MAX_WORKING_DIGITS:
            raise ParameterError(f"working_digits must be between 15 and {MAX_WORKING_DIGITS}")

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
    """Turns exact enclosures lo <= margin <= hi over a set of check points
    into a verdict (margin >= 0 means the claim holds): lo and hi are ints
    at one scale or Fractions, and only their signs are read.  A point holds
    when lo >= 0 and falsifies when hi < 0; "verified" needs every point to
    hold, "falsified" some point to falsify, else "indeterminate".  Equality
    holds only as the exact [0, 0], never by an allowance (Moore, Kearfott
    and Cloud, Introduction to Interval Analysis, SIAM 2009, ch. 2-3)."""

    def __init__(self) -> None:
        self.min_margin, self.argmin = math.inf, None  # argmin: set by the first margin
        self.all_clear, self.any_falsifying = True, False

    def add(self, at, margin: float, lo, hi) -> None:
        """Record one margin at `at`; the float takes the sign lo and hi decide."""
        if lo < 0:
            self.all_clear = False
            if hi < 0:
                self.any_falsifying = True
                margin = min(margin, -math.ulp(0.0))
        elif margin < 0:
            margin = 0.0
        if margin < self.min_margin or self.argmin is None:
            self.min_margin = margin
            self.argmin = at

    def result(self):
        """(min_margin, argmin, verdict) of the margins added so far."""
        verdict = VERIFIED if self.all_clear else FALSIFIED if self.any_falsifying else INDETERMINATE
        return self.min_margin, self.argmin, verdict
