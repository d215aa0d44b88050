"""Closed-form two-sided bound families for Gamma(x+1), harmonic numbers,
factorials and the Bernoulli-type fraction x/(e^x - 1).

The Qi-type gamma bounds (Eq. (3.1) = QiGammaLow = SevliBatirGamma, Eq. (3.2)
= QiGammaHigh, QiGammaGeneric) and the corrected factorial Eqs. (3.12), (3.13)
(constants forced by equality at n = 1) are rows (lambda, c_lo, c_hi) over
H_lambda: c_lo <= H_lambda <= c_hi.  The printed factorial sides, which
the harness falsifies, are rows of the same shape, F_0(n) + 1/(d (n+lambda))
against a constant (see _row_shape).  BukacGamma, the harmonic and
Bernoulli families and the printed harmonic constant keep their displayed
expressions.  sec1-comparison compares BukacGamma against Eq. (3.1).
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from mpmath import mp

from .config import (
    DEFAULT_CONFIG,
    GUARD_DIGITS,
    DomainError,
    ParameterError,
    PrecisionConfig,
    SpecialValue,
    require_positive,
)
from . import specfun

__all__ = [
    "FamilyId",
    "BoundFamily",
    "BoundPair",
    "eval_gamma_bound",
    "eval_harmonic_bound",
    "harmonic_bound",
    "harmonic_tail",
    "eval_factorial_bound",
    "eval_bernoulli_fraction_bound",
    "bernoulli_fraction_bound",
    "compare_families",
    "FamilyComparison",
    "PairOrdering",
    "gamma_bound_log",
    "factorial_bound_log",
    "PRINTED_HARMONIC_CONSTANT",
    "CORRECTED_HARMONIC_CONSTANT",
]


class FamilyId(enum.Enum):
    BUKAC_GAMMA = "BukacGamma"
    SEVLI_BATIR_GAMMA = "SevliBatirGamma"
    QI_GAMMA_LOW = "QiGammaLow"
    QI_GAMMA_HIGH = "QiGammaHigh"
    QI_GAMMA_GENERIC = "QiGammaGeneric"
    HARMONIC_LOW = "HarmonicLow"
    HARMONIC_HIGH = "HarmonicHigh"
    FACTORIAL_LOW = "FactorialLow"
    FACTORIAL_HIGH = "FactorialHigh"
    FACTORIAL_AS_PRINTED = "FactorialAsPrinted"
    BERNOULLI_FRACTION = "BernoulliFraction"
    BERNOULLI_CLASSIC = "BernoulliClassic"


_GAMMA_FAMILIES = {
    FamilyId.BUKAC_GAMMA,
    FamilyId.SEVLI_BATIR_GAMMA,
    FamilyId.QI_GAMMA_LOW,
    FamilyId.QI_GAMMA_HIGH,
    FamilyId.QI_GAMMA_GENERIC,
}


@dataclass(frozen=True)
class BoundFamily:
    """A bound family id plus its shape parameter (QiGammaGeneric only)."""

    id: FamilyId
    lam: Optional[float] = None

    def __post_init__(self) -> None:
        if self.id is FamilyId.QI_GAMMA_GENERIC:
            if self.lam is None or not 0 <= self.lam <= 0.5:
                raise ParameterError(
                    "QiGammaGeneric requires a parameter lambda in [0, 1/2]"
                )
        elif self.lam is not None:
            raise ParameterError(f"{self.id.value} takes no lambda parameter")


@dataclass(frozen=True)
class BoundPair:
    """A certified (lower, upper) bracket of a target quantity at x."""

    lower: float
    upper: float
    family: BoundFamily
    x: float

    def __post_init__(self) -> None:
        # the printed factorial sides genuinely cross at small n; they must
        # be representable so the harness can report them as falsified
        if self.family.id is not FamilyId.FACTORIAL_AS_PRINTED and not self.lower <= self.upper:
            raise ParameterError(f"lower {self.lower} exceeds upper {self.upper}")

    def contains(self, value: float, slop: float = 0.0) -> bool:
        return self.lower - slop <= value <= self.upper + slop


# (lambda, x0 of c_lo, x0 of c_hi), c = H_lambda(x0) at x0 = 0+, 1 or inf (c = 0)
_ROWS = {
    FamilyId.QI_GAMMA_LOW: (0.5, math.inf, 0),  # Eq. (3.1)
    FamilyId.SEVLI_BATIR_GAMMA: (0.5, math.inf, 0),  # beta = sqrt(2) e^(7/12) makes it Eq. (3.1)
    FamilyId.QI_GAMMA_GENERIC: (None, math.inf, 0),  # lambda from the family
    FamilyId.QI_GAMMA_HIGH: (1.5, 0, math.inf),  # Eq. (3.2)
    FamilyId.FACTORIAL_HIGH: (0.5, math.inf, 1),  # corrected Eq. (3.12)
    FamilyId.FACTORIAL_LOW: (1.5, 1, math.inf),  # corrected Eq. (3.13)
}


@functools.lru_cache(maxsize=16)
def _row(family: BoundFamily, cfg: PrecisionConfig) -> tuple:
    """((lambda, size), c_lo, c_hi) of a row family at cfg.dps, once per
    family and precision, from H_lambda(x0) = 1/(24 (x0+lambda)) - p(x0) at
    x0 = 0+, 1 (ln Gamma(x0+1) = 0 there).  size, the sum of the magnitudes
    of the terms the finite c are formed from, is summed next to each c and
    kept with lambda, apart from the two constants, which a caller may
    replace by tightened ones."""
    lam, x_lo, x_hi = _ROWS[family.id]
    with mp.workdps(cfg.dps):
        lm = mp.mpf(family.lam if lam is None else lam)

        def H_at(x0):
            if x0 == math.inf or x0 + lm == 0:  # H_lambda(inf) = 0, H_0(0+) = inf
                return (mp.zero if x0 == math.inf else mp.inf), 0.0
            a = 1 / (24 * (x0 + lm))
            p, size = specfun._stirling_log(mp.mpf(x0), cfg)
            return a - p, float(abs(a)) + float(size)

        (c_lo, size_lo), (c_hi, size_hi) = H_at(x_lo), H_at(x_hi)
        return (lm, size_lo + size_hi), c_lo, c_hi


@functools.lru_cache(maxsize=8)
def _printed_constant(cfg: PrecisionConfig) -> tuple:
    """(K', size): K' = 12 (3 - ln pi + ln(4/27)) of the printed Eqs. (3.12),
    (3.13) at cfg.dps, once per precision, and size, the sum of the
    magnitudes of the terms it is formed from, as in _row."""
    with mp.workdps(cfg.dps):
        ln_pi, ln_4_27 = mp.log(mp.pi), mp.log(mp.mpf(4) / 27)
        return 12 * (3 - ln_pi + ln_4_27), float(12 * (3 + ln_pi + abs(ln_4_27)))


def _row_shape(row, cfg: PrecisionConfig) -> tuple:
    """(d, lambda, c_lo, c_hi, size), at cfg.dps, of the one shape every row
    takes,

        c_lo <= F_0(x) + 1/(d (x+lambda)) <= c_hi,  F_0(x) = ln Gamma(x+1) - p(x),

    a side being missing where its c is -inf or +inf.  size is the sum of
    the magnitudes of the terms the finite constants are formed from, so
    size 10^(2-dps) bounds their rounding (the rule of specfun._constants);
    a float, as rough as that rule.  A row family of fixed lambda, named by
    its FamilyId, has d = 24 and the lambda, c_lo, c_hi and size of _row,
    each c being 1/(24 (x0+lambda)) - p(x0).  "upper" and "lower" name the
    printed Eq. (3.12) upper and Eq. (3.13) lower sides,

        ln n! <= p(n) + (K' - 1/(3 (n+1/2)))/24,  ln n! >= p(n) + (K' + 1/(5 (n+3/2)))/24,

    K' = _printed_constant, with p(n) and the n-dependent term moved left:

        F_0(n) + 1/(72 (n+1/2)) <= K   and   K <= F_0(n) - 1/(120 (n+3/2)),

    K = K'/24 = (3 - ln pi + ln(4/27)) / 2."""
    if isinstance(row, FamilyId):
        (lam, size), c_lo, c_hi = _row(BoundFamily(row), cfg)
        return 24, lam, c_lo, c_hi, size
    k_24, size_24 = _printed_constant(cfg)
    with mp.workdps(cfg.dps):
        k = k_24 / 24
    if row == "upper":
        return 72, mp.mpf(1) / 2, mp.ninf, k, size_24 / 24
    return -120, mp.mpf(3) / 2, k, mp.inf, size_24 / 24


def _bound_log(family: BoundFamily, x, cfg: PrecisionConfig):
    """(ln lower, ln upper) at cfg.dps: p(x) - 1/(d (x+lambda)) + c on each
    side, c being c_lo below and c_hi above, for a row family (d = 24) and
    for the printed factorial family, whose lower side is the "lower" row
    of _row_shape and whose upper side is its "upper" row; else the
    displayed BukacGamma."""
    with mp.workdps(cfg.dps):
        xm = mp.mpf(x)
        p, _ = specfun._stirling_log(xm, cfg)
        if family.id is FamilyId.BUKAC_GAMMA:
            return (p - 1 / (24 * xm),
                    p - 1 / (24 * (mp.sqrt(xm ** 2 + 3 * xm + mp.mpf(5) / 2) - mp.mpf(1) / 2)))
        if family.id is FamilyId.FACTORIAL_AS_PRINTED:
            lower, upper = _row_shape("lower", cfg), _row_shape("upper", cfg)
        else:
            (lam, _), c_lo, c_hi = _row(family, cfg)
            lower = upper = (24, lam, c_lo, c_hi)
        return (p - 1 / (lower[0] * (xm + lower[1])) + lower[2],
                p - 1 / (upper[0] * (xm + upper[1])) + upper[3])


def gamma_bound_log(family: BoundFamily, x, cfg: PrecisionConfig = DEFAULT_CONFIG):
    """(ln lower, ln upper) for a gamma-target family at x; upper may be +inf
    (QiGammaGeneric at lambda = 0 has no finite upper side)."""
    if family.id not in _GAMMA_FAMILIES:
        raise ParameterError(f"{family.id.value} is not a gamma-target family")
    require_positive("x", x)
    return _bound_log(family, x, cfg)


def eval_gamma_bound(family: BoundFamily, x, cfg: PrecisionConfig = DEFAULT_CONFIG) -> BoundPair:
    """Closed-form bracket of Gamma(x+1) for a gamma-target family, as floats:
    both sides are inf from about x = 171 on, where gamma_bound_log stays finite."""
    lo, hi = gamma_bound_log(family, x, cfg)
    with mp.workdps(cfg.dps):
        return BoundPair(float(mp.exp(lo)), float(mp.exp(hi)), family, float(x))


PRINTED_HARMONIC_CONSTANT = Fraction(1, 90)
CORRECTED_HARMONIC_CONSTANT = Fraction(1, 150)  # forces equality at n = 1


# s of the n-dependent part ln m + 1/(24 (m+s)^2), m = n + 1/2, of both sides
_HARMONIC_S = {FamilyId.HARMONIC_LOW: 0, FamilyId.HARMONIC_HIGH: 1}


@functools.lru_cache(maxsize=16)
def _harmonic_constants(family: BoundFamily, constant: Fraction, cfg: PrecisionConfig):
    """(c_lo, c_hi, gamma) at cfg.dps, computed once per family, constant and
    precision.  gamma is mpmath's constant rounded to nearest at cfg.dps +
    GUARD_DIGITS digits, the precision euler_gamma works at for cfg.dps
    quoted digits, so it is within 2^-prec of itself in relative terms,
    prec the bits of those digits; like the rounding of the other terms,
    that is below 10^(2-dps), the rule of specfun._constants."""
    with mp.workdps(cfg.dps + GUARD_DIGITS):
        gamma_c = +mp.euler
    with mp.workdps(cfg.dps):
        if family.id is FamilyId.HARMONIC_LOW:
            return 1 - mp.log(mp.mpf(3) / 2) - mp.mpf(1) / 54, gamma_c, gamma_c
        c = mp.mpf(constant.numerator) / constant.denominator
        return gamma_c, 1 - mp.log(mp.mpf(3) / 2) - c, gamma_c


def harmonic_bound(family: BoundFamily, n: int, cfg: PrecisionConfig = DEFAULT_CONFIG,
                   constant: Fraction = CORRECTED_HARMONIC_CONSTANT):
    """(lower, upper) of the n-th harmonic number at working precision.

    HarmonicLow:  ln(n+1/2) + 1/(24(n+1/2)^2) + [1 - ln(3/2) - 1/54, gamma]
    HarmonicHigh: ln(n+1/2) + 1/(24(n+3/2)^2) + [gamma, 1 - ln(3/2) - C]

    C defaults to the corrected 1/150; pass constant=PRINTED_HARMONIC_CONSTANT
    to reproduce (and falsify) the printed 1/90.
    """
    if family.id not in _HARMONIC_S:
        raise ParameterError(f"{family.id.value} is not a harmonic family")
    if not (isinstance(n, int) and n >= 1):
        raise DomainError(f"n must be a positive integer, got {n!r}")
    c_lo, c_hi, _ = _harmonic_constants(family, constant, cfg)
    with mp.workdps(cfg.dps):
        m = mp.mpf(n) + mp.mpf(1) / 2
        base = mp.log(m) + 1 / (24 * (m + _HARMONIC_S[family.id]) ** 2)
        return base + c_lo, base + c_hi


def eval_harmonic_bound(family: BoundFamily, n: int, cfg: PrecisionConfig = DEFAULT_CONFIG,
                        constant: Fraction = CORRECTED_HARMONIC_CONSTANT) -> BoundPair:
    """Bracket of the n-th harmonic number; see harmonic_bound."""
    lo, hi = harmonic_bound(family, n, cfg, constant)
    return BoundPair(float(lo), float(hi), family, float(n))


def _harmonic_defect(m):
    """(lower, upper) of D = psi(m + 1/2) - ln m for m > 0, which is
    H_n - gamma - ln(n+1/2) at m = n + 1/2:

        1/(24m^2) - 7/(960m^4) < D < 1/(24m^2).

    Proof: D = int_0^inf (1/t - 1/(2 sinh(t/2))) e^{-mt} dt, and with u = t/2
    the bracket is (1/u - csch u)/2, where 1/u - u/6 < csch u < 1/u - u/6 +
    7u^3/360 for u > 0; int t e^{-mt} dt = 1/m^2 and int t^3 e^{-mt} dt =
    6/m^4.  (DeTemple's ln(n+1/2) approximation of H_n - gamma, two-sided;
    D. W. DeTemple, Amer. Math. Monthly 100 (1993) 468-470.)
    """
    return 1 / (24 * m ** 2) - 7 / (960 * m ** 4), 1 / (24 * m ** 2)


def harmonic_tail(family: BoundFamily, n0: int, cfg: PrecisionConfig = DEFAULT_CONFIG,
                  constant: Fraction = CORRECTED_HARMONIC_CONSTANT):
    """(target, lower, upper) such that lower <= target <= upper is the
    harmonic bound for every n > n0 at once.

    With m = n + 1/2, subtracting ln m + 1/(24(m+s)^2) + gamma (s as in
    _HARMONIC_S) from H_n and from both sides leaves R(n) = D -
    1/(24(m+s)^2) between c_lo - gamma and c_hi - gamma, where D is as in
    _harmonic_defect.  So R(n) lies in (e(m) - 7/(960m^4), e(m)) with
    e(m) = 1/(24m^2) - 1/(24(m+s)^2):
      s = 0: e = 0 and the lower end increases in m;
      s = 1: e decreases in m, and e(m) > 7/(960m^4) for m >= 1, since
             (2m+1) 40 m^2 > 7 (m+1)^2.
    So at m0 = n0 + 3/2 the target [min(0, e - 7/(960m^4)), max(0, e)]
    encloses R(n) for every n > n0.  Its float radius is rounded up.
    """
    c_lo, c_hi, gamma_c = _harmonic_constants(family, constant, cfg)
    with mp.workdps(cfg.dps):
        m = mp.mpf(n0) + mp.mpf(3) / 2
        d_lo, d_hi = _harmonic_defect(m)
        e = d_hi - 1 / (24 * (m + _HARMONIC_S[family.id]) ** 2)
        a, b = min(0, e + d_lo - d_hi), max(0, e)
        target = SpecialValue((a + b) / 2, math.nextafter(float((b - a) / 2), math.inf))
        return target, c_lo - gamma_c, c_hi - gamma_c


def factorial_bound_log(family: BoundFamily, n: int, cfg: PrecisionConfig = DEFAULT_CONFIG):
    """(ln lower, ln upper) for a factorial family at integer n >= 1."""
    if family.id not in (
        FamilyId.FACTORIAL_LOW,
        FamilyId.FACTORIAL_HIGH,
        FamilyId.FACTORIAL_AS_PRINTED,
    ):
        raise ParameterError(f"{family.id.value} is not a factorial family")
    if not (isinstance(n, int) and n >= 1):
        raise DomainError(f"n must be a positive integer, got {n!r}")
    return _bound_log(family, n, cfg)


def eval_factorial_bound(
    family: BoundFamily, n: int, cfg: PrecisionConfig = DEFAULT_CONFIG
) -> BoundPair:
    """Bracket of n! as floats (inf from n = 171 on; factorial_bound_log stays
    finite); FactorialAsPrinted pairs the printed (3.13) lower with the
    printed (3.12) upper, both of which fail at n = 1."""
    lo, hi = factorial_bound_log(family, n, cfg)
    with mp.workdps(cfg.dps):
        return BoundPair(float(mp.exp(lo)), float(mp.exp(hi)), family, float(n))


def bernoulli_fraction_bound(family: BoundFamily, x, cfg: PrecisionConfig = DEFAULT_CONFIG):
    """(lower, upper) of x/(e^x - 1) at working precision.

    BernoulliFraction: e^{-x/2} - x^2/(24 e^{x/2}) <= x/(e^x-1)
                                 <= e^{-x/2} - x^2/(24 e^{3x/2})
    BernoulliClassic:  e^{-x} < x/(e^x-1) < e^{-x/2}
    """
    if family.id not in (FamilyId.BERNOULLI_FRACTION, FamilyId.BERNOULLI_CLASSIC):
        raise ParameterError(f"{family.id.value} is not a Bernoulli-fraction family")
    require_positive("x", x)
    with mp.workdps(cfg.dps):
        xm = mp.mpf(x)
        if family.id is FamilyId.BERNOULLI_CLASSIC:
            return mp.exp(-xm), mp.exp(-xm / 2)
        lo = mp.exp(-xm / 2) - xm ** 2 / (24 * mp.exp(xm / 2))
        hi = mp.exp(-xm / 2) - xm ** 2 / (24 * mp.exp(3 * xm / 2))
        return lo, hi


def eval_bernoulli_fraction_bound(
    x,
    family: BoundFamily = BoundFamily(FamilyId.BERNOULLI_FRACTION),
    cfg: PrecisionConfig = DEFAULT_CONFIG,
) -> BoundPair:
    """Bracket of x/(e^x - 1); see bernoulli_fraction_bound."""
    lo, hi = bernoulli_fraction_bound(family, x, cfg)
    return BoundPair(float(lo), float(hi), family, float(x))


@dataclass(frozen=True)
class PairOrdering:
    """Head-to-head tightness of two gamma families at one x."""

    family_a: BoundFamily
    family_b: BoundFamily
    better_lower: str  # "a" | "b" | "indeterminate" (larger lower bound wins)
    better_upper: str  # "a" | "b" | "indeterminate" (smaller upper bound wins)


@dataclass(frozen=True)
class FamilyComparison:
    x: float
    orderings: tuple


_COMPARE_SET = (
    BoundFamily(FamilyId.BUKAC_GAMMA),
    BoundFamily(FamilyId.SEVLI_BATIR_GAMMA),
    BoundFamily(FamilyId.QI_GAMMA_LOW),
    BoundFamily(FamilyId.QI_GAMMA_HIGH),
)


def compare_families(x, cfg: PrecisionConfig = DEFAULT_CONFIG) -> FamilyComparison:
    """Pairwise tightness report for the gamma-target families at x.

    Comparisons are interval-safe: a winner is declared only when the gap
    exceeds the evaluation-error allowance, else "indeterminate".
    """
    require_positive("x", x)
    logs = {f: gamma_bound_log(f, x, cfg) for f in _COMPARE_SET}
    orderings = []
    with mp.workdps(cfg.dps):
        tol = specfun._constants(cfg).eps
        for fa, fb in itertools.combinations(_COMPARE_SET, 2):
            (lo_a, hi_a), (lo_b, hi_b) = logs[fa], logs[fb]
            orderings.append(PairOrdering(fa, fb, _winner(lo_a, lo_b, tol), _winner(-hi_a, -hi_b, tol)))
    return FamilyComparison(x=float(x), orderings=tuple(orderings))


def _winner(a, b, tol) -> str:
    """"a" or "b", whichever exceeds the other by more than tol, else "indeterminate"."""
    return "a" if a > b + tol else "b" if b > a + tol else "indeterminate"
