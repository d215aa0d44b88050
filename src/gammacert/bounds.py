"""Closed-form two-sided bound families for Gamma(x+1), harmonic numbers,
factorials and the Bernoulli-type fraction x/(e^x - 1).

The Qi-type gamma bounds (Eq. (3.1) = QiGammaLow = SevliBatirGamma, Eq. (3.2)
= QiGammaHigh, QiGammaGeneric) and the corrected factorial Eqs. (3.12), (3.13)
(constants forced by equality at n = 1) are rows (lambda, c_lo, c_hi) over
H_lambda: c_lo <= H_lambda <= c_hi.  The printed factorial sides, which
the harness falsifies, are rows of the same shape, F_0(n) + 1/(d (n+lambda))
against a constant (see _row_shape).  A gamma or factorial bound is p(x)
+ g(x), g and every constant an integer interval of specfun's layer, the
mpf bounds their midpoints; sec1-comparison compares the g of BukacGamma
and Eq. (3.1).
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
    DomainError,
    ParameterError,
    PrecisionConfig,
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


def _H_end(lam, x0, w: int):
    """The interval at 2^-w of H_lambda(x0) = 1/(24 (x0+lambda)) - p(x0): 0 at
    x0 = inf, 1/(24 lambda) + 1/2 - ln(pi)/2 at 0+ (None for lambda = 0), and
    1/(24 (1+lambda)) - (ln 2 + ln pi)/2 - (3/2)(ln(3/2) - 1) at 1, whose
    terms are about 1500 times its size at lambda = 1/2 (specfun._logs)."""
    if x0 == math.inf or x0 + lam == 0:
        return (0, 0) if x0 == math.inf else None
    logs, half, a = specfun._logs(w), Fraction(1, 2), Fraction(1, 24) / (x0 + Fraction(lam))
    if x0 == 0:
        return specfun._linear(a + half, [(-half, logs.ln_pi)], w)
    return specfun._linear(a + 3 * half, [(-half, logs.ln2), (-half, logs.ln_pi), (-3 * half, logs.ln3_2)], w)


@functools.lru_cache(maxsize=16)
def _row(family: BoundFamily, cfg: PrecisionConfig) -> tuple:
    """(lambda, c_lo, c_hi) of a row family, once per family and precision:
    lambda as (man, exp) from specfun._man_exp, each c _H_end at the scale
    wl of specfun._constants(cfg)."""
    lam, *x0s = _ROWS[family.id]
    lam, consts = family.lam if lam is None else lam, specfun._constants(cfg)
    return (specfun._man_exp(lam, consts.prec), *(_H_end(lam, x0, consts.wl) for x0 in x0s))


_BUILT_ROW = _row  # the row constants as built here, whatever a caller puts in their place


def _row_ties(row, cfg: PrecisionConfig) -> tuple:
    """(x0 of c_lo, x0 of c_hi) of a row of _row_shape: x0 = 1 (an mpf) where
    that side's c is _BUILT_ROW's H_lambda(1), so it holds with equality at
    x = 1 (corrected Eqs. (3.12), (3.13)); else None (strict)."""
    if not isinstance(row, FamilyId):
        return None, None
    cs, built = _row(BoundFamily(row), cfg)[1:], _BUILT_ROW(BoundFamily(row), cfg)[1:]
    return tuple(mp.one if x0 == 1 and c == b else None for x0, c, b in zip(_ROWS[row][1:], cs, built))


def _row_shape(row, cfg: PrecisionConfig) -> tuple:
    """(d, lambda, c_lo, c_hi), at cfg's precision, of the one shape every
    row takes, c_lo <= F_0(x) + 1/(d (x+lambda)) <= c_hi, F_0(x) = ln
    Gamma(x+1) - p(x), lambda = man 2^exp as (man, exp), each c an interval
    at the scale 2^-wl of specfun._constants(cfg), None where that side is
    missing.  A row family of fixed lambda, named by its FamilyId, is (24,
    *_row).  "upper" and "lower" name the printed Eq. (3.12) upper and Eq.
    (3.13) lower sides,

        ln n! <= p(n) + (K' - 1/(3 (n+1/2)))/24,  ln n! >= p(n) + (K' + 1/(5 (n+3/2)))/24,

    with p(n) and the n-dependent term moved left, K = K'/24 = (3 - ln pi +
    ln(4/27))/2: F_0(n) + 1/(72 (n+1/2)) <= K <= F_0(n) - 1/(120 (n+3/2))."""
    if isinstance(row, FamilyId):
        return (24, *_row(BoundFamily(row), cfg))
    w = specfun._constants(cfg).wl
    logs, half = specfun._logs(w), Fraction(1, 2)
    k = specfun._linear(3 * half, [(-half, logs.ln_pi), (half, logs.ln4_27)], w)
    return (72, (1, -1), None, k) if row == "upper" else (-120, (3, -1), k, None)


def _sqrt_pair(n: int, w: int) -> tuple:
    """floor and ceil of sqrt(n) 2^w, for an integer n >= 0."""
    r = math.isqrt(n << 2 * w)
    return r, r + (r * r != n << 2 * w)


def _bound_g(family: BoundFamily, x, cfg: PrecisionConfig) -> tuple:
    """(g_lo, g_hi), the intervals at the scale 2^-wl of specfun._constants(cfg)
    of g = ln bound - p(x), None for an infinite side: c - 1/(d (x+lambda))
    for a row family (d = 24) and the printed factorial family (the "lower"
    and "upper" rows of _row_shape).  BukacGamma's are -1/(24 x) and -1/(24
    (S - 1/2)), S = sqrt(x^2 + 3x + 5/2) = sqrt(Q)/(2 den) for x = num/den,
    Q = 2 (2 num^2 + 6 num den + 5 den^2); g increases in S, so the floor
    and ceiling of sqrt(Q) 2^w (_sqrt_pair) give g's ends."""
    w = specfun._constants(cfg).wl
    xq = Fraction(*specfun._ratio(x))
    if family.id is FamilyId.BUKAC_GAMMA:
        num, den = xq.numerator, xq.denominator
        s_lo, s_hi = _sqrt_pair(2 * (2 * num * num + 6 * num * den + 5 * den * den), w)
        top = -den << 2 * w  # g 2^w = top/(12 (s - den 2^w)) at s = sqrt(Q) 2^w
        return (specfun._fixed_end(-1 / (24 * xq), w),
                (top // (12 * (s_lo - (den << w))), specfun._cdiv(top, 12 * (s_hi - (den << w)))))
    if family.id is FamilyId.FACTORIAL_AS_PRINTED:
        lower, upper = _row_shape("lower", cfg), _row_shape("upper", cfg)
    else:
        lower = upper = (24, *_row(family, cfg))
    return tuple(None if c is None else specfun._linear(-1 / (d * (xq + lam[0] * Fraction(2) ** lam[1])),
                                                        [(1, c)], w)
                 for d, lam, c in (lower[:3], (*upper[:2], upper[3])))


def _bound_log(family: BoundFamily, x, cfg: PrecisionConfig):
    """(ln lower, ln upper) at cfg.dps: p(x) of specfun._stirling_p, at x
    as specfun._split gives it, plus the midpoint of each g of _bound_g,
    rounded once; -inf or +inf for an infinite side."""
    consts = specfun._constants(cfg)
    a, s = specfun._split(x, consts.prec)
    wp = max(consts.wl, -s)
    (p, _), sh = specfun._stirling_p(a, s, wp, consts.wl), wp - consts.wl
    with mp.workdps(cfg.dps):
        return tuple(inf if g is None else specfun._fixed_mpf((p + (g[0] << sh), p + (g[1] << sh)), wp)
                     for g, inf in zip(_bound_g(family, x, cfg), (mp.ninf, mp.inf)))


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


# (s, r) of each family: s of the n-dependent part ln m + 1/(24 (m+s)^2), m =
# n + 1/2, of both sides, and r of the side 1 - ln(3/2) - r; None: r = C
_HARMONIC = {FamilyId.HARMONIC_LOW: (0, Fraction(1, 54)), FamilyId.HARMONIC_HIGH: (1, None)}


def _harmonic_sides(family: BoundFamily, n: int, constant: Fraction, w: int) -> tuple:
    """(lower, upper), the intervals at 2^-w of the n-th harmonic bound: side
    s, the constant's, 1 - r + 1/(24 (m+s)^2) + ln(m/(3/2)), its log exactly
    0 at n = 1, where r = 1/54 and the corrected C make it exactly 1 = H_1;
    the other ln m + 1/(24 (m+s)^2) + gamma."""
    s, r = _HARMONIC[family.id]
    a, ln = Fraction(1, 24) / (Fraction(2 * n + 1, 2) + s) ** 2, specfun._ln_pair
    c_side = specfun._linear(1 - (constant if r is None else r) + a, [(1, ln(2 * n + 1, 3, w))], w)
    g_side = specfun._linear(a, [(1, ln(2 * n + 1, 2, w)), (1, specfun._logs(w).euler)], w)
    return (c_side, g_side) if s == 0 else (g_side, c_side)


def harmonic_bound(family: BoundFamily, n: int, cfg: PrecisionConfig = DEFAULT_CONFIG,
                   constant: Fraction = CORRECTED_HARMONIC_CONSTANT):
    """(lower, upper) of the n-th harmonic number at cfg.dps, the midpoints of
    the intervals of _harmonic_sides at the scale wl of specfun._constants:

    HarmonicLow:  ln(n+1/2) + 1/(24(n+1/2)^2) + [1 - ln(3/2) - 1/54, gamma]
    HarmonicHigh: ln(n+1/2) + 1/(24(n+3/2)^2) + [gamma, 1 - ln(3/2) - C]

    C defaults to the corrected 1/150; pass constant=PRINTED_HARMONIC_CONSTANT
    to reproduce (and falsify) the printed 1/90.  At n = 1 the side of 1/54
    or of the corrected C is exactly 1.
    """
    if family.id not in _HARMONIC:
        raise ParameterError(f"{family.id.value} is not a harmonic family")
    if not (isinstance(n, int) and n >= 1):
        raise DomainError(f"n must be a positive integer, got {n!r}")
    w = specfun._constants(cfg).wl
    with mp.workdps(cfg.dps):
        return tuple(specfun._fixed_mpf(side, w) for side in _harmonic_sides(family, n, constant, w))


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
    harmonic bound for every n > n0 at once: target a pair of Fractions,
    lower and upper integer intervals at 2^-wl of specfun._constants(cfg).

    With m = n + 1/2, subtracting ln m + 1/(24(m+s)^2) + gamma (s as in
    _HARMONIC) from H_n and from both sides leaves R(n) = D -
    1/(24(m+s)^2) between c_lo - gamma and c_hi - gamma, where D is as in
    _harmonic_defect.  So R(n) lies in (e(m) - 7/(960m^4), e(m)) with
    e(m) = 1/(24m^2) - 1/(24(m+s)^2):
      s = 0: e = 0 and the lower end increases in m;
      s = 1: e decreases in m, and e(m) > 7/(960m^4) for m >= 1, since
             (2m+1) 40 m^2 > 7 (m+1)^2.
    So at m0 = n0 + 3/2 the target is the exact [a, b], a = min(0, e -
    7/(960m^4)) and b = max(0, e).  The constant's side is c - gamma = 1 -
    ln(3/2) - r - gamma; the other, gamma - gamma, is exactly [0, 0].
    """
    (s, r), w, m = _HARMONIC[family.id], specfun._constants(cfg).wl, Fraction(2 * n0 + 3, 2)
    d_lo, d_hi = _harmonic_defect(m)
    e = d_hi - Fraction(1, 24) / (m + s) ** 2
    logs = specfun._logs(w)
    c = specfun._linear(1 - (constant if r is None else r), [(-1, logs.ln3_2), (-1, logs.euler)], w)
    return (min(0, e + d_lo - d_hi), max(0, e)), *((c, (0, 0)) if s == 0 else ((0, 0), c))


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
    """Pairwise tightness report for the gamma-target families at x, on the
    intervals g of _bound_g, as p(x) cancels: a winner is declared only
    where they are disjoint, else "indeterminate"."""
    require_positive("x", x)
    gs = {f: _bound_g(f, x, cfg) for f in _COMPARE_SET}
    orderings = []
    for fa, fb in itertools.combinations(_COMPARE_SET, 2):
        (lo_a, hi_a), (lo_b, hi_b) = gs[fa], gs[fb]
        # the smaller upper bound wins: compare -hi_a with -hi_b
        upper = _winner((-hi_a[1], -hi_a[0]), (-hi_b[1], -hi_b[0]))
        orderings.append(PairOrdering(fa, fb, _winner(lo_a, lo_b), upper))
    return FamilyComparison(x=float(x), orderings=tuple(orderings))


def _winner(a: tuple, b: tuple) -> str:
    """"a" or "b", whichever interval lies wholly above the other, else "indeterminate"."""
    return "a" if a[0] > b[1] else "b" if b[0] > a[1] else "indeterminate"
