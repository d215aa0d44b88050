"""Reference evaluation of gamma-related special functions.

psi and the polygammas (orders m >= 0) are computed by recurrence-shifting
the argument upward and applying the Stirling-type asymptotic series; on
the positive real axis the truncation error of these series is bounded by
the first omitted term, which is folded into the returned error bound.  One
call of the series routine serves a range of orders from a single shift
(cm_check takes psi^(0..5) at each grid point that way), and the series
coefficients are cached per order and precision on first use.  The kept
terms are summed by Horner's rule in fixed-point integers with 20 bits
beyond the working precision, and rounded once; the bound of that sum's
truncation is added to the remainder (see _stirling_series).  An order
whose error bound would exceed the float range (psi^(m)(x) ~ m!/x^(m+1) at
tiny x) raises DomainError.
ln Gamma has one route: F_0(x) = ln Gamma(x+1) - p(x), the lambda-free part
of H_lambda, has its own kernel, _stirling_defect_fixed, which shifts x + 1
upward the same way and sums u ln(z/u) - ln(prod/z^n) - (n + 1/2) + S(z)
in fixed point, so ln sqrt(2 pi) and the x ln x terms cancel before
anything is rounded and the error bound, stated there as a lemma, does not
grow with x.  It returns the unrounded integer F_0 2^wp, in which the
harness's Thm 3.1/3.4 row pass decides every row; _stirling_defect, which
every H_lambda reads, is that integer rounded once into an mpf.  ln_gamma
adds p(x) - ln x to it (p formed once, in _stirling_log) and binet_theta
adds (x+1/2) ln(1 + 1/(2x)) - 1/2, each with the rounding rule below on
the magnitudes of the terms it adds.
The constants every call needs (ln sqrt(2 pi), the series target and the
rounding allowance 10^(2-dps), which monotone, bounds and harness use too) are
computed once per precision.  Mathieu's partial sums are formed in fixed
point too, each term floored and the tail bound rounded up, so their error
is counted, not allowed for.

mpmath supplies the arbitrary-precision arithmetic and the Bernoulli
numbers; the special-function algorithms themselves live here so their
error bounds are explicit.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

from mpmath import libmp, mp

from .config import (
    DEFAULT_CONFIG,
    DomainError,
    PrecisionConfig,
    SpecialValue,
    require_positive,
)

__all__ = [
    "ln_gamma",
    "binet_theta",
    "digamma",
    "polygamma",
    "harmonic_exact",
    "mathieu_partial",
    "euler_gamma",
]


def _shift_threshold(digits: int) -> float:
    # The Stirling series at argument z bottoms out near exp(-2*pi*z); keep
    # that floor a few digits below the requested target.
    return max(10.0, 0.367 * (digits + 8))


class _Constants(NamedTuple):
    """The constants of one precision; see _constants."""

    ln_sqrt_2pi: object  # mpf
    eps: object  # mpf 10^(2-dps), the relative allowance for rounding
    target: object  # mpf 10^-(working_digits+6), the Stirling series target
    log_target: float  # its natural log


@functools.lru_cache(maxsize=8)
def _constants(cfg: PrecisionConfig) -> _Constants:
    """ln sqrt(2 pi), 10^(2-dps) and the series target at cfg.dps, computed once
    per precision."""
    with mp.workdps(cfg.dps):
        return _Constants(mp.log(2 * mp.pi) / 2, mp.mpf(10) ** (2 - cfg.dps),
                          mp.mpf(10) ** (-(cfg.working_digits + 6)),
                          -(cfg.working_digits + 6) * math.log(10))


_HALF = mp.mpf(1) / 2  # exact at every precision

# bits below 2^-prec kept by the fixed-point sum of _stirling_series
_FIXED_GUARD_BITS = 20

# (m, mp.prec) -> [(c_k, ln|c_k|, C_k, |c_k|) for k = 1, 2, ...], c_k = B_2k
# (2k+m-1)!/(2k)! rounded at that precision, C_k the integer nearest c_k 2^wp,
# wp = prec + _FIXED_GUARD_BITS, and |c_k| as a float; filled on first use and
# extended as longer series need it
_STIRLING_COEFFS: dict = {}


def _stirling_coeffs(m: int, n: int) -> list:
    """At least n Stirling coefficients of order m at the current precision."""
    table = _STIRLING_COEFFS.setdefault((m, mp.prec), [])
    wp = mp.prec + _FIXED_GUARD_BITS
    for k in range(len(table) + 1, n + 1):
        # (2k+m-1)!/(2k)! is kept as an exact integer ratio
        if m >= 1:
            num, den = math.perm(2 * k + m - 1, m - 1), 1
        else:
            num, den = 1, math.perm(2 * k, 1 - m)
        c = mp.bernoulli(2 * k) * num / den
        p, q = mp.bernfrac(2 * k)
        top, bottom = p * num << wp, q * den
        table.append((c, float(mp.log(abs(c))), (2 * top + bottom) // (2 * bottom), float(abs(c))))
    return table


def _series_terms(m: int, lz: float, log_target: float) -> tuple:
    """(coeffs, k) of the Stirling series of order m at z = e^lz: the terms
    c_j w^j zm of _stirling_series are taken while they decrease and stay
    above e^log_target, judged on float log-magnitudes; term k is the first
    omitted one and coeffs holds at least k coefficients."""
    coeffs = _stirling_coeffs(m, 2)
    prev = coeffs[0][1] - (2 + m) * lz  # ln |term 1|
    k = 2
    while True:
        if k > len(coeffs):
            coeffs = _stirling_coeffs(m, 2 * k)
        cur = coeffs[k - 1][1] - (2 * k + m) * lz
        if cur < log_target or cur >= prev or k > 300:
            return coeffs, k  # term k is the first omitted one
        prev = cur
        k += 1


def _horner_slack(coeffs: list, k: int) -> float:
    """2 + |c_2| k^2: the units of 2^-wp, times w zm, that bound the error of
    the fixed-point sum of _stirling_series."""
    return 2 + coeffs[1][3] * k * k


def _stirling_series(m: int, z, consts: _Constants):
    """Stirling series of psi^(m), m >= 0, at large z without its overall
    sign (-1)^(m+1), as in _psi; returns (sum, remainder bound).

    The terms c_j w^j zm, w = 1/z^2, zm = z^-m, are kept as
    _series_terms decides; term k is the first omitted one.  The kept part
    S = sum_{j<k} c_j w^(j-1) is summed by Horner's rule in fixed point at
    wp = prec + _FIXED_GUARD_BITS bits, on the integers C_j (c_j 2^wp
    rounded, error <= 1/2) and W = floor(2^wp w) (error < 1):

        A_(k-1) = C_(k-1),  A_j = floor(A_(j+1) W / 2^wp) + C_j,

    and S ~ A_1 2^-wp is rounded into one mpf, then times w zm.  Step j
    adds at most 1/2 + 1 + |a_(j+1)| units of 2^-wp, where a_(j+1) =
    sum_{i>j} c_i w^(i-j-1) is the exact partial sum whose product with W
    is floored, and it is damped by w^(j-1) on the way to A_1.  Since z >= 10
    (w <= 1/100) and the kept terms decrease, |c_i| w^(i-2) <= |c_2| for i >= 2, so

        |A_1 2^-wp - S| <= 2^-wp (1.52 + |c_2| (k-1)(k-2)/2),

    and 2^-wp (2 + |c_2| k^2) w zm (_horner_slack), which also absorbs the
    float judgement of the decrease, is added to the first omitted term
    |c_k| w^k zm in the returned bound.  The remaining mpf roundings are
    relative and are covered by _psi's slack.
    """
    zinv = 1 / z
    if m == 0:
        log_z = mp.log(z)
        s = zinv / 2 - log_z
        zm = mp.mpf(1)
    else:
        log_z = math.log(z)
        zm = zinv ** m
        s = zm * (math.factorial(m - 1) + math.factorial(m) * zinv / 2)
    coeffs, k = _series_terms(m, float(log_z), consts.log_target)
    wp = mp.prec + _FIXED_GUARD_BITS
    w = zinv * zinv
    wzm = w * zm
    s += mp.mpf((_fixed_horner(coeffs, k, z.man_exp, wp), -wp)) * wzm
    fixed = mp.ldexp(wzm * _horner_slack(coeffs, k), -wp)
    return s, abs(coeffs[k - 1][0]) * w ** k * zm + fixed


def _fixed_horner(coeffs: list, k: int, man_exp: tuple, wp: int) -> int:
    """A_1 of _stirling_series: the integers C_1..C_(k-1) of coeffs summed by
    Horner's rule in powers of W = floor(2^wp / z^2), each product floored
    to wp fractional bits, for z = man 2^e > 0 given as man_exp = (man, e)."""
    man, e = man_exp
    shift = wp - 2 * e
    big_w = (1 << shift) // (man * man) if shift >= 0 else 0  # 0 when z^2 > 2^wp
    acc = coeffs[k - 2][2]
    for _, _, c, _ in reversed(coeffs[:k - 2]):
        acc = (acc * big_w >> wp) + c
    return acc


def _shift(xf: float, thr: float, target, series) -> tuple:
    """(n, series(n)) for the upward shift of an argument xf (a float): n =
    ceil(thr - xf) steps when xf < thr, else 0.  series(n) returns a list of
    (value, remainder bound); while some remainder misses the target, the
    threshold doubles, at most three times."""
    n = 0
    for _ in range(4):
        if xf < thr:
            n = max(n, math.ceil(thr - xf))
        out = series(n)
        if all(rem <= target for _, rem in out):
            break
        thr *= 2
    return n, out


def _psi(mlo: int, mhi: int, x, cfg: PrecisionConfig) -> list:
    """[psi^(m)(x) for m = mlo..mhi] for finite x > 0 and 0 <= mlo <= mhi.

    All orders share one upward shift to z = x + n by the recurrence

        psi^(m)(x) = psi^(m)(z) + (-1)^(m+1) m! sum_j (x+j)^(-m-1),

    with n set by the shift threshold of the highest order, and psi^(m)(z)
    is summed from its Stirling series

        (-1)^(m+1) [lead_m(z) + sum_k B_2k (2k+m-1)! / ((2k)! z^(2k+m))],

    stopping when the next term drops below the target or starts growing;
    on the positive axis that first omitted term bounds the remainder.  If
    some order's series misses the target, the shift goes on to a doubled
    threshold.  The coefficients B_2k (2k+m-1)!/(2k)! are cached per order
    and precision on first use, and the kept terms are summed by Horner's
    rule in 1/z^2, in fixed point (see _stirling_series).  An error bound
    past the float range raises DomainError naming the order and x.
    The series target and 10^(2-dps) come from _constants, once per
    precision.
    """
    require_positive("x", x)
    orders = range(mlo, mhi + 1)
    with mp.workdps(cfg.dps):
        consts = _constants(cfg)
        xm = mp.mpf(x)
        thr = _shift_threshold(cfg.working_digits) + mhi
        n, series = _shift(float(xm), thr, consts.target,
                           lambda n: [_stirling_series(m, xm + n, consts) for m in orders])
        shifts = [mp.mpf(0)] * len(orders)
        for j in range(n):
            r = 1 / (xm + j)
            p = r ** (mlo + 1)
            for i in range(len(orders)):
                shifts[i] += p  # (x+j)^-(m+1)
                p *= r
        out = []
        for m, (s, rem), shift in zip(orders, series, shifts):
            fact = math.factorial(m)
            scaled = shift if fact == 1 else fact * shift  # m! shift
            total = s + scaled
            val = total if m % 2 else -total  # (-1)^(m+1) (s + m! shift)
            # rounding slack for the shift sums and elementary calls
            slack = (abs(val) + abs(scaled) + fact) * consts.eps
            err = float(rem + slack)
            if err == math.inf:  # psi^(m)(x) ~ m!/x^(m+1) for tiny x
                raise DomainError(f"the error bound of psi^({m}) (order {m}) at x={x!r} "
                                  "exceeds the float range; x is too small")
            out.append(SpecialValue(val, err))
        return out


def digamma(x, cfg: PrecisionConfig = DEFAULT_CONFIG) -> SpecialValue:
    """psi(x) = Gamma'(x)/Gamma(x) for finite x > 0."""
    return _psi(0, 0, x, cfg)[0]


def polygamma(m: int, x, cfg: PrecisionConfig = DEFAULT_CONFIG) -> SpecialValue:
    """psi^(m)(x) for m >= 1, finite x > 0; (-1)^(m+1) psi^(m) > 0."""
    if not (isinstance(m, int) and m >= 1):
        raise DomainError(f"m must be a positive integer, got {m!r}")
    return _psi(m, m, x, cfg)[0]


def _floor_mul(a: int, f, shift: int) -> int:
    """floor(a f 2^shift) for an integer a and a raw mpf f = (sign, man, exp, bc)."""
    sign, man, exp, _ = f
    t, exp = (-a * man if sign else a * man), exp + shift
    return t << exp if exp >= 0 else t >> -exp


def _stirling_defect_fixed(x, cfg: PrecisionConfig = DEFAULT_CONFIG) -> tuple:
    """(F, wp, err) with F 2^-wp = F_0(x) = ln Gamma(x+1) - p(x) for finite
    x > 0, where p(x) = ln sqrt(2 pi) + (x+1/2)(ln(x+1/2) - 1), to within
    err, a float: F is the integer the kernel sums, not rounded.

    With u = x + 1/2 and z = x + 1 + n, n the upward shift of x + 1 that
    _shift picks, ln Gamma(x+1) = ln Gamma(z) - ln prod_{j=1..n} (x+j) and
    Stirling's series at z give

        F_0(x) = u ln(z/u) - ln(prod_{j=1..n} (x+j) / z^n) - (n + 1/2) + S(z),
        S(z)   = sum_k B_2k / (2k (2k-1) z^(2k-1)),

    in which ln sqrt(2 pi) cancels exactly and no term of size x ln x is
    formed.  x = man 2^e is taken apart as a 2^s, s = min(e, 0), so x + j,
    u and z are exact integers times powers of two, and the four terms are
    summed in fixed point at wp = max(wl, -e) bits, wl = prec +
    _FIXED_GUARD_BITS, a scale at which x itself is exact.  ln(z/u) is taken
    as ln(1 + q), q = (n + 1/2)/u, whose error relative to its size keeps
    u ln(z/u) accurate for every x; the ratio prod/z^n lies in
    (e^-(n+1), 1].  S(z) keeps the terms that _series_terms picks and is
    summed by _fixed_horner at wl bits.

    Error lemma.  Assume that mpmath's log is within 1 ulp of the exact
    value at the precision requested, wl bits; its divisions round to
    nearest, within half an ulp.  Then
      - each of the three floors (of u ln(z/u), of the log of the ratio and
        of S(z), each times 2^wp) is off by less than 1 unit of 2^-wp;
      - u ln(z/u) is off by at most (n + 1/2)(2^-wl + 2^(1-wl)) <= (3n+2) 2^-wl,
        from the rounding of q and of the log, as u ln(1+q) <= n + 1/2;
      - the log of the ratio, of size below n + 1, is off by at most
        (2n + 4) 2^-wl, from the division and the log;
      - S(z) is off by at most its first omitted term |c_k| z^(1-2k) plus
        2^-wl (2 + |c_2| k^2)/z, the bound of _stirling_series's fixed-point
        sum (_horner_slack).
    err is the sum of these terms.  The counts 3n + 2 and
    2n + 4 exceed the roundings they cover by at least 1.4 units of 2^-wl,
    which covers the float arithmetic of the bound itself, off by at most
    (6k + 8) 2^-53 of it while the series meets its target.
    """
    with mp.workdps(cfg.dps):
        consts = _constants(cfg)
        sign, man, e, _ = mp.mpf(x)._mpf_
        if sign or not man:  # x <= 0, or not finite
            require_positive("x", x)
        s = min(e, 0)
        a, step = man << (e - s), 1 << -s  # x + j = (a + j step) 2^s
        wl = mp.prec + _FIXED_GUARD_BITS
        wp = max(wl, -e)
        xf = float(x) + 1

        def series(n):
            zf, zi = xf + n, a + (n + 1) * step  # z = zi 2^s
            coeffs, k = _series_terms(-1, math.log(zf), consts.log_target)
            big_s = (_fixed_horner(coeffs, k, (zi, s), wl) << (wp - wl - s)) // zi  # S(z) 2^wp
            rem = (coeffs[k - 1][3] * zf ** (1 - 2 * k)
                   + math.ldexp(_horner_slack(coeffs, k), -wl) / zf)
            return [(big_s, rem)]

        n, [(big_s, rem)] = _shift(xf, _shift_threshold(cfg.working_digits), consts.target, series)
        ui = 2 * a + step  # u = ui 2^(s-1)
        q = libmp.mpf_div(libmp.from_int(2 * n + 1), libmp.from_man_exp(ui, s), wl, "n")
        fixed = _floor_mul(ui, libmp.mpf_log(libmp.mpf_add(q, libmp.fone), wl, "n"), s - 1 + wp)
        fixed += big_s - ((2 * n + 1) << (wp - 1))
        if n:
            zi = a + (n + 1) * step
            prod = math.prod(range(a + step, zi, step))
            ratio = libmp.mpf_div(libmp.from_int(prod), libmp.from_int(zi ** n), wl, "n")
            fixed -= _floor_mul(1, libmp.mpf_log(ratio, wl, "n"), wp)
        return fixed, wp, math.ldexp(3, -wp) + math.ldexp(5 * n + 6, -wl) + rem


def _stirling_defect(x, cfg: PrecisionConfig = DEFAULT_CONFIG) -> SpecialValue:
    """F_0(x) of _stirling_defect_fixed rounded once into an mpf of prec
    bits at cfg.dps, which moves it by at most 2^-prec of its size; that is
    added to the kernel's bound."""
    fixed, wp, err = _stirling_defect_fixed(x, cfg)
    with mp.workdps(cfg.dps):
        val = mp.mpf((fixed, -wp))
        return SpecialValue(val, err + math.ldexp(abs(float(val)), -mp.prec))


def _stirling_log(xm, cfg: PrecisionConfig) -> tuple:
    """(p(x), size) at cfg.dps, the caller's precision: p(x) = ln sqrt(2 pi) +
    (x+1/2) (ln(x+1/2) - 1), the log of Stirling's sqrt(2 pi) ((x+1/2)/e)^(x+1/2),
    which ln_gamma and the displayed bound expressions add, and size, an
    mpf, the sum of the magnitudes of the terms p is formed from, so
    size 10^(2-dps) bounds its rounding (the rule of _constants)."""
    h = xm + _HALF
    ln_s, log_h = _constants(cfg).ln_sqrt_2pi, mp.log(h)
    return ln_s + h * (log_h - 1), ln_s + h * (abs(log_h) + 1)


def ln_gamma(x, cfg: PrecisionConfig = DEFAULT_CONFIG) -> SpecialValue:
    """ln Gamma(x) for finite x > 0 with a certified absolute error bound,
    read from the F_0 kernel (one _stirling_defect call) as

        ln Gamma(x) = ln Gamma(x+1) - ln x = F_0(x) + p(x) - ln x,

    p(x) from _stirling_log.  The bound is the kernel's plus the rounding of
    the sum, 10^(2-dps) (|F_0| + size of p + |ln x|), the rule of _constants."""
    with mp.workdps(cfg.dps):
        xm = mp.mpf(x)
        f0 = _stirling_defect(xm, cfg)
        p, size = _stirling_log(xm, cfg)
        log_x = mp.log(xm)
        err = (abs(f0.value) + size + abs(log_x)) * _constants(cfg).eps
        return SpecialValue(f0.value + p - log_x, f0.abs_error_bound + float(err))


def binet_theta(x, cfg: PrecisionConfig = DEFAULT_CONFIG) -> SpecialValue:
    """Binet remainder theta(x) = ln Gamma(x) - (x-1/2) ln x + x - ln sqrt(2 pi)
    for finite x > 0, read from the F_0 kernel (one _stirling_defect call) as

        theta(x) = F_0(x) + (x+1/2) ln(1 + 1/(2x)) - 1/2,

    in which ln sqrt(2 pi) and the x ln x terms cancel.  The bound is the
    kernel's plus the rounding of the sum, 10^(2-dps) (|F_0| +
    |(x+1/2) ln(1 + 1/(2x))| + 1/2), the rule of _constants.  It is an
    absolute bound: theta ~ 1/(12x) while the middle term stays near 1/2,
    so at 15 digits it is about 1.2e-7 of theta at x = 1e15."""
    with mp.workdps(cfg.dps):
        xm = mp.mpf(x)
        f0 = _stirling_defect(xm, cfg)
        b = (xm + _HALF) * mp.log1p(1 / (2 * xm))
        err = (abs(f0.value) + abs(b) + _HALF) * _constants(cfg).eps
        return SpecialValue(f0.value + b - _HALF, f0.abs_error_bound + float(err))


def harmonic_exact(n: int) -> Fraction:
    """Exact n-th harmonic number sum_{k=1}^n 1/k as a rational."""
    if not (isinstance(n, int) and n >= 1):
        raise DomainError(f"n must be a positive integer, got {n!r}")
    total = Fraction(0)
    for k in range(1, n + 1):
        total += Fraction(1, k)
    return total


def _mathieu_fixed(r, terms: int, wp: int) -> tuple:
    """(S, B): S 2^-wp the partial sum sum_{n<=terms} 2n/(n^2+r^2)^2, every
    term floored to wp fractional bits, and B 2^-wp its tail bound
    1/(terms^2+r^2) rounded up.  r = R 2^s exactly (s = min(exp, 0)), so
    n^2 + r^2 = (n^2 2^(-2s) + R^2) 2^(2s) is an exact integer times a power
    of two; S is low by less than `terms` units of 2^-wp, B high by less
    than one."""
    _, man, e, _ = mp.mpf(r)._mpf_
    s = min(e, 0)
    r2, shift = (man << (e - s)) ** 2, -2 * s  # r^2 = r2 2^-shift
    top = 1 << (wp + 2 * shift)
    total = sum((2 * n * top) // ((n * n << shift) + r2) ** 2 for n in range(1, terms + 1))
    return total, -((-1 << (wp + shift)) // ((terms * terms << shift) + r2))


def mathieu_partial(r, terms: int) -> SpecialValue:
    """Partial sum of Mathieu's series sum_{n>=1} 2n/(n^2+r^2)^2, formed in
    fixed point at prec + _FIXED_GUARD_BITS bits of DEFAULT_CONFIG.dps
    (_mathieu_fixed) and rounded once.

    The tail beyond N is below int_N^inf 2u/(u^2+r^2)^2 du = 1/(N^2+r^2).
    The error bound adds that tail, rounded up, the N floors of the terms
    and the exact rounding of the sum to an mpf, and is itself rounded up.
    """
    require_positive("r", r)
    if not (isinstance(terms, int) and terms >= 1):
        raise DomainError(f"terms must be a positive integer, got {terms!r}")
    with mp.workdps(DEFAULT_CONFIG.dps):
        wp = mp.prec + _FIXED_GUARD_BITS
        total, tail = _mathieu_fixed(r, terms, wp)
        val = mp.mpf((total, -wp))
        units = tail + terms + abs(_floor_mul(1, val._mpf_, wp) - total)
        return SpecialValue(val, math.nextafter(units / (1 << wp), math.inf))


def euler_gamma(cfg: PrecisionConfig = DEFAULT_CONFIG) -> SpecialValue:
    """Euler-Mascheroni constant produced as -psi(1), the shared provenance."""
    sv = digamma(1, cfg)
    with mp.workdps(cfg.dps):
        return SpecialValue(-sv.value, sv.abs_error_bound)
