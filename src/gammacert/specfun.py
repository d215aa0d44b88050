"""Reference evaluation of gamma-related special functions.

Everything rests on one kernel, _stirling_defect_fixed.  With p(x) = ln
sqrt(2 pi) + (x+1/2)(ln(x+1/2) - 1), it sums F_0(x) = ln Gamma(x+1) - p(x),
the lambda-free part of H_lambda, and its derivatives F_1..F_K in
fixed-point integers from one upward shift of x + 1 and Stirling's series
at the shifted argument, so ln sqrt(2 pi) and the x ln x terms cancel
before anything is rounded.  Its error bound, a lemma in its docstring, is
one unit per floor plus each series' first omitted term; it does not grow
with x, and F_k stays finite at tiny x, since its argument is x + 1.  The
series coefficients are cached per order and precision on first use, and
the kept terms are summed by Horner's rule (_fixed_horner) with 20 bits
beyond the working precision.  The harness's Thm 3.1/3.4 row pass and
monotone's cm_check decide their margins in the kernel's integers;
_stirling_defect rounds one F_k into an mpf.  The public functions add
what F_k leaves out: ln_gamma adds p(x) - ln x to F_0 (p formed once, in
_stirling_log), binet_theta adds (x+1/2) ln(1 + 1/(2x)) - 1/2, and
digamma and polygamma add the log term of F_(m+1) and the step from x + 1
to x, each with the rounding rule below on the magnitudes of the terms it
adds.  An order whose error bound would exceed the float range
(psi^(m)(x) ~ m!/x^(m+1) at tiny x) raises DomainError.
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

# bits below 2^-prec kept by the kernel's fixed-point sums
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
    c_j z^-(2j+m) are taken while they decrease and stay above e^log_target,
    judged on float log-magnitudes; term k is the first omitted one and
    coeffs holds at least k coefficients."""
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
    """2 + |c_2| k^2: the units of 2^-wp that bound the error of the sum of
    _fixed_horner."""
    return 2 + coeffs[1][3] * k * k


def _fixed_horner(coeffs: list, k: int, man_exp: tuple, wp: int) -> int:
    """A_1 ~ 2^wp S, S = sum_{j<k} c_j w^(j-1), w = 1/z^2, for z = man 2^e >= 10
    given as man_exp = (man, e) and coeffs, k from _series_terms.

    Horner's rule runs on the integers C_j of coeffs (c_j 2^wp rounded,
    error <= 1/2) and W = floor(2^wp w) (error < 1), each product floored:

        A_(k-1) = C_(k-1),  A_j = floor(A_(j+1) W / 2^wp) + C_j.

    Step j adds at most 1/2 + 1 + |a_(j+1)| units of 2^-wp, where a_(j+1) =
    sum_{i>j} c_i w^(i-j-1) is the exact partial sum whose product with W
    is floored, and it is damped by w^(j-1) on the way to A_1.  Since
    z >= 10 (w <= 1/100) and the kept terms decrease, |c_i| w^(i-2) <= |c_2|
    for i >= 2, so

        |A_1 2^-wp - S| <= 2^-wp (1.52 + |c_2| (k-1)(k-2)/2),

    below 2^-wp (2 + |c_2| k^2) (_horner_slack), which also absorbs the
    float judgement of the decrease."""
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


def _floor_mul(a: int, f, shift: int) -> int:
    """floor(a f 2^shift) for an integer a and a raw mpf f = (sign, man, exp, bc)."""
    sign, man, exp, _ = f
    t, exp = (-a * man if sign else a * man), exp + shift
    return t << exp if exp >= 0 else t >> -exp


def _stirling_defect_fixed(x, cfg: PrecisionConfig = DEFAULT_CONFIG, max_order: int = 0) -> tuple:
    """(Fs, wp, errs) for finite x > 0: Fs[k] 2^-wp = F_k(x), the k-th
    derivative of F_0(x) = ln Gamma(x+1) - p(x), to within errs[k], a float,
    for k = 0..max_order, where p(x) = ln sqrt(2 pi) + (x+1/2)(ln(x+1/2) - 1).
    Fs[k] is the integer the kernel sums, not rounded.

    With u = x + 1/2 and z = x + 1 + n, n the upward shift of x + 1 that
    _shift picks for all orders at once, ln Gamma(x+1) = ln Gamma(z) - ln
    prod_{j=1..n} (x+j), the recurrence psi^(m)(y) = psi^(m)(y+1) +
    (-1)^(m+1) m!/y^(m+1) and Stirling's series at z give

        F_0(x) = u ln(z/u) - ln(prod_{j=1..n} (x+j) / z^n) - (n + 1/2) + S_0(z),
        F_1(x) = ln(z/u) - 1/(2z) - S_1(z) - sum_{j=1..n} 1/(x+j),
        F_k(x) = (-1)^k [(k-2)!/z^(k-1) + (k-1)!/(2 z^k) + S_k(z)
                         + (k-1)! sum_{j=1..n} (x+j)^-k - (k-2)!/u^(k-1)],  k >= 2,

    S_k(z) = sum_i c_i z^-(2i+k-1), with c_i the coefficients of order
    k - 1 of _stirling_coeffs (B_2i/(2i(2i-1)) at k = 0, B_2i (2i+k-2)!/(2i)!
    above).  ln sqrt(2 pi) cancels exactly, no term of size x ln x is formed,
    and ln(z/u) is one log for every order.  x = man 2^e is taken apart as
    a 2^s, s = min(e, 0), so x + j, u and z are exact integers times powers
    of two, and the terms are summed in fixed point at wp = max(wl, -e)
    bits, wl = prec + _FIXED_GUARD_BITS, a scale at which x itself is exact.
    ln(z/u) is taken as ln(1 + q), q = (n + 1/2)/u, whose error relative to
    its size keeps u ln(z/u) accurate for every x; the ratio prod/z^n lies
    in (e^-(n+1), 1].  Each rational term is the floor of one exact integer
    quotient; S_k(z) keeps the terms that _series_terms picks for order
    k - 1, is summed by _fixed_horner at wl bits and divided by z^(k+1),
    one floor more.  The shift threshold grows by max_order - 1, so that
    the highest order's series meets its target too; max_order = 0 is F_0
    alone.

    Error lemma.  Assume that mpmath's log is within 1 ulp of the exact
    value at the precision requested, wl bits; its divisions round to
    nearest, within half an ulp.  Then
      - each floor is off by less than 1 unit of 2^-wp: three in F_0 (of
        u ln(z/u), of the log of the ratio and of S_0(z), each times 2^wp),
        at most n + 4 in F_k, k >= 1;
      - u ln(z/u) is off by at most (n + 1/2)(2^-wl + 2^(1-wl)) <= (3n+2) 2^-wl,
        from the rounding of q and of the log, as u ln(1+q) <= n + 1/2, so
        ln(z/u) in F_1 by at most 3q 2^-wl <= (6n + 3) 2^-wl, as u >= 1/2;
      - the log of the ratio, of size below n + 1, is off by at most
        (2n + 4) 2^-wl, from the division and the log;
      - S_k(z) is off by at most its first omitted term |c_i| z^-(2i+k-1)
        plus 2^-wl (2 + |c_2| i^2)/z^(k+1), the bound of _fixed_horner's
        sum (_horner_slack).
    errs[k] is the sum of the terms of F_k.  The counts 3n + 2 and 2n + 4
    exceed the roundings they cover by at least 1.4 units of 2^-wl, and
    errs[k], k >= 1, adds one unit of 2^-wl more; that covers the float
    arithmetic of the bound itself, off by at most (6i + 2k + 8) 2^-53 of
    it while the series meets its target.
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
            lz, out = math.log(zf), []
            for k in range(max_order + 1):  # (S_k(z) 2^wp, its bound)
                coeffs, i = _series_terms(k - 1, lz, consts.log_target)
                big_s = (_fixed_horner(coeffs, i, (zi, s), wl) << (wp - wl - s * (k + 1))) // zi ** (k + 1)
                out.append((big_s, coeffs[i - 1][3] * zf ** -(2 * i + k - 1)
                            + math.ldexp(_horner_slack(coeffs, i), -wl) / zf * zf ** -k))
            return out

        thr = _shift_threshold(cfg.working_digits) + max(max_order - 1, 0)
        n, sums = _shift(xf, thr, consts.target, series)
        ui, zi = 2 * a + step, a + (n + 1) * step  # u = ui 2^(s-1)
        q = libmp.mpf_div(libmp.from_int(2 * n + 1), libmp.from_man_exp(ui, s), wl, "n")
        log_zu = libmp.mpf_log(libmp.mpf_add(q, libmp.fone), wl, "n")
        fixed = _floor_mul(ui, log_zu, s - 1 + wp) + sums[0][0] - ((2 * n + 1) << (wp - 1))
        factors = range(a + step, zi, step)  # x + j = factors[j-1] 2^s
        if n:
            prod = math.prod(factors)
            ratio = libmp.mpf_div(libmp.from_int(prod), libmp.from_int(zi ** n), wl, "n")
            fixed -= _floor_mul(1, libmp.mpf_log(ratio, wl, "n"), wp)
        fs, errs = [fixed], [math.ldexp(3, -wp) + math.ldexp(5 * n + 6, -wl) + sums[0][1]]
        powers = [1] * n  # (x + j)^k 2^-(s k)
        for k in range(1, max_order + 1):
            powers = [p * f for p, f in zip(powers, factors)]
            unit = math.factorial(k - 1) << (wp - s * k)  # (k-1)! 2^wp / 2^(s k)
            g = sums[k][0] + unit // (2 * zi ** k) + sum(unit // p for p in powers)
            if k == 1:
                g -= _floor_mul(1, log_zu, wp)
            else:
                lead = math.factorial(k - 2) << (wp - s * (k - 1))
                g += lead // zi ** (k - 1) - (lead << (k - 1)) // ui ** (k - 1)
            fs.append(-g if k % 2 else g)
            errs.append(math.ldexp(n + 4, -wp) + math.ldexp(6 * n + 4 if k == 1 else 1, -wl)
                        + sums[k][1])
        return fs, wp, errs


def _rounded(fixed: int, wp: int, err: float, cfg: PrecisionConfig) -> SpecialValue:
    """fixed 2^-wp rounded once into an mpf of prec bits at cfg.dps, which
    moves it by at most 2^-prec of its size; that is added to err."""
    with mp.workdps(cfg.dps):
        val = mp.mpf((fixed, -wp))
        return SpecialValue(val, err + math.ldexp(abs(float(val)), -mp.prec))


def _stirling_defect(x, cfg: PrecisionConfig = DEFAULT_CONFIG, order: int = 0) -> SpecialValue:
    """F_order(x) of _stirling_defect_fixed, rounded once (_rounded)."""
    fs, wp, errs = _stirling_defect_fixed(x, cfg, order)
    return _rounded(fs[order], wp, errs[order], cfg)


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


def _polygamma(m: int, x, cfg: PrecisionConfig) -> SpecialValue:
    """psi^(m)(x) for m >= 0 and finite x > 0, read from the kernel's
    F_(m+1) (one _stirling_defect call) as

        psi^(m)(x) = psi^(m)(x+1) - (-1)^m m!/x^(m+1) = F_(m+1)(x) - t - (-1)^m r,

    r = m!/x^(m+1), t = -ln(x+1/2) at m = 0 and (-1)^m (m-1)!/(x+1/2)^m
    above: F_(m+1) is psi^(m)(x+1) plus the m-th derivative of -ln(x+1/2).
    The bound is the kernel's plus the rounding of the sum, 10^(2-dps)
    (|F_(m+1)| + |t| + r), the rule of _constants.  A bound past the float
    range raises DomainError naming the order and x."""
    require_positive("x", x)
    with mp.workdps(cfg.dps):
        xm = mp.mpf(x)
        f = _stirling_defect(xm, cfg, m + 1)
        u = xm + _HALF
        t = -mp.log(u) if m == 0 else (-1) ** m * math.factorial(m - 1) / u ** m
        r = math.factorial(m) / xm ** (m + 1)
        err = f.abs_error_bound + float((abs(f.value) + abs(t) + r) * _constants(cfg).eps)
        if err == math.inf:  # psi^(m)(x) ~ m!/x^(m+1) for tiny x
            raise DomainError(f"the error bound of psi^({m}) (order {m}) at x={x!r} "
                              "exceeds the float range; x is too small")
        return SpecialValue(f.value - t - r if m % 2 == 0 else f.value - t + r, err)


def digamma(x, cfg: PrecisionConfig = DEFAULT_CONFIG) -> SpecialValue:
    """psi(x) = Gamma'(x)/Gamma(x) for finite x > 0 (see _polygamma)."""
    return _polygamma(0, x, cfg)


def polygamma(m: int, x, cfg: PrecisionConfig = DEFAULT_CONFIG) -> SpecialValue:
    """psi^(m)(x) for m >= 1, finite x > 0; (-1)^(m+1) psi^(m) > 0 (see
    _polygamma)."""
    if not (isinstance(m, int) and m >= 1):
        raise DomainError(f"m must be a positive integer, got {m!r}")
    return _polygamma(m, x, cfg)


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
