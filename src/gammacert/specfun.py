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
beyond the working precision.  Every precision-dependent value the kernel
reads (the bits prec of cfg.dps, its fixed-point scale wl, the shift
threshold and the series target) comes from one per-precision record,
_constants(cfg), so a call enters no mpmath precision context and does
only its integer arithmetic, two divisions and two logs.  The harness's
Thm 3.1/3.4 row pass and monotone's cm_check decide their margins in the
kernel's integers; _stirling_defect rounds one F_k into an mpf.  The public
functions add what F_k leaves out: ln_gamma adds p(x) - ln x to F_0 (p
formed once, in _stirling_log), binet_theta adds (x+1/2) ln(1 + 1/(2x)) -
1/2 (from x = 1 on by its series in 1/(2x), summed in fixed point, so its
bound stays relative), and digamma and polygamma add the log term of
F_(m+1) and the step from x + 1 to x, each with the rounding rule below on
the magnitudes of the terms it adds.  An order whose error bound would
exceed the float range (psi^(m)(x) ~ m!/x^(m+1) at tiny x) raises
DomainError.  The same record holds the constants every call needs (ln
sqrt(2 pi) and the rounding allowance 10^(2-dps), which monotone, bounds and
harness use too); it is computed once per precision.  Mathieu's partial
sums are formed in fixed point too, each term floored and the tail bound
rounded up, so their error is counted, not allowed for.

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
    """The values of one precision; see _constants."""

    ln_sqrt_2pi: object  # mpf
    eps: object  # mpf 10^(2-dps), the relative allowance for rounding
    target: object  # mpf 10^-(working_digits+6), the Stirling series target
    log_target: float  # its natural log
    prec: int  # the bits of cfg.dps
    wl: int  # prec + _FIXED_GUARD_BITS, the kernel's fixed-point scale
    shift_threshold: float  # _shift_threshold(working_digits)
    target_float: float  # the largest float <= target


@functools.lru_cache(maxsize=8)
def _constants(cfg: PrecisionConfig) -> _Constants:
    """The values of cfg's precision, computed once per precision: ln sqrt(2
    pi), 10^(2-dps) and the series target at cfg.dps, and the bits, scale
    and threshold that the kernel reads, so that it enters no precision
    context per call.  A float remainder bound lies at or below target
    exactly when it lies at or below target_float."""
    with mp.workdps(cfg.dps):
        target = mp.mpf(10) ** (-(cfg.working_digits + 6))
        # to_float floors to 53 bits, but below 2^-1022 its ldexp rounds to nearest
        target_float = libmp.to_float(target._mpf_, rnd=libmp.round_floor)
        while mp.mpf(target_float) > target:
            target_float = math.nextafter(target_float, 0)
        return _Constants(mp.log(2 * mp.pi) / 2, mp.mpf(10) ** (2 - cfg.dps), target,
                          -(cfg.working_digits + 6) * math.log(10), mp.prec,
                          mp.prec + _FIXED_GUARD_BITS, _shift_threshold(cfg.working_digits),
                          target_float)


_HALF = mp.mpf(1) / 2  # exact at every precision
_MPF = type(_HALF)

# bits below 2^-prec kept by the kernel's fixed-point sums
_FIXED_GUARD_BITS = 20

# (m, prec) -> [(c_k, ln|c_k|, C_k, |c_k|) for k = 1, 2, ...], c_k = B_2k
# (2k+m-1)!/(2k)! rounded at that precision, C_k the integer nearest c_k 2^wp,
# wp = prec + _FIXED_GUARD_BITS, and |c_k| as a float; filled on first use and
# extended as longer series need it
_STIRLING_COEFFS: dict = {}


def _stirling_coeffs(m: int, n: int, prec: int | None = None) -> list:
    """At least n Stirling coefficients of order m at prec bits, by default
    the current precision; only a table that grows is built under prec."""
    prec = prec or mp.prec
    table = _STIRLING_COEFFS.setdefault((m, prec), [])
    if len(table) >= n:
        return table
    wp = prec + _FIXED_GUARD_BITS
    with mp.workprec(prec):
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


def _horner_slack(coeffs: list, k: int) -> float:
    """2 + |c_2| k^2: the units of 2^-wp that bound the error of the sum of
    _fixed_horner."""
    return 2 + coeffs[1][3] * k * k


def _fixed_horner(coeffs: list, k: int, man_exp: tuple, wp: int) -> int:
    """A_1 ~ 2^wp S, S = sum_{j<k} c_j w^(j-1), w = 1/z^2, for z = man 2^e >= 10
    given as man_exp = (man, e), coeffs from _stirling_coeffs and k the first
    omitted term that the kernel's walk over the terms picks.

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

    With u = x + 1/2 and z = x + 1 + n, n the upward shift of x + 1 picked
    for all orders at once (below), ln Gamma(x+1) = ln Gamma(z) - ln
    prod_{j=1..n} (x+j), the recurrence psi^(m)(y) = psi^(m)(y+1) +
    (-1)^(m+1) m!/y^(m+1) and Stirling's series at z give

        F_0(x) = u ln(z/u) - ln(prod_{j=1..n} (x+j) / z^n) - (n + 1/2) + S_0(z),
        F_1(x) = ln(z/u) - 1/(2z) - S_1(z) - sum_{j=1..n} 1/(x+j),
        F_k(x) = (-1)^k [(k-2)!/z^(k-1) + (k-1)!/(2 z^k) + S_k(z)
                         + (k-1)! sum_{j=1..n} (x+j)^-k - (k-2)!/u^(k-1)],  k >= 2,

    S_k(z) = sum_i c_i z^-(2i+k-1), with c_i the coefficients of order
    k - 1 of _stirling_coeffs (B_2i/(2i(2i-1)) at k = 0, B_2i (2i+k-2)!/(2i)!
    above).  ln sqrt(2 pi) cancels exactly, no term of size x ln x is formed,
    and ln(z/u) is one log for every order.  x, rounded to prec bits as
    mp.mpf(x) rounds it at cfg.dps, is taken apart once as man 2^e = a 2^s,
    s = min(e, 0), so x + j, u and z are exact integers times powers of two,
    and the terms are summed in fixed point at wp = max(wl, -e) bits, a
    scale at which x itself is exact.  prec, wl = prec + _FIXED_GUARD_BITS,
    the shift threshold and the series target come from the per-precision
    record _constants(cfg), and the coefficients from _stirling_coeffs at
    prec, so a call enters no mpmath precision context unless a coefficient
    table grows, and rounds nothing but its divisions and logs, each at wl
    bits.

    The shift: n = ceil(thr - xf) when xf = float(x) + 1 < thr, else 0, with
    thr = _shift_threshold(working digits) + max(max_order - 1, 0), so that
    the highest order's series meets its target too.  The series of order
    k - 1 keeps the terms c_i z^-(2i+k-1) while they decrease and stay above
    the target, judged on float log-magnitudes at zf = xf + n; term i is the
    first omitted one.  While some order's remainder bound (below) exceeds
    the target, thr doubles and n is picked again, at most three times.
    max_order = 0 is F_0 alone.

    ln(z/u) is taken as ln(1 + q), q = (n + 1/2)/u, whose error relative to
    its size keeps u ln(z/u) accurate for every x; the ratio prod/z^n lies
    in (e^-(n+1), 1].  Each rational term is the floor of one exact integer
    quotient; S_k(z) is summed by _fixed_horner at wl bits and divided by
    z^(k+1), one floor more.

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
    consts = _constants(cfg)
    prec, wl = consts.prec, consts.wl
    raw = x._mpf_ if type(x) is _MPF else _MPF.mpf_convert_arg(x, prec, "n")
    sign, man, e, bc = raw
    if sign or not man:  # x <= 0, or not finite
        require_positive("x", x)
    if bc > prec:  # to nearest at prec bits, as mp.mpf(x) rounds x at cfg.dps
        _, man, e, _ = libmp.mpf_pos(raw, prec, "n")
    xf = float(x) + 1
    s = min(e, 0)
    a, step = man << (e - s), 1 << -s  # x + j = (a + j step) 2^s
    wp = max(wl, -e)

    log_target, target = consts.log_target, consts.target_float
    thr, n = consts.shift_threshold + max(max_order - 1, 0), 0
    for _ in range(4):
        if xf < thr:
            n = max(n, math.ceil(thr - xf))
        zf = xf + n
        lz = math.log(zf)
        picks, fits = [], True  # (coeffs, i, remainder bound of S_k(z)) per order k = m + 1
        for m in range(-1, max_order):
            coeffs = _stirling_coeffs(m, 2, prec)
            prev, i = coeffs[0][1] - (2 + m) * lz, 2  # ln |term 1|
            while True:
                if i > len(coeffs):
                    coeffs = _stirling_coeffs(m, 2 * i, prec)
                cur = coeffs[i - 1][1] - (2 * i + m) * lz
                if cur < log_target or cur >= prev or i > 300:
                    break  # term i is the first omitted one
                prev, i = cur, i + 1
            rem = (coeffs[i - 1][3] * zf ** -(2 * i + m)
                   + math.ldexp(_horner_slack(coeffs, i), -wl) / zf * zf ** -(m + 1))
            fits = fits and rem <= target
            picks.append((coeffs, i, rem))
        if fits:
            break
        thr *= 2

    ui, zi = 2 * a + step, a + (n + 1) * step  # u = ui 2^(s-1), z = zi 2^s
    sums = [((_fixed_horner(coeffs, i, (zi, s), wl) << (wp - wl - s * (k + 1))) // zi ** (k + 1), rem)
            for k, (coeffs, i, rem) in enumerate(picks)]  # (S_k(z) 2^wp, its bound)
    # mpf_div rounds the exact quotient, so its operands are passed as raw
    # mpfs (sign, man, exp, bitcount) without stripping the man's trailing zeros
    q = libmp.mpf_div((0, 2 * n + 1, 0, (2 * n + 1).bit_length()), (0, ui, s, ui.bit_length()), wl, "n")
    log_zu = libmp.mpf_log(libmp.mpf_add(q, libmp.fone), wl, "n")
    fixed = _floor_mul(ui, log_zu, s - 1 + wp) + sums[0][0] - ((2 * n + 1) << (wp - 1))
    factors = range(a + step, zi, step)  # x + j = factors[j-1] 2^s
    if n:
        prod, zn = math.prod(factors), zi ** n
        ratio = libmp.mpf_div((0, prod, 0, prod.bit_length()), (0, zn, 0, zn.bit_length()), wl, "n")
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
    """fixed 2^-wp rounded once to nearest into an mpf of prec bits, the bits
    of cfg.dps, which moves it by at most 2^-prec of its size; that is added
    to err."""
    prec = _constants(cfg).prec
    val = libmp.from_man_exp(fixed, -wp, prec, "n")
    return SpecialValue(mp.make_mpf(val), err + math.ldexp(abs(libmp.to_float(val, rnd="n")), -prec))


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


def _binet_series_fixed(x, wl: int) -> int:
    """G ~ 2^wl g(t) for an mpf x >= 1, t = 1/(2x) <= 1/2, where

        (x+1/2) ln(1 + t) - 1/2 = t g(t),  g(t) = sum_{k>=1} (-1)^(k+1) t^(k-1)/(2k(k+1)),

    with |G 2^-wl - g(t)| <= (2K + 2) 2^-wl, K the number of terms summed.

    Lemma.  With T = floor(2^wl t) (error < 1 unit of 2^-wl), P_1 = 2^wl and
    P_k = floor(P_(k-1) T / 2^wl), the gap e_k = 2^wl t^(k-1) - P_k obeys
    0 <= e_k <= t e_(k-1) + 2, so e_k <= 2/(1-t) <= 4; each kept term
    floor(P_k / (2k(k+1))) is then off by at most 4/4 + 1 = 2 units.  The sum
    stops at the first P_(K+1) = 0, so 2^wl t^K <= 4, and the omitted
    alternating tail is below 4/(2(K+1)(K+2)) <= 1 unit.  P halves at each
    step, so K <= wl + 1."""
    _, man, e, _ = x._mpf_
    shift = wl - e - 1
    big_t = (1 << shift) // man if shift >= 0 else 0  # t = 2^(-e-1)/man
    big_g, power, k = 0, 1 << wl, 1
    while power:
        term = power // (2 * k * (k + 1))
        big_g += term if k % 2 else -term
        power = power * big_t >> wl
        k += 1
    return big_g


def binet_theta(x, cfg: PrecisionConfig = DEFAULT_CONFIG) -> SpecialValue:
    """Binet remainder theta(x) = ln Gamma(x) - (x-1/2) ln x + x - ln sqrt(2 pi)
    for finite x > 0, read from the F_0 kernel (one _stirling_defect call) as

        theta(x) = F_0(x) + D(x),  D(x) = (x+1/2) ln(1 + 1/(2x)) - 1/2,

    in which ln sqrt(2 pi) and the x ln x terms cancel.

    Below x = 1, D is formed as written, and the bound is the kernel's plus
    the rounding of the sum, 10^(2-dps) (|F_0| + |(x+1/2) ln(1 + 1/(2x))| +
    1/2), the rule of _constants.

    From x = 1 on, D = t g(t), t = 1/(2x), with g summed in fixed point at
    wl bits by _binet_series_fixed and divided by 2x: no term near 1/2 is
    formed, so nothing cancels (D ~ 1/(8x), F_0 ~ -1/(24x)).  g >= 1/4 - t/12
    >= 1/5, so G's (2K + 2) units of 2^-wl, K <= wl + 1, are below 2^-prec of
    g; rounding G 2^-wl into an mpf, dividing it by x and adding F_0 add
    three roundings of 2^-prec more.  All are within 10^(2-dps) (|F_0| +
    |D|), the rule of _constants, so the bound is the kernel's plus that.
    It stays relative while the kernel's absolute bound, about 2^(3-wl)
    without a shift, is below theta ~ 1/(12x): at 15 digits it is about
    1.3e-5 of theta at x = 1e25."""
    with mp.workdps(cfg.dps):
        xm = mp.mpf(x)
        f0 = _stirling_defect(xm, cfg)
        consts = _constants(cfg)
        if xm < 1:
            b = (xm + _HALF) * mp.log1p(1 / (2 * xm))
            err = (abs(f0.value) + abs(b) + _HALF) * consts.eps
            return SpecialValue(f0.value + b - _HALF, f0.abs_error_bound + float(err))
        d = mp.mpf((_binet_series_fixed(xm, consts.wl), -consts.wl - 1)) / xm
        err = (abs(f0.value) + abs(d)) * consts.eps
        return SpecialValue(f0.value + d, f0.abs_error_bound + float(err))


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
