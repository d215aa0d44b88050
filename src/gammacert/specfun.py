"""Reference evaluation of gamma-related special functions.

Everything rests on one kernel, _stirling_defects, a stream of points.
With p(x) = ln sqrt(2 pi) + (x+1/2)(ln(x+1/2) - 1), it sums F_0(x) = ln
Gamma(x+1) - p(x), the lambda-free part of H_lambda, and its derivatives
F_1..F_K in fixed-point integers from one upward shift of x + 1 and
Stirling's series at the shifted argument, so ln sqrt(2 pi) and the x ln
x terms cancel before anything is rounded.  Its error bound, a lemma in
its docstring, does not grow with x.  It takes a dyadic x apart exactly,
rounds a non-dyadic Fraction to the working bits (_man_exp), and does
only integer arithmetic per point, its two logs included (_ln_fixed).
monotone's row pass (cm_check, the Thm 2.1 sweeps, the Thm 3.1/3.4 rows)
streams the grid's floats through it and decides in its integers.

A certified error is carried one way: an integer and a count of units of
its scale 2^-wp that bounds its distance from the real value.  The kernel
yields its errors so, its series remainder included; the public functions
add their terms to its integers, each with its count, and _rounded turns
an integer and its count into a SpecialValue, rounding once and counting
that rounding exactly; a bound past the float range raises DomainError,
naming the function and x.  Every claim decides on the integer layer
(_ratio .. _logs), whose constants pi (_pi_pair) and gamma (_euler_pair)
are integer intervals too.

mpmath is imported only where an mpf is handed out (_rounded, _fixed_mpf,
euler_gamma) or where a string or an mpmath constant is read (_man_exp);
no claim loads it.  The Bernoulli numbers are exact integer ratios
(_bernoulli), and the special-function algorithms themselves live here so
their error bounds are explicit.
"""

from __future__ import annotations

import collections
import functools
import math
import sys
from fractions import Fraction
from typing import NamedTuple

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

    log_target: float  # ln of the Stirling series target 10^-(working_digits+6)
    prec: int  # the bits of cfg.dps
    wl: int  # prec + _FIXED_GUARD_BITS, the one fixed-point scale of cfg
    shift_threshold: float  # _shift_threshold(working_digits)


@functools.lru_cache(maxsize=8)
def _constants(cfg: PrecisionConfig) -> _Constants:
    """The values of cfg's precision, once per precision without a precision
    context: the log of the series target at which the kernel's walk stops,
    and its bits, scale and threshold.  2^-wl is the scale of every integer
    interval at cfg's precision.  prec is round((dps + 1) log2(10)), the
    closed form of mpmath's dps_to_prec."""
    prec = max(1, round((cfg.dps + 1) * 3.3219280948873626))
    return _Constants(-(cfg.working_digits + 6) * math.log(10), prec, prec + _FIXED_GUARD_BITS,
                      _shift_threshold(cfg.working_digits))


# bits below 2^-prec kept by the kernel's fixed-point sums
_FIXED_GUARD_BITS = 20

_TANGENT: list = [0, 1]  # [0, T_1, ..., T_N] of _tangent_numbers; grows on demand


def _tangent_numbers(n: int) -> list:
    """[0, T_1, ..., T_N], N >= n, the tangent numbers, by the integer
    recurrence of Brent and Harvey (Fast computation of Bernoulli, tangent
    and secant numbers, 2013).  One table serves every caller: asked past
    its end, it is rebuilt at twice its length or more, so reaching N takes
    O(N^2) steps in all."""
    if n >= len(_TANGENT):
        n = max(n, 2 * len(_TANGENT), 32)
        t = [0, 1] + [0] * (n - 1)
        for k in range(2, n + 1):
            t[k] = (k - 1) * t[k - 1]
        for k in range(2, n + 1):
            for j in range(k, n + 1):
                t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
        _TANGENT[:] = t
    return _TANGENT


def _bernoulli(n: int) -> tuple:
    """B_n = num/den for n >= 2, as (num, den): 0 for odd n, else B_2j =
    (-1)^(j-1) 2j T_j/(4^j (4^j - 1)) from _tangent_numbers."""
    j = n // 2
    if n % 2:
        return 0, 1
    return (-1) ** (j - 1) * 2 * j * _tangent_numbers(j)[j], 4 ** j * (4 ** j - 1)


# (m, prec) -> [(ln|c_k|, C_k) for k = 1, 2, ...], c_k = B_2k (2k+m-1)!/(2k)!
# exactly, C_k the integer nearest c_k 2^wp, wp = prec + _FIXED_GUARD_BITS,
# and ln|c_k| the float nearest _ln_fixed at 80 bits; filled on first use and
# extended as longer series need it
_STIRLING_COEFFS: dict = {}


def _stirling_coeffs(m: int, n: int, prec: int) -> list:
    """At least n Stirling coefficients of order m at prec bits, each from
    the exact B_2k of _bernoulli and the integer ratio (2k+m-1)!/(2k)!."""
    table = _STIRLING_COEFFS.setdefault((m, prec), [])
    if len(table) >= n:
        return table
    wp = prec + _FIXED_GUARD_BITS
    _tangent_numbers(n)  # one build for the whole extension
    for k in range(len(table) + 1, n + 1):
        if m >= 1:
            num, den = math.perm(2 * k + m - 1, m - 1), 1
        else:
            num, den = 1, math.perm(2 * k, 1 - m)
        p, q = _bernoulli(2 * k)
        top, bottom = p * num, q * den
        table.append((_ln_fixed(abs(top), bottom, 80) / (1 << 80), (2 * (top << wp) + bottom) // (2 * bottom)))
    return table


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

    below 2^-wp (2 + |c_2| k^2), the slack the kernel counts from the
    integer C_2, which also absorbs the float judgement of the decrease."""
    man, e = man_exp
    shift = wp - 2 * e
    big_w = (1 << shift) // (man * man) if shift >= 0 else 0  # 0 when z^2 > 2^wp
    acc = coeffs[k - 2][1]
    for j in range(k - 3, -1, -1):
        acc = (acc * big_w >> wp) + coeffs[j][1]
    return acc


_LN_T = 7  # _ln_fixed reads ln c_j, c_j = 1 + j/2^_LN_T, from a table
_LN_TABLES: dict = {}  # B -> _ln_table(B), built on first use


def _ln_fixed(num: int, den: int, w: int) -> int:
    """L with |L - 2^w ln(num/den)| < 5/4 for integers num, den >= 1, w >= 0
    and |log2(num/den)| < 2^60, and L <= 2^w ln(num/den) when num >= den.
    Tang's table-driven method (ACM TOMS 16, 1990) with the atanh series of
    Brent and Zimmermann (Modern Computer Arithmetic, 2010, 4.4): with
    num/den = 2^k m exactly, m in [1, 2), j = floor(2^T (m - 1)), T = _LN_T,

        ln(num/den) = k ln 2 + ln c_j + 2 atanh v,  v = (m - c_j)/(m + c_j) in [0, 2^-(T+1)),

    summed at W = w + g bits, g = bitlen(w) + 6, every step floored.

    Lemma.  V = floor(2^W v), V2 = floor(V^2 2^-W), P_0 = V and P_(i+1) =
    floor(P_i V2 2^-W); the sum takes floor(P_i/(2i+1)) while P_i > 0.  The
    gaps e_i = 2^W v^(2i+1) - P_i obey 0 <= e_0 < 1, 0 <= 2^W v^2 - V2 < 1.03
    and 0 <= e_(i+1) < e_i v^2 + 1.03 v^(2i+1) + 1 < 1.01.  Term 0 is low by
    e_0, term i >= 1 by less than 1 + e_i/3 < 1.34, and the tail from the
    first P_I = 0 by less than 1.02/(2I+1), so 2 atanh v is low by less than
    2.68 I + 2.04 units of 2^-W, I <= W/16 + 1/2.  ln c_j + k ln 2, from
    _ln_table at B >= W + 64 bits and floored to W, is off by less than 1 +
    (3/2)(1 + |k|) 2^-64 < 1.1 units, and low for k >= 0.  The sum is off by
    less than 0.1675 W + 4.48 <= 2^g/4 units, and the last floor adds one
    unit of 2^-w.  A ratio in [1, 1 + 2^-T) has j = k = 0 and reads no table."""
    k = num.bit_length() - den.bit_length()
    top, bot = (num, den << k) if k >= 0 else (num << -k, den)
    if top < bot:
        k, top = k - 1, top << 1
    j = ((top - bot) << _LN_T) // bot  # m = top/bot
    c = (1 << _LN_T) + j  # c_j 2^T
    g = w.bit_length() + 6
    big_w = w + g
    top <<= _LN_T
    p = ((top - c * bot) << big_w) // (top + c * bot)  # V = floor(2^W v)
    v2 = p * p >> big_w
    total, d = 0, 1
    while p:
        total += p // d
        p, d = p * v2 >> big_w, d + 2
    total <<= 1
    if j or k:
        big_b = (big_w + 127) & -64
        table = _ln_table(big_b)
        total += (table[j] + k * table[-1]) >> (big_b - big_w)
    return total >> g


def _ln_table(big_b: int) -> list:
    """[E_j for j = 0..2^_LN_T], 2^B ln c_j - 3/2 < E_j <= 2^B ln c_j, for
    B >= 64, from exact integers alone: ln c_j = ln c_(j-1) + 2 atanh(1/N),
    N = 2^(T+1) + 2j - 1, at B' = B + g' bits, g' = bitlen(B) + 7, floored
    to B.  Each term floor(2^B'/((2i+1) N^(2i+1))) is an exact floor, as
    P_(i+1) = floor(P_i/N^2), so a step is low by less than 2 (I + 1.01)
    units of 2^-B', I <= B'/16 + 1/2 as N > 2^8, and the 2^T steps by less
    than 16 B' + 387 <= 2^(g'-1)."""
    table = _LN_TABLES.get(big_b)
    if table is None:
        g = big_b.bit_length() + 7
        one, acc, table = 1 << (big_b + g), 0, [0]
        for big_n in range((2 << _LN_T) + 1, 4 << _LN_T, 2):
            p, n2, d = one // big_n, big_n * big_n, 1
            while p:
                acc += 2 * (p // d)
                p, d = p // n2, d + 2
            table.append(acc >> g)
        _LN_TABLES[big_b] = table
    return table


# --- the integer layer: a pair of ints (lo, hi) stands for [lo 2^-w, hi 2^-w],
# w mostly wl of _constants, lo floored and hi ceiled, so it holds its real


def _raw_mpf(v):
    """v._mpf_, (sign, man, exp, bc), if v is an mpmath mpf, else None.
    While mpmath is not imported no mpf can exist, so this imports nothing."""
    mpmath = sys.modules.get("mpmath")
    return v._mpf_ if mpmath is not None and isinstance(v, mpmath.mpf) else None


def _ratio(v) -> tuple:
    """(num, den), den > 0, with v = num/den exactly, for an int, float,
    Fraction or mpf v."""
    raw = _raw_mpf(v)
    if raw is not None:
        sign, man, exp, bc = raw
        if bc < 0:  # mpmath's inf, -inf and nan
            raise DomainError(f"{v} is not a finite number")
        man = -man if sign else man
        return (man << exp, 1) if exp >= 0 else (man, 1 << -exp)
    return Fraction(v).as_integer_ratio()


def _nearest(n: int, prec: int) -> tuple:
    """(m, sh): m 2^sh is the number of prec bits nearest the integer n,
    ties to even, as mpmath rounds to nearest."""
    sh = abs(n).bit_length() - prec
    if sh <= 0:
        return n, 0
    a = abs(n)
    q, r, half = a >> sh, a & ((1 << sh) - 1), 1 << (sh - 1)
    q += r > half or (r == half and q & 1)
    return (-q if n < 0 else q), sh


def _man_exp(v, prec: int) -> tuple:
    """(man, e) with man 2^e = v, man odd or 0 (0 for a zero or non-finite
    v), as x, lambda and t enter the integer layer: a dyadic v (an int,
    float, mpf or power-of-two Fraction) exactly; any other Fraction p/q
    rounded to nearest at prec bits, as mp.mpf(p)/q is, and a string or an
    mpmath constant read at prec bits by mpmath."""
    if isinstance(v, float):
        if not math.isfinite(v):
            return 0, 0
        man, den = v.as_integer_ratio()
        e = 1 - den.bit_length()
    elif isinstance(v, int):
        man, e = v, 0
    elif isinstance(v, Fraction):
        num, den = v.numerator, v.denominator
        if den & (den - 1) == 0:
            man, e = num, 1 - den.bit_length()
        else:  # |num/den| to prec + 2 bits or more and a sticky bit, rounded once
            e = abs(num).bit_length() - den.bit_length() - prec - 3
            q, rem = divmod(abs(num) << -e, den) if e < 0 else divmod(abs(num), den << e)
            man, sh = _nearest((q << 1) | (rem > 0), prec)
            man, e = (-man if num < 0 else man), e - 1 + sh
    else:
        raw = _raw_mpf(v)
        if raw is None:  # a string or an mpmath constant: mpmath reads it
            from mpmath import mp
            raw = mp.mpf.mpf_convert_arg(v, prec, "n")
        sign, man, e, _ = raw
        man = -man if sign else man
    if not man:
        return 0, 0
    tz = (man & -man).bit_length() - 1
    return man >> tz, e + tz


def _split(x, prec: int) -> tuple:
    """(a, s), s <= 0, with a 2^s = x > 0, x as _man_exp gives it.
    DomainError unless x is positive and finite."""
    man, e = _man_exp(x, prec)
    if man <= 0:  # x <= 0, or not finite
        require_positive("x", x)
    return man << (e - min(e, 0)), min(e, 0)


def _cdiv(n: int, d: int) -> int:
    """ceil(n/d) for d > 0."""
    return -(-n // d)


def _fixed_end(v, wp: int) -> tuple:
    """floor and ceil of v 2^wp for an int, float, Fraction or mpf v."""
    num, den = _ratio(v)
    return (num << wp) // den, _cdiv(num << wp, den)


def _fixed_mpf(enc: tuple, wp: int):
    """The mpf nearest the midpoint (lo + hi) 2^-(wp+1) of enc at mp.prec."""
    from mpmath import libmp, mp
    return mp.make_mpf(libmp.from_man_exp(enc[0] + enc[1], -wp - 1, mp.prec, "n"))


def _midpoint(lo: int, hi: int, wp: int) -> float:
    """The midpoint (lo + hi) 2^-(wp+1) of [lo, hi] 2^-wp rounded once to the
    nearest float (+-inf beyond the float range, its sign exact)."""
    try:
        return (lo + hi) / (2 << wp)
    except OverflowError:
        return math.inf if lo + hi > 0 else -math.inf


def _add_interval(sweep, at, lo: int, hi: int, wp: int) -> None:
    """Add the margin [lo, hi] 2^-wp to sweep, reported as its _midpoint."""
    sweep.add(at, _midpoint(lo, hi, wp), lo, hi)


def _ln_pair(num: int, den: int, w: int) -> tuple:
    """The interval of ln(num/den) at 2^-w: _ln_fixed widened by 2 units,
    its bound being below 5/4; ln 1 = 0 is exact."""
    v = _ln_fixed(num, den, w)
    return (v - 2, v + 2) if num != den else (0, 0)


def _linear(const, terms, w: int) -> tuple:
    """The interval at 2^-w of const + sum c v over terms (c, v), const and
    the c rationals, each v an interval at 2^-w: exact, floored and ceiled."""
    lo = hi = Fraction(const) * (1 << w)
    for c, (a, b) in terms:
        lo, hi = lo + c * (a if c > 0 else b), hi + c * (b if c > 0 else a)
    return math.floor(lo), math.ceil(hi)


@functools.lru_cache(maxsize=16)
def _pi_pair(w: int) -> tuple:
    """The interval of pi at 2^-w, at most 2 units wide, once per scale, by
    Machin's formula pi = 16 atan(1/5) - 4 atan(1/239) summed at W = w + g
    bits, g = bitlen(w) + 6.  With P_0 = floor(2^W/N) and P_m =
    floor(P_(m-1)/N^2) = floor(2^W/N^(2m+1)), term m of atan(1/N) = sum_m
    (-1)^m/((2m+1) N^(2m+1)) is floor(P_m/(2m+1)), an exact floor, taken
    while P_m > 0.  Each of those I terms is off by less than a unit and the
    alternating tail by less than its first term, below a unit, so the sum
    is off by less than 16 (I_5 + 1) + 4 (I_239 + 1) < 4 W + 20 <= 2^(g-1)
    units of 2^-W (I_N <= W/(2 log2 N) + 1), and the floor and ceiling at
    2^-w of its ends are at most 2 units apart."""
    g = w.bit_length() + 6
    big_w = w + g
    total = err = 0
    for c, n in ((16, 5), (-4, 239)):
        p, n2, d, atan = (1 << big_w) // n, n * n, 1, 0
        while p:
            atan += p // d if d % 4 == 1 else -(p // d)
            p, d = p // n2, d + 2
        total, err = total + c * atan, err + abs(c) * (d + 1) // 2  # (d + 1)/2 = I + 1
    return (total - err) >> g, _cdiv(total + err, 1 << g)


def _euler_at(n: int, w: int) -> tuple:
    """The interval of Euler's gamma at 2^-w from Euler-Maclaurin at the
    integer n >= 1: psi(n) = H_(n-1) - gamma and Stirling's series of psi
    (DLMF 5.11.2) give

        gamma = H_(n-1) - ln n + 1/(2n) + sum_{k<K} B_2k/(2k n^2k) + R_K,

    where |R_K| is at most the first omitted term |B_2K|/(2K n^2K) for every
    K (DLMF 5.11(ii), the lemma behind the kernel's S_1).  Summed at W = w
    + g bits, g = bitlen(w) + 6: H_(n-1) as n - 1 floored quotients, low by
    less than n - 1 units; ln n from _ln_pair; each term from _bernoulli
    floored and ceiled.  K is the first k whose term, ceiled, is at most 1
    or no smaller than the one before; that term bounds R_K on both sides.
    The ends are floored and ceiled to 2^-w."""
    g = w.bit_length() + 6
    big_w = w + g
    one = 1 << big_w
    harmonic = sum(one // j for j in range(1, n))
    ln_lo, ln_hi = _ln_pair(n, 1, big_w)
    lo, hi = harmonic + one // (2 * n) - ln_hi, harmonic + n - 1 + _cdiv(one, 2 * n) - ln_lo
    prev, k, power = None, 1, n * n
    while True:
        num, den = _bernoulli(2 * k)
        top, bottom = num << big_w, 2 * k * den * power
        t_lo, t_hi = top // bottom, _cdiv(top, bottom)
        size = max(-t_lo, t_hi)  # ceil |term k|
        if size <= 1 or (prev is not None and size >= prev):
            return (lo - size) >> g, _cdiv(hi + size, 1 << g)
        lo, hi, prev, k, power = lo + t_lo, hi + t_hi, size, k + 1, power * n * n


@functools.lru_cache(maxsize=16)
def _euler_pair(w: int) -> tuple:
    """The interval of Euler's gamma at 2^-w, at most 2 units wide, once per
    scale: _euler_at at n = W/2 + 8, W = w + bitlen(w) + 6, where the terms
    fall below a unit of 2^-W long before they turn (their least is about
    e^(-2 pi n)), so that the sum is off by less than n + K + 4 < 2^(g-1)
    units of 2^-W."""
    return _euler_at((w + w.bit_length() + 6) // 2 + 8, w)


# the intervals at 2^-w of ln 2, ln(3/2), ln(4/27), ln(1 -+ 1/1000), ln pi and gamma
_Logs = collections.namedtuple("_Logs", "ln2 ln3_2 ln4_27 ln999 ln1001 ln_pi euler")


@functools.lru_cache(maxsize=8)
def _logs(w: int) -> _Logs:
    """_Logs at 2^-w, once per scale, each at most 8 units wide: the rational
    logs from _ln_pair, ln pi from _ln_fixed at both ends of _pi_pair,
    widened by 2 units, and gamma from _euler_pair."""
    pi_lo, pi_hi = _pi_pair(w)
    return _Logs(_ln_pair(2, 1, w), _ln_pair(3, 2, w), _ln_pair(4, 27, w), _ln_pair(999, 1000, w),
                 _ln_pair(1001, 1000, w), (_ln_fixed(pi_lo, 1 << w, w) - 2, _ln_fixed(pi_hi, 1 << w, w) + 2),
                 _euler_pair(w))


def _u_ln(ui: int, s: int, num: int, den: int, wp: int, wl: int) -> tuple:
    """(floor(2^wp u ln r), floor(2^wp ln r)), r = num/den, for u = ui
    2^(s-1) >= 1/2 and wp >= wl: one log from _ln_fixed at w1 = wl +
    bitlen(u) + 2 bits, u < 2^bitlen(u), so that u ln r is within (5/16)
    2^(wp-wl) + 1 units of 2^-wp, and ln r too, for every u."""
    w1 = wl + max(ui.bit_length() + s - 1, 0) + 2
    log = _ln_fixed(num, den, w1)  # ln r 2^w1
    return ui * log >> (w1 + 1 - s - wp), (log << wp) >> w1


_LN2 = math.log(2)  # the float nearest ln 2


def _log_units(log: float, wp: int) -> int:
    """Units of 2^-wp for e^log: ceil(2^(y-e) (1 + 2^-30) 2^(e+wp)), y =
    log/ln 2 and e = floor(y), by one shift, so at least 1.  The kernel's
    lemma bounds the floats it reads."""
    y = log / _LN2
    e = math.floor(y)
    big, sh = int(math.ldexp(2.0 ** (y - e), 53)) * ((1 << 30) + 1), e + wp - 83  # 2^(y-e) (1 + 2^-30) 2^83
    return big << sh if sh >= 0 else -(-big >> -sh)


def _stirling_defects(xs, cfg: PrecisionConfig = DEFAULT_CONFIG, max_order: int = 0):
    """Yield (x, a, s, Fs, wp, errs) for each finite x > 0 of xs (else
    DomainError), x = a 2^s, s <= 0: Fs[k] 2^-wp = F_k(x), the k-th
    derivative of F_0(x) = ln Gamma(x+1) - p(x), unrounded, to within
    errs[k] units of 2^-wp, an integer, for k = 0..max_order, where p(x) =
    ln sqrt(2 pi) + (x+1/2)(ln(x + 1/2) - 1).

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
    and ln(z/u) is one log for every order.  x = a 2^s from _split (a float
    directly), so x + j, u and z are exact integers times powers of two,
    summed in fixed point at wp = max(wl, -s) bits, at which x is exact.
    _constants(cfg) and the coefficient tables are read once per call: the
    kernel enters no mpmath precision context and rounds nothing but its
    floors.

    The shift: n = ceil(thr - xf) when xf = float(x) + 1 < thr (the
    largest float past the float range), else 0, thr = _shift_threshold +
    max(max_order - 1, 0) so that the highest order meets its target too.
    The series of order k - 1 keeps the terms c_i z^-(2i+k-1) while they
    decrease and stay above the target, judged on float logs at zf = xf + n:
    term i is the first omitted one, cur the float of its log.  Unless every
    order stopped on a term below the target, thr doubles and n is picked
    again, at most three times.  max_order = 0 is F_0 alone.

    Both logs come from _ln_fixed on the exact integers: ln(z/u) = ln(2
    zi/ui) from _u_ln at w1 = wl + bitlen(u) + 2 bits, so u ln(z/u) stays
    accurate for every x (no log table above x = 63.5 unshifted), and
    ln(prod/z^n) at wl bits.  Each rational term is one floored integer
    quotient; S_k(z) is _fixed_horner's sum at wl bits over z^(k+1), floored.

    Error lemma.  It assumes nothing of mpmath's elementary functions, and
    of libm's log and pow only that they are within 1 ulp.
      - each floor is off by less than 1 unit of 2^-wp: two in F_0 (of
        u ln(z/u) and of S_0(z)), at most n + 4 in F_k, k >= 1;
      - by _ln_fixed's bound, u ln(z/u) is off by less than u (5/4) 2^-w1 <
        (5/16) 2^-wl, ln(z/u) in F_1 by less than (5/16) 2^-wl, and the log
        of the ratio by less than (5/4) 2^-wl;
      - S_k(z) is off by at most its first omitted term T = |c_i| z^-(2i+m),
        m = k - 1, plus _fixed_horner's 2^-wl (2 + |c_2| i^2)/z^(k+1) <=
        2^-wl (3 + floor((|C_2| + 1) i^2 2^-wl)), z >= 10, C_2 an integer.
    errs[k] counts these terms of F_k in units of 2^-wp: 3 units in F_0
    and n + 4 in F_k, k >= 1, for the floors; 5n + 6 units of 2^-wl in F_0
    and 6n + 4 in F_1 for the logs, and 1 in F_k, k >= 2, a spare of at
    least one unit of 2^-wl at every order; Horner's units of 2^-wl; and T
    as _log_units(cur, wp) counts it.  cur = fl(l - fl((2i+m) lz)) reads l,
    the float nearest _ln_fixed's 80-bit ln|c_i|, within 2^-53 |l| + 2^-79
    of it, and lz = log(zf), zf = fl(fl(x) + 1) + n rounded once more,
    within 2^-52 lz + 3.02 2^-53 of ln z (past the float range zf < z,
    which only raises the count).  With A = |l| + (2i+m) lz, lz > 2.3, cur
    is within 2^-53 (2.001 |l| + 5.33 (2i+m) lz) + 2^-79 of ln T;
    _log_units's y = fl(cur/fl(ln 2)) adds 2.001 2^-53 |cur| times ln 2, y -
    e 2^-54 (it is exact unless -1 < y < 0) and pow 2^-52, so its 2^(y-e)
    2^e is within a factor e^(7.34 2^-53 A + 2^-51) of T.  For A <= 2^20
    that is below 1 + 2^-30, so the count is at least T 2^wp and at most T
    2^wp (1 + 2^-29) + 1; for y + wp < -60 and A < 2^50, T < 2^-59 units,
    below the count's 1.
    Where the count is formed, (2i+m) lz < |l| + (wp + 62) ln 2, and
    |l| <= (2i+m) ln(2i+m) + 8, so A <= 2^20 for wp <= 2^19, 2i + m <= 20000.
    """
    consts = _constants(cfg)
    prec, wl, log_target = consts.prec, consts.wl, consts.log_target
    thr0 = consts.shift_threshold + max(max_order - 1, 0)
    tables = [(m, _stirling_coeffs(m, 2, prec)) for m in range(-1, max_order)]  # order m + 1; grow in place
    for x in xs:
        if type(x) is float and 0.0 < x < math.inf:  # at most 53 <= prec bits
            a, den = x.as_integer_ratio()
            s, xf = 1 - den.bit_length(), x + 1
        else:  # xf from x as _split gives it, the largest float past the float range
            a, s = _split(x, prec)
            try:  # the float nearest a 2^s: integer division rounds correctly
                xf = min(a / (1 << -s) + 1, sys.float_info.max)
            except OverflowError:
                xf = sys.float_info.max
        step, wp = 1 << -s, max(wl, -s)  # x + j = (a + j step) 2^s
        thr, n = thr0, 0
        for _ in range(4):
            if xf < thr:
                n = max(n, math.ceil(thr - xf))
            lz = math.log(xf + n)
            picks, fits = [], True  # (table, i, ln |term i|) per order k = m + 1
            for m, table in tables:
                prev, size = table[0][0] - (2 + m) * lz, len(table)  # ln |term 1|
                for i in range(2, 302):  # term i is the first omitted one
                    if i > size:
                        size = len(_stirling_coeffs(m, 2 * i, prec))
                    cur = table[i - 1][0] - (2 * i + m) * lz
                    if cur < log_target or cur >= prev:
                        break
                    prev = cur
                fits = fits and cur < log_target
                picks.append((table, i, cur))
            if fits:
                break
            thr *= 2

        ui, zi = 2 * a + step, a + (n + 1) * step  # u = ui 2^(s-1), z = zi 2^s
        sh = wp - wl
        sums = [((_fixed_horner(table, i, (zi, s), wl) << (sh - s * (k + 1))) // zi ** (k + 1),
                 _log_units(cur, wp) + ((((abs(table[1][1]) + 1) * i * i >> wl) + 3) << sh))
                for k, (table, i, cur) in enumerate(picks)]  # (S_k(z) 2^wp, the units of its error)
        u_log, log_zu = _u_ln(ui, s, 2 * zi, ui, wp, wl)  # u ln(z/u) and ln(z/u) at 2^-wp
        fixed = u_log + sums[0][0] - ((2 * n + 1) << (wp - 1))
        factors = range(a + step, zi, step)  # x + j = factors[j-1] 2^s
        if n:
            fixed -= _ln_fixed(math.prod(factors), zi ** n, wl) << sh
        fs, errs = [fixed], [3 + ((5 * n + 6) << sh) + sums[0][1]]
        powers = [1] * n  # (x + j)^k 2^-(s k)
        for k in range(1, max_order + 1):
            powers = [p * f for p, f in zip(powers, factors)]
            unit = math.factorial(k - 1) << (wp - s * k)  # (k-1)! 2^wp / 2^(s k)
            g = sums[k][0] + unit // (2 * zi ** k) + sum(unit // p for p in powers)
            if k == 1:
                g -= log_zu
            else:
                lead = math.factorial(k - 2) << (wp - s * (k - 1))
                g += lead // zi ** (k - 1) - (lead << (k - 1)) // ui ** (k - 1)
            fs.append(-g if k % 2 else g)
            errs.append(n + 4 + ((6 * n + 4 if k == 1 else 1) << sh) + sums[k][1])
        yield x, a, s, fs, wp, errs


def _round(fixed: int, wp: int, units: int, prec: int, name: str, x) -> tuple:
    """(man, e, bound): fixed 2^-wp rounded once to nearest, ties to even,
    at prec bits as man 2^e, e >= -wp, and the bound (units + d) 2^-wp
    rounded up to a float, d the exact distance in units of 2^-wp that the
    rounding moved it, for a value within units of 2^-wp of fixed 2^-wp.
    DomainError naming name and x where that bound is past the float
    range."""
    man, sh = _nearest(fixed, prec)
    moved = abs((man << sh) - fixed)
    try:
        bound = math.nextafter((units + moved) / (1 << wp), math.inf)
    except OverflowError:
        raise DomainError(f"the error bound of {name} at x={x!r} exceeds the float range") from None
    return man, sh - wp, bound


def _rounded(fixed: int, wp: int, units: int, cfg: PrecisionConfig, name: str, x) -> SpecialValue:
    """fixed 2^-wp, within units of 2^-wp of name's value at x, as a
    SpecialValue: _round's value at prec bits, the bits of cfg.dps, as an
    mpf, and its bound."""
    from mpmath import libmp, mp
    man, e, bound = _round(fixed, wp, units, _constants(cfg).prec, name, x)
    return SpecialValue(mp.make_mpf(libmp.from_man_exp(man, e)), bound)


def _stirling_p(a: int, s: int, wp: int, wl: int) -> tuple:
    """(P, E): p(x) = ln sqrt(2 pi) + u (ln u - 1), u = x + 1/2, lies within
    E units of P 2^-wp, for x = a 2^s, s <= 0, wp >= max(wl, -s), so that x
    is exact at 2^-wp.  ln sqrt(2 pi) is the midpoint of (ln 2 + ln pi)/2
    from _logs(wl), floored to 2^-wp; u ln u comes from _u_ln and u 2^wp =
    ui 2^(wp+s-1) is exact (ui = 2a + 2^-s is even when wp + s = 0)."""
    logs, sh, ui = _logs(wl), wp - wl, 2 * a + (1 << -s)
    lo, hi = logs.ln2[0] + logs.ln_pi[0], logs.ln2[1] + logs.ln_pi[1]  # ln 2 pi at 2^-wl
    big_p = ((lo + hi) << sh >> 2) + _u_ln(ui, s, ui, 1 << (1 - s), wp, wl)[0] - ((ui << (wp + s)) >> 1)
    return big_p, ((hi - lo + 4) << sh >> 2) + 3


def ln_gamma(x, cfg: PrecisionConfig = DEFAULT_CONFIG) -> SpecialValue:
    """ln Gamma(x) for finite x > 0 with a certified absolute error bound,
    read from the F_0 kernel (one _stirling_defects call) as

        ln Gamma(x) = ln Gamma(x+1) - ln x = F_0(x) + p(x) - ln x,

    summed at the kernel's wp: p(x) from _stirling_p and ln x = ln(a/2^-s)
    from _ln_fixed at wl bits, within 2^(1-wl), and rounded once (_rounded)."""
    [(_, a, s, fs, wp, errs)] = _stirling_defects((x,), cfg)
    wl = _constants(cfg).wl
    big_p, units = _stirling_p(a, s, wp, wl)
    ln_x = _ln_fixed(a, 1 << -s, wl) << (wp - wl)
    return _rounded(fs[0] + big_p - ln_x, wp, errs[0] + units + (2 << (wp - wl)), cfg, "ln_gamma", x)


def binet_theta(x, cfg: PrecisionConfig = DEFAULT_CONFIG) -> SpecialValue:
    """Binet remainder theta(x) = ln Gamma(x) - (x-1/2) ln x + x - ln sqrt(2 pi)
    for finite x > 0, read from the F_0 kernel (one _stirling_defects call) as

        theta(x) = F_0(x) + D(x),  D(x) = u ln(u/x) - 1/2,  u = x + 1/2,

    in which ln sqrt(2 pi) and the x ln x terms cancel.  u ln(u/x) =
    u ln(ui/(2a)) comes from _u_ln, whose log is accurate relative to its
    size, so nothing cancels in D ~ 1/(8x) (F_0 ~ -1/(24x)); the bound is
    the kernel's plus _u_ln's and the rounding of the sum (_rounded).  It
    stays relative while the kernel's absolute bound, a few units of 2^-wl
    without a shift, is below theta ~ 1/(12x): at 15 digits it is about
    2e-5 of theta at x = 1e25."""
    [(_, a, s, fs, wp, errs)] = _stirling_defects((x,), cfg)
    wl = _constants(cfg).wl
    ui = 2 * a + (1 << -s)
    big_d = _u_ln(ui, s, ui, 2 * a, wp, wl)[0] - (1 << (wp - 1))
    return _rounded(fs[0] + big_d, wp, errs[0] + (1 << (wp - wl)) + 1, cfg, "binet_theta", x)


def _polygamma(m: int, x, cfg: PrecisionConfig) -> SpecialValue:
    """psi^(m)(x) for m >= 0 and finite x > 0, read from the kernel's
    F_(m+1) (one _stirling_defects call) as

        psi^(m)(x) = psi^(m)(x+1) - (-1)^m m!/x^(m+1) = F_(m+1)(x) - t - (-1)^m r,

    r = m!/x^(m+1), t = -ln u at m = 0 and (-1)^m (m-1)!/u^m above, u = x +
    1/2: F_(m+1) is psi^(m)(x+1) plus the m-th derivative of -ln u.  At m =
    0, ln u = ln(ui/2^(1-s)) comes from _ln_fixed at wl bits, within
    2^(1-wl), and r from one floored quotient; above, (m-1)!/u^m + r is one
    floored quotient of exact integers.  The sum is rounded once (_rounded);
    psi^(m)(x) ~ m!/x^(m+1), so for tiny x its bound can pass the float
    range."""
    [(_, a, s, fs, wp, errs)] = _stirling_defects((x,), cfg, m + 1)
    ui, q = 2 * a + (1 << -s), -s  # u = ui 2^(s-1), x = a 2^s
    if m == 0:
        wl = _constants(cfg).wl
        sh = wp - wl
        big = fs[1] + (_ln_fixed(ui, 2 << q, wl) << sh) - ((1 << (wp + q)) // a)
        units = errs[1] + (2 << sh) + 1
    else:  # 2^wp ((m-1)!/u^m + m!/x^(m+1)) = (m-1)! 2^(m q + wp) (2^m a^(m+1) + m 2^q ui^m) / (ui^m a^(m+1))
        num = math.factorial(m - 1) * ((a ** (m + 1) << m) + (m * ui ** m << q)) << (m * q + wp)
        t = num // (ui ** m * a ** (m + 1))
        big, units = (fs[m + 1] - t if m % 2 == 0 else fs[m + 1] + t), errs[m + 1] + 1
    return _rounded(big, wp, units, cfg, f"psi^({m})", x)


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
    1/(terms^2+r^2) rounded up.  r = R 2^s, s <= 0, from _split at the bits
    of DEFAULT_CONFIG (exact unless r is a non-dyadic Fraction or a string),
    so n^2 + r^2 = (n^2 2^(-2s) + R^2) 2^(2s) is an exact integer times a
    power of two; S is low by less than `terms` units of 2^-wp, B high by
    less than one."""
    big_r, s = _split(r, _constants(DEFAULT_CONFIG).prec)
    r2, shift = big_r ** 2, -2 * s  # r^2 = r2 2^-shift
    top = 1 << (wp + 2 * shift)
    total = sum((2 * n * top) // ((n * n << shift) + r2) ** 2 for n in range(1, terms + 1))
    return total, -((-1 << (wp + shift)) // ((terms * terms << shift) + r2))


def mathieu_partial(r, terms: int) -> SpecialValue:
    """Partial sum of Mathieu's series sum_{n>=1} 2n/(n^2+r^2)^2, formed in
    fixed point at the scale wl of DEFAULT_CONFIG (_mathieu_fixed) and
    rounded once.

    The tail beyond N is below int_N^inf 2u/(u^2+r^2)^2 du = 1/(N^2+r^2).
    The error bound adds that tail, rounded up, the N floors of the terms
    and the exact rounding of the sum to an mpf, and is itself rounded up.
    """
    require_positive("r", r)
    if not (isinstance(terms, int) and terms >= 1):
        raise DomainError(f"terms must be a positive integer, got {terms!r}")
    wp = _constants(DEFAULT_CONFIG).wl
    total, tail = _mathieu_fixed(r, terms, wp)
    return _rounded(total, wp, tail + terms, DEFAULT_CONFIG, "mathieu_partial", r)


def euler_gamma(cfg: PrecisionConfig = DEFAULT_CONFIG) -> SpecialValue:
    """Euler-Mascheroni constant as -psi(1) from digamma, with its bound.  No
    claim reads it: Thm 3.2 takes gamma as the integer interval of
    _euler_pair (_logs)."""
    from mpmath import mp
    sv = digamma(1, cfg)
    with mp.workdps(cfg.dps):
        return SpecialValue(-sv.value, sv.abs_error_bound)
