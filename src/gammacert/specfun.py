"""Reference evaluation of gamma-related special functions.

Everything rests on one kernel, _stirling_defects, a stream of points.
With p(x) = ln sqrt(2 pi) + (x+1/2)(ln(x+1/2) - 1), it sums F_0(x) = ln
Gamma(x+1) - p(x), the lambda-free part of H_lambda, and its derivatives
F_1..F_K in fixed-point integers from one upward shift of x + 1 and
Stirling's series at the shifted argument, so ln sqrt(2 pi) and the x ln
x terms cancel before anything is rounded.  Its error bound, a lemma in
its docstring, does not grow with x, and F_k stays finite at tiny x,
since its argument is x + 1.  It reads the values of the precision once
per stream (_constants), enters no mpmath precision context, takes a
dyadic x (an int, float or mpf) apart exactly, rounds a non-dyadic
Fraction to the working bits (_split), and does only integer arithmetic
per point, its two logs included (_ln_fixed).  monotone's row pass
(cm_check, the Thm 2.1 sweeps, the Thm 3.1/3.4 rows) streams the grid's
floats through it and decides in its integers.

A certified error is carried one way: an integer and a count of units of
its scale 2^-wp that bounds its distance from the real value.  The kernel
yields its errors so; the public functions add their terms to its
integers, each with its count: ln_gamma adds p(x) - ln x to F_0
(_stirling_p), binet_theta adds (x+1/2) ln(1 + 1/(2x)) - 1/2, and digamma
and polygamma add the log term of F_(m+1) and the step from x + 1 to x.
_rounded turns an integer and its count into a SpecialValue, rounding once
and counting that rounding exactly; a bound past the float range raises
DomainError.  Mathieu's partial sums are formed in fixed point too, each
term floored and the tail bound rounded up, and rounded by _rounded.
Every claim decides on the integer layer (_ratio .. _logs).

mpmath supplies the mpf values that are returned, and pi and gamma
(libmp); the Bernoulli numbers are exact integer ratios (_bernoulli), and
the special-function algorithms themselves live here so their error
bounds are explicit.
"""

from __future__ import annotations

import collections
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

    log_target: float  # ln of the Stirling series target 10^-(working_digits+6)
    prec: int  # the bits of cfg.dps
    wl: int  # prec + _FIXED_GUARD_BITS, the one fixed-point scale of cfg
    shift_threshold: float  # _shift_threshold(working_digits)
    target_float: float  # the largest float <= the target


@functools.lru_cache(maxsize=8)
def _constants(cfg: PrecisionConfig) -> _Constants:
    """The values of cfg's precision, computed once per precision without a
    precision context: the log of the series target 10^-(working_digits+6),
    and the bits, scale and threshold that the kernel reads.  2^-wl is the
    scale of every integer interval at cfg's precision.  A float remainder
    bound lies at or below the target exactly when it lies at or below
    target_float, the target floored to 53 bits, a normal float up to
    MAX_WORKING_DIGITS."""
    digits = cfg.working_digits + 6
    target = Fraction(1, 10 ** digits)
    below = float(target)
    if Fraction(below) > target:
        below = math.nextafter(below, 0.0)
    prec = libmp.dps_to_prec(cfg.dps)
    return _Constants(-digits * math.log(10), prec, prec + _FIXED_GUARD_BITS,
                      _shift_threshold(cfg.working_digits), below)


_MPF = type(mp.mpf(1))

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


# (m, prec) -> [(ln|c_k|, C_k, |c_k|) for k = 1, 2, ...], c_k = B_2k
# (2k+m-1)!/(2k)! exactly, C_k the integer nearest c_k 2^wp, wp = prec +
# _FIXED_GUARD_BITS, |c_k| the float nearest it (inf past the float range)
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
        try:
            size = abs(top) / bottom
        except OverflowError:
            size = math.inf
        table.append((_ln_fixed(abs(top), bottom, 80) / (1 << 80), (2 * (top << wp) + bottom) // (2 * bottom),
                      size))
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

    below 2^-wp (2 + |c_2| k^2), the slack the kernel adds to its bound,
    which also absorbs the float judgement of the decrease."""
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


def _ratio(v) -> tuple:
    """(num, den), den > 0, with v = num/den exactly, for an int, float,
    Fraction or mpf v."""
    if isinstance(v, mp.mpf):
        sign, man, exp, bc = v._mpf_
        if bc < 0:  # mpmath's inf, -inf and nan
            raise DomainError(f"{v} is not a finite number")
        man = -man if sign else man
        return (man << exp, 1) if exp >= 0 else (man, 1 << -exp)
    return Fraction(v).as_integer_ratio()


def _split(x, prec: int) -> tuple:
    """(a, s), s <= 0, with a 2^s = x > 0.  A dyadic x, an int, float, mpf
    or Fraction whose denominator is a power of two, is taken apart
    exactly, so what is certified at a 2^s is certified at x; any other
    Fraction p/q is rounded to nearest at prec bits from its exact ratio,
    as mp.mpf(p)/q is at that precision, and a string is read at prec bits
    as mpmath reads it.  DomainError unless x is positive and finite."""
    if isinstance(x, Fraction):
        num, den = x.numerator, x.denominator
        raw = (libmp.from_man_exp(num, 1 - den.bit_length()) if den & (den - 1) == 0
               else libmp.from_rational(num, den, prec, "n"))
    else:  # exact but for a string or an mpmath constant
        raw = x._mpf_ if type(x) is _MPF else _MPF.mpf_convert_arg(x, prec, "n")
    sign, man, e, _ = raw
    if sign or not man:  # x <= 0, or not finite
        require_positive("x", x)
    return man << (e - min(e, 0)), min(e, 0)


def _cdiv(n: int, d: int) -> int:
    """ceil(n/d) for d > 0."""
    return -(-n // d)


def _fixed_pair(v: tuple, prec: int, wp: int) -> tuple:
    """(lo, hi) with lo <= y 2^wp <= hi, for v the raw mpf that a libmp
    function returned for y at prec bits.  libmp evaluates its elementary
    functions and constants with 14 or more guard bits and rounds once, so
    y lies within 2 units of the last place of v, 2^(mag v - prec).  With
    prec >= wp + mag v + 10 those 2 units are below 2^-(wp+8), so hi = lo + 1
    unless y 2^wp lies that close to an integer."""
    sign, man, exp, bc = v
    man = (-man if sign else man) << (prec - bc)
    s = exp - (prec - bc) + wp  # v 2^wp = man 2^s
    if s >= 0:
        return (man - 2) << s, (man + 2) << s
    return (man - 2) >> -s, ((man + 2) >> -s) + 1


def _fixed_end(v, wp: int) -> tuple:
    """floor and ceil of v 2^wp for an int, float, Fraction or mpf v."""
    num, den = _ratio(v)
    return (num << wp) // den, _cdiv(num << wp, den)


def _fixed_mpf(enc: tuple, wp: int):
    """The mpf nearest the midpoint (lo + hi) 2^-(wp+1) of enc at mp.prec."""
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


# the intervals at 2^-w of ln 2, ln(3/2), ln(4/27), ln(1 -+ 1/1000), ln pi and gamma
_Logs = collections.namedtuple("_Logs", "ln2 ln3_2 ln4_27 ln999 ln1001 ln_pi euler")


@functools.lru_cache(maxsize=8)
def _logs(w: int) -> _Logs:
    """_Logs at 2^-w, once per scale, each at most 8 units wide: the rational
    logs from _ln_pair, ln pi from _ln_fixed at both ends of pi's interval,
    widened by 2 units, and gamma, libmp's constant, from _fixed_pair."""
    prec = w + 12
    pi_lo, pi_hi = _fixed_pair(libmp.mpf_pi(prec), prec, w)
    return _Logs(_ln_pair(2, 1, w), _ln_pair(3, 2, w), _ln_pair(4, 27, w), _ln_pair(999, 1000, w),
                 _ln_pair(1001, 1000, w), (_ln_fixed(pi_lo, 1 << w, w) - 2, _ln_fixed(pi_hi, 1 << w, w) + 2),
                 _fixed_pair(libmp.mpf_euler(prec), prec, w))


def _u_ln(ui: int, s: int, num: int, den: int, wp: int, wl: int) -> tuple:
    """(floor(2^wp u ln r), floor(2^wp ln r)), r = num/den, for u = ui
    2^(s-1) >= 1/2 and wp >= wl: one log from _ln_fixed at w1 = wl +
    bitlen(u) + 2 bits, u < 2^bitlen(u), so that u ln r is within (5/16)
    2^(wp-wl) + 1 units of 2^-wp, and ln r too, for every u."""
    w1 = wl + max(ui.bit_length() + s - 1, 0) + 2
    log = _ln_fixed(num, den, w1)  # ln r 2^w1
    return ui * log >> (w1 + 1 - s - wp), (log << wp) >> w1


def _stirling_defects(xs, cfg: PrecisionConfig = DEFAULT_CONFIG, max_order: int = 0):
    """Yield (x, a, s, Fs, wp, errs) for each finite x > 0 of xs (else
    DomainError), x = a 2^s, s <= 0: Fs[k] 2^-wp = F_k(x), the k-th
    derivative of F_0(x) = ln Gamma(x+1) - p(x), to within errs[k] units of
    2^-wp, an integer, for k = 0..max_order, where p(x) = ln sqrt(2 pi) +
    (x+1/2)(ln(x + 1/2) - 1).  Fs[k] is the integer the kernel sums, not
    rounded.

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
    and ln(z/u) is one log for every order.  A float x is taken apart
    exactly, as is any other dyadic x by _split, which rounds a non-dyadic
    Fraction to prec bits as mp.mpf(p)/q is at cfg.dps; as x = a 2^s, x +
    j, u and z are exact integers times powers of two, summed in fixed
    point at wp = max(wl, -s) bits, at which x is exact.  prec, wl = prec +
    _FIXED_GUARD_BITS, the shift threshold, the series target
    (_constants(cfg)) and the coefficient tables at prec are read once per
    call, not per x: the kernel enters no mpmath precision context and
    rounds nothing but its floors.

    The shift: n = ceil(thr - xf) when xf = float(x) + 1 < thr, else 0 (x
    as _split gives it, so xf is inf past the float range), with
    thr = _shift_threshold(working digits) + max(max_order - 1, 0), so that
    the highest order's series meets its target too.  The series of order
    k - 1 keeps the terms c_i z^-(2i+k-1) while they decrease and stay above
    the target, judged on float log-magnitudes at zf = xf + n; term i is the
    first omitted one.  While some order's remainder bound (below) exceeds
    the target, thr doubles and n is picked again, at most three times.
    max_order = 0 is F_0 alone.

    Both logs come from _ln_fixed on the exact integers: ln(z/u) = ln(2
    zi/ui) from _u_ln, at w1 = wl + bitlen(u) + 2 bits, u < 2^bitlen(u), so
    that u ln(z/u) stays accurate for every x, and ln(prod/z^n) at wl bits.
    Without a shift, z/u = 1 + 1/(2x+1) reads no log table above x = 63.5.
    Each rational term is the floor of one exact integer quotient; S_k(z) is
    summed by _fixed_horner at wl bits and divided by z^(k+1), one floor more.

    Error lemma.  It assumes nothing of mpmath's elementary functions.
      - each floor is off by less than 1 unit of 2^-wp: two in F_0 (of
        u ln(z/u) and of S_0(z)), at most n + 4 in F_k, k >= 1;
      - by _ln_fixed's bound, u ln(z/u) is off by less than u (5/4) 2^-w1 <
        (5/16) 2^-wl, ln(z/u) in F_1 by less than (5/16) 2^-wl, and the log
        of the ratio by less than (5/4) 2^-wl;
      - S_k(z) is off by at most its first omitted term |c_i| z^-(2i+k-1)
        plus 2^-wl (2 + |c_2| i^2)/z^(k+1), the bound of _fixed_horner's
        sum.
    errs[k] counts these terms of F_k in units of 2^-wp: 3 units in F_0
    and n + 4 in F_k, k >= 1, for the floors; 5n + 6 units of 2^-wl in F_0
    and 6n + 4 in F_1 for the logs, and 1 in F_k, k >= 2, a spare of at
    least one unit of 2^-wl at every order; and the remainder bound rem of
    S_k(z), a float, rounded up once into units, ceil(rem 2^wp).  The spare
    covers the float arithmetic of rem, off by at most (6i + 2k + 8) 2^-53
    of it while the series meets its target.
    """
    consts = _constants(cfg)
    prec, wl = consts.prec, consts.wl
    log_target, target = consts.log_target, consts.target_float
    thr0 = consts.shift_threshold + max(max_order - 1, 0)
    tables = [(m, _stirling_coeffs(m, 2, prec)) for m in range(-1, max_order)]  # order m + 1; grow in place
    for x in xs:
        if type(x) is float and 0.0 < x < math.inf:  # at most 53 <= prec bits
            a, den = x.as_integer_ratio()
            s, xf = 1 - den.bit_length(), x + 1
        else:  # xf from x as _split gives it: inf past the float range
            a, s = _split(x, prec)
            xf = libmp.to_float(libmp.from_man_exp(a, s), rnd="n") + 1
        step, wp = 1 << -s, max(wl, -s)  # x + j = (a + j step) 2^s
        thr, n = thr0, 0
        for _ in range(4):
            if xf < thr:
                n = max(n, math.ceil(thr - xf))
            zf = xf + n
            lz = math.log(zf)
            picks, fits = [], True  # (table, i, remainder bound of S_k(z)) per order k = m + 1
            for m, table in tables:
                prev, size = table[0][0] - (2 + m) * lz, len(table)  # ln |term 1|
                for i in range(2, 302):  # term i is the first omitted one
                    if i > size:
                        size = len(_stirling_coeffs(m, 2 * i, prec))
                    cur = table[i - 1][0] - (2 * i + m) * lz
                    if cur < log_target or cur >= prev:
                        break
                    prev = cur
                rem = (table[i - 1][2] * zf ** -(2 * i + m)
                       + math.ldexp(2 + table[1][2] * i * i, -wl) / zf * zf ** -(m + 1))
                fits = fits and rem <= target
                picks.append((table, i, rem))
            if fits:
                break
            thr *= 2

        ui, zi = 2 * a + step, a + (n + 1) * step  # u = ui 2^(s-1), z = zi 2^s
        sums = []  # (S_k(z) 2^wp, its remainder bound in units)
        for k, (table, i, rem) in enumerate(picks):
            num, den = rem.as_integer_ratio()  # ceil(rem 2^wp) exactly, at any wp
            sums.append(((_fixed_horner(table, i, (zi, s), wl) << (wp - wl - s * (k + 1))) // zi ** (k + 1),
                         _cdiv(num << wp, den)))
        u_log, log_zu = _u_ln(ui, s, 2 * zi, ui, wp, wl)  # u ln(z/u) and ln(z/u) at 2^-wp
        fixed = u_log + sums[0][0] - ((2 * n + 1) << (wp - 1))
        factors = range(a + step, zi, step)  # x + j = factors[j-1] 2^s
        if n:
            fixed -= _ln_fixed(math.prod(factors), zi ** n, wl) << (wp - wl)
        sh = wp - wl
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


def _rounded(fixed: int, wp: int, units: int, cfg: PrecisionConfig) -> SpecialValue:
    """fixed 2^-wp, within units of 2^-wp of a real value, as a SpecialValue:
    fixed rounded once to nearest into an mpf of prec bits, the bits of
    cfg.dps, and the bound (units + d) 2^-wp rounded up to a float, d the
    exact distance in units of the mpf from fixed.  DomainError where that
    bound is past the float range."""
    val = libmp.from_man_exp(fixed, -wp, _constants(cfg).prec, "n")
    sign, man, exp, _ = val  # exp >= -wp: rounding only drops bits
    moved = abs(((-man if sign else man) << (exp + wp)) - fixed)
    try:
        bound = math.nextafter((units + moved) / (1 << wp), math.inf)
    except OverflowError:
        raise DomainError("the error bound exceeds the float range") from None
    return SpecialValue(mp.make_mpf(val), bound)


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
    return _rounded(fs[0] + big_p - ln_x, wp, errs[0] + units + (2 << (wp - wl)), cfg)


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
    return _rounded(fs[0] + big_d, wp, errs[0] + (1 << (wp - wl)) + 1, cfg)


def _polygamma(m: int, x, cfg: PrecisionConfig) -> SpecialValue:
    """psi^(m)(x) for m >= 0 and finite x > 0, read from the kernel's
    F_(m+1) (one _stirling_defects call) as

        psi^(m)(x) = psi^(m)(x+1) - (-1)^m m!/x^(m+1) = F_(m+1)(x) - t - (-1)^m r,

    r = m!/x^(m+1), t = -ln u at m = 0 and (-1)^m (m-1)!/u^m above, u = x +
    1/2: F_(m+1) is psi^(m)(x+1) plus the m-th derivative of -ln u.  At m =
    0, ln u = ln(ui/2^(1-s)) comes from _ln_fixed at wl bits, within
    2^(1-wl), and r from one floored quotient; above, (m-1)!/u^m + r is one
    floored quotient of exact integers.  The sum is rounded once (_rounded);
    a bound past the float range raises DomainError naming the order and x."""
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
    try:
        return _rounded(big, wp, units, cfg)
    except DomainError:  # psi^(m)(x) ~ m!/x^(m+1) for tiny x
        raise DomainError(f"the error bound of psi^({m}) (order {m}) at x={x!r} "
                          "exceeds the float range; x is too small") from None


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
    return _rounded(total, wp, tail + terms, DEFAULT_CONFIG)


def euler_gamma(cfg: PrecisionConfig = DEFAULT_CONFIG) -> SpecialValue:
    """Euler-Mascheroni constant as -psi(1) from digamma, with its bound.  No
    claim reads it: Thm 3.2 takes libmp's constant as an interval (_logs)."""
    sv = digamma(1, cfg)
    with mp.workdps(cfg.dps):
        return SpecialValue(-sv.value, sv.abs_error_bound)
