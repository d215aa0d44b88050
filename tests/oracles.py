"""References shared by the test modules: mpmath's own values of F_k, and
the fixed-point Stirling kernel as it stood before its per-call plumbing was
removed, which specfun._stirling_defect_fixed must match bit for bit."""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from mpmath import libmp, mp

from gammacert.config import DEFAULT_CONFIG, PrecisionConfig, require_positive


def free_part(k: int, x):
    """F_k(x), the k-th derivative of F_0(x) = ln Gamma(x+1) - p(x), p(x) =
    ln sqrt(2 pi) + (x+1/2)(ln(x+1/2) - 1), from mpmath's own loggamma and
    polygamma at the current precision:

        F_0 = ln Gamma(x+1) - p(x),  F_1 = psi(x+1) - ln(x+1/2),
        F_k = psi^(k-1)(x+1) + (-1)^(k-1) (k-2)!/(x+1/2)^(k-1),  k >= 2.
    """
    xm = mp.mpf(x)
    u = xm + mp.mpf(1) / 2
    if k == 0:
        return mp.loggamma(xm + 1) - (mp.log(2 * mp.pi) / 2 + u * (mp.log(u) - 1))
    if k == 1:
        return mp.digamma(xm + 1) - mp.log(u)
    return mp.polygamma(k - 1, xm + 1) + (-1) ** (k - 1) * mp.factorial(k - 2) / u ** (k - 1)


# The reference kernel: _stirling_defect_fixed and the helpers it used, copied
# verbatim from specfun as they were before the per-call workdps, the series
# closure and the mpf re-wrap were removed.


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
