"""References shared by the test modules: mpmath's own values of F_k; the
fixed-point Stirling kernel as it stood before its per-call plumbing was
removed and before its logs left mpf_log, with its series remainder counted
exactly in integers, whose shift and wp specfun._stirling_defects
(kernel_at) must match, whose integers it must match up to the two routes'
log bounds, and whose error counts it must meet within the spare of its
remainder count (kernel_off_reference); the exact Taylor coefficients of phi_lambda
(phi_coeffs); and the phi_lambda
layer as it stood before it moved onto integer intervals (the certificate's
boxes on libmp interval pairs, the Laplace enclosure in mpmath.iv), whose
enclosures the integer forms of monotone must match to a few units of their
scale."""

from __future__ import annotations

import contextlib
import functools
import itertools
import math

from fractions import Fraction

from mpmath import iv, libmp, mp
from mpmath.libmp import (fhalf, fone, from_int, ftwo, mpi_add, mpi_div, mpi_exp, mpi_mul, mpi_neg,
                          mpi_pow_int, mpi_sub)

from gammacert import monotone, specfun
from gammacert.config import DEFAULT_CONFIG, NumericalError, PrecisionConfig, SpecialValue, require_positive
from gammacert.monotone import _TAYLOR_TERMS


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


# The reference kernel: specfun._stirling_defects at one point (kernel_at),
# here _stirling_defect_shifted, which also returns its shift, and the helpers
# it used, copied from specfun as they were before the per-call workdps, the
# series closure, the mpf re-wrap and the mpf_log route were removed.


def _shift_threshold(digits: int) -> float:
    # The Stirling series at argument z bottoms out near exp(-2*pi*z); keep
    # that floor a few digits below the requested target.
    return max(10.0, 0.367 * (digits + 8))


def _log_target(cfg: PrecisionConfig) -> float:
    """ln of the Stirling series target 10^-(working_digits+6)."""
    return -(cfg.working_digits + 6) * math.log(10)


# bits below 2^-prec kept by the kernel's fixed-point sums
_FIXED_GUARD_BITS = 20

# (m, mp.prec) -> [(c_k, ln|c_k|, C_k) for k = 1, 2, ...], c_k = B_2k
# (2k+m-1)!/(2k)! rounded at that precision and C_k the integer nearest c_k
# 2^wp, wp = prec + _FIXED_GUARD_BITS; filled on first use and extended as
# longer series need it
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
        table.append((c, float(mp.log(abs(c))), (2 * top + bottom) // (2 * bottom)))
    return table


def _series_terms(m: int, lz: float, log_target: float) -> tuple:
    """(coeffs, k, met) of the Stirling series of order m at z = e^lz: the
    terms c_j z^-(2j+m) are taken while they decrease and stay above
    e^log_target, judged on float log-magnitudes; term k is the first
    omitted one, coeffs holds at least k coefficients, and met says that the
    walk stopped on a term below e^log_target."""
    coeffs = _stirling_coeffs(m, 2)
    prev = coeffs[0][1] - (2 + m) * lz  # ln |term 1|
    k = 2
    while True:
        if k > len(coeffs):
            coeffs = _stirling_coeffs(m, 2 * k)
        cur = coeffs[k - 1][1] - (2 * k + m) * lz
        if cur < log_target or cur >= prev or k > 300:
            return coeffs, k, cur < log_target  # term k is the first omitted one
        prev = cur
        k += 1


def _horner_slack(coeffs: list, k: int, wp: int) -> int:
    """3 + floor((|C_2| + 1) k^2 2^-wp) >= 2 + |c_2| k^2: the units of 2^-wp
    that bound the error of the sum of _fixed_horner."""
    return ((abs(coeffs[1][2]) + 1) * k * k >> wp) + 3


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
    for _, _, c in reversed(coeffs[:k - 2]):
        acc = (acc * big_w >> wp) + c
    return acc


def _shift(xf: float, thr: float, series) -> tuple:
    """(n, series(n)) for the upward shift of an argument xf (a float): n =
    ceil(thr - xf) steps when xf < thr, else 0.  series(n) returns a list of
    (value, remainder count, met); unless every series met its target, the
    threshold doubles, at most three times."""
    n = 0
    for _ in range(4):
        if xf < thr:
            n = max(n, math.ceil(thr - xf))
        out = series(n)
        if all(met for *_, met in out):
            break
        thr *= 2
    return n, out


def _floor_mul(a: int, f, shift: int) -> int:
    """floor(a f 2^shift) for an integer a and a raw mpf f = (sign, man, exp, bc)."""
    sign, man, exp, _ = f
    t, exp = (-a * man if sign else a * man), exp + shift
    return t << exp if exp >= 0 else t >> -exp


def _stirling_defect_shifted(x, cfg: PrecisionConfig = DEFAULT_CONFIG, max_order: int = 0) -> tuple:
    """(Fs, wp, errs, n, rems) for finite x > 0, n the shift and rems[k] the
    units of the remainder of S_k(z) in errs[k]: Fs[k] 2^-wp = F_k(x),
    the k-th derivative of F_0(x) = ln Gamma(x+1) - p(x), within errs[k] units of 2^-wp,
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
        sum, at most _horner_slack units of 2^-wl as z >= 10.
    errs[k] counts the terms of F_k in units of 2^-wp, an integer.  The
    first omitted term is counted exactly in integers: |c_i| <= (|C_i| + 1)
    2^-wl and z = zi 2^s give ceil((|C_i| + 1) 2^(wp - wl - s(2i+k-1)) /
    zi^(2i+k-1)) units.  The counts 3n + 2 and 2n + 4 exceed the roundings
    they cover by at least 1.4 units of 2^-wl, and errs[k], k >= 1, adds one
    unit of 2^-wl more.
    """
    with mp.workdps(cfg.dps):
        # an mpf exactly, as specfun._split takes every dyadic x
        sign, man, e, _ = x._mpf_ if isinstance(x, mp.mpf) else mp.mpf(x)._mpf_
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
            for k in range(max_order + 1):  # (S_k(z) 2^wp, its remainder in units, Horner's, met)
                coeffs, i, met = _series_terms(k - 1, lz, _log_target(cfg))
                big_s = (_fixed_horner(coeffs, i, (zi, s), wl) << (wp - wl - s * (k + 1))) // zi ** (k + 1)
                p = 2 * i + k - 1
                rem = -(-(abs(coeffs[i - 1][2]) + 1 << (wp - wl - s * p)) // zi ** p)
                out.append((big_s, rem, _horner_slack(coeffs, i, wl), met))
            return out

        thr = _shift_threshold(cfg.working_digits) + max(max_order - 1, 0)
        n, sums = _shift(xf, thr, series)
        ui, zi = 2 * a + step, a + (n + 1) * step  # u = ui 2^(s-1)
        q = libmp.mpf_div(libmp.from_int(2 * n + 1), libmp.from_man_exp(ui, s), wl, "n")
        log_zu = libmp.mpf_log(libmp.mpf_add(q, libmp.fone), wl, "n")
        fixed = _floor_mul(ui, log_zu, s - 1 + wp) + sums[0][0] - ((2 * n + 1) << (wp - 1))
        factors = range(a + step, zi, step)  # x + j = factors[j-1] 2^s
        if n:
            prod = math.prod(factors)
            ratio = libmp.mpf_div(libmp.from_int(prod), libmp.from_int(zi ** n), wl, "n")
            fixed -= _floor_mul(1, libmp.mpf_log(ratio, wl, "n"), wp)
        sh = wp - wl
        series_units = [rem + (slack << sh) for _, rem, slack, _ in sums]
        fs, errs = [fixed], [3 + ((5 * n + 6) << sh) + series_units[0]]
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
            errs.append(n + 4 + ((6 * n + 4 if k == 1 else 1) << sh) + series_units[k])
        return fs, wp, errs, n, [rem for _, rem, _, _ in sums]


def kernel_at(x, cfg: PrecisionConfig = DEFAULT_CONFIG, max_order: int = 0) -> tuple:
    """(Fs, wp, errs) of the kernel specfun._stirling_defects at the one
    point x."""
    [(*_, fs, wp, errs)] = specfun._stirling_defects((x,), cfg, max_order)
    return fs, wp, errs


def defect_at(x, cfg: PrecisionConfig = DEFAULT_CONFIG, order: int = 0) -> SpecialValue:
    """F_order(x) of kernel_at, rounded once as the public functions round
    (specfun._rounded)."""
    fs, wp, errs = kernel_at(x, cfg, order)
    return specfun._rounded(fs[order], wp, errs[order], cfg, f"F_{order}", x)


def kernel_off_reference(got: tuple, x, cfg: PrecisionConfig, max_order: int) -> list:
    """The orders k at which the kernel's result got = (Fs, wp, errs) is
    further from the reference kernel's than the two routes' logs allow.
    wp must be equal, and so must Fs at k >= 2, which read no log.  The
    reference takes ln(z/u) and the log of the ratio from mpf_log, off by
    at most (3n+2) and (2n+4) units of 2^-wl in F_0 and (6n+3) in F_1 by its
    lemma; specfun._ln_fixed, by less than 5/16, 5/4 and 5/16 units; each
    route floors each log term at most once at 2^-wp.  errs[k] must be at
    least the reference's, whose series remainder is counted exactly, and
    exceed it by at most the spare of the kernel's count of that remainder
    from its log, 2^-29 of it and one unit."""
    fs, wp, errs, n, rems = _stirling_defect_shifted(x, cfg, max_order)
    if got[1] != wp or len(got[2]) != len(errs) or not all(
            ref <= e <= ref + Fraction(rem, 1 << 29) + 1 for e, ref, rem in zip(got[2], errs, rems)):
        return ["wp or errs"]
    with mp.workdps(cfg.dps):
        units = 1 << (wp - mp.prec - _FIXED_GUARD_BITS)  # 2^-wl in units of 2^-wp
    bounds = [(3 * n + 2 + Fraction(5, 16) + (2 * n + 4 + Fraction(5, 4) if n else 0)) * units + 1 + (n > 0),
              (6 * n + 3 + Fraction(5, 16)) * units + 1] + [1] * (max_order - 1)
    return [k for k, (f, ref, bound) in enumerate(zip(got[0], fs, bounds)) if abs(f - ref) >= bound]


@functools.lru_cache(maxsize=None)
def _phi_free_coeff(k: int) -> tuple:
    """(a_k - b_k, |a_k| + |b_k|) of phi_coeffs exactly, k >= 2, the part of
    c_k and s_k that does not depend on lambda; built once per k."""
    f = math.factorial(k + 1)
    a, b = Fraction((-1) ** (k + 1), 2 ** (k + 1) * f), Fraction(*mp.bernfrac(k + 1)) / f
    return a - b, abs(a) + abs(b)


def phi_coeffs(lam: Fraction):
    """Yield (c_k, s_k) for k = 2, 3, ..., exactly, where phi_lambda(t) =
    sum_k c_k t^k, c_k = a_k - b_k - d_k and s_k = |a_k| + |b_k| + |d_k|:

        a_k = (-1/2)^(k+1)/(k+1)!,  b_k = B_(k+1)/(k+1)!,
        d_k = (-lambda)^(k-1)/(24 (k-1)!),

    from the series of e^{-t/2}/t, 1/(e^t-1) and t e^{-lambda t}/24.  The
    coefficients of t^-1 .. t^1 cancel, and c_2 = (2 lambda - 1)/48.  The
    lambda-free parts come from _phi_free_coeff; per lambda only d_k is
    formed, d_(k+1) = d_k (-lambda)/k.
    """
    d = -lam / 24
    for k in itertools.count(2):
        free, size = _phi_free_coeff(k)
        yield free - d, size + abs(d)
        d = d * -lam / k


# The phi_lambda layer as it stood before it moved onto integer intervals,
# copied from monotone: the certificate's box enclosures on raw libmp interval
# pairs at prec bits, and the Laplace enclosure in mpmath.iv.  The integer
# forms must hold what these hold, at most a few units of their scale wider.


@contextlib.contextmanager
def iv_dps(dps: int):
    """mpmath.iv at dps digits; its precision is restored on exit or raise."""
    prec = iv.prec
    iv.dps = dps
    try:
        yield
    finally:
        iv.prec = prec


def iv_of(enc, wp):
    """The mpmath.iv interval of an integer interval enc at scale 2^-wp,
    rounded outward at iv.prec."""
    return iv.mpf([mp.make_mpf(libmp.from_man_exp(v, -wp)) for v in enc])


@functools.lru_cache(maxsize=16)
def phi_series_iv(lam, prec: int) -> tuple:
    """(coefficients, remainder) of monotone._phi_series in mpmath.iv at prec
    bits, which must be iv.prec: phi_lambda(t)/t^p lies in sum_i
    coefficients[i] t^i + remainder for 0 < t <= 2."""
    coeffs = [c for c, _ in itertools.islice(phi_coeffs(Fraction(lam)), _TAYLOR_TERMS)]
    p, n = (2 if coeffs[0] else 3), _TAYLOR_TERMS + 1
    lm2, inv_pi = 2 * iv.mpf(lam), 1 / iv.pi
    r = mp.inf
    if lm2 < n + 1:
        r = ((1 / iv.mpf(math.factorial(n + 2)) + 2 * inv_pi ** (n + 2) / (1 - inv_pi)
              + lm2 ** n / (12 * math.factorial(n) * (1 - lm2 / (n + 1)))) / 2 ** p).b
    return tuple(iv.mpf(c.numerator) / c.denominator for c in coeffs[p - 2:]), iv.mpf([-r, r])


_HALF, _ONE, _TWO, _C24 = ((v, v) for v in (fhalf, fone, ftwo, from_int(24)))


def phi_terms_mpi(t, prec: int) -> tuple:
    """(e^{-t/2}/t, 1/(e^t-1)) for a pair t >= 1: u = e^{-t/2}, and u/t and
    u^2/(1 - u^2) both increase with u, so no width is lost to dependency."""
    u = mpi_exp(mpi_div(mpi_neg(t, prec), _TWO, prec), prec)
    u2 = mpi_mul(u, u, prec)
    return mpi_div(u, t, prec), mpi_div(u2, mpi_sub(_ONE, u2, prec), prec)


def phi_d2_mpi(x, lm, prec: int):
    """phi_lambda''(x) for a pair x >= 1 and lm = lambda as a pair, with
    a = e^{-t/2}/t and b = 1/(e^t-1) (phi_terms_mpi):

        phi'' = a (1/t^2 + (1/2 + 1/t)^2) - b (1+b) (1+2b)
                - (lambda^2 t - 2 lambda) e^{-lambda t}/24.
    """
    a, b = phi_terms_mpi(x, prec)
    inv = mpi_div(_ONE, x, prec)
    a_part = mpi_mul(a, mpi_add(mpi_pow_int(inv, 2, prec),
                                mpi_pow_int(mpi_add(_HALF, inv, prec), 2, prec), prec), prec)
    b_part = mpi_mul(mpi_mul(b, mpi_add(_ONE, b, prec), prec),
                     mpi_add(_ONE, mpi_mul(_TWO, b, prec), prec), prec)
    poly = mpi_sub(mpi_mul(mpi_mul(lm, lm, prec), x, prec), mpi_mul(_TWO, lm, prec), prec)
    lam_part = mpi_div(mpi_mul(poly, mpi_exp(mpi_mul(mpi_neg(lm, prec), x, prec), prec), prec),
                       _C24, prec)
    return mpi_sub(mpi_sub(a_part, b_part, prec), lam_part, prec)


def phi_centred_mpi(x, m, lm, prec: int):
    """An enclosure of phi_lambda on the box x (a pair within [1, inf)) with
    midpoint m (a pair), lm = lambda as a pair: the second-order centred
    form phi(m) + phi'(m) (x - m) + phi''(x) (x - m)^2 / 2 of
    phi_sign_certificate, with (x - m)^2 an even power, so [0, r^2]."""
    a, b = phi_terms_mpi(m, prec)
    e = mpi_div(mpi_exp(mpi_mul(mpi_neg(lm, prec), m, prec), prec), _C24, prec)
    phi_m = mpi_sub(mpi_sub(a, b, prec), mpi_mul(m, e, prec), prec)
    dphi_m = mpi_sub(mpi_sub(mpi_mul(b, mpi_add(_ONE, b, prec), prec),
                             mpi_mul(mpi_add(_HALF, mpi_div(_ONE, m, prec), prec), a, prec), prec),
                     mpi_mul(mpi_sub(_ONE, mpi_mul(lm, m, prec), prec), e, prec), prec)
    d = mpi_sub(x, m, prec)
    d2_part = mpi_div(mpi_mul(phi_d2_mpi(x, lm, prec), mpi_pow_int(d, 2, prec), prec), _TWO, prec)
    return mpi_add(mpi_add(phi_m, mpi_mul(dphi_m, d, prec), prec), d2_part, prec)


def phi_horner_mpi(x, coeffs, rem, prec: int):
    """sum_i coeffs[i] x^i + rem by Horner's rule, all pairs: the Taylor
    piece of phi_sign_certificate on a box x within (0, 2]."""
    s = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        s = mpi_add(mpi_mul(s, x, prec), c, prec)
    return mpi_add(s, rem, prec)


def moments_iv(xi, n: int, e2x) -> list:
    """[M_0(x), ..., M_n(x)] in mpmath.iv, M_k(x) = int_0^2 t^k e^{-xt} dt,
    for an iv x > 0 and e2x = e^{-2x}.  Integration by parts gives
    M_k = (k M_(k-1) - 2^k e^{-2x})/x, so a step up scales an error by k/x
    and a step down by x/k.  The recursion runs down while e x < n, where
    the factors multiply to at most 1, from the positive series
    (DLMF 8.7.1)

        M_n(x) = e^{-2x} sum_i n! 2^(n+1+i) x^i/(n+1+i)!,

    whose term ratio 2x/(n+2+i) < 1 falls, so the first omitted term over
    1 minus its ratio bounds the rest.  Otherwise it runs up from
    M_0 = (1 - e^{-2x})/x, where they multiply to at most n! (e/n)^n, about
    sqrt(2 pi n).
    """
    half, two = iv.mpf(0.5), iv.mpf(2)
    two_x = two * xi
    if float(xi.b) * math.e < n:
        tol = mp.ldexp(1, -iv.prec)
        s, term, i = iv.mpf(0), iv.mpf(2 ** (n + 1)) / (n + 1), 0
        while not term.b < tol * s.a:
            s, term, i = s + term, term * two_x / (n + 2 + i), i + 1
        ms = [e2x * (s + iv.mpf([0, (term / (1 - two_x / (n + 2 + i))).b]))]
        w = e2x * 2 ** n  # 2^k e^{-2x}
        for k in range(n, 0, -1):
            ms.append((xi * ms[-1] + w) / k)
            w *= half
        return ms[::-1]
    ms, w = [-iv.expm1(-two_x) / xi], e2x
    for k in range(1, n + 1):
        w *= two
        ms.append((k * ms[-1] - w) / xi)
    return ms


def e1_iv(y):
    """E_1(y) in mpmath.iv for an iv y >= 1.  Up to y = iv.prec, from
    E_1(y) = -gamma - ln y - sum_k (-y)^k/(k k!) (DLMF 6.6.2), summed with
    y/2.3 + 5 extra digits, as many as its terms cancel; once the terms
    decrease (k + 1 >= y) the first omitted one bounds the alternating
    rest.  Above, from E_1(y) = e^{-y}/y (sum_(k<N) (-1)^k k!/y^k + R) with
    |R| <= N!/y^N (DLMF 6.12.1), whose terms fall below 2^-prec before k
    reaches y."""
    tol = mp.ldexp(1, -iv.prec)
    if y.b > iv.prec:
        s, u, k = iv.mpf(0), iv.mpf(1), 0  # u = k!/y^k
        while u.b >= tol and k < y.a:
            s, k = (s - u if k % 2 else s + u), k + 1
            u = u * k / y
        return iv.exp(-y) / y * (s + iv.mpf([-u.b, u.b]))
    y_hi = float(y.b)
    with iv_dps(iv.dps + int(y_hi / 2.3) + 5):
        s, u, k, minus_y = iv.mpf(0), iv.mpf(1), 1, -y  # u = (-y)^k/k!
        while True:
            ki = iv.mpf(k)
            u = u * minus_y / ki
            term = u / ki
            if k + 1 >= y_hi and abs(term).b < tol:
                break
            s, k = s + term, k + 1
        e1 = -iv.euler - iv.log(y) - s + iv.mpf([-1, 1]) * abs(term).b
    return +e1


def laplace_enclosure_iv(x, lam, cfg: PrecisionConfig = DEFAULT_CONFIG):
    """An mpmath.iv interval, at cfg.dps digits, that contains

        Q(x, lambda) = int_0^inf phi_lambda(t) e^{-xt} dt = H_lambda'(x).

    On (0, 2], phi_lambda = t^p (sum_i c_i t^i + r) with the exact
    coefficients and remainder of phi_series_iv, so that piece lies in
    sum_i c_i M_(p+i)(x) + r M_p(x) (moments_iv).  On [2, inf), term by term,

        int_2^inf phi_lambda(t) e^{-xt} dt = E_1(2x+1)
            - sum_(j>=1) e^{-2(x+j)}/(x+j) - e^{-2s} (2/s + 1/s^2)/24,

    s = x + lambda, with E_1 from e1_iv and the j-sum's tail bounded by its
    first omitted term over 1 - e^{-2}.  Raises NumericalError where the
    remainder of phi_series_iv is infinite (2 lambda >= 62).
    """
    require_positive("x", x)
    monotone._check_lambda(lam)
    with iv_dps(cfg.dps):
        coeffs, rem = phi_series_iv(lam, iv.prec)
        if mp.isinf(rem.b):
            raise NumericalError(f"no Taylor remainder bound for lambda = {lam!r}")
        xi, n = iv.mpf(x), _TAYLOR_TERMS + 1
        e2x, tol = iv.exp(-2 * xi), mp.ldexp(1, -iv.prec)
        ms = moments_iv(xi, n, e2x)
        p = n + 1 - len(coeffs)  # coeffs[i] is the coefficient of t^(p+i)
        near = sum(c * m for c, m in zip(coeffs, ms[p:])) + rem * ms[p]
        q = iv.exp(iv.mpf(-2))
        jsum, qj, j = iv.mpf(0), q, 1
        while True:  # qj = e^{-2j}
            term = qj / (xi + j)
            if term.b < tol:
                break
            jsum, qj, j = jsum + term, qj * q, j + 1
        jsum += iv.mpf([0, (term / (1 - q)).b])
        s = xi + iv.mpf(lam)
        far = e1_iv(2 * xi + 1) - e2x * jsum - iv.exp(-2 * s) * (2 / s + 1 / s ** 2) / 24
        return near + far
