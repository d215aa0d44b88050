"""The shifted Stirling-defect family H_lambda and its monotonicity machinery.

H_lambda(x) = ln Gamma(x+1) - (x+1/2) ln(x+1/2) + x + 1/2 - ln sqrt(2 pi)
              + 1/(24 (x+lambda))

H_lambda'(x) has the Laplace representation  int_0^inf phi_lambda(t) e^{-xt} dt
with  phi_lambda(t) = e^{-t/2}/t - 1/(e^t - 1) - t e^{-lambda t}/24,  so the
complete monotonicity of +-H_lambda reduces to the sign of phi_lambda:

    phi_lambda <= 0 on (0, inf)  <=>  H_lambda  is completely monotonic
                                      (holds iff lambda <= 1/2),
    phi_lambda >= 0 on (0, inf)  <=>  -H_lambda is completely monotonic
                                      (holds iff lambda >= lambda_star).

One fixed-point row pass (_row_pass, its lemma in _row_margins) decides
every bound c_lo <= F_k(x) + (-1)^k k!/(d (x+lambda)^(k+1)) <= c_hi, F_k =
H_lambda^(k) without its lambda term: cm_check, the Thm 2.1 sweeps and the
Thm 3.1/3.4 rows, each margin an exact integer interval (config.Sweep).

lambda_star = sup_t h(t) with h(t) = -(1/t) ln[(24/t^2)(e^{-t/2} - t/(e^t-1))].
Everything about phi_lambda is decided on one layer of integer intervals,
pairs of ints at a scale 2^-wp rounded outward at every step, from one set
of Taylor coefficients (_phi_series, built once per lambda and scale):
phi_sign_certificate proves the sign of phi_lambda on all of (0, inf)
(Horner's rule on (0, 2], a second-order centred form in phi'' on [2, 20]);
lambda_star returns a bracket of lambda_star, from t_star found by Newton's
method and the certificate; laplace_enclosure encloses the Laplace
transform of phi_lambda, the integral path of H_lambda' that laplace_check
compares with the closed form; and phi_integrand and h_of_t return the
midpoints of the point forms that the certificate and lambda_star use
(_phi_point, _h_fixed), at a scale worked out from t and lambda.

The exponential of that layer is an integer one too (_exp_pair), so no
claim imports mpmath: only the functions that hand out an mpf or an iv
value do, when called.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .config import (
    DEFAULT_CONFIG,
    DomainError,
    NumericalError,
    PrecisionConfig,
    SpecialValue,
    Sweep,
    VERIFIED,
    require_positive,
)
from . import specfun
from .specfun import (_FIXED_GUARD_BITS, _add_interval, _bernoulli, _cdiv, _fixed_end, _fixed_mpf, _ln_pair,
                      _ln_table, _ratio)

__all__ = [
    "H_lambda",
    "H_lambda_prime",
    "H_lambda_deriv",
    "phi_integrand",
    "laplace_enclosure",
    "laplace_check",
    "h_of_t",
    "lambda_star",
    "phi_sign_certificate",
    "cm_check",
    "necessary_limit",
    "series_coeff_pivot",
    "series_coeff_lambda",
    "kth_root_bound",
    "kth_root_gap",
    "CMReport",
    "ThresholdResult",
    "default_cm_grid",
]


def _check_lambda(lam) -> None:
    if not 0 <= lam < math.inf:  # rejects nan and +-inf too
        raise DomainError(f"lambda must be finite and nonnegative, got {lam!r}")


def _plus_lambda_fixed(f: int, a: int, s: int, term: tuple, wp: int) -> int:
    """(F_k(x) + (-1)^k k!/(d (x+lambda)^(k+1))) 2^wp, term = (k, k!, d,
    man, exp) for lambda = man 2^exp, formed once per row, within one unit
    more than f = F_k(x) 2^wp, an integer of the kernel
    (specfun._stirling_defects), which gives x = a 2^s.  Both are exact
    integers times powers of two, so x + lambda = Y 2^t is exact and the
    lambda term is the floor of one integer quotient."""
    k, num, d, man, exp = term
    t = min(s, exp)
    shift = wp - t * (k + 1)
    den = d * ((a << (s - t)) + (man << (exp - t))) ** (k + 1)
    big = (num << shift) // den if shift >= 0 else num // (den << -shift)
    return f - big if k % 2 else f + big


def _H_fixed(k: int, x, lam, cfg: PrecisionConfig) -> tuple:
    """(H, wp, units): H_lambda^(k)(x), k >= 0, within units of H 2^-wp, the
    kernel's F_k at x plus the lambda term (_plus_lambda_fixed), x and
    lambda as specfun._man_exp gives them at cfg's bits.  The count is the
    kernel's and one unit of 2^-wp for the term's floor."""
    lm = specfun._man_exp(lam, specfun._constants(cfg).prec)
    [(_, a, s, fs, wp, errs)] = specfun._stirling_defects((x,), cfg, k)
    return _plus_lambda_fixed(fs[k], a, s, (k, math.factorial(k), 24, *lm), wp), wp, errs[k] + 1


def _H_rounded(k: int, x, lam, cfg: PrecisionConfig) -> SpecialValue:
    """H_lambda^(k)(x) as a SpecialValue: _H_fixed's integer rounded once
    (specfun._rounded)."""
    return specfun._rounded(*_H_fixed(k, x, lam, cfg), cfg, f"H_lambda^({k})", x)


def H_lambda(x, lam, cfg: PrecisionConfig = DEFAULT_CONFIG) -> SpecialValue:
    """H_lambda(x) = F_0(x) + 1/(24 (x+lambda)), F_0 from the kernel
    specfun._stirling_defects, with its certified error bound (see
    _H_rounded)."""
    require_positive("x", x)
    _check_lambda(lam)
    return _H_rounded(0, x, lam, cfg)


def H_lambda_prime(x, lam, cfg: PrecisionConfig = DEFAULT_CONFIG) -> SpecialValue:
    """H_lambda'(x) = psi(x+1) - ln(x+1/2) - 1/(24 (x+lambda)^2), the
    closed-form path of the Laplace check."""
    return H_lambda_deriv(1, x, lam, cfg)


def H_lambda_deriv(n: int, x, lam, cfg: PrecisionConfig = DEFAULT_CONFIG) -> SpecialValue:
    """n-th derivative of H_lambda, n >= 1, in closed form:

        H^(n)(x) = F_n(x) + (-1)^n n! / (24 (x+lambda)^(n+1)),

    F_n(x) = psi^(n-1)(x+1) + (-1)^(n-1) (n-2)! / (x+1/2)^(n-1) for n >= 2
    and psi(x+1) - ln(x+1/2) at n = 1, summed by the kernel
    specfun._stirling_defects; the lambda term is added to its integer
    and the sum rounded once (_H_rounded).  Validated against central
    finite differences and mpmath's polygamma.
    """
    if not (isinstance(n, int) and n >= 1):
        raise DomainError(f"derivative order must be a positive integer, got {n!r}")
    require_positive("x", x)
    _check_lambda(lam)
    return _H_rounded(n, x, lam, cfg)


# --- the integer interval layer of phi_lambda -------------------------------
#
# specfun's intervals, at wp = specfun._constants(cfg).wl or _point_prec; box
# ends, x and lambda enter as exact ratios, e^q by _exp_pair, ln y by
# specfun._ln_pair, and pi and gamma by specfun._pi_pair and _euler_pair.

_T_TAIL = 20.0  # Taylor piece on (0, 2], centred forms on [2, 20], closed-form tail
_CERT_MAX_BOXES = 2000  # bisection budget of one certificate
_TAYLOR_TERMS = 60  # c_2 .. c_61; the remainder is below 1e-30 for lambda <= 3/2
_POINT_MAX_BITS = 1 << 16  # most bits phi_integrand and h_of_t add for t (_point_prec)


_EXP_T = 7  # _exp_pair reads e^(c/2^_EXP_T), c = 0..88, from a table
_EXP_TABLES: dict = {}  # B -> _exp_table(B), built on first use
_LOG2_E = 1 / math.log(2)  # the float nearest log2(e)


def _exp_table(big_b: int) -> list:
    """[E_c for c = 0..88], 2^B e^(c/2^T) - 3/2 < E_c <= 2^B e^(c/2^T), T =
    _EXP_T, for B >= 64, from exact integers alone, at B' = B + h bits, h =
    bitlen(B) + 8.  A = sum_i floor(2^B'/(2^(T i) i!)), each term an exact
    floor (P_i = floor(P_(i-1)/(2^T i))) taken while P_i > 0, I of them, I
    <= B'/7 + 1, is below 2^B' e^(1/2^T) by d_1 < I + 1.01.  F_0 = 2^B' and
    F_c = floor(F_(c-1) A 2^-B') are low by d_c < 1 + d_(c-1) e^(1/2^T) +
    e^((c-1)/2^T) d_1, so d_c <= c e^(c/2^T) (1 + d_1) < 176 (I + 2.01) <=
    26 B' + 530 < 2^(h-1) for c <= 88 (e^(88/128) < 2), and E_c = floor(F_c
    2^-h)."""
    table = _EXP_TABLES.get(big_b)
    if table is None:
        h = big_b.bit_length() + 8
        one = 1 << (big_b + h)
        a, p, i = 0, one, 0
        while p:
            a, i = a + p, i + 1
            p //= i << _EXP_T
        f, table = one, [1 << big_b]
        for _ in range(88):
            f = f * a >> (big_b + h)
            table.append(f >> h)
        _EXP_TABLES[big_b] = table
    return table


def _exp_reduce(lo: int, hi: int, d: int, w: int) -> tuple:
    """(k, r_lo, r_hi): q - k ln 2 lies in [r_lo, r_hi] 2^-w for every q in
    [lo, hi] 2^-d, and 0 <= r_lo < 2^w ln 2.  ln 2 is [l_lo, l_hi] 2^-w from
    _ln_table's last entry, low by less than 3/2 at B >= w + 64 bits,
    floored and ceiled; the ends of q are floored and ceiled to Q_lo, Q_hi.
    k = floor(Q_lo/l_hi) for Q_lo >= 0, else floor(Q_lo/l_lo), so that the
    end of ln 2 which makes q - k ln 2 least leaves r_lo = Q_lo - k l in [0,
    l), and the other end gives r_hi.  r_hi - r_lo is at most the width of
    [Q_lo, Q_hi] plus 3 |k|."""
    big_b = (w + 127) & -64
    ln2, sh = _ln_table(big_b)[-1], big_b - w
    l_lo, l_hi = ln2 >> sh, ((ln2 + 2) >> sh) + 1
    q_lo, q_hi = (lo << (w - d), hi << (w - d)) if d <= w else (lo >> (d - w), _cdiv(hi, 1 << (d - w)))
    if q_lo >= 0:
        k = q_lo // l_hi
        return k, q_lo - k * l_hi, q_hi - k * l_lo
    k = q_lo // l_lo
    return k, q_lo - k * l_lo, q_hi - k * l_hi


def _exp_series(r: int, dr: int, w: int) -> tuple:
    """(S, S_hi) with S <= 2^w e^y <= S_hi for every y in [r, r + dr] 2^-w,
    0 <= r < 2^(w-7), 0 <= dr <= 2^(w-7), by the Taylor series of e^y:
    P_0 = 2^w and P_i = floor(floor(P_(i-1) r 2^-w)/i), an exact floor of
    P_(i-1) r/(i 2^w), summed while P_i > 0, I terms.  Every floor is low,
    so S is too; the gaps e_i = 2^w (r 2^-w)^i/i! - P_i obey 0 <= e_i < 1 +
    e_(i-1)/128 < 1.008, and the tail from the first P_I = 0 is below 1.02,
    so 2^w e^(r 2^-w) - S < 1.008 I + 0.02; the step from r to r + dr adds
    less than 2^w e^(2^-7) (e^(dr 2^-w) - 1) < 1.02 dr.  S_hi = S + 2 (I +
    dr) + 1 exceeds both."""
    s, p, i = 0, 1 << w, 0
    while p:
        s, i = s + p, i + 1
        p = (p * r >> w) // i
    return s, s + 2 * (i + dr) + 1


def _exp_pair(lo: int, hi: int, d: int, wp: int) -> tuple:
    """(L, H) with L <= e^q 2^wp <= H for every q in [lo, hi] 2^-d, d >= 0,
    hi - lo <= 2^(d-8) and wp >= 16: Tang's table-driven method (ACM TOMS
    15, 1989; Brent and Zimmermann, Modern Computer Arithmetic, 2010,
    4.3-4.4) on integers alone, each step rounded outward.  With k' the
    float estimate of floor(hi 2^-d/ln 2) (it sets the scale only), q = k
    ln 2 + c/2^T + y and e^q = 2^k e^(c/2^T) e^y, T = _EXP_T:

      - _exp_reduce at W2 = W + bitlen(|k'|) + 3 bits gives k and r in
        [r_lo, r_hi], shifted outward to W = max(wp + k', 0) + g, g =
        bitlen(wp) + 6, as [R, R + dr], dr <= (hi - lo) 2^(W-d) + 4 (3|k|
        units of 2^-W2 are below one of 2^-W);
      - c = floor(R 2^(T-W)) <= 88, as R < 2^W ln 2 + 1, and y in [R - c
        2^(W-T), that + dr]: _exp_series;
      - times E_c and E_c + 2 of _exp_table at B = W rounded up to 64 bits,
        floored and ceiled (c = 0 reads no table);
      - times 2^k, a shift by W - wp - k, floored and ceiled.

    Every step is monotone and rounded outward, so L and H hold e^q.  Both
    ends lie within 4 (I + dr) + 6 units of 2^-W of e^q 2^(W-k+wp), I <=
    W/7 + 1 the series' terms; for exact q, |q| <= 800 and wp >= 64 that is
    below 2^(g-3), a quarter of a unit after the shift (at least g - 1 bits,
    as k' is within 1 of k), so H - L <= 2.  Where e^hi 2^wp < 1/2 (k' + wp
    < -2), (0, 1)."""
    kf = math.floor(hi / (1 << d) * _LOG2_E)
    if kf + wp < -2:
        return 0, 1
    big_w = max(wp + kf, 0) + wp.bit_length() + 6
    w2 = big_w + abs(kf).bit_length() + 3
    k, r_lo, r_hi = _exp_reduce(lo, hi, d, w2)
    sh = w2 - big_w
    r = r_lo >> sh
    c = r >> (big_w - _EXP_T)
    s, s_hi = _exp_series(r - (c << (big_w - _EXP_T)), _cdiv(r_hi, 1 << sh) - r, big_w)
    if c:
        big_b = (big_w + 63) & -64
        e = _exp_table(big_b)[c]
        s, s_hi = s * e >> big_b, _cdiv(s_hi * (e + 2), 1 << big_b)
    sh = big_w - wp - k
    if sh < 0:
        return s << -sh, s_hi << -sh
    return s >> sh, _cdiv(s_hi, 1 << sh)


def _exp_fixed(num: int, den: int, wp: int) -> tuple:
    """(lo, hi) with lo <= e^q 2^wp <= hi for q = num/den, from _exp_pair at
    exact q; e^0 = 1 is exact.  q must be a binary fraction (den a power of
    two), as every float is."""
    if num == 0:
        return (1 << wp,) * 2
    if den & (den - 1):
        raise DomainError(f"x and lambda must be binary fractions, as floats are; e^({num}/{den}) is asked")
    return _exp_pair(num, num, den.bit_length() - 1, wp)


@functools.lru_cache(maxsize=16)
def _phi_series(lam, wp: int) -> tuple:
    """(coefficients, remainder): phi_lambda(t)/t^p lies in sum_i C_i y^i
    + [-R, R] 2^-wp for y = t/2 in (0, 1], p = 3 if c_2 = 0 (lambda = 1/2),
    else 2, and phi_lambda(t) = sum_{k>=2} c_k t^k, c_k = a_k - b_k - d_k =
    (-1/2)^(k+1)/(k+1)! - B_(k+1)/(k+1)! - (-lambda)^(k-1)/(24 (k-1)!), from
    the series of e^{-t/2}/t, 1/(e^t-1) and t e^{-lambda t}/24.  coefficients
    holds the intervals C_i of c_(p+i) 2^(i+wp), each term floored and ceiled
    exactly, and remainder is the int R, or None where it is unbounded.
    Built once per (lambda, wp).  Keeping c_p .. c_n, n = _TAYLOR_TERMS + 1, the bounds
    |a_k| = 2^-(k+1)/(k+1)!, |b_k| <= 4/(2 pi)^(k+1), |d_k| = lambda^(k-1)/(24
    (k-1)!) and t^(k-p) <= 2^(k-p) give, for 2 lambda < n + 1,

        2^p |remainder| <= 1/(n+2)! + 2 pi^-(n+2)/(1 - 1/pi)
                           + (2 lambda)^n/(12 n! (1 - 2 lambda/(n+1))),

    each term an integer quotient rounded up, the middle one from the lower
    end Pi of specfun._pi_pair at v = wp + 8 bits: 2 pi^-(n+2)/(1 - 1/pi) =
    2/(pi^(n+1) (pi - 1)) <= 2^(v(n+2)+1)/(Pi^(n+1) (Pi - 2^v)).
    """
    lm = Fraction(*_ratio(lam))
    p, n = (3 if 2 * lm == 1 else 2), _TAYLOR_TERMS + 1
    big = []
    for k in range(p, n + 1):  # c_k = a_k - b_k - d_k, each term rounded at 2^(k-p+wp)
        shift, f = k - p + wp, math.factorial(k + 1)
        bn, bd = _bernoulli(k + 1)
        terms = (((-1) ** (k + 1) << shift, 2 ** (k + 1) * f), (-bn << shift, bd * f),
                 (-((-lm.numerator) ** (k - 1)) << shift,
                  24 * math.factorial(k - 1) * lm.denominator ** (k - 1)))
        big.append((sum(t // d for t, d in terms), sum(_cdiv(t, d) for t, d in terms)))
    if not 2 * lm < n + 1:
        return tuple(big), None
    v, ln, ld = wp + 8, lm.numerator, lm.denominator
    big_pi = specfun._pi_pair(v)[0]
    one = 1 << (wp - p)  # the remainder's 2^-p folded into the scale
    return tuple(big), (_cdiv(one, math.factorial(n + 2))
                        + _cdiv(one << (v * (n + 2) + 1), big_pi ** (n + 1) * (big_pi - (1 << v)))
                        + _cdiv((2 * ln) ** n * (n + 1) * one,
                                12 * math.factorial(n) * ld ** (n - 1) * ((n + 1) * ld - 2 * ln)))


def _phi_horner(y: tuple, coeffs: tuple, rem: int, wp: int) -> tuple:
    """sum_i coeffs[i] y^i + [-rem, rem] by Horner's rule on a box y = (lo,
    hi), 0 <= lo <= hi <= 2^wp: the Taylor piece of phi_sign_certificate in
    y = t/2 (see _phi_series).  With y <= 1 no step amplifies an earlier
    rounding."""
    ylo, yhi = y
    slo, shi = coeffs[-1]
    for clo, chi in coeffs[-2::-1]:
        slo = ((slo * (ylo if slo >= 0 else yhi)) >> wp) + clo
        shi = -((-shi * (yhi if shi >= 0 else ylo)) >> wp) + chi
    return slo - rem, shi + rem


def _phi_b(u: tuple, wp: int) -> tuple:
    """b = 1/(e^t-1) = u^2/(1 - u^2), increasing in u, from u = (lo, hi)
    of e^{-t/2} < 1."""
    one = 1 << 2 * wp
    return (u[0] * u[0] << wp) // (one - u[0] * u[0]), _cdiv(u[1] * u[1] << wp, one - u[1] * u[1])


def _phi_point(t: tuple, u: tuple, e: tuple, wp: int) -> tuple:
    """(phi, b), the intervals of phi_lambda(t) = a - b - t e/24, a = u/t,
    and of b = _phi_b(u) at a point t = (num, den), given the intervals u of
    e^{-t/2} and e of e^{-lambda t}."""
    (tn, td), b = t, _phi_b(u, wp)
    return ((u[0] * td) // tn - b[1] - _cdiv(e[1] * tn, 24 * td),
            _cdiv(u[1] * td, tn) - b[0] - (e[0] * tn) // (24 * td)), b


def _h_fixed(t: tuple, wp: int) -> tuple:
    """The interval of h(t) = -ln(24 (a - b)/t)/t at a point t = (num, den),
    a - b from _phi_point with e = 0, with one log at each end of the
    bracket 24 (a - b)/t = 1 + 24 phi_0(t)/t."""
    tn, td = t
    (lo, hi), _ = _phi_point(t, _exp_fixed(-tn, 2 * td, wp), (0, 0), wp)
    bracket = (24 * lo * td) // tn, _cdiv(24 * hi * td, tn)
    if bracket[0] <= 0:
        raise NumericalError(f"h(t) has no real value at t = {Fraction(tn, td)}")
    log_lo, log_hi = _ln_pair(bracket[0], 1 << wp, wp)[0], _ln_pair(bracket[1], 1 << wp, wp)[1]
    return (-log_hi * td) // tn, _cdiv(-log_lo * td, tn)


def _phi_d2(t: tuple, u: tuple, e: tuple, lr: tuple, wp: int) -> tuple:
    """phi_lambda'' on the box t = (tl, tr) of floats, 1 <= tl <= tr, given
    u = (lo of e^{-tr/2}, hi of e^{-tl/2}), e = (lo of e^{-lambda tr}, hi of
    e^{-lambda tl}) and lr = _ratio(lambda):

        phi'' = a g - b (1+b) (1+2b) - lambda (lambda t - 2) e^{-lambda t}/24,

    a = e^{-t/2}/t, g = 1/t^2 + (1/2 + 1/t)^2 and b = 1/(e^t-1).  a g and
    b (1+b) (1+2b) decrease in t, so take their ends at the box's ends;
    lambda (lambda t - 2), increasing, is multiplied as an interval."""
    (tln, tld), (trn, trd) = t[0].as_integer_ratio(), t[1].as_integer_ratio()
    ln, ld = lr
    one = 1 << wp
    # a g = e^{-t/2} (4 + (t+2)^2)/(4 t^3)
    ag_lo = (u[0] * (4 * trd * trd + (trn + 2 * trd) ** 2) * trd) // (4 * trn ** 3)
    ag_hi = _cdiv(u[1] * (4 * tld * tld + (tln + 2 * tld) ** 2) * tld, 4 * tln ** 3)
    blo, bhi = _phi_b(u, wp)
    b3_lo = (blo * (one + blo) * (one + 2 * blo)) >> 2 * wp
    b3_hi = _cdiv(bhi * (one + bhi) * (one + 2 * bhi), one * one)
    # lambda (lambda t - 2)/24 at tl and tr, each over its own denominator
    p_lo, p_hi = ln * (ln * tln - 2 * ld * tld), ln * (ln * trn - 2 * ld * trd)
    lam_lo = (p_lo * (e[1] if p_lo < 0 else e[0])) // (24 * ld * ld * tld)
    lam_hi = _cdiv(p_hi * (e[1] if p_hi >= 0 else e[0]), 24 * ld * ld * trd)
    return ag_lo - b3_hi - lam_hi, ag_hi - b3_lo - lam_lo


def _point_exps(t: tuple, lr: tuple, wp: int) -> tuple:
    """The intervals of e^{-t/2} and e^{-lambda t} at a point t = (num,
    den), lr = _ratio(lambda)."""
    (tn, td), (ln, ld) = t, lr
    return _exp_fixed(-tn, 2 * td, wp), _exp_fixed(-ln * tn, ld * td, wp)


def _point_prec(t: tuple, lr: tuple, prec: int) -> int:
    """wp of the point functions for t = (num, den) and lr = _ratio(lambda)
    at prec bits (mp.prec): the terms of phi are about 1/t, phi can be as
    small as t^3 (lambda = 1/2) and 1 - e^{-t} ~ t costs one more factor of
    t, so 5 bits per halving of t below 1 (-mag t of them); and at large t,
    phi is about e^{-min(lambda, 1/2) t}, which needs t min(lambda, 1/2)
    log2(e) more bits to keep prec of its own.  Beyond _POINT_MAX_BITS of these two
    (t below about 1e-3945, or t min(lambda, 1/2) above about 45000) the
    integers would take seconds, so NumericalError is raised."""
    (tn, td), (ln, ld) = t, lr
    extra = (5 * max(0, td.bit_length() - 1 - tn.bit_length())
             + _cdiv(145 * tn * min(2 * ln, ld), 200 * td * ld))
    if extra > _POINT_MAX_BITS:
        from mpmath import mp
        raise NumericalError(f"t = {mp.nstr(mp.mpf(tn) / td, 5)} needs over {_POINT_MAX_BITS} more bits")
    return prec + _FIXED_GUARD_BITS + extra


def _point_ratio(v, prec: int) -> tuple:
    """(num, den) of t or lambda as specfun._man_exp gives it at prec bits."""
    man, e = specfun._man_exp(v, prec)
    return (man * Fraction(2) ** e).as_integer_ratio()


def phi_integrand(t, lam):
    """phi_lambda(t) = e^{-t/2}/t - 1/(e^t-1) - t e^{-lambda t}/24 for t > 0,
    lambda >= 0: the midpoint of _phi_point, the certificate's point form,
    at t and lambda as _point_ratio gives them, on the integer intervals at
    _point_prec bits, from one exponential of -t/2 and one of -lambda t."""
    from mpmath import mp
    require_positive("t", t)
    _check_lambda(lam)
    tr, lr = _point_ratio(t, mp.prec), _point_ratio(lam, mp.prec)
    wp = _point_prec(tr, lr, mp.prec)
    return _fixed_mpf(_phi_point(tr, *_point_exps(tr, lr, wp), wp)[0], wp)


def h_of_t(t):
    """h(t) = -(1/t) ln[(24/t^2)(e^{-t/2} - t/(e^t-1))]; h -> 1/2 at both ends.

    The midpoint of the interval of _h_fixed, whose lower end lambda_star
    takes, at t as _point_ratio gives it, on the integer intervals at
    _point_prec bits with lambda = 1/2: the bracket 24 (a - b)/t falls like
    e^{-t/2}, and its log needs the bracket's relative precision."""
    from mpmath import mp
    require_positive("t", t)
    tr = _point_ratio(t, mp.prec)
    wp = _point_prec(tr, (1, 2), mp.prec)
    return _fixed_mpf(_h_fixed(tr, wp), wp)


def _radius_exps(r: tuple, lr: tuple, wp: int, factors: dict) -> tuple:
    """The intervals of e^{r/2}, e^{lambda r}, e^{-r/2} and e^{-lambda r}
    for r = (num, den) in lowest terms, kept in factors per r: bisection
    makes few distinct radii."""
    if r not in factors:
        factors[r] = _point_exps((-r[0], r[1]), lr, wp) + _point_exps(r, lr, wp)
    return factors[r]


def _float_sub(x: float, y: float) -> tuple:
    """x - y exactly, as (num, den) in lowest terms, den a power of two."""
    (xn, xd), (yn, yd) = x.as_integer_ratio(), y.as_integer_ratio()
    d = max(xd, yd)
    n = xn * (d // xd) - yn * (d // yd)
    k = min((n & -n).bit_length(), d.bit_length()) - 1 if n else d.bit_length() - 1
    return n >> k, d >> k


def _scaled(v: tuple, f: tuple, wp: int) -> tuple:
    """The product of two intervals of positive reals."""
    return (v[0] * f[0]) >> wp, _cdiv(v[1] * f[1], 1 << wp)


def _phi_centred(t: tuple, mid: tuple, lr: tuple, wp: int, factors: dict) -> tuple:
    """An enclosure of phi_lambda on the box t = (tl, tr) of floats within
    [1, inf), lr = _ratio(lambda): the second-order centred form

        phi(m) + phi'(m) (t - m) + phi''(t) (t - m)^2 / 2

    of phi_sign_certificate at the float m = (tl + tr)/2, t - m in [-a, b]
    with a = m - tl and b = tr - m exact, so (t - m)^2 in [0, max(a, b)^2].
    mid holds the intervals of e^{-m/2} and e^{-lambda m} (_point_exps); the
    box's ends take theirs times those of e^{a/2}, e^{lambda a}, e^{-b/2}
    and e^{-lambda b} (_radius_exps), so a box makes no exponential of its
    own."""
    tl, tr = t
    m = (tl + tr) / 2
    (mn, md), (an, ad), (bn, bd) = m.as_integer_ratio(), _float_sub(m, tl), _float_sub(tr, m)
    ln, ld = lr
    one = 1 << wp
    um, em = mid
    up, lam_up = _radius_exps((an, ad), lr, wp, factors)[:2]
    down, lam_down = _radius_exps((bn, bd), lr, wp, factors)[2:]
    u = _scaled(um, down, wp)[0], _scaled(um, up, wp)[1]
    e = _scaled(em, lam_down, wp)[0], _scaled(em, lam_up, wp)[1]
    (phi_lo, phi_hi), (blo, bhi) = _phi_point((mn, md), um, em, wp)
    # phi'(m) = b (1+b) - (1/2 + 1/m) a - (1 - lambda m) e^{-lambda m}/24,
    # (1/2 + 1/m) a = e^{-m/2} (m + 2)/(2 m^2)
    cn, cd = (mn + 2 * md) * md, 2 * mn * mn
    kn, kd = ld * md - ln * mn, 24 * ld * md  # (1 - lambda m)/24
    ke_lo = (kn * (em[0] if kn >= 0 else em[1])) // kd
    ke_hi = _cdiv(kn * (em[1] if kn >= 0 else em[0]), kd)
    dphi_lo = ((blo * (one + blo)) >> wp) - _cdiv(um[1] * cn, cd) - ke_hi
    dphi_hi = _cdiv(bhi * (one + bhi), one) - (um[0] * cn) // cd - ke_lo
    d2_lo, d2_hi = _phi_d2(t, u, e, lr, wp)
    # phi'(m) [-a, b] + phi''(t) [0, max(a, b)^2]/2, a and b over den
    a, b, den = an * bd, bn * ad, ad * bd
    r2, den2 = max(a, b) ** 2, 2 * den * den
    return (phi_lo + min(-dphi_hi * a, dphi_lo * b) // den + (min(d2_lo, 0) * r2) // den2,
            phi_hi + _cdiv(max(-dphi_lo * a, dphi_hi * b), den) + _cdiv(max(d2_hi, 0) * r2, den2))


def _centred_prec(wp: int, lr: tuple) -> int:
    """The scale of the centred boxes of phi_sign_certificate: a box's
    exponentials come from its parent's (or, for its ends, its midpoint's)
    times e^{+-d/2} and e^{+-lambda d}, which multiply an error by up to
    e^{9 max(lambda, 1/2)} between t = 2 and 20, so they run at 13.1
    max(lambda, 1/2) + 8 more bits than wp."""
    return wp + 8 + math.ceil(13.1 * max(Fraction(*lr), Fraction(1, 2)))


def _phi_tail(lr: tuple, sign: int, wp: int) -> tuple:
    """An enclosure of a closed-form margin of sign * phi_lambda > 0 on
    [_T_TAIL, inf), (-1, 1) where none applies (undecided)."""
    t, mu = Fraction(_T_TAIL), Fraction(*lr) - Fraction(1, 2)
    if sign < 0 and mu <= 0:
        # -1/(e^t-1) < 0 and e^{-lambda t} >= e^{-t/2}, so for t >= 20:
        # phi(t) < e^{-t/2} (1/t - t/24) <= e^{-t/2} (1/20 - 20/24)
        return _fixed_end(t / 24 - 1 / t, wp)
    if sign > 0 and mu * t >= 2:
        # 1/(e^t-1) <= 2 e^{-t}, so t e^{t/2} phi(t) >= 1 - 2t e^{-t/2}
        # - t^2 e^{-mu t}/24, whose two terms decrease for t >= 2/mu
        a = _exp_fixed(-int(t), 2, wp)
        b = _exp_fixed(-(mu * t).numerator, (mu * t).denominator, wp)
        c = 2 * int(t)
        return ((1 << wp) - c * a[1] - _cdiv(int(t) ** 2 * b[1], 24),
                (1 << wp) - c * a[0] - (int(t) ** 2 * b[0]) // 24)
    return -1, 1


def phi_sign_certificate(lam, sign: int, cfg: PrecisionConfig = DEFAULT_CONFIG) -> tuple:
    """(min_margin, argmin, verdict) of sign * phi_lambda(t) >= 0 for all
    t > 0 (sign = 1 or -1), proved on the integer intervals at cfg's
    precision (specfun._constants(cfg).wl).

    By Bernstein's theorem phi_lambda <= 0 on (0, inf) makes H_lambda
    completely monotonic and phi_lambda >= 0 makes -H_lambda so.  Pieces:
    (0, 2], the polynomial of _phi_series in y = t/2 by Horner's rule plus
    its remainder, so margins of sign * phi/t^p; [2, 20], the second-order
    centred form of _phi_centred on a box X with midpoint m,

        phi(m) + phi'(m) (X - m) + phi''(X) (X - m)^2 / 2,

    with phi(m) and phi'(m) taken at the point m, b = 1/(e^t-1) and

        phi'(t) = -(1/2 + 1/t) e^{-t/2}/t + b (1 + b) - (1 - lambda t) e^{-lambda t}/24,

    phi'' over the box from _phi_d2, and (X - m)^2 an even power, so
    [0, r^2] for r the box's larger half; beyond 20, a closed-form bound whose
    slack is the margin (_phi_tail).  A box whose enclosure holds 0 is
    bisected, up to _CERT_MAX_BOXES boxes.  Each leaf adds its enclosure to
    one Sweep (specfun._add_interval): "verified" needs every enclosure to have
    its lower end >= 0 after the sign, one wholly below 0 gives
    "falsified" and ends the proof, anything else is "indeterminate" (so is
    lambda above about 3, where the Taylor piece is too wide, and 2 lambda
    >= 62, where its remainder is unbounded).
    """
    _check_lambda(lam)
    if sign not in (1, -1):
        raise DomainError(f"sign must be 1 or -1, got {sign!r}")
    wp, lr = specfun._constants(cfg).wl, _ratio(lam)
    coeffs, rem = _phi_series(lam, wp)
    sweep, boxes, factors = Sweep(), 0, {}
    if rem is None:
        sweep.add(1.0, 0.0, -1, 1)  # the Taylor piece decides nothing
    # a centred box carries its midpoint's exponentials (_point_exps), and
    # hands each half those at its own midpoint m' = m -+ d, e^{-m'/2} =
    # e^{-m/2} e^{+-d/2} and e^{-lambda m'} = e^{-lambda m} e^{+-lambda d},
    # with d = |m - m'| exact, the half's radius (_radius_exps), at the finer
    # scale of _centred_prec
    pieces = ((False, 0.0, 2.0, wp), (True, 2.0, _T_TAIL, _centred_prec(wp, lr)))
    for centred, lo, hi, w in pieces[rem is None:]:
        stack = [(lo, hi, centred and _point_exps(((lo + hi) / 2).as_integer_ratio(), lr, w))]
        while stack:
            l, r, mid = stack.pop()
            m = (l + r) / 2
            if centred:
                enc = _phi_centred((l, r), mid, lr, w, factors)
            else:
                y = (_fixed_end(l, w - 1)[0], _fixed_end(r, w - 1)[1])  # exact at every w
                enc = _phi_horner(y, coeffs, rem, w)
            if sign < 0:
                enc = (-enc[1], -enc[0])
            boxes += 1
            if enc[0] <= 0 <= enc[1] and l < m < r and boxes < _CERT_MAX_BOXES:
                halves = (None, None)
                if centred:
                    up, lam_up = _radius_exps(_float_sub(m, (l + m) / 2), lr, w, factors)[:2]
                    down, lam_down = _radius_exps(_float_sub((m + r) / 2, m), lr, w, factors)[2:]
                    halves = ((_scaled(mid[0], up, w), _scaled(mid[1], lam_up, w)),
                              (_scaled(mid[0], down, w), _scaled(mid[1], lam_down, w)))
                stack += [(m, r, halves[1]), (l, m, halves[0])]
                continue
            _add_interval(sweep, m, *enc, w)
            if sweep.any_falsifying:
                return sweep.result()
    _add_interval(sweep, _T_TAIL, *_phi_tail(lr, sign, wp), wp)
    return sweep.result()


# --- the Laplace transform of phi_lambda, on the integer intervals ----------


def _moments(x: tuple, n: int, e2x: tuple, wp: int) -> list:
    """[N_0, ..., N_n], intervals of N_k(x) = M_k(x)/2^k, M_k(x) = int_0^2
    t^k e^{-xt} dt, for x = (num, den) > 0 and e2x the interval of
    e^{-2x}.  Integration by parts gives N_k = (k N_(k-1)/2 - e^{-2x})/x,
    so a step up scales an error by k/(2x) and a step down by 2x/k.  The
    recursion runs down while 2 e x < n, where the factors multiply to at
    most 1, from the positive series (DLMF 8.7.1)

        N_n(x) = 2 e^{-2x} sum_i n! (2x)^i/(n+1+i)!,

    whose term ratio 2x/(n+2+i) < 1 falls, so the first omitted term over
    1 minus its ratio bounds the rest.  Otherwise it runs up from
    N_0 = (1 - e^{-2x})/x, where they multiply to at most n! (e/n)^n, about
    sqrt(2 pi n); N_k > 0 clips each lower end at 0.
    """
    (xn, xd), (elo, ehi) = x, e2x
    if 5437 * xn < 1000 * n * xd:  # 2 e x < n
        tlo, thi, slo, shi, i = (2 << wp) // (n + 1), _cdiv(2 << wp, n + 1), 0, 0, 0
        while thi > 1:
            slo, shi = slo + tlo, shi + thi
            d = xd * (n + 2 + i)
            tlo, thi, i = (tlo * 2 * xn) // d, _cdiv(thi * 2 * xn, d), i + 1
        d = xd * (n + 2 + i)
        shi += _cdiv(thi * d, d - 2 * xn)
        ns = [((elo * slo) >> wp, _cdiv(ehi * shi, 1 << wp))]
        for k in range(n, 0, -1):
            lo, hi = ns[-1]
            ns.append(((2 * (xn * lo + xd * elo)) // (xd * k), _cdiv(2 * (xn * hi + xd * ehi), xd * k)))
        return ns[::-1]
    one = 1 << wp
    ns = [(((one - ehi) * xd) // xn, _cdiv((one - elo) * xd, xn))]
    for k in range(1, n + 1):
        lo, hi = ns[-1]
        ns.append((max(0, ((k * lo - 2 * ehi) * xd) // (2 * xn)), _cdiv((k * hi - 2 * elo) * xd, 2 * xn)))
    return ns


def _e1(y: tuple, wp: int) -> tuple:
    """E_1(y), y = (num, den) >= 1, at scale 2^-wp.  Up to y = prec = wp -
    _FIXED_GUARD_BITS, from E_1(y) = -gamma - ln y - sum_k (-y)^k/(k k!)
    (DLMF 6.6.2), summed with about y log2(e) + 17 extra bits, as many as
    its terms cancel; once the terms decrease (k + 1 >= y) the first omitted
    one bounds the alternating rest.  Above, 0 < E_1(y) < e^{-y}/y (DLMF
    6.8.1) < 2^-wp, since prec >= 86 makes e^-prec < 2^-(prec+20).  gamma
    and ln y are the integer intervals of specfun._euler_pair and _ln_pair."""
    yn, yd = y
    if yn > (wp - _FIXED_GUARD_BITS) * yd:
        return 0, 1
    extra = 145 * yn // (100 * yd) + 17
    we = wp + extra
    alo, ahi, slo, shi, k = 1 << we, 1 << we, 0, 0, 1  # a = y^k/k!
    while True:
        alo, ahi = (alo * yn) // (yd * k), _cdiv(ahi * yn, yd * k)
        tlo, thi = alo // k, _cdiv(ahi, k)  # |(-y)^k/(k k!)|
        if (k + 1) * yd >= yn and thi < 1 << extra:
            break
        slo, shi, k = (slo - thi, shi - tlo, k + 1) if k % 2 else (slo + tlo, shi + thi, k + 1)
    (glo, ghi), (llo, lhi) = specfun._euler_pair(we), _ln_pair(yn, yd, we)
    return (-ghi - lhi - shi - thi) >> extra, _cdiv(-glo - llo - slo + thi, 1 << extra)


def _laplace_fixed(x, lam, cfg: PrecisionConfig) -> tuple:
    """The interval, at the scale 2^-wl of specfun._constants(cfg), of Q(x,
    lambda) (see laplace_enclosure)."""
    require_positive("x", x)
    _check_lambda(lam)
    wp = specfun._constants(cfg).wl
    coeffs, rem = _phi_series(lam, wp)
    if rem is None:
        raise NumericalError(f"no Taylor remainder bound for lambda = {lam!r}")
    (xn, xd), (ln, ld), n = _ratio(x), _ratio(lam), _TAYLOR_TERMS + 1
    # the moments at 8 more bits, so that their roundings, times the
    # coefficients, stay below a unit of 2^-wp
    wm = wp + 8
    e2x_m = _exp_fixed(-2 * xn, xd, wm)
    ns = _moments((xn, xd), n, e2x_m, wm)
    p = n + 1 - len(coeffs)  # coeffs[i] is the interval of c_(p+i) 2^i
    near_lo, near_hi = -rem * ns[p][1], rem * ns[p][1]
    for (clo, chi), (nlo, nhi) in zip(coeffs, ns[p:]):
        near_lo += clo * (nlo if clo >= 0 else nhi)
        near_hi += chi * (nhi if chi >= 0 else nlo)
    one, e2x = 1 << wp, (e2x_m[0] >> 8, _cdiv(e2x_m[1], 1 << 8))
    q = _exp_fixed(-2, 1, wp)
    jlo, jhi, qlo, qhi, j = 0, 0, q[0], q[1], 1  # (qlo, qhi) holds e^{-2j}
    while True:
        d = xn + j * xd
        tlo, thi = (qlo * xd) // d, _cdiv(qhi * xd, d)
        if thi <= 1:
            break
        jlo, jhi, j = jlo + tlo, jhi + thi, j + 1
        qlo, qhi = (qlo * q[0]) >> wp, _cdiv(qhi * q[1], one)
    jhi += _cdiv(thi * one, one - q[1])
    sn, sd = xn * ld + ln * xd, xd * ld  # s = x + lambda
    es = _exp_fixed(-2 * sn, sd, wp)
    gn, gd = 2 * sn * sd + sd * sd, 24 * sn * sn  # (2/s + 1/s^2)/24
    e1lo, e1hi = _e1((2 * xn + xd, xd), wp)
    return (((near_lo << p) >> wm) + e1lo - _cdiv(e2x[1] * jhi, one) - _cdiv(es[1] * gn, gd),
            _cdiv(near_hi << p, 1 << wm) + e1hi - ((e2x[0] * jlo) >> wp) - (es[0] * gn) // gd)


def laplace_enclosure(x, lam, cfg: PrecisionConfig = DEFAULT_CONFIG):
    """An mpmath.iv interval that contains

        Q(x, lambda) = int_0^inf phi_lambda(t) e^{-xt} dt = H_lambda'(x),

    formed on the integer intervals (_laplace_fixed); its ends are theirs,
    exact at the scale 2^-wl of specfun._constants(cfg).
    On (0, 2], phi_lambda = t^p (sum_i C_i (t/2)^i + r) with the intervals
    and remainder of _phi_series, so that piece lies in 2^p (sum_i C_i
    N_(p+i)(x) + r N_p(x)) with N_k = M_k/2^k (_moments).  On [2, inf),
    term by term,

        int_2^inf phi_lambda(t) e^{-xt} dt = E_1(2x+1)
            - sum_(j>=1) e^{-2(x+j)}/(x+j) - e^{-2s} (2/s + 1/s^2)/24,

    s = x + lambda, with E_1 from _e1 and the j-sum's tail bounded by its
    first omitted term over 1 - e^{-2}.  Raises NumericalError where the
    remainder of _phi_series is unbounded (2 lambda >= 62).
    """
    from mpmath import iv, libmp
    lo, hi = _laplace_fixed(x, lam, cfg)
    wp = specfun._constants(cfg).wl
    return iv.make_mpf((libmp.from_man_exp(lo, -wp), libmp.from_man_exp(hi, -wp)))


def _laplace_residual(x, lam, cfg: PrecisionConfig) -> tuple:
    """Q(x, lambda) - H_lambda'(x) as an integer interval at the scale of
    _laplace_fixed: its enclosure less the closed form, the value and bound
    that H_lambda_prime returns (specfun._round of _H_fixed), whose bound is
    folded in."""
    lo, hi = _laplace_fixed(x, lam, cfg)
    consts = specfun._constants(cfg)
    man, e, bound = specfun._round(*_H_fixed(1, x, lam, cfg), consts.prec, "H_lambda^(1)", x)
    (vlo, vhi), err = _fixed_end(man * Fraction(2) ** e, consts.wl), _fixed_end(bound, consts.wl)[1]
    return lo - vhi - err, hi - vlo + err


def laplace_check(x, lam, cfg: PrecisionConfig = DEFAULT_CONFIG) -> float:
    """Residual between the Laplace representation of H_lambda', enclosed by
    laplace_enclosure, and its closed form: the midpoint of
    _laplace_residual, expected within their combined bounds."""
    return specfun._midpoint(*_laplace_residual(x, lam, cfg), specfun._constants(cfg).wl)


@dataclass(frozen=True)
class ThresholdResult:
    """Proven bracket of lambda_star = sup_t h(t), float ends rounded
    outward: bracket[0] <= h(t_star) in interval arithmetic, and
    phi_sign_certificate proves phi > 0 at lambda = bracket[1].  The
    lambda_star field is bracket[0]."""

    lambda_star: float
    bracket: tuple
    t_star: float
    tolerance: float


_T_STAR_BITS = 128  # the fixed point of _t_star's Newton steps


def _t_star() -> float:
    """The float nearest t_star, from Newton steps on F(t, lambda) =
    (phi_lambda(t), d phi_lambda/dt (t)) = 0 from (12.24, 0.652), with the
    Jacobian [[phi_t, t^2 e^{-lambda t}/24], [phi_tt, -t (lambda t - 2)
    e^{-lambda t}/24]], in fixed point at w = _T_STAR_BITS bits: every
    product and quotient floored, e^{-t/2} and e^{-lambda t} the lower ends
    of _exp_fixed.  It stops once a step is below 2^-(w/2) of t, so that the
    next would be below about 2^-w; integer division rounds the last t to
    the nearest float.  No proof rests on it: lambda_star's lower end holds
    at any t, and its upper end is proved by the certificate."""
    w = _T_STAR_BITS
    one, half = 1 << w, 1 << (w - 1)

    def mul(a, b):
        return a * b >> w

    def div(a, b):
        return (a << w) // b

    t, lam = div(1224, 100), div(652, 1000)
    for _ in range(30):
        u = _exp_fixed(-t, 2 << w, w)[0]
        e = _exp_fixed(-lam * t, 1 << 2 * w, w)[0] // 24
        u2 = mul(u, u)
        a, b, c = div(u, t), div(u2, one - u2), half + div(one, t)
        b1, lt2 = b + mul(b, b), mul(lam, t) - 2 * one  # b (1 + b), lambda t - 2
        phi = a - b - mul(t, e)
        phi_t = b1 - mul(c, a) - mul(one - mul(lam, t), e)
        phi_tt = mul(a, div(one, mul(t, t)) + mul(c, c)) - mul(b1, one + 2 * b) - mul(mul(lam, lt2), e)
        j12, j22 = mul(mul(t, t), e), -mul(mul(t, lt2), e)
        det = mul(phi_t, j22) - mul(j12, phi_tt)
        dt = div(mul(j12, phi_t) - mul(phi, j22), det)
        t, lam = t + dt, lam + div(mul(phi, phi_tt) - mul(phi_t, phi_t), det)
        if abs(dt) << (w // 2) < t:
            break
    if not one < t < 60 * one:
        raise NumericalError(f"Newton's method for t_star left [1, 60]: t = {t / one}")
    return t / one


def _float_below(n: int, w: int) -> float:
    """The largest float <= n 2^-w, for n 2^-w in the normal float range:
    n shifted down to 53 bits, floored, is exact as a float."""
    sh = max(n.bit_length() - 53, 0)
    return math.ldexp(n >> sh, sh - w)


def lambda_star(tol, cfg: PrecisionConfig = DEFAULT_CONFIG) -> ThresholdResult:
    """Enclose lambda_star in a proven bracket of width <= tol.

    phi_lambda >= 0 on (0, inf) iff lambda >= h(t) for all t > 0, so
    lambda_star = sup h.  Newton's method on phi = phi_t = 0 finds t
    (_t_star); the lower end is that of h(t) on the integer intervals at
    that float t (_h_fixed, the interval h_of_t takes the midpoint of),
    stepped down from the largest float below it, so it holds whatever t
    is; and the upper end, the lower plus tol, is proved
    by phi_sign_certificate.  Since d phi_lambda / d lambda = t^2
    e^{-lambda t}/24 > 0, phi_lambda > 0 at one lambda proves it at every
    larger one, so the certificate runs at min(upper end, 3/2): it cannot
    decide lambda above about 3, and a wide tol would otherwise fail.  A
    poor t only makes that proof fail; then (or when tol is too small for
    the precision) NumericalError is raised.
    """
    require_positive("tol", tol)
    t, wp = _t_star(), specfun._constants(cfg).wl
    lo = math.nextafter(_float_below(_h_fixed(t.as_integer_ratio(), wp)[0], wp), -math.inf)
    hi = float(Fraction(lo) + Fraction(tol))
    if Fraction(hi) - Fraction(lo) > Fraction(tol):
        hi = math.nextafter(hi, -math.inf)
    proved_at = min(hi, 1.5)
    if phi_sign_certificate(proved_at, 1, cfg)[2] != VERIFIED:
        raise NumericalError(f"could not prove phi > 0 at lambda = {proved_at!r}; tol {tol!r} is too small")
    return ThresholdResult(lo, (lo, hi), t, float(tol))


def default_cm_grid(points: int = 48, lo: float = 1e-2, hi: float = 100.0) -> list:
    """Log-spaced default grid for complete-monotonicity sweeps."""
    ratio = (hi / lo) ** (1.0 / (points - 1))
    return [lo * ratio ** i for i in range(points)]


@dataclass(frozen=True)
class CMReport:
    """Verdict of a complete-monotonicity sweep over derivative orders."""

    lam: float
    sign: str  # "plus" checks H_lambda, "minus" checks -H_lambda
    max_order: int
    grid: tuple
    min_margin: float
    argmin: tuple  # (order, x)
    verdict: str  # "verified" | "falsified" | "indeterminate"


def _row_margins(rows: tuple, cfg: PrecisionConfig, xs):
    """Yield (x, wp, [(row, lo, hi)]) for each x > 0 of xs, a float (taken
    apart exactly) or an mpf, one entry per side of each row, lo <= 2^wp
    margin <= hi.  A row (k, d, lambda, c_lo, c_hi) is

        c_lo <= F_k(x) + (-1)^k k!/(d (x+lambda)^(k+1)) <= c_hi,

    F_k the k-th derivative of F_0(x) = ln Gamma(x+1) - p(x), d a nonzero
    integer, lambda = man 2^exp as (man, exp), each c an interval at the
    scale 2^-wl of specfun._constants(cfg) or None for a side left out; a
    row may end in the pair (x0 of c_lo, x0 of c_hi) of bounds._row_ties,
    where it holds with equality by how its c was built, so lo = hi = 0 at
    x = x0.  The kernel specfun._stirling_defects streams xs at the highest
    k of the rows, F_k 2^-wp at exact x; with H = _plus_lambda_fixed(F_k, x,
    the row's lambda term, wp), a side's margin is [H - E, H + E] less c
    (shifted to wp >= wl once per wp), or c less that.  Error lemma: E = e
    + 1 units of 2^-wp (once per order and x), e the kernel's count for F_k,
    and 1 for the floor of the lambda term."""
    wl = specfun._constants(cfg).wl
    shapes = []  # (k, lambda term, [(row, upper side?, x0, c)])
    for i, (k, d, lam, c_lo, c_hi, *ties) in enumerate(rows):
        sides = zip((False, True), (c_lo, c_hi), ties[0] if ties else (None, None))
        term = (k, math.factorial(k), d, *lam)  # _plus_lambda_fixed's term
        shapes.append((k, term, [(i, up, x0, c) for up, c, x0 in sides if c is not None]))
    max_order, scaled = max(k for k, *_ in shapes), {}  # wp -> shapes, each c at 2^-wp
    for x, a, s, fs, wp, errs in specfun._stirling_defects(xs, cfg, max_order):
        if wp not in scaled:
            sh = wp - wl
            scaled[wp] = [(k, term, [(i, up, x0, c[0] << sh, c[1] << sh) for i, up, x0, c in sides])
                          for k, term, sides in shapes]
        big_es, margins = [e + 1 for e in errs], []
        for k, term, sides in scaled[wp]:
            big_h = _plus_lambda_fixed(fs[k], a, s, term, wp)
            h_lo, h_hi = big_h - big_es[k], big_h + big_es[k]
            for i, up, x0, c_lo, c_hi in sides:
                if x0 is not None and x == x0:  # the exact margin 0
                    margins.append((i, 0, 0))
                elif up:
                    margins.append((i, c_lo - h_hi, c_hi - h_lo))
                else:
                    margins.append((i, h_lo - c_hi, h_hi - c_lo))
        yield x, wp, margins


def _row_pass(claims: tuple, cfg: PrecisionConfig, xs) -> tuple:
    """(min_margin, (k, x), verdict) of each claim, a tuple of rows (see
    _row_margins), over the points of xs, floats or mpfs: the one pass
    behind cm_check, the Thm 2.1 sweeps and the Thm 3.1/3.4 rows.  Each
    margin enters its Sweep as its integer ends, reported as its nearest
    float (specfun._midpoint); the kernel's integers are streamed, not
    kept (about 2.5 MiB on a 4000-point grid)."""
    sweeps = [Sweep() for _ in claims]
    adds = [(sweep, row[0]) for sweep, claim in zip(sweeps, claims) for row in claim]
    for x, wp, margins in _row_margins(tuple(row for claim in claims for row in claim), cfg, xs):
        for i, lo, hi in margins:
            sweep, k = adds[i]
            sweep.add((k, x), specfun._midpoint(lo, hi, wp), lo, hi)
    return tuple((m, (k, float(x)), verdict) for m, (k, x), verdict in (s.result() for s in sweeps))


def _cm_rows(lam, sign: str, max_order: int, cfg: PrecisionConfig) -> tuple:
    """The rows (see _row_margins) of s (-1)^k H_lambda^(k) >= 0, k = 0..
    max_order, s = 1 for "plus", -1 for "minus": d = 24, c = [0, 0] on the
    side s (-1)^k asks for, the other side left out."""
    lm = specfun._man_exp(lam, specfun._constants(cfg).prec)
    sides = {1: ((0, 0), None), -1: (None, (0, 0))}
    s = 1 if sign == "plus" else -1
    return tuple((k, 24, lm, *sides[s * (-1) ** k]) for k in range(max_order + 1))


def cm_check(
    lam,
    sign: str,
    max_order: int = 6,
    grid: Sequence | None = None,
    cfg: PrecisionConfig = DEFAULT_CONFIG,
) -> CMReport:
    """Check s * (-1)^n H_lambda^(n)(x) >= 0 for n = 0..max_order on a grid,
    s = 1 for "plus" and -1 for "minus": the rows of _cm_rows in one
    uncached _row_pass over the grid's points, a float taken apart exactly,
    any other x rounded as its mpf at cfg.dps, never to float64.  Each margin
    is one integer of the kernel's fixed point, F_n plus the floor of the
    lambda term, within the kernel's bound plus 1 unit of 2^-wp (the lemma
    of _row_margins), and a margin that straddles 0 leaves the sweep
    "indeterminate".  This call does not retry; `gammacert verify` reruns
    an indeterminate claim once at doubled working precision.
    """
    if sign not in ("plus", "minus"):
        raise DomainError(f"sign must be 'plus' or 'minus', got {sign!r}")
    if not (isinstance(max_order, int) and max_order >= 1):
        raise DomainError(f"max_order must be an integer >= 1, got {max_order!r}")
    _check_lambda(lam)
    if grid is None:
        grid = default_cm_grid()
    if not grid or any(not x > 0 for x in grid):
        raise DomainError("grid must be nonempty with positive entries")
    [result] = _row_pass((_cm_rows(lam, sign, max_order, cfg),), cfg, grid)
    return CMReport(float(lam), sign, max_order, tuple(float(x) for x in grid), *result)


def _necessary_limit_fixed(x, cfg: PrecisionConfig) -> tuple:
    """((lo, hi), wp): the interval at 2^-wp of v = -x - 1/(24 f(x)), f = F_0,
    x rounded to the working bits as the kernel rounds it.  f < 0 (H_(3/2)
    < 0) and v increases in f there, so the kernel's [F - E, F + E], E its
    count, gives v's ends exactly; NumericalError where it reaches 0."""
    [(_, a, s, [f], wp, [e])] = specfun._stirling_defects((x,), cfg)
    if f + e >= 0:
        raise NumericalError(f"f(x) indistinguishable from 0 at x={x}")
    v = [-Fraction(a, 1 << -s) - Fraction(1 << wp, 24 * g) for g in (f - e, f + e)]
    return (_fixed_end(v[0], wp)[0], _fixed_end(v[1], wp)[1]), wp


def necessary_limit(x, cfg: PrecisionConfig = DEFAULT_CONFIG) -> SpecialValue:
    """-x - 1/(24 f(x)), f = F_0, tends to 1/2: the interval of
    _necessary_limit_fixed as its midpoint at cfg.dps and the distance to
    its farther end, rounded up."""
    from mpmath import mp
    (lo, hi), wp = _necessary_limit_fixed(x, cfg)
    with mp.workdps(cfg.dps):
        mid = _fixed_mpf((lo, hi), wp)
    far = max(abs(Fraction(end, 1 << wp) - Fraction(*_ratio(mid))) for end in (lo, hi))
    return SpecialValue(mid, math.nextafter(float(far), math.inf))


def series_coeff_pivot(k: int):
    """Exact coefficient data of (t^2-24)e^t + 24 t e^{t/2} - t^2 + 24.

    Returns (c_k, c_k/(k! 2^k)) with c_k = [k(k-1)-24] 2^k + 48 k; c_4 = 0,
    and the t^5 term is 7/240 (the printed 7/24 is a misprint).
    """
    if not (isinstance(k, int) and k >= 4):
        raise DomainError(f"k must be an integer >= 4, got {k!r}")
    c = (k * (k - 1) - 24) * 2 ** k + 48 * k
    return c, Fraction(c, math.factorial(k) * 2 ** k)


def series_coeff_lambda(k: int, lam):
    """Per-k sides of the order-k coefficient inequality behind the
    lambda >= 3/2 sufficiency:

        lhs = 24 [(l+1)^k - l^k - k (l+1/2)^(k-1)]
        rhs = k (k-1) [(3/2)^(k-2) - (1/2)^(k-2)]

    Exact when lam is rational (int/Fraction), float otherwise.
    """
    if not (isinstance(k, int) and k >= 3):
        raise DomainError(f"k must be an integer >= 3, got {k!r}")
    if isinstance(lam, (int, Fraction)):
        l = Fraction(lam)
        half = Fraction(1, 2)
    else:
        l = float(lam)
        half = 0.5
    lhs = 24 * ((l + 1) ** k - l ** k - k * (l + half) ** (k - 1))
    rhs = k * (k - 1) * (Fraction(3, 2) ** (k - 2) - Fraction(1, 2) ** (k - 2))
    if not isinstance(lhs, Fraction):
        rhs = float(rhs)
    return lhs, rhs


def kth_root_gap(k: int) -> int:
    """2(k-2) 3^(k-3) - (3^(k-2) - 1), an exact integer that is >= 0 iff
    kth_root_bound(k) <= 3/2, that is iff b <= (3/2)^(k-3) for the root's
    radicand b = ((3/2)^(k-2) - (1/2)^(k-2))/(k-2); multiplying both sides by
    2^(k-2) (k-2) clears every denominator.  It is positive for every
    k >= 4, since 2(k-2) >= 3."""
    if not (isinstance(k, int) and k >= 4):
        raise DomainError(f"k must be an integer >= 4, got {k!r}")
    return 2 * (k - 2) * 3 ** (k - 3) - (3 ** (k - 2) - 1)


def kth_root_bound(k: int) -> float:
    """[(1/(k-2)) ((3/2)^(k-2) - (1/2)^(k-2))]^(1/(k-3)) as the float nearest
    it; stays <= 3/2 and tends to 3/2 as k grows.  It is e^(ln(b)/(k-3))
    for the exact radicand b = (3^(k-2) - 1)/((k-2) 2^(k-2)): ln b from
    specfun._ln_pair at w bits, divided by k - 3 outward, and _exp_pair of
    that interval give the root within a few units of 2^-w; from w = 90 the
    bits double until both ends round to one float, which is then the float
    nearest the root (integer division rounds correctly)."""
    if not (isinstance(k, int) and k >= 4):
        raise DomainError(f"k must be an integer >= 4, got {k!r}")
    n, w = k - 2, 90
    while True:
        log_lo, log_hi = _ln_pair(3 ** n - 1, n << n, w)
        lo, hi = _exp_pair(log_lo // (k - 3), _cdiv(log_hi, k - 3), w, w)
        if lo / (1 << w) == hi / (1 << w):
            return lo / (1 << w)
        w *= 2
