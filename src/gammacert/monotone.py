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
Thm 3.1/3.4 rows.  It reads specfun._constants(cfg).eps for its constants.

lambda_star = sup_t h(t) with h(t) = -(1/t) ln[(24/t^2)(e^{-t/2} - t/(e^t-1))].
Everything about phi_lambda is decided in interval arithmetic from one set
of Taylor coefficients (_phi_series, in mpmath.iv, built once per lambda and
precision, whose lambda-free part is built once):
phi_sign_certificate proves the sign of phi_lambda on all of (0, inf), its
boxes enclosed on raw libmp interval pairs (Horner's rule on (0, 2], a
second-order centred form in phi'' on [2, 20]); lambda_star returns a
bracket of lambda_star that is proven the same way; and laplace_enclosure
encloses the Laplace transform of phi_lambda in mpmath.iv, the integral
path of H_lambda' that laplace_check compares with the closed form.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from mpmath import iv, mp
from mpmath.libmp import (dps_to_prec, fhalf, fone, from_float, from_int, ftwo, mpf_sign, mpi_add,
                          mpi_div, mpi_exp, mpi_log, mpi_mid, mpi_mul, mpi_neg, mpi_pow_int,
                          mpi_sub, to_float)

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


def _plus_lambda_fixed(f: int, k: int, xm, lm, wp: int, d: int) -> int:
    """(F_k(x) + (-1)^k k!/(d (x+lambda)^(k+1))) 2^wp, d = 24 in H_lambda^(k),
    within one unit more than f = F_k(x) 2^wp, an integer of the kernel
    (specfun._stirling_defect_fixed); xm = x and lm = lambda are mpf.  Both
    are exact integers times powers of two, so x + lambda = Y 2^t is exact
    and the lambda term is the floor of one integer quotient."""
    _, xman, xe, _ = xm._mpf_
    _, lman, le, _ = lm._mpf_
    t = min(xe, le)
    shift, num = wp - t * (k + 1), math.factorial(k)
    den = d * ((xman << (xe - t)) + (lman << (le - t))) ** (k + 1)
    term = (num << shift) // den if shift >= 0 else num // (den << -shift)
    return f - term if k % 2 else f + term


def _H_rounded(k: int, x, lam, cfg: PrecisionConfig) -> SpecialValue:
    """H_lambda^(k)(x), k >= 0: the kernel's F_k plus the lambda term
    (_plus_lambda_fixed), one integer rounded once (specfun._rounded).  The
    bound is the kernel's, one unit of 2^-wp for the term's floor and the
    rounding."""
    with mp.workdps(cfg.dps):
        xm, lm = mp.mpf(x), mp.mpf(lam)
    fs, wp, errs = specfun._stirling_defect_fixed(xm, cfg, k)
    return specfun._rounded(_plus_lambda_fixed(fs[k], k, xm, lm, wp, 24), wp,
                            errs[k] + math.ldexp(1, -wp), cfg)


def H_lambda(x, lam, cfg: PrecisionConfig = DEFAULT_CONFIG) -> SpecialValue:
    """H_lambda(x) = F_0(x) + 1/(24 (x+lambda)), F_0 from the kernel
    specfun._stirling_defect_fixed, with its certified error bound (see
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
    specfun._stirling_defect_fixed; the lambda term is added to its integer
    and the sum rounded once (_H_rounded).  Validated against central
    finite differences and mpmath's polygamma.
    """
    if not (isinstance(n, int) and n >= 1):
        raise DomainError(f"derivative order must be a positive integer, got {n!r}")
    require_positive("x", x)
    _check_lambda(lam)
    return _H_rounded(n, x, lam, cfg)


def _phi_taylor_cutoff(lm):
    """phi is summed from its Taylor series below this t, where its three
    terms cancel: 1e-3, or 1/lambda when that is smaller, so that lambda t
    stays below 1 and the series of e^{-lambda t} does not cancel either."""
    return 1e-3 if abs(lm) <= 1000 else 1 / abs(lm)


@functools.lru_cache(maxsize=None)
def _phi_free_coeff(k: int) -> tuple:
    """(a_k - b_k, |a_k| + |b_k|) of _phi_coeffs exactly, the part of c_k and
    s_k that does not depend on lambda; built once per k."""
    f = math.factorial(k + 1)
    a = Fraction((-1) ** (k + 1), 2 ** (k + 1) * f)
    b = Fraction(*mp.bernfrac(k + 1)) / f
    return a - b, abs(a) + abs(b)


def _phi_coeffs(lam: Fraction):
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


@functools.lru_cache(maxsize=32)
def _phi_taylor_coeffs(lm, prec: int) -> tuple:
    """(c_2, c_3, ...) of phi_lambda (see _phi_coeffs) at precision prec.

    Terms are taken until the next one, bounded by s_k t^k at t = cutoff,
    drops below 2^-prec * 2/t, the relative precision of the cancelling
    terms (|lambda| t0 <= 1, so the bound falls).
    """
    with mp.workprec(prec):
        t0 = mp.mpf(_phi_taylor_cutoff(lm))
        tol = mp.ldexp(2 / t0, -prec)
        man, exp = mp.mpf(lm).man_exp  # lm exactly: it has at most prec bits
        coeffs = []
        for k, (c, size) in enumerate(_phi_coeffs(man * Fraction(2) ** exp), 2):
            if mp.convert(size) * t0 ** k < tol:
                return tuple(coeffs)
            coeffs.append(mp.convert(c))


def _phi_taylor(tm, lm):
    s = mp.mpf(0)
    for c in reversed(_phi_taylor_coeffs(lm, mp.prec)):
        s = s * tm + c
    return s * tm * tm


def _phi_terms(tm):
    """(e^{-t/2}/t, 1/(e^t-1)), the lambda-free terms of phi, from one
    exponential of -t/2.  For t < 1, v = expm1(-t/2) gives 1 - e^{-t} =
    -v (2+v) without cancellation; for t >= 1, u = e^{-t/2} and 1 - u^2
    lose nothing (_phi_terms_mpi is this branch on intervals)."""
    if tm < 1:
        v = mp.expm1(-tm / 2)
        u = 1 + v
        one_minus_u2 = -v * (2 + v)
    else:
        u = mp.exp(-tm / 2)
        one_minus_u2 = 1 - u * u
    return u / tm, u * u / one_minus_u2


def phi_integrand(t, lam):
    """phi_lambda(t) = e^{-t/2}/t - 1/(e^t-1) - t e^{-lambda t}/24 for t > 0.

    The three terms come from one exponential of -t/2 (see _phi_terms)
    and one of -lambda t.  Below t = 1e-3 (1/lambda for lambda >
    1000) the direct form loses digits to cancellation, so the Taylor
    series with leading coefficient (2 lambda - 1)/48 is summed instead;
    its coefficients are generated from the closed form to the current
    precision (see _phi_taylor_coeffs).
    """
    if not t > 0:
        raise DomainError(f"t must be positive, got {t!r}")
    tm, lm = mp.mpf(t), mp.mpf(lam)
    if mp.isnan(lm):
        raise DomainError(f"lambda must not be nan, got {lam!r}")
    if tm < _phi_taylor_cutoff(lm):
        return _phi_taylor(tm, lm)  # needs no exponential
    a, b = _phi_terms(tm)
    return a - b - tm * mp.exp(-lm * tm) / 24


# h(t) amplifies the rounding of e^{-t/2}/t and 1/(e^t-1), and the Taylor
# truncation of phi_0 at its 1e-3 cutoff, by up to 48/t^3 < 2^36 for t >= 1e-3
_H_GUARD_BITS = 36


def h_of_t(t):
    """h(t) = -(1/t) ln[(24/t^2)(e^{-t/2} - t/(e^t-1))]; h -> 1/2 at both ends.

    The bracket is 1 + 24 phi_0(t)/t.  Below the Taylor cutoff of phi_0
    (t = 1e-3) it is summed from the series of phi_0, generated to the
    working precision (see _phi_taylor_coeffs); above it the two
    lambda-free terms of phi come from _phi_terms.  Both run with
    _H_GUARD_BITS extra bits, so h keeps the working precision.
    """
    if not t > 0:
        raise DomainError(f"t must be positive, got {t!r}")
    with mp.extraprec(_H_GUARD_BITS):
        tm = mp.mpf(t)
        if tm < _phi_taylor_cutoff(0):
            h = -mp.log1p(24 * _phi_taylor(tm, 0) / tm) / tm
        else:
            a, b = _phi_terms(tm)
            bracket = 24 * (a - b) / tm
            if not bracket > 0:
                raise NumericalError(f"bracket non-positive at t={t}: {bracket}")
            h = -mp.log(bracket) / tm
    return +h


# --- the sign of phi_lambda on (0, inf), proved in interval arithmetic -----

_T_TAIL = 20.0  # Taylor piece on (0, 2], centred forms on [2, 20], closed-form tail
_CERT_MAX_BOXES = 2000  # bisection budget of one certificate
_TAYLOR_TERMS = 60  # c_2 .. c_61; the remainder is below 1e-30 for lambda <= 3/2


@contextlib.contextmanager
def _iv_dps(dps: int):
    """mpmath.iv at dps digits; its precision is restored on exit or raise."""
    prec = iv.prec
    iv.dps = dps
    try:
        yield
    finally:
        iv.prec = prec


@functools.lru_cache(maxsize=16)
def _phi_series(lam, prec: int) -> tuple:
    """(coefficients, remainder): phi_lambda(t)/t^p lies in sum_i
    coefficients[i] t^i + remainder for 0 < t <= 2, with p = 3 if c_2 = 0
    (lambda = 1/2), else 2, in mpmath.iv at prec bits, which must be
    iv.prec; built once per (lambda, prec).  Keeping c_p .. c_n, n =
    _TAYLOR_TERMS + 1, the bounds |a_k| = 2^-(k+1)/(k+1)!, |b_k| <= 4/(2
    pi)^(k+1), |d_k| = lambda^(k-1)/(24 (k-1)!) and t^(k-p) <= 2^(k-p) give,
    for 2 lambda < n + 1,

        2^p |remainder| <= 1/(n+2)! + 2 pi^-(n+2)/(1 - 1/pi)
                           + (2 lambda)^n/(12 n! (1 - 2 lambda/(n+1))).
    """
    coeffs = [c for c, _ in itertools.islice(_phi_coeffs(Fraction(lam)), _TAYLOR_TERMS)]
    p, n = (2 if coeffs[0] else 3), _TAYLOR_TERMS + 1
    lm2, inv_pi = 2 * iv.mpf(lam), 1 / iv.pi
    r = mp.inf
    if lm2 < n + 1:
        r = ((1 / iv.mpf(math.factorial(n + 2)) + 2 * inv_pi ** (n + 2) / (1 - inv_pi)
              + lm2 ** n / (12 * math.factorial(n) * (1 - lm2 / (n + 1)))) / 2 ** p).b
    return tuple(iv.mpf(c.numerator) / c.denominator for c in coeffs[p - 2:]), iv.mpf([-r, r])


def _add_enclosure(sweep: Sweep, at: float, enc, prec: int) -> None:
    """Add an interval margin, a libmp pair at prec bits, to sweep as its
    midpoint (mpi_mid) and radius, the radius rounded up so that the two
    floats still cover the interval."""
    margin = to_float(mpi_mid(enc, prec))
    m = from_float(margin)
    lo, hi = mpi_sub((m, m), enc, prec)
    sweep.add(at, margin, math.nextafter(max(-to_float(lo), to_float(hi)), math.inf))


# The enclosures of the certificate boxes run on raw libmp interval pairs
# (a, b) at prec bits, the same mpi_* calls with the same roundings as
# mpmath.iv makes for them, without its wrapper objects or conversions.
_HALF, _ONE, _TWO, _C24 = ((v, v) for v in (fhalf, fone, ftwo, from_int(24)))


def _phi_terms_mpi(t, prec: int) -> tuple:
    """_phi_terms' branch t >= 1 for a pair t: u = e^{-t/2}, and u/t and
    u^2/(1 - u^2) both increase with u, so no width is lost to dependency."""
    u = mpi_exp(mpi_div(mpi_neg(t, prec), _TWO, prec), prec)
    u2 = mpi_mul(u, u, prec)
    return mpi_div(u, t, prec), mpi_div(u2, mpi_sub(_ONE, u2, prec), prec)


def _phi_d2(x, lm, prec: int):
    """phi_lambda''(x) for a pair x >= 1 and lm = lambda as a pair, with
    a = e^{-t/2}/t and b = 1/(e^t-1) (_phi_terms_mpi):

        phi'' = a (1/t^2 + (1/2 + 1/t)^2) - b (1+b) (1+2b)
                - (lambda^2 t - 2 lambda) e^{-lambda t}/24.
    """
    a, b = _phi_terms_mpi(x, prec)
    inv = mpi_div(_ONE, x, prec)
    a_part = mpi_mul(a, mpi_add(mpi_pow_int(inv, 2, prec),
                                mpi_pow_int(mpi_add(_HALF, inv, prec), 2, prec), prec), prec)
    b_part = mpi_mul(mpi_mul(b, mpi_add(_ONE, b, prec), prec),
                     mpi_add(_ONE, mpi_mul(_TWO, b, prec), prec), prec)
    poly = mpi_sub(mpi_mul(mpi_mul(lm, lm, prec), x, prec), mpi_mul(_TWO, lm, prec), prec)
    lam_part = mpi_div(mpi_mul(poly, mpi_exp(mpi_mul(mpi_neg(lm, prec), x, prec), prec), prec),
                       _C24, prec)
    return mpi_sub(mpi_sub(a_part, b_part, prec), lam_part, prec)


def _phi_centred(x, m, lm, prec: int):
    """An enclosure of phi_lambda on the box x (a pair within [1, inf)) with
    midpoint m (a pair), lm = lambda as a pair: the second-order centred
    form phi(m) + phi'(m) (x - m) + phi''(x) (x - m)^2 / 2 of
    phi_sign_certificate, with (x - m)^2 an even power, so [0, r^2]."""
    a, b = _phi_terms_mpi(m, prec)
    e = mpi_div(mpi_exp(mpi_mul(mpi_neg(lm, prec), m, prec), prec), _C24, prec)
    phi_m = mpi_sub(mpi_sub(a, b, prec), mpi_mul(m, e, prec), prec)
    dphi_m = mpi_sub(mpi_sub(mpi_mul(b, mpi_add(_ONE, b, prec), prec),
                             mpi_mul(mpi_add(_HALF, mpi_div(_ONE, m, prec), prec), a, prec), prec),
                     mpi_mul(mpi_sub(_ONE, mpi_mul(lm, m, prec), prec), e, prec), prec)
    d = mpi_sub(x, m, prec)
    d2_part = mpi_div(mpi_mul(_phi_d2(x, lm, prec), mpi_pow_int(d, 2, prec), prec), _TWO, prec)
    return mpi_add(mpi_add(phi_m, mpi_mul(dphi_m, d, prec), prec), d2_part, prec)


def _phi_horner(x, coeffs, rem, prec: int):
    """sum_i coeffs[i] x^i + rem by Horner's rule, all pairs: the Taylor
    piece of phi_sign_certificate on a box x within (0, 2]."""
    s = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        s = mpi_add(mpi_mul(s, x, prec), c, prec)
    return mpi_add(s, rem, prec)


def phi_sign_certificate(lam, sign: int, cfg: PrecisionConfig = DEFAULT_CONFIG) -> tuple:
    """(min_margin, argmin, verdict) of sign * phi_lambda(t) > 0 for all t > 0
    (sign = 1 or -1), proved in interval arithmetic at cfg.dps digits: the
    boxes on libmp pairs, the Taylor remainder and the tail in mpmath.iv.

    By Bernstein's theorem phi_lambda < 0 on (0, inf) makes H_lambda
    completely monotonic and phi_lambda > 0 makes -H_lambda so.  Pieces:
    (0, 2], the polynomial of _phi_series by Horner's rule plus its
    remainder, so margins of sign * phi/t^p; [2, 20], the second-order
    centred form of _phi_centred on a box X with midpoint m,

        phi(m) + phi'(m) (X - m) + phi''(X) (X - m)^2 / 2,

    with phi(m) and phi'(m) taken at the point m, b = 1/(e^t-1) and

        phi'(t) = -(1/2 + 1/t) e^{-t/2}/t + b (1 + b) - (1 - lambda t) e^{-lambda t}/24,

    phi'' over the box from _phi_d2, and (X - m)^2 an even power, so
    [0, r^2] for a box of radius r; beyond 20, a closed-form bound whose
    slack is the margin.  A box whose enclosure holds 0 is bisected, up to
    _CERT_MAX_BOXES boxes.  Each leaf adds its enclosure to one Sweep under
    its midpoint: "verified" needs every enclosure to have the wanted sign,
    one wholly of the other sign gives "falsified" and ends the proof,
    anything else is "indeterminate" (so is lambda above about 3, where the
    Taylor piece is too wide).
    """
    _check_lambda(lam)
    if sign not in (1, -1):
        raise DomainError(f"sign must be 1 or -1, got {sign!r}")
    sweep, boxes = Sweep(), 0
    with _iv_dps(cfg.dps):
        prec, lm = iv.prec, iv.mpf(lam)
        coeffs, rem = _phi_series(lam, prec)
        coeffs, rem, lm_mpi = tuple(c._mpi_ for c in coeffs), rem._mpi_, lm._mpi_
        sgn = (from_int(sign),) * 2
        pieces = ((lambda x, m: _phi_horner(x, coeffs, rem, prec), 0.0, 2.0),
                  (lambda x, m: _phi_centred(x, m, lm_mpi, prec), 2.0, _T_TAIL))
        for enclose, lo, hi in pieces:
            stack = [(lo, hi)]
            while stack:
                l, r = stack.pop()
                m = (l + r) / 2
                fm = from_float(m)
                enc = mpi_mul(sgn, enclose((from_float(l), from_float(r)), (fm, fm)), prec)
                boxes += 1
                if mpf_sign(enc[0]) <= 0 <= mpf_sign(enc[1]) and l < m < r and boxes < _CERT_MAX_BOXES:
                    stack += [(m, r), (l, m)]
                    continue
                _add_enclosure(sweep, m, enc, prec)
                if sweep.any_falsifying:
                    return sweep.result()
        t, mu = iv.mpf(_T_TAIL), lm - 0.5
        tail = iv.mpf(0)  # slack 0: undecided
        if sign < 0 and mu <= 0:
            # -1/(e^t-1) < 0 and e^{-lambda t} >= e^{-t/2}, so for t >= 20:
            # phi(t) < e^{-t/2} (1/t - t/24) <= e^{-t/2} (1/20 - 20/24)
            tail = t / 24 - 1 / t
        elif sign > 0 and mu * t >= 2:
            # 1/(e^t-1) <= 2 e^{-t}, so t e^{t/2} phi(t) >= 1 - 2t e^{-t/2}
            # - t^2 e^{-mu t}/24, whose two terms decrease for t >= 2/mu
            tail = 1 - 2 * t * iv.exp(-t / 2) - t ** 2 * iv.exp(-mu * t) / 24
        _add_enclosure(sweep, _T_TAIL, tail._mpi_, prec)
    return sweep.result()


# --- the Laplace transform of phi_lambda, enclosed in mpmath.iv -----------


def _moments(xi, n: int, e2x) -> list:
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


def _e1(y):
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
    with _iv_dps(iv.dps + int(y_hi / 2.3) + 5):
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


def laplace_enclosure(x, lam, cfg: PrecisionConfig = DEFAULT_CONFIG):
    """An mpmath.iv interval, at cfg.dps digits, that contains

        Q(x, lambda) = int_0^inf phi_lambda(t) e^{-xt} dt = H_lambda'(x).

    On (0, 2], phi_lambda = t^p (sum_i c_i t^i + r) with the exact
    coefficients and remainder of _phi_series, so that piece lies in
    sum_i c_i M_(p+i)(x) + r M_p(x) (_moments).  On [2, inf), term by term,

        int_2^inf phi_lambda(t) e^{-xt} dt = E_1(2x+1)
            - sum_(j>=1) e^{-2(x+j)}/(x+j) - e^{-2s} (2/s + 1/s^2)/24,

    s = x + lambda, with E_1 from _e1 and the j-sum's tail bounded by its
    first omitted term over 1 - e^{-2}.  Raises NumericalError where the
    remainder of _phi_series is infinite (2 lambda >= 62).
    """
    require_positive("x", x)
    _check_lambda(lam)
    with _iv_dps(cfg.dps):
        coeffs, rem = _phi_series(lam, iv.prec)
        if mp.isinf(rem.b):
            raise NumericalError(f"no Taylor remainder bound for lambda = {lam!r}")
        xi, n = iv.mpf(x), _TAYLOR_TERMS + 1
        e2x, tol = iv.exp(-2 * xi), mp.ldexp(1, -iv.prec)
        ms = _moments(xi, n, e2x)
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
        far = _e1(2 * xi + 1) - e2x * jsum - iv.exp(-2 * s) * (2 / s + 1 / s ** 2) / 24
        return near + far


def _laplace_residual(x, lam, cfg: PrecisionConfig):
    """Q(x, lambda) - H_lambda'(x) as an mpmath.iv interval: the enclosure
    of laplace_enclosure less the closed form, whose certified bound is
    folded in."""
    closed = H_lambda_prime(x, lam, cfg)
    q = laplace_enclosure(x, lam, cfg)
    with _iv_dps(cfg.dps):
        err = closed.abs_error_bound
        return q - (iv.mpf(closed.value) + iv.mpf([-err, err]))


def laplace_check(x, lam, cfg: PrecisionConfig = DEFAULT_CONFIG) -> float:
    """Residual between the Laplace representation of H_lambda', enclosed by
    laplace_enclosure, and its closed form: the midpoint of
    _laplace_residual, expected within their combined bounds."""
    return float(_laplace_residual(x, lam, cfg).mid)


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


def lambda_star(tol, cfg: PrecisionConfig = DEFAULT_CONFIG) -> ThresholdResult:
    """Enclose lambda_star in a proven bracket of width <= tol.

    phi_lambda >= 0 on (0, inf) iff lambda >= h(t) for all t > 0, so
    lambda_star = sup h.  A golden-section search on [1, 60], where h is
    unimodal, finds t; the lower end is h(t) in interval arithmetic, and
    the upper end, the lower plus tol, is proved by phi_sign_certificate.
    Since d phi_lambda / d lambda = t^2 e^{-lambda t}/24 > 0, phi_lambda > 0
    at one lambda proves it at every larger one, so the certificate runs at
    min(upper end, 3/2): it cannot decide lambda above about 3, and a wide
    tol would otherwise fail.  The search decides only whether that proof
    succeeds; if it fails (tol too small for the precision) NumericalError
    is raised.
    """
    require_positive("tol", tol)
    with mp.workdps(cfg.dps):
        g, a, b = (mp.sqrt(5) - 1) / 2, mp.mpf(1), mp.mpf(60)
        for _ in range(80):
            c, d = b - g * (b - a), a + g * (b - a)
            a, b = (a, d) if h_of_t(c) >= h_of_t(d) else (c, b)
        t = float((a + b) / 2)
    prec, tp = dps_to_prec(cfg.dps), (from_float(t),) * 2
    u, v = _phi_terms_mpi(tp, prec)
    log_bracket = mpi_log(mpi_div(mpi_mul(_C24, mpi_sub(u, v, prec), prec), tp, prec), prec)
    lo = math.nextafter(to_float(mpi_div(mpi_neg(log_bracket, prec), tp, prec)[0]), -math.inf)
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
    """Yield (x, 2^wp, [(row, M, err)]) for each mpf x > 0 of xs, one entry
    per side of each row.  A row is (k, d, lambda, c_lo, c_hi, size):

        c_lo <= F_k(x) + (-1)^k k!/(d (x+lambda)^(k+1)) <= c_hi,

    F_k the k-th derivative of F_0(x) = ln Gamma(x+1) - p(x), d a nonzero
    integer, lambda and the c mpf at cfg.dps, the c formed from terms whose
    magnitudes sum to size; a side whose c is infinite is left out.  One
    kernel call per x, at the highest k of the rows, gives F_k 2^-wp at
    exact x, never rounded; with H = _plus_lambda_fixed(F_k, k, x, lambda,
    wp, d) and C = floor(c 2^wp), once per side and wp, the lower margin is
    M = H - C_lo and the upper M = C_hi - H, in units of 2^-wp.

    Error lemma (in the style of Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed. 2002, sec. 3.1).  M 2^-wp is within

        err + 3 2^-wl + size 10^(2-dps),  wl = prec + _FIXED_GUARD_BITS <= wp,

    of the true margin, 10^(2-dps) being specfun._constants(cfg).eps, where
      - err is the kernel's bound on F_k (its lemma; nothing is rounded);
      - the floors of the lambda term and of C are each off by less than 2^-wp;
      - c, a few mpmath operations at cfg.dps, is within size 10^(2-dps) of
        the exact constant, the rule of specfun._constants on the magnitudes
        of its terms, which can far exceed |c| (H_{1/2}(1) = 1/36 - p(1) is
        6.4e-4, its terms near 1); an exact c = 0 has size 0;
      - one more 2^-wl covers the float sum of the bound and the rounding of
        the margin to a float, each at most 2^-53 of the bound where the
        margin meets it: while the kernel's series meet their target the
        bound is at most about 10^(4-dps), below 2^(51-wl), so 2^-51 of it
        is under 2^-wl.
    So a float margin above the bound means a true margin above 0, one
    below minus the bound a true margin below 0."""
    consts = specfun._constants(cfg)
    wl, eps = consts.wl, float(consts.eps)
    shapes = []  # (k, d, lambda, [(row, sign, c, error of the side)])
    for i, (k, d, lam, c_lo, c_hi, size) in enumerate(rows):
        c_err = math.ldexp(3, -wl) + size * eps
        sides = [(i, sign, c._mpf_, c_err) for sign, c in ((1, c_lo), (-1, c_hi)) if not mp.isinf(c)]
        shapes.append((k, d, lam, sides))
    max_order, scaled = max(k for k, *_ in shapes), {}  # wp -> (2^wp, [C of each side])
    for xm in xs:
        fs, wp, errs = specfun._stirling_defect_fixed(xm, cfg, max_order)
        if wp not in scaled:
            scaled[wp] = (1 << wp, [specfun._floor_mul(1, c, wp)
                                    for *_, sides in shapes for _, _, c, _ in sides])
        scale, big_cs = scaled[wp]
        margins, j = [], 0
        for k, d, lam, sides in shapes:
            big_h = _plus_lambda_fixed(fs[k], k, xm, lam, wp, d)
            for i, sign, _, c_err in sides:
                margins.append((i, sign * (big_h - big_cs[j]), errs[k] + c_err))
                j += 1
        yield xm, scale, margins


def _row_pass(claims: tuple, cfg: PrecisionConfig, xs, allow_equality: bool = False) -> tuple:
    """(min_margin, (k, x), verdict) of each claim, a tuple of rows (see
    _row_margins), over the mpf points of xs: the one pass behind cm_check,
    the Thm 2.1 sweeps and the Thm 3.1/3.4 rows.  Each margin is rounded
    once to the nearest float (+-inf beyond the float range) and holds with
    <= under allow_equality, else <; the kernel's integers are streamed,
    not kept (about 2.5 MiB on a 4000-point grid)."""
    sweeps = [Sweep() for _ in claims]
    adds = [(sweep.add, row[0]) for sweep, claim in zip(sweeps, claims) for row in claim]
    for xm, scale, margins in _row_margins(tuple(row for claim in claims for row in claim), cfg, xs):
        for i, big_m, err in margins:
            add, k = adds[i]
            try:
                margin = big_m / scale
            except OverflowError:  # beyond the float range, its sign exact
                margin = math.inf if big_m > 0 else -math.inf
            add((k, xm), margin, err, allow_equality)
    return tuple((m, (k, float(xm)), verdict) for m, (k, xm), verdict in (s.result() for s in sweeps))


def _cm_rows(lam, sign: str, max_order: int, cfg: PrecisionConfig) -> tuple:
    """The rows (see _row_margins) of s (-1)^k H_lambda^(k) >= 0, k = 0..
    max_order, s = 1 for "plus", -1 for "minus": d = 24, c = 0 (size 0) on
    the side s (-1)^k asks for, the other side infinite."""
    with mp.workdps(cfg.dps):
        lm = mp.mpf(lam)
    sides = {1: (mp.zero, mp.inf), -1: (mp.ninf, mp.zero)}
    s = 1 if sign == "plus" else -1
    return tuple((k, 24, lm, *sides[s * (-1) ** k], 0.0) for k in range(max_order + 1))


def cm_check(
    lam,
    sign: str,
    max_order: int = 6,
    grid: Sequence | None = None,
    cfg: PrecisionConfig = DEFAULT_CONFIG,
) -> CMReport:
    """Check s * (-1)^n H_lambda^(n)(x) >= 0 for n = 0..max_order on a grid,
    s = 1 for "plus" and -1 for "minus": the rows of _cm_rows in one
    uncached _row_pass, x at full precision.  Each margin is one integer of
    the kernel's fixed point, F_n plus the floor of the lambda term,
    rounded once to a float, within the kernel's bound plus 3 2^-wl (the
    lemma of _row_margins; its rounding rule, specfun._constants(cfg).eps,
    adds nothing for the exact zero constants here).
    "verified" needs every margin to exceed its bound, "falsified" needs
    some margin below minus its bound, and a borderline sweep is
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
    with mp.workdps(cfg.dps):  # x at full precision, never rounded to float64
        xms = [mp.mpf(x) for x in grid]
    [result] = _row_pass((_cm_rows(lam, sign, max_order, cfg),), cfg, xms)
    return CMReport(float(lam), sign, max_order, tuple(float(x) for x in grid), *result)


def necessary_limit(x, cfg: PrecisionConfig = DEFAULT_CONFIG) -> SpecialValue:
    """-x - 1/(24 f(x)), f = F_0 = H_lambda without its lambda term
    (specfun._stirling_defect); tends to 1/2.

    An error d in f moves 1/(24 f) by at most d / (24 |f| (|f| - d)), which
    needs |f| > d; the bound adds the rounding of -x - 1/(24 f).
    """
    require_positive("x", x)
    with mp.workdps(cfg.dps):
        xm = mp.mpf(x)
        f = specfun._stirling_defect(xm, cfg)
        d = f.abs_error_bound
        if abs(f.value) <= d:
            raise NumericalError(f"f(x) indistinguishable from 0 at x={x}")
        af = abs(f.value)
        inv = 1 / (24 * f.value)
        propagated = d / (24 * af * (af - d))
        rounding = (xm + abs(inv)) * specfun._constants(cfg).eps
        return SpecialValue(-xm - inv, float(propagated + rounding))


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
    """[(1/(k-2)) ((3/2)^(k-2) - (1/2)^(k-2))]^(1/(k-3)); stays <= 3/2 and
    tends to 3/2 as k grows."""
    if not (isinstance(k, int) and k >= 4):
        raise DomainError(f"k must be an integer >= 4, got {k!r}")
    with mp.workdps(30):
        base = (mp.mpf(3) / 2) ** (k - 2) - (mp.mpf(1) / 2) ** (k - 2)
        return float((base / (k - 2)) ** (mp.mpf(1) / (k - 3)))
