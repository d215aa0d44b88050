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

lambda_star = sup_t h(t) with h(t) = -(1/t) ln[(24/t^2)(e^{-t/2} - t/(e^t-1))].
phi_sign_certificate proves the sign of phi_lambda on all of (0, inf) in
interval arithmetic, and lambda_star returns a bracket of lambda_star that
is proven the same way.
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


def _plus_lambda_fixed(f: int, k: int, xm, lm, wp: int) -> int:
    """H_lambda^(k)(x) 2^wp = f + (-1)^k floor(k! 2^wp / (24 (x+lambda)^(k+1))),
    within one unit more than f = F_k(x) 2^wp, an integer of the kernel
    (specfun._stirling_defect_fixed); xm = x and lm = lambda are mpf.  Both
    are exact integers times powers of two, so x + lambda = Y 2^t is exact
    and the lambda term is the floor of one integer quotient."""
    _, xman, xe, _ = xm._mpf_
    _, lman, le, _ = lm._mpf_
    t = min(xe, le)
    shift, num = wp - t * (k + 1), math.factorial(k)
    den = 24 * ((xman << (xe - t)) + (lman << (le - t))) ** (k + 1)
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
    return specfun._rounded(_plus_lambda_fixed(fs[k], k, xm, lm, wp), wp,
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


def _phi_coeffs(lam: Fraction):
    """Yield (c_k, s_k) for k = 2, 3, ..., exactly, where phi_lambda(t) =
    sum_k c_k t^k, c_k = a_k - b_k - d_k and s_k = |a_k| + |b_k| + |d_k|:

        a_k = (-1/2)^(k+1)/(k+1)!,  b_k = B_(k+1)/(k+1)!,
        d_k = (-lambda)^(k-1)/(24 (k-1)!),

    from the series of e^{-t/2}/t, 1/(e^t-1) and t e^{-lambda t}/24.  The
    coefficients of t^-1 .. t^1 cancel, and c_2 = (2 lambda - 1)/48.
    """
    for k in itertools.count(2):
        f = math.factorial(k + 1)
        a = Fraction((-1) ** (k + 1), 2 ** (k + 1) * f)
        b = Fraction(*mp.bernfrac(k + 1)) / f
        d = (-lam) ** (k - 1) / (24 * math.factorial(k - 1))
        yield a - b - d, abs(a) + abs(b) + abs(d)


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


def _phi_terms(tm, ctx=mp):
    """(e^{-t/2}/t, 1/(e^t-1)), the lambda-free terms of phi, from one
    exponential of -t/2, in ctx (mp, or mpmath.iv for an interval t).  For
    t < 1, v = expm1(-t/2) gives 1 - e^{-t} = -v (2+v) without cancellation;
    for t >= 1, u = e^{-t/2} and 1 - u^2 lose nothing, and both terms
    increase with u, so an interval t loses no width to dependency."""
    if tm < 1:
        v = ctx.expm1(-tm / 2)
        u = 1 + v
        one_minus_u2 = -v * (2 + v)
    else:
        u = ctx.exp(-tm / 2)
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


# tanh-sinh at degree d uses on the order of 20 * 2^d nodes.
_QUAD_MAXDEGREE = 8


def _quad_cutoff(x) -> float:
    """Truncation point T = max(50, 60/x) of an improper Laplace-type
    integral at x > 0, which puts e^{-xT} below e^{-60}."""
    return max(50.0, 60.0 / float(x))


def _laplace_quad(x, lam, cfg: PrecisionConfig, phi=None):
    """int_0^T phi_lambda(t) e^{-xt} dt by tanh-sinh quadrature with
    T = _quad_cutoff(x), so the omitted tail is e^{-60}-small in scale.
    `phi(t)` stands in for phi_integrand(t, lam) when given (a memo of it)."""
    if phi is None:
        phi = lambda t: phi_integrand(t, lam)
    with mp.workdps(cfg.dps):
        xm = mp.mpf(x)
        T = mp.mpf(_quad_cutoff(x))
        f = lambda t: phi(t) * mp.exp(-xm * t)
        pts = sorted({mp.mpf(0), min(1, T), min(10, T), min(30, T), T})
        try:
            return mp.quad(f, pts, maxdegree=_QUAD_MAXDEGREE)
        except Exception as exc:
            raise NumericalError(f"Laplace quadrature failed at x={x}, lambda={lam}") from exc


def laplace_check(x, lam, cfg: PrecisionConfig = DEFAULT_CONFIG) -> float:
    """Residual between the quadrature of the Laplace representation of
    H_lambda' and its closed form; expected within combined error bounds."""
    require_positive("x", x)
    _check_lambda(lam)
    closed = H_lambda_prime(x, lam, cfg)
    quad = _laplace_quad(x, lam, cfg)
    with mp.workdps(cfg.dps):
        return float(quad - closed.value)


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


def _phi_series(lam) -> tuple:
    """(coefficients, remainder): phi_lambda(t)/t^p lies in sum_i
    coefficients[i] t^i + remainder for 0 < t <= 2, with p = 3 if c_2 = 0
    (lambda = 1/2), else 2.  Keeping c_p .. c_n, n = _TAYLOR_TERMS + 1, the
    bounds |a_k| = 2^-(k+1)/(k+1)!, |b_k| <= 4/(2 pi)^(k+1), |d_k| =
    lambda^(k-1)/(24 (k-1)!) and t^(k-p) <= 2^(k-p) give, for 2 lambda < n + 1,

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
    return [iv.mpf(c.numerator) / c.denominator for c in coeffs[p - 2:]], iv.mpf([-r, r])


def _add_enclosure(sweep: Sweep, at: float, enc) -> None:
    """Add an interval margin to sweep as its midpoint and radius, the
    radius rounded up so that the two floats still cover the interval."""
    margin = float(enc.mid)
    d = iv.mpf(margin) - enc
    sweep.add(at, margin, math.nextafter(max(-float(d.a), float(d.b)), math.inf))


def phi_sign_certificate(lam, sign: int, cfg: PrecisionConfig = DEFAULT_CONFIG) -> tuple:
    """(min_margin, argmin, verdict) of sign * phi_lambda(t) > 0 for all t > 0
    (sign = 1 or -1), proved in mpmath.iv at cfg.dps digits.

    By Bernstein's theorem phi_lambda < 0 on (0, inf) makes H_lambda
    completely monotonic and phi_lambda > 0 makes -H_lambda so.  Pieces:
    (0, 2], the polynomial of _phi_series by Horner's rule plus its
    remainder, so margins of sign * phi/t^p; [2, 20], the centred form
    phi(m) + phi'(box) (box - m) with m the midpoint and b = 1/(e^t-1),

        phi'(t) = -(1/2 + 1/t) e^{-t/2}/t + b (1 + b) - (1 - lambda t) e^{-lambda t}/24;

    beyond 20, a closed-form bound whose slack is the margin.  A box whose
    enclosure holds 0 is bisected, up to _CERT_MAX_BOXES boxes.  Each leaf
    adds its enclosure to one Sweep under its midpoint: "verified" needs
    every enclosure to have the wanted sign, one wholly of the other sign
    gives "falsified" and ends the proof, anything else is "indeterminate"
    (so is lambda above about 3, where the Taylor piece is too wide).
    """
    _check_lambda(lam)
    if sign not in (1, -1):
        raise DomainError(f"sign must be 1 or -1, got {sign!r}")
    sweep, boxes = Sweep(), 0
    with _iv_dps(cfg.dps):
        lm = iv.mpf(lam)
        coeffs, rem = _phi_series(lam)

        def taylor(x, m):
            s = coeffs[-1]
            for c in reversed(coeffs[:-1]):
                s = s * x + c
            return s + rem

        def centred(x, m):
            a, b = _phi_terms(m, iv)
            phi_m = a - b - m * iv.exp(-lm * m) / 24
            a, b = _phi_terms(x, iv)
            dphi = -(0.5 + 1 / x) * a + b * (1 + b) - (1 - lm * x) * iv.exp(-lm * x) / 24
            return phi_m + dphi * (x - m)

        for enclose, lo, hi in ((taylor, 0.0, 2.0), (centred, 2.0, _T_TAIL)):
            stack = [(lo, hi)]
            while stack:
                l, r = stack.pop()
                m = (l + r) / 2
                enc = sign * enclose(iv.mpf([l, r]), iv.mpf(m))
                boxes += 1
                if 0 in enc and l < m < r and boxes < _CERT_MAX_BOXES:
                    stack += [(m, r), (l, m)]
                    continue
                _add_enclosure(sweep, m, enc)
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
        _add_enclosure(sweep, _T_TAIL, tail)
    return sweep.result()


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
    with _iv_dps(cfg.dps):
        u, v = _phi_terms(iv.mpf(t), iv)
        lo = math.nextafter(float((-iv.log(24 * (u - v) / t) / t).a), -math.inf)
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


@functools.lru_cache(maxsize=1)
def _free_table(grid: tuple, max_order: int, cfg: PrecisionConfig) -> tuple:
    """((x, Fs, wp, errs) for each x of grid): x an mpf and Fs[k] 2^-wp =
    F_k(x), k = 0..max_order, the lambda-free parts of H_lambda^(0..max_order)
    within errs[k], from one call of the kernel specfun._stirling_defect_fixed
    per x, never rounded; the last table built is kept."""
    with mp.workdps(cfg.dps):  # x at full precision, never rounded to float64
        xms = [mp.mpf(x) for x in grid]
    return tuple((xm, *specfun._stirling_defect_fixed(xm, cfg, max_order)) for xm in xms)


def cm_check(
    lam,
    sign: str,
    max_order: int = 6,
    grid: Sequence | None = None,
    cfg: PrecisionConfig = DEFAULT_CONFIG,
) -> CMReport:
    """Check s * (-1)^n H_lambda^(n)(x) >= 0 for n = 0..max_order on a grid.

    H_lambda^(n)(x) is F_n(x), which does not depend on lambda, plus the
    lambda term (-1)^n n!/(24 (x+lambda)^(n+1)).  One call of the kernel
    specfun._stirling_defect_fixed per grid point returns F_0..F_max_order
    as integers F 2^wp from a single upward shift, each with its own bound
    err.  They are kept in a table keyed on the grid, max_order and cfg
    (one table at a time, _free_table), so sweeps that differ only in
    lambda or sign, such as the eight Thm 2.1 sweeps of `gammacert verify`,
    compute them once.

    Each margin is one integer, s (-1)^n (F + T) with T the floor of the
    lambda term (_plus_lambda_fixed), rounded once to the nearest float.
    Its error is err, one unit of 2^-wp for T's floor and one of 2^-wl,
    wl = prec + specfun._FIXED_GUARD_BITS, for the float rounding of the
    margin and of the sum of the bound, each at most 2^-53 of the bound
    where the margin meets it: while the kernel's series meet their target
    its bound stays below 10^(4-dps), under 2^(51-wl), so 2^-51 of it is
    under 2^-wl (the argument of harness._row_margins).
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
    s = 1 if sign == "plus" else -1

    sweep = Sweep()
    with mp.workdps(cfg.dps):
        lm = mp.mpf(lam)
    wl = specfun._constants(cfg).wl
    for x, (xm, fs, wp, errs) in zip(grid, _free_table(tuple(grid), max_order, cfg)):
        scale, slack = 1 << wp, math.ldexp(1, -wp) + math.ldexp(1, -wl)
        for order, (f, err) in enumerate(zip(fs, errs)):
            big_m = _plus_lambda_fixed(f, order, xm, lm, wp)
            sweep.add((order, float(x)), (-s if order % 2 else s) * big_m / scale, err + slack)

    return CMReport(float(lam), sign, max_order, tuple(float(x) for x in grid), *sweep.result())


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
