"""Claim registry and verification harness.

Each claim is data: a stable id, the suites it belongs to, a default grid,
an expected verdict, and a runner producing (min_margin, argmin_x, verdict).
The falsify-printed suite reuses the same machinery with expected verdict
"falsified".  Exit-code contract: 0 = every claim matched its expected
verdict, 1 = at least one unexpected verdict, 2 = usage/I-O error.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Optional, Sequence

from mpmath import mp

from .config import DEFAULT_CONFIG, DomainError, ParameterError, PrecisionConfig, Sweep
from .config import FALSIFIED, INDETERMINATE, MAX_WORKING_DIGITS, VERIFIED, require_positive
from . import bounds, monotone, specfun
from .bounds import BoundFamily, FamilyId

__all__ = [
    "GridSpec",
    "VerificationReport",
    "Claim",
    "REGISTRY",
    "SUITE_IDS",
    "run_suite",
    "emit_report",
    "render_reports",
    "parse_reports",
    "exit_code",
    "claims_for_suite",
]


@dataclass(frozen=True)
class GridSpec:
    lo: float
    hi: float
    points: int
    spacing: str  # "linear" | "log"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ParameterError("GridSpec requires finite lo and hi")
        if not self.lo < self.hi:
            raise ParameterError("GridSpec requires lo < hi")
        if self.points < 2:
            raise ParameterError("GridSpec requires points >= 2")
        if self.spacing not in ("linear", "log"):
            raise ParameterError(f"unknown spacing {self.spacing!r}")
        if self.spacing == "log" and not self.lo > 0:
            raise ParameterError("log spacing requires lo > 0")

    def values(self) -> list:
        """The points lo + i step (linear) or lo ratio^i (log), i < points.
        Where hi/lo overflows the float range, the log points are taken as
        exp(ln lo + i ln(ratio)) from the logs of the ends, so they stay
        finite; the ends are then lo and hi themselves.  Points closer than
        the float spacing would repeat, so a grid whose points are not
        strictly increasing raises ParameterError."""
        if self.spacing == "linear":
            step = (self.hi - self.lo) / (self.points - 1)
            vals = [self.lo + i * step for i in range(self.points)]
        elif self.hi / self.lo < math.inf:
            ratio = (self.hi / self.lo) ** (1.0 / (self.points - 1))
            vals = [self.lo * ratio ** i for i in range(self.points)]
        else:
            ln_lo = math.log(self.lo)
            step = (math.log(self.hi) - ln_lo) / (self.points - 1)
            vals = [self.lo, *(math.exp(ln_lo + i * step) for i in range(1, self.points - 1)), self.hi]
        if not all(a < b for a, b in zip(vals, vals[1:])):
            raise ParameterError(f"the {self.points} points of the {self.spacing} grid on "
                                 f"[{self.lo!r}, {self.hi!r}] are finer than the float spacing")
        return vals


@dataclass(frozen=True)
class VerificationReport:
    claim_id: str
    grid: GridSpec
    min_margin: float
    argmin_x: float
    verdict: str
    precision_digits: int
    runtime_ms: int


@dataclass(frozen=True)
class Claim:
    claim_id: str
    suites: tuple
    expected: str
    grid: GridSpec
    runner: Callable  # runner(cfg, grid) -> (min_margin, argmin_x, verdict)
    grid_overridable: bool = False


# --- Theorem 2.1 -----------------------------------------------------------


def _run_necessary_limit(cfg, grid: GridSpec):
    """-x - 1/(24 f(x)) at x = 1e4 (monotone._necessary_limit_fixed) lies
    within 1e-3 of its limit 1/2."""
    sweep, (v, wp) = Sweep(), monotone._necessary_limit_fixed(1e4, cfg)
    lo, hi = (specfun._fixed_end(Fraction(b, 1000), wp) for b in (499, 501))
    _add_between(sweep, 1e4, lo, v, hi, wp)
    return sweep.result()


def _add_between(sweep: Sweep, at: float, lo: tuple, target: tuple, hi: tuple, wp: int) -> None:
    """Add lo <= target <= hi at `at`, three integer intervals at 2^-wp, as
    the margins target - lo and hi - target (specfun._add_interval)."""
    for m_lo, m_hi in ((target[0] - lo[1], target[1] - lo[0]), (hi[0] - target[1], hi[1] - target[0])):
        specfun._add_interval(sweep, at, m_lo, m_hi, wp)


def _run_threshold(cfg, grid: GridSpec):
    """1/2 < lambda_star < 3/2 on the proven bracket of monotone.lambda_star,
    whose upper end passed phi_sign_certificate (it raises otherwise)."""
    res, sweep = monotone.lambda_star(1e-8, cfg), Sweep()
    _add_exact(sweep, res.t_star, Fraction(res.bracket[0]) - Fraction(1, 2))
    _add_exact(sweep, res.t_star, Fraction(3, 2) - Fraction(res.bracket[1]))
    return sweep.result()


def _add_exact(sweep: Sweep, at: float, q) -> None:
    """Add an exact margin q, an int or Fraction, reported as its float."""
    sweep.add(at, float(q), q, q)


# --- one row pass: the CM sweeps of Thms 2.1, 3.3 and the Thm 3.1, 3.4 rows


@functools.lru_cache(maxsize=1)
def _row_pass(claims: tuple, cfg, grid: GridSpec) -> tuple:
    """monotone._row_pass at grid's points, floats that the kernel takes
    apart exactly, the last pass kept, keyed on the rows (their constants as
    values), cfg and grid, so another precision or a patched row recomputes."""
    return monotone._row_pass(claims, cfg, grid.values())


@dataclass(frozen=True)
class _Rows:
    """Runner of claim `index` of `claims`, which share one _row_pass: a
    sweep (lambda, sign) is the rows of monotone._cm_rows, orders 0..6, a row
    name the order-0 row of bounds._row_shape and _row_ties, both formed when
    the claim runs.  Equal runners compare equal, so run_suite runs each once."""

    claims: tuple
    index: int

    def __call__(self, cfg, grid: GridSpec):
        rows = tuple(monotone._cm_rows(*c, 6, cfg) if isinstance(c, tuple)
                     else ((0, *bounds._row_shape(c, cfg), bounds._row_ties(c, cfg)),) for c in self.claims)
        min_margin, (_, x), verdict = _row_pass(rows, cfg, grid)[self.index]
        return min_margin, x, verdict


# the eight Thm 2.1 CM sweeps (lambda, sign); Thm 3.3's claims are the 3rd and 6th
_CM_SWEEPS = ((0.0, "plus"), (0.25, "plus"), (0.5, "plus"), (0.6, "plus"), (1.0, "plus"),
              (1.5, "minus"), (2.0, "minus"), (5.0, "minus"))
_THM31_ROWS = (FamilyId.QI_GAMMA_LOW, FamilyId.QI_GAMMA_HIGH)  # Eqs. (3.1), (3.2)
# the corrected Eqs. (3.12), (3.13), then the printed (3.12) upper and (3.13) lower sides
_THM34_ROWS = (FamilyId.FACTORIAL_HIGH, FamilyId.FACTORIAL_LOW, "upper", "lower")


# --- point checks and Theorem 3.2 ------------------------------------------


def _run_best_constants(cfg, grid: GridSpec):
    """H_{1/2}(x) against c + ln(1 -+ 1e-3), c its limit (0 as x -> inf, Eq.
    (3.1)'s H_{1/2}(0+) as x -> 0): the ratio sqrt(2 pi) e^{H_{1/2}(x)} of
    Eq. (1.3) lies within 1e-3 of its limit sqrt(2 pi), resp. sqrt(2)
    e^{7/12}, relative; each point a row of monotone._row_margins."""
    sweep, logs = Sweep(), specfun._logs(specfun._constants(cfg).wl)
    _, c_inf, c_0 = bounds._row(BoundFamily(FamilyId.QI_GAMMA_LOW), cfg)
    for x, c in ((1e4, c_inf), (1e-6, c_0)):  # the mpf of 1/2 is exact
        row = (0, 24, mp.mpf(0.5), *((c[0] + ln[0], c[1] + ln[1]) for ln in (logs.ln999, logs.ln1001)))
        [(_, wp, margins)] = monotone._row_margins((row,), cfg, [x])
        for _, lo, hi in margins:
            specfun._add_interval(sweep, x, lo, hi, wp)
    return sweep.result()


def _run_section1(cfg, grid: GridSpec):
    """Section 1's comparison at x = 1, 2, 10: Sevli-Batir's lower bound and
    Bukac's upper bound both lie in [Bukac lower, Sevli-Batir upper], so
    each family is the sharper one on its side.  p(x) cancels from every
    margin, so they compare the intervals g of bounds._bound_g."""
    sweep, wl = Sweep(), specfun._constants(cfg).wl
    for x in (1.0, 2.0, 10.0):
        lo_b, hi_b = bounds._bound_g(BoundFamily(FamilyId.BUKAC_GAMMA), x, cfg)
        lo_s, hi_s = bounds._bound_g(BoundFamily(FamilyId.SEVLI_BATIR_GAMMA), x, cfg)
        for target in (lo_s, hi_b):
            _add_between(sweep, x, lo_b, target, hi_s, wl)
    return sweep.result()


def _run_harmonic(family: BoundFamily, constant: Fraction, cfg, grid: GridSpec):
    """H_1 = 1 against the bounds at n = 1 (bounds._harmonic_sides), exact on
    a corrected constant's side, then bounds.harmonic_tail for every n >= 2,
    labelled 2: not only up to the grid's 10^6, which names the range."""
    sweep, wl = Sweep(), specfun._constants(cfg).wl
    lo, hi = bounds._harmonic_sides(family, 1, constant, wl)
    _add_between(sweep, 1.0, lo, (1 << wl, 1 << wl), hi, wl)
    (a, b), lower, upper = bounds.harmonic_tail(family, 1, cfg, constant)
    _add_between(sweep, 2.0, lower, (specfun._fixed_end(a, wl)[0], specfun._fixed_end(b, wl)[1]), upper, wl)
    return sweep.result()


# --- Remark 1 (Bernoulli fraction, Mathieu partial sums) -------------------


# the 24s of Eq. (4.1)'s lower side x^2 u/24 and upper side x^2 u^3/24, read
# when the runners run, so that a changed value keys a new _remark1_pass
_EQ41_DENOMINATORS = (24, 24)
# from here on every Remark 1 margin is below x^2 e^{-x/2} < 1e-340
_REMARK1_X_MAX = 1600.0


def _remark1_margins(x: float, wl: int, dens: tuple) -> tuple:
    """(wp, intervals): Remark 1's four margins at x > 0 as integer intervals
    (lo, hi) in units of 2^(-2 wp), with u = e^{-x/2}, xb = x u^2/(1 - u^2) =
    x/(e^x - 1) and dens the two 24s of Eq. (4.1):

        Eq. (4.1):  xb - (u - x^2 u/24),  (u - x^2 u^3/24) - xb,
        Eq. (4.2):  xb - u^2,             u - xb.

    One exponential at wp bits, from monotone._exp_fixed, gives integers
    U_lo <= u 2^wp <= U_hi, wp = wl + floor(x/ln 2) + max(0, -mag x), wl
    of specfun._constants, so 2^-wp lies far below both e^{-x} and x.  The
    lemma: e^{-x/2} is irrational for rational x != 0, so a correct U_lo =
    floor(u 2^wp) gives U_hi = U_lo + 1 (_exp_fixed widens this by a unit
    only where u 2^wp lies within 2^-8 of an integer).  1 - u^2 is the exact
    2^(2wp) - U^2, so no expm1 is needed near x = 0.  Every term increases
    with u: it is floored at U_lo and ceiled at U_hi, and each margin takes
    the ends of its terms that make it widest."""
    wp = wl + int(x / math.log(2)) + max(0, -math.frexp(x)[1])
    xn, xd = x.as_integer_ratio()
    one = 1 << 2 * wp

    def terms(big_u, div):  # u, u^2, xb, x^2 u/24, x^2 u^3/24, in units of 2^(-2 wp)
        u2 = big_u * big_u
        x2u = xn * xn * big_u
        return (big_u << wp, u2, div(xn * u2 << 2 * wp, xd * (one - u2)),
                div(x2u << wp, dens[0] * xd * xd), div(x2u * u2, dens[1] * xd * xd << wp))

    u_lo, u_hi = monotone._exp_fixed(-xn, 2 * xd, wp)
    u, u2, xb, a, c = terms(u_lo, lambda n, d: n // d)
    u_, u2_, xb_, a_, c_ = terms(u_hi, specfun._cdiv)
    return wp, ((xb - u_ + a, xb_ - u + a_), (u - c_ - xb_, u_ - c - xb),
                (xb - u2_, xb_ - u2), (u - xb_, u_ - xb))


@functools.lru_cache(maxsize=1)
def _remark1_pass(cfg, grid: GridSpec, dens: tuple) -> tuple:
    """(Eq. (4.1)'s, Eq. (4.2)'s) (min_margin, argmin_x, verdict) on grid's
    points, from the integer intervals of _remark1_margins at cfg's
    precision, the last pass kept, each margin entered by
    specfun._add_interval.  From _REMARK1_X_MAX on a margin enters as an
    interval around 0, undecided."""
    wl, eq41, eq42 = specfun._constants(cfg).wl, Sweep(), Sweep()
    for x in grid.values():
        require_positive("x", x)
        wp, margins = _remark1_margins(x, wl, dens) if x < _REMARK1_X_MAX else (0, ((-1, 1),) * 4)
        for sweep, (lo, hi) in zip((eq41, eq41, eq42, eq42), margins):
            specfun._add_interval(sweep, x, lo, hi, 2 * wp)
    return eq41.result(), eq42.result()


def _run_mathieu(cfg, grid: GridSpec):
    """Mathieu's partial sums increase, since S_n - S_(n-1) = 2n/(n^2+1)^2 > 0
    exactly (n = 2..50, r = 1), and the tail bound 1/(N^2+1) of
    specfun.mathieu_partial at N = 1000 covers the observed remainder
    S_2000 - S_1000, decided in the fixed point of specfun._mathieu_fixed:
    the two sums share their first 1000 floored terms, which puts their
    difference less than 1000 units of 2^-wp low and the tail bound less
    than one high: the true margin lies in (M - 1001, M] units for the M
    formed."""
    sweep, wp = Sweep(), specfun._constants(cfg).wl
    for n in range(2, 51):
        _add_exact(sweep, float(n), Fraction(2 * n, (n * n + 1) ** 2))
    coarse, tail = specfun._mathieu_fixed(1.0, 1000, wp)
    fine, _ = specfun._mathieu_fixed(1.0, 2000, wp)
    big_m = tail - (fine - coarse)
    sweep.add(1000.0, big_m / (1 << wp), big_m - 1001, big_m)
    return sweep.result()


# --- exact-arithmetic ledger (Section 2 proof machinery) -------------------


def _run_series_pivot(cfg, grid: GridSpec):
    """c_4 = 0, c_5 = 112 (t^5 term 7/240) and c_5 > 0 as margins 1 or -1,
    then 0 < k^3 + 23k - 24 < c_k for k = 6..60, all exact."""
    sweep = Sweep()
    c4, _ = monotone.series_coeff_pivot(4)
    c5, term5 = monotone.series_coeff_pivot(5)
    for k, ok in ((4, c4 == 0), (5, c5 == 112 and term5 == Fraction(7, 240)), (5, c5 > 0)):
        _add_exact(sweep, float(k), 1 if ok else -1)
    for k in range(6, 61):
        ck, _ = monotone.series_coeff_pivot(k)
        chained = k ** 3 + 23 * k - 24
        _add_exact(sweep, float(k), min(ck - chained, chained))
    return sweep.result()


def _run_series_lambda(cfg, grid: GridSpec):
    lam, sweep = Fraction(3, 2), Sweep()
    for k in range(3, 31):
        lhs, rhs = monotone.series_coeff_lambda(k, lam)
        _add_exact(sweep, float(k), lhs - rhs)
        mid = (lam + 1) ** k - lam ** k - k * (lam + Fraction(1, 2)) ** (k - 1)
        bound = Fraction(k * (k - 1) * (k - 2)) * lam ** (k - 3) / 24
        _add_exact(sweep, float(k), mid - bound)
    return sweep.result()


def _run_kth_root(cfg, grid: GridSpec):
    """kth_root_bound(k) <= 3/2 for k = 4..200, decided exactly by the sign
    of the integer monotone.kth_root_gap(k), both ends of each margin.  The
    margin reported is 1.5 - kth_root_bound(k), with the sign the integer
    decides (config.Sweep), so a float root can size the margin but never
    turn the verdict.  Every k >= 4 holds, not only the sampled ones:
    3^(k-2) - 1 < 3 3^(k-3) <= 2(k-2) 3^(k-3), since 2(k-2) >= 3."""
    sweep = Sweep()
    for k in range(4, 201):
        gap = monotone.kth_root_gap(k)
        sweep.add(float(k), 1.5 - monotone.kth_root_bound(k), gap, gap)
    return sweep.result()


# --- two-path consistency ---------------------------------------------------


_LAPLACE_XS = (0.5, 1.0, 2.0, 5.0, 10.0)
_LAPLACE_LAM0 = 0.5


def _laplace_residuals(cfg) -> list:
    """[(x, R)] for the 5 x of _LAPLACE_XS, R an integer interval at scale
    2^-wl of specfun._constants(cfg) that holds Q(x, 1/2) - H_{1/2}'(x): Q the
    certified enclosure of
    H_lambda'(x) = int_0^inf phi_lambda e^{-xt} dt (monotone.laplace_enclosure),
    less the closed form with its bound (monotone._laplace_residual).

    One residual per x stands for every lambda.  phi depends on lambda only
    through its term -t e^{-lambda t}/24, whose Laplace transform is
    -1/(24 (x+lambda)^2), and H_lambda' depends on it only through the same
    -1/(24 (x+lambda)^2), so the two cancel in

        Q(x, lambda) - H_lambda'(x) = Q(x, 1/2) + 1/(24 (x+1/2)^2)
                                      - psi(x+1) + ln(x+1/2).
    """
    return [(x, monotone._laplace_residual(x, _LAPLACE_LAM0, cfg)) for x in _LAPLACE_XS]


def _run_laplace(cfg, grid: GridSpec):
    """Two-path check of H_lambda' = Laplace transform of phi_lambda, for
    every lambda at once, with one enclosure per x; see _laplace_residuals.

    Each margin 1e-10 - |R| is formed as an integer interval and added
    through specfun._add_interval, so it is certified at its point: the
    enclosure of Q is proved and the closed form's bound is folded into R.  The claim still
    checks 5 points x: it is certified at its points, a sample of the
    identity rather than a proof of it.
    """
    sweep, wp = Sweep(), specfun._constants(cfg).wl
    tol_lo, tol_hi = specfun._fixed_end(1e-10, wp)
    for x, (lo, hi) in _laplace_residuals(cfg):
        abs_lo = 0 if lo <= 0 <= hi else min(abs(lo), abs(hi))
        specfun._add_interval(sweep, x, tol_lo - max(-lo, hi), tol_hi - abs_lo, wp)
    return sweep.result()


# --- registry ---------------------------------------------------------------

_CM_GRID = GridSpec(1e-2, 100.0, 48, "log")
_PHI_GRID = GridSpec(1e-4, 200.0, 2000, "log")
_GAMMA_GRID = GridSpec(1e-3, 100.0, 500, "log")
_HARMONIC_GRID = GridSpec(1.0, 1e6, 10 ** 6, "linear")
_FACTORIAL_GRID = GridSpec(1.0, 170.0, 170, "linear")
_BERNOULLI_GRID = GridSpec(1e-3, 50.0, 500, "log")
_POINT_GRID = GridSpec(1.0, 1e4, 2, "log")
_K_GRID = GridSpec(3.0, 200.0, 198, "linear")
_HARMONIC_LOW, _HARMONIC_HIGH = BoundFamily(FamilyId.HARMONIC_LOW), BoundFamily(FamilyId.HARMONIC_HIGH)

REGISTRY: tuple = (
    Claim("thm2.1-item1-cm-lam0", ("thm2.1",), VERIFIED, _CM_GRID, _Rows(_CM_SWEEPS, 0), True),
    Claim("thm2.1-item1-cm-lam0.25", ("thm2.1",), VERIFIED, _CM_GRID, _Rows(_CM_SWEEPS, 1), True),
    Claim("thm2.1-item1-cm-lam0.5", ("thm2.1",), VERIFIED, _CM_GRID, _Rows(_CM_SWEEPS, 2), True),
    Claim("thm2.1-item1-necessity-lam0.6", ("thm2.1",), FALSIFIED, _CM_GRID, _Rows(_CM_SWEEPS, 3), True),
    Claim("thm2.1-item1-necessity-lam1.0", ("thm2.1",), FALSIFIED, _CM_GRID, _Rows(_CM_SWEEPS, 4), True),
    Claim("thm2.1-item3-cm-lam1.5", ("thm2.1",), VERIFIED, _CM_GRID, _Rows(_CM_SWEEPS, 5), True),
    Claim("thm2.1-item3-cm-lam2", ("thm2.1",), VERIFIED, _CM_GRID, _Rows(_CM_SWEEPS, 6), True),
    Claim("thm2.1-item3-cm-lam5", ("thm2.1",), VERIFIED, _CM_GRID, _Rows(_CM_SWEEPS, 7), True),
    # the _PHI_GRID of the phi-sign claims only labels them: the certificate
    # proves the sign on all of (0, inf)
    Claim("thm2.1-phi-nonpositive-lam0.5", ("thm2.1",), VERIFIED, _PHI_GRID,
          lambda cfg, grid: monotone.phi_sign_certificate(0.5, -1, cfg)),
    Claim("thm2.1-phi-nonnegative-lam1.5", ("thm2.1",), VERIFIED, _PHI_GRID,
          lambda cfg, grid: monotone.phi_sign_certificate(1.5, 1, cfg)),
    Claim("thm2.1-necessary-limit", ("thm2.1",), VERIFIED, _POINT_GRID, _run_necessary_limit),
    Claim("thm2.1-threshold", ("thm2.1",), VERIFIED, _PHI_GRID, _run_threshold),
    Claim("eq2.12-series-coeffs", ("thm2.1",), VERIFIED, _K_GRID, _run_series_pivot),
    Claim("eq2.16-coefficient-check", ("thm2.1",), VERIFIED, _K_GRID, _run_series_lambda),
    Claim("kth-root-bound", ("thm2.1",), VERIFIED, _K_GRID, _run_kth_root),
    Claim("two-path-laplace", ("thm2.1",), VERIFIED, _PHI_GRID, _run_laplace),
    # both rows run in one pass; eq3.2 reads the pass eq3.1 ran
    Claim("thm3.1-eq3.1-containment", ("thm3.1",), VERIFIED, _GAMMA_GRID,
          _Rows(_THM31_ROWS, 0), True),
    Claim("thm3.1-eq3.2-containment", ("thm3.1",), VERIFIED, _GAMMA_GRID,
          _Rows(_THM31_ROWS, 1), True),
    Claim("eq1.3-best-constants", ("thm3.1",), VERIFIED, _POINT_GRID, _run_best_constants),
    Claim("sec1-comparison", ("thm3.1",), VERIFIED, _POINT_GRID, _run_section1),
    Claim("thm3.2-eq3.7", ("thm3.2",), VERIFIED, _HARMONIC_GRID,
          functools.partial(_run_harmonic, _HARMONIC_LOW, bounds.CORRECTED_HARMONIC_CONSTANT)),
    Claim("thm3.2-eq3.8-corrected", ("thm3.2",), VERIFIED, _HARMONIC_GRID,
          functools.partial(_run_harmonic, _HARMONIC_HIGH, bounds.CORRECTED_HARMONIC_CONSTANT)),
    Claim("eq3.8-as-printed", ("thm3.2", "falsify-printed"), FALSIFIED, _HARMONIC_GRID,
          functools.partial(_run_harmonic, _HARMONIC_HIGH, bounds.PRINTED_HARMONIC_CONSTANT)),
    Claim("thm3.3-lcm-G-lam0.5", ("thm3.3",), VERIFIED, _CM_GRID, _Rows(_CM_SWEEPS, 2), True),
    Claim("thm3.3-lcm-recip-G-lam1.5", ("thm3.3",), VERIFIED, _CM_GRID, _Rows(_CM_SWEEPS, 5), True),
    # the four Thm 3.4 claims run in one pass
    Claim("thm3.4-eq3.12-corrected", ("thm3.4",), VERIFIED, _FACTORIAL_GRID,
          _Rows(_THM34_ROWS, 0)),
    Claim("thm3.4-eq3.13-corrected", ("thm3.4",), VERIFIED, _FACTORIAL_GRID,
          _Rows(_THM34_ROWS, 1)),
    Claim("eq3.12-as-printed", ("thm3.4", "falsify-printed"), FALSIFIED, _FACTORIAL_GRID,
          _Rows(_THM34_ROWS, 2)),
    Claim("eq3.13-as-printed", ("thm3.4", "falsify-printed"), FALSIFIED, _FACTORIAL_GRID,
          _Rows(_THM34_ROWS, 3)),
    # both Remark 1 bounds run in one pass; eq4.2 reads the pass eq4.1 ran
    Claim("remark1-eq4.1-containment", ("remark1",), VERIFIED, _BERNOULLI_GRID,
          lambda cfg, grid: _remark1_pass(cfg, grid, _EQ41_DENOMINATORS)[0], True),
    Claim("remark1-eq4.2-containment", ("remark1",), VERIFIED, _BERNOULLI_GRID,
          lambda cfg, grid: _remark1_pass(cfg, grid, _EQ41_DENOMINATORS)[1], True),
    Claim("remark1-mathieu-partial", ("remark1",), VERIFIED, _POINT_GRID, _run_mathieu),
)

SUITE_IDS = ("all", "thm2.1", "thm3.1", "thm3.2", "thm3.3", "thm3.4", "remark1", "falsify-printed")


def claims_for_suite(suite_id: str) -> list:
    if suite_id not in SUITE_IDS:
        raise DomainError(f"unknown suite id {suite_id!r}; choose one of {SUITE_IDS}")
    if suite_id == "all":
        return list(REGISTRY)
    return [c for c in REGISTRY if suite_id in c.suites]


def _run_claim(claim: Claim, cfg: PrecisionConfig, grid: GridSpec) -> VerificationReport:
    start = time.perf_counter()
    min_margin, argmin_x, verdict = claim.runner(cfg, grid)
    if verdict == INDETERMINATE and 2 * cfg.working_digits <= MAX_WORKING_DIGITS:
        # one automatic retry at doubled working precision, within the limit
        cfg = cfg.doubled()
        min_margin, argmin_x, verdict = claim.runner(cfg, grid)
    runtime_ms = int((time.perf_counter() - start) * 1000)
    return VerificationReport(
        claim_id=claim.claim_id,
        grid=grid,
        min_margin=float(min_margin),
        argmin_x=float(argmin_x),
        verdict=verdict,
        precision_digits=cfg.working_digits,
        runtime_ms=runtime_ms,
    )


def run_suite(
    suite_id: str,
    cfg: PrecisionConfig = DEFAULT_CONFIG,
    grid_override: Optional[GridSpec] = None,
) -> list:
    """Run every claim registered for a suite, in registry order.

    A claim whose runner and grid equal an earlier claim's in the same call
    reuses that report under its own claim_id, with runtime_ms 0: the
    thm3.3 LCM claims are the Thm 2.1 CM sweeps at lambda = 1/2 and 3/2.
    """
    reports = []
    done = {}  # (runner, grid) -> report of this call
    for claim in claims_for_suite(suite_id):
        grid = grid_override if (grid_override and claim.grid_overridable) else claim.grid
        key = (claim.runner, grid)
        if key in done:
            reports.append(replace(done[key], claim_id=claim.claim_id, runtime_ms=0))
        else:
            done[key] = _run_claim(claim, cfg, grid)
            reports.append(done[key])
    return reports


def exit_code(reports: Sequence[VerificationReport]) -> int:
    expected = {c.claim_id: c.expected for c in REGISTRY}
    for rep in reports:
        if rep.verdict != expected[rep.claim_id]:
            return 1
    return 0


# --- serialization ----------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _report_json(rep: VerificationReport) -> str:
    import json  # on use, as in parse_reports, so the CLI imports faster
    grid = (
        "{"
        + f'"lo": {_fmt(rep.grid.lo)}, "hi": {_fmt(rep.grid.hi)}, '
        + f'"points": {rep.grid.points}, "spacing": {json.dumps(rep.grid.spacing)}'
        + "}"
    )
    return (
        "{"
        + f'"claim_id": {json.dumps(rep.claim_id)}, "grid": {grid}, '
        + f'"min_margin": {_fmt(rep.min_margin)}, "argmin_x": {_fmt(rep.argmin_x)}, '
        + f'"verdict": {json.dumps(rep.verdict)}, "precision_digits": {rep.precision_digits}, '
        + f'"runtime_ms": {rep.runtime_ms}'
        + "}"
    )


CSV_HEADER = [
    "claim_id", "lo", "hi", "points", "spacing",
    "min_margin", "argmin_x", "verdict", "precision_digits", "runtime_ms",
]


def render_reports(reports: Sequence[VerificationReport], format: str) -> str:
    """Byte-stable rendering: floats at 17 significant digits, fixed key order."""
    if format == "json":
        if not reports:
            return "[]\n"
        body = ",\n  ".join(_report_json(r) for r in reports)
        return "[\n  " + body + "\n]\n"
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in reports:
            writer.writerow([
                r.claim_id, _fmt(r.grid.lo), _fmt(r.grid.hi), r.grid.points, r.grid.spacing,
                _fmt(r.min_margin), _fmt(r.argmin_x), r.verdict, r.precision_digits, r.runtime_ms,
            ])
        return buf.getvalue()
    raise ParameterError(f"unknown report format {format!r}")


def emit_report(reports: Sequence[VerificationReport], format: str, path: str) -> None:
    text = render_reports(reports, format)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# the type of each field of CSV_HEADER; float stands for any number, an int too
_FIELD_TYPES = (str, float, float, int, str, float, float, str, int, int)


def _typed_csv_row(row: Sequence) -> list:
    """The fields of a CSV row parsed as the types of _FIELD_TYPES; a field
    that does not parse raises ParameterError."""
    out = []
    for name, kind, text in zip(CSV_HEADER, _FIELD_TYPES, row):
        try:
            out.append(kind(text))
        except ValueError:
            raise ParameterError(f"CSV report field {name} = {text!r} is not {kind.__name__}") from None
    return out


def _report_from_row(row: Sequence) -> VerificationReport:
    """Build a report from typed field values in CSV_HEADER order.  A str
    field must be a str, an int field an int and a float field a number
    (an int or a float); a bool, JSON's true or false, is none of these."""
    for name, kind, value in zip(CSV_HEADER, _FIELD_TYPES, row):
        allowed = (int, float) if kind is float else kind
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise ParameterError(f"report field {name} = {value!r} is not {kind.__name__}")
    claim_id, lo, hi, points, spacing, min_margin, argmin_x, verdict, digits, runtime_ms = row
    if verdict not in (VERIFIED, FALSIFIED, INDETERMINATE):
        raise ParameterError(f"report of {claim_id!r} has the unknown verdict {verdict!r}")
    return VerificationReport(
        claim_id=claim_id,
        grid=GridSpec(float(lo), float(hi), points, spacing),
        min_margin=float(min_margin),
        argmin_x=float(argmin_x),
        verdict=verdict,
        precision_digits=digits,
        runtime_ms=runtime_ms,
    )


def parse_reports(text: str, format: str) -> list:
    """Inverse of render_reports; round-trips exactly.  ParameterError is
    raised for a CSV text without the expected header, with a row of the
    wrong width or with a field that does not parse as its type, a JSON text
    that is not a list of objects or whose report lacks a key or has a field
    of the wrong type (see _report_from_row), and, in both formats, a
    verdict other than verified, falsified or indeterminate."""
    if format == "json":
        import json

        objs = json.loads(text)
        if not (isinstance(objs, list) and all(isinstance(o, dict) for o in objs)):
            raise ParameterError("JSON report is not a list of objects")
        try:
            rows = [[o["claim_id"]] + [o["grid"][k] for k in CSV_HEADER[1:5]] + [o[k] for k in CSV_HEADER[5:]]
                    for o in objs]
        except KeyError as exc:
            raise ParameterError(f"JSON report lacks the key {exc}") from None
        except TypeError:  # o["grid"] indexed by a key, but not an object
            raise ParameterError("JSON report has a grid that is not an object") from None
        return [_report_from_row(row) for row in rows]
    if format == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != CSV_HEADER:
            raise ParameterError("CSV report does not start with the expected header")
        for row in rows[1:]:
            if len(row) != len(CSV_HEADER):
                raise ParameterError(f"CSV report row has {len(row)} fields, expected {len(CSV_HEADER)}")
        return [_report_from_row(_typed_csv_row(row)) for row in rows[1:]]
    raise ParameterError(f"unknown report format {format!r}")
