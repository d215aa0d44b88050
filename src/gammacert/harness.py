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

from mpmath import libmp, mp

from .config import DEFAULT_CONFIG, DomainError, ParameterError, PrecisionConfig, SpecialValue, Sweep
from .config import FALSIFIED, INDETERMINATE, VERIFIED
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


@dataclass(frozen=True)
class _CMSweep:
    """Runner of the complete-monotonicity sweep of s * H_lambda, orders 0..6.
    Equal sweeps compare equal, so run_suite runs each one once."""

    lam: float
    sign: str

    def __call__(self, cfg, grid: GridSpec):
        rep = monotone.cm_check(self.lam, self.sign, max_order=6, grid=grid.values(), cfg=cfg)
        return rep.min_margin, rep.argmin[1], rep.verdict


def _necessary_limit_cases(cfg, grid: GridSpec):
    """-x - 1/(24 f(x)) at x = 1e4, which must lie within 1e-3 of its limit 1/2."""
    yield (1e4, monotone.necessary_limit(1e4, cfg), mp.mpf("0.499"), mp.mpf("0.501"))


def _run_threshold(cfg, grid: GridSpec):
    """1/2 < lambda_star < 3/2 on the proven bracket of monotone.lambda_star,
    whose upper end passed phi_sign_certificate (it raises otherwise)."""
    res = monotone.lambda_star(1e-8, cfg)
    sweep = Sweep()
    sweep.add(res.t_star, res.bracket[0] - 0.5, 0.0)
    sweep.add(res.t_star, 1.5 - res.bracket[1], 0.0)
    return sweep.result()


# --- containment: Theorems 3.1, 3.2, 3.4, Remark 1 and point checks -------


def _run_containment(cases: Callable, *args, allow_equality: bool = False):
    """Runner of a claim that a certified target lies between a lower and
    an upper bound at every check point.

    cases(*args, cfg, grid) runs at cfg.dps and yields (point, target, lo,
    hi): a SpecialValue and the bounds there, such as a family's, looked up
    in `bounds` at call time.  Every margin carries one error, added by
    _add_case:

        target.abs_error_bound + (|target| + |lo| + |hi|) 10^(2-dps),

    the target's certified error plus the rounding of the target and of the
    bound expressions, which are evaluated at cfg.dps.
    """

    def runner(cfg, grid: GridSpec):
        sweep, eps = Sweep(), float(specfun._constants(cfg).eps)
        with mp.workdps(cfg.dps):
            for case in cases(*args, cfg, grid):
                _add_case(sweep, eps, *case, allow_equality)
        return sweep.result()

    return runner


def _add_case(sweep, eps: float, p, target, lo, hi, allow_equality=False):
    """Add lo <= target <= hi at p to sweep, with _run_containment's error;
    eps is 10^(2-dps) as a float."""
    t = target.value
    err = target.abs_error_bound + (abs(float(t)) + abs(float(lo)) + abs(float(hi))) * eps
    sweep.add(float(p), float(t - lo), err, allow_equality)
    sweep.add(float(p), float(hi - t), err, allow_equality)


def _row_margins(rows: tuple, cfg, xs):
    """Yield (x, 2^wp, [(row, M, err)]) for each float x of xs, one entry per
    side of each row: M 2^-wp is the margin of lo <= target on a lower side
    and of target <= hi on an upper one.  A row is (d, lambda, c_lo, c_hi,
    size), the shape c_lo <= F_0(x) + 1/(d (x+lambda)) <= c_hi of
    bounds._row_shape, with mpf constants at cfg.dps formed from terms of
    magnitudes summing to size; a side whose c is infinite is left out.

    Everything is decided in the fixed point of the F_0 kernel: F 2^-wp is
    F_0(x) from specfun._stirling_defect_fixed at exact x, never rounded,
    and x + lambda = Y 2^t is exact, so with

        T = floor(2^(wp-t) / (d Y)),  C = floor(c 2^wp)  (once per row and wp),

    the lower margin is M = F + T - C_lo, the upper M = C_hi - F - T, in
    units of 2^-wp; _row_pass rounds each once to the nearest float.

    Error lemma (in the style of Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed. 2002, sec. 3.1).  Each margin is within

        err + 3 2^-wl + size 10^(2-dps),  wl = prec + _FIXED_GUARD_BITS <= wp,

    of its true value, where
      - err is the kernel's bound on F (its lemma; nothing is rounded);
      - the floors of T and of C are each off by less than 2^-wp <= 2^-wl;
      - c, an expression of a few mpmath operations at cfg.dps, is off from
        the exact constant by at most size 10^(2-dps), the project's
        rounding rule (specfun._constants) on the magnitudes of its terms,
        which can far exceed |c|: H_{1/2}(1) = 1/36 - p(1) is 6.4e-4, its
        terms near 1; it is counted once per row, never per point;
      - one more 2^-wl covers the float sum of these terms and the rounding
        of the margin to a float, each at most 2^-53 of the bound where
        the margin meets it: while the kernel's series meets its target
        the bound is at most about 10^(4-dps), below 2^(51-wl) (above
        10^(8-dps)), so 2^-51 of it is under 2^-wl.
    The verdict is then sound: a float margin above the bound means a true
    margin above 0, one below minus the bound a true margin below 0."""
    consts = specfun._constants(cfg)
    wl, eps = consts.wl, float(consts.eps)
    shapes = []  # (d, man and exp of lambda, [(row, sign, c, error of the side)])
    for i, (d, lam, c_lo, c_hi, size) in enumerate(rows):
        _, lman, lexp, _ = lam._mpf_
        c_err = math.ldexp(3, -wl) + size * eps
        sides = [(i, sign, c._mpf_, c_err) for sign, c in ((1, c_lo), (-1, c_hi)) if not mp.isinf(c)]
        shapes.append((d, lman, lexp, sides))
    scaled = {}  # wp -> (2^wp, [C of each side, in shapes order])
    for x in xs:
        xm = mp.make_mpf(libmp.from_float(x))  # exact at any ambient precision
        [fixed], wp, [err] = specfun._stirling_defect_fixed(xm, cfg)
        if wp not in scaled:
            scaled[wp] = (1 << wp, [specfun._floor_mul(1, c, wp)
                                    for *_, sides in shapes for _, _, c, _ in sides])
        scale, big_cs = scaled[wp]
        _, man, e, _ = xm._mpf_
        margins, j = [], 0
        for d, lman, lexp, sides in shapes:
            t = min(e, lexp)
            big_t = (1 << (wp - t)) // (d * ((man << (e - t)) + (lman << (lexp - t))))
            for i, sign, _, c_err in sides:
                margins.append((i, sign * (fixed + big_t - big_cs[j]), err + c_err))
                j += 1
        yield x, scale, margins


@functools.lru_cache(maxsize=1)
def _row_pass(rows: tuple, cfg, grid: GridSpec, allow_equality: bool) -> tuple:
    """The results of one pass over the grid, one per row (see
    _row_margins), from one F_0(x) = ln Gamma(x+1) - p(x) per x; a row's
    margins hold with <= under allow_equality, else with <.

    The pass serves the two Thm 3.1 rows and the four Thm 3.4 claims; the
    last pass is cached, keyed on the rows, cfg, grid and allow_equality,
    the rows' constants in the key as values.  The F_0 values are streamed,
    not kept: kept, they would hold about 2.5 MiB on a 4000-point grid."""
    sweeps = [Sweep() for _ in rows]
    for x, scale, margins in _row_margins(rows, cfg, grid.values()):
        for i, big_m, err in margins:
            sweeps[i].add(x, big_m / scale, err, allow_equality)
    return tuple(sweep.result() for sweep in sweeps)


def _run_rows(rows: tuple, row: int, cfg, grid: GridSpec, allow_equality: bool = False):
    """Row `row` of `rows`, which share one _row_pass, each row's shape
    looked up in bounds._row_shape when the claim runs."""
    return _row_pass(tuple(bounds._row_shape(r, cfg) for r in rows), cfg, grid, allow_equality)[row]


_THM31_ROWS = (FamilyId.QI_GAMMA_LOW, FamilyId.QI_GAMMA_HIGH)  # Eqs. (3.1), (3.2)
# the corrected Eqs. (3.12), (3.13), then the printed (3.12) upper and (3.13) lower sides
_THM34_ROWS = (FamilyId.FACTORIAL_HIGH, FamilyId.FACTORIAL_LOW, "upper", "lower")


def _best_constants_cases(cfg, grid: GridSpec):
    """H_{1/2}(x) against c + ln(1 -+ 1e-3), c its limit (0 as x -> inf, Eq.
    (3.1)'s H_{1/2}(0+) as x -> 0): the ratio sqrt(2 pi) e^{H_{1/2}(x)} of Eq. (1.3)
    lies within 1e-3 relative of its limit sqrt(2 pi), resp. sqrt(2) e^{7/12}."""
    lo, hi = mp.log1p(mp.mpf("-1e-3")), mp.log1p(mp.mpf("1e-3"))
    for x, c in ((1e4, 0), (1e-6, bounds._row(BoundFamily(FamilyId.QI_GAMMA_LOW), cfg)[2])):
        yield (x, monotone.H_lambda(x, 0.5, cfg), c + lo, c + hi)


def _section1_cases(cfg, grid: GridSpec):
    """Section 1's comparison at x = 1, 2, 10: Sevli-Batir's lower bound and
    Bukac's upper bound both lie in [Bukac lower, Sevli-Batir upper], so
    each family is the sharper one on its side."""
    bukac = BoundFamily(FamilyId.BUKAC_GAMMA)
    sevli = BoundFamily(FamilyId.SEVLI_BATIR_GAMMA)
    for x in (1.0, 2.0, 10.0):
        lo_b, hi_b = bounds.gamma_bound_log(bukac, x, cfg)
        lo_s, hi_s = bounds.gamma_bound_log(sevli, x, cfg)
        for target in (lo_s, hi_b):
            yield (x, SpecialValue(target, 0.0), lo_b, hi_s)


# --- harmonic numbers (Theorem 3.2) ----------------------------------------


def _harmonic_cases(family: BoundFamily, constant: Fraction, cfg, grid: GridSpec):
    """H_1 = 1, the equality case of the corrected constants, against the
    bounds, then one case from the tail lemma of bounds.harmonic_tail that
    covers every n >= 2, labelled 2.  The check does not stop at the grid's
    10^6, which only names the claim's range."""
    yield (1, SpecialValue(mp.one, 0.0), *bounds.harmonic_bound(family, 1, cfg, constant))
    yield (2, *bounds.harmonic_tail(family, 1, cfg, constant))


# --- Remark 1 (Bernoulli fraction, Mathieu partial sums) -------------------


def _bernoulli_cases(family: BoundFamily, cfg, grid: GridSpec):
    """x/(e^x - 1) at working precision against a Bernoulli-fraction family;
    its rounding is the target's only error."""
    for x in grid.values():
        xm = mp.mpf(x)
        target = SpecialValue(xm / mp.expm1(xm), 0.0)
        yield (x, target, *bounds.bernoulli_fraction_bound(family, x, cfg))


def _run_mathieu(cfg, grid: GridSpec):
    """Mathieu's partial sums increase, since S_n - S_(n-1) = 2n/(n^2+1)^2 > 0
    exactly (n = 2..50, r = 1), and the tail bound 1/(N^2+1) of
    specfun.mathieu_partial at N = 1000 covers the observed remainder
    S_2000 - S_1000, decided in the fixed point of specfun._mathieu_fixed:
    the two sums share their first 1000 floored terms, so their difference
    is low by less than 1000 units of 2^-wp and the tail bound high by less
    than one.  The margin is rounded once to a float, within 2^-53 of
    itself; one more unit covers 2^-53 of the bound where the margin meets
    it, so a float margin above 1002 units means a margin in integers above
    1001 units and a true margin above 0."""
    sweep = Sweep()
    for n in range(2, 51):
        sweep.add(float(n), float(Fraction(2 * n, (n * n + 1) ** 2)), 0.0)
    wp = specfun._constants(cfg).wl
    coarse, tail = specfun._mathieu_fixed(1.0, 1000, wp)
    fine, _ = specfun._mathieu_fixed(1.0, 2000, wp)
    sweep.add(1000.0, (tail - (fine - coarse)) / (1 << wp), math.ldexp(1002, -wp))
    return sweep.result()


# --- exact-arithmetic ledger (Section 2 proof machinery) -------------------


def _run_series_pivot(cfg, grid: GridSpec):
    sweep = Sweep()
    c4, _ = monotone.series_coeff_pivot(4)
    sweep.add(4.0, float(c4 == 0), 0.5)
    c5, term5 = monotone.series_coeff_pivot(5)
    sweep.add(5.0, float(c5 == 112 and term5 == Fraction(7, 240)), 0.5)
    sweep.add(5.0, float(c5 > 0), 0.5)
    for k in range(6, 61):
        ck, _ = monotone.series_coeff_pivot(k)
        chained = k ** 3 + 23 * k - 24
        sweep.add(float(k), float(min(ck - chained, chained)), 0.0, allow_equality=False)
    return sweep.result()


def _run_series_lambda(cfg, grid: GridSpec):
    lam = Fraction(3, 2)
    sweep = Sweep()
    for k in range(3, 31):
        lhs, rhs = monotone.series_coeff_lambda(k, lam)
        sweep.add(float(k), float(lhs - rhs), 0.0, allow_equality=True)
        mid = (lam + 1) ** k - lam ** k - k * (lam + Fraction(1, 2)) ** (k - 1)
        bound = Fraction(k * (k - 1) * (k - 2)) * lam ** (k - 3) / 24
        sweep.add(float(k), float(mid - bound), 0.0, allow_equality=True)
    return sweep.result()


def _run_kth_root(cfg, grid: GridSpec):
    """kth_root_bound(k) <= 3/2 for k = 4..200, decided exactly by the sign
    of the integer monotone.kth_root_gap(k).  The margin reported is
    1.5 - kth_root_bound(k) with the sign the integer decides, so a float
    root can size the margin but never turn the verdict.  Every k >= 4
    holds, not only the sampled ones: 3^(k-2) - 1 < 3 3^(k-3) <= 2(k-2) 3^(k-3),
    since 2(k-2) >= 3."""
    sweep = Sweep()
    for k in range(4, 201):
        margin = 1.5 - monotone.kth_root_bound(k)
        margin = max(margin, 0.0) if monotone.kth_root_gap(k) >= 0 else min(margin, -math.ulp(0.0))
        sweep.add(float(k), margin, 0.0, allow_equality=True)
    return sweep.result()


# --- two-path consistency ---------------------------------------------------


_LAPLACE_XS = (0.5, 1.0, 2.0, 5.0, 10.0)
_LAPLACE_LAM0 = 0.5


def _laplace_residuals(cfg) -> list:
    """[(x, Q(x, 1/2) - H_{1/2}'(x))] for the 5 x of _LAPLACE_XS, where Q is
    the quadrature path of H_lambda'(x) = int phi_lambda e^{-xt} dt.

    One residual per x stands for every lambda.  phi depends on lambda only
    through its term -t e^{-lambda t}/24, whose Laplace transform is
    -1/(24 (x+lambda)^2), and H_lambda' depends on it only through the same
    -1/(24 (x+lambda)^2), so the two cancel in

        Q(x, lambda) - H_lambda'(x) = Q(x, 1/2) + 1/(24 (x+1/2)^2)
                                      - psi(x+1) + ln(x+1/2).

    The quadrature stops at T >= 60/x, so the lambda term's tail beyond T
    that this cancellation leaves out is below e^{-60} in scale, far under
    the 1e-10 margin of the claim.

    The five quadratures share their interval ends 0, 1, 10 and 30 (and
    T = 50 for x >= 2), hence their tanh-sinh nodes there, so phi is
    evaluated through a memo local to this call; each distinct node and
    precision is computed once.
    """
    memo = {}

    def phi(t):
        key = (t, mp.prec)
        if key not in memo:
            memo[key] = monotone.phi_integrand(t, _LAPLACE_LAM0)
        return memo[key]

    out = []
    for x in _LAPLACE_XS:
        quad = monotone._laplace_quad(x, _LAPLACE_LAM0, cfg, phi)
        closed = monotone.H_lambda_prime(x, _LAPLACE_LAM0, cfg)
        with mp.workdps(cfg.dps):
            out.append((x, float(quad - closed.value)))
    return out


def _run_laplace(cfg, grid: GridSpec):
    """Two-path check of H_lambda' = Laplace transform of phi_lambda, for
    every lambda at once, with one quadrature per x; see _laplace_residuals.

    mp.quad's error estimate is not a certified bound, so this claim is a
    sample cross-check, not a proof: each residual must stay below 1e-10,
    far above the residuals seen (under 1e-21 at 15, 30 and 60 digits),
    and a margin's error is the rounding rule's 10^(2-dps) alone."""
    sweep, eps = Sweep(), float(specfun._constants(cfg).eps)
    for x, res in _laplace_residuals(cfg):
        sweep.add(x, 1e-10 - abs(res), eps)
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

REGISTRY: tuple = (
    Claim("thm2.1-item1-cm-lam0", ("thm2.1",), VERIFIED, _CM_GRID, _CMSweep(0.0, "plus"), True),
    Claim("thm2.1-item1-cm-lam0.25", ("thm2.1",), VERIFIED, _CM_GRID, _CMSweep(0.25, "plus"), True),
    Claim("thm2.1-item1-cm-lam0.5", ("thm2.1",), VERIFIED, _CM_GRID, _CMSweep(0.5, "plus"), True),
    Claim("thm2.1-item1-necessity-lam0.6", ("thm2.1",), FALSIFIED, _CM_GRID, _CMSweep(0.6, "plus"), True),
    Claim("thm2.1-item1-necessity-lam1.0", ("thm2.1",), FALSIFIED, _CM_GRID, _CMSweep(1.0, "plus"), True),
    Claim("thm2.1-item3-cm-lam1.5", ("thm2.1",), VERIFIED, _CM_GRID, _CMSweep(1.5, "minus"), True),
    Claim("thm2.1-item3-cm-lam2", ("thm2.1",), VERIFIED, _CM_GRID, _CMSweep(2.0, "minus"), True),
    Claim("thm2.1-item3-cm-lam5", ("thm2.1",), VERIFIED, _CM_GRID, _CMSweep(5.0, "minus"), True),
    # the _PHI_GRID of the phi-sign claims only labels them: the certificate
    # proves the sign on all of (0, inf)
    Claim("thm2.1-phi-nonpositive-lam0.5", ("thm2.1",), VERIFIED, _PHI_GRID,
          lambda cfg, grid: monotone.phi_sign_certificate(0.5, -1, cfg)),
    Claim("thm2.1-phi-nonnegative-lam1.5", ("thm2.1",), VERIFIED, _PHI_GRID,
          lambda cfg, grid: monotone.phi_sign_certificate(1.5, 1, cfg)),
    Claim("thm2.1-necessary-limit", ("thm2.1",), VERIFIED, _POINT_GRID,
          _run_containment(_necessary_limit_cases)),
    Claim("thm2.1-threshold", ("thm2.1",), VERIFIED, _PHI_GRID, _run_threshold),
    Claim("eq2.12-series-coeffs", ("thm2.1",), VERIFIED, _K_GRID, _run_series_pivot),
    Claim("eq2.16-coefficient-check", ("thm2.1",), VERIFIED, _K_GRID, _run_series_lambda),
    Claim("kth-root-bound", ("thm2.1",), VERIFIED, _K_GRID, _run_kth_root),
    Claim("two-path-laplace", ("thm2.1",), VERIFIED, _PHI_GRID, _run_laplace),
    # both rows run in one pass; eq3.2 reads the pass eq3.1 ran
    Claim("thm3.1-eq3.1-containment", ("thm3.1",), VERIFIED, _GAMMA_GRID,
          functools.partial(_run_rows, _THM31_ROWS, 0), True),
    Claim("thm3.1-eq3.2-containment", ("thm3.1",), VERIFIED, _GAMMA_GRID,
          functools.partial(_run_rows, _THM31_ROWS, 1), True),
    Claim("eq1.3-best-constants", ("thm3.1",), VERIFIED, _POINT_GRID,
          _run_containment(_best_constants_cases)),
    Claim("sec1-comparison", ("thm3.1",), VERIFIED, _POINT_GRID,
          _run_containment(_section1_cases)),
    Claim("thm3.2-eq3.7", ("thm3.2",), VERIFIED, _HARMONIC_GRID,
          _run_containment(_harmonic_cases, BoundFamily(FamilyId.HARMONIC_LOW),
                           bounds.CORRECTED_HARMONIC_CONSTANT, allow_equality=True)),
    Claim("thm3.2-eq3.8-corrected", ("thm3.2",), VERIFIED, _HARMONIC_GRID,
          _run_containment(_harmonic_cases, BoundFamily(FamilyId.HARMONIC_HIGH),
                           bounds.CORRECTED_HARMONIC_CONSTANT, allow_equality=True)),
    Claim("eq3.8-as-printed", ("thm3.2", "falsify-printed"), FALSIFIED, _HARMONIC_GRID,
          _run_containment(_harmonic_cases, BoundFamily(FamilyId.HARMONIC_HIGH),
                           bounds.PRINTED_HARMONIC_CONSTANT, allow_equality=True)),
    Claim("thm3.3-lcm-G-lam0.5", ("thm3.3",), VERIFIED, _CM_GRID, _CMSweep(0.5, "plus"), True),
    Claim("thm3.3-lcm-recip-G-lam1.5", ("thm3.3",), VERIFIED, _CM_GRID, _CMSweep(1.5, "minus"), True),
    # the four Thm 3.4 claims run in one pass
    Claim("thm3.4-eq3.12-corrected", ("thm3.4",), VERIFIED, _FACTORIAL_GRID,
          functools.partial(_run_rows, _THM34_ROWS, 0, allow_equality=True)),
    Claim("thm3.4-eq3.13-corrected", ("thm3.4",), VERIFIED, _FACTORIAL_GRID,
          functools.partial(_run_rows, _THM34_ROWS, 1, allow_equality=True)),
    Claim("eq3.12-as-printed", ("thm3.4", "falsify-printed"), FALSIFIED, _FACTORIAL_GRID,
          functools.partial(_run_rows, _THM34_ROWS, 2, allow_equality=True)),
    Claim("eq3.13-as-printed", ("thm3.4", "falsify-printed"), FALSIFIED, _FACTORIAL_GRID,
          functools.partial(_run_rows, _THM34_ROWS, 3, allow_equality=True)),
    Claim("remark1-eq4.1-containment", ("remark1",), VERIFIED, _BERNOULLI_GRID,
          _run_containment(_bernoulli_cases, BoundFamily(FamilyId.BERNOULLI_FRACTION)), True),
    Claim("remark1-eq4.2-containment", ("remark1",), VERIFIED, _BERNOULLI_GRID,
          _run_containment(_bernoulli_cases, BoundFamily(FamilyId.BERNOULLI_CLASSIC)), True),
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
    if verdict == INDETERMINATE:
        # one automatic retry at doubled working precision
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
