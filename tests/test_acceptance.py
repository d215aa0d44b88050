"""Acceptance gate: one test per criterion, each emitting a PASS line.

Run with `pytest -v tests/test_acceptance.py`; each criterion appears as a
single pass/fail line.  Tolerances are pinned in the assertions below.
"""

import math
import time
from fractions import Fraction

import pytest
from mpmath import mp

from gammacert import (
    DEFAULT_CONFIG,
    BoundFamily,
    FamilyId,
    H_lambda_deriv,
    cm_check,
    eval_factorial_bound,
    eval_gamma_bound,
    eval_harmonic_bound,
    harmonic_exact,
    lambda_star,
    ln_gamma,
    phi_integrand,
)
from gammacert import harness
from gammacert.bounds import (
    CORRECTED_HARMONIC_CONSTANT,
    PRINTED_HARMONIC_CONSTANT,
    gamma_bound_log,
)
from gammacert.config import PrecisionConfig
from gammacert.monotone import (
    H_lambda,
    kth_root_bound,
    laplace_check,
    necessary_limit,
    series_coeff_lambda,
    series_coeff_pivot,
)

PHI_GRID = harness.GridSpec(1e-4, 200.0, 2000, "log").values()


def _line(num: int, name: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def test_criterion_01_cm_dichotomy_runtime():
    start = time.perf_counter()
    for lam in (0.0, 0.25, 0.5):
        assert cm_check(lam, "plus", max_order=6).verdict == "verified", lam
    for lam in (0.6, 1.0):
        assert cm_check(lam, "plus", max_order=6).verdict == "falsified", lam
    assert time.perf_counter() - start < 30.0
    _line(1, "theorem-2.1(1) CM dichotomy")


def test_criterion_02_minus_cm_and_phi_sign():
    for lam in (1.5, 2.0, 5.0):
        assert cm_check(lam, "minus", max_order=6).verdict == "verified", lam
    # sign of the Laplace density for lambda = 3/2 at all 2000 grid points
    # (nonnegative; see the decisions ledger on the printed sign)
    signs = [float(phi_integrand(t, 1.5)) for t in PHI_GRID]
    assert all(v >= 0 for v in signs)
    # and the complementary sign for lambda = 1/2
    assert all(float(phi_integrand(t, 0.5)) <= 0 for t in PHI_GRID)
    _line(2, "theorem-2.1(3) CM and phi sign")


def test_criterion_03_threshold():
    start = time.perf_counter()
    res = lambda_star(1e-8)
    assert 0.5 < res.lambda_star < 1.5
    assert res.bracket[1] - res.bracket[0] <= 1e-8
    assert all(float(phi_integrand(t, res.lambda_star + 0.01)) >= 0 for t in PHI_GRID)
    assert any(float(phi_integrand(t, res.lambda_star - 0.01)) < 0 for t in PHI_GRID)
    assert time.perf_counter() - start < 10.0
    _line(3, "lambda-star threshold and dichotomy")


def test_criterion_04_necessary_limit():
    assert abs(float(necessary_limit(1e4)) - 0.5) < 1e-3
    _line(4, "necessary-condition limit")


def test_criterion_05_gamma_containment():
    grid = harness.GridSpec(1e-3, 100.0, 500, "log").values()
    for fid in (FamilyId.QI_GAMMA_LOW, FamilyId.QI_GAMMA_HIGH):
        family = BoundFamily(fid)
        for x in grid:
            lo, hi = gamma_bound_log(family, x)
            lg = ln_gamma(x + 1)
            assert float(lg.value - lo) > lg.abs_error_bound, (fid, x)
            assert float(hi - lg.value) > lg.abs_error_bound, (fid, x)
    _line(5, "theorem-3.1 gamma containment")


def test_criterion_06_best_constants():
    with mp.workdps(DEFAULT_CONFIG.dps):
        for x, ref in ((1e4, mp.sqrt(2 * mp.pi)), (1e-6, mp.sqrt(2) * mp.exp(mp.mpf(7) / 12))):
            xm = mp.mpf(x)
            denom = (xm + mp.mpf(1) / 2) * (mp.log(xm + mp.mpf(1) / 2) - 1) - 1 / (
                24 * (xm + mp.mpf(1) / 2)
            )
            ratio = mp.exp(ln_gamma(x + 1).value - denom)
            assert abs(float((ratio - ref) / ref)) < 1e-3, x
    _line(6, "eq-1.3 best constants")


def test_criterion_07_harmonic_bounds():
    start = time.perf_counter()
    low = BoundFamily(FamilyId.HARMONIC_LOW)
    high = BoundFamily(FamilyId.HARMONIC_HIGH)
    # exact rationals for small n
    for n in range(1, 301):
        h = harmonic_exact(n)
        pair = eval_harmonic_bound(low, n)
        assert pair.lower - 1e-12 <= float(h) <= pair.upper + 1e-12, n
        pair = eval_harmonic_bound(high, n, constant=CORRECTED_HARMONIC_CONSTANT)
        assert pair.lower - 1e-12 <= float(h) <= pair.upper + 1e-12, n
    # exact equality of the Eq. (3.7) left side at n = 1
    assert eval_harmonic_bound(low, 1).lower == pytest.approx(1.0, abs=1e-14)
    # printed constant 1/90 falsified at n = 1
    printed = eval_harmonic_bound(high, 1, constant=PRINTED_HARMONIC_CONSTANT)
    assert printed.upper == pytest.approx(0.995556, abs=1e-6)
    assert printed.upper < 1.0 == float(harmonic_exact(1))
    # corrected constant 1/150: equality at n = 1; the claims check exact H_n
    # for n <= 1000 and the tail lemma for every larger n
    assert eval_harmonic_bound(high, 1).upper == pytest.approx(1.0, abs=1e-14)
    for cid in ("thm3.2-eq3.7", "thm3.2-eq3.8-corrected"):
        claim = next(c for c in harness.REGISTRY if c.claim_id == cid)
        rep = harness._run_claim(claim, DEFAULT_CONFIG, claim.grid)
        assert rep.verdict == "verified", cid
    assert time.perf_counter() - start < 60.0
    _line(7, "theorem-3.2 harmonic bounds")


def test_criterion_08_factorial_bounds():
    for n in range(1, 171):
        target = float(ln_gamma(n + 1).value)
        for fid in (FamilyId.FACTORIAL_LOW, FamilyId.FACTORIAL_HIGH):
            pair = eval_factorial_bound(BoundFamily(fid), n)
            assert math.log(pair.lower) - 1e-12 <= target <= math.log(pair.upper) + 1e-12
    # equality at n = 1 on both corrected constructions
    assert eval_factorial_bound(BoundFamily(FamilyId.FACTORIAL_HIGH), 1).upper == pytest.approx(1.0, abs=1e-13)
    assert eval_factorial_bound(BoundFamily(FamilyId.FACTORIAL_LOW), 1).lower == pytest.approx(1.0, abs=1e-13)
    printed = eval_factorial_bound(BoundFamily(FamilyId.FACTORIAL_AS_PRINTED), 1)
    assert printed.upper == pytest.approx(0.9908, abs=5e-4)
    assert printed.upper < 1.0  # as-printed (3.12) upper fails at n = 1
    assert printed.lower == pytest.approx(1.0033, abs=5e-4)
    assert printed.lower > 1.0  # as-printed (3.13) lower fails at n = 1
    _line(8, "theorem-3.4 factorial bounds")


def test_criterion_09_section1_comparison():
    bukac = BoundFamily(FamilyId.BUKAC_GAMMA)
    sevli = BoundFamily(FamilyId.SEVLI_BATIR_GAMMA)
    for x in (1.0, 2.0, 10.0):
        b = eval_gamma_bound(bukac, x)
        s = eval_gamma_bound(sevli, x)
        assert s.lower > b.lower, x  # Sevli-Batir lower is stronger
        assert b.upper < s.upper, x  # Bukac upper is tighter for x >= 1
    _line(9, "section-1 family comparison")


def test_criterion_10_bernoulli_fraction():
    grid = harness.GridSpec(1e-3, 50.0, 500, "log").values()
    with mp.workdps(DEFAULT_CONFIG.dps):
        for x in grid:
            xm = mp.mpf(x)
            target = xm / mp.expm1(xm)
            lo = mp.exp(-xm / 2) - xm ** 2 / (24 * mp.exp(xm / 2))
            hi = mp.exp(-xm / 2) - xm ** 2 / (24 * mp.exp(3 * xm / 2))
            assert lo <= target <= hi, x
            assert mp.exp(-xm) <= target <= mp.exp(-xm / 2), x  # classic
    _line(10, "remark-1 Bernoulli-fraction containment")


def test_criterion_11_exact_ledger():
    c4, _ = series_coeff_pivot(4)
    assert c4 == 0
    c5, term5 = series_coeff_pivot(5)
    assert c5 == 112
    assert term5 == Fraction(7, 240)  # the printed 7/24 is a misprint
    # positivity for k >= 5; the chained bound k^3 + 23k - 24 holds from
    # k = 6 on (at k = 5 that chain value, 216, exceeds c_5 = 112; see ledger)
    for k in range(5, 61):
        ck, _ = series_coeff_pivot(k)
        assert ck > 0, k
        if k >= 6:
            assert ck >= k ** 3 + 23 * k - 24 > 0, k
    lam = Fraction(3, 2)
    lhs, rhs = series_coeff_lambda(3, lam)
    assert lhs == rhs  # equality at k = 3
    for k in range(4, 31):
        lhs, rhs = series_coeff_lambda(k, lam)
        assert lhs > rhs, k
    for k in range(4, 201):
        assert kth_root_bound(k) <= 1.5, k
    _line(11, "exact-arithmetic ledger")


def test_criterion_12_two_path_consistency():
    for x in (0.5, 1.0, 2.0, 5.0, 10.0):
        for lam in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0):
            assert abs(laplace_check(x, lam)) < 1e-10, (x, lam)
    # closed-form derivatives against Richardson-extrapolated differences
    cfg = PrecisionConfig(working_digits=40)
    lam, x = 0.25, 2.0

    def central(n, h):
        vals = [H_lambda(x + k * h, lam, cfg).value for k in range(-3, 4)]
        if n == 1:
            return (vals[4] - vals[2]) / (2 * h)
        if n == 2:
            return (vals[4] - 2 * vals[3] + vals[2]) / h ** 2
        if n == 3:
            return (vals[5] - 2 * vals[4] + 2 * vals[2] - vals[1]) / (2 * h ** 3)
        return (vals[5] - 4 * vals[4] + 6 * vals[3] - 4 * vals[2] + vals[1]) / h ** 4

    with mp.workdps(60):
        h = mp.mpf("2e-3")
        for n in (1, 2, 3, 4):
            fd = (4 * central(n, h / 2) - central(n, h)) / 3
            closed = H_lambda_deriv(n, x, lam, cfg).value
            assert abs(float((fd - closed) / closed)) < 1e-6, n
    _line(12, "two-path consistency")
