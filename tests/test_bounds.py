"""Tests for the bound families: containment against reference evaluations,
the corrected-vs-printed dichotomies, and family comparison."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from gammacert import (
    DEFAULT_CONFIG,
    BoundFamily,
    FamilyId,
    ParameterError,
    compare_families,
    eval_bernoulli_fraction_bound,
    eval_factorial_bound,
    eval_gamma_bound,
    eval_harmonic_bound,
    harmonic_exact,
    ln_gamma,
)
from gammacert import bounds, specfun
from gammacert.bounds import (
    CORRECTED_HARMONIC_CONSTANT,
    PRINTED_HARMONIC_CONSTANT,
    gamma_bound_log,
)
from gammacert.config import PrecisionConfig

GAMMA_FAMILIES = [
    BoundFamily(FamilyId.BUKAC_GAMMA),
    BoundFamily(FamilyId.SEVLI_BATIR_GAMMA),
    BoundFamily(FamilyId.QI_GAMMA_LOW),
    BoundFamily(FamilyId.QI_GAMMA_HIGH),
    BoundFamily(FamilyId.QI_GAMMA_GENERIC, lam=0.3),
]


class TestFamilyValidation:
    def test_generic_requires_lambda(self):
        with pytest.raises(ParameterError):
            BoundFamily(FamilyId.QI_GAMMA_GENERIC)
        with pytest.raises(ParameterError):
            BoundFamily(FamilyId.QI_GAMMA_GENERIC, lam=0.7)

    def test_named_families_reject_lambda(self):
        with pytest.raises(ParameterError):
            BoundFamily(FamilyId.BUKAC_GAMMA, lam=0.3)

    def test_wrong_target_rejected(self):
        with pytest.raises(ParameterError):
            eval_gamma_bound(BoundFamily(FamilyId.HARMONIC_LOW), 2.0)
        with pytest.raises(ParameterError):
            eval_factorial_bound(BoundFamily(FamilyId.BUKAC_GAMMA), 3)


class TestGammaContainment:
    @pytest.mark.parametrize("family", GAMMA_FAMILIES, ids=lambda f: f.id.value)
    @pytest.mark.parametrize("x", [0.01, 0.5, 1.0, 2.0, 10.0, 100.0])
    def test_contains_gamma(self, family, x):
        lo, hi = gamma_bound_log(family, x)
        lg = ln_gamma(x + 1)
        assert float(lo) <= float(lg.value) + lg.abs_error_bound
        assert float(lg.value) - lg.abs_error_bound <= float(hi)

    def test_generic_lambda_zero_upper_infinite(self):
        lo, hi = gamma_bound_log(BoundFamily(FamilyId.QI_GAMMA_GENERIC, lam=0.0), 2.0)
        assert not mp.isfinite(hi)

    @given(st.floats(min_value=0.01, max_value=500.0))
    @settings(max_examples=25, deadline=None)
    def test_qi_low_containment_property(self, x):
        # compare in log space so large x cannot overflow float64
        lo, hi = gamma_bound_log(BoundFamily(FamilyId.QI_GAMMA_LOW), x)
        target = float(ln_gamma(x + 1).value)
        assert float(lo) - 1e-9 <= target <= float(hi) + 1e-9

    def test_frozen_values_bukac_at_two(self):
        pair = eval_gamma_bound(BoundFamily(FamilyId.BUKAC_GAMMA), 2.0)
        assert pair.lower == pytest.approx(1.9913882917671493, rel=1e-12)
        assert pair.upper == pytest.approx(2.0055915548886869, rel=1e-12)
        assert pair.contains(2.0)


class TestHarmonicBounds:
    @pytest.mark.parametrize("n", [1, 2, 5, 10, 100, 1000])
    def test_low_family_contains(self, n):
        pair = eval_harmonic_bound(BoundFamily(FamilyId.HARMONIC_LOW), n)
        assert pair.contains(float(harmonic_exact(n)), slop=1e-12)

    def test_low_family_equality_at_one(self):
        # lower bound is exact at n = 1: ln(3/2) + 1/54 + 1 - ln(3/2) - 1/54 = 1
        pair = eval_harmonic_bound(BoundFamily(FamilyId.HARMONIC_LOW), 1)
        assert pair.lower == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 5, 10, 100, 1000])
    def test_high_family_corrected_contains(self, n):
        pair = eval_harmonic_bound(
            BoundFamily(FamilyId.HARMONIC_HIGH), n, constant=CORRECTED_HARMONIC_CONSTANT
        )
        assert pair.contains(float(harmonic_exact(n)), slop=1e-12)

    def test_high_family_corrected_equality_at_one(self):
        pair = eval_harmonic_bound(BoundFamily(FamilyId.HARMONIC_HIGH), 1)
        assert pair.upper == pytest.approx(1.0, abs=1e-14)

    def test_high_family_printed_falsified_at_one(self):
        pair = eval_harmonic_bound(
            BoundFamily(FamilyId.HARMONIC_HIGH), 1, constant=PRINTED_HARMONIC_CONSTANT
        )
        assert pair.upper == pytest.approx(0.99555555555, rel=1e-9)
        assert not pair.contains(1.0)  # H_1 = 1 escapes the printed upper bound


@pytest.fixture(scope="module")
def exact_h():
    """H_1 .. H_2000, summed exactly and rounded to 60 digits."""
    with mp.workdps(60):
        return [mp.mpf(h.numerator) / h.denominator
                for h in itertools.accumulate(Fraction(1, k) for k in range(1, 2001))]


class TestHarmonicTail:
    """The lemma 1/(24m^2) - 7/(960m^4) < psi(m+1/2) - ln m < 1/(24m^2) and
    the enclosure that bounds.harmonic_tail builds from it."""

    N0 = 1000

    @pytest.mark.parametrize("m", ["1.5", "2.5", "10.5", "1001.5", "1000000.5", "1000000000.5"])
    def test_lemma_against_digamma(self, m):
        with mp.workdps(80):
            mm = mp.mpf(m)
            d = mp.digamma(mm + mp.mpf(1) / 2) - mp.log(mm)
            lo, hi = bounds._harmonic_defect(mm)
            assert lo < d < hi

    @pytest.mark.parametrize("digits", [15, 30])
    @pytest.mark.parametrize("fid", [FamilyId.HARMONIC_LOW, FamilyId.HARMONIC_HIGH])
    @pytest.mark.parametrize("n", [1001, 1002, 10 ** 4, 10 ** 6, 10 ** 9, 10 ** 15])
    def test_tail_encloses_every_n_beyond_n0(self, fid, n, digits):
        family = BoundFamily(fid)
        cfg = PrecisionConfig(working_digits=digits)
        (a, b), lower, upper = bounds.harmonic_tail(family, self.N0, cfg)
        wl = specfun._constants(cfg).wl
        with mp.workdps(80):
            m = mp.mpf(n) + mp.mpf(1) / 2
            s = 0 if fid is FamilyId.HARMONIC_LOW else 1
            # H_n - ln m - 1/(24(m+s)^2) - gamma, with H_n = psi(n+1) + gamma
            r = mp.digamma(n + 1) - mp.log(m) - 1 / (24 * (m + s) ** 2)
            assert _mpf(a) <= r <= _mpf(b)
            assert mp.ldexp(lower[1], -wl) < r < mp.ldexp(upper[0], -wl)

    @pytest.mark.parametrize("digits", [15, 30])
    @pytest.mark.parametrize("constant", [CORRECTED_HARMONIC_CONSTANT, PRINTED_HARMONIC_CONSTANT])
    @pytest.mark.parametrize("fid", [FamilyId.HARMONIC_LOW, FamilyId.HARMONIC_HIGH])
    def test_tail_from_n0_1_encloses_exact_harmonic_numbers(self, fid, constant, digits, exact_h):
        # the Thm 3.2 claims check n = 1 exactly and every n >= 2 by this case
        family = BoundFamily(fid)
        (a, b), _, _ = bounds.harmonic_tail(family, 1, PrecisionConfig(working_digits=digits), constant)
        s = 0 if fid is FamilyId.HARMONIC_LOW else 1
        with mp.workdps(60):
            lo, hi = _mpf(a), _mpf(b)
            for n, h in enumerate(exact_h, 1):
                if n == 1:
                    continue
                m = mp.mpf(n) + mp.mpf(1) / 2
                r = h - mp.euler - mp.log(m) - 1 / (24 * (m + s) ** 2)
                assert lo <= r <= hi, n

    def test_tail_bounds_are_the_shifted_constants(self):
        # lower/upper are the bounds of harmonic_bound minus their n-dependent
        # part and gamma; the side of gamma is exactly [0, 0]
        cfg = DEFAULT_CONFIG
        for fid in (FamilyId.HARMONIC_LOW, FamilyId.HARMONIC_HIGH):
            family = BoundFamily(fid)
            _, lower, upper = bounds.harmonic_tail(family, self.N0, cfg)
            wl = specfun._constants(cfg).wl
            assert (upper if fid is FamilyId.HARMONIC_LOW else lower) == (0, 0)
            lo, hi = bounds.harmonic_bound(family, 1, cfg)
            with mp.workdps(40):
                s = 0 if fid is FamilyId.HARMONIC_LOW else 1
                shift = mp.log(mp.mpf(3) / 2) + 1 / (24 * (mp.mpf(3) / 2 + s) ** 2) + mp.euler
                for bound, (a, b) in ((lo, lower), (hi, upper)):
                    assert abs(bound - shift - mp.ldexp(a + b, -wl - 1)) < 1e-22


class TestFactorialBounds:
    @pytest.mark.parametrize("n", [1, 2, 5, 10, 50, 170])
    def test_corrected_families_contain(self, n):
        target = float(ln_gamma(n + 1).value)
        for fid in (FamilyId.FACTORIAL_LOW, FamilyId.FACTORIAL_HIGH):
            pair = eval_factorial_bound(BoundFamily(fid), n)
            assert math.log(pair.lower) - 1e-12 <= target <= math.log(pair.upper) + 1e-12

    def test_corrected_equality_at_one(self):
        hi = eval_factorial_bound(BoundFamily(FamilyId.FACTORIAL_HIGH), 1)
        lo = eval_factorial_bound(BoundFamily(FamilyId.FACTORIAL_LOW), 1)
        assert hi.upper == pytest.approx(1.0, abs=1e-13)
        assert lo.lower == pytest.approx(1.0, abs=1e-13)

    def test_printed_falsified_at_one(self):
        pair = eval_factorial_bound(BoundFamily(FamilyId.FACTORIAL_AS_PRINTED), 1)
        # printed upper undershoots 1! and printed lower overshoots it
        assert pair.upper == pytest.approx(0.9908, abs=5e-4)
        assert pair.lower == pytest.approx(1.0033, abs=5e-4)
        assert not pair.contains(1.0)


class TestBernoulliFraction:
    @pytest.mark.parametrize("x", [1e-3, 0.1, 1.0, 5.0, 30.0])
    def test_containment(self, x):
        target = x / math.expm1(x)
        sharp = eval_bernoulli_fraction_bound(x)
        classic = eval_bernoulli_fraction_bound(x, BoundFamily(FamilyId.BERNOULLI_CLASSIC))
        assert sharp.contains(target, slop=1e-14)
        assert classic.contains(target, slop=1e-14)

    def test_sharper_than_classic_upper(self):
        for x in (0.5, 1.0, 3.0):
            sharp = eval_bernoulli_fraction_bound(x)
            classic = eval_bernoulli_fraction_bound(x, BoundFamily(FamilyId.BERNOULLI_CLASSIC))
            assert sharp.upper < classic.upper

    def test_frozen_value_at_one(self):
        pair = eval_bernoulli_fraction_bound(1.0)
        assert pair.lower == pytest.approx(0.581259, abs=1e-6)
        assert pair.upper == pytest.approx(0.597234, abs=1e-6)


class TestCompareFamilies:
    def test_section1_orderings_at_two(self):
        cmp = compare_families(2.0)
        by_pair = {
            (o.family_a.id, o.family_b.id): o for o in cmp.orderings
        }
        o = by_pair[(FamilyId.BUKAC_GAMMA, FamilyId.SEVLI_BATIR_GAMMA)]
        # Sevli-Batir lower is stronger; Bukac upper is tighter for x >= 1
        assert o.better_lower == "b"
        assert o.better_upper == "a"

    @pytest.mark.parametrize("x", [2.0, 1e8])
    def test_section1_orderings_are_decided_at_large_x(self, x):
        # p(x) cancels, so the gaps of about 1/(48 x^2) are decided on the
        # families' g intervals even where p(x) is 1.7e9 (x = 1e8)
        by_pair = {(o.family_a.id, o.family_b.id): o for o in compare_families(x).orderings}
        o = by_pair[(FamilyId.BUKAC_GAMMA, FamilyId.SEVLI_BATIR_GAMMA)]
        assert (o.better_lower, o.better_upper) == ("b", "a")

    def test_identical_lower_bounds_indeterminate(self):
        cmp = compare_families(2.0)
        by_pair = {(o.family_a.id, o.family_b.id): o for o in cmp.orderings}
        o = by_pair[(FamilyId.SEVLI_BATIR_GAMMA, FamilyId.QI_GAMMA_LOW)]
        # Sevli-Batir's bound is Eq. (3.1): both sides coincide
        assert o.better_lower == "indeterminate"
        assert o.better_upper == "indeterminate"

    def test_sevli_batir_is_eq31_row(self):
        for digits in (15, 30):
            cfg = PrecisionConfig(working_digits=digits)
            assert (bounds._row(BoundFamily(FamilyId.SEVLI_BATIR_GAMMA), cfg)
                    == bounds._row(BoundFamily(FamilyId.QI_GAMMA_LOW), cfg))

    @pytest.mark.parametrize("lam", [0.0, 0.3, 0.5])
    def test_generic_row_constants(self, lam):
        # lambda from the family; c_lo = H_lambda(inf) = 0 is exact, and at
        # lambda = 0 c_hi = H_0(0+) = inf leaves that side out
        cfg = PrecisionConfig(working_digits=15)
        lm, c_lo, c_hi = bounds._row(BoundFamily(FamilyId.QI_GAMMA_GENERIC, lam=lam), cfg)
        assert lm[0] * Fraction(2) ** lm[1] == lam and c_lo == (0, 0) and (c_hi is None) == (lam == 0)
        assert lam == 0 or 0 < c_hi[1] - c_hi[0] <= 32


def _mpf(q):
    """The exact rational q at the current precision."""
    return mp.mpf(q.numerator) / q.denominator


class TestConstantIntervals:
    """Every constant a claim reads is an integer interval at the scale 2^-wl
    of specfun._constants: it holds a reference at three times the digits
    and is at most 32 units wide, H_{1/2}(1) too, whose terms are about
    1500 times its size."""

    @pytest.mark.parametrize("digits", [15, 30, 60, 291])
    def test_each_constant_holds_a_reference(self, digits):
        cfg = PrecisionConfig(working_digits=digits)
        wl = specfun._constants(cfg).wl
        logs = specfun._logs(wl)
        row = {fid: bounds._row(BoundFamily(fid), cfg) for fid in bounds._ROWS if fid is not FamilyId.QI_GAMMA_GENERIC}
        generic = bounds._row(BoundFamily(FamilyId.QI_GAMMA_GENERIC, lam=0.3), cfg)
        low, high = BoundFamily(FamilyId.HARMONIC_LOW), BoundFamily(FamilyId.HARMONIC_HIGH)
        with mp.workdps(3 * cfg.dps):
            half, ln_pi, ln_4_27 = mp.mpf(1) / 2, mp.log(mp.pi), mp.log(mp.mpf(4) / 27)

            def h0(lm):  # H_lambda(0+)
                return 1 / (24 * lm) + half - ln_pi / 2

            def h1(lm):  # H_lambda(1) = 1/(24 (1+lambda)) - p(1)
                return 1 / (24 * (1 + lm)) - mp.log(2 * mp.pi) / 2 - 3 * half * (mp.log(3 * half) - 1)

            def c_minus_gamma(r):
                return 1 - mp.log(3 * half) - r - mp.euler

            cases = [
                (logs.ln2, mp.log(2)), (logs.ln3_2, mp.log(3 * half)), (logs.ln4_27, ln_4_27),
                (logs.ln999, mp.log1p(-mp.mpf(1) / 1000)), (logs.ln1001, mp.log1p(mp.mpf(1) / 1000)),
                (logs.ln_pi, ln_pi), (logs.euler, mp.euler),
                (row[FamilyId.QI_GAMMA_LOW][2], h0(half)), (row[FamilyId.QI_GAMMA_HIGH][1], h0(3 * half)),
                (generic[2], h0(mp.mpf(0.3))),
                (row[FamilyId.FACTORIAL_HIGH][2], h1(half)), (row[FamilyId.FACTORIAL_LOW][1], h1(3 * half)),
                (bounds._row_shape("upper", cfg)[3], (3 - ln_pi + ln_4_27) / 2),
                # the constant's side of Thm 3.2's tail, c - gamma
                (bounds.harmonic_tail(low, 1, cfg)[1], c_minus_gamma(mp.mpf(1) / 54)),
                (bounds.harmonic_tail(high, 1, cfg)[2], c_minus_gamma(mp.mpf(1) / 150)),
            ]
            for (a, b), ref in cases:
                assert mp.ldexp(a, -wl) <= ref <= mp.ldexp(b, -wl), (digits, ref)
                assert 0 < b - a <= 32, (digits, ref, b - a)

    @pytest.mark.parametrize("n", [2, 3, 13, 6 * 10 ** 20 + 1, 4, 10 ** 40])
    def test_sqrt_pair_holds_the_root(self, n):
        # Bukac's S = sqrt(Q)/(2 den): floor and ceil of sqrt(n) 2^w, equal
        # only for a square n
        w = 120
        lo, hi = bounds._sqrt_pair(n, w)
        assert lo * lo <= n << 2 * w <= hi * hi
        assert hi - lo == (0 if math.isqrt(n) ** 2 == n else 1)


class TestDisplayedForms:
    """Each gamma and corrected factorial family against its displayed
    lower/upper expression, written out here at 60 digits."""

    CFG = PrecisionConfig(working_digits=40)

    @staticmethod
    def _displayed(fid, x, lam=None):
        xm, half = mp.mpf(x), mp.mpf(1) / 2
        p = mp.log(2 * mp.pi) / 2 + (xm + half) * (mp.log(xm + half) - 1)
        ln_pi = mp.log(mp.pi)

        def h_at_one(lm):
            return (1 / (lm + 1) + 36 - 12 * mp.log(2 * mp.pi) - 36 * mp.log(mp.mpf(3) / 2)) / 24

        if fid is FamilyId.QI_GAMMA_LOW:
            return p - 1 / (24 * (xm + half)), p + (2 + 12 - 12 * ln_pi - 1 / (xm + half)) / 24
        if fid is FamilyId.SEVLI_BATIR_GAMMA:
            lo = p - 1 / (24 * (xm + half))
            return lo, lo + mp.mpf(7) / 12 - ln_pi / 2
        if fid is FamilyId.QI_GAMMA_HIGH:
            three_halves = mp.mpf(3) / 2
            lo = p + (2 * xm / (3 * (xm + three_halves)) - 12 * (ln_pi - 1)) / 24
            return lo, p - 1 / (24 * (xm + three_halves))
        if fid is FamilyId.QI_GAMMA_GENERIC:
            lm = mp.mpf(lam)
            return p - 1 / (24 * (xm + lm)), p + (1 / lm + 12 - 12 * ln_pi - 1 / (xm + lm)) / 24
        if fid is FamilyId.FACTORIAL_HIGH:
            lo = p - 1 / (24 * (xm + half))
            return lo, lo + h_at_one(half)
        three_halves = mp.mpf(3) / 2
        hi = p - 1 / (24 * (xm + three_halves))
        return hi + h_at_one(three_halves), hi

    @pytest.mark.parametrize("x", [1e-3, 0.5, 1.0, 7.3, 100.0, 1e4])
    @pytest.mark.parametrize("family", [
        BoundFamily(FamilyId.QI_GAMMA_LOW),
        BoundFamily(FamilyId.QI_GAMMA_HIGH),
        BoundFamily(FamilyId.SEVLI_BATIR_GAMMA),
        BoundFamily(FamilyId.QI_GAMMA_GENERIC, lam=0.1),
        BoundFamily(FamilyId.QI_GAMMA_GENERIC, lam=0.3),
        BoundFamily(FamilyId.QI_GAMMA_GENERIC, lam=0.5),
    ], ids=lambda f: f"{f.id.value}-{f.lam}")
    def test_gamma_families(self, family, x):
        lo, hi = gamma_bound_log(family, x, self.CFG)
        with mp.workdps(60):
            ref_lo, ref_hi = self._displayed(family.id, x, family.lam)
            assert abs(lo - ref_lo) < 1e-35
            assert abs(hi - ref_hi) < 1e-35

    @pytest.mark.parametrize("n", [1, 2, 50, 170])
    @pytest.mark.parametrize("fid", [FamilyId.FACTORIAL_HIGH, FamilyId.FACTORIAL_LOW])
    def test_corrected_factorial_families(self, fid, n):
        lo, hi = bounds.factorial_bound_log(BoundFamily(fid), n, self.CFG)
        with mp.workdps(60):
            ref_lo, ref_hi = self._displayed(fid, n)
            assert abs(lo - ref_lo) < 1e-35
            assert abs(hi - ref_hi) < 1e-35
