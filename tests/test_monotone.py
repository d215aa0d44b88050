"""Tests for the monotonicity machinery: H_lambda and its derivatives, the
Laplace-density integrand, the threshold search, and the exact series layer."""

import math
from fractions import Fraction

import pytest
from mpmath import iv, mp

from gammacert import (
    DEFAULT_CONFIG,
    DomainError,
    NumericalError,
    H_lambda,
    H_lambda_deriv,
    H_lambda_prime,
    cm_check,
    lambda_star,
    phi_integrand,
)
from gammacert import monotone, specfun
from gammacert.config import PrecisionConfig
from gammacert.monotone import (
    default_cm_grid,
    h_of_t,
    kth_root_bound,
    kth_root_gap,
    laplace_check,
    laplace_enclosure,
    necessary_limit,
    phi_sign_certificate,
    series_coeff_lambda,
    series_coeff_pivot,
)
import oracles
from oracles import free_part


class TestHLambda:
    def test_frozen_value(self):
        # independently computed reference at (x, lambda) = (1, 1/2)
        sv = H_lambda(1.0, 0.5)
        assert float(sv.value) == pytest.approx(6.41582410858463e-4, rel=1e-10)

    def test_prime_frozen_value(self):
        sv = H_lambda_prime(1.0, 0.5)
        assert float(sv.value) == pytest.approx(-1.1992915282157612e-3, rel=1e-8)

    def test_sign_dichotomy(self):
        # H_lambda > 0 for lambda <= 1/2, < 0 for lambda >= 3/2 (x > 0)
        for x in (0.1, 1.0, 10.0):
            assert float(H_lambda(x, 0.5).value) > 0
            assert float(H_lambda(x, 1.5).value) < 0

    def test_decays_to_zero(self):
        assert abs(float(H_lambda(1e4, 0.5).value)) < 1e-11

    @staticmethod
    def _central_difference(n, x, lam, h, cfg):
        vals = [H_lambda(x + k * h, lam, cfg).value for k in range(-3, 4)]
        if n == 1:
            return (vals[4] - vals[2]) / (2 * h)
        if n == 2:
            return (vals[4] - 2 * vals[3] + vals[2]) / h ** 2
        if n == 3:
            return (vals[5] - 2 * vals[4] + 2 * vals[2] - vals[1]) / (2 * h ** 3)
        return (vals[5] - 4 * vals[4] + 6 * vals[3] - 4 * vals[2] + vals[1]) / h ** 4

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_deriv_matches_finite_differences(self, n):
        # Richardson-extrapolated central differences (h^2 term eliminated)
        # against the closed form, to 1e-6 relative
        lam, x = 0.25, 2.0
        cfg = PrecisionConfig(working_digits=40)
        with mp.workdps(60):
            h = mp.mpf("2e-3")
            coarse = self._central_difference(n, x, lam, h, cfg)
            fine = self._central_difference(n, x, lam, h / 2, cfg)
            fd = (4 * fine - coarse) / 3
            closed = H_lambda_deriv(n, x, lam, cfg).value
            assert abs(float((fd - closed) / closed)) < 1e-6

    def test_deriv_rejects_order_zero(self):
        with pytest.raises(DomainError):
            H_lambda_deriv(0, 1.0, 0.5)

    def test_rejects_negative_lambda(self):
        with pytest.raises(DomainError):
            H_lambda(1.0, -0.1)


class TestPhiIntegrand:
    def test_signs(self):
        ts = [1e-300, 1e-30, 1e-8] + [10 ** (0.01 * i - 4) for i in range(0, 601, 20)]
        for t in ts:
            assert float(phi_integrand(t, 0.5)) <= 0
            assert float(phi_integrand(t, 1.5)) >= 0

    def test_taylor_patch_consistent(self):
        # the patched region must agree with a high-precision direct evaluation
        with mp.workdps(60):
            for t in (mp.mpf("1e-4"), mp.mpf("5e-4"), mp.mpf("9e-4")):
                direct = mp.exp(-t / 2) / t - 1 / mp.expm1(t) - t * mp.exp(-mp.mpf("0.25") * t) / 24
                patched = phi_integrand(t, 0.25)
                assert abs(patched - direct) < mp.mpf("1e-18")

    @staticmethod
    def _error_over_allowance(t, lam, digits):
        """|phi_integrand - phi| over the allowance scale * 10^(2-dps) of the
        phi sign sweeps, with phi and scale from an 80-digit direct form."""
        cfg = PrecisionConfig(working_digits=digits)
        with mp.workdps(cfg.dps):
            got = phi_integrand(mp.mpf(t), lam)
        with mp.workdps(80):
            tm, lm = mp.mpf(t), mp.mpf(lam)
            terms = (mp.exp(-tm / 2) / tm, 1 / mp.expm1(tm), tm * mp.exp(-lm * tm) / 24)
            exact = terms[0] - terms[1] - terms[2]
            allowance = sum(terms) * mp.mpf(10) ** (2 - cfg.dps)
            return abs(got - exact) / allowance

    @pytest.mark.parametrize("digits", [15, 30])
    @pytest.mark.parametrize("lam", [0, 0.25, 0.5, 1.5])
    @pytest.mark.parametrize("t", ["1e-4", "5e-4", "9.98e-4"])
    def test_taylor_branch_within_tenth_of_sweep_allowance(self, t, lam, digits):
        assert self._error_over_allowance(t, lam, digits) <= mp.mpf("0.1")

    @pytest.mark.parametrize("digits", [15, 30, 60])
    @pytest.mark.parametrize("lam", [0, 0.5, 1.5])
    @pytest.mark.parametrize("t", ["1e-30", "1e-3", "0.5", "0.999", "1", "3", "50", "200", "1e3"])
    def test_direct_branch_within_tenth_of_sweep_allowance(self, t, lam, digits):
        # the integer-interval point form from t = 1e-30, where terms of
        # about 1/t cancel to t^2 or t^3, to t = 1e3
        assert self._error_over_allowance(t, lam, digits) <= mp.mpf("0.1")

    @pytest.mark.parametrize("digits", [15, 30])
    @pytest.mark.parametrize("lam", [1e4, 1e6])
    @pytest.mark.parametrize("t", ["1e-9", "5e-7", "5e-5", "9e-4"])
    def test_large_lambda_within_tenth_of_sweep_allowance(self, t, lam, digits):
        # the Taylor range shrinks to t < 1/lambda, where e^{-lambda t} has no
        # cancelling series
        assert self._error_over_allowance(t, lam, digits) <= mp.mpf("0.1")

    @pytest.mark.parametrize("t", [1e5, 1e300, mp.mpf("1e-4000")])
    def test_past_point_bits_raises(self, t):
        # the fixed point would need more than _POINT_MAX_BITS bits beyond
        # mp.prec; it raises at once instead of working for minutes
        with pytest.raises(NumericalError):
            phi_integrand(t, 0.5)
        with pytest.raises(NumericalError):
            h_of_t(t)

    def test_laplace_consistency(self):
        # the enclosure of the Laplace form of H' against its closed form
        for x, lam in ((1.0, 0.5), (2.0, 1.5), (5.0, 1.0)):
            assert abs(laplace_check(x, lam)) < 1e-10


_LAPLACE_XS = (0.5, 1.0, 2.0, 5.0, 10.0)


class TestLaplaceEnclosure:
    @pytest.mark.parametrize("digits", [15, 30, 60])
    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.5, 2.0])
    def test_contains_closed_form(self, lam, digits):
        # H_lambda'(x) = psi(x+1) - ln(x+1/2) - 1/(24 (x+lambda)^2), from
        # mpmath's digamma at twice the working precision
        cfg = PrecisionConfig(working_digits=digits)
        for x in _LAPLACE_XS:
            enc = laplace_enclosure(x, lam, cfg)
            with mp.workdps(2 * cfg.dps + 20):
                xm = mp.mpf(x)
                ref = mp.digamma(xm + 1) - mp.log(xm + mp.mpf(1) / 2) - 1 / (24 * (xm + lam) ** 2)
                assert mp.mpf(enc.a) <= ref <= mp.mpf(enc.b), (x, lam, digits)
                assert mp.mpf(enc.b) - mp.mpf(enc.a) <= mp.mpf("1e-20"), (x, lam, digits)

    @pytest.mark.parametrize("lam", [31.0, 31.5, 100.0])
    def test_no_remainder_bound_raises(self, lam):
        # 2 lambda >= 62: the Taylor remainder of _phi_series is infinite
        with pytest.raises(NumericalError):
            laplace_enclosure(1.0, lam)

    def test_iv_precision_restored(self):
        before = iv.prec
        laplace_enclosure(1.0, 0.5, PrecisionConfig(working_digits=30))
        assert iv.prec == before
        with pytest.raises(NumericalError):
            laplace_enclosure(1.0, 40.0, PrecisionConfig(working_digits=30))
        assert iv.prec == before

    @pytest.mark.parametrize("x", [1e-300, 1e300])
    def test_extreme_x(self, x):
        # no float conversion of x's integer ratio overflows; at 1e-300 the
        # transform is -1/(24 x^2) to 17 digits, at 1e300 it is within 1e-31
        enc = laplace_enclosure(x, 0.0)
        if x < 1:
            ref = -1 / (24 * mp.mpf(x) ** 2)
            assert abs(mp.mpf(enc.a) / ref - 1) < 1e-17 and abs(mp.mpf(enc.b) / ref - 1) < 1e-17
        else:
            assert -1e-31 < enc.a <= enc.b < 1e-31

    @pytest.mark.parametrize("x", [30.0, 200.0])
    def test_large_x_contains_closed_form(self, x):
        # 2 e x >= 61 takes the moments upward, and 2x + 1 > prec bounds
        # E_1(2x + 1) by 0 and 2^-wp
        enc = laplace_enclosure(x, 0.5)
        with mp.workdps(60):
            xm = mp.mpf(x)
            ref = mp.digamma(xm + 1) - mp.log(xm + mp.mpf(1) / 2) - 1 / (24 * (xm + mp.mpf(1) / 2) ** 2)
            assert mp.mpf(enc.a) <= ref <= mp.mpf(enc.b)
            assert mp.mpf(enc.b) - mp.mpf(enc.a) <= mp.mpf("1e-20")


class TestThreshold:
    def test_h_limits(self):
        # h -> 1/2 at both ends
        assert float(h_of_t(1e-6)) == pytest.approx(0.5, abs=1e-5)
        assert float(h_of_t(500.0)) == pytest.approx(0.5, abs=2e-2)

    def test_h_frozen_value(self):
        assert float(h_of_t(2.0)) == pytest.approx(0.5557500899, rel=1e-8)

    @staticmethod
    def _h_reference(t):
        # the bracket's terms cancel to t^2, and h needs t 10^-digits of it
        with mp.workdps(100 + 4 * max(0, -int(mp.log10(t)))):
            tm = mp.mpf(t)
            return -mp.log(24 / tm ** 2 * (mp.exp(-tm / 2) - tm / mp.expm1(tm))) / tm

    @pytest.mark.parametrize("digits", [15, 30])
    @pytest.mark.parametrize("t", ["1e-30", "1e-4", "5e-4", "9.99e-4", "1e-3", "1.001e-3", "2e-3",
                                   "1e-2", "1", "2.6", "10", "200", "1e3", "1e4"])
    def test_h_keeps_working_precision(self, t, digits):
        # the bracket on the integer intervals, whose precision grows as t
        # falls below 1 and with t above it
        cfg = PrecisionConfig(working_digits=digits)
        with mp.workdps(cfg.dps):
            tm = mp.mpf(t)
            got = h_of_t(tm)
        exact = self._h_reference(tm)
        with mp.workdps(100):
            assert abs(got - exact) / exact <= mp.mpf(10) ** -digits

    def test_lambda_star_bracket_contains_maximum(self):
        # sup h to 16 digits, from a 50-digit maximisation of h
        lo, hi = lambda_star(1e-8).bracket
        assert lo <= 0.6518498903412566 <= hi

    def test_lambda_star(self):
        res = lambda_star(1e-8)
        assert 0.5 < res.lambda_star < 1.5
        assert res.bracket[1] - res.bracket[0] <= 1e-8
        assert res.lambda_star == pytest.approx(0.6518498903, abs=1e-8)
        assert res.t_star == pytest.approx(12.237, abs=0.01)

    @pytest.mark.parametrize("digits", [15, 30, 60])
    def test_lambda_star_bracket_is_proven_and_narrow(self, digits):
        lo, hi = lambda_star(1e-8, PrecisionConfig(working_digits=digits)).bracket
        assert lo <= 0.65184989034125658 <= hi
        assert hi - lo <= 1e-8

    @pytest.mark.parametrize("digits", [15, 30, 60])
    def test_t_star_is_the_maximiser_of_h(self, digits):
        # Newton's method on phi = phi_t = 0 lands on the float nearest the
        # 70-digit maximiser of h
        res = lambda_star(1e-8, PrecisionConfig(working_digits=digits))
        assert abs(Fraction(res.t_star) - T_STAR) <= Fraction(1, 10 ** 12)
        assert res.t_star == float(T_STAR)
        assert Fraction(res.bracket[0]) <= LAMBDA_STAR_70 <= Fraction(res.bracket[1])

    def test_lambda_star_calls_no_h_of_t(self, monkeypatch):
        # the lower end is h at t_star on the integer intervals, and t_star
        # comes from Newton's method, not from a search over h
        def failing_h(t):
            raise AssertionError("h_of_t called")

        monkeypatch.setattr(monotone, "h_of_t", failing_h)
        lo, hi = lambda_star(1e-8).bracket
        assert lo <= 0.65184989034125658 <= hi

    @pytest.mark.parametrize("digits", [15, 30, 60])
    def test_lambda_star_wide_tol_is_proven_at_three_halves(self, digits):
        # phi_lambda increases in lambda, so the proof at min(hi, 3/2) covers
        # hi = lo + 5, a lambda the certificate cannot decide by itself
        lo, hi = lambda_star(5, PrecisionConfig(working_digits=digits)).bracket
        assert lo <= 0.65184989034125658 <= hi
        assert Fraction(hi) - Fraction(lo) <= 5
        assert lo + 5 - hi <= math.ulp(lo + 5)

    def test_lambda_star_tol_below_precision_raises(self):
        before = iv.prec
        with pytest.raises(NumericalError):
            lambda_star(1e-300)
        assert iv.prec == before

    def test_dichotomy_around_threshold(self):
        res = lambda_star(1e-8)
        ts = [10 ** (0.01 * i - 2) for i in range(0, 401, 10)]
        assert all(float(phi_integrand(t, res.lambda_star + 0.01)) >= 0 for t in ts)
        assert any(float(phi_integrand(t, res.lambda_star - 0.01)) < 0 for t in ts)


LAMBDA_STAR = mp.mpf("0.65184989034125658")
# the maximiser of h and its maximum lambda_star, to 70 digits
T_STAR = Fraction("12.2378099615298730549559723650224")
LAMBDA_STAR_70 = Fraction("0.6518498903412565758219740569066137")



class TestPhiSignCertificate:
    @pytest.mark.parametrize("digits", [15, 30])
    @pytest.mark.parametrize("lam,sign", [(0.5, -1), (0.0, -1), (1.5, 1), (2.0, 1), (0.66, 1)])
    def test_true_signs_verified(self, lam, sign, digits):
        cfg = PrecisionConfig(working_digits=digits)
        assert phi_sign_certificate(lam, sign, cfg)[2] == "verified"

    @pytest.mark.parametrize("digits", [15, 30])
    @pytest.mark.parametrize("lam,sign", [(0.501, -1), (float(LAMBDA_STAR - mp.mpf("1e-12")), 1),
                                          (0.6, 1), (1.5, -1), (0.5, 1)])
    def test_false_signs_not_verified(self, lam, sign, digits):
        cfg = PrecisionConfig(working_digits=digits)
        assert phi_sign_certificate(lam, sign, cfg)[2] != "verified"

    @pytest.mark.parametrize("digits", [15, 30])
    def test_just_below_lambda_star_falsified_near_t_star(self, digits):
        lam = float(LAMBDA_STAR - mp.mpf("1e-12"))
        margin, at, verdict = phi_sign_certificate(lam, 1, PrecisionConfig(working_digits=digits))
        assert verdict == "falsified"
        assert margin < 0 and abs(at - 12.2378) < 0.01

    @pytest.mark.parametrize("digits", [15, 30])
    @pytest.mark.parametrize("lam", [0.5, 0.65, 1.5])
    @pytest.mark.parametrize("t", ["1e-6", "0.5", "1.9"])
    def test_taylor_remainder_covers_phi(self, t, lam, digits):
        # phi/t^p from an 80-digit direct form lies in the coefficient
        # intervals' polynomial plus the remainder interval
        p = 3 if lam == 0.5 else 2
        wp = specfun._constants(PrecisionConfig(working_digits=digits)).wl
        coeffs, rem = monotone._phi_series(lam, wp)
        with mp.workdps(80), oracles.iv_dps(80):
            tm, lm = mp.mpf(t), mp.mpf(lam)
            exact = (mp.exp(-tm / 2) / tm - 1 / mp.expm1(tm) - tm * mp.exp(-lm * tm) / 24) / tm ** p
            # Horner's rule in y = t/2, on the box of one unit around t/2
            enc = oracles.iv_of(monotone._phi_horner(monotone._fixed_end(tm / 2, wp), coeffs, rem, wp), wp)
            assert mp.mpf(enc.a) <= exact <= mp.mpf(enc.b)

    @pytest.mark.parametrize("t", ["2", "5.5", "12.2378", "20"])
    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.5, 3.0])
    def test_second_derivative_matches_numerical(self, lam, t):
        with mp.workdps(50), oracles.iv_dps(50):
            phi = lambda u: mp.exp(-u / 2) / u - 1 / mp.expm1(u) - u * mp.exp(-lam * u) / 24
            ref = mp.diff(phi, mp.mpf(t), 2)
            # the box of the one point t, exact at 50 digits
            wp, lr = specfun._constants(PrecisionConfig(working_digits=40)).wl, monotone._ratio(lam)
            tf = Fraction(*monotone._ratio(mp.mpf(t)))
            exps = monotone._point_exps(tf.as_integer_ratio(), lr, wp)
            enc = oracles.iv_of(monotone._phi_d2((tf, tf), *exps, lr, wp), wp)
            assert abs(mp.mpf(enc.mid) - ref) <= mp.mpf("1e-40")
            assert mp.mpf(enc.b) - mp.mpf(enc.a) <= mp.mpf("1e-45")

    @pytest.mark.parametrize("digits", [15, 30])
    def test_second_order_form_leaves_near_lambda_star(self, monkeypatch, digits):
        # at the upper end of lambda_star(1e-8) the first-order form added
        # 194 leaves; the second-order one needs far fewer boxes near t_star
        cfg = PrecisionConfig(working_digits=digits)
        hi = lambda_star(1e-8, cfg).bracket[1]
        leaves = []
        add = monotone._add_interval

        def counting_add(sweep, at, lo, hi, prec):
            leaves.append(at)
            add(sweep, at, lo, hi, prec)

        monkeypatch.setattr(monotone, "_add_interval", counting_add)
        assert phi_sign_certificate(hi, 1, cfg)[2] == "verified"
        assert len(leaves) <= 64

    def test_iv_precision_restored(self, monkeypatch):
        before = iv.prec
        phi_sign_certificate(0.5, -1, PrecisionConfig(working_digits=30))
        assert iv.prec == before

        def failing_series(lam, prec):
            raise NumericalError("series failed")

        monkeypatch.setattr(monotone, "_phi_series", failing_series)
        with pytest.raises(NumericalError):
            phi_sign_certificate(0.5, -1)
        assert iv.prec == before

    def test_rejects_bad_sign_and_lambda(self):
        with pytest.raises(DomainError):
            phi_sign_certificate(0.5, 0)
        with pytest.raises(DomainError):
            phi_sign_certificate(-0.1, 1)

    def test_binary_fractions_only(self):
        # the integer intervals take x and lambda as exact binary fractions;
        # 2/3 raised NotImplementedError from mpmath.iv
        assert phi_sign_certificate(Fraction(3, 4), 1)[2] == "verified"
        with pytest.raises(DomainError):
            phi_sign_certificate(Fraction(2, 3), 1)
        with pytest.raises(DomainError):
            laplace_enclosure(Fraction(1, 3), 0.5)
        with pytest.raises(DomainError):
            laplace_enclosure(1.0, Fraction(2, 3))


class TestCMCheck:
    @pytest.mark.parametrize("lam", [0.0, 0.25, 0.5])
    def test_sufficiency_plus(self, lam):
        assert cm_check(lam, "plus", max_order=6).verdict == "verified"

    @pytest.mark.parametrize("lam", [0.6, 1.0])
    def test_necessity_plus(self, lam):
        assert cm_check(lam, "plus", max_order=6).verdict == "falsified"

    @pytest.mark.parametrize("lam", [1.5, 2.0, 5.0])
    def test_sufficiency_minus(self, lam):
        assert cm_check(lam, "minus", max_order=6).verdict == "verified"

    @pytest.mark.parametrize("lam,sign", [(0.0, "plus"), (0.25, "plus"), (0.5, "plus"),
                                          (1.5, "minus"), (2.0, "minus"), (5.0, "minus")])
    def test_wide_grid_verified_at_15_digits(self, lam, sign):
        # lambda = 1/2's order-6 margin at x = 1000 is 4.9e-26, above the
        # kernel's bound there (5.5e-26 off a margin read as 1.04e-25)
        grid = default_cm_grid(96, 1e-2, 1e3)
        assert cm_check(lam, sign, grid=grid).verdict == "verified"

    def test_just_below_threshold_falsified(self):
        assert cm_check(0.64, "minus", max_order=6).verdict == "falsified"

    def test_report_fields(self):
        rep = cm_check(0.5, "plus", max_order=3, grid=[1.0, 2.0])
        assert rep.max_order == 3
        assert rep.grid == (1.0, 2.0)
        assert rep.min_margin > 0
        assert rep.argmin[0] in range(0, 4)

    def test_borderline_is_indeterminate_without_retry(self, monkeypatch):
        # order-0 margins sit inside their error bound at every grid point
        inner = monotone._plus_lambda_fixed

        def zero_order_0(f, a, s, term, wp):
            return 0 if term[0] == 0 else inner(f, a, s, term, wp)

        monkeypatch.setattr(monotone, "_plus_lambda_fixed", zero_order_0)

        def no_retry(self):
            raise AssertionError("cm_check must not escalate precision itself")

        monkeypatch.setattr(PrecisionConfig, "doubled", no_retry)
        rep = cm_check(0.5, "plus", max_order=3, grid=[1.0, 2.0])
        assert rep.verdict == "indeterminate"
        assert rep.min_margin == 0.0

    def test_orders_equal_H_lambda_deriv(self, monkeypatch):
        # cm_check adds the lambda term to the kernel's lambda-free parts
        # with the helper behind H_lambda and H_lambda_deriv; each sum
        # must lie within the kernel's bound plus the term's floor of a
        # 2 dps + 20-digit mpmath reference (H_lambda_deriv reads the same
        # kernel, so it is no independent check)
        seen, errs = [], {}
        kernel, inner = monotone.specfun._stirling_defects, monotone._plus_lambda_fixed

        def recording_kernel(xs, cfg, max_order=0):
            for out in kernel(xs, cfg, max_order):
                errs[out[0]] = out[-1]
                yield out

        def recording(f, a, s, term, wp):
            big = inner(f, a, s, term, wp)
            # x = a 2^s and lambda = man 2^exp, as the kernel and the row give them
            k, _, d, man, exp = term
            seen.append((k, mp.ldexp(a, s), mp.ldexp(man, exp), big, wp, d))
            return big

        monkeypatch.setattr(monotone.specfun, "_stirling_defects", recording_kernel)
        monkeypatch.setattr(monotone, "_plus_lambda_fixed", recording)
        cm_check(0.25, "plus", max_order=6, grid=[0.05, 1.0, 30.0])
        monkeypatch.undo()
        assert sorted((k, x) for k, x, *_ in seen) == [
            (k, x) for k in range(0, 7) for x in (0.05, 1.0, 30.0)
        ]
        with mp.workdps(2 * DEFAULT_CONFIG.dps + 20):
            for k, x, lam, big, wp, d in seen:
                assert d == 24
                ref = free_part(k, x) + (-1) ** k * mp.factorial(k) / (24 * (mp.mpf(x) + lam) ** (k + 1))
                assert abs(mp.ldexp(big, -wp) - ref) <= mp.ldexp(errs[x][k] + 1, -wp), (k, x)

    def test_margin_beyond_the_float_range_is_infinite(self):
        # at lambda = 0 and x = 1e-60 the terms k!/(24 x^(k+1)) of orders 5
        # and 6 exceed the float range; their margins are +-inf with their
        # exact signs, and order 5 is the first of them
        rep = cm_check(0.0, "plus", grid=[1e-60, 1.0])
        assert rep.verdict == "verified" and math.isfinite(rep.min_margin)
        rep = cm_check(0.0, "minus", grid=[1e-60])
        assert rep.verdict == "falsified" and rep.min_margin == -math.inf
        assert rep.argmin == (5, 1e-60)

    def test_rejects_bad_sign(self):
        with pytest.raises(DomainError):
            cm_check(0.5, "positive")

    def test_rejects_bad_grid(self):
        with pytest.raises(DomainError):
            cm_check(0.5, "plus", grid=[0.0, 1.0])


class TestNecessaryLimit:
    def test_tends_to_half(self):
        assert abs(float(necessary_limit(1e4)) - 0.5) < 1e-3
        # approach improves with x
        assert abs(float(necessary_limit(1e4)) - 0.5) < abs(float(necessary_limit(1e2)) - 0.5)

    @pytest.mark.parametrize("digits", [15, 30])
    @pytest.mark.parametrize("x", [1e2, 1e4, 1e6])
    def test_error_bound_covers_reference(self, digits, x):
        # the error of f(x) is amplified by about 1/(24 f^2) ~ 6 x^4 in the
        # limit, so a bare allowance at the working precision does not hold
        cfg = PrecisionConfig(working_digits=digits)
        sv = necessary_limit(x, cfg)
        (lo, hi), wp = monotone._necessary_limit_fixed(x, cfg)
        with mp.workdps(80):
            xm, half = mp.mpf(x), mp.mpf(1) / 2
            f = mp.loggamma(xm + 1) - (xm + half) * mp.log(xm + half) + xm + half - mp.log(2 * mp.pi) / 2
            ref = -xm - 1 / (24 * f)
            assert abs(sv.value - ref) <= sv.abs_error_bound
            # the interval the claim decides on holds it too
            assert mp.ldexp(lo, -wp) <= ref <= mp.ldexp(hi, -wp)


class TestExactSeries:
    def test_pivot_coefficients(self):
        c4, _ = series_coeff_pivot(4)
        assert c4 == 0
        c5, term5 = series_coeff_pivot(5)
        assert c5 == 112
        assert term5 == Fraction(7, 240)

    def test_pivot_chain(self):
        # c_k >= k^3 + 23k - 24 > 0 for k >= 6 (the k = 5 coefficient 112
        # sits below that chain value 216, hence the separate 7/240 term)
        assert 112 < 5 ** 3 + 23 * 5 - 24
        for k in range(6, 61):
            ck, _ = series_coeff_pivot(k)
            assert ck >= k ** 3 + 23 * k - 24 > 0

    def test_lambda_inequality_at_three_halves(self):
        lam = Fraction(3, 2)
        lhs3, rhs3 = series_coeff_lambda(3, lam)
        assert lhs3 == rhs3  # exact equality at k = 3
        for k in range(4, 31):
            lhs, rhs = series_coeff_lambda(k, lam)
            assert lhs > rhs

    def test_kth_root_gap_decides_the_bound(self):
        # gap = 2^(k-2) (k-2) ((3/2)^(k-3) - base), base the k-th root's
        # radicand, so its sign is that of 3/2 - kth_root_bound(k)
        for k in range(4, 201):
            base = (Fraction(3, 2) ** (k - 2) - Fraction(1, 2) ** (k - 2)) / (k - 2)
            gap = kth_root_gap(k)
            assert gap == 2 ** (k - 2) * (k - 2) * (Fraction(3, 2) ** (k - 3) - base)
            assert gap > 0 and kth_root_bound(k) <= 1.5, k
        for bad in (3, 4.0, "5"):
            with pytest.raises(DomainError):
                kth_root_gap(bad)

    def test_kth_root_bound(self):
        vals = [kth_root_bound(k) for k in range(4, 201)]
        assert all(v <= 1.5 for v in vals)
        assert vals == sorted(vals)  # increases toward 3/2
        assert vals[-1] == pytest.approx(1.46328, abs=1e-4)


def test_default_cm_grid_shape():
    grid = default_cm_grid()
    assert len(grid) == 48
    assert grid[0] == pytest.approx(1e-2)
    assert grid[-1] == pytest.approx(100.0)
