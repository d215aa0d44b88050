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
from gammacert import monotone
from gammacert.config import PrecisionConfig, SpecialValue
from gammacert.monotone import (
    default_cm_grid,
    h_of_t,
    kth_root_bound,
    kth_root_gap,
    laplace_check,
    necessary_limit,
    phi_sign_certificate,
    series_coeff_lambda,
    series_coeff_pivot,
)


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
        ts = [10 ** (0.01 * i - 4) for i in range(0, 601, 20)]
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

    @pytest.mark.parametrize("digits", [15, 30])
    @pytest.mark.parametrize("lam", [0, 0.5, 1.5])
    @pytest.mark.parametrize("t", ["1e-3", "0.5", "0.999", "1", "3", "50", "200"])
    def test_direct_branch_within_tenth_of_sweep_allowance(self, t, lam, digits):
        # expm1 form below t = 1, exp form from t = 1 on
        assert self._error_over_allowance(t, lam, digits) <= mp.mpf("0.1")

    @pytest.mark.parametrize("digits", [15, 30])
    @pytest.mark.parametrize("lam", [1e4, 1e6])
    @pytest.mark.parametrize("t", ["1e-9", "5e-7", "5e-5", "9e-4"])
    def test_large_lambda_within_tenth_of_sweep_allowance(self, t, lam, digits):
        # the Taylor range shrinks to t < 1/lambda, where e^{-lambda t} has no
        # cancelling series
        assert self._error_over_allowance(t, lam, digits) <= mp.mpf("0.1")

    def test_laplace_consistency(self):
        # quadrature of phi e^{-xt} against the closed form of H'
        for x, lam in ((1.0, 0.5), (2.0, 1.5), (5.0, 1.0)):
            assert abs(laplace_check(x, lam)) < 1e-10


class TestThreshold:
    def test_h_limits(self):
        # h -> 1/2 at both ends
        assert float(h_of_t(1e-6)) == pytest.approx(0.5, abs=1e-5)
        assert float(h_of_t(500.0)) == pytest.approx(0.5, abs=2e-2)

    def test_h_frozen_value(self):
        assert float(h_of_t(2.0)) == pytest.approx(0.5557500899, rel=1e-8)

    @staticmethod
    def _h_reference(t):
        with mp.workdps(100):
            tm = mp.mpf(t)
            return -mp.log(24 / tm ** 2 * (mp.exp(-tm / 2) - tm / mp.expm1(tm))) / tm

    @pytest.mark.parametrize("digits", [15, 30])
    @pytest.mark.parametrize("t", ["1e-4", "5e-4", "9.99e-4", "1e-3", "1.001e-3", "2e-3",
                                   "1e-2", "1", "2.6", "10", "200", "1e3"])
    def test_h_keeps_working_precision(self, t, digits):
        # the Taylor branch below t = 1e-3 and the direct branch above it
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

    @pytest.mark.parametrize("digits", [15, 30])
    def test_lambda_star_bracket_is_proven_and_narrow(self, digits):
        lo, hi = lambda_star(1e-8, PrecisionConfig(working_digits=digits)).bracket
        assert lo <= 0.65184989034125658 <= hi
        assert hi - lo <= 1e-8

    @pytest.mark.parametrize("digits", [15, 30])
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
        with monotone._iv_dps(PrecisionConfig(working_digits=digits).dps):
            coeffs, rem = monotone._phi_series(lam)
        with mp.workdps(80), monotone._iv_dps(80):
            tm, lm = mp.mpf(t), mp.mpf(lam)
            exact = (mp.exp(-tm / 2) / tm - 1 / mp.expm1(tm) - tm * mp.exp(-lm * tm) / 24) / tm ** p
            s = coeffs[-1]
            for c in reversed(coeffs[:-1]):
                s = s * iv.mpf(tm) + c
            enc = s + rem
            assert mp.mpf(enc.a) <= exact <= mp.mpf(enc.b)

    def test_iv_precision_restored(self, monkeypatch):
        before = iv.prec
        phi_sign_certificate(0.5, -1, PrecisionConfig(working_digits=30))
        assert iv.prec == before

        def failing_series(lam):
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
        inner = monotone._plus_lambda_term

        def zero_order_0(f, k, xm, lam, cfg):
            return SpecialValue(mp.mpf(0), 1.0) if k == 0 else inner(f, k, xm, lam, cfg)

        monkeypatch.setattr(monotone, "_plus_lambda_term", zero_order_0)

        def no_retry(self):
            raise AssertionError("cm_check must not escalate precision itself")

        monkeypatch.setattr(PrecisionConfig, "doubled", no_retry)
        rep = cm_check(0.5, "plus", max_order=3, grid=[1.0, 2.0])
        assert rep.verdict == "indeterminate"
        assert rep.min_margin == 0.0

    def test_sweeps_share_one_psi_table(self, monkeypatch):
        calls = []
        psi = monotone.specfun._psi

        def counting_psi(mlo, mhi, x, cfg):
            calls.append((mlo, mhi, cfg.working_digits))
            return psi(mlo, mhi, x, cfg)

        monkeypatch.setattr(monotone.specfun, "_psi", counting_psi)
        monotone._free_table.cache_clear()
        grid = [0.5, 1.0, 4.0]
        cm_check(0.5, "plus", max_order=4, grid=grid)
        cm_check(1.5, "minus", max_order=4, grid=grid)
        assert calls == [(0, 3, 15)] * 3
        cm_check(1.5, "minus", max_order=4, grid=grid[:2])
        assert len(calls) == 5

    def test_eight_sweeps_build_one_free_table(self, monkeypatch):
        # the lambda-free parts F_0..F_6 are built once per grid point by the
        # first sweep; the other seven add only their lambda terms
        psi_calls, free_calls = [], []
        psi, free = monotone.specfun._psi, monotone._H_free

        def counting_psi(mlo, mhi, x, cfg):
            psi_calls.append(x)
            return psi(mlo, mhi, x, cfg)

        def counting_free(k, xm, cfg, ps=None):
            free_calls.append((k, xm))
            return free(k, xm, cfg, ps)

        monkeypatch.setattr(monotone.specfun, "_psi", counting_psi)
        monkeypatch.setattr(monotone, "_H_free", counting_free)
        monotone._free_table.cache_clear()
        grid = [0.01, 0.3, 1.0, 4.0, 25.0, 100.0]
        sweeps = [(0.0, "plus"), (0.25, "plus"), (0.5, "plus"), (0.6, "plus"), (1.0, "plus"),
                  (1.5, "minus"), (2.0, "minus"), (5.0, "minus")]
        reports = []
        for lam, sign in sweeps:
            reports.append(cm_check(lam, sign, max_order=6, grid=grid))
            assert len(psi_calls) == len(grid)
            assert sorted(free_calls) == sorted((k, x) for k in range(7) for x in grid)
        monkeypatch.undo()
        for (lam, sign), rep in zip(sweeps, reports):
            monotone._free_table.cache_clear()
            assert cm_check(lam, sign, max_order=6, grid=grid) == rep

    def test_table_precision_matches_cold_call(self):
        cfg30 = PrecisionConfig(working_digits=30)
        monotone._free_table.cache_clear()
        cold = cm_check(0.25, "plus", cfg=cfg30)
        monotone._free_table.cache_clear()
        cm_check(0.25, "plus")
        assert cm_check(0.25, "plus", cfg=cfg30) == cold
        assert monotone._free_table.cache_info().currsize == 1

    def test_orders_equal_H_lambda_deriv(self, monkeypatch):
        # cm_check adds the lambda term to its shared table of lambda-free
        # parts with the helper behind H_lambda and H_lambda_deriv; both
        # paths must give the same value
        seen = []
        inner = monotone._plus_lambda_term

        def recording(f, k, xm, lam, cfg):
            sv = inner(f, k, xm, lam, cfg)
            seen.append((k, xm, lam, sv))
            return sv

        monkeypatch.setattr(monotone, "_plus_lambda_term", recording)
        monotone._free_table.cache_clear()
        cm_check(0.25, "plus", max_order=6, grid=[0.05, 1.0, 30.0])
        monkeypatch.undo()
        assert sorted((k, x) for k, x, _, _ in seen) == [
            (k, x) for k in range(0, 7) for x in (0.05, 1.0, 30.0)
        ]
        for k, x, lam, sv in seen:
            ref = H_lambda_deriv(k, x, lam) if k else H_lambda(x, lam)
            assert abs(sv.value - ref.value) <= sv.abs_error_bound + ref.abs_error_bound

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
        sv = necessary_limit(x, PrecisionConfig(working_digits=digits))
        with mp.workdps(80):
            xm, half = mp.mpf(x), mp.mpf(1) / 2
            f = mp.loggamma(xm + 1) - (xm + half) * mp.log(xm + half) + xm + half - mp.log(2 * mp.pi) / 2
            ref = -xm - 1 / (24 * f)
            assert abs(sv.value - ref) <= sv.abs_error_bound


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
