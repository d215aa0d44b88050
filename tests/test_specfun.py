"""Oracle tests for the reference special-function layer.

mpmath's own loggamma/psi/euler are used purely as independent oracles;
the implementations under test build the values from Stirling series with
explicit remainder bounds, so agreement here is a genuine cross-check.
"""

import functools
import math
import os
import subprocess
import sys
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from gammacert import (
    DEFAULT_CONFIG,
    DomainError,
    ParameterError,
    PrecisionConfig,
    binet_theta,
    digamma,
    euler_gamma,
    harmonic_exact,
    ln_gamma,
    mathieu_partial,
    polygamma,
)
import oracles
from gammacert import harness, monotone, specfun
from gammacert.config import MAX_WORKING_DIGITS
from gammacert.monotone import default_cm_grid
from oracles import free_part

HI = PrecisionConfig(working_digits=30)


def oracle_err(sv, oracle) -> float:
    return abs(float(sv.value - oracle))


class TestLnGamma:
    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 1.5, 2.0, 3.7, 10.0, 171.6, 1e4, 1e-6])
    def test_against_mpmath_oracle(self, x):
        with mp.workdps(40):
            oracle = mp.loggamma(mp.mpf(x))
            sv = ln_gamma(x, DEFAULT_CONFIG)
            assert oracle_err(sv, oracle) <= sv.abs_error_bound

    @pytest.mark.parametrize("n,fact", [(1, 1), (2, 1), (5, 24), (11, 3628800)])
    def test_integer_values(self, n, fact):
        sv = ln_gamma(n, DEFAULT_CONFIG)
        assert abs(float(sv.value) - math.log(fact)) < 1e-13

    def test_error_bound_shrinks_with_precision(self):
        lo = ln_gamma(3.5, DEFAULT_CONFIG)
        hi = ln_gamma(3.5, HI)
        assert hi.abs_error_bound < lo.abs_error_bound
        assert abs(float(lo.value - hi.value)) <= lo.abs_error_bound

    def test_domain(self):
        with pytest.raises(DomainError):
            ln_gamma(0.0)
        with pytest.raises(DomainError):
            ln_gamma(-1.5)
        with pytest.raises(DomainError):
            ln_gamma(math.inf)
        with pytest.raises(DomainError):
            ln_gamma(mp.mpf("inf"))

    @given(st.floats(min_value=0.01, max_value=500.0))
    @settings(max_examples=25, deadline=None)
    def test_recurrence_property(self, x):
        # ln Gamma(x+1) = ln Gamma(x) + ln x
        a = ln_gamma(x, DEFAULT_CONFIG)
        b = ln_gamma(x + 1, DEFAULT_CONFIG)
        lhs = float(b.value - a.value)
        assert lhs == pytest.approx(math.log(x), abs=1e-10, rel=1e-10)


class TestDigammaPolygamma:
    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.0, 7.3, 100.0])
    def test_digamma_oracle(self, x):
        with mp.workdps(40):
            oracle = mp.psi(0, mp.mpf(x))
            sv = digamma(x, DEFAULT_CONFIG)
            assert oracle_err(sv, oracle) <= sv.abs_error_bound

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("x", [0.3, 1.0, 4.2, 50.0])
    def test_polygamma_oracle(self, m, x):
        with mp.workdps(40):
            oracle = mp.psi(m, mp.mpf(x))
            sv = polygamma(m, x, DEFAULT_CONFIG)
            assert oracle_err(sv, oracle) <= sv.abs_error_bound

    def test_polygamma_sign_alternation(self):
        # (-1)^(m+1) psi^(m)(x) > 0 on the positive axis
        for m in range(1, 7):
            val = float(polygamma(m, 2.5).value)
            assert (-1) ** (m + 1) * val > 0

    def test_digamma_recurrence(self):
        # psi(x+1) = psi(x) + 1/x
        x = 0.7
        a = float(digamma(x).value)
        b = float(digamma(x + 1).value)
        assert b - a == pytest.approx(1 / x, abs=1e-12)

    def test_polygamma_rejects_bad_order(self):
        with pytest.raises(DomainError):
            polygamma(0, 1.0)
        with pytest.raises(DomainError):
            polygamma(-1, 1.0)

    @pytest.mark.parametrize("x", [0.0, -2.0, math.inf, -math.inf, math.nan])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            digamma(x)
        for m in (1, 2):
            with pytest.raises(DomainError):
                polygamma(m, x)


class TestTinyX:
    # psi^(m)(x) ~ m!/x^(m+1) is a finite mpf, but its error bound, a float,
    # overflows for tiny x; that is a DomainError naming the order and x.
    # The bound holds the value's rounding, up to 2^-prec of it, so at 15
    # digits (86 bits) it trips from about |psi^(m)| = 2^87 1.8e308 on:
    # between 1e-167 and 1e-168 for m = 1, between 1e-55 and 1e-56 for m = 5
    CALLS = {
        "polygamma(1, 1e-170)": (1, 1e-170, lambda cfg: polygamma(1, 1e-170, cfg)),
        "polygamma(5, 1e-57)": (5, 1e-57, lambda cfg: polygamma(5, 1e-57, cfg)),
        "ln_gamma+digamma+polygamma(1..5, 1e-300)": (
            1, 1e-300, lambda cfg: [ln_gamma(1e-300, cfg), digamma(1e-300, cfg),
                                    *(polygamma(m, 1e-300, cfg) for m in range(1, 6))]),
    }

    @pytest.mark.parametrize("digits", [15, 30, 40])
    @pytest.mark.parametrize("call", list(CALLS))
    def test_overflowing_bound_is_a_domain_error(self, digits, call):
        m, x, run = self.CALLS[call]
        cfg = PrecisionConfig(working_digits=digits)
        try:
            values = run(cfg)
        except DomainError as exc:
            assert f"psi^({m})" in str(exc) and f"x={x!r}" in str(exc)
            raised = True
        else:
            values = values if isinstance(values, list) else [values]
            assert all(0 <= sv.abs_error_bound < math.inf for sv in values)
            raised = False
        # at 15 digits all three overflow; at 30 and 40 the smaller rounding
        # keeps polygamma(1, 1e-170) and polygamma(5, 1e-57) finite
        assert raised == (digits == 15 or "1e-300" in call)

    @pytest.mark.parametrize("digits", [15, 30, 40])
    def test_largest_finite_bound_still_returns(self, digits):
        sv = polygamma(1, 1e-165, PrecisionConfig(working_digits=digits))
        assert 0 < sv.abs_error_bound < math.inf
        # the bound is about the value's rounding, 5e-52 of it at 40 digits,
        # which a 60-digit reference of psi'(1e-165) ~ 1e330 can miss
        with mp.workdps(120):
            assert abs(sv.value - mp.polygamma(1, mp.mpf(1e-165))) <= sv.abs_error_bound


class TestSharedShift:
    @pytest.mark.parametrize("digits", [15, 30, 40])
    def test_order_range_against_mpmath_oracle(self, digits):
        # one kernel call for orders 0..6 from one shift, as the row pass
        # takes F_0..F_6 at every grid point of a CM sweep, each value
        # within its own bound
        cfg = PrecisionConfig(working_digits=digits)
        for x in default_cm_grid() + [1e-3, 171.6, 1e4]:
            fs, wp, errs = oracles.kernel_at(x, cfg, 6)
            assert len(fs) == len(errs) == 7
            with mp.workdps(60):
                for k, (f, err) in enumerate(zip(fs, errs)):
                    assert abs(mp.ldexp(f, -wp) - free_part(k, x)) <= mp.ldexp(err, -wp), (x, k)

    def test_no_table_built_at_import(self):
        code = (
            "import gammacert.cli\n"
            "from gammacert import monotone, specfun\n"
            "assert not specfun._STIRLING_COEFFS, specfun._STIRLING_COEFFS\n"
            "assert specfun._TANGENT == [0, 1], specfun._TANGENT\n"
            "assert not specfun._LN_TABLES, specfun._LN_TABLES\n"
            "assert monotone._phi_series.cache_info().currsize == 0\n"
            "assert specfun._constants.cache_info().currsize == 0\n"
        )
        src = os.path.dirname(os.path.dirname(specfun.__file__))
        proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestShiftKernel:
    # the F_0 kernel's shift product is one exact integer product of the
    # factors man 2^(e-s) + j 2^-s, x = man 2^e, s = min(e, 0); these x cover
    # e >= 0 (integers), e near -1000 (1e-300), a mantissa wider than 53
    # bits, and x past the shift threshold (n = 0 at 15 digits for 12.5; 1e300)
    XS = [1, 2, 7, 11, 1e-300, 12.5, 1e300, "wide", 0.001, 0.999, 9.99, 37.2, 1e5]

    @staticmethod
    def _x(x):
        if x == "wide":
            with mp.workdps(40):
                wide = mp.mpf("0.1") + 1
            assert wide.man.bit_length() > 53
            return wide
        return x

    @pytest.mark.parametrize("digits", [15, 30, 40, 60])
    @pytest.mark.parametrize("x", XS)
    def test_against_60_digit_oracle(self, digits, x):
        # the series terms are summed in fixed point (specfun._fixed_horner);
        # at 60 digits the 70-digit working precision sums them at about 253
        # bits, so the oracle runs 30 digits above the working digits there
        cfg = PrecisionConfig(working_digits=digits)
        x = self._x(x)
        # psi^(m)(1e-300) ~ m!/x^(m+1) has an error bound past the float
        # range for m >= 1 (DomainError, see TestTinyX), so ln Gamma and
        # order 0 there
        mhi = 0 if x == 1e-300 else 6
        # (order, value), order -1 standing for ln_gamma
        values = [(-1, ln_gamma(x, cfg)), (0, digamma(x, cfg)),
                  *((m, polygamma(m, x, cfg)) for m in range(1, mhi + 1))]
        with mp.workdps(max(60, digits + 30)):
            xm = mp.mpf(x)
            for m, sv in values:
                oracle = mp.loggamma(xm) if m == -1 else mp.polygamma(m, xm)
                assert abs(sv.value - oracle) <= sv.abs_error_bound, (x, m)

    @pytest.mark.parametrize("digits", [15, 30, 40])
    @pytest.mark.parametrize("x", [2.5, 7, 1e-300, "wide"])
    def test_shift_product_is_rounded_once(self, digits, x, monkeypatch):
        # the F_0 kernel forms prod_{j=1..n} (x+j) as one exact integer
        # product and hands it with z^n, z = x + 1 + n, unrounded to
        # _ln_fixed, after ln(z/u), u = x + 1/2, as the exact ratio 2 zi/ui;
        # past the shift threshold (n = 0) it forms no product and takes one log
        cfg = PrecisionConfig(working_digits=digits)
        products, logs = [], []
        ln_fixed = specfun._ln_fixed

        def prod(factors):
            products.append(list(factors))
            return math.prod(products[-1])

        def recording_ln_fixed(num, den, w):
            logs.append((num, den, w))
            return ln_fixed(num, den, w)

        monkeypatch.setattr(specfun, "math", types.SimpleNamespace(**{**vars(math), "prod": prod}))
        monkeypatch.setattr(specfun, "_ln_fixed", recording_ln_fixed)
        x = self._x(x)
        oracles.kernel_at(x, cfg)
        with mp.workdps(cfg.dps):
            wl = mp.prec + specfun._FIXED_GUARD_BITS
        # x exactly: the kernel takes a dyadic x, "wide" too, apart exactly
        man, e = (x if isinstance(x, mp.mpf) else mp.mpf(x)).man_exp
        xq, scale = Fraction(man) * Fraction(2) ** e, Fraction(2) ** min(e, 0)
        [factors] = products
        n = len(factors)
        assert n >= 1
        assert [f * scale for f in factors] == [xq + j for j in range(1, n + 1)]
        ratio = math.prod(xq + j for j in range(1, n + 1)) / (xq + 1 + n) ** n
        assert len(logs) == 2  # ln(z/u), then the log of the ratio
        assert Fraction(*logs[0][:2]) == (xq + 1 + n) / (xq + Fraction(1, 2))
        num, den, w = logs[1]
        assert num == math.prod(factors) and Fraction(num, den) == ratio
        assert w == wl
        products.clear()
        logs.clear()
        oracles.kernel_at(1e300, cfg)
        assert products == [] and len(logs) == 1

    @pytest.mark.parametrize("digits", [15, 60])
    def test_no_log_table_past_x_63_5(self, digits, monkeypatch):
        # without a shift, z/u = 1 + 1/(2x+1) lies below 1 + 2^-7 past
        # x = 63.5, so _ln_fixed reads no table there, however many bits
        # u ln(z/u) asks for (about 1100 at x = 1e300); at x = 11 it does
        monkeypatch.setattr(specfun, "_LN_TABLES", {})
        cfg = PrecisionConfig(working_digits=digits)
        for x in (63.6, 1e5, 1e300):
            oracles.kernel_at(x, cfg, 2)
        assert specfun._LN_TABLES == {}
        oracles.kernel_at(max(11, specfun._constants(cfg).shift_threshold), cfg)
        assert len(specfun._LN_TABLES) == 1

    @pytest.mark.parametrize("x", [0.5, 2, 5])
    def test_threshold_doubling_retry(self, x, monkeypatch):
        # with the shift threshold at 3, the series of order 0 misses its
        # target at z = x + 1 + n twice, so the threshold doubles to 6 and
        # then to 12, where it meets it: n = ceil(12 - (x + 1)) factors
        cfg = PrecisionConfig()
        shifts = []

        def prod(factors):
            shifts.append(len(factors))
            return math.prod(factors)

        for module in (specfun, oracles):
            monkeypatch.setattr(module, "_shift_threshold", lambda digits: 3.0)
        monkeypatch.setattr(specfun, "math", types.SimpleNamespace(**{**vars(math), "prod": prod}))
        specfun._constants.cache_clear()  # the per-precision record holds the threshold
        try:
            fs, wp, errs = oracles.kernel_at(x, cfg)
            assert specfun._constants(cfg).shift_threshold == 3.0
        finally:
            specfun._constants.cache_clear()
        assert shifts == [math.ceil(12 - (x + 1))]
        assert oracles.kernel_off_reference((fs, wp, errs), x, cfg, 0) == []
        with mp.workdps(2 * cfg.dps + 20):
            assert abs(mp.ldexp(fs[0], -wp) - free_part(0, x)) <= mp.ldexp(errs[0], -wp)

    @pytest.mark.parametrize("digits", [15, 30, 60, MAX_WORKING_DIGITS])
    def test_float_target_is_the_largest_float_at_or_below_the_target(self, digits):
        # so a float remainder bound meets the exact target exactly when it
        # meets this float; the target, 10^-(digits+6), is a normal float up
        # to the limit on the working digits
        consts = specfun._constants(PrecisionConfig(working_digits=digits))
        target = Fraction(1, 10 ** (digits + 6))
        assert Fraction(consts.target_float) <= target < Fraction(math.nextafter(consts.target_float, math.inf))
        assert consts.target_float >= sys.float_info.min

    @pytest.mark.parametrize("ambient", [20, 53, 400])
    def test_kernel_ignores_the_ambient_precision(self, ambient):
        # the kernel enters no precision context; every precision it uses
        # comes from cfg, whatever precision its caller runs at
        cfg = PrecisionConfig(working_digits=30)
        xs = [0.37, 12.5, self._x("wide"), "2.5", 10 ** 40 + 1]
        with mp.workprec(53):  # mpmath's default
            expected = [oracles.kernel_at(x, cfg, 3) for x in xs]
        with mp.workprec(ambient):
            assert [oracles.kernel_at(x, cfg, 3) for x in xs] == expected

    @pytest.mark.parametrize("digits", [15, 60])
    @pytest.mark.parametrize("m", range(-1, 7))
    def test_fixed_point_sum_within_its_bound(self, digits, m):
        # A_1 2^-wp against the exact sum S = sum_{j<k} c_j w^(j-1), w = 1/z^2,
        # within the bound of specfun._fixed_horner's docstring; z >= 10
        # and k up to 20 keep the terms c_j w^j decreasing, as it requires
        cfg = PrecisionConfig(working_digits=digits)
        with mp.workdps(cfg.dps):
            wp = mp.prec + specfun._FIXED_GUARD_BITS
            coeffs = specfun._stirling_coeffs(m, 20, mp.prec)
            exact = []
            for j in range(1, 21):
                p, q = mp.bernfrac(2 * j)
                num, den = (math.perm(2 * j + m - 1, m - 1), 1) if m >= 1 else (1, math.perm(2 * j, 1 - m))
                exact.append(Fraction(p * num, q * den))
                assert abs(coeffs[j - 1][1] - exact[-1] * 2 ** wp) <= Fraction(1, 2)
            for z in ("10", "10.7", "12.5", "37.2", "1e5", "1e40"):
                zm = mp.mpf(z)
                man, e = zm.man_exp
                w = 1 / (Fraction(man) * Fraction(2) ** e) ** 2
                for k in (2, 3, 7, 20):
                    terms = [abs(c) * w ** j for j, c in enumerate(exact[:k - 1], 1)]
                    assert terms == sorted(terms, reverse=True)
                    total = sum(c * w ** (j - 1) for j, c in enumerate(exact[:k - 1], 1))
                    err = abs(Fraction(specfun._fixed_horner(coeffs, k, zm.man_exp, wp), 2 ** wp) - total)
                    bound = (Fraction(152, 100) + abs(exact[1]) * (k - 1) * (k - 2) / 2) / 2 ** wp
                    assert err <= bound, (z, k)
        # at z = 1e40, W = 0 and the series keeps c_1 alone, so the sum is
        # C_1 2^-wp; its rounding lies far above the first omitted term, and
        # the kernel's bound must cover it too: the x = 1e40 examples of
        # test_properties.py check that for every order

    @pytest.mark.parametrize("digits", [15, 30])
    @pytest.mark.parametrize("x", [1, 12.5, 1e-300, 1e300, "wide", 0.001])
    def test_defect_is_the_fixed_kernel_rounded_once(self, digits, x):
        # F 2^-wp rounded into one mpf of prec bits, and the kernel's count
        # plus that rounding's exact distance, in units of 2^-wp, rounded up
        cfg = PrecisionConfig(working_digits=digits)
        x = self._x(x)
        [fixed], wp, [err] = oracles.kernel_at(x, cfg)
        sv = oracles.defect_at(x, cfg)
        with mp.workdps(cfg.dps):
            assert sv.value == mp.mpf((fixed, -wp))
        moved = abs(Fraction(*specfun._ratio(sv.value)) * 2 ** wp - fixed)
        assert moved.denominator == 1 and moved <= Fraction(abs(fixed), 2 ** specfun._constants(cfg).prec)
        assert sv.abs_error_bound == math.nextafter((err + int(moved)) / 2 ** wp, math.inf)
        with mp.workdps(2 * cfg.dps + 20):
            xm = mp.mpf(x)
            h = xm + mp.mpf(1) / 2
            ref = mp.loggamma(xm + 1) - (mp.log(2 * mp.pi) / 2 + h * (mp.log(h) - 1))
            assert abs(mp.ldexp(fixed, -wp) - ref) <= mp.ldexp(err, -wp)

    @pytest.mark.parametrize("read", [ln_gamma, binet_theta])
    def test_ln_gamma_and_binet_theta_read_the_kernel_once(self, read, monkeypatch):
        calls = []
        kernel = specfun._stirling_defects

        def counting_kernel(xs, cfg, max_order=0):
            for out in kernel(xs, cfg, max_order):
                calls.append(out[0])
                yield out

        monkeypatch.setattr(specfun, "_stirling_defects", counting_kernel)
        read(2.5)
        assert calls == [2.5]

    def test_constants_once_per_precision(self):
        cfg = PrecisionConfig(working_digits=17)
        specfun._constants.cache_clear()
        ln_gamma(3.5, cfg)
        ln_gamma(0.25, cfg)
        info = specfun._constants.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        consts = specfun._constants(cfg)
        with mp.workdps(cfg.dps):
            assert (consts.prec, consts.wl) == (mp.prec, mp.prec + specfun._FIXED_GUARD_BITS)
        assert consts.log_target == -23 * math.log(10)


class TestBinetTheta:
    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 5.0, 20.0])
    def test_identity_with_ln_gamma(self, x):
        # theta(x) = ln Gamma(x) - (x-1/2) ln x + x - ln sqrt(2 pi); both read
        # the F_0 kernel, so this checks their two read-outs agree, and the
        # oracle tests below are the independent check
        sv = binet_theta(x, DEFAULT_CONFIG)
        lg = ln_gamma(x, DEFAULT_CONFIG)
        with mp.workdps(DEFAULT_CONFIG.dps):
            xm = mp.mpf(x)
            closed = lg.value - (xm - mp.mpf(1) / 2) * mp.log(xm) + xm - mp.log(2 * mp.pi) / 2
            assert abs(float(sv.value - closed)) <= sv.abs_error_bound + lg.abs_error_bound

    @pytest.mark.parametrize("digits", [15, 30, 40])
    @pytest.mark.parametrize("x", [0.5, 2.5, 10.0])
    def test_against_mpmath_oracle(self, digits, x):
        sv = binet_theta(x, PrecisionConfig(working_digits=digits))
        with mp.workdps(digits + 40):
            xm = mp.mpf(x)
            oracle = mp.loggamma(xm) - (xm - mp.mpf(1) / 2) * mp.log(xm) + xm - mp.log(2 * mp.pi) / 2
            assert abs(sv.value - oracle) <= sv.abs_error_bound

    @pytest.mark.parametrize("digits", [15, 30])
    @pytest.mark.parametrize("x", [1e20, 1e23, 1e25])
    def test_bound_stays_relative_at_large_x(self, digits, x):
        # from x = 1 on, (x+1/2) ln(1 + 1/(2x)) - 1/2 is summed from its
        # alternating series in 1/(2x), so no term near 1/2 rounds away
        # theta ~ 1/(12x), and the bound stays a small part of theta
        cfg = PrecisionConfig(working_digits=digits)
        sv = binet_theta(x, cfg)
        with mp.workdps(2 * cfg.dps + 20):
            xm = mp.mpf(x)
            oracle = mp.loggamma(xm) - (xm - mp.mpf(1) / 2) * mp.log(xm) + xm - mp.log(2 * mp.pi) / 2
            assert abs(sv.value - oracle) <= sv.abs_error_bound
            assert sv.abs_error_bound <= 1e-4 * oracle

    def test_classical_bracket(self):
        # 1/(12x+1) < theta(x) < 1/(12x)
        for x in (1.0, 3.0, 10.0):
            v = float(binet_theta(x).value)
            assert 1 / (12 * x + 1) < v < 1 / (12 * x)


class TestPublicBounds:
    # each public function adds its terms to the kernel's integers with
    # their counts and rounds once, so its bound is the series target
    # 10^-(digits+6), a few units of 2^-wl and the value's rounding, at most
    # 2^-prec of it; where that is past the float range the call raises
    # DomainError
    # below the float range too, where the kernel works at wp = -s, past
    # 1100 bits: an mpf, certified at its own value, and a Fraction, at its
    # rounding to the working bits (TestFractionX)
    XS = [1e-300, 1e-100, 1e-20, 1e-5, 0.37, 1.0, 2.5, 7.3, 100.0, 1e4, 1e25, 1e100, 1e300,
          mp.mpf("1e-310"), Fraction(1, 10 ** 400)]
    # name -> (order m of psi^(m), or None, call)
    FUNCS = {"ln_gamma": (None, ln_gamma), "binet_theta": (None, binet_theta), "digamma": (0, digamma),
             **{f"polygamma{m}": (m, functools.partial(polygamma, m)) for m in range(1, 7)},
             "H_lambda": (None, lambda x, cfg: monotone.H_lambda(x, 0.5, cfg))}

    @staticmethod
    def _reference(name, m, xm):
        if m is not None:
            return mp.polygamma(m, xm)
        if name == "H_lambda":
            return free_part(0, xm) + 1 / (24 * (xm + mp.mpf(1) / 2))
        lg = mp.loggamma(xm)
        return lg if name == "ln_gamma" else lg - (xm - mp.mpf(1) / 2) * mp.log(xm) + xm - mp.log(2 * mp.pi) / 2

    @pytest.mark.parametrize("digits", [15, 30, 60])
    @pytest.mark.parametrize("x", XS)
    @pytest.mark.parametrize("name", list(FUNCS))
    def test_encloses_the_reference_within_target_and_rounding(self, name, x, digits):
        cfg = PrecisionConfig(working_digits=digits)
        prec = specfun._constants(cfg).prec
        m, call = self.FUNCS[name]
        with mp.workdps(cfg.dps):  # x as the functions take it
            xm = mp.mpf(x.numerator) / x.denominator if isinstance(x, Fraction) else x
        xq = Fraction(*specfun._ratio(xm))
        huge = m is not None and math.factorial(m) / xq ** (m + 1) > Fraction(sys.float_info.max) * 2 ** prec
        if huge:  # psi^(m)(x) ~ m!/x^(m+1), its rounding past the float range
            with pytest.raises(DomainError, match=rf"psi\^\({m}\)"):
                call(x, cfg)
            return
        sv = call(x, cfg)
        # theta cancels ln Gamma(x) ~ x ln x: digits for that, and a
        # reference 60 digits or more beyond the working ones
        digits_of_x = round(math.log10(xq.numerator) - math.log10(xq.denominator))
        with mp.workdps(2 * cfg.dps + 40 + max(0, digits_of_x)):
            assert abs(sv.value - self._reference(name, m, mp.mpf(xm))) <= sv.abs_error_bound
        value = abs(Fraction(*specfun._ratio(sv.value)))
        assert Fraction(sv.abs_error_bound) <= Fraction(2, 10 ** (digits + 6)) + value / 2 ** (prec - 2)


class TestFractionX:
    # an exact rational x is rounded to the working bits, as mp.mpf(1)/3
    # is at cfg.dps, by the kernel (specfun._split)
    CALLS = {
        "H_lambda": lambda x, cfg: monotone.H_lambda(x, 0.5, cfg),
        "ln_gamma": ln_gamma,
        "binet_theta": binet_theta,
        "digamma": digamma,
        "cm_check": lambda x, cfg: monotone.cm_check(0.5, "plus", 2, [x], cfg),
    }

    @pytest.mark.parametrize("digits", [15, 30])
    @pytest.mark.parametrize("call", list(CALLS))
    def test_a_fraction_is_its_rounded_mpf(self, call, digits):
        cfg = PrecisionConfig(working_digits=digits)
        with mp.workdps(cfg.dps):
            third = mp.mpf(1) / 3
        assert self.CALLS[call](Fraction(1, 3), cfg) == self.CALLS[call](third, cfg)

    @pytest.mark.parametrize("x", [10 ** 400, Fraction(10 ** 400)])
    def test_past_the_float_range(self, x):
        # float(x) overflows; an int, or a Fraction of denominator 1, is
        # dyadic, and the kernel reads it exactly, as it reads the exact mpf
        with mp.workprec(1400):
            xm = mp.mpf(10 ** 400)
        assert digamma(x) == digamma(xm)
        assert monotone.H_lambda(x, 0.5) == monotone.H_lambda(xm, 0.5)

    def test_a_dyadic_fraction_is_exact(self):
        # a power-of-two denominator: the Fraction is the mpf of its value,
        # all 200 bits of it, not that value rounded to the working bits
        x = Fraction(2 ** 200 + 1, 2 ** 200)
        with mp.workprec(201):
            xm = mp.mpf(x.numerator) / x.denominator
        assert specfun._split(x, 53) == specfun._split(xm, 53) == (x.numerator, -200)
        assert ln_gamma(x) == ln_gamma(xm)

    @pytest.mark.parametrize("x", [Fraction(0), Fraction(-1, 3)])
    @pytest.mark.parametrize("call", list(CALLS))
    def test_a_nonpositive_fraction_is_a_domain_error(self, call, x):
        with pytest.raises(DomainError):
            self.CALLS[call](x, DEFAULT_CONFIG)


class TestExactTables:
    def test_bernoulli_numbers_equal_mpmaths(self):
        for n in range(2, 521):
            assert Fraction(*specfun._bernoulli(n)) == Fraction(*mp.bernfrac(n)), n

    def test_one_tangent_table_grows(self, monkeypatch):
        # asked past its end, the table is rebuilt at twice its length or
        # more; a shorter request reads it as it stands
        monkeypatch.setattr(specfun, "_TANGENT", [0, 1])
        table = specfun._tangent_numbers(40)
        assert table[:6] == [0, 1, 2, 16, 272, 7936] and len(table) == 41
        assert specfun._tangent_numbers(20) is table and len(table) == 41
        head = table[:]
        assert len(specfun._tangent_numbers(41)) == 83 and table[:41] == head

    @pytest.mark.parametrize("digits", [15, 291])
    @pytest.mark.parametrize("m", range(-1, 6))
    def test_stirling_coefficients_from_the_exact_table(self, m, digits):
        # C_k the integer nearest c_k 2^wp, |c_k| the float nearest it (inf
        # past the float range) and ln|c_k| the float nearest its log, for
        # k <= 250, against mpmath's Bernoulli numbers
        prec = specfun._constants(PrecisionConfig(working_digits=digits)).prec
        wp = prec + specfun._FIXED_GUARD_BITS
        table = specfun._stirling_coeffs(m, 250, prec)
        for k, (ln_c, big_c, size) in enumerate(table[:250], 1):
            num, den = (math.perm(2 * k + m - 1, m - 1), 1) if m >= 1 else (1, math.perm(2 * k, 1 - m))
            c = Fraction(*mp.bernfrac(2 * k)) * num / den
            assert big_c == math.floor(c * 2 ** wp + Fraction(1, 2)), k
            assert size == (float(abs(c)) if abs(c) < sys.float_info.max else math.inf), k
            with mp.workprec(200):
                log = mp.log(mp.mpf(abs(c.numerator)) / c.denominator)
            assert abs(ln_c - log) <= math.ulp(ln_c) / 2 + mp.mpf(2) ** -75, k


class TestHarmonic:
    def test_small_values(self):
        assert harmonic_exact(1) == 1
        assert harmonic_exact(2) == Fraction(3, 2)
        assert harmonic_exact(4) == Fraction(25, 12)

    def test_digamma_link(self):
        # H_n = psi(n+1) + gamma
        n = 25
        h = harmonic_exact(n)
        approx = float(digamma(n + 1).value) + float(euler_gamma().value)
        assert float(h) == pytest.approx(approx, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            harmonic_exact(0)


class TestMathieu:
    def test_monotone_in_terms(self):
        vals = [float(mathieu_partial(1.0, n).value) for n in (1, 2, 5, 20, 100)]
        assert vals == sorted(vals)

    def test_tail_bound_honest(self):
        coarse = mathieu_partial(2.0, 500)
        fine = mathieu_partial(2.0, 5000)
        assert float(fine.value - coarse.value) <= coarse.abs_error_bound

    def test_known_bracket(self):
        # S(r) < 1/r^2 (classical), and S(1) > 0.5 (first two terms)
        s = mathieu_partial(1.0, 10000)
        assert 0.5 < float(s.value) < 1.0

    @pytest.mark.parametrize("r,terms", [(1.0, 1), (1.0, 1000), (0.3, 50), (2.5, 200), (1e-3, 10)])
    def test_bound_holds_against_exact_sums(self, r, terms):
        # the fixed-point sum, its N floors and the rounded-up tail: S_N and
        # S_N + 1/(N^2+r^2), which brackets the series, lie within the bound
        sv = mathieu_partial(r, terms)
        exact = sum(Fraction(2 * n) / (n * n + Fraction(r) ** 2) ** 2 for n in range(1, terms + 1))
        tail = 1 / (terms * terms + Fraction(r) ** 2)
        man, exp = sv.value.man_exp
        value = man * Fraction(2) ** exp
        assert abs(value - exact) <= sv.abs_error_bound
        assert abs(value - exact - tail) <= sv.abs_error_bound
        # no relative allowance: the bound is the tail plus a few units of
        # 2^-wp, rounded up to a float
        assert Fraction(sv.abs_error_bound) - tail < 2 * math.ulp(sv.abs_error_bound) + Fraction(1, 10 ** 20)

    def test_a_wide_r_is_summed_at_its_value(self):
        # an mpf r wider than the working bits is dyadic and taken exactly,
        # as a float is; a Fraction r is rounded as mp.mpf(1)/3 is
        with mp.workprec(200):
            r = mp.mpf(1) / 3
        rq = Fraction(*specfun._ratio(r))
        sv = mathieu_partial(r, 50)
        exact = sum(Fraction(2 * n) / (n * n + rq ** 2) ** 2 for n in range(1, 51))
        tail = 1 / (2500 + rq ** 2)
        value = Fraction(*specfun._ratio(sv.value))
        assert abs(value - exact) <= sv.abs_error_bound and abs(value - exact - tail) <= sv.abs_error_bound
        with mp.workdps(DEFAULT_CONFIG.dps):
            third = mp.mpf(1) / 3
        assert mathieu_partial(Fraction(1, 3), 50) == mathieu_partial(third, 50)
        wp = specfun._constants(DEFAULT_CONFIG).wl
        assert specfun._mathieu_fixed(r, 50, wp) != specfun._mathieu_fixed(third, 50, wp)

    @pytest.mark.parametrize("r,terms", [(1.0, 1000), (0.3, 50), (1e-3, 10), (1e3, 20)])
    def test_fixed_sum_counts_one_floor_per_term(self, r, terms):
        wp = 106
        total, tail = specfun._mathieu_fixed(r, terms, wp)
        exact = sum(Fraction(2 * n) / (n * n + Fraction(r) ** 2) ** 2 for n in range(1, terms + 1)) * 2 ** wp
        assert 0 <= exact - total < terms
        assert 0 <= tail - 2 ** wp / (terms * terms + Fraction(r) ** 2) < 1

    def test_remark1_margin_keeps_its_digits(self):
        # tail bound at N = 1000 less S_2000 - S_1000, in fixed point, at r = 1
        claim = next(c for c in harness.REGISTRY if c.claim_id == "remark1-mathieu-partial")
        margin, at, verdict = claim.runner(DEFAULT_CONFIG, claim.grid)
        assert (verdict, at, format(margin, ".6g")) == ("verified", 1000.0, "2.50874e-07")
        exact = Fraction(1, 1000 ** 2 + 1) - sum(Fraction(2 * n, (n * n + 1) ** 2) for n in range(1001, 2001))
        assert margin == float(exact)


class TestEulerGamma:
    def test_value(self):
        with mp.workdps(40):
            sv = euler_gamma(DEFAULT_CONFIG)
            assert abs(float(sv.value - mp.euler)) <= sv.abs_error_bound

    @pytest.mark.parametrize("digits", [15, 30, 60])
    def test_harmonic_constants_read_mpmaths_gamma(self, digits):
        # Thm 3.2's gamma is the interval at 2^-wl of libmp's constant: a
        # unit or two wide, it holds mpmath's gamma at three times the digits
        # and euler_gamma's value within that one's bound
        cfg = PrecisionConfig(working_digits=digits)
        wl = specfun._constants(cfg).wl
        lo, hi = specfun._logs(wl).euler
        sv = euler_gamma(PrecisionConfig(working_digits=cfg.dps))
        assert 0 < hi - lo <= 5
        with mp.workdps(3 * cfg.dps):
            assert mp.ldexp(lo, -wl) <= mp.euler <= mp.ldexp(hi, -wl)
            assert abs(mp.ldexp(lo + hi, -wl - 1) - sv.value) <= sv.abs_error_bound + mp.ldexp(hi - lo, -wl)

    @pytest.mark.parametrize("digits", [15, 30])
    def test_value_at_default_global_precision(self, digits):
        # the negation must not round the value to the caller's 53 bits
        sv = euler_gamma(PrecisionConfig(working_digits=digits))
        with mp.workdps(60):
            assert abs(sv.value - mp.euler) <= sv.abs_error_bound


def test_precision_config_holds_working_digits_only():
    import dataclasses

    assert [f.name for f in dataclasses.fields(PrecisionConfig)] == ["working_digits"]
    assert PrecisionConfig(20).doubled() == PrecisionConfig(40)
    with pytest.raises(ParameterError):
        PrecisionConfig(14)


def test_working_digits_past_the_limit_raise():
    # past MAX_WORKING_DIGITS the float error bounds leave the float range
    assert PrecisionConfig(MAX_WORKING_DIGITS).working_digits == MAX_WORKING_DIGITS
    with pytest.raises(ParameterError):
        PrecisionConfig(MAX_WORKING_DIGITS + 1)
    with pytest.raises(ParameterError):
        PrecisionConfig(MAX_WORKING_DIGITS // 2 + 1).doubled()
