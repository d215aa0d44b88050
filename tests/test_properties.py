"""Hypothesis properties: bad input raises DomainError, reports survive a
render/parse round trip in both formats, a non-integer n exits 2,
SpecialValue accepts exactly the finite nonnegative error bounds, the
F_0 kernel stays within its bound, which is no wider than the bound of
ln Gamma(x+1) - p(x) formed the long way, so does each of its orders
F_0..F_6, ln_gamma and binet_theta, which read that kernel, stay within
theirs, the kernel returns its reference's integers and bounds bit for bit
(tests/oracles.py), and every row margin of the fused Thm 3.1/3.4 pass lies within
its stated error of a reference."""

import contextlib
import io
import math

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp

from gammacert import (
    DomainError,
    H_lambda,
    H_lambda_deriv,
    ParameterError,
    SpecialValue,
    binet_theta,
    cm_check,
    digamma,
    ln_gamma,
    phi_integrand,
    polygamma,
)
from gammacert import bounds, cli, harness, specfun
from gammacert.bounds import BoundFamily, FamilyId, gamma_bound_log
from gammacert.config import FALSIFIED, INDETERMINATE, VERIFIED, PrecisionConfig
from gammacert.harness import GridSpec, VerificationReport
from gammacert.monotone import laplace_check, phi_sign_certificate
import oracles
from oracles import free_part

# nan, +-inf and every x <= 0, as floats or as mpf
_bad_float = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.floats(max_value=0.0, allow_nan=False),
)
bad_x = st.one_of(_bad_float, _bad_float.map(mp.mpf))

# nan, +-inf and every lambda < 0, as floats or as mpf
_bad_float_lambda = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.floats(max_value=0.0, exclude_max=True, allow_nan=False),
)
bad_lambda = st.one_of(_bad_float_lambda, _bad_float_lambda.map(mp.mpf))

_GAMMA_FAMILIES = [
    BoundFamily(FamilyId.BUKAC_GAMMA),
    BoundFamily(FamilyId.SEVLI_BATIR_GAMMA),
    BoundFamily(FamilyId.QI_GAMMA_LOW),
    BoundFamily(FamilyId.QI_GAMMA_HIGH),
]


class TestBadInputRaises:
    @given(bad_x)
    @settings(max_examples=40, deadline=None)
    def test_ln_gamma(self, x):
        with pytest.raises(DomainError):
            ln_gamma(x)

    @given(bad_x)
    @settings(max_examples=40, deadline=None)
    def test_stirling_defect(self, x):
        with pytest.raises(DomainError):
            specfun._stirling_defect(x)

    @given(bad_x)
    @settings(max_examples=40, deadline=None)
    def test_digamma(self, x):
        with pytest.raises(DomainError):
            digamma(x)

    @given(bad_x)
    @settings(max_examples=40, deadline=None)
    def test_polygamma(self, x):
        with pytest.raises(DomainError):
            polygamma(1, x)

    @given(bad_x, st.sampled_from([0.0, 0.5, 1.5]))
    @settings(max_examples=40, deadline=None)
    def test_H_lambda(self, x, lam):
        with pytest.raises(DomainError):
            H_lambda(x, lam)

    @given(bad_x, st.sampled_from(_GAMMA_FAMILIES))
    @settings(max_examples=40, deadline=None)
    def test_gamma_bound_log(self, x, family):
        with pytest.raises(DomainError):
            gamma_bound_log(family, x)

    # nan raised ParameterError from inside SpecialValue, or a bare
    # ValueError from the certificate, and cm_check(inf, "minus") said
    # "verified"
    @given(bad_lambda)
    @example(math.nan)
    @example(math.inf)
    @settings(max_examples=40, deadline=None)
    def test_lambda(self, lam):
        calls = [lambda: H_lambda(1.0, lam), lambda: H_lambda_deriv(2, 1.0, lam),
                 lambda: laplace_check(1.0, lam), lambda: phi_sign_certificate(lam, 1),
                 lambda: cm_check(lam, "plus", grid=[1.0]), lambda: cm_check(lam, "minus", grid=[1.0])]
        for call in calls:
            with pytest.raises(DomainError):
                call()

    @given(st.sampled_from([math.nan, mp.nan]))
    @settings(max_examples=10, deadline=None)
    def test_phi_integrand_nan_lambda(self, lam):
        # it returned nan
        with pytest.raises(DomainError):
            phi_integrand(1.0, lam)

    @given(st.one_of(st.floats(), st.integers(max_value=0), st.text(max_size=3), st.none()))
    @example(3.0)  # a TypeError before
    @settings(max_examples=40, deadline=None)
    def test_cm_check_max_order(self, max_order):
        with pytest.raises(DomainError):
            cm_check(0.5, "plus", max_order=max_order, grid=[1.0])


_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def grids(draw):
    spacing = draw(st.sampled_from(["linear", "log"]))
    ends = st.floats(min_value=5e-324, allow_infinity=False) if spacing == "log" else _finite
    lo, hi = sorted(draw(st.lists(ends, min_size=2, max_size=2, unique=True)))
    return GridSpec(lo, hi, draw(st.integers(2, 10 ** 7)), spacing)


reports = st.builds(
    VerificationReport,
    claim_id=st.one_of(
        st.sampled_from([c.claim_id for c in harness.REGISTRY]),
        st.text(st.characters(blacklist_categories=("Cs", "Cc")), min_size=1),
    ),
    grid=grids(),
    min_margin=_finite,
    argmin_x=_finite,
    verdict=st.sampled_from([VERIFIED, FALSIFIED, INDETERMINATE]),
    precision_digits=st.integers(15, 1000),
    runtime_ms=st.integers(0, 10 ** 9),
)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@given(rs=st.lists(reports, max_size=5))
@example(rs=[VerificationReport('a "quoted" \\ id', GridSpec(1.0, 2.0, 2, "linear"),
                                0.5, 1.0, VERIFIED, 15, 0)])
@settings(max_examples=60, deadline=None)
def test_render_parse_round_trip(fmt, rs):
    assert harness.parse_reports(harness.render_reports(rs, fmt), fmt) == rs


_INTEGER_FAMILIES = ["HarmonicLow", "HarmonicHigh", "FactorialLow", "FactorialHigh", "FactorialAsPrinted"]


@given(st.sampled_from(_INTEGER_FAMILIES), st.floats().filter(lambda x: not x.is_integer()))
@settings(max_examples=60, deadline=None)
def test_eval_non_integer_n_exits_two(family, x):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli.main(["eval", "--family", family, f"--x={x!r}"]) == 2
    assert "integer" in err.getvalue()


@given(st.one_of(st.floats(), st.floats().map(mp.mpf)))
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-5e-324)
@settings(max_examples=200, deadline=None)
def test_special_value_accepts_finite_nonnegative_bounds(bound):
    # the rule the check replaced: finite as an mpf and not negative
    ok = bool(mp.isfinite(mp.mpf(bound))) and not bound < 0
    try:
        SpecialValue(mp.mpf(1), bound)
    except ParameterError:
        assert not ok
    else:
        assert ok


# x log-uniform on [1e-300, 1e15]
_log_uniform_x = st.floats(math.log(1e-300), math.log(1e15)).map(math.exp)


@given(x=_log_uniform_x, digits=st.sampled_from([15, 30, 60]))
@example(x=1e-300, digits=60)
@example(x=1e15, digits=15)
@example(x=9.0, digits=15)  # x + 1 at the shift threshold: no shift
# z = x + 1 = 1e40: W = 0 and the series keeps c_1 alone, whose rounding
# the bound must cover too
@example(x=1e40, digits=15)
@example(x=1e40, digits=60)
@settings(max_examples=80, deadline=None)
def test_stirling_defect_within_its_bound_and_the_long_ways(x, digits):
    cfg = PrecisionConfig(working_digits=digits)
    sv = specfun._stirling_defect(x, cfg)
    # digits enough to keep the cancellation of ln Gamma(x+1) ~ x ln x exact
    # past x = 1e15, as at the x = 1e40 example
    with mp.workdps(2 * cfg.dps + 20 + max(0, math.ceil(math.log10(x)) - 15)):
        xm = mp.mpf(x)
        h = xm + mp.mpf(1) / 2
        ref = mp.loggamma(xm + 1) - (mp.log(2 * mp.pi) / 2 + h * (mp.log(h) - 1))
        assert abs(sv.value - ref) <= sv.abs_error_bound, (x, digits)
    # the long way: ln_gamma(x+1) with its bound, less p(x), with the rounding
    # of both, (|ln Gamma| + size) 10^(2-dps), size that of p's terms
    with mp.workdps(cfg.dps):
        xm = mp.mpf(x)
        lg = ln_gamma(xm + 1, cfg)
        h = xm + mp.mpf(1) / 2
        consts = specfun._constants(cfg)
        size = consts.ln_sqrt_2pi + h * (abs(mp.log(h)) + 1)
        long_way = lg.abs_error_bound + float((abs(lg.value) + size) * consts.eps)
    assert sv.abs_error_bound <= long_way, (x, digits)


@given(x=_log_uniform_x, digits=st.sampled_from([15, 30, 60]))
# the tightest case: the series remainders nearly equal their first omitted
# terms (F_6 is 0.99999999 of its bound off at 15 digits)
@example(x=1e4, digits=15)
@example(x=1e-300, digits=60)
# z = x + 1 = 1e40: W = 0 and each series keeps c_1 alone, whose rounding
# the bound must cover too
@example(x=1e40, digits=15)
@settings(max_examples=60, deadline=None)
def test_every_order_of_the_kernel_within_its_bound(x, digits):
    cfg = PrecisionConfig(working_digits=digits)
    fs, wp, errs = specfun._stirling_defect_fixed(x, cfg, 6)
    assert len(fs) == len(errs) == 7
    # past x = 1e15 F_0's reference needs the digits of ln Gamma(x+1) ~ x ln x
    with mp.workdps(2 * cfg.dps + 20 + max(0, math.ceil(math.log10(x)) - 15)):
        for k, (f, err) in enumerate(zip(fs, errs)):
            assert abs(mp.ldexp(f, -wp) - free_part(k, x)) <= err, (x, digits, k)


# x log-uniform on [1e-300, 1e300]
_full_range_x = st.floats(math.log(1e-300), math.log(1e300)).map(math.exp)

with mp.workdps(40):
    _WIDE_X = mp.mpf("0.1") + 1  # 136 bits, rounded to 86 at 15 digits


@given(x=_full_range_x, max_order=st.integers(0, 6), digits=st.sampled_from([15, 30, 60]))
@example(x=_WIDE_X, max_order=0, digits=15)
@example(x=_WIDE_X, max_order=6, digits=30)
@example(x=1e-300, max_order=6, digits=15)
@example(x=1e300, max_order=6, digits=60)
@example(x=1, max_order=6, digits=15)
@example(x=2, max_order=1, digits=30)
@example(x=7, max_order=3, digits=60)
@example(x=11, max_order=0, digits=15)
# x + 1 on both sides of the shift threshold, 10 at 15 digits and order 0
@example(x=8.999999999999998, max_order=0, digits=15)
@example(x=9.0, max_order=0, digits=15)
@settings(max_examples=80, deadline=None)
def test_kernel_equals_its_reference(x, max_order, digits):
    # the same (Fs, wp, errs) as the kernel before its per-call plumbing was
    # removed: the same shift, terms, integers and float bounds
    cfg = PrecisionConfig(working_digits=digits)
    got = specfun._stirling_defect_fixed(x, cfg, max_order)
    assert got == oracles._stirling_defect_fixed(x, cfg, max_order), (x, max_order, digits)


@given(x=_log_uniform_x, digits=st.sampled_from([15, 30, 60]))
# theta(1e10) = 8.3e-12; at 15 digits mp.quad errs by 6.5e-33 here, above
# the 8.3e-35 that its error estimate gave as a bound
@example(x=1e10, digits=15)
@example(x=1e-300, digits=60)
@example(x=1e15, digits=15)
@settings(max_examples=80, deadline=None)
def test_ln_gamma_and_binet_theta_within_their_bounds(x, digits):
    cfg = PrecisionConfig(working_digits=digits)
    lg, theta = ln_gamma(x, cfg), binet_theta(x, cfg)
    with mp.workdps(2 * cfg.dps + 20):
        xm = mp.mpf(x)
        ref = mp.loggamma(xm)
        assert abs(lg.value - ref) <= lg.abs_error_bound, (x, digits)
        ref_theta = ref - (xm - mp.mpf(1) / 2) * mp.log(xm) + xm - mp.log(2 * mp.pi) / 2
        assert abs(theta.value - ref_theta) <= theta.abs_error_bound, (x, digits)


# the two Thm 3.1 rows, the corrected Thm 3.4 rows, then the printed sides
_ALL_ROWS = harness._THM31_ROWS + harness._THM34_ROWS


@given(x=_log_uniform_x, digits=st.sampled_from([15, 30]))
@example(x=1e-300, digits=15)
@example(x=1e15, digits=30)
@example(x=1.0, digits=15)  # the corrected rows hold with equality at n = 1
@example(x=100.0, digits=30)
@settings(max_examples=60, deadline=None)
def test_row_margins_within_their_error_of_a_reference(x, digits):
    cfg = PrecisionConfig(working_digits=digits)
    ref_cfg = PrecisionConfig(working_digits=2 * cfg.dps + 10)  # at 2 dps + 20 digits
    rows = tuple(bounds._row_shape(r, cfg) for r in _ALL_ROWS)
    [(at, scale, margins)] = harness._row_margins(rows, cfg, [x])
    assert at == x
    # one margin per side: both sides of the first four rows, one of the printed
    assert [i for i, _, _ in margins] == [0, 0, 1, 1, 2, 2, 3, 3, 4, 5]
    with mp.workdps(ref_cfg.dps):
        xm = mp.mpf(x)
        h = xm + mp.mpf(1) / 2
        f0 = mp.loggamma(xm + 1) - (mp.log(2 * mp.pi) / 2 + h * (mp.log(h) - 1))
        refs = []
        for r in _ALL_ROWS:
            d, lam, c_lo, c_hi, _ = bounds._row_shape(r, ref_cfg)
            target = f0 + 1 / (d * (xm + lam))
            refs += [target - c for c in (c_lo,) if not mp.isinf(c)]
            refs += [c - target for c in (c_hi,) if not mp.isinf(c)]
        for (i, big_m, err), ref in zip(margins, refs):
            assert abs(mp.mpf(big_m) / scale - ref) <= err, (x, digits, i, big_m / scale, ref, err)
