"""Hypothesis properties: bad input raises DomainError, reports survive a
render/parse round trip in both formats, a non-integer n exits 2,
SpecialValue accepts exactly the finite nonnegative error bounds, the
F_0 kernel stays within its bound, which is no wider than the bound of
ln Gamma(x+1) - p(x) formed the long way, so does each of its orders
F_0..F_6, ln_gamma and binet_theta, which read that kernel, stay within
theirs, the kernel returns its reference's bounds bit for bit and its
integers within the two routes' log bounds (tests/oracles.py), a float x
gives the kernel the integers of its exact mpf and a bad float
require_positive's DomainError, the fixed-point log specfun._ln_fixed
lies within its bound of a reference of 100 digits or more, every row margin of the one row pass, the Thm 3.1/3.4
rows and the rows of a complete-monotonicity sweep, lies within its stated
error of a reference, the second-order centred form of the
phi-sign certificate encloses phi_lambda on its box, the certificate's
integer box enclosures and the integer Laplace enclosure hold an 80-digit
value and are at most a few units of their scale wider than their
references (tests/oracles.py), and each integer interval of the Remark 1
pass holds its margin."""

import contextlib
import io
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import iv, libmp, mp

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
from gammacert import bounds, cli, harness, monotone, specfun
from gammacert.bounds import BoundFamily, FamilyId, gamma_bound_log
from gammacert.config import FALSIFIED, INDETERMINATE, VERIFIED, PrecisionConfig
from gammacert.harness import GridSpec, VerificationReport
from gammacert.monotone import h_of_t, laplace_check, phi_sign_certificate
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
            oracles.defect_at(x)

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
                 lambda: cm_check(lam, "plus", grid=[1.0]), lambda: cm_check(lam, "minus", grid=[1.0]),
                 lambda: phi_integrand(1.0, lam)]
        for call in calls:
            with pytest.raises(DomainError):
                call()

    # phi_integrand(inf, 1/2) returned nan, and h_of_t(inf) raised
    # NumericalError
    @given(bad_x)
    @example(math.inf)
    @settings(max_examples=40, deadline=None)
    def test_phi_integrand(self, t):
        with pytest.raises(DomainError):
            phi_integrand(t, 0.5)

    @given(bad_x)
    @example(math.inf)
    @settings(max_examples=40, deadline=None)
    def test_h_of_t(self, t):
        with pytest.raises(DomainError):
            h_of_t(t)

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
    sv = oracles.defect_at(x, cfg)
    # digits enough to keep the cancellation of ln Gamma(x+1) ~ x ln x exact
    # past x = 1e15, as at the x = 1e40 example
    with mp.workdps(2 * cfg.dps + 20 + max(0, math.ceil(math.log10(x)) - 15)):
        xm = mp.mpf(x)
        h = xm + mp.mpf(1) / 2
        ref = mp.loggamma(xm + 1) - (mp.log(2 * mp.pi) / 2 + h * (mp.log(h) - 1))
        assert abs(sv.value - ref) <= sv.abs_error_bound, (x, digits)
    # the long way: ln_gamma(x+1) with its bound, less p(x) formed with mpf
    # operations at cfg.dps, whose rounding is allowed as (|ln Gamma| + size)
    # 10^(2-dps), size that of p's terms (gamma_2N of Higham 2002, sec. 3.1,
    # for at most 50 operations)
    with mp.workdps(cfg.dps):
        xm = mp.mpf(x)
        lg = ln_gamma(xm + 1, cfg)
        h = xm + mp.mpf(1) / 2
        size = mp.log(2 * mp.pi) / 2 + h * (abs(mp.log(h)) + 1)
        long_way = lg.abs_error_bound + float((abs(lg.value) + size) * mp.mpf(10) ** (2 - cfg.dps))
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
    fs, wp, errs = oracles.kernel_at(x, cfg, 6)
    assert len(fs) == len(errs) == 7
    # past x = 1e15 F_0's reference needs the digits of ln Gamma(x+1) ~ x ln x
    with mp.workdps(2 * cfg.dps + 20 + max(0, math.ceil(math.log10(x)) - 15)):
        for k, (f, err) in enumerate(zip(fs, errs)):
            assert abs(mp.ldexp(f, -wp) - free_part(k, x)) <= mp.ldexp(err, -wp), (x, digits, k)


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
    # the same wp and errs as the kernel before its per-call plumbing was
    # removed (the same shift, terms and float bounds), and the same Fs but
    # for the logs in F_0 and F_1, within the sum of the two routes' log bounds
    cfg = PrecisionConfig(working_digits=digits)
    got = oracles.kernel_at(x, cfg, max_order)
    assert oracles.kernel_off_reference(got, x, cfg, max_order) == [], (x, max_order, digits)


def _ln_fixed_error(num: int, den: int, w: int):
    """specfun._ln_fixed(num, den, w) - 2^w ln(num/den), the log taken at
    100 digits or at w + 80 bits, whichever is more, so that the reference
    is off by less than 2^-60 units of 2^-w for |ln(num/den)| < 2^15."""
    prec = max(333, w + 80)
    ratio = libmp.from_rational(num, den, prec, "n")
    with mp.workprec(prec):
        return specfun._ln_fixed(num, den, w) - mp.ldexp(mp.log(mp.make_mpf(ratio)), w)


_LN_BOUND = mp.mpf(5) / 4 + mp.mpf(2) ** -60


@given(e=st.integers(-1100, 1100), num=st.integers(1, 2 ** 64), den=st.integers(1, 2 ** 64),
       w=st.integers(0, 400))
@example(e=0, num=1, den=1, w=0)
@example(e=1100, num=2 ** 64, den=1, w=400)
@example(e=-1100, num=1, den=2 ** 64, w=400)
@settings(max_examples=150, deadline=None)
def test_ln_fixed_within_its_bound(e, num, den, w):
    # ratios from 2^-1164 to 2^1164, with k ln 2 far from 0
    num, den = num << max(e, 0), den << max(-e, 0)
    assert abs(_ln_fixed_error(num, den, w)) < _LN_BOUND, (num, den, w)


@given(den=st.integers(2 ** 1040, 2 ** 1060), delta=st.integers(-2 ** 60, 2 ** 60),
       w=st.integers(900, 1300))
@example(den=2 ** 1040, delta=-1, w=1300)
@example(den=2 ** 1040, delta=0, w=1300)
@settings(max_examples=100, deadline=None)
def test_ln_fixed_near_one_within_its_bound(den, delta, w):
    # num/den within 2^-979 of 1, on both sides: ln(num/den) ~ delta/den
    # is resolved at w > 1040 bits, and the table is read below 1
    assert abs(_ln_fixed_error(den + delta, den, w)) < _LN_BOUND, (den, delta, w)


@pytest.mark.parametrize("w", [0, 30, 106, 250])
def test_ln_fixed_every_table_entry_within_its_bound(w):
    # each c_j = 1 + j/2^7 itself, times 2^k for k = -70, 0, 9, so that
    # every entry, ln 2 among them, is read alone and beside k ln 2
    for j in range(1, 129):
        for k in (-70, 0, 9):
            num, den = (128 + j) << max(k, 0), 128 << max(-k, 0)
            assert abs(_ln_fixed_error(num, den, w)) < _LN_BOUND, (j, k, w)


@pytest.mark.parametrize("big_b", [64, 192, 256, 1216])
def test_ln_table_entries_are_floored_below_their_logs(big_b):
    # every term of the table's series is floored, so each entry lies in
    # (2^B ln c_j - 3/2, 2^B ln c_j]; _ln_fixed's bound for num >= den rests on it
    table = specfun._ln_table(big_b)
    assert len(table) == 129 and table[0] == 0
    with mp.workprec(big_b + 80):
        for j, entry in enumerate(table[1:], 1):
            exact = mp.ldexp(mp.log(1 + mp.mpf(j) / 128), big_b)
            assert exact - mp.mpf(3) / 2 < entry <= exact, (big_b, j)


@pytest.mark.parametrize("w", [0, 1, 2, 3])
def test_ln_fixed_is_low_for_ratios_of_one_or_more(w):
    # for num >= den every step floors toward the exact log, so the result is
    # at or below it; at w < 4 only 6 to 8 guard bits lie below the result,
    # so a step rounded up shows in about one of 32 results
    rng = random.Random(w)
    for _ in range(1500):
        den = rng.randrange(1, 2 ** 40)
        num = den + rng.randrange(0, den << rng.randrange(0, 30))
        error = _ln_fixed_error(num, den, w)
        assert -_LN_BOUND < error <= mp.mpf(2) ** -60, (num, den, w)


@given(x=_full_range_x, digits=st.sampled_from([15, 30, 60]), max_order=st.integers(0, 1))
@example(x=1e300, digits=60, max_order=1)
@example(x=1e-300, digits=15, max_order=1)
@example(x=2.5, digits=30, max_order=0)
@settings(max_examples=80, deadline=None)
def test_ln_fixed_within_its_bound_on_the_kernels_ratios(x, digits, max_order):
    # the two logs of the F_0 kernel, ln(2 zi/ui) at wl + bitlen(u) + 2 bits
    # and ln(prod/z^n) at wl, as the kernel forms them
    calls, ln_fixed = [], specfun._ln_fixed

    def recording(num, den, w):
        calls.append((num, den, w))
        return ln_fixed(num, den, w)

    specfun._ln_fixed = recording
    try:
        oracles.kernel_at(x, PrecisionConfig(working_digits=digits), max_order)
    finally:
        specfun._ln_fixed = ln_fixed
    assert 1 <= len(calls) <= 2
    for num, den, w in calls:
        assert abs(_ln_fixed_error(num, den, w)) < _LN_BOUND, (x, digits, num, den, w)


# a float is taken apart exactly, so the kernel's integers at it are those
# at its exact mpf: log-uniform x, any positive float (subnormal or
# integral), the subnormal 5e-324 and the ends of the range
@given(x=st.one_of(_full_range_x, st.floats(min_value=5e-324, max_value=1e300)),
       max_order=st.integers(0, 6), digits=st.sampled_from([15, 30, 60, 291]))
@example(x=5e-324, max_order=6, digits=15)
@example(x=5e-324, max_order=0, digits=291)
@example(x=100.0, max_order=6, digits=30)
@example(x=3.0, max_order=6, digits=60)
@example(x=3.0, max_order=2, digits=291)
@example(x=1e-300, max_order=6, digits=291)
@example(x=1e300, max_order=6, digits=15)
@example(x=1e300, max_order=1, digits=291)
@settings(max_examples=40, deadline=None)
def test_kernel_at_a_float_equals_it_at_the_exact_mpf(x, max_order, digits):
    cfg = PrecisionConfig(working_digits=digits)
    exact = mp.mpf(x)  # 53 bits at mpmath's default precision: exact
    assert exact == x
    got = oracles.kernel_at(x, cfg, max_order)
    assert got == oracles.kernel_at(exact, cfg, max_order), (x, max_order, digits)


@pytest.mark.parametrize("digits", [15, 30, 60, 291])
@pytest.mark.parametrize("x", [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf])
def test_kernel_rejects_a_bad_float(x, digits):
    # the message config.require_positive gives, for the float as passed,
    # from a lone kernel call and from the row pass alike
    cfg = PrecisionConfig(working_digits=digits)
    message = f"^x must be positive and finite, got {x!r}$"
    with pytest.raises(DomainError, match=message):
        oracles.kernel_at(x, cfg, 6)
    rows = ((0, *bounds._row_shape(FamilyId.QI_GAMMA_LOW, cfg)),)
    with pytest.raises(DomainError, match=message):
        monotone._row_pass((rows,), cfg, [1.0, x])


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
    rows = tuple((0, *bounds._row_shape(r, cfg)) for r in _ALL_ROWS)
    [(at, wp, margins)] = monotone._row_margins(rows, cfg, [mp.mpf(x)])
    assert at == x
    # one margin per side: both sides of the first four rows, one of the printed
    assert [i for i, _, _ in margins] == [0, 0, 1, 1, 2, 2, 3, 3, 4, 5]
    ref_wl = specfun._constants(ref_cfg).wl
    with mp.workdps(ref_cfg.dps):
        xm = mp.mpf(x)
        h = xm + mp.mpf(1) / 2
        f0 = mp.loggamma(xm + 1) - (mp.log(2 * mp.pi) / 2 + h * (mp.log(h) - 1))
        refs = []
        for r in _ALL_ROWS:
            # the constants at 2 dps + 20 digits, their intervals' midpoints
            d, lam, c_lo, c_hi = bounds._row_shape(r, ref_cfg)
            target = f0 + 1 / (d * (xm + lam))
            refs += [target - specfun._fixed_mpf(c, ref_wl) for c in (c_lo,) if c is not None]
            refs += [specfun._fixed_mpf(c, ref_wl) - target for c in (c_hi,) if c is not None]
        for (i, lo, hi), ref in zip(margins, refs):
            assert mp.ldexp(lo, -wp) <= ref <= mp.ldexp(hi, -wp), (x, digits, i, ref, lo, hi)


@given(x=st.floats(math.log(1e-3), math.log(1e6)).map(math.exp),
       lam=st.sampled_from([0.0, 0.25, 0.5, 0.6, 1.0, 1.5, 2.0, 5.0]),
       sign=st.sampled_from(["plus", "minus"]), digits=st.sampled_from([15, 30]))
@example(x=0.01, lam=1.0, sign="plus", digits=15)  # the falsified order-6 margin of -552
@example(x=100.0, lam=0.5, sign="plus", digits=15)  # lambda = 1/2's smallest margins
@settings(max_examples=40, deadline=None)
def test_cm_row_margins_within_their_error_of_a_reference(x, lam, sign, digits):
    # the rows of a complete-monotonicity sweep, orders 0..6: each margin
    # s (-1)^k H_lambda^(k)(x) lies within its stated error of a 2 dps +
    # 20-digit reference
    cfg = PrecisionConfig(working_digits=digits)
    rows = monotone._cm_rows(lam, sign, 6, cfg)
    [(at, wp, margins)] = monotone._row_margins(rows, cfg, [mp.mpf(x)])
    assert at == x
    assert [i for i, _, _ in margins] == list(range(7))
    s = 1 if sign == "plus" else -1
    with mp.workdps(2 * cfg.dps + 20):
        for k, lo, hi in margins:  # row k is of order k
            h = free_part(k, x) + (-1) ** k * mp.factorial(k) / (24 * (mp.mpf(x) + lam) ** (k + 1))
            ref = s * (-1) ** k * h
            assert mp.ldexp(lo, -wp) <= ref <= mp.ldexp(hi, -wp), (x, lam, sign, digits, k)


def _phi80(t, lam):
    """phi_lambda(t) from the direct form at 80 digits."""
    with mp.workdps(80):
        tm = mp.mpf(t)
        return mp.exp(-tm / 2) / tm - 1 / mp.expm1(tm) - tm * mp.exp(-lam * tm) / 24


@given(lo=st.floats(2.0, 20.0), width=st.floats(1e-6, 18.0),
       lam=st.sampled_from([0.0, 0.5, 0.6518498903412566, 1.5, 3.0]),
       digits=st.sampled_from([15, 30]))
@example(lo=12.2, width=0.0703125, lam=0.6518498903412566, digits=15)
@example(lo=2.0, width=18.0, lam=3.0, digits=30)
@settings(max_examples=60, deadline=None)
def test_centred_form_encloses_phi_on_its_box(lo, width, lam, digits):
    # phi_lambda at the box's ends and midpoint, from the direct form at 80
    # digits, lies in the second-order enclosure of the whole box
    hi = min(lo + width, 20.0)
    mid = (lo + hi) / 2
    wp, lr = specfun._constants(PrecisionConfig(working_digits=digits)).wl, monotone._ratio(lam)
    wc = monotone._centred_prec(wp, lr)
    mid_exps = monotone._point_exps(mid.as_integer_ratio(), lr, wc)
    enc = oracles.iv_of(monotone._phi_centred((lo, hi), mid_exps, lr, wc, {}), wc)
    with mp.workdps(80):
        for t in (lo, mid, hi):
            tm = mp.mpf(t)
            phi = mp.exp(-tm / 2) / tm - 1 / mp.expm1(tm) - tm * mp.exp(-lam * tm) / 24
            assert mp.mpf(enc.a) <= phi <= mp.mpf(enc.b), (lo, hi, lam, digits, t)


_LAMBDAS = [0.0, 0.5, 0.6518498903412566 + 1e-8, 1.5, 3.0]
_FEW_UNITS = 8  # of 2^-wp: how much wider an integer enclosure may be


@given(lo=st.floats(2.0, 20.0), width=st.floats(1e-6, 18.0), lam=st.sampled_from(_LAMBDAS),
       digits=st.sampled_from([15, 30, 60]))
@example(lo=12.2, width=0.0703125, lam=0.6518498903412566 + 1e-8, digits=15)
@example(lo=2.0, width=18.0, lam=3.0, digits=60)
@settings(max_examples=60, deadline=None)
def test_box_enclosures_hold_phi_and_match_their_references(lo, width, lam, digits):
    # each integer enclosure of the certificate, on a box within [2, 20] and
    # on the box scaled into (0, 2], holds phi_lambda (phi/t^p on (0, 2]) at
    # the box's ends and midpoint from the direct form at 80 digits, and is
    # at most a few units of 2^-wp wider than its libmp-pair reference in
    # tests/oracles.py
    hi = min(lo + width, 20.0)
    cfg = PrecisionConfig(working_digits=digits)
    wp, lr = specfun._constants(cfg).wl, monotone._ratio(lam)
    with oracles.iv_dps(cfg.dps):
        prec = iv.prec
        x, m, lm = iv.mpf([lo, hi]), iv.mpf((lo + hi) / 2), iv.mpf(lam)
        ref = iv.make_mpf(oracles.phi_centred_mpi(x._mpi_, m._mpi_, lm._mpi_, prec))
        coeffs, rem = oracles.phi_series_iv(lam, prec)
        x = iv.mpf([lo / 10, hi / 10])
        ref_taylor = iv.make_mpf(oracles.phi_horner_mpi(x._mpi_, tuple(c._mpi_ for c in coeffs),
                                                        rem._mpi_, prec))
    mid, wc = (lo + hi) / 2, monotone._centred_prec(wp, lr)
    enc = monotone._phi_centred((lo, hi), monotone._point_exps(mid.as_integer_ratio(), lr, wc), lr, wc, {})
    enc = (enc[0] >> wc - wp, -(-enc[1] >> wc - wp))  # at the certificate's finer scale, then at wp
    coeffs, rem = monotone._phi_series(lam, wp)
    y = (math.floor(math.ldexp(lo / 10, wp - 1)), math.ceil(math.ldexp(hi / 10, wp - 1)))
    enc_taylor = monotone._phi_horner(y, coeffs, rem, wp)
    p = 3 if lam == 0.5 else 2
    with mp.workdps(80):
        unit = mp.ldexp(1, -wp)
        for (elo, ehi), r, ts, power in ((enc, ref, (lo, mid, hi), 0),
                                         (enc_taylor, ref_taylor, (lo / 10, hi / 10), p)):
            for t in ts:
                v = _phi80(t, lam) / mp.mpf(t) ** power
                assert mp.ldexp(elo, -wp) <= v <= mp.ldexp(ehi, -wp), (lo, hi, lam, digits, t)
            width = mp.ldexp(ehi - elo, -wp)
            assert width <= mp.mpf(r.b) - mp.mpf(r.a) + _FEW_UNITS * unit, (lo, hi, lam, digits)


@given(x=st.floats(1e-3, 200.0), lam=st.sampled_from(_LAMBDAS), digits=st.sampled_from([15, 30, 60]))
@example(x=1e-3, lam=0.0, digits=60)
@example(x=200.0, lam=3.0, digits=15)
@example(x=22.5, lam=0.5, digits=30)  # near the switch of the moments' recursion
@settings(max_examples=30, deadline=None)
def test_laplace_enclosure_holds_h_prime_and_matches_its_reference(x, lam, digits):
    # the integer enclosure of Q(x, lambda) = H_lambda'(x) holds the closed
    # form from mpmath's digamma at 80 digits, and is at most a few units of
    # 2^-wp wider than the mpmath.iv reference of tests/oracles.py
    cfg = PrecisionConfig(working_digits=digits)
    wp = specfun._constants(cfg).wl
    lo, hi = monotone._laplace_fixed(x, lam, cfg)
    ref = oracles.laplace_enclosure_iv(x, lam, cfg)
    with mp.workdps(80):
        xm = mp.mpf(x)
        h1 = mp.digamma(xm + 1) - mp.log(xm + mp.mpf(1) / 2) - 1 / (24 * (xm + lam) ** 2)
        assert mp.ldexp(lo, -wp) <= h1 <= mp.ldexp(hi, -wp), (x, lam, digits)
        width = mp.mpf(ref.b) - mp.mpf(ref.a)
        assert mp.ldexp(hi - lo, -wp) <= width + _FEW_UNITS * mp.ldexp(1, -wp), (x, lam, digits)


@given(x=st.floats(1e-3, 700.0), digits=st.sampled_from([15, 30, 60]))
@example(x=1e-3, digits=15)  # Eq. (4.1)'s smallest margin on the default grid
@example(x=700.0, digits=15)  # Eq. (4.2)'s lower margin is 6.9e-302 here
@settings(max_examples=40, deadline=None)
def test_remark1_intervals_hold_their_margins(x, digits):
    # each integer interval of _remark1_margins, in units of 2^(-2 wp), holds
    # its margin from mpmath at 100 digits past that unit
    prec = libmp.dps_to_prec(PrecisionConfig(working_digits=digits).dps)
    wp, intervals = harness._remark1_margins(x, prec, harness._EQ41_DENOMINATORS)
    with mp.workprec(2 * wp + 333):
        xm = mp.mpf(x)
        u, xb = mp.exp(-xm / 2), xm / mp.expm1(xm)
        margins = (xb - (u - xm ** 2 * u / 24), (u - xm ** 2 * u ** 3 / 24) - xb, xb - u ** 2, u - xb)
        for i, ((lo, hi), margin) in enumerate(zip(intervals, margins)):
            assert lo <= mp.ldexp(margin, 2 * wp) <= hi, (x, digits, i)
