"""Hypothesis properties: bad input raises DomainError, reports survive a
render/parse round trip in both formats, a non-integer n exits 2,
SpecialValue accepts exactly the finite nonnegative error bounds, and the
F_0 kernel stays within its bound, which is no wider than the bound of
ln Gamma(x+1) - p(x) formed the long way."""

import contextlib
import io
import math

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp

from gammacert import DomainError, H_lambda, ParameterError, SpecialValue, digamma, ln_gamma, polygamma
from gammacert import cli, harness, specfun
from gammacert.bounds import BoundFamily, FamilyId, gamma_bound_log
from gammacert.config import FALSIFIED, INDETERMINATE, VERIFIED, PrecisionConfig
from gammacert.harness import GridSpec, VerificationReport

# nan, +-inf and every x <= 0, as floats or as mpf
_bad_float = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.floats(max_value=0.0, allow_nan=False),
)
bad_x = st.one_of(_bad_float, _bad_float.map(mp.mpf))

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
@settings(max_examples=80, deadline=None)
def test_stirling_defect_within_its_bound_and_the_long_ways(x, digits):
    cfg = PrecisionConfig(working_digits=digits)
    sv = specfun._stirling_defect(x, cfg)
    with mp.workdps(2 * cfg.dps + 20):
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
