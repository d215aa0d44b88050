"""Tests for the verification harness: suite wiring, report determinism,
serialization round-trips, and CLI exit codes."""

import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from mpmath import mp

from gammacert import DEFAULT_CONFIG, ParameterError, PrecisionConfig, SpecialValue
from gammacert import bounds, cli, harness, monotone, specfun
from gammacert.bounds import BoundFamily, FamilyId
from gammacert.harness import GridSpec, VerificationReport


def normalize(reports):
    return [dataclasses.replace(r, runtime_ms=0) for r in reports]


class TestGridSpec:
    def test_rejects_non_finite_ends(self):
        for lo, hi, spacing in [(1.0, math.inf, "log"), (-math.inf, 1.0, "linear"),
                                (math.nan, 1.0, "linear"), (0.0, math.nan, "linear")]:
            with pytest.raises(ParameterError):
                GridSpec(lo, hi, 3, spacing)

    def test_values_linear(self):
        g = GridSpec(0.0, 1.0, 5, "linear")
        assert g.values() == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])

    def test_values_log_endpoints(self):
        g = GridSpec(1e-2, 100.0, 9, "log")
        vals = g.values()
        assert vals[0] == pytest.approx(1e-2)
        assert vals[-1] == pytest.approx(100.0)
        ratios = [vals[i + 1] / vals[i] for i in range(8)]
        assert max(ratios) == pytest.approx(min(ratios))

    def test_log_values_stay_finite_where_hi_over_lo_overflows(self):
        g = GridSpec(1e-300, 1e15, 400, "log")
        assert g.hi / g.lo == math.inf
        vals = g.values()
        assert len(vals) == 400 and vals[0] == 1e-300 and vals[-1] == 1e15
        assert all(0 < v < math.inf for v in vals)
        assert all(a < b for a, b in zip(vals, vals[1:]))
        ratios = [b / a for a, b in zip(vals, vals[1:])]
        assert max(ratios) == pytest.approx(min(ratios), rel=1e-12)

    def test_verify_takes_a_grid_whose_span_overflows(self, capsys):
        # before, the grid held inf points and verify exited 2
        assert cli.main(["verify", "--suite", "thm3.1", "--grid", "1e-300:1e15:400:log"]) != 2
        reps = harness.parse_reports(capsys.readouterr().out, "json")
        assert reps[0].grid == GridSpec(1e-300, 1e15, 400, "log")

    @pytest.mark.parametrize("grid", sorted({c.grid for c in harness.REGISTRY if c.grid.spacing == "log"},
                                            key=repr) + [GridSpec(1.1e-3, 100.0, 4000, "log")],
                             ids=repr)
    def test_log_values_unchanged_where_hi_over_lo_is_finite(self, grid):
        ratio = (grid.hi / grid.lo) ** (1.0 / (grid.points - 1))
        assert grid.values() == [grid.lo * ratio ** i for i in range(grid.points)]

    def test_validation(self):
        with pytest.raises(ParameterError):
            GridSpec(1.0, 1.0, 5, "linear")
        with pytest.raises(ParameterError):
            GridSpec(0.0, 1.0, 5, "log")
        with pytest.raises(ParameterError):
            GridSpec(0.0, 1.0, 1, "linear")
        with pytest.raises(ParameterError):
            GridSpec(0.0, 1.0, 5, "geometric")

    # points closer than the float spacing: 5e-324 repeats at the subnormal
    # end; the linear grid repeats points; the log ratio rounds to 1, so
    # every point is 1.0 and hi is never reached
    _TOO_FINE = [(5e-324, 1.7976931348623157e308, 4000, "log"),
                 (1.0, 1.0000000000000004, 10, "linear"),
                 (1.0, 1.0000000000000004, 10, "log")]

    @pytest.mark.parametrize("lo,hi,points,spacing", _TOO_FINE)
    def test_values_finer_than_the_float_spacing_rejected(self, lo, hi, points, spacing):
        with pytest.raises(ParameterError, match="finer than the float spacing"):
            GridSpec(lo, hi, points, spacing).values()

    @pytest.mark.parametrize("lo,hi,points,spacing", _TOO_FINE)
    def test_verify_exits_two_on_a_grid_finer_than_the_float_spacing(self, lo, hi, points, spacing, capsys):
        text = f"{lo!r}:{hi!r}:{points}:{spacing[:3]}"
        assert cli.main(["verify", "--suite", "thm3.1", "--grid", text]) == 2
        assert "finer than the float spacing" in capsys.readouterr().err

    def test_values_just_coarser_than_the_float_spacing_accepted(self):
        # 1 + k ulp for k = 0..4: the finest grids that stay strictly increasing
        for spacing in ("linear", "log"):
            vals = GridSpec(1.0, 1.0000000000000009, 5, spacing).values()
            assert vals == [1.0 + k * math.ulp(1.0) for k in range(5)], spacing


class TestRegistry:
    def test_suite_ids_cover_registry(self):
        for claim in harness.REGISTRY:
            assert all(s in harness.SUITE_IDS for s in claim.suites)

    def test_claim_ids_unique(self):
        ids = [c.claim_id for c in harness.REGISTRY]
        assert len(ids) == len(set(ids))

    def test_unknown_suite_rejected(self):
        with pytest.raises(Exception):
            harness.claims_for_suite("nope")

    def test_all_is_union(self):
        assert harness.claims_for_suite("all") == list(harness.REGISTRY)

    def test_phi_claims_rest_on_the_certificate(self, monkeypatch):
        calls = []
        certificate = monotone.phi_sign_certificate

        def recording(lam, sign, cfg):
            calls.append((lam, sign))
            return certificate(lam, sign, cfg)

        monkeypatch.setattr(monotone, "phi_sign_certificate", recording)
        other = GridSpec(1.0, 2.0, 2, "linear")
        for cid, lam, sign in (("thm2.1-phi-nonpositive-lam0.5", 0.5, -1),
                               ("thm2.1-phi-nonnegative-lam1.5", 1.5, 1)):
            claim = _claim(cid)
            assert not claim.grid_overridable and claim.grid == harness._PHI_GRID
            assert harness._run_claim(claim, DEFAULT_CONFIG, claim.grid).verdict == "verified"
            assert calls.pop() == (lam, sign)
        reports = harness.run_suite("thm2.1", grid_override=other)
        assert {r.claim_id: r.grid for r in reports}["thm2.1-phi-nonpositive-lam0.5"] == harness._PHI_GRID

    def test_threshold_claim_margins_are_the_bracket(self):
        rep = harness._run_claim(_claim("thm2.1-threshold"), DEFAULT_CONFIG, harness._PHI_GRID)
        lo, hi = monotone.lambda_star(1e-8).bracket
        assert rep.verdict == "verified"
        assert rep.min_margin == min(lo - 0.5, 1.5 - hi) == lo - 0.5


class TestRunSuite:
    def test_thm34_expected_verdicts(self):
        reports = harness.run_suite("thm3.4")
        assert [r.claim_id for r in reports] == [
            "thm3.4-eq3.12-corrected",
            "thm3.4-eq3.13-corrected",
            "eq3.12-as-printed",
            "eq3.13-as-printed",
        ]
        assert [r.verdict for r in reports] == [
            "verified", "verified", "falsified", "falsified",
        ]
        assert harness.exit_code(reports) == 0

    def test_exit_code_one_on_mismatch(self):
        reports = harness.run_suite("remark1")
        bad = [dataclasses.replace(reports[0], verdict="falsified")] + reports[1:]
        assert harness.exit_code(reports) == 0
        assert harness.exit_code(bad) == 1

    def test_deterministic_modulo_runtime(self):
        a = normalize(harness.run_suite("thm3.4"))
        b = normalize(harness.run_suite("thm3.4"))
        assert harness.render_reports(a, "json") == harness.render_reports(b, "json")
        assert harness.render_reports(a, "csv") == harness.render_reports(b, "csv")

    def test_precision_stability(self):
        # verdicts must not flip between working precisions
        lo = harness.run_suite("thm3.4", DEFAULT_CONFIG)
        hi = harness.run_suite("thm3.4", PrecisionConfig(working_digits=30))
        assert [r.verdict for r in lo] == [r.verdict for r in hi]

    def test_grid_override_applies_to_sweeps(self):
        g = GridSpec(0.5, 5.0, 4, "log")
        reports = harness.run_suite("remark1", grid_override=g)
        by_id = {r.claim_id: r for r in reports}
        assert by_id["remark1-eq4.1-containment"].grid == g
        # point-style claims keep their registered grid
        assert by_id["remark1-mathieu-partial"].grid != g


@pytest.fixture(scope="module")
def reports():
    return harness.run_suite("remark1")


class TestSerialization:

    def test_json_round_trip(self, reports):
        text = harness.render_reports(reports, "json")
        back = harness.parse_reports(text, "json")
        assert back == list(reports)
        assert harness.render_reports(back, "json") == text

    def test_csv_round_trip(self, reports):
        text = harness.render_reports(reports, "csv")
        back = harness.parse_reports(text, "csv")
        assert back == list(reports)
        assert harness.render_reports(back, "csv") == text

    def test_csv_header(self, reports):
        text = harness.render_reports(reports, "csv")
        assert text.splitlines()[0] == ",".join(harness.CSV_HEADER)

    def test_json_key_order(self, reports):
        text = harness.render_reports(reports, "json")
        first = text.splitlines()[1]
        pos = [first.find(f'"{k}"') for k in
               ("claim_id", "grid", "min_margin", "argmin_x", "verdict",
                "precision_digits", "runtime_ms")]
        assert all(p >= 0 for p in pos)
        assert pos == sorted(pos)

    def test_emit_report(self, reports, tmp_path):
        path = tmp_path / "out.json"
        harness.emit_report(reports, "json", str(path))
        assert harness.parse_reports(path.read_text(), "json") == list(reports)

    def test_unknown_format(self, reports):
        with pytest.raises(ParameterError):
            harness.render_reports(reports, "xml")

    @pytest.mark.parametrize("text", [
        "",
        "claim,lo\n",
        "claim,lo\nx,1\n",
        ",".join(harness.CSV_HEADER) + "\nx,1,2\n",
    ], ids=["empty", "wrong-header-only", "wrong-header", "short-row"])
    def test_malformed_csv_rejected(self, text):
        with pytest.raises(ParameterError):
            harness.parse_reports(text, "csv")

    @pytest.mark.parametrize("text", ['{"a": 1}', "[1]", '[{"claim_id": "x"}, 2]', '"x"'],
                             ids=["object", "list-of-int", "mixed-list", "string"])
    def test_json_not_a_list_of_objects_rejected(self, text):
        with pytest.raises(ParameterError):
            harness.parse_reports(text, "json")

    @pytest.mark.parametrize("key", [None, "verdict", "runtime_ms", "grid", "grid.points"])
    def test_json_report_missing_key_rejected(self, reports, key):
        objs = json.loads(harness.render_reports(reports, "json"))
        if key is None:
            objs = [{}]
        elif key.startswith("grid."):
            del objs[0]["grid"][key[5:]]
        else:
            del objs[0][key]
        with pytest.raises(ParameterError):
            harness.parse_reports(json.dumps(objs), "json")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_unknown_verdict_rejected(self, reports, fmt):
        text = harness.render_reports(reports, fmt)
        bogus = text.replace('"verified"', '"bogus"', 1) if fmt == "json" else text.replace(",verified,", ",bogus,", 1)
        assert bogus != text
        with pytest.raises(ParameterError):
            harness.parse_reports(bogus, fmt)

    @pytest.mark.parametrize("key, value", [
        ("claim_id", 5), ("grid.spacing", None), ("verdict", True),
        ("grid.points", 2.7), ("grid.points", None), ("grid.points", True), ("grid.points", "5"),
        ("precision_digits", 15.0), ("runtime_ms", True), ("runtime_ms", None),
        ("grid.lo", True), ("grid.hi", "100"), ("min_margin", "abc"), ("min_margin", None),
        ("argmin_x", False), ("argmin_x", [1.0]),
    ])
    def test_json_field_of_wrong_type_rejected(self, reports, key, value):
        # str fields take a str, int fields an int (not a bool, not a float),
        # float fields any number but a bool
        objs = json.loads(harness.render_reports(reports, "json"))
        if key.startswith("grid."):
            objs[0]["grid"][key[5:]] = value
        else:
            objs[0][key] = value
        with pytest.raises(ParameterError):
            harness.parse_reports(json.dumps(objs), "json")

    def test_json_int_where_a_float_is_expected_parses(self, reports):
        objs = json.loads(harness.render_reports(reports, "json"))
        objs[0]["min_margin"], objs[0]["grid"]["lo"] = 0, 1
        back = harness.parse_reports(json.dumps(objs), "json")[0]
        assert back.min_margin == 0.0 and back.grid.lo == 1.0
        assert isinstance(back.min_margin, float) and isinstance(back.grid.lo, float)

    @pytest.mark.parametrize("field, text", [
        ("points", "2.7"), ("points", ""), ("precision_digits", "15.0"), ("runtime_ms", "True"),
        ("lo", "abc"), ("min_margin", "abc"), ("argmin_x", ""),
    ])
    def test_csv_field_that_does_not_parse_rejected(self, reports, field, text):
        rows = list(csv.reader(io.StringIO(harness.render_reports(reports, "csv"))))
        rows[1][harness.CSV_HEADER.index(field)] = text
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        with pytest.raises(ParameterError):
            harness.parse_reports(buf.getvalue(), "csv")

    def test_malformed_csv_rejected_under_optimize(self):
        # the header check must not be an assert that -O strips
        code = (
            "from gammacert import ParameterError, harness\n"
            "for text in ('', 'claim,lo\\n', 'claim,lo\\nx,1\\n'):\n"
            "    try:\n"
            "        harness.parse_reports(text, 'csv')\n"
            "    except ParameterError:\n"
            "        continue\n"
            "    raise SystemExit(f'accepted {text!r}')\n"
        )
        src = os.path.dirname(os.path.dirname(harness.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr + proc.stdout


def test_cli_import_leaves_numpy_unloaded():
    # numpy serves only the Thm 3.2 harmonic sweeps and is imported there
    code = "import sys, gammacert.cli\nraise SystemExit('numpy' in sys.modules)\n"
    src = os.path.dirname(os.path.dirname(harness.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr + proc.stdout


def test_verify_all_runs_without_numpy():
    # sys.modules['numpy'] = None makes every numpy import fail
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from gammacert import cli\n"
        "raise SystemExit(cli.main(['verify', '--suite', 'all']))\n"
    )
    src = os.path.dirname(os.path.dirname(harness.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]


def _claim(claim_id):
    return next(c for c in harness.REGISTRY if c.claim_id == claim_id)


class TestContainment:
    def test_gamma_target_is_ln_gamma_of_exact_x_plus_1(self, monkeypatch):
        # x must not be rounded to float64 before the certified evaluation of
        # F_0(x) = ln Gamma(x+1) - p(x), which the rows read
        cfg = PrecisionConfig(working_digits=30)
        seen = []
        defect = specfun._stirling_defect_fixed

        def recording_defect(x, cfg):
            seen.append((x, defect(x, cfg)))
            return seen[-1][1]

        monkeypatch.setattr(harness.specfun, "_stirling_defect_fixed", recording_defect)
        harness._row_pass.cache_clear()  # a cached pass would make no call
        claim = _claim("thm3.1-eq3.1-containment")
        assert harness._run_claim(claim, cfg, claim.grid).verdict == "verified"
        xs = harness._GAMMA_GRID.values()[:50]
        assert len(seen) >= 50
        with mp.workdps(60):
            for x, (xm, (fixed, wp, err)) in zip(xs, seen):
                assert xm == x and isinstance(xm, mp.mpf)
                h = mp.mpf(x) + mp.mpf(1) / 2
                ref = mp.loggamma(mp.mpf(x) + 1) - (mp.log(2 * mp.pi) / 2 + h * (mp.log(h) - 1))
                assert abs(mp.ldexp(fixed, -wp) - ref) <= err, x

    @pytest.mark.parametrize("digits", [15, 30])
    def test_verified_harmonic_claims_have_no_float_margin(self, digits):
        cfg = PrecisionConfig(working_digits=digits)
        for cid in ("thm3.2-eq3.7", "thm3.2-eq3.8-corrected"):
            rep = harness._run_claim(_claim(cid), cfg, harness._HARMONIC_GRID)
            assert rep.verdict == "verified", cid
            assert rep.precision_digits == digits
            assert abs(rep.min_margin) < 1e-20, (cid, rep.min_margin)

    @pytest.mark.parametrize("digits", [15, 30])
    def test_eq38_constant_tightened_by_1e13_is_falsified(self, digits):
        cfg = PrecisionConfig(working_digits=digits)
        c = bounds.CORRECTED_HARMONIC_CONSTANT + Fraction(1, 10 ** 13)
        runner = harness._run_containment(harness._harmonic_cases, BoundFamily(FamilyId.HARMONIC_HIGH),
                                          c, allow_equality=True)
        margin, at, verdict = runner(cfg, harness._HARMONIC_GRID)
        assert verdict == "falsified"
        assert at == 1.0 and margin == pytest.approx(-1e-13, rel=1e-9)

    @pytest.mark.parametrize("digits", [15, 30])
    def test_eq37_lower_constant_tightened_by_1e13_is_falsified(self, digits, monkeypatch):
        cfg = PrecisionConfig(working_digits=digits)
        constants = bounds._harmonic_constants

        def tightened(family, constant, cfg):
            c_lo, c_hi, gamma_c = constants(family, constant, cfg)
            with mp.workdps(cfg.dps):
                return c_lo + mp.mpf("1e-13"), c_hi, gamma_c

        monkeypatch.setattr(bounds, "_harmonic_constants", tightened)
        claim = _claim("thm3.2-eq3.7")
        rep = harness._run_claim(claim, cfg, claim.grid)
        assert rep.verdict == "falsified"
        assert rep.argmin_x == 1.0 and rep.min_margin == pytest.approx(-1e-13, rel=1e-9)

    @pytest.mark.parametrize("digits", [15, 30])
    def test_eq312_upper_constant_lowered_by_1e13_is_falsified(self, digits, monkeypatch):
        # c_hi of FactorialHigh is H_{1/2}(1), which the bound attains at n = 1
        cfg = PrecisionConfig(working_digits=digits)
        row = bounds._row

        def lowered(family, cfg):
            lam, c_lo, c_hi = row(family, cfg)
            if family.id is FamilyId.FACTORIAL_HIGH:
                with mp.workdps(cfg.dps):
                    c_hi -= mp.mpf("1e-13")
            return lam, c_lo, c_hi

        monkeypatch.setattr(bounds, "_row", lowered)
        claim = _claim("thm3.4-eq3.12-corrected")
        rep = harness._run_claim(claim, cfg, claim.grid)
        assert rep.verdict == "falsified"
        assert rep.argmin_x == 1.0 and rep.min_margin == pytest.approx(-1e-13, rel=1e-9)

    @pytest.mark.parametrize("digits", [15, 30])
    def test_eq31_lower_constant_above_H_at_100_is_falsified(self, digits, monkeypatch):
        # c_lo of QiGammaLow is 0; 2.4e-9 exceeds H_{1/2}(100) = 2.3944e-9
        cfg = PrecisionConfig(working_digits=digits)
        row = bounds._row

        def raised(family, cfg):
            lam, c_lo, c_hi = row(family, cfg)
            if family.id is FamilyId.QI_GAMMA_LOW:
                with mp.workdps(cfg.dps):
                    c_lo = mp.mpf("2.4e-9")
            return lam, c_lo, c_hi

        monkeypatch.setattr(bounds, "_row", raised)
        claim = _claim("thm3.1-eq3.1-containment")
        rep = harness._run_claim(claim, cfg, claim.grid)
        x = harness._GAMMA_GRID.values()[-1]
        assert rep.verdict == "falsified"
        assert rep.argmin_x == x == pytest.approx(100.0, rel=1e-12)
        with mp.workdps(60):
            xm = mp.mpf(x)
            h = (mp.loggamma(xm + 1) - mp.log(2 * mp.pi) / 2 - (xm + 0.5) * (mp.log(xm + 0.5) - 1)
                 + 1 / (24 * (xm + 0.5)))
            assert abs(rep.min_margin - (h - mp.mpf("2.4e-9"))) < 1e-18

    def test_harmonic_check_reaches_past_the_grid(self):
        # exact H_1, then the tail lemma, which covers every n >= 2
        cfg = DEFAULT_CONFIG
        family = BoundFamily(FamilyId.HARMONIC_HIGH)
        cases = list(harness._harmonic_cases(family, bounds.CORRECTED_HARMONIC_CONSTANT,
                                             cfg, harness._HARMONIC_GRID))
        assert [c[0] for c in cases] == [1, 2]
        assert cases[0][1] == SpecialValue(1, 0.0)
        assert cases[0][2:] == bounds.harmonic_bound(family, 1, cfg)
        assert cases[-1][1:] == bounds.harmonic_tail(family, 1, cfg)


class TestRetry:
    def test_run_claim_retries_indeterminate_once(self):
        calls = []

        def runner(cfg, grid):
            calls.append(cfg.working_digits)
            verdict = "verified" if cfg.working_digits > 15 else "indeterminate"
            return 1.0, 2.0, verdict

        grid = GridSpec(1.0, 2.0, 2, "linear")
        claim = harness.Claim("stub", ("all",), "verified", grid, runner)
        rep = harness._run_claim(claim, DEFAULT_CONFIG, grid)
        assert calls == [15, 30]
        assert rep.verdict == "verified"
        assert rep.precision_digits == 30


class TestSharedWork:
    def test_laplace_residuals_match_direct_quadrature(self, monkeypatch):
        quads = []
        quad = mp.quad

        def counting_quad(*args, **kwargs):
            quads.append(1)
            return quad(*args, **kwargs)

        monkeypatch.setattr(mp, "quad", counting_quad)
        residuals = harness._laplace_residuals(DEFAULT_CONFIG)
        assert len(quads) == 5
        assert [x for x, _ in residuals] == list(harness._LAPLACE_XS)
        # lambda cancels from Q(x, lambda) - H_lambda'(x), so one residual
        # per x stands for every lambda
        for x, res in residuals:
            for lam in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0):
                assert abs(res - monotone.laplace_check(x, lam, DEFAULT_CONFIG)) <= 1e-20, (x, lam)

    def test_laplace_memo_equals_uncached_path(self, monkeypatch):
        calls = []
        phi_integrand = monotone.phi_integrand

        def counting_phi(t, lam):
            calls.append(lam)
            return phi_integrand(t, lam)

        monkeypatch.setattr(monotone, "phi_integrand", counting_phi)
        shared = harness._laplace_residuals(DEFAULT_CONFIG)
        assert 0 < len(calls) <= 756
        shared_calls = len(calls)

        quad = monotone._laplace_quad
        monkeypatch.setattr(monotone, "_laplace_quad",
                            lambda x, lam, cfg, phi=None: quad(x, lam, cfg))
        calls.clear()
        assert harness._laplace_residuals(DEFAULT_CONFIG) == shared
        assert len(calls) > 2 * shared_calls

    def test_factorial_sweeps_alone_equal_suite(self, monkeypatch):
        calls = self._count_defect(monkeypatch)
        stirling_calls = []
        stirling_log = specfun._stirling_log

        def counting_stirling_log(xm, cfg):
            stirling_calls.append(xm)
            return stirling_log(xm, cfg)

        monkeypatch.setattr(specfun, "_stirling_log", counting_stirling_log)
        harness._row_pass.cache_clear()
        suite = {r.claim_id: dataclasses.replace(r, runtime_ms=0) for r in harness.run_suite("thm3.4")}
        # one F_0(n) per n serves all four claims
        assert sorted(x for x, _ in calls) == list(range(1, 171))
        # no p(n) per n: at most H_lambda(1) of the two corrected rows
        assert len(stirling_calls) <= 2
        for claim in harness.claims_for_suite("thm3.4"):
            harness._row_pass.cache_clear()
            alone = harness._run_claim(claim, DEFAULT_CONFIG, claim.grid)
            assert dataclasses.replace(alone, runtime_ms=0) == suite[claim.claim_id]

    def test_thm34_pass_makes_no_stirling_log_call_per_n(self, monkeypatch):
        # the printed sides compare F_0(n) with the printed bound less p(n),
        # so p(n) is formed for no n; the two calls are the row constants
        # H_lambda(1) of the corrected Eqs. (3.12), (3.13)
        stirling_calls = []
        stirling_log = specfun._stirling_log

        def counting_stirling_log(xm, cfg):
            stirling_calls.append(xm)
            return stirling_log(xm, cfg)

        monkeypatch.setattr(specfun, "_stirling_log", counting_stirling_log)
        harness._row_pass.cache_clear()
        bounds._row.cache_clear()
        reports = harness.run_suite("thm3.4")
        assert harness.exit_code(reports) == 0
        assert stirling_calls == [1, 1]

    @staticmethod
    def _count_defect(monkeypatch) -> list:
        calls = []  # (x, working digits) of each F_0 kernel call
        defect = specfun._stirling_defect_fixed

        def counting_defect(x, cfg):
            calls.append((x, cfg.working_digits))
            return defect(x, cfg)

        monkeypatch.setattr(specfun, "_stirling_defect_fixed", counting_defect)
        return calls

    @pytest.mark.parametrize("grid", [None, GridSpec(1.1e-3, 100.0, 4000, "log")],
                             ids=["default-grid", "dense-grid"])
    def test_thm31_rows_share_one_ln_gamma_per_point(self, grid, monkeypatch):
        calls = self._count_defect(monkeypatch)
        stirling_calls = []
        stirling_log = specfun._stirling_log

        def counting_stirling_log(xm, cfg):
            stirling_calls.append(xm)
            return stirling_log(xm, cfg)

        monkeypatch.setattr(specfun, "_stirling_log", counting_stirling_log)
        harness._row_pass.cache_clear()
        reports = harness.run_suite("thm3.1", grid_override=grid)
        assert [r.verdict for r in reports] == [c.expected for c in harness.claims_for_suite("thm3.1")]
        g = grid or harness._GAMMA_GRID
        assert reports[0].grid == reports[1].grid == g
        # the two rows: one F_0(x) = ln Gamma(x+1) - p(x) per grid point, at exact x
        with mp.workdps(DEFAULT_CONFIG.dps):
            assert [x for x, _ in calls[:g.points]] == [mp.mpf(x) for x in g.values()]
        # eq1.3-best-constants: H_{1/2} at x = 1e4 and 1e-6, one call each
        assert [float(x) for x, _ in calls[g.points:]] == [1e4, 1e-6]
        # no p(x) at any grid point: F_0 never forms it (the rest are the
        # rows' H_lambda(0) and sec1)
        points = set(g.values())
        assert [x for x in stirling_calls if float(x) in points] == []

    def test_kth_root_report_is_decided_in_integers(self, monkeypatch):
        claim = _claim("kth-root-bound")
        rep = harness._run_claim(claim, DEFAULT_CONFIG, claim.grid)
        assert (rep.verdict, rep.argmin_x) == ("verified", 200.0)
        assert rep.min_margin == 1.5 - monotone.kth_root_bound(200)
        # one k whose integer gap fails turns the verdict, whatever the float root
        gap = monotone.kth_root_gap
        monkeypatch.setattr(monotone, "kth_root_gap", lambda k: -1 if k == 57 else gap(k))
        rep = harness._run_claim(claim, DEFAULT_CONFIG, claim.grid)
        assert rep.verdict != "verified"
        assert (rep.verdict, rep.argmin_x) == ("falsified", 57.0) and rep.min_margin < 0

    @pytest.mark.parametrize("suite,grid", [("thm3.1", harness._GAMMA_GRID), ("thm3.4", harness._FACTORIAL_GRID)],
                             ids=["thm3.1", "thm3.4"])
    def test_row_pass_forms_no_lambda_term_per_point(self, suite, grid, monkeypatch):
        # every row, the printed sides too, is decided in the F_0 kernel's
        # fixed point: no grid point forms H_lambda as a SpecialValue
        calls = []
        inner = monotone._plus_lambda_term

        def recording(f, k, xm, lm, cfg):
            calls.append(float(xm))
            return inner(f, k, xm, lm, cfg)

        monkeypatch.setattr(monotone, "_plus_lambda_term", recording)
        harness._row_pass.cache_clear()
        reports = harness.run_suite(suite)
        assert harness.exit_code(reports) == 0
        assert set(calls).isdisjoint(grid.values())
        # the rest is eq1.3's H_{1/2} at x = 1e4 and 1e-6, off the rows' grid
        assert calls == ([1e4, 1e-6] if suite == "thm3.1" else [])

    def test_thm31_claims_alone_equal_suite(self):
        harness._row_pass.cache_clear()
        suite = {r.claim_id: dataclasses.replace(r, runtime_ms=0) for r in harness.run_suite("thm3.1")}
        for cid in ("thm3.1-eq3.1-containment", "thm3.1-eq3.2-containment"):
            harness._row_pass.cache_clear()
            claim = _claim(cid)
            alone = harness._run_claim(claim, DEFAULT_CONFIG, claim.grid)
            assert dataclasses.replace(alone, runtime_ms=0) == suite[cid]

    def test_thm31_pass_is_not_served_stale(self, monkeypatch):
        calls = self._count_defect(monkeypatch)
        claim = _claim("thm3.1-eq3.2-containment")
        grid = GridSpec(1e-3, 100.0, 40, "log")
        harness._row_pass.cache_clear()
        first = harness._run_claim(claim, DEFAULT_CONFIG, grid)
        assert first.verdict == "verified" and len(calls) == 40
        # the same rows, precision and grid: served from the pass
        again = harness._run_claim(claim, DEFAULT_CONFIG, grid)
        assert dataclasses.replace(again, runtime_ms=0) == dataclasses.replace(first, runtime_ms=0)
        assert len(calls) == 40
        # doubled precision recomputes, at that precision
        doubled = harness._run_claim(claim, DEFAULT_CONFIG.doubled(), grid)
        assert doubled.precision_digits == 30 and len(calls) == 80
        assert {d for _, d in calls[:40]} == {15} and {d for _, d in calls[40:]} == {30}
        # a patched row recomputes: c_hi = -4.1e-6 lies below H_{3/2}(100) = -4.08e-6
        row = bounds._row

        def lowered(family, cfg):
            lam, c_lo, c_hi = row(family, cfg)
            if family.id is FamilyId.QI_GAMMA_HIGH:
                with mp.workdps(cfg.dps):
                    c_hi = mp.mpf("-4.1e-6")
            return lam, c_lo, c_hi

        monkeypatch.setattr(bounds, "_row", lowered)
        patched = harness._run_claim(claim, DEFAULT_CONFIG, grid)
        assert patched.verdict == "falsified" and patched.argmin_x == pytest.approx(100.0)
        assert len(calls) == 120

    def test_each_distinct_cm_sweep_runs_once(self, monkeypatch):
        sweeps = []
        cm_check = monotone.cm_check

        in_sweep = []

        def counting_cm_check(lam, sign, *args, **kwargs):
            sweeps.append((lam, sign))
            in_sweep.append(True)
            try:
                return cm_check(lam, sign, *args, **kwargs)
            finally:
                in_sweep.pop()

        # the 8 sweeps share one table of F_0(x) and psi^(0..5)(x+1) over the
        # 48-point grid and make no ln Gamma call of their own
        psi_calls = []
        psi = monotone.specfun._psi
        sweep_ln_gamma_calls = []
        ln_gamma = monotone.specfun.ln_gamma

        def counting_psi(mlo, mhi, x, cfg):
            if (mlo, mhi) == (0, 5):
                psi_calls.append(x)
            return psi(mlo, mhi, x, cfg)

        def counting_ln_gamma(x, cfg):
            if in_sweep:
                sweep_ln_gamma_calls.append(x)
            return ln_gamma(x, cfg)

        monkeypatch.setattr(monotone, "cm_check", counting_cm_check)
        monkeypatch.setattr(monotone.specfun, "_psi", counting_psi)
        monkeypatch.setattr(monotone.specfun, "ln_gamma", counting_ln_gamma)
        monotone._free_table.cache_clear()
        reports = harness.run_suite("all")
        assert len(sweeps) == 8
        assert len(set(sweeps)) == 8
        assert len(psi_calls) == 48 == harness._CM_GRID.points
        assert sweep_ln_gamma_calls == []
        assert harness.exit_code(reports) == 0
        by_id = {r.claim_id: r for r in reports}
        for alias, source in (("thm3.3-lcm-G-lam0.5", "thm2.1-item1-cm-lam0.5"),
                              ("thm3.3-lcm-recip-G-lam1.5", "thm2.1-item3-cm-lam1.5")):
            assert by_id[alias] == dataclasses.replace(by_id[source], claim_id=alias, runtime_ms=0)

        sweeps.clear()
        reports = harness.run_suite("thm3.3")
        assert sorted(sweeps) == [(0.5, "plus"), (1.5, "minus")]
        assert [r.claim_id for r in reports] == ["thm3.3-lcm-G-lam0.5", "thm3.3-lcm-recip-G-lam1.5"]
        assert [r.verdict for r in reports] == ["verified", "verified"]


class TestCLI:
    def test_verify_ok(self, tmp_path, capsys):
        out = tmp_path / "rep.csv"
        code = cli.main(["verify", "--suite", "thm3.4", "--format", "csv",
                         "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("claim_id,")

    def test_verify_stdout_json(self, capsys):
        code = cli.main(["verify", "--suite", "remark1"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.startswith("[\n")
        assert "remark1-mathieu-partial" in captured.out

    def test_usage_error_exit_two(self):
        assert cli.main(["verify", "--suite", "bogus"]) == 2
        assert cli.main(["verify"]) == 2
        assert cli.main([]) == 2

    def test_bad_output_path_exit_two(self):
        code = cli.main(["verify", "--suite", "thm3.4", "--out",
                         "/nonexistent-dir/rep.json"])
        assert code == 2

    def test_infinite_grid_exit_two(self, capsys):
        assert cli.main(["verify", "--suite", "thm3.1", "--grid", "1:inf:3:log"]) == 2
        assert "finite" in capsys.readouterr().err

    def test_bad_grid_exit_two(self):
        assert cli.main(["verify", "--suite", "remark1", "--grid", "1:2:3"]) == 2
        assert cli.main(["verify", "--suite", "remark1", "--grid", "1:2:9:geo"]) == 2

    def test_lambda_star_command(self, capsys):
        assert cli.main(["lambda-star", "--tol", "1e-6"]) == 0
        out = capsys.readouterr().out
        assert "lambda_star = 0.6518" in out

    def test_compare_command(self, capsys):
        assert cli.main(["compare", "--x", "2"]) == 0
        assert "BukacGamma vs SevliBatirGamma" in capsys.readouterr().out

    def test_eval_command(self, capsys):
        assert cli.main(["eval", "--family", "BukacGamma", "--x", "2"]) == 0
        out = capsys.readouterr().out
        assert "lower" in out and "upper" in out

    @pytest.mark.parametrize("family,x", [
        ("HarmonicLow", "2.7"),
        ("HarmonicHigh", "1.5"),
        ("FactorialHigh", "3.9"),
        ("FactorialAsPrinted", "inf"),
    ])
    def test_eval_rejects_non_integer_n(self, family, x, capsys):
        assert cli.main(["eval", "--family", family, "--x", x]) == 2
        assert "integer" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["eval", "--family", "QiGammaLow", "--x", "inf"],
        ["compare", "--x", "inf"],
        ["lambda-star", "--tol", "inf"],
        ["eval", "--family", "BernoulliFraction", "--x", "inf"],
    ], ids=["eval-gamma", "compare", "lambda-star", "eval-bernoulli"])
    def test_infinite_input_exit_two(self, argv, capsys):
        assert cli.main(argv) == 2
        assert "positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("family,x", [
        ("QiGammaLow", 1000),
        ("QiGammaHigh", 1000),
        ("FactorialHigh", 200),
        ("FactorialLow", 200),
    ])
    def test_eval_past_float_range_is_finite(self, family, x, capsys):
        # Gamma(1001) and 200! exceed the float range; the printed bounds stay finite
        assert cli.main(["eval", "--family", family, "--x", str(x)]) == 0
        printed = dict(line.replace(" ", "").split("=") for line in capsys.readouterr().out.splitlines()[1:])
        fam = BoundFamily(FamilyId(family))
        logs = (bounds.factorial_bound_log(fam, x) if family.startswith("Factorial")
                else bounds.gamma_bound_log(fam, x))
        with mp.workdps(60):
            lower, upper = mp.mpf(printed["lower"]), mp.mpf(printed["upper"])
            assert mp.isfinite(lower) and mp.isfinite(upper)
            for v, lg in zip((lower, upper), logs):
                assert abs(mp.log(v) - lg) <= 1e-12 * abs(lg)
            assert mp.log(lower) < mp.loggamma(x + 1) < mp.log(upper)

    def test_eval_integer_n_accepted(self, capsys):
        assert cli.main(["eval", "--family", "HarmonicLow", "--x", "3"]) == 0
        assert cli.main(["eval", "--family", "FactorialLow", "--x", "4.0"]) == 0

    def test_eval_generic_requires_lambda(self):
        assert cli.main(["eval", "--family", "QiGammaGeneric", "--x", "2"]) == 2
        assert cli.main(["eval", "--family", "QiGammaGeneric", "--x", "2",
                         "--lam", "0.3"]) == 0

    def test_digits_env_var(self, monkeypatch, capsys):
        monkeypatch.setenv("GAMMA_CERTIFY_DIGITS", "20")
        assert cli.main(["verify", "--suite", "thm3.4"]) == 0
        out = capsys.readouterr().out
        assert '"precision_digits": 20' in out

    def test_digits_flag_beats_env(self, monkeypatch, capsys):
        monkeypatch.setenv("GAMMA_CERTIFY_DIGITS", "20")
        assert cli.main(["verify", "--suite", "thm3.4", "--digits", "25"]) == 0
        assert '"precision_digits": 25' in capsys.readouterr().out
