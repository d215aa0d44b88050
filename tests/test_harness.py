"""Tests for the verification harness: suite wiring, report determinism,
serialization round-trips, and CLI exit codes."""

import csv
import dataclasses
import functools
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from mpmath import libmp, mp

from gammacert import DEFAULT_CONFIG, DomainError, ParameterError, PrecisionConfig, SpecialValue
from gammacert.config import Sweep
from gammacert import bounds, cli, config, harness, monotone, specfun
from gammacert.bounds import BoundFamily, FamilyId
from gammacert.harness import GridSpec, VerificationReport
import oracles


def normalize(reports):
    return [dataclasses.replace(r, runtime_ms=0) for r in reports]


def hook_kernel(monkeypatch, record):
    """Patch the kernel, specfun._stirling_defects, so that record(x, cfg,
    max_order, (fs, wp, errs)) sees each x it evaluates, in a pass or alone."""
    kernel = specfun._stirling_defects

    def hooked(xs, cfg, max_order=0):
        for x, a, s, fs, wp, errs in kernel(xs, cfg, max_order):
            record(x, cfg, max_order, (fs, wp, errs))
            yield x, a, s, fs, wp, errs

    monkeypatch.setattr(specfun, "_stirling_defects", hooked)


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


def _moved(c, v, cfg):
    """The interval c, at the scale wl of cfg, moved by the exact v, outward."""
    lo, hi = specfun._fixed_end(v, specfun._constants(cfg).wl)
    return c[0] + lo, c[1] + hi


def _claim(claim_id):
    return next(c for c in harness.REGISTRY if c.claim_id == claim_id)


class TestContainment:
    @pytest.mark.parametrize("digits", [60, 120])
    def test_thm31_from_1e_300_is_never_falsified(self, digits):
        # Eq. (3.1) and (3.2) hold for every x > 0.  From about 107 digits on,
        # the kernel's count once dropped its series remainder, and the retry
        # at 120 digits reported Eq. (3.2) falsified near x = 1e-139; the
        # margins tend to 0 as x -> 0+, so "indeterminate" is all a grid
        # sample can say there
        grid = GridSpec(1e-300, 1e15, 400, "log")
        reps = harness.run_suite("thm3.1", PrecisionConfig(working_digits=digits), grid)
        assert reps and all(r.verdict != "falsified" for r in reps), [(r.claim_id, r.verdict) for r in reps]

    def test_gamma_target_is_ln_gamma_of_exact_x_plus_1(self, monkeypatch):
        # x must not be rounded to float64 before the certified evaluation of
        # F_0(x) = ln Gamma(x+1) - p(x), which the rows read
        cfg = PrecisionConfig(working_digits=30)
        seen = []
        hook_kernel(monkeypatch, lambda x, cfg, max_order, out: seen.append((x, out)))
        harness._row_pass.cache_clear()  # a cached pass would make no call
        claim = _claim("thm3.1-eq3.1-containment")
        assert harness._run_claim(claim, cfg, claim.grid).verdict == "verified"
        monkeypatch.undo()
        xs = harness._GAMMA_GRID.values()[:50]
        assert len(seen) >= 50
        with mp.workdps(60):
            for x, (xm, out) in zip(xs, seen):
                # the kernel's integers at the point it was given are those
                # at the exact mpf of x
                assert xm == x and out == oracles.kernel_at(mp.mpf(x), cfg)
                [fixed], wp, [err] = out
                h = mp.mpf(x) + mp.mpf(1) / 2
                ref = mp.loggamma(mp.mpf(x) + 1) - (mp.log(2 * mp.pi) / 2 + h * (mp.log(h) - 1))
                assert abs(mp.ldexp(fixed, -wp) - ref) <= mp.ldexp(err, -wp), x

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
        margin, at, verdict = harness._run_harmonic(BoundFamily(FamilyId.HARMONIC_HIGH), c, cfg, harness._HARMONIC_GRID)
        assert verdict == "falsified"
        assert at == 1.0 and margin == pytest.approx(-1e-13, rel=1e-9)

    @pytest.mark.parametrize("digits", [15, 30])
    def test_eq37_lower_constant_tightened_by_1e13_is_falsified(self, digits, monkeypatch):
        # r = 1/54 - 1e-13 raises c_lo = 1 - ln(3/2) - r by exactly 1e-13
        cfg = PrecisionConfig(working_digits=digits)
        monkeypatch.setitem(bounds._HARMONIC, FamilyId.HARMONIC_LOW, (0, Fraction(1, 54) - Fraction(1, 10 ** 13)))
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
                c_hi = _moved(c_hi, -Fraction(1, 10 ** 13), cfg)
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
                c_lo = _moved((0, 0), Fraction(24, 10 ** 10), cfg)
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
            assert abs(rep.min_margin - (h - mp.mpf(24) / 10 ** 10)) < 1e-18

    @pytest.mark.parametrize("claim_id", ["thm3.4-eq3.12-corrected", "thm3.2-eq3.8-corrected"])
    def test_bound_false_by_1e25_at_n1_is_not_verified(self, claim_id, monkeypatch):
        # lowered by 1e-25, corrected Eq. (3.12)'s c_hi, or C = 1/150 + 1e-25 in
        # Eq. (3.8), makes the bound false at n = 1 by 1e-25.  Eq. (3.8)'s side
        # at n = 1 is exact but for its last floor, so that is a counterexample
        # at 15 digits; for the row, the kernel's bound at x = 1 (2.2e-22 at
        # 15 digits) leaves it undecided there, and a counterexample at 30
        cfg = PrecisionConfig(working_digits=15)
        digits = 30 if claim_id.startswith("thm3.4") else 15
        if claim_id.startswith("thm3.4"):
            row = bounds._row

            def lowered(family, cfg):
                lam, c_lo, c_hi = row(family, cfg)
                if family.id is FamilyId.FACTORIAL_HIGH:
                    c_hi = _moved(c_hi, -Fraction(1, 10 ** 25), cfg)
                return lam, c_lo, c_hi

            monkeypatch.setattr(bounds, "_row", lowered)
            claim = _claim(claim_id)
        else:
            runner = functools.partial(harness._run_harmonic, BoundFamily(FamilyId.HARMONIC_HIGH),
                                       bounds.CORRECTED_HARMONIC_CONSTANT + Fraction(1, 10 ** 25))
            claim = dataclasses.replace(_claim(claim_id), runner=runner)
        assert claim.runner(cfg, claim.grid)[2] == ("falsified" if digits == 15 else "indeterminate")
        rep = harness._run_claim(claim, cfg, claim.grid)
        assert (rep.verdict, rep.precision_digits, rep.argmin_x) == ("falsified", digits, 1.0)
        assert rep.min_margin == pytest.approx(-1e-25, rel=1e-6)

    @pytest.mark.parametrize("bad", [mp.inf, -mp.inf, mp.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_bound_is_rejected(self, bad, monkeypatch):
        # an mpf inf or nan has no exact ratio, so no interval is formed from
        # it: a row constant made from one raises
        row = bounds._row

        def bad_row(family, cfg):
            lam, c_lo, c_hi = row(family, cfg)
            return lam, c_lo, _moved(c_hi, bad, cfg)

        monkeypatch.setattr(bounds, "_row", bad_row)
        claim = _claim("thm3.4-eq3.12-corrected")
        with pytest.raises(DomainError):
            claim.runner(DEFAULT_CONFIG, claim.grid)

    def test_harmonic_check_reaches_past_the_grid(self, monkeypatch):
        # exact H_1 at n = 1, then the tail lemma, which covers every n >= 2
        added = []

        class Recorder(Sweep):
            def add(self, at, margin, lo, hi):
                added.append(at)
                super().add(at, margin, lo, hi)

        monkeypatch.setattr(harness, "Sweep", Recorder)
        result = harness._run_harmonic(BoundFamily(FamilyId.HARMONIC_HIGH), bounds.CORRECTED_HARMONIC_CONSTANT,
                                       DEFAULT_CONFIG, harness._HARMONIC_GRID)
        assert added == [1.0, 1.0, 2.0, 2.0]
        assert result == (0.0, 1.0, "verified")


class TestTightenedPastTheWidth:
    """Each point check and Thm 3.2 claim, its bound moved past the true
    value by a little more than its enclosure's width at 15 digits, is
    falsified there: the enclosures are as narrow as stated."""

    CFG = DEFAULT_CONFIG

    @pytest.mark.parametrize("side", [0, 1], ids=["lower", "upper"])
    def test_necessary_limit(self, side, monkeypatch):
        # v = -x - 1/(24 f(x)) at x = 1e4, its interval 3.8e-14 wide, moved so
        # that the bound 499/1000 or 501/1000 lies 1e-13 past the true v
        with mp.workdps(80):
            x, half = mp.mpf(10 ** 4), mp.mpf(1) / 2
            f = mp.loggamma(x + 1) - (x + half) * mp.log(x + half) + x + half - mp.log(2 * mp.pi) / 2
            v = Fraction(*specfun._ratio(-x - 1 / (24 * f)))
        delta = Fraction(1, 10 ** 13)
        shift = Fraction(499, 1000) - delta - v if side == 0 else Fraction(501, 1000) + delta - v
        fixed = monotone._necessary_limit_fixed

        def moved(x, cfg):
            (lo, hi), wp = fixed(x, cfg)
            s_lo, s_hi = specfun._fixed_end(shift, wp)
            return (lo + s_lo, hi + s_hi), wp

        monkeypatch.setattr(monotone, "_necessary_limit_fixed", moved)
        margin, at, verdict = harness._run_necessary_limit(self.CFG, harness._POINT_GRID)
        assert (verdict, at) == ("falsified", 1e4)
        assert margin == pytest.approx(-1e-13, rel=0.5)

    def test_best_constants(self, monkeypatch):
        # c + ln(1 + 1e-3) at x = 1e4 moved 1e-22 below H_{1/2}(1e4); that
        # margin is 1.6e-23 wide
        wl = specfun._constants(self.CFG).wl
        with mp.workdps(80):
            x, half = mp.mpf(10 ** 4), mp.mpf(1) / 2
            h = (mp.loggamma(x + 1) - (x + half) * mp.log(x + half) + x + half - mp.log(2 * mp.pi) / 2
                 + 1 / (24 * (x + half)))
            top = specfun._fixed_end(h - mp.mpf("1e-22"), wl)
        logs = specfun._logs
        monkeypatch.setattr(specfun, "_logs", lambda w: logs(w)._replace(ln1001=top))
        margin, at, verdict = harness._run_best_constants(self.CFG, harness._POINT_GRID)
        assert (verdict, at) == ("falsified", 1e4)
        assert margin == pytest.approx(-1e-22, rel=0.5)

    def test_section1(self, monkeypatch):
        # Bukac's lower bound at x = 10 raised 1e-30 past Sevli-Batir's, whose
        # g's differ by 1/240 - 1/252; that margin is 2.5e-32 wide
        wl = specfun._constants(self.CFG).wl
        shift = specfun._fixed_end(Fraction(1, 240) - Fraction(1, 252) + Fraction(1, 10 ** 30), wl)
        bound_g = bounds._bound_g

        def raised(family, x, cfg):
            lo, hi = bound_g(family, x, cfg)
            if family.id is FamilyId.BUKAC_GAMMA and x == 10.0:
                lo = (lo[0] + shift[0], lo[1] + shift[1])
            return lo, hi

        monkeypatch.setattr(bounds, "_bound_g", raised)
        margin, at, verdict = harness._run_section1(self.CFG, harness._POINT_GRID)
        assert (verdict, at) == ("falsified", 10.0)
        assert margin == pytest.approx(-1e-30, rel=0.1)

    @pytest.mark.parametrize("claim_id", ["thm3.2-eq3.7", "thm3.2-eq3.8-corrected", "eq3.8-as-printed"])
    def test_harmonic(self, claim_id, monkeypatch):
        # r = 1/54 - 1e-30, or C = 1/150 + 1e-30 in the runner of Eq. (3.8),
        # printed or corrected: the side at n = 1 is exact but for one floor
        # or ceiling at 2^-wl, 1.2e-32 at 15 digits
        delta = Fraction(1, 10 ** 30)
        runner = _claim(claim_id).runner
        family, constant = runner.args
        if family.id is FamilyId.HARMONIC_LOW:
            monkeypatch.setitem(bounds._HARMONIC, FamilyId.HARMONIC_LOW, (0, Fraction(1, 54) - delta))
        else:
            constant = bounds.CORRECTED_HARMONIC_CONSTANT + delta
        margin, at, verdict = runner.func(family, constant, self.CFG, harness._HARMONIC_GRID)
        assert (verdict, at) == ("falsified", 1.0)
        assert margin == pytest.approx(-1e-30, rel=0.1)


class TestSweep:
    @pytest.mark.parametrize("adds,expected", [
        ([(1.0, 0.0, 0, 0)], (0.0, 1.0, "verified")),
        ([(1.0, 2.5, 0, 5)], (2.5, 1.0, "verified")),
        ([(1.0, 0.0, -1, 1)], (0.0, 1.0, "indeterminate")),
        ([(1.0, -1.5, -2, -1)], (-1.5, 1.0, "falsified")),
        ([(1.0, 0.5, Fraction(1, 3), Fraction(2, 3)), (2.0, 0.25, 0, 1)], (0.25, 2.0, "verified")),
        ([(1.0, -0.5, Fraction(-2, 3), -Fraction(1, 3)), (2.0, 0.25, 0, 1)], (-0.5, 1.0, "falsified")),
        ([(1.0, 0.5, 1, 1), (2.0, 0.5, 1, 1), (3.0, 0.75, 0, 2)], (0.5, 1.0, "verified")),
        ([(1.0, math.inf, 1, 2)], (math.inf, 1.0, "verified")),
        ([(1.0, 3.0, 1, 2), (2.0, -math.inf, -2, -1)], (-math.inf, 2.0, "falsified")),
        # the reported float takes the sign that the ends decide
        ([(1.0, 0.5, -2, -1)], (-math.ulp(0.0), 1.0, "falsified")),
        ([(1.0, -0.5, 0, 1)], (0.0, 1.0, "verified")),
    ], ids=["zero", "zero-to-5", "straddles", "below", "fractions", "fraction-below",
            "first-argmin", "plus-inf", "minus-inf", "sign-below", "sign-holds"])
    def test_verdict_from_the_ends(self, adds, expected):
        sweep = Sweep()
        for add in adds:
            sweep.add(*add)
        assert sweep.result() == expected


class TestEquality:
    """The corrected Thm 3.4 rows and Thm 3.2 sides hold with equality at
    n = 1 by how their constants are built, and only then."""

    SIDES = {  # claim -> (family, index of a row's c in _row, sign of a tighter move)
        "thm3.4-eq3.12-corrected": (FamilyId.FACTORIAL_HIGH, 2, -1),
        "thm3.4-eq3.13-corrected": (FamilyId.FACTORIAL_LOW, 1, 1),
        "thm3.2-eq3.7": (FamilyId.HARMONIC_LOW, None, -1),  # r of c_lo = 1 - ln(3/2) - r
        "thm3.2-eq3.8-corrected": (FamilyId.HARMONIC_HIGH, None, 1),  # C of c_hi = 1 - ln(3/2) - C
    }

    @pytest.mark.parametrize("digits", [15, 30, 60])
    @pytest.mark.parametrize("claim_id", sorted(SIDES))
    def test_equality_side_is_exact_zero(self, claim_id, digits):
        cfg = PrecisionConfig(working_digits=digits)
        claim = _claim(claim_id)
        rep = harness._run_claim(claim, cfg, claim.grid)
        assert (rep.verdict, rep.min_margin, rep.argmin_x, rep.precision_digits) == ("verified", 0.0, 1.0, digits)

    @pytest.mark.parametrize("digits", [15, 30])
    def test_ties_are_the_built_constants_at_one(self, digits):
        cfg = PrecisionConfig(working_digits=digits)
        assert bounds._row_ties(FamilyId.FACTORIAL_HIGH, cfg) == (None, 1)
        assert bounds._row_ties(FamilyId.FACTORIAL_LOW, cfg) == (1, None)
        for row in harness._THM31_ROWS + ("upper", "lower"):
            assert bounds._row_ties(row, cfg) == (None, None)
        rows = tuple((0, *bounds._row_shape(r, cfg), bounds._row_ties(r, cfg)) for r in harness._THM34_ROWS[:2])
        [(_, _, margins)] = monotone._row_margins(rows, cfg, [mp.mpf(1)])
        assert [m for m in margins if m[1:] == (0, 0)] == [(0, 0, 0), (1, 0, 0)]
        # Thm 3.2's side of the constant is exactly 1 at n = 1 by arithmetic
        low, high = BoundFamily(FamilyId.HARMONIC_LOW), BoundFamily(FamilyId.HARMONIC_HIGH)
        wl, c = specfun._constants(cfg).wl, bounds.CORRECTED_HARMONIC_CONSTANT
        one = (1 << wl, 1 << wl)
        assert bounds._harmonic_sides(low, 1, c, wl)[0] == one == bounds._harmonic_sides(high, 1, c, wl)[1]
        assert bounds.harmonic_bound(low, 1, cfg)[0] == 1 == bounds.harmonic_bound(high, 1, cfg)[1]
        printed = bounds._harmonic_sides(high, 1, bounds.PRINTED_HARMONIC_CONSTANT, wl)
        assert all(lo < hi for lo, hi in printed + bounds._harmonic_sides(low, 2, c, wl))

    def _move_row(self, claim_id, move, monkeypatch) -> None:
        """Replace the c interval of claim_id's equality side by move(c, cfg)."""
        fid, index, _ = self.SIDES[claim_id]
        built = bounds._row

        def moved(family, cfg):
            values = list(built(family, cfg))
            if family.id is fid:
                values[index] = move(values[index], cfg)
            return tuple(values)

        monkeypatch.setattr(bounds, "_row", moved)

    @pytest.mark.parametrize("claim_id, step", [
        ("thm3.4-eq3.12-corrected", -1), ("thm3.4-eq3.12-corrected", 1),
        ("thm3.4-eq3.13-corrected", -1), ("thm3.4-eq3.13-corrected", 1),
        ("thm3.2-eq3.7", -1), ("thm3.2-eq3.8-corrected", 1),
    ], ids=["thm3.4-eq3.12-corrected-down", "thm3.4-eq3.12-corrected-up", "thm3.4-eq3.13-corrected-down",
            "thm3.4-eq3.13-corrected-up", "thm3.2-eq3.7-down", "thm3.2-eq3.8-corrected-up"])
    def test_constant_one_ulp_away_is_not_verified(self, claim_id, step, monkeypatch):
        # a constant within the enclosures' widths of the built one carries
        # no tie: n = 1 is then checked strictly, undecided at 15 digits.  A
        # row's c interval moves by a unit of 2^-wl either way; Thm 3.2's side
        # at n = 1 is exact but for its last floor, so only a tighter r or C,
        # by 2^-(wl+2), stays within it
        if claim_id.startswith("thm3.2"):
            fid, _, sign = self.SIDES[claim_id]
            assert step == sign
            s, r = bounds._HARMONIC[fid]
            delta = Fraction(step, 1 << specfun._constants(DEFAULT_CONFIG).wl + 2)
            monkeypatch.setitem(bounds._HARMONIC, fid, (s, (r or bounds.CORRECTED_HARMONIC_CONSTANT) + delta))
        else:
            self._move_row(claim_id, lambda c, cfg: (c[0] + step, c[1] + step), monkeypatch)
        claim = _claim(claim_id)
        assert claim.runner(DEFAULT_CONFIG, claim.grid)[2] == "indeterminate"
        rep = harness._run_claim(claim, DEFAULT_CONFIG, claim.grid)
        assert rep.verdict != "verified"
        assert rep.argmin_x == 1.0

    @pytest.mark.parametrize("tighter", [True, False], ids=["tighter", "looser"])
    @pytest.mark.parametrize("claim_id", sorted(SIDES))
    def test_constant_moved_beyond_the_widths_is_decided(self, claim_id, tighter, monkeypatch):
        # 1e-20, beyond the enclosures' widths at 15 digits, decides n = 1: a
        # row's c interval is moved, or Thm 3.2's r of 1 - ln(3/2) - r
        fid, _, sign = self.SIDES[claim_id]
        size = Fraction(1, 10 ** 20)
        v = sign * size if tighter else -sign * size
        if claim_id.startswith("thm3.2"):
            s, r = bounds._HARMONIC[fid]
            monkeypatch.setitem(bounds._HARMONIC, fid, (s, (r or bounds.CORRECTED_HARMONIC_CONSTANT) + v))
        else:
            self._move_row(claim_id, lambda c, cfg: _moved(c, v, cfg), monkeypatch)
        claim = _claim(claim_id)
        rep = harness._run_claim(claim, DEFAULT_CONFIG, claim.grid)
        assert (rep.verdict, rep.precision_digits) == ("falsified" if tighter else "verified", 15)
        if tighter:
            assert rep.argmin_x == 1.0 and rep.min_margin == pytest.approx(-float(size), rel=1e-6)

    def test_series_lambda_exact_zero_at_k3_holds(self):
        lhs, rhs = monotone.series_coeff_lambda(3, Fraction(3, 2))
        assert lhs - rhs == 0
        claim = _claim("eq2.16-coefficient-check")
        rep = harness._run_claim(claim, DEFAULT_CONFIG, claim.grid)
        assert (rep.verdict, rep.min_margin, rep.argmin_x, rep.precision_digits) == ("verified", 0.0, 3.0, 15)

    @pytest.mark.parametrize("digits", [15, 30, 60])
    @pytest.mark.parametrize("fid", [FamilyId.HARMONIC_LOW, FamilyId.HARMONIC_HIGH])
    def test_gamma_side_tail_margin_has_lower_end_zero(self, fid, digits, monkeypatch):
        # R(n) < 0 for s = 0 and R(n) > 0 for s = 1 (bounds.harmonic_tail):
        # the margin against c - gamma = 0 starts at exactly 0
        cfg = PrecisionConfig(working_digits=digits)
        added = []

        class Recorder(Sweep):
            def add(self, at, margin, lo, hi):
                added.append((margin, lo, hi))
                super().add(at, margin, lo, hi)

        monkeypatch.setattr(harness, "Sweep", Recorder)
        harness._run_harmonic(BoundFamily(fid), bounds.CORRECTED_HARMONIC_CONSTANT, cfg, harness._HARMONIC_GRID)
        lower, upper = added[2:]
        margin, lo, hi = upper if fid is FamilyId.HARMONIC_LOW else lower
        assert lo == 0 and hi > 0 and margin > 0


class TestRemark1:
    @pytest.mark.parametrize("dens", [(25, 24), (24, 23)], ids=["lower-25", "upper-23"])
    def test_eq41_with_a_wrong_24_is_falsified(self, dens, monkeypatch):
        # 24 -> 25 in x^2 u/24, or 24 -> 23 in x^2 u^3/24, makes Eq. (4.1)
        # false by about 1.7e-9 at x = 1e-3
        monkeypatch.setattr(harness, "_EQ41_DENOMINATORS", dens)
        by_id = {r.claim_id: r for r in harness.run_suite("remark1")}
        assert by_id["remark1-eq4.1-containment"].verdict == "falsified"
        assert by_id["remark1-eq4.1-containment"].precision_digits == 15
        assert by_id["remark1-eq4.2-containment"].verdict == "verified"
        wp, intervals = harness._remark1_margins(1e-3, specfun._constants(DEFAULT_CONFIG).wl, dens)
        lo, hi = intervals[0 if dens[0] != 24 else 1]
        assert hi < 0
        assert mp.ldexp(hi, -2 * wp) == pytest.approx(-1.7e-9, rel=0.05)

    def test_one_exponential_per_point(self, monkeypatch):
        calls = []
        mpf_exp = libmp.mpf_exp

        def counting_exp(*args, **kwargs):
            calls.append(args[0])
            return mpf_exp(*args, **kwargs)

        monkeypatch.setattr(libmp, "mpf_exp", counting_exp)
        harness._remark1_pass.cache_clear()  # a cached pass would make no call
        reports = harness.run_suite("remark1")
        assert [r.verdict for r in reports] == ["verified"] * 3
        assert len(calls) == harness._BERNOULLI_GRID.points

    def test_wide_grid_is_verified_without_the_retry(self):
        # to x = 700, where Eq. (4.2)'s lower margin is 6.9e-302
        g = GridSpec(1e-3, 700.0, 300, "log")
        reports = harness.run_suite("remark1", grid_override=g)
        assert [(r.verdict, r.precision_digits) for r in reports] == [("verified", 15)] * 3
        assert reports[1].min_margin == pytest.approx(6.89e-302, rel=1e-3)

    def test_margins_below_the_least_subnormal_are_decided(self):
        # to x = 1500: Eq. (4.2)'s lower margin underflows a float from x = 745
        # on, but its integer ends are positive
        g = GridSpec(1e-3, 1500.0, 300, "log")
        reports = harness.run_suite("remark1", grid_override=g)
        assert [(r.verdict, r.precision_digits) for r in reports] == [("verified", 15)] * 3
        assert reports[1].min_margin == 0.0 and reports[1].argmin_x == pytest.approx(770.743, rel=1e-6)

    def test_margins_past_the_float_range_are_indeterminate(self):
        # from x = 1600 every margin is below the least subnormal
        g = GridSpec(1e3, 1e9, 4, "log")
        reports = harness.run_suite("remark1", grid_override=g)
        assert [r.verdict for r in reports[:2]] == ["indeterminate"] * 2

    def test_nonpositive_point_raises(self):
        with pytest.raises(DomainError):
            harness.run_suite("remark1", grid_override=GridSpec(0.0, 5.0, 3, "linear"))


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


class TestFloatPath:
    # the row pass takes the grid's floats apart exactly, so every margin
    # integer equals that of a pass over the exact mpfs of the same points;
    # at 291 digits on a 100-point grid of the dense grid's range and every
    # 4th point of the CM grid
    @staticmethod
    def _passes(cfg):
        dense, every = GridSpec(1.1e-3, 100.0, 4000, "log"), 1
        if cfg.working_digits == 291:
            every = 4
            dense = GridSpec(1.1e-3, 100.0, 100, "log")
        row = lambda r: ((0, *bounds._row_shape(r, cfg), bounds._row_ties(r, cfg)),)
        return {
            "thm3.1": (tuple(row(r) for r in harness._THM31_ROWS), dense.values()),
            "thm3.4": (tuple(row(r) for r in harness._THM34_ROWS), harness._FACTORIAL_GRID.values()),
            "cm": (tuple(monotone._cm_rows(lam, sign, 6, cfg) for lam, sign in harness._CM_SWEEPS),
                   harness._CM_GRID.values()[::every]),
        }

    @pytest.mark.parametrize("digits", [15, 30, 60, 291])
    def test_row_pass_from_floats_equals_pass_from_exact_mpfs(self, digits):
        cfg = PrecisionConfig(working_digits=digits)
        for name, (claims, xs) in self._passes(cfg).items():
            exact = [mp.mpf(x) for x in xs]  # 53 bits at mpmath's default precision
            assert exact == xs and all(isinstance(x, float) for x in xs)
            rows = tuple(row for claim in claims for row in claim)
            # the pass's whole stream: each point, its wp and every margin
            from_floats = list(monotone._row_margins(rows, cfg, xs))
            assert from_floats == list(monotone._row_margins(rows, cfg, exact)), (name, digits)
            if name == "thm3.4":
                # the n = 1 ties of the corrected rows: exact zeros at x = 1.0
                at_1 = [margins for x, _, margins in from_floats if x == 1]
                assert [m for m in at_1[0] if m[1:] == (0, 0)] == [(0, 0, 0), (1, 0, 0)]


class TestSharedWork:
    def test_laplace_residuals_match_direct_quadrature(self):
        residuals = harness._laplace_residuals(DEFAULT_CONFIG)
        assert [x for x, _ in residuals] == list(harness._LAPLACE_XS)
        # lambda cancels from Q(x, lambda) - H_lambda'(x), so one residual
        # per x stands for every lambda; res is an integer interval, and the
        # comparison holds for both of its ends
        wp = specfun._constants(DEFAULT_CONFIG).wl
        for x, res in residuals:
            for lam in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0):
                check = monotone.laplace_check(x, lam, DEFAULT_CONFIG)
                assert all(abs(math.ldexp(end, -wp) - check) <= 1e-20 for end in res), (x, lam)

    def test_shifted_closed_form_falsifies_laplace(self, monkeypatch):
        # the closed form moved by 2e-10 at x = 2 puts that residual beyond
        # the claim's 1e-10, whatever the enclosure's width
        closed = monotone.H_lambda_prime

        def shifted(x, lam, cfg):
            sv = closed(x, lam, cfg)
            return SpecialValue(sv.value + mp.mpf("2e-10"), sv.abs_error_bound) if x == 2.0 else sv

        monkeypatch.setattr(monotone, "H_lambda_prime", shifted)
        margin, at, verdict = harness._run_laplace(DEFAULT_CONFIG, harness._PHI_GRID)
        assert verdict == "falsified"
        assert at == 2.0 and margin < 0

    def test_factorial_sweeps_alone_equal_suite(self, monkeypatch):
        calls = self._count_defect(monkeypatch)
        stirling_calls = []
        stirling_p = specfun._stirling_p

        def counting_stirling_p(a, s, wp, wl):
            stirling_calls.append((a, s))
            return stirling_p(a, s, wp, wl)

        monkeypatch.setattr(specfun, "_stirling_p", counting_stirling_p)
        harness._row_pass.cache_clear()
        suite = {r.claim_id: dataclasses.replace(r, runtime_ms=0) for r in harness.run_suite("thm3.4")}
        # one F_0(n) per n serves all four claims
        assert sorted(x for x, _ in calls) == list(range(1, 171))
        # no p(n) per n, and none for the row constants, which are intervals
        assert stirling_calls == []
        for claim in harness.claims_for_suite("thm3.4"):
            harness._row_pass.cache_clear()
            alone = harness._run_claim(claim, DEFAULT_CONFIG, claim.grid)
            assert dataclasses.replace(alone, runtime_ms=0) == suite[claim.claim_id]

    def test_thm34_pass_makes_no_stirling_log_call_per_n(self, monkeypatch):
        # the printed sides compare F_0(n) with the printed bound less p(n),
        # so p(n) is formed for no n; the row constants H_lambda(1) of the
        # corrected Eqs. (3.12), (3.13) are intervals, formed without p(1)
        stirling_calls = []
        stirling_p = specfun._stirling_p

        def counting_stirling_p(a, s, wp, wl):
            stirling_calls.append((a, s))
            return stirling_p(a, s, wp, wl)

        monkeypatch.setattr(specfun, "_stirling_p", counting_stirling_p)
        harness._row_pass.cache_clear()
        bounds._row.cache_clear()
        reports = harness.run_suite("thm3.4")
        assert harness.exit_code(reports) == 0
        assert stirling_calls == []

    @staticmethod
    def _count_defect(monkeypatch) -> list:
        calls = []  # (x, working digits) of each F_0 kernel call
        hook_kernel(monkeypatch, lambda x, cfg, max_order, out: calls.append((x, cfg.working_digits)))
        return calls

    @pytest.mark.parametrize("grid", [None, GridSpec(1.1e-3, 100.0, 4000, "log")],
                             ids=["default-grid", "dense-grid"])
    def test_thm31_rows_share_one_ln_gamma_per_point(self, grid, monkeypatch):
        calls = self._count_defect(monkeypatch)
        stirling_calls = []
        stirling_p = specfun._stirling_p

        def counting_stirling_p(a, s, wp, wl):
            stirling_calls.append((a, s))
            return stirling_p(a, s, wp, wl)

        monkeypatch.setattr(specfun, "_stirling_p", counting_stirling_p)
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
        # no p(x) at all: F_0 never forms it, the row constants are
        # intervals, and sec1 compares the families without it
        assert stirling_calls == []

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
        inner = monotone._H_rounded

        def recording(k, x, lam, cfg):
            calls.append(float(x))
            return inner(k, x, lam, cfg)

        monkeypatch.setattr(monotone, "_H_rounded", recording)
        harness._row_pass.cache_clear()
        reports = harness.run_suite(suite)
        assert harness.exit_code(reports) == 0
        assert set(calls).isdisjoint(grid.values())
        # nor does eq1.3's H_{1/2} at x = 1e4 and 1e-6, a row check too
        assert calls == []

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
                c_hi = _moved((0, 0), -Fraction(41, 10 ** 7), cfg)
            return lam, c_lo, c_hi

        monkeypatch.setattr(bounds, "_row", lowered)
        patched = harness._run_claim(claim, DEFAULT_CONFIG, grid)
        assert patched.verdict == "falsified" and patched.argmin_x == pytest.approx(100.0)
        assert len(calls) == 120

    def test_each_distinct_cm_sweep_runs_once(self, monkeypatch):
        passes = []
        row_pass = monotone._row_pass

        in_pass = []

        def counting_pass(claims, cfg, xs):
            passes.append(claims)
            in_pass.append(True)
            try:
                return row_pass(claims, cfg, xs)
            finally:
                in_pass.pop()

        # the 8 sweeps are the claims of one pass, one kernel call of orders
        # 0..6 per point of the 48-point grid, and make no ln Gamma call of
        # their own
        kernel_calls = []
        sweep_ln_gamma_calls = []
        ln_gamma = monotone.specfun.ln_gamma

        def counting_kernel(x, cfg, max_order, out):
            if max_order == 6:
                kernel_calls.append(x)

        def counting_ln_gamma(x, cfg):
            if in_pass:
                sweep_ln_gamma_calls.append(x)
            return ln_gamma(x, cfg)

        monkeypatch.setattr(monotone, "_row_pass", counting_pass)
        hook_kernel(monkeypatch, counting_kernel)
        monkeypatch.setattr(monotone.specfun, "ln_gamma", counting_ln_gamma)
        harness._row_pass.cache_clear()
        reports = harness.run_suite("all")
        cm_passes = [claims for claims in passes if len(claims[0]) == 7]
        assert len(cm_passes) == 1
        assert len(cm_passes[0]) == 8
        assert len(set(cm_passes[0])) == 8
        assert len(kernel_calls) == 48 == harness._CM_GRID.points
        assert sweep_ln_gamma_calls == []
        assert harness.exit_code(reports) == 0
        by_id = {r.claim_id: r for r in reports}
        for alias, source in (("thm3.3-lcm-G-lam0.5", "thm2.1-item1-cm-lam0.5"),
                              ("thm3.3-lcm-recip-G-lam1.5", "thm2.1-item3-cm-lam1.5")):
            assert by_id[alias] == dataclasses.replace(by_id[source], claim_id=alias, runtime_ms=0)

        passes.clear()
        reports = harness.run_suite("thm3.3")
        assert passes == cm_passes
        assert [r.claim_id for r in reports] == ["thm3.3-lcm-G-lam0.5", "thm3.3-lcm-recip-G-lam1.5"]
        assert [r.verdict for r in reports] == ["verified", "verified"]

    def test_thm33_runs_where_another_sweep_overflows(self):
        # the thm3.3 claims share a pass with lambda = 0, whose order-6
        # margin at x = 1e-60 is beyond the float range
        assert cli.main(["verify", "--suite", "thm3.3", "--grid", "1e-60:1:10:log"]) == 0

    # the eight CM claims and the (lambda, sign) of the sweep each names
    _CM_CLAIMS = {
        "thm2.1-item1-cm-lam0": (0.0, "plus"), "thm2.1-item1-cm-lam0.25": (0.25, "plus"),
        "thm2.1-item1-cm-lam0.5": (0.5, "plus"), "thm2.1-item1-necessity-lam0.6": (0.6, "plus"),
        "thm2.1-item1-necessity-lam1.0": (1.0, "plus"), "thm2.1-item3-cm-lam1.5": (1.5, "minus"),
        "thm2.1-item3-cm-lam2": (2.0, "minus"), "thm2.1-item3-cm-lam5": (5.0, "minus"),
    }

    def test_cm_sweeps_share_one_kernel_call_per_point(self, monkeypatch):
        calls = []
        hook_kernel(monkeypatch, lambda x, cfg, max_order, out: calls.append((max_order, cfg.working_digits)))
        harness._row_pass.cache_clear()
        grid = GridSpec(0.5, 4.0, 3, "log")
        for cid in ("thm2.1-item1-cm-lam0.5", "thm2.1-item3-cm-lam1.5"):
            harness._run_claim(_claim(cid), DEFAULT_CONFIG, grid)
        assert calls == [(6, 15)] * 3
        harness._run_claim(_claim("thm2.1-item3-cm-lam1.5"), DEFAULT_CONFIG, GridSpec(0.5, 1.0, 2, "log"))
        assert len(calls) == 5

    def test_eight_sweeps_read_one_pass(self, monkeypatch):
        # F_0..F_6 come from one kernel call per grid point, made by the
        # first sweep's pass; the other seven read the same pass
        kernel_calls, free_calls = [], []

        def counting_kernel(x, cfg, max_order, out):
            kernel_calls.append(x)
            free_calls.extend((k, float(x)) for k in range(len(out[0])))

        hook_kernel(monkeypatch, counting_kernel)
        harness._row_pass.cache_clear()
        grid = GridSpec(0.01, 100.0, 6, "log")
        reports = []
        for cid in self._CM_CLAIMS:
            reports.append(harness._run_claim(_claim(cid), DEFAULT_CONFIG, grid))
            assert len(kernel_calls) == grid.points
            assert sorted(free_calls) == sorted((k, x) for k in range(7) for x in grid.values())
        monkeypatch.undo()
        for cid, rep in zip(self._CM_CLAIMS, reports):
            harness._row_pass.cache_clear()
            assert normalize([harness._run_claim(_claim(cid), DEFAULT_CONFIG, grid)]) == normalize([rep])

    def test_cm_pass_precision_matches_cold_call(self):
        cfg30 = PrecisionConfig(working_digits=30)
        claim = _claim("thm2.1-item1-cm-lam0.25")
        harness._row_pass.cache_clear()
        cold = claim.runner(cfg30, claim.grid)
        harness._row_pass.cache_clear()
        claim.runner(DEFAULT_CONFIG, claim.grid)
        assert claim.runner(cfg30, claim.grid) == cold
        assert harness._row_pass.cache_info().currsize == 1

    @pytest.mark.parametrize("grid", [harness._CM_GRID, GridSpec(1e-2, 1e3, 96, "log")], ids=["cm-grid", "wide"])
    @pytest.mark.parametrize("digits", [15, 30])
    def test_cm_check_agrees_with_each_cm_claim(self, digits, grid):
        # the two entry points of the pass, the public cm_check and the
        # registry's claims, give the same (min_margin, argmin_x, verdict)
        cfg = PrecisionConfig(working_digits=digits)
        harness._row_pass.cache_clear()
        for cid, (lam, sign) in self._CM_CLAIMS.items():
            claim = _claim(cid)
            rep = monotone.cm_check(lam, sign, 6, grid.values(), cfg)
            assert claim.runner(cfg, grid) == (rep.min_margin, rep.argmin[1], rep.verdict), cid

    def test_suite_builds_each_phi_series_once(self, monkeypatch):
        # the five Laplace enclosures and the three certificates of
        # `verify --suite all` read one series per (lambda, precision)
        keys = []
        series = monotone._phi_series

        def recording(lam, prec):
            keys.append((lam, prec))
            return series(lam, prec)

        monkeypatch.setattr(monotone, "_phi_series", recording)
        series.cache_clear()
        harness._row_pass.cache_clear()
        assert harness.exit_code(harness.run_suite("all")) == 0
        assert len(keys) == 8 and len(set(keys)) == 3
        assert series.cache_info().misses == len(set(keys))


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


class TestPrecisionLimit:
    # 291 working digits is the top of the range in which the kernel's
    # bounds are tested against a reference; every precision past it is
    # refused

    @pytest.mark.parametrize("suite", ["thm2.1", "thm3.4"])
    def test_suite_at_the_limit(self, suite):
        # the certificates, the CM sweeps and the n = 1 ties, about 2 s and
        # 0.1 s; each claim is decided at the limit itself
        reports = harness.run_suite(suite, PrecisionConfig(config.MAX_WORKING_DIGITS))
        assert harness.exit_code(reports) == 0
        assert {r.precision_digits for r in reports} == {config.MAX_WORKING_DIGITS}

    @pytest.mark.parametrize("digits", [15, config.MAX_WORKING_DIGITS // 2 + 1])
    def test_no_retry_past_the_limit(self, digits):
        # an indeterminate claim is retried at doubled precision only while
        # that stays within the limit, else it stays indeterminate at its own
        calls = []

        def runner(cfg, grid):
            calls.append(cfg.working_digits)
            return 0.0, 1.0, harness.INDETERMINATE

        claim = harness.Claim("stub", ("stub",), harness.VERIFIED, GridSpec(1.0, 2.0, 2, "linear"), runner)
        report = harness._run_claim(claim, PrecisionConfig(digits), claim.grid)
        assert report.verdict == harness.INDETERMINATE
        expected = [digits, 2 * digits] if 2 * digits <= config.MAX_WORKING_DIGITS else [digits]
        assert calls == expected and report.precision_digits == expected[-1]

    @pytest.mark.parametrize("argv, digits_env", [
        (["verify", "--suite", "all", "--digits", "400"], None),
        (["lambda-star", "--digits", "300"], None),
        (["verify", "--suite", "thm3.4"], "400"),
        (["verify", "--suite", "thm2.1", "--digits", str(config.MAX_WORKING_DIGITS + 1)], None),
    ])
    def test_past_the_limit_exits_two_without_a_traceback(self, argv, digits_env):
        src = os.path.dirname(os.path.dirname(harness.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("GAMMA_CERTIFY_DIGITS", None)
        if digits_env:
            env["GAMMA_CERTIFY_DIGITS"] = digits_env
        proc = subprocess.run([sys.executable, "-m", "gammacert.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr[-2000:]
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: working_digits must be between 15 and 291"), line
        assert proc.stdout == ""
