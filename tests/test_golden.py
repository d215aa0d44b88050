"""The reports of `gammacert verify` against golden copies, byte for byte.

Each file under tests/golden/ was written by

    gammacert verify --suite SUITE --digits D [--grid GRID] --out FILE

with every "runtime_ms" then set to 0.  A change that moves any verdict,
min_margin, argmin_x or precision of these reports fails here.  Regenerate a
file only for a change that is meant to move it, and say which digits moved.
"""

import dataclasses
import pathlib

import pytest

from gammacert import cli, harness

GOLDEN = pathlib.Path(__file__).parent / "golden"

CASES = {
    "all-d15.json": ["--suite", "all", "--digits", "15"],
    "all-d30.json": ["--suite", "all", "--digits", "30"],
    "all-d60.json": ["--suite", "all", "--digits", "60"],
    "thm3.1-dense-d15.json": ["--suite", "thm3.1", "--grid", "1.1e-3:100:4000:log", "--digits", "15"],
    "thm3.1-dense-d30.json": ["--suite", "thm3.1", "--grid", "1.1e-3:100:4000:log", "--digits", "30"],
    "thm3.1-dense-d60.json": ["--suite", "thm3.1", "--grid", "1.1e-3:100:4000:log", "--digits", "60"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path, capsys):
    out = tmp_path / name
    assert cli.main(["verify", *CASES[name], "--out", str(out)]) == 0
    reports = harness.parse_reports(out.read_text(encoding="utf-8"), "json")
    zeroed = harness.render_reports([dataclasses.replace(r, runtime_ms=0) for r in reports], "json")
    assert zeroed.encode("utf-8") == (GOLDEN / name).read_bytes()
