#!/usr/bin/env python3
"""Benchmark for gammacert: cold ``gammacert verify`` runs in a closed loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-all-d15 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py            # every workload in turn, trace off

One client drives one child process at a time.  Each repetition is a fresh
interpreter running ``python -m gammacert.cli verify ...`` on the checkout's
``src/``, because CLI users pay the same cold start: the imports, the cached
10^6-term harmonic array, mpmath's Bernoulli and tanh-sinh node caches and
the per-precision state.  The benchmark only times calls from outside; it
changes nothing under ``src/``.

Workloads (see WORKLOADS):
  verify-all-d15   verify --suite all at the default 15 digits
  verify-all-d30   verify --suite all --digits 30
  gamma-dense-d15  verify --suite thm3.1 --grid LO:100:4000:log, where the
                   seed draws LO from [1e-3, 1.25e-3); the other two
                   workloads are fixed by the claim registry and ignore it

--trace 0 spends --seconds on cold runs of the workload, each preceded by
SETUP_SPAWNS_PER_RUN runs of ``python -c "import gammacert.cli"``, for as
long as the next run is expected to end in time.  setup_s is the median of
the import runs; wall_s and peak_rss_mb are medians over the cold runs;
claims_ok_frac is 1 - claims failed / claims attempted.

--trace 1 runs the workload once untraced and once under trace_child.py,
which wraps the layer functions in spans, then runs micro_child.py.  It
reports the per-layer metrics listed in BENCHMARK.json.  Per-claim times
come from the untraced run's runtime_ms (0 for a claim the workload does not
run), harness.max_claim_s is the largest of them, and trace.overhead_s is
traced minus untraced wall time (one pair of runs, so host noise can exceed
it).  --seconds does not apply: the work is fixed.

Every run is checked: it must exit 0, parse_reports must round-trip its
report, every verdict must equal the REGISTRY expectation, each report must
carry the grid run_suite should have used, and the report with runtime_ms
zeroed must be byte-identical across runs.  A claim that breaks any of these
counts as failed; a non-zero exit fails every claim of the run.

The environment, every sample and the metrics go to
``.perfbench_out/<workload>-seed<n>-trace<t>.json``.  The last line of
stdout is one JSON object with the keys correct, attempted, failed, metrics.
Exit code: 0 if every check passed, 1 if one failed, 2 without a source tree.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.metadata
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# name -> (suite, --digits or None, dense ln Gamma grid)
WORKLOADS = {
    "verify-all-d15": ("all", None, False),
    "verify-all-d30": ("all", 30, False),
    "gamma-dense-d15": ("thm3.1", None, True),
}
DENSE_POINTS = 4000
SETUP_SPAWNS_PER_RUN = 3
CHILD_TIMEOUT_S = 150

# layer functions whose call count and self time the traced run reports
TRACED_LAYERS = (
    "specfun.ln_gamma",
    "specfun.digamma",
    "specfun.polygamma",
    "monotone.cm_check",
    "monotone.H_lambda_deriv",
    "monotone.phi_integrand",
    "monotone.laplace_check",
    "monotone.h_of_t",
    "monotone.lambda_star",
    "bounds.gamma_bound_log",
    "bounds.factorial_bound_log",
)


@dataclasses.dataclass
class ChildRun:
    code: int
    wall_s: float
    maxrss_kb: int
    stdout: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("GAMMA_CERTIFY_DIGITS", None)  # the workload fixes the precision
    return env


def spawn(argv: list) -> ChildRun:
    """Run one child to completion; wall time, exit code, max RSS and stdout."""
    with open(OUT / "child.stdout", "w+b") as out, open(OUT / "child.stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall_s = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read().decode("utf-8", "replace")
    if proc.returncode != 0:
        tail = (OUT / "child.stderr").read_text("utf-8", "replace")[-2000:]
        print(f"child {argv[1:]} exited {proc.returncode}:\n{tail}", file=sys.stderr)
    return ChildRun(proc.returncode, wall_s, usage.ru_maxrss, text)


class Checker:
    """Checks the JSON reports of one workload's runs against the registry."""

    def __init__(self, harness, suite: str, grid_override) -> None:
        self.harness = harness
        self.claims = harness.claims_for_suite(suite)
        self.grids = [grid_override if grid_override and c.grid_overridable else c.grid
                      for c in self.claims]
        self.reference = None  # reports with runtime_ms zeroed, from the first clean run

    def check(self, run: ChildRun) -> tuple:
        """(parsed reports, or [] if unusable; number of claims failed)."""
        h = self.harness
        everything = [], len(self.claims)
        if run.code != 0:
            return everything
        try:
            reports = h.parse_reports(run.stdout, "json")
        except (ValueError, KeyError, TypeError):
            return everything
        if (h.render_reports(reports, "json") != run.stdout
                or [r.claim_id for r in reports] != [c.claim_id for c in self.claims]):
            return everything
        zeroed = [h.render_reports([dataclasses.replace(r, runtime_ms=0)], "json") for r in reports]
        if self.reference is None:
            self.reference = zeroed
        failed = sum(
            rep.verdict != claim.expected or rep.grid != grid or text != ref
            for claim, grid, rep, text, ref in zip(self.claims, self.grids, reports, zeroed, self.reference)
        )
        return reports, failed


def workload_setup(harness, name: str, seed: int) -> tuple:
    """(CLI arguments after ``gammacert``, Checker) for one workload and seed."""
    suite, digits, dense = WORKLOADS[name]
    argv = ["verify", "--suite", suite]
    if digits is not None:
        argv += ["--digits", str(digits)]
    grid = None
    if dense:
        lo = 1e-3 * (1 + 0.25 * random.Random(seed).random())
        grid = harness.GridSpec(lo, 100.0, DENSE_POINTS, "log")
        argv += ["--grid", f"{lo!r}:100:{DENSE_POINTS}:log"]
    return argv, Checker(harness, suite, grid)


def measure_end_to_end(cli_argv: list, checker: Checker, seconds: float) -> tuple:
    """(metrics, samples, attempted, failed) for --trace 0."""
    deadline = time.perf_counter() + seconds
    py = sys.executable
    spawn([py, "-c", "import gammacert.cli"])  # untimed: writes the bytecode caches
    setup, runs, iteration_s, attempted, failed = [], [], [], 0, 0
    while True:
        t0 = time.perf_counter()
        setup += [spawn([py, "-c", "import gammacert.cli"]) for _ in range(SETUP_SPAWNS_PER_RUN)]
        run = spawn([py, "-m", "gammacert.cli", *cli_argv])
        attempted += len(checker.claims)
        failed += checker.check(run)[1]
        runs.append({"wall_s": run.wall_s, "code": run.code, "maxrss_kb": run.maxrss_kb})
        iteration_s.append(time.perf_counter() - t0)
        if time.perf_counter() + statistics.median(iteration_s) > deadline:
            break
    if any(s.code != 0 for s in setup):
        failed = attempted
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "setup_s": statistics.median(s.wall_s for s in setup),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in runs) / 1024,
        "claims_ok_frac": 1 - failed / attempted,
    }
    samples = {"setup_s": [s.wall_s for s in setup], "runs": runs}
    return metrics, samples, attempted, failed


def measure_layers(cli_argv: list, checker: Checker, tag: str) -> tuple:
    """(metrics, samples, attempted, failed) for --trace 1."""
    py = sys.executable
    plain = spawn([py, "-m", "gammacert.cli", *cli_argv])
    reports, failed = checker.check(plain)
    summary_path = OUT / f"{tag}-summary.json"
    traced = spawn([py, str(HERE / "trace_child.py"), str(OUT / f"{tag}-spans.jsonl"),
                    str(summary_path), *cli_argv])
    failed += checker.check(traced)[1]
    attempted = 2 * len(checker.claims)
    summary = json.loads(summary_path.read_text()) if traced.code == 0 else {"layers": {}}
    micro_run = spawn([py, str(HERE / "micro_child.py")])
    micro = json.loads(micro_run.stdout) if micro_run.code == 0 else {"metrics": {}, "failed": ["all"]}

    layers = summary["layers"]

    def layer(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0)

    metrics = {}
    for name in TRACED_LAYERS:
        metrics[f"{name}.calls"] = layer(name, "calls")
        metrics[f"{name}.self_s"] = layer(name, "self_s")
    cm_calls = summary.get("cm_sweeps", 0)
    metrics["monotone.cm_check.distinct_ratio"] = (
        summary["cm_distinct_sweeps"] / cm_calls if cm_calls else 0.0)
    quad_calls = layer("mpmath.quad", "calls")
    metrics["mpmath.quad.calls"] = quad_calls
    metrics["mpmath.quad.s"] = layer("mpmath.quad", "s")
    metrics["mpmath.quad.evals_per_call"] = summary["quad_evals"] / quad_calls if quad_calls else 0.0
    metrics["config.doubled.calls"] = layer("config.doubled", "calls")
    claim_s = {r.claim_id: r.runtime_ms / 1000 for r in reports}
    for claim in checker.harness.REGISTRY:
        metrics[f"harness.claim.{claim.claim_id}.s"] = claim_s.get(claim.claim_id, 0.0)
    metrics["harness.max_claim_s"] = max(claim_s.values(), default=0.0)
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    metrics.update(micro["metrics"])
    # certified-bound violations found by the micro checks; reported, not
    # folded into `correct`, which is about the workload's claim verdicts
    metrics["micro.bound_violations"] = len(micro["failed"])
    samples = {"untraced_wall_s": plain.wall_s, "traced_wall_s": traced.wall_s,
               "micro_failed": micro["failed"]}
    return metrics, samples, attempted, failed


def environment() -> dict:
    import mpmath.libmp

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "mpmath": importlib.metadata.version("mpmath"),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def run_workload(harness, spec: dict, name: str, seed: int, seconds: int, trace: int) -> dict:
    cli_argv, checker = workload_setup(harness, name, seed)
    tag = f"{name}-seed{seed}-trace{trace}"
    if trace:
        values, samples, attempted, failed = measure_layers(cli_argv, checker, tag)
    else:
        values, samples, attempted, failed = measure_end_to_end(cli_argv, checker, seconds)
    listed = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "command": ["gammacert", *cli_argv], "environment": environment(),
              "samples": samples, "result": result}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gammacert" / "cli.py").is_file():
        print(f"error: no gammacert source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    sys.path.insert(0, str(SRC))
    from gammacert import harness

    OUT.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print("environment:", json.dumps(environment()))
    results = []
    for name in names:
        result = run_workload(harness, spec, name, args.seed, seconds, args.trace)
        results.append(result)
        for metric, m in result["metrics"].items():
            print(f"{name:16s} {metric:48s} {m['value']:.6g} {m['unit']}")
        print(f"{name:16s} claims attempted {result['attempted']}, failed {result['failed']}")
        if len(names) > 1:
            print(f"{name}:", json.dumps(result))
    print(json.dumps(results[0] if len(results) == 1 else {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {f"{name}.{k}": v for name, r in zip(names, results) for k, v in r["metrics"].items()},
    }))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
