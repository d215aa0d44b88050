"""Run the gammacert CLI once with its layer functions wrapped in span recorders.

Usage (PYTHONPATH must put the checkout's ``src/`` first):

    python3 perfbench/trace_child.py SPANS.jsonl SUMMARY.json verify --suite all

Every public function of ``specfun``, ``monotone`` and ``bounds`` is replaced
by module attribute, so calls made from inside the same module are caught
too.  ``harness._run_claim`` (one span per claim), ``mpmath.mp.quad`` (with
an integrand-evaluation count) and ``PrecisionConfig.doubled`` are wrapped
the same way.  Spans stay in memory and are written when the CLI returns:
one JSON line per span to SPANS.jsonl, and per-name call counts, inclusive
time and self time (span minus the spans it directly caused) to SUMMARY.json.
The CLI's own stdout and exit code pass through unchanged.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

from mpmath import mp

from gammacert import bounds, cli, config, harness, monotone, specfun

# span id -> [parent id (-1 for a root), name, start, end]
_spans: list = []
_stack: list = []
_cm_sweeps: list = []
_quad_evals = [0]


def _traced(name: str, fn, on_call=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if on_call is not None:
            on_call(*args, **kwargs)
        sid = len(_spans)
        _spans.append([_stack[-1] if _stack else -1, name, time.perf_counter(), None])
        _stack.append(sid)
        try:
            return fn(*args, **kwargs)
        finally:
            _stack.pop()
            _spans[sid][3] = time.perf_counter()

    return wrapper


def _note_cm_sweep(lam, sign, max_order=6, grid=None, cfg=config.DEFAULT_CONFIG, **_):
    _cm_sweeps.append((float(lam), sign, max_order,
                       None if grid is None else tuple(grid), cfg.working_digits))


def _install() -> None:
    for module in (specfun, monotone, bounds):
        short = module.__name__.rsplit(".", 1)[1]
        for name in module.__all__:
            fn = getattr(module, name)
            if inspect.isfunction(fn):
                on_call = _note_cm_sweep if fn is monotone.cm_check else None
                setattr(module, name, _traced(f"{short}.{name}", fn, on_call))

    run_claim = harness._run_claim

    def claim_span(claim, cfg, grid):
        return _traced(f"harness.claim.{claim.claim_id}", run_claim)(claim, cfg, grid)

    harness._run_claim = claim_span

    quad = mp.quad

    def counted_quad(f, *args, **kwargs):
        def integrand(*xs):
            _quad_evals[0] += 1
            return f(*xs)

        return quad(integrand, *args, **kwargs)

    mp.quad = _traced("mpmath.quad", counted_quad)
    config.PrecisionConfig.doubled = _traced("config.doubled", config.PrecisionConfig.doubled)


def _summary() -> dict:
    child_s = [0.0] * len(_spans)
    for parent, _, t0, t1 in _spans:
        if parent >= 0:
            child_s[parent] += t1 - t0
    layers: dict = {}
    for sid, (_, name, t0, t1) in enumerate(_spans):
        row = layers.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += t1 - t0
        row["self_s"] += t1 - t0 - child_s[sid]
    return {
        "layers": layers,
        "quad_evals": _quad_evals[0],
        "cm_sweeps": len(_cm_sweeps),
        "cm_distinct_sweeps": len(set(_cm_sweeps)),
    }


def main(argv: list) -> int:
    spans_path, summary_path, cli_argv = argv[0], argv[1], argv[2:]
    _install()
    code = cli.main(cli_argv)
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as fh:
        for sid, (parent, name, t0, t1) in enumerate(_spans):
            fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                 "t0": t0, "t1": t1}) + "\n")
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(_summary(), fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
