"""Warm per-call microbenchmarks of gammacert's layer functions at 15 and 30 digits.

Usage (PYTHONPATH must put the checkout's ``src/`` first):

    python3 perfbench/micro_child.py

Each case is called twice before timing (the first call fills mpmath's
Bernoulli and quadrature-node caches, the second sizes the batch), then timed
in batches of about 20 ms; the median batch gives microseconds per call.
Every result is also checked at 60 digits against mpmath's own functions or
a direct formula: a SpecialValue must enclose the reference within its
certified error bound.  Prints one JSON object: ``{"metrics":
{"micro.<fn>[.m<k>].d<digits>.us": ...}, "failed": [case names]}``.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

from mpmath import mp

from gammacert import monotone, specfun
from gammacert.config import PrecisionConfig

DIGITS = (15, 30)
X = 2.5
LAM = 1.5
LAMBDA_STAR = mp.mpf("0.6518498903412566")  # 50-digit maximiser value of h


def _within_bound(sv, exact) -> bool:
    return abs(sv.value - exact) <= sv.abs_error_bound


def _close(value, exact) -> bool:
    # phi and h carry no error bound; the sweeps that use them compare float64
    # margins, so agreement to 12 significant digits is what they rely on
    return abs(value - exact) <= mp.mpf("1e-12") * abs(exact)


def _phi_ref(t):
    t = mp.mpf(t)
    return mp.exp(-t / 2) / t - 1 / mp.expm1(t) - t * mp.exp(-LAM * t) / 24


def _h_ref(t):
    t = mp.mpf(t)
    return -mp.log(24 / t ** 2 * (mp.exp(-t / 2) - t / mp.expm1(t))) / t


def _binet_ref(x):
    x = mp.mpf(x)
    return mp.loggamma(x) - (x - mp.mpf(1) / 2) * mp.log(x) + x - mp.log(2 * mp.pi) / 2


# name -> (call(cfg), check(result) -> bool); checks run at 60 digits
CASES = {
    "ln_gamma": (lambda cfg: specfun.ln_gamma(X, cfg),
                 lambda r: _within_bound(r, mp.loggamma(X))),
    "digamma": (lambda cfg: specfun.digamma(X, cfg),
                lambda r: _within_bound(r, mp.digamma(X))),
    **{
        f"polygamma.m{m}": (
            lambda cfg, m=m: specfun.polygamma(m, X, cfg),
            lambda r, m=m: _within_bound(r, mp.polygamma(m, X)),
        )
        for m in range(1, 7)
    },
    # below and above the t = 1e-3 switch from the Taylor form to the direct form
    "phi_integrand.taylor": (lambda cfg: monotone.phi_integrand(mp.mpf("1e-4"), LAM),
                             lambda r: _close(r, _phi_ref("1e-4"))),
    "phi_integrand.direct": (lambda cfg: monotone.phi_integrand(mp.mpf(1), LAM),
                             lambda r: _close(r, _phi_ref(1))),
    "h_of_t": (lambda cfg: monotone.h_of_t(mp.mpf(2)),
               lambda r: _close(r, _h_ref(2))),
    "binet_theta": (lambda cfg: specfun.binet_theta(X, cfg),
                    lambda r: _within_bound(r, _binet_ref(X))),
    "laplace_check": (lambda cfg: monotone.laplace_check(1.0, 0.5, cfg),
                      lambda r: abs(r) < 1e-10),
    "cm_check": (lambda cfg: monotone.cm_check(0.5, "plus", cfg=cfg),
                 lambda r: r.verdict == "verified"),
    "lambda_star": (lambda cfg: monotone.lambda_star(1e-8, cfg),
                    lambda r: abs(r.lambda_star - LAMBDA_STAR) < 1e-8),
}


def per_call_us(call, cfg) -> tuple:
    """(median microseconds per call, last result) at cfg's working precision."""
    with mp.workdps(cfg.dps):
        call(cfg)
        t0 = time.perf_counter()
        result = call(cfg)
        warm = time.perf_counter() - t0
        batch = max(1, int(0.02 / warm))
        samples = []
        for _ in range(5 if batch > 1 else 3):
            t0 = time.perf_counter()
            for _ in range(batch):
                call(cfg)
            samples.append((time.perf_counter() - t0) / batch)
    return statistics.median(samples) * 1e6, result


def main() -> int:
    metrics, failed = {}, []
    for digits in DIGITS:
        cfg = PrecisionConfig(working_digits=digits)
        for name, (call, check) in CASES.items():
            us, result = per_call_us(call, cfg)
            metrics[f"micro.{name}.d{digits}.us"] = us
            with mp.workdps(60):
                ok = check(result)
            if not ok:
                failed.append(f"{name}.d{digits}")
    print(json.dumps({"metrics": metrics, "failed": failed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
