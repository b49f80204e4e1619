"""Acceptance gate: one test per criterion, with printed pass/fail lines.

Criteria 3-5 share a 100-seed batch of the first-order heavy-tail setup
(cosine objective, dim 10, Pareto tail 1.8, moment index 1.5, Euclidean
norm) at T = 10^4, the middle horizon of criterion 1's grid.  The
second-order comparison uses tail index 2.5 so that the p = 2 moment the
schedule needs is finite.
"""

import math
import time

import numpy as np
import pytest

from tailopt.harness import (RunConfig, _certified_descent, descent_check,
                             eps_hat_check, last_iterate_check, rate_sweep, run)
from tailopt.spaces import NormedSpace
from tailopt.verify import coverage_rows, majorant_checks, truncation_rows

# the whole gate takes minutes; `pytest -m "not slow"` leaves it out
pytestmark = pytest.mark.slow

DELTA = 0.1


def band(level: float, n: int) -> float:
    """95% binomial band around a proportion at the stated level."""
    return 1.96 * math.sqrt(level * (1.0 - level) / n)


def report(criterion: int, passed: bool, detail: str):
    print(f"[criterion {criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


def crit1_config(**kw) -> RunConfig:
    base = dict(algorithm="nsgd", problem="cosine_sum", dim=10, q=2.0,
                p_moment=1.5, tail_index=1.8, noise_scale=1.0, seed=0,
                delta=DELTA, T=10_000)
    base.update(kw)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def burn_in_batch():
    """100 seeded trajectories of criterion 1's setup at T = 10^4."""
    return list(run(crit1_config(seeds=100)))


def test_criterion_1_first_order_rate_exponent():
    t0 = time.time()
    res = rate_sweep(crit1_config(seeds=20), [1_000, 10_000, 100_000])
    elapsed = time.time() - t0
    ok = abs(res.slope - (-0.20)) <= 0.12 and elapsed <= 300.0
    report(1, ok,
           f"fitted slope {res.slope:.4f} (target -0.20 +/- 0.12, scheduled "
           f"{res.target:.2f}), {elapsed:.0f}s of 300s budget")


def test_criterion_2_second_order_comparison():
    mins = {}
    for algo in ("nsgd", "nigt"):
        cfg = crit1_config(algorithm=algo, p_moment=2.0, tail_index=2.5,
                           T=100_000, seeds=20)
        mins[algo] = float(np.mean([t.grad_norm.min() for t in run(cfg)]))
    ratio = mins["nigt"] / mins["nsgd"]
    report(2, ratio <= 1.1,
           f"min-gradient ratio nigt/nsgd = {ratio:.3f} (allowed 1.1; "
           f"nsgd {mins['nsgd']:.4f}, nigt {mins['nigt']:.4f})")


def _window_max(trajectories, field: str) -> float:
    """The largest value of a per-step field in the certified window of any
    trajectory: the realized figure a criterion's bound is compared with."""
    return max(float(getattr(t, field)[_certified_descent(t)[0]].max())
               for t in trajectories)


def _slack(bound: float, realized: float) -> str:
    return f"slack {bound / realized:.3g} (bound {bound:.4g} / realized max {realized:.4g})"


def test_criterion_3_burn_in_descent(burn_in_batch):
    trajectories = burn_in_batch
    cert = trajectories[0].cert
    checks = [descent_check(t) for t in trajectories]
    qualifying = sum(q for q, _ in checks)
    bad_seeds = sum(v > 0 for _, v in checks)
    allowed = DELTA + band(DELTA, len(trajectories))
    frac = bad_seeds / len(trajectories)
    report(3, frac <= allowed,
           f"{bad_seeds}/{len(trajectories)} seeds violate certified descent "
           f"(fraction {frac:.3f}, allowed {allowed:.3f}); {qualifying} "
           f"qualifying steps, ||m_t|| "
           + _slack(cert.momentum_threshold, _window_max(trajectories, "m_norm")))


def test_criterion_4_momentum_error_certificate(burn_in_batch):
    trajectories = burn_in_batch
    cert = trajectories[0].cert
    clean = sum(eps_hat_check(t) == 0 for t in trajectories)
    checked = sum(t.eps_hat[_certified_descent(t)[0]].size for t in trajectories)
    needed = (1.0 - DELTA) - band(1.0 - DELTA, len(trajectories))
    frac = clean / len(trajectories)
    report(4, frac >= needed,
           f"momentum error within bound on {clean}/{len(trajectories)} seeds "
           f"(fraction {frac:.3f}, needed {needed:.3f}); {checked} qualifying "
           f"(post-burn-in) steps, eps_hat "
           + _slack(cert.momentum_error_bound, _window_max(trajectories, "eps_hat")))


def test_criterion_5_last_iterate(burn_in_batch):
    trajectories = burn_in_batch
    cert = trajectories[0].cert
    good = sum(last_iterate_check(t) for t in trajectories)
    qualifying = sum(descent_check(t)[0] for t in trajectories)
    needed = (1.0 - DELTA) - band(1.0 - DELTA, len(trajectories))
    frac = good / len(trajectories)
    report(5, frac >= needed,
           f"last iterate no worse than the reference step on "
           f"{good}/{len(trajectories)} seeds (fraction {frac:.3f}, "
           f"needed {needed:.3f}); {qualifying} qualifying steps, ||m_t|| "
           + _slack(cert.momentum_threshold, _window_max(trajectories, "m_norm")))


def test_criterion_6_scalar_reduction_majorant():
    t0 = time.time()
    rng = np.random.default_rng(2026)
    spaces = [NormedSpace.euclidean(4), NormedSpace(dim=4, primal_exponent=1.5)]
    checks = [c for space in spaces for c in majorant_checks(space, rng, 10_000)]
    violations = sum(c.violations for c in checks)
    total = sum(c.samples for c in checks)
    elapsed = time.time() - t0
    report(6, violations == 0 and elapsed <= 60.0,
           f"{violations}/{total} majorant violations across "
           f"{{l2 (C=1), dual of l_1.5 (C=2)}} x lengths {{1,10,100}}, "
           f"{elapsed:.0f}s of 60s budget")


def test_criterion_7_concentration_coverage():
    rng = np.random.default_rng([2026, 0xC0FE])
    lines = []
    ok = True
    for name, level, res in coverage_rows(10_000, 100, DELTA, rng):
        good = res.meets(level)
        ok &= good
        lines.append(f"{name.replace('coverage_', '')}={res.coverage:.4f}"
                     f" (stated {level:g})")
    report(7, ok, "coverage at delta=0.1, 1e4 trials: " + ", ".join(lines))


def test_criterion_8_truncation_bias_variance():
    rows = truncation_rows(np.random.default_rng(99), 200_000)
    ok = all(margin >= 0 for *_, margin in rows)
    report(8, ok, "; ".join(
        f"tau={tau:g}: bias {est.bias:.3g}<={bias_bound:.3g}, "
        f"var {est.variance:.3g}<={var_bound:.3g}"
        for tau, est, bias_bound, var_bound, _ in rows))


def test_criterion_9_full_verification_suite(tmp_path):
    from tailopt import cli

    t0 = time.time()
    exit_code = cli.main(["verify", "--seed", "0", "--delta", str(DELTA),
                          "--out", str(tmp_path)])
    elapsed = time.time() - t0
    rows = (tmp_path / "verify_report.csv").read_text().splitlines()[1:]
    failures = [r.split(",")[0] for r in rows if r.rsplit(",", 1)[1] == "0"]
    total_violations = sum(int(r.split(",")[2]) for r in rows)
    report(9, exit_code == 0 and not failures and elapsed <= 600.0,
           f"verify subcommand exit {exit_code} in {elapsed:.0f}s of 600s "
           f"budget; {len(rows)} checks, {total_violations} violations, "
           f"failures {failures or 'none'}")
