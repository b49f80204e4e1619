"""The release-gate invariant suite behind the ``verify`` subcommand.

Every lemma-level property the library relies on is swept here at its
full sample size: norm-pair identities, smooth-norm and smoothness
inequalities, one-step descent, oracle moments and tails, the scalar
reduction majorant, power means, bound monotonicity, Monte-Carlo coverage
of every probabilistic bound, truncation bias/variance, and the
structural invariants of an actual trajectory (including determinism).

Each check reports its sample count, violation count, and the most
adverse margin observed; the suite passes only with zero violations
everywhere.

The suite runs in two lanes, split by generator.  The calling thread
draws the norm-pair, problem and one-step sections from the suite's
generator, then hands it to one worker thread for the oracle, majorant,
s-bound and power-mean sections, and meanwhile runs the sections that draw
from generators of their own: coverage (``[seed, 0xC0FE]``), the tail
moments (``[seed, 0x7A11, i]``), truncation (``[seed, 0x7B1A5]``) and the
trajectory checks (their run seeds).  The rows are those of one serial
pass, in its order.  The calling thread keeps both sections whose batches
are large: the norm-pair identities, evaluated a chunk of rows at a time
over their whole-batch draws, and coverage.  The Monte Carlo draws of the
worker's sections and of the tail moments are streamed in leaves.
"""

from __future__ import annotations

import contextvars
import copy
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from tailopt import concentration as conc
from tailopt.analysis import (central_diff_gradient, central_diff_hessian_vec,
                              descent_step_gap, second_order_gaps,
                              smoothness_gap)
from tailopt.harness import (RunConfig, build_experiment,
                             check_trajectory_invariants, run_trajectory)
from tailopt.problems import (HeavyTailNoise, make_problem, pareto_moment,
                              pareto_radii)
from tailopt.spaces import NormedSpace

__all__ = ["CheckResult", "run_verification_suite", "coverage_rows",
           "majorant_checks", "oracle_moment_checks", "tail_moment_checks",
           "truncation_rows", "DEFAULT_SIZES", "SPACE_GRID"]

# primal exponents of the supported sweep spaces: duals l_2, l_3, l_6
SPACE_GRID = (2.0, 1.5, 1.2)

DEFAULT_SIZES = {
    "duality": 100_000,        # random dual vectors per space
    "clip": 50_000,
    "holder": 50_000,
    "smooth_norm": 10_000,     # pairs per space
    "problem_smooth": 10_000,
    "second_order": 10_000,
    "one_step": 10_000,
    "fd_points": 25,
    "unbias_n": 1_000_000,
    "moment_n": 10_000_000,
    "tail_seeds": 10,
    "tail_n": 10_000_000,
    "majorant_streams": 10_000,
    "s_bound_draws": 100_000,
    "power_mean": 100_000,
    "coverage_trials": 10_000,
    "coverage_len": 100,
    "trunc_trials": 200_000,
    "smoke_T": 2_000,
}

# the smallest size each check can use: tail_n needs a first tenth,
# power_mean splits its draws into 64 batches, and the truncation estimate
# refuses fewer than 1e5 trials
_SIZE_FLOORS = {**dict.fromkeys(DEFAULT_SIZES, 1), "tail_n": 10, "power_mean": 64,
                "trunc_trials": 100_000}

# values per leaf of the streamed Monte Carlo draws: a check draws, reduces
# and frees one leaf before the next, so it holds a few leaves at any size
_LEAF = 2 ** 17


@dataclass(frozen=True)
class CheckResult:
    name: str
    samples: int
    violations: int
    worst: float
    passed: bool
    note: str = ""

    def row(self) -> dict:
        return {"check": self.name, "samples": self.samples,
                "violations": self.violations, "worst": float(self.worst),
                "pass": int(self.passed)}


def _slack_check(name, slack, tol, note="") -> CheckResult:
    slack = np.asarray(slack)
    violations = int(np.sum(slack < -tol))
    return CheckResult(name=name, samples=int(slack.size), violations=violations,
                       worst=float(slack.min()), passed=violations == 0, note=note)


def _spaces(dim):
    return [NormedSpace(dim=dim, primal_exponent=p) for p in SPACE_GRID]


def _checked_inputs(sizes: dict | None, delta: float) -> dict:
    """DEFAULT_SIZES updated by ``sizes``, each key known and each size an
    integer its check can use, with ``delta`` in (0, 1); a ValueError names
    the first input that is not."""
    sizes = sizes or {}
    for key, size in sizes.items():
        if key not in DEFAULT_SIZES:
            raise ValueError(f"unknown verify size {key!r}")
        if (isinstance(size, bool) or not isinstance(size, int)
                or size < _SIZE_FLOORS[key]):
            raise ValueError(f"verify size {key!r} must be an integer >= "
                             f"{_SIZE_FLOORS[key]}, got {size!r}")
    if not (isinstance(delta, numbers.Real) and 0.0 < delta < 1.0):
        raise ValueError(f"verify delta must be in (0, 1), got {delta!r}")
    return {**DEFAULT_SIZES, **sizes}


def _pairwise_sum(draw, n: int, leaf: int = _LEAF):
    """``np.add.reduce(values, axis=-1)`` of n values that ``draw(m)`` hands
    over in stream order, m at a time, at most ``leaf`` of them at once.

    n is split as numpy's pairwise summation splits it (half, rounded down
    to a multiple of 8) until a segment fits in a leaf, and each leaf is
    reduced by numpy itself, so the sum has the bits of one reduce over the
    whole stream.  ``draw`` may return (k, m) to sum k streams at once;
    ``leaf`` must be at least numpy's unsplit block of 128.
    """
    if n <= leaf:
        return np.add.reduce(draw(n), axis=-1)
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(draw, half, leaf) + _pairwise_sum(draw, n - half, leaf)


def _paired_draw(rng: np.random.Generator, n: int, leaf_rows: int, first, second):
    """``take(m)``: the next m rows of ``first(rng, n)`` and of
    ``second(rng, n)``, two whole draws taken from ``rng`` one after the
    other, as a pair of leaves.

    A copy of ``rng`` supplies the first draw.  ``rng`` itself walks past
    it, ``leaf_rows`` rows at a time, and then supplies the second, so the
    leaves have the bits of the whole draws and ``rng`` ends where they
    leave it.  Both draws must give the same rows however they are split.
    """
    ahead = copy.deepcopy(rng)
    for start in range(0, n, leaf_rows):
        first(rng, min(leaf_rows, n - start))
    return lambda m: (first(ahead, m), second(rng, m))


def run_verification_suite(seed: int = 0, sizes: dict | None = None,
                           delta: float = 0.1) -> list[CheckResult]:
    """Every check at ``seed``, sized by DEFAULT_SIZES updated by ``sizes``,
    with the coverage checks' bounds stated at confidence ``delta``.  An
    unknown key, a size its check cannot use or a ``delta`` outside (0, 1)
    is a ValueError naming it, raised before anything is drawn.

    The checks run in two lanes, split by the generator they draw from.
    The calling thread draws the norm-pair, problem and one-step sections
    from the suite's generator ``[seed, 0x7E51]`` and then hands it to one
    worker thread, which draws the oracle, majorant, s-bound and power-mean
    sections from it.  Meanwhile the calling thread runs the sections that
    draw from generators of their own: coverage, the tail moments,
    truncation and the trajectory checks.  Every generator is drawn in the
    order of one serial pass, and the results come back in the module's
    order, so they are those of a serial run, bit for bit.  The worker runs
    in a copy of the caller's context, so under its ``np.errstate``.  Both
    lanes are joined before the suite returns or raises, and an error in
    either surfaces with its own type.
    """
    sz = _checked_inputs(sizes, delta)
    rng = np.random.default_rng([seed, 0x7E51])
    dim = 8
    results = _norm_pair_checks(rng, sz, dim)
    problems = {
        "cosine_sum": make_problem("cosine_sum", dim, amplitude=1.0),
        "quadratic": make_problem("quadratic", dim, eig_min=0.5, eig_max=2.0),
    }
    e_space = NormedSpace.euclidean(dim)
    results += _problem_checks(problems, e_space, rng, sz)
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="verify") as lane:
        # from here on only the worker draws from rng
        shared = lane.submit(contextvars.copy_context().run, _shared_rng_checks,
                             problems["cosine_sum"], e_space, rng, sz)
        coverage = _coverage_checks(seed, sz["coverage_trials"], sz["coverage_len"],
                                    delta)
        tail = tail_moment_checks(seed, sz["tail_seeds"], sz["tail_n"])
        truncation = _truncation_check(seed, sz["trunc_trials"])
        trajectory = _trajectory_checks(seed, sz["smoke_T"])
        oracle, streams = shared.result()
    return [*results, *oracle, *tail, *streams, _bound_monotonicity_check(),
            *coverage, truncation, *trajectory]


def _by_rows(fn, *batches) -> np.ndarray:
    """``fn(*batches)`` for a row-wise ``fn`` of (n, dim) batches, evaluated
    on ``_LEAF`` values of each batch at a time: a row of ``spaces`` gets
    the bits of its norm and map in any batch, so each row of the result
    has the bits of one call on the whole batches, and the call's
    temporaries are a chunk's, not a batch's."""
    n, dim = batches[0].shape
    rows = _LEAF // dim
    out = None
    for start in range(0, n, rows):
        part = fn(*(b[start:start + rows] for b in batches))
        if out is None:
            out = np.empty((n, *part.shape[1:]))
        out[start:start + len(part)] = part
    return out


def _duality_slacks(space: NormedSpace, v) -> np.ndarray:
    """(unit-norm slack, pairing slack) of the duality map, per row of v."""
    d = space.duality_map(v)
    unit_err = np.abs(np.asarray(space.primal_norm(d)) - 1.0)
    dn = np.asarray(space.dual_norm(v))
    pair_err = np.abs(np.asarray(space.pairing(v, d)) - dn) / dn
    return np.column_stack((1e-10 - unit_err, 1e-10 - pair_err))


def _clip_slacks(space: NormedSpace, v, tau: float) -> np.ndarray:
    """(norm-identity slack, the dim idempotence slacks) of clipping each
    row of v at tau."""
    c = space.clip_dual(v, tau)
    norm_err = np.abs(np.asarray(space.dual_norm(c))
                      - np.minimum(tau, np.asarray(space.dual_norm(v))))
    cc = space.clip_dual(c, tau)
    idem = np.abs(cc - c) - 4.0 * np.spacing(np.abs(c))
    return np.column_stack((1e-12 * tau - norm_err, -idem))


def _holder_slack(space: NormedSpace, v, w) -> np.ndarray:
    return (np.asarray(space.dual_norm(v)) * np.asarray(space.primal_norm(w))
            - np.asarray(space.pairing(v, w)))


def _norm_pair_checks(rng: np.random.Generator, sz: dict,
                      dim: int) -> list[CheckResult]:
    """The duality, clip, Hölder and smooth-norm identities of each sweep
    space, on whole batches drawn from ``rng`` in that order.

    The duality, clip and Hölder identities are evaluated a chunk of rows
    at a time (``_by_rows``), and each identity frees its batches before
    the next is drawn, so the section holds one identity's batches, its
    slacks and a chunk's temporaries.
    """
    results = []
    for space in _spaces(dim):
        tag = f"p={space.primal_exponent:g}"
        n = sz["duality"]
        v = rng.standard_normal((n, dim))
        v *= rng.choice([1e-3, 1.0, 1e3], size=(n, 1))
        slack = _by_rows(lambda v: _duality_slacks(space, v), v)
        results.append(_slack_check(f"duality_unit_norm[{tag}]", slack[:, 0], 0.0))
        results.append(_slack_check(f"duality_pairing[{tag}]", slack[:, 1], 0.0))
        del v, slack

        n = sz["clip"]
        v = rng.standard_normal((n, dim))
        v *= rng.lognormal(0, 3, size=(n, 1))
        tau = 1.7
        slack = _by_rows(lambda v: _clip_slacks(space, v, tau), v)
        results.append(_slack_check(f"clip_norm_identity[{tag}]", slack[:, 0], 0.0))
        results.append(_slack_check(f"clip_idempotent[{tag}]", slack[:, 1:], 0.0))
        del v, slack

        n = sz["holder"]
        v = rng.standard_normal((n, dim))
        w = rng.standard_normal((n, dim))
        results.append(_slack_check(
            f"holder[{tag}]", _by_rows(lambda v, w: _holder_slack(space, v, w), v, w),
            1e-9))
        del v, w

        n = sz["smooth_norm"]
        x = rng.standard_normal((n, dim))
        y = rng.standard_normal((n, dim)) * rng.choice([0.01, 1.0, 5.0], size=(n, 1))
        results.append(_slack_check(
            f"smooth_norm[{tag}]", space.smooth_norm_gap(x, y), 1e-9,
            note=f"C={space.smooth_constant:g}"))
    return results


def _problem_checks(problems: dict, e_space: NormedSpace, rng: np.random.Generator,
                    sz: dict) -> list[CheckResult]:
    """Smoothness, second-order and finite-difference checks of each
    problem, then one-step descent on the cosine sum in two spaces, drawn
    from ``rng`` in that order."""
    results = []
    dim = e_space.dim
    for kind, prob in problems.items():
        n = sz["problem_smooth"]
        x = rng.standard_normal((n, dim)) * 3.0
        y = rng.standard_normal((n, dim)) * 3.0
        results.append(_slack_check(f"smoothness_upper[{kind}]",
                                    smoothness_gap(prob, x, y, e_space), 1e-9))
        n = sz["second_order"]
        x = rng.standard_normal((n, dim)) * 3.0
        y = rng.standard_normal((n, dim)) * 3.0
        value_gap, grad_gap = second_order_gaps(prob, x, y, e_space)
        results.append(_slack_check(f"second_order_value[{kind}]", value_gap, 1e-9))
        results.append(_slack_check(f"second_order_grad[{kind}]", grad_gap, 1e-9))

        worst = 0.0
        for _ in range(sz["fd_points"]):
            w = rng.standard_normal(dim) * 2.0
            v = rng.standard_normal(dim)
            fd_g = central_diff_gradient(prob.value, w)
            g = prob.gradient(w)
            worst = max(worst, float(np.max(np.abs(g - fd_g)
                                            / np.maximum(np.abs(fd_g), 1.0))))
            fd_h = central_diff_hessian_vec(prob.gradient, w, v)
            hv = prob.hessian_diag(w) * v
            worst = max(worst, float(np.max(np.abs(hv - fd_h)
                                            / np.maximum(np.abs(fd_h), 1.0))))
        results.append(CheckResult(f"finite_difference[{kind}]", sz["fd_points"] * 2,
                                   int(worst > 1e-6), worst, worst <= 1e-6))

    # one-step descent on the curvy objective, across spaces and rates
    prob = problems["cosine_sum"]
    for space in (e_space, NormedSpace(dim=dim, primal_exponent=1.5)):
        n = sz["one_step"]
        w = rng.standard_normal((n, dim)) * 2.0
        g_star = rng.standard_normal((n, dim)) * 3.0
        lr = float(rng.uniform(0.01, 0.5))
        results.append(_slack_check(
            f"one_step_descent[p={space.primal_exponent:g}]",
            descent_step_gap(prob, w, g_star, lr, space), 1e-9))
    return results


def _shared_rng_checks(prob, e_space: NormedSpace, rng: np.random.Generator,
                       sz: dict) -> tuple[list[CheckResult], list[CheckResult]]:
    """The sections that draw from the suite's generator after the problem
    checks, in order: the oracle moments, the majorant and s-bound checks
    of each stream space, and the power means.  Returns (the oracle rows,
    the rest)."""
    oracle = oracle_moment_checks(prob, e_space, rng, sz["unbias_n"], sz["moment_n"])
    results = []
    for space in (NormedSpace.euclidean(4), NormedSpace(dim=4, primal_exponent=1.5)):
        tag = f"dual_r={space.dual_exponent:g}"
        results.extend(majorant_checks(space, rng, sz["majorant_streams"]))
        n_draws = sz["s_bound_draws"]
        length = 20
        n = max(1, n_draws // length)
        xs = rng.standard_normal((n, length, 4)) * rng.lognormal(0, 1, (n, length, 1))
        s = conc.s_sequence_batch(xs, space)
        norms = np.asarray(space.dual_norm(xs))
        results.append(_slack_check(f"s_bounded_by_increment[{tag}]",
                                    (norms - np.abs(s)).ravel(), 1e-12))

    n = sz["power_mean"]
    worst = np.inf
    for _ in range(64):
        xs = rng.lognormal(0, 1, size=(n // 64, 5))
        lo = rng.uniform(0.2, 2.0)
        hi = lo + rng.uniform(0.0, 2.0)
        worst = min(worst, float(np.min(conc.power_mean_check(xs, lo, hi))))
    results.append(CheckResult("power_mean", n, int(worst < -1e-12), worst,
                               worst >= -1e-12))
    return oracle, results


def _bound_monotonicity_check() -> CheckResult:
    """The Freedman bounds grow with the radius and shrink with delta, and
    the truncated-sum bounds grow with the moment bound, on fixed grids."""
    sig = np.ones(20)
    grids_ok = True
    rs = np.linspace(0.1, 4.0, 7)
    deltas = np.geomspace(1e-4, 0.5, 7)
    for fn in (lambda r, d: conc.freedman_scalar_bound(r, sig, d),
               lambda r, d: conc.freedman_hilbert_bound(r, sig, d),
               lambda r, d: conc.freedman_banach_bound(r, sig, d, 2.0)):
        for d in deltas:
            grids_ok &= bool(np.all(np.diff([fn(r, d) for r in rs]) >= 0))
        for r in rs:
            grids_ok &= bool(np.all(np.diff([fn(r, d) for d in deltas]) <= 0))
    for variant in ("hilbert", "banach"):
        vals = [conc.truncated_sum_bound(conc.WeightedStreamSpec(
            weights=[1.0], moment_bounds=[g], threshold=2.0, p_moment=1.5,
            delta=0.1, smooth_constant=2.0), variant)
            for g in np.linspace(0.5, 4.0, 7)]
        grids_ok &= bool(np.all(np.diff(vals) >= 0))
    return CheckResult("bound_monotonicity", 7 * 7 * 3 * 2 + 14,
                       int(not grids_ok), 0.0, grids_ok)


def _coverage_checks(seed: int, trials: int, length: int,
                     delta: float) -> list[CheckResult]:
    """The coverage rows at confidence delta, drawn from ``[seed, 0xC0FE]``."""
    results = []
    cov_rng = np.random.default_rng([seed, 0xC0FE])
    for name, level, res in coverage_rows(trials, length, delta, cov_rng):
        # a bound at level 1-d is allowed d*trials misses; the violation is
        # coverage dropping significantly below the stated level: the upper
        # end of the 95% Clopper-Pearson interval below it, with probability
        # at most 0.025 when the bound holds (the most when it is tight)
        results.append(CheckResult(
            name, trials, int(not res.meets(level)), res.coverage,
            res.meets(level),
            note=f"stated>={level:g}, misses={trials - res.successes}, "
                 f"ci=({res.ci_low:.4f},{res.ci_high:.4f}); false alarm "
                 f"<= 0.025 (one-sided Clopper-Pearson), above the 1e-4 target"))
    return results


def _truncation_check(seed: int, trials: int) -> CheckResult:
    """Truncation bias and variance against their bounds, drawn from
    ``[seed, 0x7B1A5]``."""
    rows = truncation_rows(np.random.default_rng([seed, 0x7B1A5]), trials)
    worst_margin = min(margin for *_, margin in rows)
    # a tight bound fails when its estimate lies 3 standard errors above
    # it: the bias, a 1-D norm, two-sided, the variance one-sided
    false_alarm = len(rows) * 1.5 * math.erfc(3.0 / math.sqrt(2.0))
    return CheckResult("truncation_bias_variance", len(rows) * trials,
                       int(worst_margin < 0), worst_margin, worst_margin >= 0,
                       note=f"bias and variance within 3 s.e. of their bounds "
                            f"at {len(rows)} thresholds; false alarm <= "
                            f"{false_alarm:.2g} (normal approx), above the "
                            f"1e-4 target")


def _trajectory_checks(seed: int, T: int) -> list[CheckResult]:
    """The structural invariants and determinism of a T-step trajectory at
    ``seed``, and nigt reducing to nsgd at beta = 0 on a shared stream."""
    results = []
    cfg = RunConfig(T=T, seed=seed, p_moment=1.5, tail_index=1.8,
                    calib_samples=10_000)
    exp = build_experiment(cfg)
    traj = run_trajectory(exp, seed)
    inv = check_trajectory_invariants(traj)
    for key, passed in inv.items():
        results.append(CheckResult(f"trajectory_{key}", traj.horizon,
                                   int(not passed), 0.0, passed))
    again = run_trajectory(exp, seed)
    same = (np.array_equal(traj.objective, again.objective)
            and np.array_equal(traj.m_norm, again.m_norm)
            and np.array_equal(traj.final_w, again.final_w))
    results.append(CheckResult("trajectory_determinism", traj.horizon,
                               int(not same), 0.0, same))
    # extrapolated rule reduces to the plain one at beta = 0 on a shared stream
    tiny = RunConfig(T=200, seed=seed, calib_samples=10_000)
    exp_a = build_experiment(tiny)
    hp0 = exp_a.hp
    forced = replace(hp0, alpha=1.0, beta=0.0,
                     tau=hp0.grad_bound)  # tau = G / 1^(1/p)
    t_plain = run_trajectory(replace(exp_a, hp=forced), seed)
    # the same experiment and schedule; a step reads only the config's algorithm
    t_igt = run_trajectory(replace(exp_a, config=replace(tiny, algorithm="nigt"),
                                   hp=forced), seed)
    equal = (np.array_equal(t_plain.objective, t_igt.objective)
             and np.array_equal(t_plain.m_norm, t_igt.m_norm))
    results.append(CheckResult("nigt_equals_nsgd_at_beta0", 200,
                               int(not equal), 0.0, equal))
    return results


def oracle_moment_checks(problem, space: NormedSpace, rng: np.random.Generator,
                         n_unbias: int, n_moment: int) -> list[CheckResult]:
    """The Pareto(1.8) oracle's mean on n_unbias gradients at one point, and
    the closed-form radius moment on n_moment radii, drawn from ``rng`` in
    that order.

    Both are streamed in leaves: the gradients drawn as in
    :meth:`HeavyTailNoise.sample_batch` (all normals, then all radii) and
    combined by its own ``noisy_gradients``, their mean carried row after
    row as numpy's ``axis=0`` reduce adds them, and each moment summed by
    :func:`_pairwise_sum`.  So the rows have the bits of the whole-batch
    draws, and ``rng`` ends in the same state.
    """
    noise = HeavyTailNoise(p_moment=1.5, tail_index=1.8, scale=1.0)
    n = n_unbias
    w = np.full(space.dim, 0.7)
    grad = problem.gradient(w)
    rows = _LEAF // space.dim
    take = _paired_draw(rng, n, rows,
                        lambda gen, m: gen.standard_normal((m, space.dim)),
                        noise.sample_radii)
    total = np.zeros((1, space.dim))  # the running row sum, first in each reduce

    def noise_powers(m):
        g = noise.noisy_gradients(grad, *take(m), space)
        total[:] = np.add.reduce(np.concatenate((total, g)), axis=0)
        np.subtract(g, grad, out=g)  # the noise, in place
        return np.asarray(space.dual_norm(g)) ** 1.5

    emp = float(_pairwise_sum(noise_powers, n, rows) / n)
    mean_err = float(space.dual_norm(total[0] / n - grad))
    tol = 3.0 * emp ** (1 / 1.5) * n ** (-(1.5 - 1) / 1.5)
    # tol is 3 times the p-moment rate of the mean's error; the noise has
    # infinite variance, so no standard error or false-alarm bound is derived
    results = [CheckResult("oracle_unbiased", n, int(mean_err > tol),
                           mean_err, mean_err <= tol,
                           note=f"tol={tol:.3g}; no false-alarm bound derived "
                                f"(infinite variance)")]

    # The closed form at an order k < tail/2, where R^k has finite variance,
    # so the sample mean has a standard error to set the tolerance by; at
    # k >= tail/2 the sample mean converges slower than any fixed tolerance.
    n = n_moment
    k, z = 0.5, 5.0  # R^k is a square root
    target = noise.radius_moment(k)
    rel_se = math.sqrt((noise.radius_moment(2 * k) - target ** 2) / n) / target
    rel_bound = z * rel_se
    roots = np.empty(_LEAF)  # a leaf's roots, reused

    def leaf(m):
        return np.sqrt(noise.sample_radii(rng, m), out=roots[:m])

    rel = abs(float(_pairwise_sum(leaf, n) / n) / target - 1.0)
    false_alarm = math.erfc(z / math.sqrt(2.0))  # two-sided
    results.append(CheckResult("pareto_moment_closed_form", n, int(rel > rel_bound),
                               rel, rel <= rel_bound,
                               note=f"E R^{k:g} = {target:.6g}, tol {rel_bound:.2g} "
                                    f"rel ({z:g} s.e.); false alarm "
                                    f"{false_alarm:.2g} (normal approx)"))
    return results


def tail_moment_checks(seed: int, n_seeds: int, n: int) -> list[CheckResult]:
    """The divergence certificate on n_seeds Pareto(1.5) streams of n radii.

    The raw second moment must exceed (by the 1.2 factor) what any model
    with its tail clipped at the 1e-4 quantile could produce, while the
    sub-tail moment settles.  A prefix-ratio version of the growth test has
    constant per-seed failure probability (an early giant jump inflates the
    prefix), so the reference here is the deterministic closed-form clipped
    moment instead.

    The settling test takes R^k at k = 0.5 < tail/2, where R^k has the
    closed-form variance sigma^2 = E R^2k - (E R^k)^2.  The full mean minus
    the mean of the first tenth is 0.9 (rest - prefix), with standard error
    3 sigma / sqrt(n); a stream settles when that difference is within z
    standard errors.  Both checks need ceil(0.8 n_seeds) streams.  Under
    the normal approximation a stream misses with probability
    alpha = erfc(z / sqrt 2), so correct draws fail the settling check with
    probability at most C(n_seeds, m) alpha^m, m being one more than the
    misses it allows.

    Each stream is drawn and reduced in leaves by :func:`_pairwise_sum`,
    its squares and roots in one pass into one reused buffer, and its first
    tenth in a second pass from a fresh generator with the stream's seed;
    the means have the bits of whole-stream means.
    """
    grow, stable = 0, 0
    heavy = HeavyTailNoise(p_moment=1.2, tail_index=1.5)
    clip_ref = conc.clipped_pareto_second_moment(heavy.tail_index, heavy.scale,
                                                 100.0)
    k, z = 0.5, 3.5  # R^k is a square root
    sigma = math.sqrt(heavy.radius_moment(2 * k) - heavy.radius_moment(k) ** 2)
    tol = z * 3.0 * sigma / math.sqrt(n)
    n10 = n // 10
    powers = np.empty((2, _LEAF))  # a leaf's squares and roots, reused

    def stream(i):
        """the squares and roots of stream i, leaf by leaf from its start"""
        rng = np.random.default_rng([seed, 0x7A11, i])

        def leaf(m):
            r = heavy.sample_radii(rng, m)
            np.square(r, out=powers[0, :m])
            np.sqrt(r, out=powers[1, :m])
            return powers[:, :m]
        return leaf

    for i in range(n_seeds):
        square, root = _pairwise_sum(stream(i), n) / n
        first_tenth = stream(i)
        prefix = _pairwise_sum(lambda m: first_tenth(m)[1], n10) / n10
        grow += bool(square > 1.2 * clip_ref)
        stable += bool(abs(root - prefix) <= tol)
    need = math.ceil(0.8 * n_seeds)
    misses = n_seeds - need + 1
    false_alarm = math.comb(n_seeds, misses) * math.erfc(z / math.sqrt(2.0)) ** misses
    return [CheckResult("heavy_tail_second_moment_grows", n_seeds,
                        n_seeds - grow, float(grow), grow >= need),
            CheckResult("p_moment_stabilizes", n_seeds, n_seeds - stable,
                        float(stable), stable >= need,
                        note=f"E R^{k:g} of full vs first tenth within {z:g} s.e. "
                             f"(3 sigma/sqrt n) in >= {need} of {n_seeds}; "
                             f"false alarm <= {false_alarm:.1g} (normal approx)")]


def majorant_checks(space: NormedSpace, rng: np.random.Generator,
                    n_streams: int) -> list[CheckResult]:
    """The s-sequence majorant against ||sum_t X_t|| on n_streams streams
    of each length 1, 10 and 100: Gaussian increments with lognormal(0, 1.5)
    scales, drawn from ``rng`` length by length, all normals before all
    scales.

    The streams are drawn and checked a leaf of streams at a time by
    :func:`_paired_draw`, so each slack has the bits of the whole draw and
    ``rng`` ends in the same state.
    """
    tag = f"dual_r={space.dual_exponent:g}"
    results = []
    for length in (1, 10, 100):
        rows = max(1, _LEAF // (length * (space.dim + 1)))
        take = _paired_draw(rng, n_streams, rows,
                            lambda gen, m: gen.standard_normal((m, length, space.dim)),
                            lambda gen, m: gen.lognormal(0, 1.5, (m, length, 1)))
        slack = np.empty(n_streams)
        for start in range(0, n_streams, rows):
            u, scales = take(min(rows, n_streams - start))
            xs = np.multiply(u, scales, out=u)
            maj = conc.s_sequence_majorant_batch(xs, space)
            sums = np.asarray(space.dual_norm(np.sum(xs, axis=1)))
            slack[start:start + len(xs)] = maj - sums
        # check names land in a CSV report: keep them comma-free
        results.append(_slack_check(f"s_majorant[{tag};T={length}]", slack, 1e-9))
    return results


def truncation_rows(rng: np.random.Generator, trials: int):
    """(tau, estimate, bias bound, variance bound, margin) per threshold tau
    for norm-truncation of a symmetric Pareto(1.8) variable at p = 1.5; the
    margin, the smaller slack of the two bounds each widened by three
    standard errors, is negative on a violation."""
    a, p_m = 1.8, 1.5
    g_p = pareto_moment(a, 1.0, p_m)

    def sampler(r, n):
        sign = r.integers(0, 2, size=n) * 2.0 - 1.0
        return sign * pareto_radii(r, n, a)

    rows = []
    for tau in (2.0, 5.0, 10.0, 20.0, 50.0):
        est = conc.truncation_bias_variance_mc(sampler, 0.0, tau, trials, rng)
        bias_bound = g_p / tau ** (p_m - 1.0)
        var_bound = g_p * tau ** (2.0 - p_m)
        margin = min(bias_bound + 3 * est.bias_se - est.bias,
                     var_bound + 3 * est.variance_se - est.variance)
        rows.append((tau, est, bias_bound, var_bound, margin))
    return rows


def coverage_rows(trials: int, length: int, delta: float,
                  rng: np.random.Generator):
    """(name, stated level, CoverageResult) for every probabilistic bound.

    Stated levels: the scalar and truncated bounds fail with probability
    delta; the Hilbert Freedman bound is stated at 1 - 3*delta for its
    per-invocation delta; the Banach form already folds the union bound
    into its log(3/delta) terms.
    """
    return [
        ("coverage_freedman_scalar", 1.0 - delta,
         conc.freedman_scalar_coverage(trials, length, delta, rng)),
        ("coverage_freedman_hilbert", 1.0 - 3.0 * delta,
         conc.freedman_vector_coverage("hilbert", trials, length, delta, rng)),
        ("coverage_freedman_banach", 1.0 - delta,
         conc.freedman_vector_coverage("banach", trials, length, delta, rng)),
        ("coverage_truncated_hilbert", 1.0 - delta,
         conc.truncated_sum_coverage("hilbert", trials, length, delta, rng)),
        ("coverage_truncated_banach", 1.0 - delta,
         conc.truncated_sum_coverage("banach", trials, length, delta, rng)),
    ]
