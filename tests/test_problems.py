"""Objective values, gradients, and the heavy-tailed oracle's moments."""

import dataclasses
import math

import numpy as np
import pytest

from tailopt.problems import (CosineSum, DiagonalQuadratic, HeavyTailNoise,
                              calibrate_grad_bound, make_problem, pareto_radii)
from tailopt.spaces import NormedSpace


def central_diff_gradient(f, w, h=1e-6):
    w = np.asarray(w, dtype=float)
    g = np.zeros_like(w)
    for i in range(w.size):
        e = np.zeros_like(w)
        e[i] = h
        g[i] = (f(w + e) - f(w - e)) / (2.0 * h)
    return g


def test_quadratic_values():
    prob = DiagonalQuadratic(eigenvalues=[1.0, 2.0], center=[0.0, 0.0], start=[2.0, 1.0])
    assert prob.value(prob.center) == 0.0
    assert prob.value([2.0, 1.0]) == pytest.approx(3.0)  # 1/2 (1*4 + 2*1)
    np.testing.assert_array_equal(prob.gradient(prob.center), [0.0, 0.0])
    assert prob.lipschitz == 2.0
    assert prob.hessian_lipschitz == 0.0
    assert prob.lower_bound == 0.0


def test_cosine_values():
    prob = CosineSum(amplitude=1.0, dim=3, start=np.ones(3))
    assert prob.value(np.zeros(3)) == pytest.approx(3.0)
    np.testing.assert_allclose(prob.gradient(np.zeros(3)), np.zeros(3), atol=1e-15)
    assert prob.lower_bound == -3.0
    assert prob.lipschitz == 1.0
    assert prob.hessian_lipschitz == 1.0


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(42)
    for prob in (make_problem("cosine_sum", 5, amplitude=1.3),
                 make_problem("quadratic", 5, eig_min=0.5, eig_max=3.0)):
        for _ in range(20):
            w = rng.standard_normal(5) * 2.0
            fd = central_diff_gradient(prob.value, w)
            np.testing.assert_allclose(prob.gradient(w), fd, rtol=1e-6, atol=1e-6)


def test_hessian_diag_matches_finite_differences():
    rng = np.random.default_rng(43)
    prob = make_problem("cosine_sum", 4, amplitude=0.9)
    for _ in range(10):
        w = rng.standard_normal(4)
        v = rng.standard_normal(4)
        h = 1e-6
        fd = (prob.gradient(w + h * v) - prob.gradient(w - h * v)) / (2.0 * h)
        np.testing.assert_allclose(prob.hessian_diag(w) * v, fd, rtol=1e-6, atol=1e-6)


def test_dim_mismatch_rejected():
    prob = make_problem("cosine_sum", 4)
    with pytest.raises(ValueError):
        prob.value(np.zeros(3))
    with pytest.raises(ValueError):
        prob.gradient(np.zeros(5))


def test_problems_keep_read_only_copies_of_their_arrays():
    # the caller's arrays may change afterwards, and the problem's own cannot
    # be written, so the constants it checked at construction hold
    eigs = np.array([1.0, 2.0])
    quad = DiagonalQuadratic(eigenvalues=eigs, center=np.zeros(2), start=np.ones(2))
    eigs[:] = -1.0
    assert quad.lipschitz == 2.0
    start = np.full(3, 2.0)
    cos = CosineSum(amplitude=1.0, dim=3, start=start)
    start[:] = 0.3
    np.testing.assert_array_equal(cos.start, 2.0)
    for arr in (quad.eigenvalues, quad.center, quad.start, cos.start):
        with pytest.raises(ValueError):
            arr[0] = 0.3


def test_noise_model_validation():
    with pytest.raises(ValueError):
        HeavyTailNoise(p_moment=1.5, tail_index=1.4)  # infinite p-th moment
    with pytest.raises(ValueError):
        HeavyTailNoise(p_moment=2.5, tail_index=3.0)
    noise = HeavyTailNoise(p_moment=1.5, tail_index=1.8)
    with pytest.raises(ValueError):
        noise.radius_moment(1.8)


def test_zero_noise_returns_exact_gradient():
    prob = make_problem("quadratic", 3)
    noise = HeavyTailNoise(p_moment=1.5, tail_index=1.8, scale=0.0)
    sp = NormedSpace.euclidean(3)
    rng = np.random.default_rng(0)
    w = np.array([1.0, -2.0, 0.5])
    np.testing.assert_array_equal(noise.sample(prob, sp, w, rng), prob.gradient(w))
    # bit for bit, a -0.0 component included: -sin(0) = -0.0
    cos = make_problem("cosine_sum", 3)
    zero = np.zeros(3)
    assert noise.sample(cos, sp, zero, rng).tobytes() == cos.gradient(zero).tobytes()


def test_pareto_radius_moment_closed_form():
    # a=1.8, p=1.5, x_m=1: E R^p = 1.8/0.3 = 6
    noise = HeavyTailNoise(p_moment=1.5, tail_index=1.8, scale=1.0)
    assert noise.radius_moment(1.5) == pytest.approx(6.0)
    # Monte Carlo at k = 0.5 < a/2, where R^k has finite variance: within
    # 5 standard errors (R^1.5 has none, so its sample mean has no such band)
    n, k = 10_000_000, 0.5
    radii = noise.sample_radii(np.random.default_rng(77), n)
    target = noise.radius_moment(k)
    se = math.sqrt((noise.radius_moment(2 * k) - target ** 2) / n)
    assert abs(np.mean(radii ** k) - target) <= 5.0 * se


def test_noise_dual_norm_equals_radius():
    # the direction is rescaled to unit dual norm, so ||xi||_dual == radius
    prob = make_problem("quadratic", 4, start_value=0.0)  # grad F = 0 at center? start irrelevant
    noise = HeavyTailNoise(p_moment=1.5, tail_index=1.8)
    sp = NormedSpace(dim=4, primal_exponent=1.5)
    rng = np.random.default_rng(5)
    w = np.zeros(4)
    g = noise.sample_batch(prob, sp, w, rng, 50_000)
    xi = g - prob.gradient(w)
    emp = np.mean(np.asarray(sp.dual_norm(xi)) ** 1.5)
    assert emp == pytest.approx(6.0, rel=0.05)


def test_sample_mean_is_unbiased():
    prob = make_problem("cosine_sum", 5)
    noise = HeavyTailNoise(p_moment=1.5, tail_index=1.8, scale=1.0)
    sp = NormedSpace.euclidean(5)
    rng = np.random.default_rng(123)
    w = np.full(5, 0.7)
    n = 1_000_000
    g = noise.sample_batch(prob, sp, w, rng, n)
    mean = g.mean(axis=0)
    emp_moment = np.mean(np.asarray(sp.dual_norm(g - prob.gradient(w))) ** 1.5)
    tol = 3.0 * emp_moment ** (1.0 / 1.5) * n ** (-(1.5 - 1.0) / 1.5)
    assert sp.dual_norm(mean - prob.gradient(w)) <= tol


@pytest.mark.parametrize("scale", [1.0, 2.5])
@pytest.mark.parametrize("q", [2.0, 1.5])
def test_draw_steps_rows_have_the_replayed_radius_and_mean_zero(q, scale):
    # the noise every trajectory step adds: each row's dual norm is the
    # Pareto radius of its own uniform draw, replayed from the same stream
    # (dim normals, then one uniform), and the rows average to zero within
    # the p-moment tolerance of test_sample_mean_is_unbiased
    noise = HeavyTailNoise(p_moment=1.5, tail_index=1.8, scale=scale)
    sp = NormedSpace(dim=4, primal_exponent=q)
    n = 100_000
    z = noise.draw_steps(sp, [np.random.default_rng(17)], n)[:, 0]
    replay = np.random.default_rng(17)
    radii = np.empty(n)
    for i in range(n):
        replay.standard_normal(4)
        radii[i] = scale * (1.0 - replay.random()) ** (-1.0 / 1.8)
    norms = np.asarray(sp.dual_norm(z))
    np.testing.assert_allclose(norms, radii, rtol=1e-12, atol=0.0)
    tol = 3.0 * np.mean(norms ** 1.5) ** (1.0 / 1.5) * n ** (-(1.5 - 1.0) / 1.5)
    assert sp.dual_norm(z.mean(axis=0)) <= tol


@pytest.mark.parametrize("scale", [2.0, 0.0])
@pytest.mark.parametrize("p", [2.0, 1.5])
def test_draw_steps_are_successive_samples(p, scale):
    # n rows drawn ahead are the noise of n successive oracle calls, and
    # both leave the generator in the same state
    prob = make_problem("cosine_sum", 4)
    noise = HeavyTailNoise(p_moment=1.5, tail_index=1.8, scale=scale)
    sp = NormedSpace(dim=4, primal_exponent=p)
    w = np.array([0.3, -1.0, 2.5, 0.0])
    ahead, stepwise = np.random.default_rng(11), np.random.default_rng(11)
    z = noise.draw_steps(sp, [ahead], 50)
    assert z.shape == (50, 1, 4)
    grad = prob.gradient(w)
    for row in z[:, 0]:
        assert (grad + row).tobytes() == noise.sample(prob, sp, w, stepwise).tobytes()
    assert ahead.random() == stepwise.random()


class _ZeroDirectionEveryOtherStep:
    """A generator stand-in whose odd steps draw an all-zero direction."""

    def __init__(self):
        self.steps = 0

    def standard_normal(self, out):
        out[:] = 0.0 if self.steps % 2 else np.arange(1.0, out.size + 1.0)
        self.steps += 1

    def random(self):
        return 0.5


def test_draw_steps_zero_direction_guard_per_row():
    noise = HeavyTailNoise(p_moment=1.5, tail_index=1.8)
    sp = NormedSpace(dim=3, primal_exponent=1.5)
    z = noise.draw_steps(sp, [_ZeroDirectionEveryOtherStep()], 4)[:, 0]
    radius = 0.5 ** (-1.0 / 1.8)
    u = np.arange(1.0, 4.0)
    for row in z[0::2]:
        assert row.tobytes() == ((radius / sp.dual_norm(u)) * u).tobytes()
    for row in z[1::2]:  # the guard's direction e_0
        assert row.tobytes() == np.array([radius, 0.0, 0.0]).tobytes()


def _reference_radii(rng, shape, tail_index, scale=1.0):
    """pareto_radii as one expression, a temporary per operation."""
    return scale * (1.0 - rng.random(shape)) ** (-1.0 / tail_index)


def _reference_batch(noise, problem, space, w, rng, n):
    """HeavyTailNoise.sample_batch as one expression per line."""
    grad = problem.gradient(w)
    if noise.scale == 0.0:
        return np.tile(grad, (n, 1))
    u = rng.standard_normal((n, space.dim))
    radii = _reference_radii(rng, n, noise.tail_index, noise.scale)
    norms = np.asarray(space.dual_norm(u))[:, np.newaxis]
    norms[norms == 0.0] = 1.0
    return grad + radii[:, np.newaxis] * u / norms


class _ZeroFirstDirection:
    """A generator that zeroes the first row of each batch of directions."""

    def __init__(self, rng):
        self.rng = rng

    def standard_normal(self, size):
        u = self.rng.standard_normal(size)
        u[0] = 0.0
        return u

    def random(self, size):
        return self.rng.random(size)


@pytest.mark.parametrize("tail", [1.5, 1.8])
@pytest.mark.parametrize("scale", [0.0, 1.0, 2.5])
@pytest.mark.parametrize("shape", [1000, (200, 7)])
def test_pareto_radii_in_place_keeps_the_expression_bits(shape, scale, tail):
    fast, ref = np.random.default_rng(21), np.random.default_rng(21)
    r = pareto_radii(fast, shape, tail, scale)
    expect = _reference_radii(ref, shape, tail, scale)
    assert r.shape == expect.shape and r.tobytes() == expect.tobytes()
    assert fast.random() == ref.random()


@pytest.mark.parametrize("zero_row", [False, True])
@pytest.mark.parametrize("tail", [1.5, 1.8])
@pytest.mark.parametrize("scale", [0.0, 1.0, 2.5])
@pytest.mark.parametrize("p", [2.0, 1.5])
def test_sample_batch_in_place_keeps_the_expression_bits(p, scale, tail, zero_row):
    prob = make_problem("cosine_sum", 5)
    noise = HeavyTailNoise(p_moment=1.2, tail_index=tail, scale=scale)
    sp = NormedSpace(dim=5, primal_exponent=p)
    w = np.array([0.3, -1.0, 2.5, 0.0, 7.0])
    fast, ref = np.random.default_rng(22), np.random.default_rng(22)
    wrap = _ZeroFirstDirection if zero_row else (lambda rng: rng)
    g = noise.sample_batch(prob, sp, w, wrap(fast), 500)
    expect = _reference_batch(noise, prob, sp, w, wrap(ref), 500)
    assert g.shape == (500, 5) and g.tobytes() == expect.tobytes()
    if zero_row and scale > 0.0:  # the guarded zero direction adds +0.0
        assert np.array_equal(g[0], prob.gradient(w))
    assert fast.random() == ref.random()


def test_heavy_tail_second_moment_grows():
    # tail index 1.5: the raw second moment blows past what any model with
    # its tail clipped at the 1e-4 quantile could produce (a divergence
    # certificate), while the sub-tail 1.2 moment stabilizes
    from tailopt.concentration import clipped_pareto_second_moment

    grow, stable = 0, 0
    n_streams = 10
    clip_ref = clipped_pareto_second_moment(1.5, 1.0, 100.0)
    for seed in range(n_streams):
        noise = HeavyTailNoise(p_moment=1.2, tail_index=1.5)
        rng = np.random.default_rng(1000 + seed)
        r = noise.sample_radii(rng, 10_000_000)
        n10 = r.size // 10
        if np.mean(r ** 2) > 1.2 * clip_ref:
            grow += 1
        if abs(np.mean(r ** 1.2) / np.mean(r[:n10] ** 1.2) - 1.0) <= 0.10:
            stable += 1
    assert grow >= 0.8 * n_streams
    assert stable >= 0.8 * n_streams


def test_calibration_zero_noise():
    prob = make_problem("quadratic", 3, start_value=2.0)
    noise = HeavyTailNoise(p_moment=1.5, tail_index=1.8, scale=0.0)
    sp = NormedSpace.euclidean(3)
    g = calibrate_grad_bound(prob, noise, sp, np.random.default_rng(1),
                             n_samples=10_000, safety=1.0)
    assert g == pytest.approx(sp.dual_norm(prob.gradient(prob.start)), rel=1e-12)
    # the noise model is frozen: calibration returns G and stores nothing
    assert noise == HeavyTailNoise(p_moment=1.5, tail_index=1.8, scale=0.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        noise.scale = 1.0


def test_calibration_pure_noise_matches_pareto_moment():
    # gradient-free problem: G^p tracks the closed-form radius moment
    prob = DiagonalQuadratic(eigenvalues=[1.0], center=[0.0], start=[0.0])
    noise = HeavyTailNoise(p_moment=1.5, tail_index=1.8, scale=1.0)
    sp = NormedSpace.euclidean(1)
    g = calibrate_grad_bound(prob, noise, sp, np.random.default_rng(2),
                             n_samples=2_000_000, safety=1.5)
    assert (g / 1.5) ** 1.5 == pytest.approx(6.0, rel=0.05)


def test_calibrated_bound_covers_centered_moment():
    # the schedule's G must bound the raw moment E||grad f||^p (calibrated)
    # and the centered one E||grad f - grad F||^p; for symmetric noise the
    # raw moment dominates the centered one, so one calibration covers both
    prob = make_problem("cosine_sum", 6, start_value=2.0)
    noise = HeavyTailNoise(p_moment=1.5, tail_index=1.8, scale=1.0)
    sp = NormedSpace.euclidean(6)
    g = calibrate_grad_bound(prob, noise, sp, np.random.default_rng(11),
                             n_samples=500_000, safety=1.5)
    rng = np.random.default_rng(12)
    samples = noise.sample_batch(prob, sp, prob.start, rng, 500_000)
    centered = np.mean(np.asarray(sp.dual_norm(samples - prob.gradient(prob.start))) ** 1.5)
    assert centered <= g ** 1.5


def test_calibration_validates_inputs():
    prob = make_problem("quadratic", 2)
    noise = HeavyTailNoise(p_moment=1.5, tail_index=1.8)
    sp = NormedSpace.euclidean(2)
    with pytest.raises(ValueError):
        calibrate_grad_bound(prob, noise, sp, np.random.default_rng(0),
                             n_samples=100, safety=1.5)
    with pytest.raises(ValueError):
        calibrate_grad_bound(prob, noise, sp, np.random.default_rng(0),
                             n_samples=20_000, safety=0.5)


@pytest.mark.parametrize("scale", [2.0, 0.0])
@pytest.mark.parametrize("q", [2.0, 1.5])
def test_batch_draw_columns_are_each_generators_own_draw(q, scale):
    # column j of one batch draw has the bytes of generator j drawn alone,
    # and every generator ends in the same state.  Column 2 draws a zero
    # direction every other step, so the guard acts row by row inside the
    # batch, and its zero rows keep the batch off the lean q = 2 norm path
    # that each other column takes alone
    noise = HeavyTailNoise(p_moment=1.5, tail_index=1.8, scale=scale)
    sp = NormedSpace(dim=5, primal_exponent=q)

    def generators():
        rngs = [np.random.default_rng(s) for s in (3, 4, 5)]
        return rngs[:2] + [_ZeroDirectionEveryOtherStep()] + rngs[2:]

    n, batch, alone = 50, generators(), generators()
    z = noise.draw_steps(sp, batch, n)
    assert z.shape == (n, 4, 5)
    for j, rng in enumerate(alone):
        assert z[:, j].tobytes() == noise.draw_steps(sp, [rng], n)[:, 0].tobytes()
    assert batch[2].steps == alone[2].steps == n
    for rng, ref in zip(batch[:2] + batch[3:], alone[:2] + alone[3:]):
        assert rng.random() == ref.random()


_QUAD = DiagonalQuadratic(eigenvalues=[1.0, 2.0], center=[0.0, 0.0], start=[1.0, 1.0])


@pytest.mark.parametrize("make, message", [
    pytest.param(lambda: DiagonalQuadratic([1.0, 0.0], [0.0, 0.0], [1.0, 1.0]),
                 "eigenvalues must be positive", id="quadratic-eigenvalues"),
    pytest.param(lambda: DiagonalQuadratic([1.0, 2.0], [0.0], [1.0, 1.0]),
                 "must share a shape", id="quadratic-shape"),
    pytest.param(lambda: _QUAD.value(np.zeros(3)), "point has dim 3, problem has dim 2",
                 id="quadratic-point-dim"),
    pytest.param(lambda: CosineSum(amplitude=0.0, dim=2, start=np.zeros(2)),
                 "amplitude must be positive", id="cosine-amplitude"),
    pytest.param(lambda: CosineSum(amplitude=1.0, dim=2, start=np.zeros(3)),
                 "start point has the wrong dimension", id="cosine-start"),
    pytest.param(lambda: make_problem("rosenbrock", 2), "unknown problem kind",
                 id="make-problem-kind"),
    pytest.param(lambda: HeavyTailNoise(p_moment=1.5, tail_index=2.0, scale=-1.0),
                 "scale must be nonnegative", id="noise-scale"),
])
def test_problem_refusals_name_their_input(make, message):
    with pytest.raises(ValueError, match=message):
        make()
