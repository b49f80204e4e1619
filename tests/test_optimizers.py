"""Schedules, steps, certificates, output selection and warmup."""

import math

import numpy as np
import pytest

from tailopt.optimizers import (burn_in_certificate, clipped_momentum_step,
                                extrapolation_point, init_state,
                                rate_exponent, recommend_output, schedule,
                                schedule_exponents, warmup_lr_schedule)
from tailopt.problems import HeavyTailNoise, make_problem
from tailopt.spaces import NormedSpace


def test_schedule_first_order_p2():
    hp = schedule(horizon=10_000, p_moment=2.0, grad_bound=1.0, delta=0.1)
    assert hp.alpha == pytest.approx(0.01, rel=1e-14)
    assert hp.beta == pytest.approx(0.99, rel=1e-14)
    assert hp.lr == pytest.approx(1e-3, rel=1e-14)
    assert hp.tau == pytest.approx(10.0, rel=1e-14)


def test_schedule_second_order_p2():
    hp = schedule(horizon=10_000, p_moment=2.0, grad_bound=1.0, delta=0.1,
                  order="second")
    assert hp.alpha == pytest.approx(10.0 ** (-16.0 / 7.0), rel=1e-13)
    assert hp.lr == pytest.approx(10.0 ** (-20.0 / 7.0), rel=1e-13)


def test_schedule_degenerate_horizon_one():
    hp = schedule(horizon=1, p_moment=1.5, grad_bound=2.0, delta=0.1)
    assert hp.alpha == 1.0
    assert hp.beta == 0.0


def test_schedule_rejects_alpha_above_one():
    with pytest.raises(ValueError, match="too small"):
        schedule(horizon=4, p_moment=2.0, grad_bound=1.0, delta=0.1, alpha_scale=10.0)


def test_exponents():
    assert schedule_exponents(2.0, "first") == (pytest.approx(0.5), pytest.approx(0.75))
    assert schedule_exponents(2.0, "second") == (pytest.approx(4 / 7), pytest.approx(5 / 7))
    assert rate_exponent(2.0, "first") == pytest.approx(0.25)
    assert rate_exponent(1.5, "first") == pytest.approx(0.2)
    assert rate_exponent(2.0, "second") == pytest.approx(2 / 7)


def _hp(beta, tau, lr, p=2.0, T=100, delta=0.1):
    # back out a consistent HyperParams with the desired raw step values
    alpha = 1.0 - beta
    from tailopt.optimizers import HyperParams
    return HyperParams(horizon=T, p_moment=p, grad_bound=tau * alpha ** (1.0 / p),
                       delta=delta, order="first", alpha_scale=1.0, lr_scale=1.0,
                       alpha=alpha, beta=beta, lr=lr, tau=tau)


def test_step_plain_normalized_sgd():
    # beta = 0, sample inside the clip ball, Euclidean: w' = w - lr g/||g||
    sp = NormedSpace.euclidean(2)
    hp = _hp(beta=0.0, tau=10.0, lr=0.5)
    state = init_state([1.0, 1.0])
    g = np.array([3.0, 4.0])
    state2, g_clip = clipped_momentum_step(state, g, hp, sp, hp.lr)
    np.testing.assert_allclose(state2.w, [1.0 - 0.5 * 0.6, 1.0 - 0.5 * 0.8], rtol=1e-15)
    assert sp.dual_norm(g) == 5.0 <= hp.tau  # not clipped
    assert g_clip is g
    np.testing.assert_array_equal(state2.w_prev, [1.0, 1.0])


def test_step_zero_signal_takes_no_step():
    sp = NormedSpace.euclidean(2)
    hp = _hp(beta=0.5, tau=1.0, lr=0.5)
    state = init_state([2.0, -1.0])
    state2, _ = clipped_momentum_step(state, np.zeros(2), hp, sp, hp.lr)
    np.testing.assert_array_equal(state2.w, state.w)  # d(0) = 0 convention


@pytest.mark.parametrize("p", [2.0, 1.5])
@pytest.mark.parametrize("sample_dim", [1, 3])
def test_step_rejects_sample_of_wrong_dim(p, sample_dim):
    # a (1,) sample would broadcast against the (2,) momentum, so the step
    # must check the dimension, not rely on the arithmetic to fail
    sp = NormedSpace(dim=2, primal_exponent=p)
    hp = _hp(beta=0.5, tau=5.0, lr=0.1)
    state = init_state([1.0, 1.0])._replace(w_prev=np.array([0.0, 2.0]))
    # nsgd queries w_t, nigt the extrapolated point
    for query in (state.w, extrapolation_point(state, hp.beta)):
        sample = np.full(sample_dim, query[0])
        with pytest.raises(ValueError, match="dim"):
            clipped_momentum_step(state, sample, hp, sp, hp.lr)


def test_step_hand_arithmetic():
    # beta=0.5, m=(1,0), g=(0,3), tau=2: clip -> (0,2), m' = (0.5, 1)
    sp = NormedSpace.euclidean(2)
    hp = _hp(beta=0.5, tau=2.0, lr=0.1)
    state = init_state([0.0, 0.0])._replace(m=np.array([1.0, 0.0]))
    g = np.array([0.0, 3.0])
    state2, g_clip = clipped_momentum_step(state, g, hp, sp, hp.lr)
    np.testing.assert_allclose(state2.m, [0.5, 1.0], rtol=1e-15)
    n = math.hypot(0.5, 1.0)
    np.testing.assert_allclose(state2.w, -0.1 * np.array([0.5, 1.0]) / n, rtol=1e-14)
    assert sp.dual_norm(g) == 3.0 > hp.tau  # clipped
    np.testing.assert_array_equal(g_clip, [0.0, 2.0])
    assert sp.dual_norm(g_clip) == 2.0


_NEAR_TAU = (0, 1, 2)  # the row kinds of _clip_test_rows within 4 ulps of tau


def _clip_test_rows(rng, space, tau, n, kinds=range(10)):
    """n rows of dim space.dim, each of a random kind: a 2-norm or a dual
    norm, or one component, within 4 ulps of tau either side; zero,
    subnormal, NaN, infinite or overflowing (the squares pass the largest
    float); far inside or outside the ball."""
    dim, eps = space.dim, np.finfo(float).eps
    scale = tau if math.isfinite(tau) else 1e300
    rows = np.empty((n, dim))
    for row, kind in zip(rows, rng.choice(kinds, size=n)):
        u = rng.standard_normal(dim)
        ulps = 1.0 + int(rng.integers(-4, 5)) * eps
        if kind == 0:
            row[:] = u * (scale / math.sqrt(np.sum(u * u))) * ulps
        elif kind == 1:
            row[:] = u * (scale / space.dual_norm(u)) * ulps
        elif kind == 2:
            row[:] = 0.0
            row[rng.integers(dim)] = math.copysign(scale * ulps, u[0])
        elif kind == 3:
            row[:] = -0.0
        elif kind == 4:
            row[:] = rng.choice([5e-324, -5e-324, 1e-310, -2e-320, 0.0], size=dim)
        elif kind == 5:
            row[:] = u
            row[rng.integers(dim)] = math.nan
        elif kind == 6:
            row[:] = u
            row[rng.integers(dim)] = math.copysign(math.inf, u[0])
        elif kind == 7:
            row[:] = u * 1e300
        else:
            row[:] = u * scale * 10.0 ** int(rng.integers(-3, 3)) / math.sqrt(dim)
    return rows


def _clip_test_samples(rng, space, tau, shape):
    """Samples of ``shape``: rows of mixed kinds; every row inside the ball,
    in the 2-norm too; one row near tau, the others zero (the most a row
    can have of a batch's dot product); a check without its margin admits
    about one in 100 to 300 of the rows just above tau."""
    n = math.prod(shape[:-1])
    scale = tau if math.isfinite(tau) else 1e300
    for _ in range(30):
        yield _clip_test_rows(rng, space, tau, n).reshape(shape)
    for _ in range(10):
        yield rng.standard_normal(shape) * (1e-2 * scale / math.sqrt(n * space.dim))
    for _ in range(150):
        rows = np.zeros((n, space.dim))
        rows[rng.integers(n)] = _clip_test_rows(rng, space, tau, 1, _NEAR_TAU)[0]
        yield rows.reshape(shape)


@pytest.mark.parametrize("q", [2.0, 1.5, 1.2], ids=["r2", "r3", "r6"])
@pytest.mark.parametrize("tau", [3.0, 1e-300, 1e200, math.inf])
@pytest.mark.parametrize("shape", [(5,), (4096,), (4097,), (3, 5), (4, 1024),
                                   (17, 241)])
def test_step_clip_decision_is_the_dual_norm_above_tau(q, tau, shape):
    # a row is clipped iff its dual norm, as dual_norm computes it for the
    # row alone, is above tau, and both entries to the clip, the sample the
    # step feeds the momentum and space.clip_dual, give bit for bit the
    # reference's clipped sample; the sample itself when no row clips.  At
    # tau = 1e-300 the squares of rows near tau underflow; at tau = 1e200
    # they overflow, and so does tau^2
    space = NormedSpace(dim=shape[-1], primal_exponent=q)
    hp = _hp(beta=0.5, tau=tau, lr=0.1, p=1.5)
    rng = np.random.default_rng([int(1000 * q), shape[-1], len(shape)])
    for sample in _clip_test_samples(rng, space, tau, shape):
        rows = sample.reshape(-1, space.dim)
        norms = np.array([space.dual_norm(row) for row in rows])
        clipped = norms > tau
        # clipping an infinite component gives inf * 0 = NaN, as it should
        with np.errstate(invalid="ignore" if np.isinf(sample).any() else "raise"):
            expect = [row * (tau / norm) if c else row
                      for row, norm, c in zip(rows, norms, clipped)]
            entries = {"step": clipped_momentum_step(init_state(np.zeros(shape)),
                                                     sample, hp, space, hp.lr)[1],
                       "space": space.clip_dual(sample, tau)}
        for entry, g_clip in entries.items():
            assert (g_clip is sample) == (not clipped.any()), entry
            got = g_clip.reshape(-1, space.dim)
            for i, (g, e) in enumerate(zip(got, expect)):
                assert g.tobytes() == e.tobytes(), (entry, i, norms[i], clipped[i])


def test_extrapolation_point_cases():
    state = init_state([1.0])
    assert extrapolation_point(state, 0.9) == pytest.approx([1.0])  # w == w_prev
    state2 = init_state([1.0])._replace(w_prev=np.array([0.0]))
    np.testing.assert_allclose(extrapolation_point(state2, 0.0), [1.0])
    np.testing.assert_allclose(extrapolation_point(state2, 0.9), [10.0], rtol=1e-12)
    with pytest.raises(ValueError):
        extrapolation_point(state2, 1.0)


def test_extrapolated_equals_plain_at_beta_zero():
    # the same noise added to the gradient at each rule's own query point
    prob = make_problem("cosine_sum", 3)
    sp = NormedSpace.euclidean(3)
    hp = _hp(beta=0.0, tau=5.0, lr=0.3)
    rng = np.random.default_rng(4)
    noise = rng.standard_normal((20, 3))
    sa = init_state(np.ones(3))
    sb = init_state(np.ones(3))
    for z in noise:
        sa, _ = clipped_momentum_step(sa, prob.gradient(sa.w) + z, hp, sp, hp.lr)
        query = extrapolation_point(sb, hp.beta)
        sb, _ = clipped_momentum_step(sb, prob.gradient(query) + z, hp, sp, hp.lr)
        np.testing.assert_array_equal(sa.w, sb.w)
        np.testing.assert_array_equal(sa.m, sb.m)


def test_extrapolated_first_query_is_start():
    hp = _hp(beta=0.9, tau=5.0, lr=0.3)
    state = init_state([2.0, 2.0])
    np.testing.assert_array_equal(extrapolation_point(state, hp.beta), [2.0, 2.0])


def test_extrapolated_deterministic_quadratic_hand_recursion():
    # zero noise, 1-D quadratic: the loop must match a hand-rolled recursion
    prob = make_problem("quadratic", 1, eig_min=1.0, eig_max=1.0, start_value=3.0)
    sp = NormedSpace.euclidean(1)
    hp = _hp(beta=0.5, tau=100.0, lr=0.2)
    state = init_state(prob.start)
    got_w = []
    for _ in range(5):
        query = extrapolation_point(state, hp.beta)
        state, _ = clipped_momentum_step(state, prob.gradient(query), hp, sp, hp.lr)
        got_w.append(state.w[0])
    # hand recursion
    w, w_prev, m = 3.0, 3.0, 0.0
    expect_w = []
    for _ in range(5):
        x = w + 0.5 * (w - w_prev) / 0.5
        g = x  # gradient of 1/2 w^2
        m = 0.5 * m + 0.5 * min(abs(g), 100.0) * math.copysign(1.0, g)
        w, w_prev = w - 0.2 * math.copysign(1.0, m) if m != 0 else w, w
        expect_w.append(w)
    np.testing.assert_allclose(got_w, expect_w, rtol=1e-12)


def test_step_length_and_momentum_ball_invariants():
    sp = NormedSpace(dim=4, primal_exponent=1.5)
    hp = schedule(horizon=300, p_moment=1.5, grad_bound=3.0, delta=0.1)
    prob = make_problem("cosine_sum", 4)
    noise = HeavyTailNoise(p_moment=1.5, tail_index=1.8)
    rng = np.random.default_rng(8)
    state = init_state(prob.start)
    for _ in range(300):
        g = noise.sample(prob, sp, state.w, rng)
        new_state, _ = clipped_momentum_step(state, g, hp, sp, hp.lr)
        if np.any(new_state.m != 0.0):
            step_len = sp.primal_norm(new_state.w - state.w)
            assert abs(step_len - hp.lr) <= 1e-12 * hp.lr
        assert sp.dual_norm(new_state.m) <= hp.tau * (1.0 + 1e-12)
        state = new_state


def test_certificate_paper_constants():
    # D = 1 regime: K collapses to 10 + 4 + 1 = 15 at C = 1 (first order)
    hp = schedule(horizon=10, p_moment=2.0, grad_bound=1.0, delta=0.999999)
    # force D = 1: log(3T/delta) = log(30.00003) > 1, so construct directly
    cert = burn_in_certificate(hp, lipschitz=1.0, hessian_lipschitz=0.0,
                               smooth_constant=1.0)
    D = max(1.0, math.log(3 * 10 / 0.999999))
    assert cert.concentration_factor == pytest.approx(10 * D + 4 * math.sqrt(D) + 1)
    # Z = s L / b + G K b^((p-1)/p) with everything at 1: Z = 1 + K
    assert cert.error_scale == pytest.approx(1.0 + cert.concentration_factor)


def test_certificate_k_formula_d_equals_one():
    # log(3T/delta) >= log 3 > 1 for any delta < 1, so the D = 1 branch of the
    # clamp is unreachable through the API; check the K arithmetic directly
    D = 1.0
    assert 10 * 1.0 * D + 4 * math.sqrt(1.0) * math.sqrt(D) + 1 == 15.0


def test_certificate_burn_in_clamped_to_zero():
    # large Z relative to G drives the raw burn-in negative -> clamp to 0
    hp = schedule(horizon=100, p_moment=1.5, grad_bound=1.0, delta=0.1)
    cert = burn_in_certificate(hp, lipschitz=50.0, hessian_lipschitz=0.0,
                               smooth_constant=1.0)
    assert cert.burn_in == 0


def test_certificate_burn_in_clamped_to_horizon():
    # huge G with tiny Z pushes the raw value above T -> clamp to T
    hp = schedule(horizon=50, p_moment=1.5, grad_bound=1e9, delta=0.1)
    cert = burn_in_certificate(hp, lipschitz=1e-12, hessian_lipschitz=0.0,
                               smooth_constant=1.0)
    assert 0 <= cert.burn_in <= 50


def test_certificate_second_order_constants():
    hp = schedule(horizon=1000, p_moment=2.0, grad_bound=2.0, delta=0.05,
                  order="second", alpha_scale=0.5, lr_scale=2.0)
    cert = burn_in_certificate(hp, lipschitz=1.0, hessian_lipschitz=3.0,
                               smooth_constant=2.0)
    D = max(1.0, math.log(3 * 1000 / 0.05))
    K = 10 * D + 4 * math.sqrt(2.0 * D) + 1
    Z = 3.0 * 2.0 ** 2 / 0.5 ** 2 + 2.0 * K * 0.5 ** 0.5
    assert cert.concentration_factor == pytest.approx(K)
    assert cert.error_scale == pytest.approx(Z)
    r = rate_exponent(2.0, "second")
    assert cert.momentum_error_bound == pytest.approx(2 * Z / 1000 ** r)


def test_recommend_output():
    assert recommend_output([5.0, 5.0, 5.0, 5.0], burn_in=2) == 2  # tie -> earliest
    assert recommend_output([5.0, 1.0, 3.0], burn_in=0) == 2
    rng = np.random.default_rng(3)
    norms = rng.random(100)
    got = recommend_output(norms, burn_in=30)
    best, best_t = np.inf, None  # brute-force linear scan oracle
    for t in range(30, 101):
        if norms[t - 1] < best:
            best, best_t = norms[t - 1], t
    assert got == best_t
    with pytest.raises(ValueError):
        recommend_output([1.0, 2.0], burn_in=5)


def test_warmup_schedules():
    hp = schedule(horizon=8, p_moment=2.0, grad_bound=1.0, delta=0.1)
    np.testing.assert_array_equal(warmup_lr_schedule(hp, 0, "none"),
                                  np.full(8, hp.lr))
    np.testing.assert_array_equal(warmup_lr_schedule(hp, 0, "hold"),
                                  warmup_lr_schedule(hp, 0, "none"))
    lrs = warmup_lr_schedule(hp, 5, "hold")
    np.testing.assert_array_equal(lrs, [0, 0, 0, 0, 0, hp.lr, hp.lr, hp.lr])
    np.testing.assert_array_equal(warmup_lr_schedule(hp, 5, "none"),
                                  np.full(8, hp.lr))
    with pytest.raises(ValueError):
        warmup_lr_schedule(hp, 5, "linear")
