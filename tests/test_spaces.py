"""Norm pair, duality map and clipping contracts."""

import math
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from tailopt.analysis import central_diff_gradient
from tailopt.spaces import _LEAN_BATCH, NormedSpace

SUPPORTED_PRIMALS = [1.2, 1.5, 2.0]  # dual exponents 6, 3, 2; C = 5, 2, 1


def test_construction_rejects_bad_exponents():
    with pytest.raises(ValueError):
        NormedSpace(dim=3, primal_exponent=4.0)  # dual l_{4/3} is not 2-smooth
    with pytest.raises(ValueError):
        NormedSpace(dim=3, primal_exponent=1.0)
    with pytest.raises(ValueError):
        NormedSpace(dim=3, primal_exponent=np.nan)
    with pytest.raises(ValueError):
        NormedSpace(dim=0)


def test_conjugate_exponents_and_smooth_constant():
    for p in [2.0, 1.5, 1.2, 1.8]:
        sp = NormedSpace(dim=4, primal_exponent=p)
        assert 1.0 / sp.primal_exponent + 1.0 / sp.dual_exponent == pytest.approx(1.0, abs=1e-15)
        assert sp.smooth_constant >= 1.0
        assert sp.smooth_constant == pytest.approx(1.0 / (sp.primal_exponent - 1.0))
    assert NormedSpace.euclidean(5).smooth_constant == 1.0
    assert NormedSpace(dim=5, primal_exponent=1.5).dual_exponent == pytest.approx(3.0)


def test_norm_examples():
    sp = NormedSpace.euclidean(2)
    assert sp.primal_norm([3.0, 4.0]) == pytest.approx(5.0)
    assert sp.dual_norm([3.0, 4.0]) == pytest.approx(5.0)
    # l_4 arithmetic (1 + 1)^(1/4), carried by the dual of the p = 4/3 space
    sp43 = NormedSpace(dim=2, primal_exponent=4.0 / 3.0)
    assert sp43.dual_norm([0.0, 0.0]) == 0.0
    assert sp43.dual_norm([1.0, 1.0]) == pytest.approx(2.0 ** 0.25, rel=1e-14)
    # l_1.5 arithmetic (1 + 8^1.5)^(2/3) on the primal side
    sp15 = NormedSpace(dim=2, primal_exponent=1.5)
    closed = (1.0 + 8.0 ** 1.5) ** (2.0 / 3.0)
    assert sp15.primal_norm([1.0, 8.0]) == pytest.approx(closed, rel=1e-14)


def test_dual_norm_sup_characterization():
    # cross-check against sup_{||x||_p <= 1} <v, x> by numeric maximization
    sp = NormedSpace(dim=2, primal_exponent=1.5)  # dual r = 3
    v = np.array([1.0, 8.0])
    got = sp.dual_norm(v)
    assert got == pytest.approx((1.0 + 8.0 ** 3) ** (1.0 / 3.0), rel=1e-14)
    assert got == pytest.approx(_sup_pairing_on_unit_ball(sp, v), rel=1e-7)


def _sup_pairing_on_unit_ball(sp, v):
    def neg(x):
        n = sp.primal_norm(x)
        if n > 0:
            x = x / n
        return -float(np.dot(v, x))

    best = -np.inf
    rng = np.random.default_rng(7)
    for _ in range(8):
        res = minimize(neg, rng.standard_normal(sp.dim), method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-12, "maxiter": 5000})
        best = max(best, -res.fun)
    return best


def test_duality_map_examples():
    sp = NormedSpace.euclidean(2)
    np.testing.assert_allclose(sp.duality_map([0.0, 5.0]), [0.0, 1.0], atol=1e-15)
    np.testing.assert_array_equal(sp.duality_map([0.0, 0.0]), [0.0, 0.0])
    sp15 = NormedSpace(dim=2, primal_exponent=1.5)  # dual r = 3
    v = np.array([1.0, 8.0])
    d = sp15.duality_map(v)
    expect = np.sign(v) * np.abs(v) ** 2.0 / sp15.dual_norm(v) ** 2.0
    np.testing.assert_allclose(d, expect, rtol=1e-14)
    # contract identities checked by independent norm / pairing evaluation
    assert sp15.primal_norm(d) == pytest.approx(1.0, rel=1e-12)
    assert sp15.pairing(v, d) == pytest.approx(sp15.dual_norm(v), rel=1e-12)


def test_duality_identities_sweep():
    # quantified invariant: unit primal norm and tight pairing, 1e-10 relative
    rng = np.random.default_rng(2024)
    for p in SUPPORTED_PRIMALS:
        sp = NormedSpace(dim=8, primal_exponent=p)
        v = rng.standard_normal((40_000, 8))
        v *= rng.choice([1e-3, 1.0, 1e3], size=(40_000, 1))
        d = sp.duality_map(v)
        pn = sp.primal_norm(d)
        dn = sp.dual_norm(v)
        pair = sp.pairing(v, d)
        assert np.all(np.abs(pn - 1.0) < 1e-10)
        assert np.all(np.abs(pair - dn) <= 1e-10 * dn)


def test_clip_examples():
    sp = NormedSpace.euclidean(2)
    np.testing.assert_allclose(sp.clip_dual([3.0, 4.0], 2.0), [1.2, 1.6], rtol=1e-15)
    v = np.array([0.3, 0.1])
    np.testing.assert_array_equal(sp.clip_dual(v, 2.0), v)  # inside ball: unchanged
    sp15 = NormedSpace(dim=2, primal_exponent=1.5)
    v = np.array([1.0, 8.0])
    dn = sp15.dual_norm(v)  # dual_norm is the oracle for the rescale factor
    np.testing.assert_allclose(sp15.clip_dual(v, 4.0), v * (4.0 / dn), rtol=1e-14)
    with pytest.raises(ValueError):
        sp.clip_dual(v, 0.0)


@pytest.mark.parametrize("p, v, threshold", [
    (2.0, [1e-320, 0.0], 2.0),
    (2.0, [[1e-320, 0.0], [3.0, 4.0]], 2.0),
    (1.5, [1e-310, 0.0], 1e10)], ids=["subnormal", "batch", "r3"])
def test_clip_leaves_a_row_alone_without_dividing_by_its_norm(p, v, threshold):
    # threshold / norm overflows for a row of subnormal norm; a row the clip
    # leaves alone keeps its bits without that division, and with no
    # RuntimeWarning.  An input with no row to clip is returned as it is
    sp = NormedSpace(dim=2, primal_exponent=p)
    v = np.array(v)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = sp.clip_dual(v, threshold)
    clipped = np.atleast_1d(sp.dual_norm(v)) > threshold
    assert (c is v) == (not clipped.any())
    for row, c_row, cut in zip(np.atleast_2d(v), np.atleast_2d(c), clipped):
        if cut:
            assert sp.dual_norm(c_row) == pytest.approx(threshold, rel=1e-15)
        else:
            assert c_row.tobytes() == row.tobytes()


def test_clip_invariants_sweep():
    rng = np.random.default_rng(11)
    for p in SUPPORTED_PRIMALS:
        sp = NormedSpace(dim=6, primal_exponent=p)
        v = rng.standard_normal((20_000, 6)) * rng.lognormal(0, 3, size=(20_000, 1))
        tau = 1.7
        c = sp.clip_dual(v, tau)
        n_v = sp.dual_norm(v)
        n_c = sp.dual_norm(c)
        expect = np.minimum(tau, n_v)
        assert np.all(np.abs(n_c - expect) <= 1e-12 * np.maximum(expect, 1e-300))
        # idempotent up to one rounding of the rescale factor
        cc = sp.clip_dual(c, tau)
        assert np.all(np.abs(cc - c) <= 4.0 * np.spacing(np.abs(c)))


def test_holder_inequality_sweep():
    rng = np.random.default_rng(5)
    for p in SUPPORTED_PRIMALS:
        sp = NormedSpace(dim=7, primal_exponent=p)
        v = rng.standard_normal((30_000, 7))
        w = rng.standard_normal((30_000, 7))
        lhs = sp.pairing(v, w)
        rhs = sp.dual_norm(v) * sp.primal_norm(w)
        assert np.all(lhs <= rhs + 1e-9)


@pytest.mark.parametrize("p", SUPPORTED_PRIMALS)
def test_duality_map_is_the_dual_norm_gradient(p):
    # d(v) = grad ||v||_r away from 0, the identity behind the smoothness
    # gap's cross term and the scalar reduction: central differences of the
    # dual norm, step 1e-6, agree with the map to 1e-8 at random v
    sp = NormedSpace(dim=5, primal_exponent=p)
    rng = np.random.default_rng(29)
    for v in rng.standard_normal((50, 5)) * rng.lognormal(0, 1, size=(50, 1)):
        fd = central_diff_gradient(sp.dual_norm, v)
        np.testing.assert_allclose(sp.duality_map(v), fd, rtol=0, atol=1e-8)


def test_smooth_norm_gap_trivial_cases():
    sp15 = NormedSpace(dim=4, primal_exponent=1.5)
    x = np.array([1.0, -2.0, 0.5, 3.0])
    assert sp15.smooth_norm_gap(x, np.zeros(4)) == pytest.approx(0.0, abs=1e-12)
    # Euclidean case is an exact parallelogram identity
    sp = NormedSpace.euclidean(4)
    rng = np.random.default_rng(3)
    for _ in range(100):
        x, y = rng.standard_normal((2, 4))
        assert sp.smooth_norm_gap(x, y) == pytest.approx(0.0, abs=1e-12)


def test_smooth_norm_gap_sweep():
    # Monte-Carlo sweep is the oracle: the inequality must never fail
    rng = np.random.default_rng(17)
    for p in SUPPORTED_PRIMALS:
        sp = NormedSpace(dim=5, primal_exponent=p)
        x = rng.standard_normal((10_000, 5))
        y = rng.standard_normal((10_000, 5)) * rng.choice([0.01, 1.0, 5.0], size=(10_000, 1))
        gap = sp.smooth_norm_gap(x, y)
        assert np.min(gap) >= -1e-9


def test_dim_mismatch_rejected():
    sp = NormedSpace.euclidean(3)
    with pytest.raises(ValueError):
        sp.primal_norm([1.0, 2.0])
    with pytest.raises(ValueError):
        sp.pairing([1.0, 2.0, 3.0], [1.0, 2.0])


@pytest.mark.parametrize("p", SUPPORTED_PRIMALS)
def test_batch_rows_match_single_vector_calls(p):
    # one arithmetic path: a batch row gets exactly the bits of the
    # single-vector call, so block-recorded diagnostics equal per-step ones
    sp = NormedSpace(dim=10, primal_exponent=p)
    rng = np.random.default_rng(2024)
    batch = rng.standard_normal((50, 10)) * rng.lognormal(0, 3, size=(50, 1))
    batch[0] = 0.0
    # the zero row sends the whole batch down the masked path at q = 2;
    # without it the rows take the lean path, also as a (7, 7, dim) block
    for fn in (sp.dual_norm, sp.primal_norm, sp.duality_map):
        single = [fn(v) for v in batch]
        for block in (batch, batch[1:], batch[1:].reshape(7, 7, 10)):
            rows = np.reshape(fn(block), (-1, 10) if fn == sp.duality_map else -1)
            for row, expect in zip(rows, single[len(batch) - len(rows):]):
                assert np.array_equal(row, expect), (fn.__name__, block.shape)


@pytest.mark.parametrize("p", SUPPORTED_PRIMALS)
def test_infinite_component_gives_infinite_norm(p):
    sp = NormedSpace(dim=3, primal_exponent=p)
    for fn in (sp.dual_norm, sp.primal_norm):
        assert fn([np.inf, 1.0, 1.0]) == np.inf
        assert fn([0.0, -np.inf, 0.0]) == np.inf
        assert math.isnan(fn([np.nan, 1.0, 1.0]))
        assert math.isnan(fn([np.nan, np.inf, 1.0]))
        batch = np.array([[1.0, 2.0, 3.0], [np.inf, 1.0, 1.0], [0.0, 0.0, 0.0],
                          [1e-3, -np.inf, np.inf], [np.nan, 1.0, 0.0]])
        rows = fn(batch)
        assert rows[1] == rows[3] == np.inf and rows[2] == 0.0
        assert math.isnan(rows[4])
        # with an infinite row in the batch, q = 2 takes the max-factored path
        assert rows[0] == pytest.approx(fn(batch[0]), rel=1e-15)
    # the duality map of k infinite components: sign(v_i) k^(-1/p) there and
    # 0 elsewhere, the map of sign(v) * isinf(v), a unit vector pairing to
    # inf with v; a NaN row maps to NaN
    c = 2.0 ** (-1.0 / p)
    cases = [([np.inf, 1.0, 1.0], [1.0, 0.0, 0.0]),
             ([0.0, -np.inf, 0.0], [0.0, -1.0, 0.0]),
             ([-np.inf, 2.0, np.inf], [-c, 0.0, c]),
             ([np.nan, 1.0, 1.0], [np.nan] * 3),
             ([np.nan, np.inf, 1.0], [np.nan] * 3)]
    batch = np.array([[1.0, 2.0, 3.0]] + [v for v, _ in cases])
    rows = sp.duality_map(batch)
    assert np.array_equal(rows[0], sp.duality_map(batch[0]))
    for row, (v, expect) in zip(rows[1:], cases):
        d = sp.duality_map(v)
        np.testing.assert_allclose(d, expect, rtol=1e-15)
        assert np.array_equal(d, row, equal_nan=True), v
        if not np.isnan(d).any():
            assert sp.primal_norm(d) == pytest.approx(1.0, rel=1e-15)
            assert sp.pairing(v, d) == np.inf
    # a finite vector whose norm overflows still maps to a unit vector
    v = np.array([1.5e308, -1.5e308, 0.0])
    d = sp.duality_map(v)
    assert np.array_equal(d, sp.duality_map(np.array([[1.0, 0.0, 0.0], v]))[1])
    np.testing.assert_allclose(d, [c, -c, 0.0], rtol=1e-15)


@pytest.mark.parametrize("p", SUPPORTED_PRIMALS)
def test_subnormal_vector_keeps_its_norm(p):
    # at q = 2 the squares of subnormal components underflow to 0; such a
    # vector is max-factored instead, so its norm is not 0 and its duality
    # map is a unit vector, not the no-step zero
    sp = NormedSpace(dim=3, primal_exponent=p)
    v = np.array([1e-310, 0.0, 0.0])
    if p == 2.0:
        assert sp.dual_norm(v) == sp.primal_norm(v) == 1e-310
    assert sp.dual_norm(v) == pytest.approx(1e-310, rel=1e-12)
    assert sp.primal_norm(sp.duality_map(v)) == pytest.approx(1.0, rel=1e-12)
    m = np.array([3e-310, -4e-310, 0.0])
    assert sp.primal_norm(sp.duality_map(m)) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("p", SUPPORTED_PRIMALS)
def test_extreme_rows_keep_single_vector_bits(p):
    # only a row whose sum of squares underflows, overflows or is NaN is
    # max-factored, so every row keeps the bits of its single-vector call
    sp = NormedSpace(dim=3, primal_exponent=p)
    rng = np.random.default_rng(11)
    batch = rng.standard_normal((2000, 3)) * rng.lognormal(0, 3, size=(2000, 1))
    batch[[3, 500, 1000, 1500, 1999]] = [[0.0, 0.0, 0.0], [1e-310, 0.0, 0.0],
                                         [1e200, 1e200, 0.0], [np.nan, 1.0, 1.0],
                                         [np.inf, 0.0, 1.0]]
    with np.errstate(over="ignore", invalid="ignore"):  # the inf and NaN rows
        for fn in (sp.dual_norm, sp.primal_norm, sp.duality_map):
            rows = fn(batch)
            for row, v in zip(rows, batch):
                assert np.array_equal(row, fn(v), equal_nan=True), (fn.__name__, v)


@pytest.mark.parametrize("p", SUPPORTED_PRIMALS)
def test_empty_batches_give_empty_arrays(p):
    sp = NormedSpace(dim=3, primal_exponent=p)
    for lead in ((0,), (2, 0)):
        empty = np.empty((*lead, 3))
        for fn in (sp.dual_norm, sp.primal_norm):
            out = fn(empty)
            assert isinstance(out, np.ndarray) and out.shape == lead, fn.__name__
        assert sp.duality_map(empty).shape == (*lead, 3)


@pytest.mark.parametrize("shape", [(4095,), (4096,), (4097,), (12_000,),
                                   (5, 819), (8, 512), (17, 241)])
def test_euclidean_inputs_about_the_lean_cap_keep_their_row_bits(shape, monkeypatch):
    # at q = 2 np.vdot guards the lean path; it never sees more than
    # _LEAN_BATCH elements (above about 1e4 it can be a threaded BLAS call),
    # and an input on either side of the cap gets the bits, sign bit
    # included, of its rows in a batch that takes the masked path
    sizes, vdot = [], np.vdot

    def spy(a, b):
        sizes.append(np.size(a))
        return vdot(a, b)

    monkeypatch.setattr(np, "vdot", spy)
    dim = shape[-1]
    sp = NormedSpace.euclidean(dim)
    rng = np.random.default_rng(7)
    v = rng.standard_normal(shape) * rng.lognormal(0, 3, size=(*shape[:-1], 1))
    v[..., 1] = -0.0
    big = np.concatenate([v.reshape(-1, dim), np.zeros((1, dim))])
    for fn in (sp.dual_norm, sp.primal_norm, sp.duality_map):
        got, rows = fn(v), fn(big)[:-1]
        if v.ndim == 1 and fn != sp.duality_map:
            assert type(got) is float
        assert np.asarray(got).tobytes() == rows.tobytes(), (fn.__name__, shape)
    assert max(sizes, default=0) <= _LEAN_BATCH, max(sizes)
    assert bool(sizes) == (v.size <= _LEAN_BATCH)  # the lean path was taken


def test_euclidean_squares_that_overflow_raise_no_warning():
    # at q = 2 a component above about 1e154 overflows its square; such a
    # vector, single or in a batch, is max-factored without a RuntimeWarning
    # (an error in this suite), and its norm, map and clip are the right ones
    sp = NormedSpace(dim=3, primal_exponent=2.0)
    cases = [([1e200, 1e200, 0.0], math.sqrt(2.0) * 1e200),
             ([1.3e154, -1.3e154, 1.3e154], math.sqrt(3.0) * 1.3e154),
             ([-1e300, 5.0, 0.0], 1e300)]
    batch = np.array([[1.0, 2.0, 2.0]] + [v for v, _ in cases])
    norms, maps = sp.dual_norm(batch), sp.duality_map(batch)
    clips = sp.clip_dual(batch, 2.0)
    assert norms[0] == 3.0
    for i, (v, norm) in enumerate(cases, start=1):
        v = np.array(v)
        assert sp.dual_norm(v) == sp.primal_norm(v) == norms[i]
        assert norms[i] == pytest.approx(norm, rel=1e-15)
        d = sp.duality_map(v)
        assert np.array_equal(d, maps[i])
        np.testing.assert_allclose(d, v / norm, rtol=1e-15)
        clipped = sp.clip_dual(v, 2.0)
        assert np.array_equal(clipped, clips[i])
        assert sp.dual_norm(clipped) == pytest.approx(2.0, rel=1e-15)


# signed zeros, subnormals, magnitudes from 1e-300 to 1e300, inf and NaN
_COMPONENTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2e-308,
                     math.inf, -math.inf, math.nan]),
    st.floats(1e-300, 1e300), st.floats(-1e300, -1e-300))


@st.composite
def _batches(draw):
    dim = draw(st.integers(1, 16))
    rows = draw(st.lists(st.lists(_COMPONENTS, min_size=dim, max_size=dim),
                         min_size=1, max_size=6))
    return np.array(rows)


@settings(max_examples=150, deadline=None)
@given(batch=_batches())
def test_fuzzed_single_vector_calls_keep_their_batch_row_bits(batch):
    # a single vector whose largest magnitude is a finite normal float takes
    # a lean path; every other vector takes the batch path.  Either way the
    # call gives the bits, sign bit included, of the vector's batch row
    def same(a, b):
        return (np.array_equal(a, b, equal_nan=True)
                and np.array_equal(np.signbit(a), np.signbit(b)))

    with np.errstate(over="ignore", invalid="ignore"):
        for p in SUPPORTED_PRIMALS:
            sp = NormedSpace(dim=batch.shape[1], primal_exponent=p)
            for name, fn in (("dual_norm", sp.dual_norm), ("primal_norm", sp.primal_norm),
                             ("duality_map", sp.duality_map),
                             ("clip_dual 1", partial(sp.clip_dual, threshold=1.0)),
                             ("clip_dual 1e200", partial(sp.clip_dual, threshold=1e200))):
                rows = fn(batch)
                for row, v in zip(rows, batch):
                    got = fn(v)
                    if name.endswith("norm"):
                        assert type(got) is float, (name, v)
                    assert same(got, row), (name, p, v)


def test_batched_shapes():
    sp = NormedSpace(dim=4, primal_exponent=1.5)
    batch = np.ones((6, 3, 4))
    assert np.shape(sp.dual_norm(batch)) == (6, 3)
    assert sp.duality_map(batch).shape == (6, 3, 4)
    assert isinstance(sp.dual_norm(np.ones(4)), float)
