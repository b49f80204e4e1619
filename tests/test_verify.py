"""The statistical checks of the ``verify`` suite: false alarms and power,
its input validation, its two lanes, and the leaf-streamed draws and
row chunks behind its largest checks."""

import math
import threading
from concurrent.futures import Future

import numpy as np
import pytest

from tailopt import concentration as conc
from tailopt import verify
from tailopt.problems import HeavyTailNoise, make_problem, pareto_radii
from tailopt.spaces import NormedSpace
from tailopt.verify import (_LEAF, _SIZE_FLOORS, _by_rows, _clip_slacks,
                            _duality_slacks, _holder_slack, _paired_draw,
                            _pairwise_sum, majorant_checks, oracle_moment_checks,
                            run_verification_suite, tail_moment_checks)


def test_tail_moment_checks_pass_at_every_seed():
    # the settling check tests R^0.5 of tail-1.5 streams, which has a
    # standard error, so correct draws pass at every seed, not 9 in 10
    failed = [(seed, check.name) for seed in range(50)
              for check in tail_moment_checks(seed, 10, 20_000) if not check.passed]
    assert failed == []


def test_p_moment_stabilizes_fails_below_twice_its_order(monkeypatch):
    # streams drawn at tail 0.75 < 2k = 1 give R^0.5 infinite variance: the
    # full and prefix means drift apart by far more than the closed-form
    # standard error of the tail-1.5 streams the check expects
    def heavier(self, rng, n):
        return pareto_radii(rng, n, 0.75, self.scale)

    monkeypatch.setattr(HeavyTailNoise, "sample_radii", heavier)
    for seed in range(5):
        _, stabilizes = tail_moment_checks(seed, 10, 20_000)
        assert not stabilizes.passed, (seed, stabilizes.worst)


@pytest.mark.parametrize("seed", range(3))
def test_oracle_unbiased_fails_on_a_biased_oracle(monkeypatch, seed):
    # the check runs the oracle's own arithmetic, so a constant bias in it
    # shows, while the oracle as it is passes on the same draws
    problem, space = make_problem("cosine_sum", 8), NormedSpace.euclidean(8)

    def oracle_check():
        return oracle_moment_checks(problem, space, np.random.default_rng(seed),
                                    100_000, 10)[0]

    check = oracle_check()
    assert check.name == "oracle_unbiased" and check.passed
    noisy_gradients = HeavyTailNoise.noisy_gradients

    def biased(grad, u, radii, space):
        return noisy_gradients(grad, u, radii, space) + 0.5

    monkeypatch.setattr(HeavyTailNoise, "noisy_gradients", staticmethod(biased))
    assert not oracle_check().passed


@pytest.fixture
def nothing_started(monkeypatch):
    """Fail the test if the suite makes a generator or starts its worker."""
    def started(*args, **kwargs):
        raise AssertionError("started after a refused input")

    monkeypatch.setattr(verify.np.random, "default_rng", started)
    monkeypatch.setattr(verify, "ThreadPoolExecutor", started)


@pytest.mark.parametrize("key, size", [
    ("tail_n", 5), ("moment_n", 0), ("majorant_streams", 0), ("duality", 0),
    ("power_mean", 10), ("coverage_trials", 0), ("tail_seeds", 0),
    ("fd_points", 0), ("trunc_trials", 99_999), ("smoke_T", 2.5),
    ("unbias_n", True), ("tail_nn", 10_000)])
def test_unusable_sizes_are_refused_by_name(nothing_started, key, size):
    with pytest.raises(ValueError, match=key):
        run_verification_suite(sizes={key: size})


@pytest.mark.parametrize("delta", [2.0, 1.0, 0.0, -0.1, math.nan, "0.1"])
def test_a_delta_outside_0_1_is_refused_by_name(nothing_started, delta):
    # delta = 2 used to draw for seconds and then fail in the coverage section
    with pytest.raises(ValueError, match="delta"):
        run_verification_suite(delta=delta)


def test_every_check_runs_at_its_smallest_size():
    assert len(run_verification_suite(sizes=_SIZE_FLOORS)) == 53


class _InlineExecutor:
    """The executor's interface, running each call as it is submitted."""

    def __init__(self, **kwargs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


def _spy(monkeypatch, name, record):
    """Wrap verify's ``name`` so each call appends ``record()`` to a list."""
    calls, fn = [], getattr(verify, name)

    def spied(*args, **kwargs):
        calls.append(record())
        return fn(*args, **kwargs)

    monkeypatch.setattr(verify, name, spied)
    return calls


def _on_main_thread():
    return threading.current_thread() is threading.main_thread()


def _rows_and_notes(seed):
    return [(c.row(), c.note) for c in run_verification_suite(seed, _SIZE_FLOORS)]


def test_the_lanes_give_the_serial_rows(monkeypatch):
    # the worker lane draws the suite's generator after the main lane has
    # handed it over; run inline, both lanes run on one thread, one after
    # the other.  The main lane keeps the large-memory coverage section
    majorant_on_main = _spy(monkeypatch, "majorant_checks", _on_main_thread)
    coverage_on_main = _spy(monkeypatch, "coverage_rows", _on_main_thread)
    lanes = [_rows_and_notes(seed) for seed in range(3)]
    assert majorant_on_main == [False] * 6 and coverage_on_main == [True] * 3
    monkeypatch.setattr(verify, "ThreadPoolExecutor", _InlineExecutor)
    assert lanes == [_rows_and_notes(seed) for seed in range(3)]


class _SectionError(Exception):
    pass


@pytest.mark.parametrize("section", ["majorant_checks", "coverage_rows"])
def test_an_error_in_either_lane_surfaces_after_both_are_joined(monkeypatch, section):
    def fail(*args):
        raise _SectionError(section)

    monkeypatch.setattr(verify, section, fail)
    threads = threading.active_count()
    with pytest.raises(_SectionError, match=section):
        run_verification_suite(sizes=_SIZE_FLOORS)
    assert threading.active_count() == threads


def test_the_worker_lane_runs_under_the_callers_errstate(monkeypatch):
    seen = _spy(monkeypatch, "majorant_checks", np.geterr)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        caller = np.geterr()
        run_verification_suite(sizes=_SIZE_FLOORS)
    assert caller != np.geterr() and seen == [caller] * 2


@pytest.mark.parametrize("p", verify.SPACE_GRID)
def test_row_chunks_have_the_bits_of_the_whole_batch(p):
    # two whole chunks and a last one of 3 rows, 24 values, which takes the
    # lean Euclidean path; rows of every scale, some clipped, some not
    space, rows = NormedSpace(dim=8, primal_exponent=p), _LEAF // 8
    rng = np.random.default_rng(7)
    v = rng.standard_normal((2 * rows + 3, 8)) * rng.lognormal(0, 3, (2 * rows + 3, 1))
    w = rng.standard_normal(v.shape)
    for fn, batches in ((lambda v: _duality_slacks(space, v), (v,)),
                        (lambda v: _clip_slacks(space, v, 1.7), (v,)),
                        (lambda v, w: _holder_slack(space, v, w), (v, w))):
        assert np.array_equal(_by_rows(fn, *batches), fn(*batches))


def _stream(values):
    """draw(m) for _pairwise_sum: the next m values along the last axis,
    as a copy, and the list of the m asked for."""
    asked = []

    def draw(m):
        start = sum(asked)
        asked.append(m)
        return values[..., start:start + m].copy()

    return draw, asked


@pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, _LEAF - 1, _LEAF,
                               _LEAF + 1, 2 * _LEAF + 8, 10**6 + 3])
def test_pairwise_sum_has_the_bits_of_one_reduce(n):
    rng = np.random.default_rng(n)
    for values in (rng.random(n), pareto_radii(rng, n, 1.5)):
        draw, asked = _stream(values)
        assert _pairwise_sum(draw, n) == np.add.reduce(values)
        assert sum(asked) == n and max(asked) <= _LEAF
        # k streams at once, as the tail check sums a square and a root
        both = np.stack((np.square(values), np.sqrt(values)))
        draw, _ = _stream(both)
        assert np.array_equal(_pairwise_sum(draw, n), np.add.reduce(both, axis=-1))


@pytest.mark.parametrize("n, leaf_rows, takes", [
    (1000, 64, (1, 500, 499)), (1000, 1000, (1000,)), (7, 3, (3, 3, 1))])
def test_paired_draw_has_the_bits_of_sample_batch_order(n, leaf_rows, takes):
    # sample_batch draws all n rows of normals, then n radii
    noise = HeavyTailNoise(p_moment=1.5, tail_index=1.8)
    whole = np.random.default_rng(11)
    normals = whole.standard_normal((n, 8))
    radii = noise.sample_radii(whole, n)
    rng = np.random.default_rng(11)
    take = _paired_draw(rng, n, leaf_rows,
                        lambda gen, m: gen.standard_normal((m, 8)),
                        noise.sample_radii)
    leaves = [take(m) for m in takes]
    assert np.array_equal(np.concatenate([u for u, _ in leaves]), normals)
    assert np.array_equal(np.concatenate([r for _, r in leaves]), radii)
    assert rng.random() == whole.random()


def _rows(checks):
    return [(c.name, c.samples, c.violations, float(c.worst).hex(), c.passed)
            for c in checks]


def _whole_oracle_rows(problem, space, rng, n_unbias, n_moment):
    noise = HeavyTailNoise(p_moment=1.5, tail_index=1.8)
    w = np.full(space.dim, 0.7)
    grad = problem.gradient(w)
    g = noise.sample_batch(problem, space, w, rng, n_unbias)
    mean_err = float(space.dual_norm(g.mean(axis=0) - grad))
    emp = float(np.mean(np.asarray(space.dual_norm(g - grad)) ** 1.5))
    tol = 3.0 * emp ** (1 / 1.5) * n_unbias ** (-(1.5 - 1) / 1.5)
    target = noise.radius_moment(0.5)
    bound = 5.0 * math.sqrt((noise.radius_moment(1.0) - target ** 2) / n_moment) / target
    rel = abs(float(np.mean(np.sqrt(noise.sample_radii(rng, n_moment)))) / target - 1.0)
    return [("oracle_unbiased", n_unbias, int(mean_err > tol), mean_err.hex(),
             mean_err <= tol),
            ("pareto_moment_closed_form", n_moment, int(rel > bound), rel.hex(),
             rel <= bound)]


def _whole_majorant_rows(space, rng, n_streams):
    rows = []
    for length in (1, 10, 100):
        xs = (rng.standard_normal((n_streams, length, space.dim))
              * rng.lognormal(0, 1.5, (n_streams, length, 1)))
        slack = (conc.s_sequence_majorant_batch(xs, space)
                 - np.asarray(space.dual_norm(np.sum(xs, axis=1))))
        bad = int(np.sum(slack < -1e-9))
        rows.append((f"s_majorant[dual_r={space.dual_exponent:g};T={length}]",
                     n_streams, bad, float(slack.min()).hex(), bad == 0))
    return rows


def _whole_tail_rows(seed, n_seeds, n):
    heavy = HeavyTailNoise(p_moment=1.2, tail_index=1.5)
    clip_ref = conc.clipped_pareto_second_moment(1.5, 1.0, 100.0)
    tol = 3.5 * 3.0 * math.sqrt(3.0 - 1.5 ** 2) / math.sqrt(n)  # Var R^0.5 = 3/4
    grow = stable = 0
    for i in range(n_seeds):
        r = heavy.sample_radii(np.random.default_rng([seed, 0x7A11, i]), n)
        grow += bool(np.mean(np.square(r)) > 1.2 * clip_ref)
        root = np.sqrt(r)
        stable += bool(abs(np.mean(root) - np.mean(root[:n // 10])) <= tol)
    need = math.ceil(0.8 * n_seeds)
    return [("heavy_tail_second_moment_grows", n_seeds, n_seeds - grow,
             float(grow).hex(), grow >= need),
            ("p_moment_stabilizes", n_seeds, n_seeds - stable,
             float(stable).hex(), stable >= need)]


@pytest.mark.parametrize("seed", range(5))
def test_streamed_checks_match_the_whole_array_rows(seed):
    # sizes above one leaf, with a last leaf of one stream at length 10
    n_unbias, n_moment = 3 * _LEAF // 8 + 5, 2 * _LEAF + 9
    n_streams = _LEAF // 50 + 1
    streamed = np.random.default_rng([seed, 0x7E51])
    whole = np.random.default_rng([seed, 0x7E51])
    problem, space = make_problem("cosine_sum", 8), NormedSpace.euclidean(8)
    assert (_rows(oracle_moment_checks(problem, space, streamed, n_unbias, n_moment))
            == _whole_oracle_rows(problem, space, whole, n_unbias, n_moment))
    for space in (NormedSpace.euclidean(4), NormedSpace(dim=4, primal_exponent=1.5)):
        assert (_rows(majorant_checks(space, streamed, n_streams))
                == _whole_majorant_rows(space, whole, n_streams))
    assert streamed.random() == whole.random()
    n = 2 * _LEAF + 3
    assert _rows(tail_moment_checks(seed, 3, n)) == _whole_tail_rows(seed, 3, n)
