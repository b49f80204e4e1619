"""Config handling, persistence, invariants, sweeps, CLI exit codes."""

import argparse
import math
import os
import re
from dataclasses import FrozenInstanceError, fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tailopt import cli, harness
from tailopt.concentration import WeightedStreamSpec, truncated_sum_bound
from tailopt.harness import (_BLOCK, CSV_HEADER, BurnInCompareResult,
                             ConfigError, RateSweepResult, RunConfig,
                             _descent_steps, build_experiment, burn_in_compare,
                             certificate_entries, check_trajectory_invariants,
                             descent_check, eps_hat_check, last_iterate_check,
                             rate_sweep, run, run_trajectory,
                             write_trajectory_csv)
from tailopt.optimizers import (clipped_momentum_step, extrapolation_point,
                                init_state, recommend_output)
from tailopt.problems import HeavyTailNoise
from tailopt.spaces import NormedSpace


def small_config(**kw):
    base = dict(T=400, seed=3, calib_samples=10_000, dim=4)
    base.update(kw)
    return RunConfig(**base)


def cli_run(cfg, *flags):
    """``tailopt run`` on ``cfg``, given as a config file beside its output
    directory; the exit code."""
    path = f"{cfg.out}.ini"
    with open(path, "w") as fh:
        fh.write(cfg.to_ini())
    return cli.main(["run", "--config", path, *flags])


def test_config_validation_names_the_field():
    with pytest.raises(ConfigError, match="algorithm"):
        RunConfig(algorithm="adam").validate()
    with pytest.raises(ConfigError, match="q:"):
        RunConfig(q=3.0).validate()
    with pytest.raises(ConfigError, match="tail_index"):
        RunConfig(p_moment=1.5, tail_index=1.2).validate()
    with pytest.raises(ConfigError, match="delta"):
        RunConfig(delta=0.0).validate()
    with pytest.raises(ConfigError, match="warmup"):
        RunConfig(warmup="linear").validate()


def test_config_alpha_overflow_is_actionable():
    cfg = small_config(T=2, b=50.0)
    with pytest.raises(ConfigError, match="too small"):
        build_experiment(cfg)


def test_config_file_round_trip(tmp_path):
    cfg = small_config(algorithm="nigt", q=1.5, warmup="hold", warmup_steps=7)
    path = tmp_path / "run.ini"
    path.write_text(cfg.to_ini())
    loaded = RunConfig.from_file(str(path))
    assert loaded == cfg
    with pytest.raises(ConfigError, match="not found"):
        RunConfig.from_file(str(tmp_path / "missing.ini"))


def test_config_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[run]\nlearning_rate = 0.1\n")
    with pytest.raises(ConfigError, match="unknown key") as err:
        RunConfig.from_file(str(path))
    assert str(err.value).startswith(f"config file {path}: ")
    # a value with a newline in it opens a key the file names
    path.write_text("[run]\nwarmup = \n0=\n")
    with pytest.raises(ConfigError, match=f"config file {re.escape(str(path))}: "
                                          "unknown key '0'"):
        RunConfig.from_file(str(path))


def test_trajectory_invariants_and_selection():
    exp = build_experiment(small_config())
    traj = run_trajectory(exp, 3)
    inv = check_trajectory_invariants(traj)
    assert all(inv.values()), inv
    assert 1 <= traj.selected_step <= traj.horizon
    # selected step minimizes the momentum norm over the post-burn-in range
    start = max(exp.cert.burn_in, 1)
    assert traj.m_norm[traj.selected_step - 1] == traj.m_norm[start - 1:].min()


def _per_step_reference(exp, seed):
    """The trajectory recorded step by step, with single-vector calls."""
    problem, noise, space, hp = exp.problem, exp.noise, exp.space, exp.hp
    rng = np.random.default_rng(seed)
    state = init_state(problem.start)
    rec = {name: [] for name in ("objective", "grad_norm", "m_norm", "eps_hat",
                                 "eps", "clipped", "sample_norm", "clip_norm",
                                 "step_len", "w_norm")}
    for t in range(hp.horizon):
        w_t = state.w
        grad_t = problem.gradient(w_t)
        if exp.config.algorithm == "nigt":
            query = extrapolation_point(state, hp.beta)
        else:
            query = w_t
        sample = noise.sample(problem, space, query, rng)
        state, g_clip = clipped_momentum_step(state, sample, hp, space,
                                              lr=exp.lr_seq[t])
        query_grad = problem.gradient(query)
        for name, value in (("objective", problem.value(w_t)),
                            ("grad_norm", space.dual_norm(grad_t)),
                            ("m_norm", space.dual_norm(state.m)),
                            ("eps_hat", space.dual_norm(state.m - grad_t)),
                            ("eps", space.dual_norm(g_clip - query_grad)),
                            ("clipped", space.dual_norm(sample) > hp.tau),
                            ("sample_norm", space.dual_norm(sample)),
                            ("clip_norm", space.dual_norm(g_clip)),
                            ("step_len", space.primal_norm(state.w - w_t)),
                            ("w_norm", space.primal_norm(w_t))):
            rec[name].append(value)
    out = {name: np.array(values) for name, values in rec.items()}
    out["final_w"] = state.w
    out["final_f"] = problem.value(state.w)
    out["selected_step"] = recommend_output(out["m_norm"], exp.cert.burn_in)
    return out


# one full block plus a partial one, for each algorithm, norm and warmup;
# then a zero-noise oracle and a horizon shorter than one block
_REFERENCE_CASES = [
    *(pytest.param(algorithm, q, warmup, {}, id=f"{algorithm}-{q}-{warmup}")
      for algorithm in ("nsgd", "nigt") for q in (2.0, 1.5)
      for warmup in ("none", "hold")),
    pytest.param("nigt", 1.5, "none", {"noise_scale": 0.0},
                 id="nigt-1.5-none-zero_noise"),
    pytest.param("nsgd", 1.5, "hold", {"T": 300}, id="nsgd-1.5-hold-short"),
]


@pytest.mark.parametrize("algorithm, q, warmup, extra", _REFERENCE_CASES)
def test_block_recording_matches_per_step_reference(algorithm, q, warmup, extra):
    # b = 20 lowers the threshold enough that clipping fires on every noisy case
    cfg = small_config(algorithm=algorithm, q=q, T=_BLOCK + 3, noise_scale=3.0,
                       b=20.0, warmup=warmup, warmup_steps=200)
    exp = build_experiment(replace(cfg, **extra))
    traj = run_trajectory(exp, 3)
    ref = _per_step_reference(exp, 3)
    assert traj.clipped.any() == (exp.noise.scale > 0.0)
    for name, expect in ref.items():
        assert np.array_equal(getattr(traj, name), expect), name
    assert traj.final_w.tobytes() == ref["final_w"].tobytes()


@pytest.mark.parametrize("algorithm", ["nsgd", "nigt"])
def test_step_loop_draws_noise_once_per_block(monkeypatch, algorithm):
    exp = build_experiment(small_config(algorithm=algorithm, T=2 * _BLOCK + 5))
    blocks = []
    draw_steps = HeavyTailNoise.draw_steps

    def counted(self, space, rngs, n):
        blocks.append((n, len(rngs)))
        return draw_steps(self, space, rngs, n)

    def no_sample(*args):
        raise AssertionError("the step loop called HeavyTailNoise.sample")

    monkeypatch.setattr(HeavyTailNoise, "draw_steps", counted)
    monkeypatch.setattr(HeavyTailNoise, "sample", no_sample)
    run_trajectory(exp, 3)
    assert blocks == [(_BLOCK, 1), (_BLOCK, 1), (5, 1)]  # ceil(T / _BLOCK) draws


@pytest.mark.parametrize("algorithm", ["nsgd", "nigt"])
def test_step_loop_computes_norms_per_block(monkeypatch, algorithm):
    # one clip and one duality map per step, the update itself; the dual
    # norms come in batched calls per block (the block's noise draw and its
    # diagnostics), and one per step only inside a clip that the dot product
    # left undecided
    T = 2 * _BLOCK + 5
    exp = build_experiment(small_config(algorithm=algorithm, T=T, noise_scale=3.0,
                                       b=20.0))
    calls = {"dual_norm": [], "duality_map": []}
    for name in calls:
        def spy(self, v, fn=getattr(NormedSpace, name), seen=calls[name]):
            seen.append(np.ndim(v))
            return fn(self, v)
        monkeypatch.setattr(NormedSpace, name, spy)
    clips = []  # per clip: whether the dot product settles it, and its dual norms

    def clip(self, v, threshold, fn=NormedSpace.clip_dual):
        seen = len(calls["dual_norm"])
        out = fn(self, v, threshold)
        inside = np.vdot(v, v) <= threshold * threshold * (1.0 - 1e-9)
        clips.append((inside, calls["dual_norm"][seen:]))
        return out

    monkeypatch.setattr(NormedSpace, "clip_dual", clip)
    traj = run_trajectory(exp, 3)
    blocks = -(-T // _BLOCK)
    undecided = sum(not inside for inside, _ in clips)
    assert len(clips) == T and 0 < undecided <= T // 20
    assert all(norms == ([] if inside else [1]) for inside, norms in clips)
    assert calls["duality_map"] == [1] * T  # one map of one 1-D momentum a step
    per_step = [d for d in calls["dual_norm"] if d == 1]
    assert len(per_step) == undecided
    assert len(calls["dual_norm"]) - undecided <= 8 * blocks
    assert traj.clipped.sum() <= undecided


def test_tau_fault_injection_detected():
    # run with a halved clip threshold; the momentum-ball invariant against
    # the intended hyperparameters still passes, tau-consistency must fail
    cfg = small_config(noise_scale=3.0, T=1000, b=5.0)  # low threshold: clips fire
    exp = build_experiment(cfg)
    hp_intended = exp.hp
    faulty_hp = replace(hp_intended, grad_bound=hp_intended.grad_bound / 2.0,
                        tau=hp_intended.tau / 2.0)
    traj = run_trajectory(replace(exp, hp=faulty_hp), 3)
    assert traj.clipped.any()  # the bug is visible only if clipping fired
    inv = check_trajectory_invariants(traj, hp_intended)
    assert inv["momentum_ball"]
    assert not inv["tau_consistency"]


@pytest.mark.parametrize("step_tau", [0.5, math.inf], ids=["half_tau", "no_clip"])
def test_tau_consistency_checks_the_clip_the_step_made(monkeypatch, step_tau):
    # the schedule is right, but the step clips at another threshold: the
    # clip flags and raw norms look right, the samples it stepped on do not
    exp = build_experiment(small_config(T=_BLOCK + 3, noise_scale=3.0, b=20.0))
    assert all(check_trajectory_invariants(run_trajectory(exp, 3)).values())
    step_hp = replace(exp.hp, grad_bound=step_tau * exp.hp.grad_bound,
                      tau=step_tau * exp.hp.tau)

    def faulty_step(state, sample, hp, space, lr, out=(None, None)):
        return clipped_momentum_step(state, sample, step_hp, space, lr, out)

    monkeypatch.setattr("tailopt.harness.clipped_momentum_step", faulty_step)
    traj = run_trajectory(exp, 3)
    assert traj.clipped.any()
    inv = check_trajectory_invariants(traj)
    assert inv["step_length"] and inv["momentum_ball"]
    assert not inv["tau_consistency"]


def test_csv_schema_and_byte_determinism(tmp_path):
    exp = build_experiment(small_config())
    traj = run_trajectory(exp, 3)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trajectory_csv(traj, str(p1))
    write_trajectory_csv(run_trajectory(exp, 3), str(p2))
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    lines = b1.decode().splitlines()
    assert lines[0] == CSV_HEADER == "t,f,grad_norm,m_norm,eps_hat,eps,clipped,eta"
    assert len(lines) == traj.horizon + 1
    row = lines[1].split(",")
    assert int(row[0]) == 1
    assert float(row[1]) == traj.objective[0]  # 17 significant digits round-trip


def test_run_writes_artifacts(tmp_path):
    cfg = small_config(seeds=2, out=str(tmp_path / "exp"))
    assert cli_run(cfg) == 0
    assert (tmp_path / "exp" / "config.txt").exists()
    for seed in (3, 4):
        sub = tmp_path / "exp" / f"seed_{seed:04d}"
        assert (sub / "trajectory.csv").exists()
        assert (sub / "certificate.txt").exists()
        cert_text = (sub / "summary.txt").read_text()
        assert "final_f=" in cert_text
    cert = (tmp_path / "exp" / "seed_0003" / "certificate.txt").read_text()
    assert "burn_in=" in cert and "momentum_threshold=" in cert


@pytest.mark.parametrize("algorithm, order", [("nsgd", "first"), ("nigt", "second")])
def test_the_certificate_order_follows_the_algorithm(tmp_path, capsys, algorithm, order):
    out = tmp_path / "out"
    assert cli.main(["run", "--algo", algorithm, "--T", "50", "--dim", "2",
                     "--out", str(out)]) == 0
    cert = (out / "seed_0000" / "certificate.txt").read_text().splitlines()
    assert cert[0] == f"order={order}"


def test_the_schedule_order_is_no_config_field(tmp_path, capsys):
    # the algorithm alone picks the order: no flag or key can mix them
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--algo", "nsgd", "--order", "second", "--T", "50"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --order" in capsys.readouterr().err
    path = tmp_path / "old.ini"
    path.write_text("[run]\norder = second\n")
    assert cli.main(["run", "--config", str(path), "--T", "50"]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: config file {path}: unknown key 'order'")


def _text_is(text: str, value) -> bool:
    """A float cell holds the bits of ``value``; any other cell its str."""
    if isinstance(value, float):
        return float(text).hex() == value.hex()
    return text == str(value)


def _assert_csv_round_trips(path, header, rows):
    lines = path.read_text().splitlines()
    assert lines[0] == header and len(lines) == len(rows) + 1
    for line, row in zip(lines[1:], rows):
        cells = line.split(",")
        assert len(cells) == len(row)
        assert all(_text_is(c, v) for c, v in zip(cells, row)), (line, row)


def _assert_key_values_round_trip(path, entries):
    lines = path.read_text().splitlines()
    assert [line.split("=", 1)[0] for line in lines] == list(entries)
    for line in lines:
        key, text = line.split("=", 1)
        assert _text_is(text, entries[key]), (line, entries[key])


def test_artifacts_round_trip_bit_for_bit(tmp_path, monkeypatch, capsys):
    from tailopt.verify import CheckResult

    cfg = small_config(seeds=2, T=300, out=str(tmp_path / "run"))
    exp = build_experiment(cfg)
    assert cli_run(cfg) == 0
    for traj in run(cfg):
        sub = tmp_path / "run" / f"seed_{traj.seed:04d}"
        columns = (traj.steps, traj.objective, traj.grad_norm, traj.m_norm,
                   traj.eps_hat, traj.eps, traj.clipped, traj.lr)
        _assert_csv_round_trips(sub / "trajectory.csv", CSV_HEADER,
                                list(zip(*(c.tolist() for c in columns))))
        _assert_key_values_round_trip(sub / "certificate.txt",
                                      certificate_entries(exp.hp, exp.cert))
        _assert_key_values_round_trip(sub / "summary.txt", traj.summary())

    flags = ["--T", "50", "--dim", "3", "--seeds", "2"]
    out = tmp_path / "sweep"
    assert cli.main(["rate-sweep", *flags, "--T-grid", "50,200,1600",
                     "--out", str(out)]) == 0
    sweep = rate_sweep(RunConfig(T=50, dim=3, seeds=2), [50, 200, 1600])
    _assert_csv_round_trips(out / "rate_sweep.csv", "T,avg_grad_norm,min_grad_norm",
                            sweep.rows())
    _assert_key_values_round_trip(out / "rate_fit.txt",
                                  {"slope": sweep.slope, "stderr": sweep.stderr,
                                   "target": sweep.target})

    out = tmp_path / "burn"
    assert cli.main(["burn-in", *flags, "--out", str(out)]) == 0
    compare = burn_in_compare(RunConfig(T=50, dim=3, seeds=2))
    _assert_csv_round_trips(
        out / "burn_in_compare.csv",
        "mode,seed,final_f,min_grad_norm,post_burn_in_violations",
        [(mode, i, float(compare.final_f[mode][i]),
          float(compare.min_grad[mode][i]),
          int(compare.post_burn_in_violations[mode][i]))
         for mode in ("none", "hold") for i in range(2)])

    awkward = [CheckResult("third", 3, 0, 1 / 3, True),
               CheckResult("tiny", 1, 0, 1e-300, True),
               CheckResult("subnormal", 1, 0, 5e-324, True),
               CheckResult("negative_zero", 1, 0, -0.0, True),
               CheckResult("infinite", 1, 1, math.inf, False),
               CheckResult("numpy", 1, 0, np.float64(0.1), True)]
    monkeypatch.setattr("tailopt.verify.run_verification_suite",
                        lambda seed=0, sizes=None, delta=0.1: awkward)
    out = tmp_path / "verify"
    assert cli.main(["verify", "--out", str(out)]) == 1
    _assert_csv_round_trips(out / "verify_report.csv",
                            "check,samples,violations,worst,pass",
                            [(r.name, r.samples, r.violations, float(r.worst),
                              int(r.passed)) for r in awkward])


def test_run_zero_noise_descends():
    cfg = small_config(problem="quadratic", noise_scale=0.0, T=150)
    traj = next(run(cfg))
    assert traj.final_f < traj.objective[0]


def test_theorem_checks_on_trajectory():
    exp = build_experiment(small_config(T=600))
    traj = run_trajectory(exp, 3)
    qualifying, violations = descent_check(traj)
    assert qualifying >= 0 and violations <= qualifying
    assert eps_hat_check(traj) == 0  # bound is loose at desk scale
    assert last_iterate_check(traj)


def _descent_reference(objective, final_f, m_norm, lr, start, threshold):
    """(qualifying, violating) counts of the descent rule, step by step."""
    qualifying = violating = 0
    T = len(objective)
    for t in range(start, T + 1):
        f_next = objective[t] if t < T else final_f
        if m_norm[t - 1] >= threshold:
            qualifying += 1
            violating += bool(f_next >= objective[t - 1]
                              - 0.5 * lr[t - 1] * m_norm[t - 1] + 1e-9)
    return qualifying, violating


@st.composite
def _descent_cases(draw):
    T = draw(st.integers(1, 40))
    values = st.floats(-1e3, 1e3)
    objective = draw(st.lists(values, min_size=T, max_size=T))
    m_norm = draw(st.lists(st.one_of(st.floats(0.0, 10.0), st.just(math.nan)),
                           min_size=T, max_size=T))
    lr = draw(st.lists(st.floats(0.0, 1.0), min_size=T, max_size=T))
    start = draw(st.integers(1, T + 3))
    threshold = draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0)))
    return objective, draw(values), m_norm, lr, start, threshold


@settings(max_examples=300, deadline=None)
@given(case=_descent_cases())
def test_descent_rule_matches_a_per_step_loop(case):
    # the shared rule behind the gate's checks and burn_in_compare: NaN
    # momentum norms never qualify, a start past T leaves an empty window
    objective, final_f, m_norm, lr, start, threshold = case
    traj = SimpleNamespace(objective=np.array(objective), final_f=final_f,
                           m_norm=np.array(m_norm), lr=np.array(lr))
    _, qualify, violate = _descent_steps(traj, start, threshold)
    assert qualify.size == violate.size == max(len(objective) - start + 1, 0)
    assert not np.any(violate & ~qualify)
    assert (int(qualify.sum()), int(violate.sum())) == _descent_reference(
        objective, final_f, m_norm, lr, start, threshold)


def test_burn_in_compare_counts_the_rule_after_the_burn_in():
    # the unconditioned count: every step after the effective burn-in (here
    # the forced hold) qualifies, at threshold 0
    cfg = small_config(seeds=2, warmup_steps=40, T=300)
    res = burn_in_compare(cfg)
    assert res.burn_in == 40
    for mode in ("none", "hold"):
        exp = build_experiment(replace(cfg, warmup=mode))
        expected = [_descent_reference(t.objective.tolist(), t.final_f,
                                       t.m_norm.tolist(), t.lr.tolist(),
                                       41, 0.0)[1]
                    for t in (run_trajectory(exp, s) for s in (3, 4))]
        assert res.post_burn_in_violations[mode].tolist() == expected
    assert sum(res.post_burn_in_violations["none"]) > 0


def test_certificate_checks_follow_the_rule_at_any_certificate():
    # the certified window starts at max(burn-in, 1) and qualifies at the
    # certificate's threshold; move both so that steps qualify and violate
    traj = run_trajectory(build_experiment(small_config(T=300)), 3)
    for burn_in, quantile in ((0, 0.5), (1, 0.9), (120, 0.2), (300, 0.0)):
        cert = replace(traj.cert, burn_in=burn_in,
                       momentum_threshold=float(np.quantile(traj.m_norm, quantile)))
        moved = replace(traj, cert=cert)
        start = max(burn_in, 1)
        assert descent_check(moved) == _descent_reference(
            traj.objective.tolist(), traj.final_f, traj.m_norm.tolist(),
            traj.lr.tolist(), start, cert.momentum_threshold)
        assert eps_hat_check(moved) == int(np.sum(
            traj.eps_hat[start - 1:] > cert.momentum_error_bound))
        below = [t for t in range(start, 301)
                 if traj.m_norm[t - 1] < cert.momentum_threshold]
        t_hat = below[-1] if below else start
        assert last_iterate_check(moved) == bool(
            traj.objective[-1] <= traj.objective[t_hat - 1] + 1e-9)
    # at threshold 0 every step qualifies, and t_hat is the burn-in step
    # itself: on a falling objective that ends halfway, a burn-in of 150
    # passes and one of 151 fails
    f = np.linspace(1.0, 0.0, traj.horizon)
    f[-1] = 0.5
    verdicts = [last_iterate_check(replace(traj, objective=f, cert=replace(
        traj.cert, burn_in=burn_in, momentum_threshold=0.0))) for burn_in in (150, 151)]
    assert verdicts == [True, False]


def test_rate_sweep_slope_on_synthetic():
    cfg = small_config(T=100, seeds=2)
    res = rate_sweep(cfg, [100, 400, 3200])
    assert res.horizons.size == 3
    assert np.all(res.avg_grad > 0)
    assert res.target == pytest.approx(-0.2)  # p = 1.5, first order
    with pytest.raises(ConfigError):
        rate_sweep(cfg, [100, 200])


def test_burn_in_compare_modes_match_without_burn_in():
    # certificate burn-in is 0 at this scale: both modes identical seed-wise
    cfg = small_config(seeds=3)
    res = burn_in_compare(cfg)
    if res.burn_in == 0:
        np.testing.assert_array_equal(res.final_f["none"], res.final_f["hold"])
    summary = res.mode_summary("hold")
    assert summary["seeds"] == 3


def test_burn_in_paired_comparison_heavy_noise():
    # paired over 20 seeds with a real hold phase: hold mode's post-burn-in
    # non-descent count is no worse than none's on at least half the seeds
    cfg = small_config(dim=10, T=2_000, seeds=20, warmup_steps=150,
                      tail_index=1.6, noise_scale=3.0)
    res = burn_in_compare(cfg)
    wins = np.sum(res.post_burn_in_violations["hold"]
                  <= res.post_burn_in_violations["none"])
    assert wins >= 10
    for mode in ("none", "hold"):  # report structurally complete
        s = res.mode_summary(mode)
        assert s["seeds"] == 20 and np.isfinite(s["final_f_mean"])


def test_burn_in_compare_with_forced_hold():
    cfg = small_config(seeds=2, warmup_steps=50, T=300)
    res = burn_in_compare(cfg)
    assert res.burn_in == 50
    # frozen start: hold keeps the first 50 objectives flat
    exp = build_experiment(replace(cfg, warmup="hold"))
    traj = run_trajectory(exp, cfg.seed)
    assert np.all(traj.objective[:50] == traj.objective[0])
    assert np.all(traj.lr[:50] == 0.0)


def test_nigt_runs_and_matches_nsgd_at_beta_zero():
    cfg = small_config(T=120, algorithm="nigt")
    traj = next(run(cfg))
    assert check_trajectory_invariants(traj)["step_length"]


def test_cli_run_and_exit_codes(tmp_path, capsys):
    out = str(tmp_path / "cli_exp")
    code = cli.main(["run", "--T", "200", "--seed", "5", "--dim", "4",
                     "--out", out, "--plots"])
    assert code == 0
    assert os.path.exists(os.path.join(out, "seed_0005", "trajectory.csv"))
    svg = os.path.join(out, "seed_0005", "objective.svg")
    assert os.path.exists(svg)
    assert open(svg).read().startswith("<svg")
    assert "seed 5" in capsys.readouterr().out
    # config errors exit 2 with a diagnostic naming the field
    code = cli.main(["run", "--T", "0"])
    assert code == 2
    assert "T" in capsys.readouterr().err


# an argument that the test replaces with the path of a file that exists
_EXISTING_FILE = "<existing file>"


@pytest.mark.parametrize("argv, ini, field", [
    (["run", "--seed", "-1"], None, "seed"),
    (["rate-sweep", "--T-grid", "1000,x"], None, "T-grid"),
    (["rate-sweep", "--T-grid", "100,200,300"], None, "T-grid"),
    (["run"], "[problem]\namplitude = -1\n", "amplitude"),
    (["run"], "[problem]\neig_min = 0\n", "eig_min"),
    (["run"], "[problem]\neig_min = 3.0\n", "eig_min"),
    (["run"], "[noise]\nsafety = nan\n", "safety"),
    (["run"], "[problem]\nstart_value = nan\n", "start_value"),
    (["run"], "[run]\nT =\n", "T"),
    (["verify", "--seed", "-1"], None, "seed"),
    (["verify", "--delta", "0"], None, "delta"),
    (["concentration", "--trials", "0"], None, "trials"),
    (["concentration", "--delta", "2"], None, "delta"),
    (["run"], "[run]\nalgorithm = ns%gd\n", "algorithm"),
    (["run", "--dim", "1000000000000", "--T", "10"], None, "dim, T, calib_samples"),
    *(([command, "--out", _EXISTING_FILE], None, "out")
      for command in ("run", "rate-sweep", "burn-in", "verify", "concentration")),
    (["run", "--dim", "4611686018427387904", "--T", "10"], None, "dim"),
    (["run", "--T", "100000000000000000000000", "--dim", "2"], None, "T"),
    (["run"], "[noise]\ncalib_samples = 100000000000000000000\n", "calib_samples"),
    (["run"], "[noise]\ncalib_samples = 1000000000000000000\n", "calib_samples, dim"),
    (["run", "--noise-scale", "0"], "[problem]\nstart_value = 0\n",
     "start_value, noise_scale"),
    (["run", "--T", "2", "--b", "5"], None, "T, b"),
    (["rate-sweep", "--T-grid", "10,100,1000", "--b", "5"], None, "T-grid, b"),
    (["rate-sweep", "--T-grid", "1000,10000,100000000000000000000000"], None,
     "T-grid"),
    (["concentration", "--trials", "10", "--length", "100000000000000000000"], None,
     "length"),
    (["concentration", "--trials", "100000000000000000000"], None, "trials"),
    (["concentration", "--trials", "10000000000", "--length", "10000000000"], None,
     "trials, length"),
    # finite inputs whose derived constants overflow: G, log(3T/delta),
    # tau, the descent threshold, s^2 / b^2 of the second-order certificate
    (["run", "--T", "50", "--dim", "3", "--noise-scale", "1e250"], None,
     "amplitude, noise_scale, safety"),
    (["run", "--T", "50", "--dim", "3", "--noise-scale", "1e308"], None,
     "amplitude, noise_scale, safety"),
    (["run", "--T", "50", "--dim", "3", "--delta", "1e-320"], None, "T, delta"),
    (["run", "--T", "50", "--dim", "3"], "[noise]\nsafety = 1e308\n",
     "amplitude, noise_scale, safety"),
    (["run", "--T", "50", "--dim", "3"], "[problem]\namplitude = 1e308\n",
     "amplitude, noise_scale, safety"),
    (["run", "--T", "50", "--dim", "3", "--problem", "quadratic",
      "--noise-scale", "1e250"], None, "eig_max, start_value, noise_scale, safety"),
    (["run", "--T", "50", "--dim", "3", "--noise-scale", "1e110", "--b", "1e-300"],
     None, "T, b, amplitude, noise_scale, safety"),
    (["run", "--T", "50", "--dim", "3", "--b", "1e-320"], None,
     "T, s, b, amplitude, noise_scale, safety"),
    (["run", "--T", "50", "--dim", "3", "--algo", "nigt", "--s", "1e200"], None, "s, b"),
    # a flag's text is parsed and checked as the INI value would be
    (["run", "--dim", "x"], None, "dim"),
    (["run", "--algo", "x"], None, "algorithm"),
    (["verify", "--seed", "x"], None, "seed"),
    (["run", "--T", "10", "--dim", "2", "--seeds", "100000000000000000000"], None,
     "seeds"),
    # a quadratic whose objective overflows on its own path
    (["run", "--problem", "quadratic", "--start-value", "1e200", "--dim", "2",
      "--T", "5"], None, "s, T, dim, eig_max, start_value"),
    (["run", "--problem", "quadratic", "--s", "1e200", "--dim", "2", "--T", "5",
      "--out", "q1"], None, "s, T, dim, eig_max, start_value"),
    # the descent threshold grows with the horizon: finite at T = 100 and
    # 10^4, inf at 10^6
    (["rate-sweep", "--T-grid", "100,10000,1000000", "--safety", "5e304",
      "--calib-samples", "10000"], None, "T-grid, s, b, amplitude, noise_scale, safety"),
])
def test_cli_bad_input_exits_2_naming_the_field(tmp_path, monkeypatch, capsys,
                                                 argv, ini, field):
    monkeypatch.chdir(tmp_path)  # a relative --out is made here, then removed
    taken = tmp_path / "taken"
    taken.write_text("")
    argv = [str(taken) if arg == _EXISTING_FILE else arg for arg in argv]
    if ini is not None:
        path = tmp_path / "bad.ini"
        path.write_text(ini)
        argv = argv + ["--config", str(path)]

    def no_work(*args, **kwargs):
        raise AssertionError("a bad input reached the work it configures")

    # every input here is refused before a step, a suite check or a coverage run
    monkeypatch.setattr("tailopt.harness.run_trajectory", no_work)
    monkeypatch.setattr("tailopt.verify.run_verification_suite", no_work)
    monkeypatch.setattr("tailopt.verify.coverage_rows", no_work)
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}:")


@pytest.mark.parametrize("argv", [
    ["run", "--T", "2", "--b", "5", "--out", "a/b"],
    ["rate-sweep", "--T-grid", "10,100,1000", "--b", "5", "--out", "c"],
    ["burn-in", "--T", "2", "--b", "5", "--out", "d"],
    pytest.param(["rate-sweep", "--T-grid", "100,200,300", "--out", "e"],
                 id="rate-sweep-grid"),
    ["concentration", "--trials", "0", "--out", "f"],
], ids=lambda argv: argv[0])
def test_a_refused_command_removes_only_the_directories_it_made(
        tmp_path, monkeypatch, capsys, argv):
    # refused when the experiment is built, the grid checked or the
    # coverage batch sized, each after --out was made
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    assert list(tmp_path.iterdir()) == []
    (tmp_path / "kept").mkdir()
    assert cli.main([*argv[:-1], "kept"]) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["kept"]


def _subcommand(name: str) -> argparse.ArgumentParser:
    sub = next(a for a in cli._parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices[name]


@pytest.mark.parametrize("command", ["run", "rate-sweep", "burn-in", "verify",
                                     "concentration"])
def test_every_config_field_has_one_flag_and_one_section(command):
    names = [f.name for f in fields(RunConfig)]
    assert sorted(CONFIG_FIELDS) == sorted(names)  # each in exactly one section
    flags = {}
    for action in _subcommand(command)._actions:
        if action.dest in names:  # text only: the INI rule parses and checks it
            assert action.type is None and action.choices is None, action
            flags.setdefault(action.dest, []).extend(action.option_strings)
    wanted = names if command in ("run", "rate-sweep", "burn-in") else ["seed", "delta", "out"]
    assert flags == {name: ["--algo" if name == "algorithm"
                            else "--" + name.replace("_", "-")] for name in wanted}
    # a text field keeps its text as given
    args = _subcommand(command).parse_args(["--out", " a"])
    assert cli._build_config(args).out == " a"


@pytest.mark.parametrize("field, text", [
    ("dim", "x"), ("warmup_steps", "1.5"), ("algorithm", "sgd"), ("q", "3"),
    ("calib_samples", "100"), ("safety", "nan"), ("amplitude", "0"),
])
def test_a_bad_flag_and_the_same_ini_value_give_one_message(tmp_path, capsys,
                                                             field, text):
    flag = "--algo" if field == "algorithm" else "--" + field.replace("_", "-")
    assert cli.main(["run", flag, text]) == 2
    by_flag = capsys.readouterr().err
    path = tmp_path / "bad.ini"
    path.write_text(f"[{SECTION_OF[field]}]\n{field} = {text}\n")
    assert cli.main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err == by_flag
    assert by_flag.startswith(f"config error: {field}:")


_FLOAT_FIELDS = [f.name for f in fields(RunConfig) if f.type == "float"]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzzed_float_magnitudes_build_finite_constants_or_name_a_field(data):
    # every float field at magnitudes from 1e-320 to 1e308: the experiment
    # builds with finite G, tau, lr and certificate constants, or the config
    # is refused by name, with no RuntimeWarning on the way (errors here)
    magnitude = st.floats(-320.0, 308.0).map(lambda e: 10.0 ** e)
    values = data.draw(st.dictionaries(st.sampled_from(_FLOAT_FIELDS), magnitude,
                                       min_size=1, max_size=4))
    problem = data.draw(st.sampled_from(["cosine_sum", "quadratic"]))
    algorithm = data.draw(st.sampled_from(["nsgd", "nigt"]))
    cfg = RunConfig(T=200, dim=3, calib_samples=10_000, problem=problem,
                    algorithm=algorithm, **values)
    try:
        exp = build_experiment(cfg)
    except ConfigError as exc:
        prefix = str(exc).split(":", 1)[0]
        assert set(prefix.split(", ")) & set(CONFIG_FIELDS), (values, str(exc))
        return
    hp, cert = exp.hp, exp.cert
    constants = (hp.grad_bound, hp.tau, hp.lr, hp.alpha, cert.log_factor,
                 cert.concentration_factor, cert.error_scale,
                 cert.momentum_error_bound, cert.momentum_threshold)
    assert all(math.isfinite(c) for c in constants), (values, constants)
    assert 0 <= cert.burn_in <= cfg.T


def test_cli_concentration_out_of_memory_names_its_own_fields(capsys):
    # addressable, but the (trials, length) sign flips need 8e16 bytes
    assert cli.main(["concentration", "--trials", "100000000000000",
                     "--length", "100"]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("config error: trials, length:")
    assert out == ""  # not even the table's header


@pytest.mark.parametrize("ini", ["T = 5\n", "[run]\nT = 5\nT = 6\n", b"[run]\nout = \xff\n"])
def test_cli_unreadable_config_exits_2_naming_the_file(tmp_path, capsys, ini):
    # no section header, a duplicate key, a file that is not UTF-8
    path = tmp_path / "bad.ini"
    if isinstance(ini, bytes):
        path.write_bytes(ini)
    else:
        path.write_text(ini)
    assert cli.main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: config file {path}:")


def test_config_percent_is_literal(tmp_path):
    cfg = small_config(out=str(tmp_path / "o%1"))
    path = tmp_path / "pct.ini"
    path.write_text(cfg.to_ini())
    assert RunConfig.from_file(str(path)) == cfg


CONFIG_FIELDS = [name for names in RunConfig._SECTIONS.values() for name in names]
SECTION_OF = {name: sec for sec, names in RunConfig._SECTIONS.items() for name in names}


def _load_or_config_error(path) -> str | None:
    """Load and validate an INI file; the ConfigError message, or None if
    accepted.  Any other exception fails the calling test."""
    try:
        RunConfig.from_file(str(path)).validate()
    except ConfigError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("key", CONFIG_FIELDS)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(value=st.one_of(st.text(), st.integers().map(str),
                       st.floats().map(repr)))
def test_fuzzed_config_value_is_accepted_or_named(tmp_path, key, value):
    path = tmp_path / "fuzz.ini"
    path.write_text(f"[{SECTION_OF[key]}]\n{key} = {value}\n", encoding="utf-8")
    msg = _load_or_config_error(path)
    assert msg is None or key in msg or str(path) in msg, msg


_INI_LINES = st.one_of(
    st.sampled_from(["[run]", "[problem]", "[noise]", "[DEFAULT]", "[other]"]),
    st.builds("{} = {}".format, st.sampled_from(CONFIG_FIELDS), st.text()),
    st.text())


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(content=st.one_of(st.binary(), st.text(),
                         st.lists(_INI_LINES, max_size=8).map("\n".join)))
def test_fuzzed_config_file_is_accepted_or_named(tmp_path, content):
    path = tmp_path / "fuzz.ini"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    msg = _load_or_config_error(path)
    if msg is not None and str(path) not in msg and not msg.startswith("unknown key"):
        prefix = msg.split(":", 1)[0]
        assert set(prefix.split(", ")) & set(CONFIG_FIELDS), msg


_RUN_FLAGS = ["--config", "--algo", "--problem", "--dim", "--amplitude",
              "--eig-min", "--eig-max", "--start-value", "--q", "--p-moment",
              "--tail-index", "--noise-scale", "--T", "--b", "--s", "--delta",
              "--seed", "--seeds", "--warmup", "--warmup-steps",
              "--calib-samples", "--safety", "--out"]
_CLI_FLAGS = {"run": _RUN_FLAGS + ["--plots"],
              "rate-sweep": _RUN_FLAGS + ["--plots", "--T-grid"],
              "burn-in": _RUN_FLAGS}
_CHOICE_FLAGS = {"--algo": ["nsgd", "nigt"], "--problem": ["cosine_sum", "quadratic"],
                 "--warmup": ["none", "hold"]}
_INT_FLAGS = {"--dim", "--T", "--seed", "--seeds", "--warmup-steps", "--calib-samples"}
# a shell argument holds no NUL character
_ANY_ARG = st.one_of(
    st.text(alphabet=st.characters(blacklist_characters="\x00"), max_size=12),
    st.integers().map(str), st.floats().map(repr))


def _plausible_value(flag):
    """Values of the flag's type, valid and not."""
    if flag in _CHOICE_FLAGS:
        return st.sampled_from(_CHOICE_FLAGS[flag])
    if flag in _INT_FLAGS:  # up to sizes no array can have
        return st.integers(-2, 10**25).map(str)
    if flag == "--T-grid":
        return st.lists(st.integers(-10, 10**6).map(str), max_size=5).map(",".join)
    return st.one_of(st.floats(-1.0, 4.0).map(repr),
                     st.sampled_from(["nan", "inf", "-inf", "1e400"]))


_NAMED_BY_ARGPARSE = re.compile(
    r"error: (argument (--[\w-]+)|ambiguous option: |unrecognized arguments: )")


def _stub_runners(monkeypatch):
    """Runners that start no trajectory; the CLI still parses and validates."""
    horizons = np.array([1e3, 1e4, 1e5])
    sweep = RateSweepResult(horizons=horizons, avg_grad=1.0 / horizons,
                            min_grad=0.5 / horizons, slope=-1.0, stderr=0.0,
                            target=-0.2)
    per_mode = {mode: np.ones(2) for mode in ("none", "hold")}
    compare = BurnInCompareResult(burn_in=0, final_f=per_mode, min_grad=per_mode,
                                  post_burn_in_violations=per_mode)
    monkeypatch.setattr(cli, "run", lambda cfg: [])
    monkeypatch.setattr(cli, "rate_sweep", lambda cfg, grid: sweep)
    monkeypatch.setattr(cli, "burn_in_compare", lambda cfg: compare)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_argv_exits_0_1_or_2_naming_the_flag(tmp_path, monkeypatch,
                                                     capsys, data):
    _stub_runners(monkeypatch)
    monkeypatch.chdir(tmp_path)
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nT = 500\n")
    command = data.draw(st.sampled_from(sorted(_CLI_FLAGS)))
    flags = data.draw(st.lists(st.sampled_from(_CLI_FLAGS[command]), max_size=6))
    # at most one flag gets an arbitrary argument, so most argv reach validation
    arbitrary = data.draw(st.integers(-1, len(flags) - 1))
    argv = [command]
    for i, flag in enumerate(flags):
        argv.append(flag)
        if flag == "--plots":
            continue
        if flag == "--out":  # outputs stay inside the test's directory
            name = data.draw(st.text(alphabet="abc", min_size=1, max_size=3))
            # a new or existing directory, or the path of a file
            argv.append(str(data.draw(st.sampled_from([tmp_path / "out" / name, ini]))))
        elif flag == "--config":
            argv.append(str(data.draw(st.sampled_from([ini, tmp_path / "no.ini"]))))
        elif i == arbitrary:
            argv.append(data.draw(_ANY_ARG))
        else:
            argv.append(data.draw(_plausible_value(flag)))
    capsys.readouterr()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse: exit 2 on a usage error
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err
    if code == 2:
        match = _NAMED_BY_ARGPARSE.search(err)
        if match is not None:
            assert match.group(2) in (None, *_CLI_FLAGS[command]), err
        else:
            assert err.startswith("config error: "), err
            prefix = err[len("config error: "):].split(":", 1)[0]
            assert (set(prefix.split(", ")) & {*CONFIG_FIELDS, "T-grid"}
                    or prefix.startswith("config file")), err


def test_cli_concentration_report(tmp_path, capsys):
    out = str(tmp_path / "conc")
    code = cli.main(["concentration", "--trials", "1000", "--length", "30",
                     "--out", out])
    assert code == 0
    text = (tmp_path / "conc" / "concentration_report.csv").read_text()
    assert text.splitlines()[0] == "lemma,delta,trials,coverage,ci_low,ci_high,pass"
    assert len(text.splitlines()) == 6  # header + 5 bounds
    assert "freedman_scalar" in text


def test_cli_rate_sweep(tmp_path, capsys):
    out = str(tmp_path / "sweep")
    code = cli.main(["rate-sweep", "--T-grid", "50,200,1600", "--T", "50",
                     "--dim", "3", "--seeds", "2", "--out", out, "--plots"])
    assert code == 0
    assert "fitted slope" in capsys.readouterr().out
    assert (tmp_path / "sweep" / "rate_sweep.csv").exists()
    assert (tmp_path / "sweep" / "rate_fit.svg").exists()


def test_cli_burn_in(capsys):
    code = cli.main(["burn-in", "--T", "150", "--dim", "3", "--seeds", "2",
                     "--tail-index", "1.6", "--warmup-steps", "20"])
    assert code == 0
    out = capsys.readouterr().out
    assert "warmup=none" in out and "warmup=hold" in out


def test_records_immutable_after_run():
    exp = build_experiment(small_config(T=50))
    traj = run_trajectory(exp, 3)
    with pytest.raises(ValueError):
        traj.objective[0] = 0.0
    with pytest.raises(ValueError):
        traj.m_norm[:] = 0.0
    with pytest.raises(FrozenInstanceError):
        traj.selected_step = 1
    with pytest.raises(FrozenInstanceError):
        exp.config.T = 10
    sweep = rate_sweep(small_config(T=50, dim=3), [50, 200, 1600])
    compare = burn_in_compare(small_config(T=50, dim=3, seeds=2))
    for arr in (sweep.horizons, sweep.avg_grad, sweep.min_grad,
                *compare.final_f.values(), *compare.min_grad.values(),
                *compare.post_burn_in_violations.values()):
        with pytest.raises(ValueError):
            arr[0] = 0
    for per_mode in (compare.final_f, compare.min_grad,
                     compare.post_burn_in_violations):
        with pytest.raises(TypeError):
            per_mode["none"] = np.zeros(2)
        with pytest.raises(TypeError):
            del per_mode["hold"]
    # the spec keeps a copy: the caller's weights may change afterwards
    weights = np.full(3, 0.5)
    spec = WeightedStreamSpec(weights=weights, moment_bounds=np.ones(3),
                              threshold=2.0, p_moment=1.5, delta=0.1)
    bound = truncated_sum_bound(spec)
    weights[:] = 5.0
    assert truncated_sum_bound(spec) == bound
    for arr in (spec.weights, spec.moment_bounds):
        with pytest.raises(ValueError):
            arr[0] = 5.0


def test_experiment_problem_is_read_only():
    # the experiment is frozen, and so is its problem's start point: a write
    # to it is refused instead of changing every later trajectory
    exp = build_experiment(RunConfig(T=50, dim=3))
    final_f = run_trajectory(exp, 0).final_f
    with pytest.raises(ValueError):
        exp.problem.start[:] = 0.3
    assert run_trajectory(exp, 0).final_f == final_f


def test_run_matches_run_trajectory_seed_for_seed():
    cfg = small_config(seeds=3, T=150)
    exp = build_experiment(cfg)
    trajs = list(run(cfg))
    assert [t.seed for t in trajs] == [3, 4, 5]
    for traj in trajs:
        ref = run_trajectory(exp, traj.seed)
        for name in ("objective", "grad_norm", "m_norm", "eps_hat", "eps",
                     "clipped", "lr", "final_w"):
            np.testing.assert_array_equal(getattr(traj, name), getattr(ref, name))


def test_empty_config_sections_get_defaults(tmp_path):
    path = tmp_path / "sparse.ini"
    path.write_text("[run]\nT = 123\n")
    cfg = RunConfig.from_file(str(path))
    assert cfg.T == 123
    assert cfg.problem == "cosine_sum" and cfg.delta == 0.1  # defaults applied
    echoed = cfg.to_ini()
    assert "problem = cosine_sum" in echoed  # ... and echoed back


def test_cli_verify_reports_failure_exit_code(monkeypatch, capsys):
    from tailopt.verify import CheckResult

    def fake_suite(seed=0, sizes=None, delta=0.1):
        return [CheckResult("planted_failure", 10, 3, -1.0, False)]

    monkeypatch.setattr("tailopt.verify.run_verification_suite", fake_suite)
    assert cli.main(["verify"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_config_echo_is_verbatim_ini(tmp_path):
    cfg = small_config(out=str(tmp_path / "echo"))
    assert cli_run(cfg) == 0
    text = (tmp_path / "echo" / "config.txt").read_text()
    assert "[run]" in text and "[problem]" in text and "[noise]" in text
    reloaded = RunConfig.from_file(str(tmp_path / "echo" / "config.txt"))
    assert reloaded == replace(cfg)


def test_run_writes_nothing(tmp_path):
    # the library call only computes, even with an output directory set
    cfg = small_config(T=50, seeds=2, out=str(tmp_path / "out"))
    assert [t.seed for t in run(cfg)] == [3, 4]
    assert list(tmp_path.iterdir()) == []


def test_run_refuses_at_the_call_and_steps_each_seed_once_as_asked(monkeypatch):
    stepped, returned = [], []

    def step_counted(exp, seeds):
        stepped.extend(np.atleast_1d(seeds).tolist())
        return step_seeds(exp, seeds)

    def counted(exp, seed, *record):
        returned.append(seed)
        return run_trajectory(exp, seed, *record)

    step_seeds = harness._step_seeds
    monkeypatch.setattr(harness, "_step_seeds", step_counted)
    # the module attribute, the function the benchmark counts steps through
    monkeypatch.setattr(harness, "run_trajectory", counted)
    # seeds 3-7 in batches of two: [3, 4], [5, 6], then 7 alone
    monkeypatch.setattr(harness, "_SEED_STEPS", 2 * 50)
    with pytest.raises(ConfigError, match="^T, b:"):
        run(small_config(T=2, b=5.0))  # refused before it is iterated
    trajs = run(small_config(T=50, seeds=5))
    assert stepped == []  # built, but no seed stepped until asked for
    assert next(trajs).seed == 3 and stepped == [3, 4]
    assert [t.seed for t in trajs] == [4, 5, 6, 7]
    assert stepped == returned == [3, 4, 5, 6, 7]


# B = 3 at T = 400: two batches of three seeds, then one seed alone
_BATCH_CASES = [
    *(pytest.param(algorithm, q, {}, id=f"{algorithm}-{q}")
      for algorithm in ("nsgd", "nigt") for q in (2.0, 1.5)),
    pytest.param("nigt", 2.0, {"warmup": "hold"}, id="nigt-2.0-hold"),
    pytest.param("nsgd", 1.5, {"noise_scale": 0.0}, id="nsgd-1.5-zero_noise"),
    pytest.param("nigt", 1.5, {"problem": "quadratic"}, id="nigt-1.5-quadratic"),
]


@pytest.mark.parametrize("algorithm, q, extra", _BATCH_CASES)
def test_seed_batches_keep_each_seeds_bits(monkeypatch, algorithm, q, extra):
    T, width = 400, 3
    monkeypatch.setattr(harness, "_SEED_STEPS", width * T)
    # b = 20 lowers the threshold enough that clipping fires on every noisy case
    cfg = small_config(**{"algorithm": algorithm, "q": q, "T": T, "noise_scale": 3.0,
                          "b": 20.0, "warmup_steps": 100, "seed": 11, "seeds": 7,
                          **extra})
    exp = build_experiment(cfg)
    refs = {seed: run_trajectory(exp, seed) for seed in range(11, 18)}
    blocks = []
    draw_steps = HeavyTailNoise.draw_steps

    def counted(self, space, rngs, n):
        blocks.append((n, len(rngs)))
        return draw_steps(self, space, rngs, n)

    monkeypatch.setattr(HeavyTailNoise, "draw_steps", counted)
    trajs = list(run(cfg))
    # one draw per block for the whole batch: blocks sum to T, each of at
    # most _BLOCK seed-steps
    rows = _BLOCK // width
    assert blocks == 2 * [(rows, width), (T - rows, width)] + [(T, 1)]
    assert [t.seed for t in trajs] == list(refs)
    for traj in trajs:
        ref = refs[traj.seed]
        assert traj.clipped.any() == (exp.noise.scale > 0.0)
        for f in fields(traj):
            value = getattr(traj, f.name)
            if isinstance(value, np.ndarray):
                assert value.tobytes() == getattr(ref, f.name).tobytes(), f.name
        assert (traj.final_f, traj.selected_step) == (ref.final_f, ref.selected_step)


def test_a_trajectory_kept_from_a_batch_holds_only_its_own_arrays():
    cfg = small_config(T=50, seeds=4)
    assert harness._batch_width(cfg.seeds, cfg.T) == 4
    kept = next(run(cfg))
    for f in fields(kept):
        value = getattr(kept, f.name)
        if isinstance(value, np.ndarray):  # no view of the batch's (4, T) records
            assert value.base is None and value.shape in {(50,), (4,)}, f.name


@pytest.mark.parametrize("grid, reason", [
    ([50, 60, 70], "span at least 1.5 decades"),
    ([50, 5000], "at least three"),
    ([0, 100, 10_000], "positive"),
    ([100, 10_000, 10**23], "at most"),
])
def test_rate_sweep_refuses_a_grid_before_any_step(monkeypatch, grid, reason):
    def no_work(*args, **kwargs):
        raise AssertionError("a bad grid reached a step")

    monkeypatch.setattr("tailopt.harness.run_trajectory", no_work)
    with pytest.raises(ConfigError, match=f"^T-grid: .*{reason}"):
        rate_sweep(small_config(T=50, dim=3), grid)


def test_rate_sweep_builds_every_horizon_before_any_step(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a horizon ran before the last one was built")

    monkeypatch.setattr("tailopt.harness.run_trajectory", no_work)
    # T = 100 and 10^4 build; the threshold overflows only at T = 10^6
    cfg = RunConfig(seeds=2, safety=5e304, calib_samples=10_000)
    with pytest.raises(ConfigError, match="the descent threshold is inf"):
        rate_sweep(cfg, [100, 10_000, 1_000_000])
