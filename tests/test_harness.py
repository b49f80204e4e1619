"""Config handling, persistence, invariants, sweeps, CLI exit codes."""

import os
from dataclasses import replace

import numpy as np
import pytest

from tailopt import cli
from tailopt.harness import (_BLOCK, CSV_HEADER, ConfigError, RunConfig,
                             build_experiment, burn_in_compare,
                             check_trajectory_invariants, descent_check,
                             eps_hat_check, last_iterate_check, rate_sweep,
                             run, run_trajectory, write_trajectory_csv)
from tailopt.optimizers import (clipped_momentum_step, extrapolated_step,
                                init_state, recommend_output)


def small_config(**kw):
    base = dict(T=400, seed=3, calib_samples=10_000, dim=4)
    base.update(kw)
    return RunConfig(**base)


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
    with pytest.raises(ConfigError, match="unknown key"):
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
    oracle = lambda x: noise.sample(problem, space, x, rng)
    state = init_state(problem.start)
    rec = {name: [] for name in ("objective", "grad_norm", "m_norm", "eps_hat",
                                 "eps", "clipped", "clip_norm", "sample_norm",
                                 "step_len", "w_norm")}
    for t in range(hp.horizon):
        w_t = state.w
        grad_t = problem.gradient(w_t)
        if exp.config.algorithm == "nigt":
            state, info = extrapolated_step(state, oracle, hp, space, lr=exp.lr_seq[t])
            query_grad = problem.gradient(info.query)
        else:
            state, info = clipped_momentum_step(state, oracle(w_t), hp, space,
                                                lr=exp.lr_seq[t])
            query_grad = grad_t
        for name, value in (("objective", problem.value(w_t)),
                            ("grad_norm", space.dual_norm(grad_t)),
                            ("m_norm", space.dual_norm(state.m)),
                            ("eps_hat", space.dual_norm(state.m - grad_t)),
                            ("eps", space.dual_norm(info.g_clip - query_grad)),
                            ("clipped", info.clipped),
                            ("clip_norm", info.clip_norm),
                            ("sample_norm", info.sample_norm),
                            ("step_len", space.primal_norm(state.w - w_t)),
                            ("w_norm", space.primal_norm(w_t))):
            rec[name].append(value)
    out = {name: np.array(values) for name, values in rec.items()}
    out["final_w"] = state.w
    out["final_f"] = problem.value(state.w)
    out["selected_step"] = recommend_output(out["m_norm"], exp.cert.burn_in)
    return out


@pytest.mark.parametrize("warmup", ["none", "hold"])
@pytest.mark.parametrize("q", [2.0, 1.5])
@pytest.mark.parametrize("algorithm", ["nsgd", "nigt"])
def test_block_recording_matches_per_step_reference(algorithm, q, warmup):
    # one full block plus a partial one; b = 20 lowers the threshold enough
    # that clipping fires on every case
    cfg = small_config(algorithm=algorithm, q=q, T=_BLOCK + 3, noise_scale=3.0,
                       b=20.0, warmup=warmup, warmup_steps=200)
    exp = build_experiment(cfg)
    traj = run_trajectory(exp, 3)
    ref = _per_step_reference(exp, 3)
    assert traj.clipped.any()
    for name, expect in ref.items():
        assert np.array_equal(getattr(traj, name), expect), name


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
    trajs = run(cfg)
    assert len(trajs) == 2
    assert (tmp_path / "exp" / "config.txt").exists()
    for seed in (3, 4):
        sub = tmp_path / "exp" / f"seed_{seed:04d}"
        assert (sub / "trajectory.csv").exists()
        assert (sub / "certificate.txt").exists()
        cert_text = (sub / "summary.txt").read_text()
        assert "final_f=" in cert_text
    cert = (tmp_path / "exp" / "seed_0003" / "certificate.txt").read_text()
    assert "burn_in=" in cert and "momentum_threshold=" in cert


def test_run_zero_noise_descends():
    cfg = small_config(problem="quadratic", noise_scale=0.0, T=150)
    traj = run(cfg)[0]
    assert traj.final_f < traj.objective[0]


def test_theorem_checks_on_trajectory():
    exp = build_experiment(small_config(T=600))
    traj = run_trajectory(exp, 3)
    qualifying, violations = descent_check(traj)
    assert qualifying >= 0 and violations <= qualifying
    assert eps_hat_check(traj) == 0  # bound is loose at desk scale
    assert last_iterate_check(traj)


def test_rate_sweep_slope_on_synthetic():
    cfg = small_config(T=100, seeds=2)
    res = rate_sweep(cfg, [100, 400, 3200], n_seeds=2)
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
    traj = run(cfg)[0]
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
])
def test_cli_bad_input_exits_2_naming_the_field(tmp_path, capsys, argv, ini, field):
    if ini is not None:
        path = tmp_path / "bad.ini"
        path.write_text(ini)
        argv = argv + ["--config", str(path)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}:")


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


def test_run_matches_run_trajectory_seed_for_seed():
    cfg = small_config(seeds=3, T=150)
    exp = build_experiment(cfg)
    trajs = run(cfg)
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

    monkeypatch.setattr(cli, "run_verification_suite", fake_suite)
    assert cli.main(["verify"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_config_echo_is_verbatim_ini(tmp_path):
    cfg = small_config(out=str(tmp_path / "echo"))
    run(cfg)
    text = (tmp_path / "echo" / "config.txt").read_text()
    assert "[run]" in text and "[problem]" in text and "[noise]" in text
    reloaded = RunConfig.from_file(str(tmp_path / "echo" / "config.txt"))
    assert reloaded == replace(cfg)
