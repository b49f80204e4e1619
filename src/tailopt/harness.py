"""Experiment runner: configs, trajectories, invariants, sweeps, writers.

A run is described by a flat ``RunConfig`` (built from an INI-style config
file and/or CLI flags), expanded into problem + noise + space + schedule,
and executed in batches of seeds that step together as ``(B, dim)`` arrays,
each seed with the bits of its run alone.  The runners only compute;
``tailopt.cli`` names each command's files and writes them through the
writers here, so that every float in an artifact is formatted in one place.

Trajectory CSV schema (floats at 17 significant digits, which round-trip):

    t,f,grad_norm,m_norm,eps_hat,eps,clipped,eta

where f and grad_norm are taken at the pre-step iterate w_t, m_norm /
eps_hat at the post-update momentum m_t, eps is the clipped single-sample
error at the query point, and eta is the learning rate actually applied.
"""

from __future__ import annotations

import configparser
import io
import math
import os
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field, fields, replace
from itertools import islice
from types import MappingProxyType

import numpy as np

from tailopt.analysis import fit_rate_exponent, rate_fit_horizons
from tailopt.optimizers import (BurnInCertificate, HyperParams,
                                OptimizerState, burn_in_certificate,
                                clipped_momentum_step, extrapolation_point,
                                init_state, rate_exponent,
                                recommend_output, schedule, warmup_lr_schedule)
from tailopt.problems import HeavyTailNoise, calibrate_grad_bound, make_problem
from tailopt.spaces import NormedSpace

__all__ = [
    "ConfigError",
    "RunConfig",
    "MAX_ARRAY_LEN",
    "make_output_dir",
    "Trajectory",
    "build_experiment",
    "run_trajectory",
    "run",
    "rate_sweep",
    "burn_in_compare",
    "check_trajectory_invariants",
    "descent_check",
    "eps_hat_check",
    "last_iterate_check",
    "write_trajectory_csv",
    "CSV_HEADER",
]

CSV_HEADER = "t,f,grad_norm,m_norm,eps_hat,eps,clipped,eta"


class ConfigError(ValueError):
    """A run configuration field failed validation."""


# the most float64 elements numpy can address: it refuses a larger array
# before allocating, and an addressable one too big for memory is a MemoryError
MAX_ARRAY_LEN = np.iinfo(np.intp).max // 8


def check_array_sizes(sizes: dict[str, int], batch: str = "") -> None:
    """Refuse, naming the field, an array length numpy cannot address: any
    of ``sizes`` (field -> length) above ``MAX_ARRAY_LEN``, and, if ``batch``
    names the array they shape together, their product."""
    for name, size in sizes.items():
        if size > MAX_ARRAY_LEN:
            raise ConfigError(f"{name}: must be at most {MAX_ARRAY_LEN}, got {size}")
    if batch and math.prod(sizes.values()) > MAX_ARRAY_LEN:
        raise ConfigError(f"{', '.join(sizes)}: their product must be at most "
                          f"{MAX_ARRAY_LEN} ({batch})")


def check_horizon_grid(horizons) -> list[int]:
    """A rate sweep's horizons in increasing order, or a ConfigError naming
    ``T-grid``: a grid the rate fit takes, no horizon beyond an array length."""
    grid = sorted(int(t) for t in horizons)
    try:
        rate_fit_horizons(grid)
    except (ValueError, OverflowError) as exc:  # OverflowError: beyond the float range
        raise ConfigError(f"T-grid: {exc}") from exc
    check_array_sizes({"T-grid": grid[-1]})
    return grid


def make_output_dir(path: str | None) -> str | None:
    """Create the output directory ``path`` (none if empty) before any work
    is done, or raise a ConfigError naming ``out`` if it cannot be made."""
    if path:
        try:
            os.makedirs(path, exist_ok=True)
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
            raise ConfigError(f"out: cannot create directory {path!r}: {exc}") from exc
    return path


@dataclass(frozen=True)
class RunConfig:
    algorithm: str = "nsgd"          # nsgd | nigt
    problem: str = "cosine_sum"      # cosine_sum | quadratic
    dim: int = 10
    amplitude: float = 1.0
    eig_min: float = 1.0
    eig_max: float = 2.0
    start_value: float = 2.0
    q: float = 2.0                   # primal norm exponent, in (1, 2]
    p_moment: float = 1.5
    tail_index: float = 1.8
    noise_scale: float = 1.0
    T: int = 10_000
    b: float = 1.0                   # alpha schedule constant
    s: float = 1.0                   # learning-rate schedule constant
    delta: float = 0.1
    seed: int = 0
    seeds: int = 1
    warmup: str = "none"             # none | hold
    warmup_steps: int | None = None  # override; default = certificate burn-in
    calib_samples: int = 20_000
    safety: float = 1.5
    out: str = ""

    _SECTIONS = {
        "run": ["algorithm", "q", "T", "b", "s", "delta", "seed", "seeds",
                "warmup", "warmup_steps", "out"],
        "problem": ["problem", "dim", "amplitude", "eig_min", "eig_max",
                    "start_value"],
        "noise": ["p_moment", "tail_index", "noise_scale", "calib_samples",
                  "safety"],
    }
    # each algorithm's schedule order: the order of the theorem that covers it
    _ORDERS = {"nsgd": "first", "nigt": "second"}

    def validate(self) -> "RunConfig":
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name}: must be finite, got {value}")
        if self.algorithm not in self._ORDERS:
            raise ConfigError(f"algorithm: expected {' or '.join(self._ORDERS)}, "
                              f"got {self.algorithm!r}")
        if self.problem not in ("cosine_sum", "quadratic"):
            raise ConfigError(f"problem: expected cosine_sum or quadratic, got {self.problem!r}")
        if self.dim < 1:
            raise ConfigError(f"dim: must be positive, got {self.dim}")
        if self.amplitude <= 0:
            raise ConfigError(f"amplitude: must be positive, got {self.amplitude}")
        if not (0 < self.eig_min <= self.eig_max):
            raise ConfigError(
                f"eig_min: must lie in (0, eig_max={self.eig_max}], got {self.eig_min}")
        if not (1.0 < self.q <= 2.0):
            raise ConfigError(f"q: primal exponent must lie in (1, 2], got {self.q}")
        if not (1.0 < self.p_moment <= 2.0):
            raise ConfigError(f"p_moment: must lie in (1, 2], got {self.p_moment}")
        if self.tail_index <= self.p_moment:
            raise ConfigError(
                f"tail_index: must exceed p_moment={self.p_moment}, got {self.tail_index}")
        if self.noise_scale < 0:
            raise ConfigError(f"noise_scale: must be nonnegative, got {self.noise_scale}")
        if self.T < 1:
            raise ConfigError(f"T: must be at least 1, got {self.T}")
        if self.b <= 0 or self.s <= 0:
            raise ConfigError(f"b, s: schedule constants must be positive, got {self.b}, {self.s}")
        if not (0.0 < self.delta < 1.0):
            raise ConfigError(f"delta: must lie in (0, 1), got {self.delta}")
        if self.seed < 0:
            raise ConfigError(f"seed: must be nonnegative, got {self.seed}")
        if self.seeds < 1:
            raise ConfigError(f"seeds: must be at least 1, got {self.seeds}")
        if self.warmup not in ("none", "hold"):
            raise ConfigError(f"warmup: expected none or hold, got {self.warmup!r}")
        if self.warmup_steps is not None and self.warmup_steps < 0:
            raise ConfigError(f"warmup_steps: must be nonnegative, got {self.warmup_steps}")
        if self.calib_samples < 10_000:
            raise ConfigError(f"calib_samples: need at least 10000, got {self.calib_samples}")
        if self.safety < 1.0:
            raise ConfigError(f"safety: must be at least 1, got {self.safety}")
        check_array_sizes({"dim": self.dim, "T": self.T})
        check_array_sizes({"calib_samples": self.calib_samples, "dim": self.dim},
                          "the calibration batch")
        check_array_sizes({"seeds": self.seeds, "T": self.T},
                          "the rows of a run's trajectories")
        return self

    @property
    def schedule_order(self) -> str:
        return self._ORDERS[self.algorithm]

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        # no interpolation: a "%" in a value is an ordinary character
        parser = configparser.ConfigParser(interpolation=None)
        parser.optionxform = str  # keep key case (T vs t)
        try:
            read = parser.read(path, encoding="utf-8")
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"config file {path}: {exc}") from exc
        if not read:
            raise ConfigError(f"config file not found: {path}")
        values = {}
        for section, names in cls._SECTIONS.items():
            if not parser.has_section(section):
                continue
            for key, raw in parser.items(section):
                if key not in names:
                    # the file, not a field, is at fault: a value with a
                    # newline in it opens a key of its own
                    raise ConfigError(f"config file {path}: unknown key {key!r} "
                                      f"in section [{section}]")
                values[key] = cls.parse_field(key, raw)
        return cls(**values)

    @classmethod
    def parse_field(cls, name: str, raw: str) -> object:
        """The value of field ``name`` written as ``raw``, an INI value or a
        flag's text: parsed as the type of the field's default, text kept
        as it is.  A None default (warmup_steps) is an optional int, and an
        empty ``raw`` leaves it None."""
        default = {f.name: f.default for f in fields(cls)}[name]
        if default is None and raw == "":
            return None
        parse = int if default is None else type(default)
        try:
            return parse(raw)
        except ValueError as exc:
            raise ConfigError(f"{name}: cannot parse {raw!r}") from exc

    def to_ini(self) -> str:
        parser = configparser.ConfigParser(interpolation=None)
        parser.optionxform = str
        for section, names in self._SECTIONS.items():
            parser[section] = {}
            for name in names:
                value = getattr(self, name)
                parser[section][name] = "" if value is None else str(value)
        buf = io.StringIO()
        parser.write(buf)
        return buf.getvalue()


@dataclass(frozen=True)
class Experiment:
    """A resolved configuration: problem, noise, space, schedule, certificate.

    Frozen, and ``lr_seq`` is read-only: fault injection builds a modified
    copy with ``dataclasses.replace``.
    """

    config: RunConfig
    problem: object
    noise: HeavyTailNoise
    space: NormedSpace
    hp: HyperParams
    cert: BurnInCertificate
    lr_seq: np.ndarray


def _frozen(record):
    """``record`` with its array fields, and the arrays in its mapping fields, read-only."""
    for value in vars(record).values():
        for arr in value.values() if isinstance(value, Mapping) else (value,):
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False
    return record


def _burn_in(config: RunConfig, cert: BurnInCertificate, horizon: int) -> int:
    """The hold length of "hold" warmup and the step after which descent
    violations count: ``warmup_steps`` capped at the horizon, if set."""
    return (cert.burn_in if config.warmup_steps is None
            else min(config.warmup_steps, horizon))


def _require_finite(fields: str, constant: str, value: float) -> None:
    """Refuse a derived constant that overflowed, naming the fields it
    is computed from."""
    if not math.isfinite(value):
        raise ConfigError(f"{fields}: {constant} is {value}, not finite")


def build_experiment(config: RunConfig, horizon: int | None = None) -> Experiment:
    """Expand a config into runnable pieces; calibrates the moment bound.

    Calibration uses its own substream of the base seed so that per-seed
    trajectory streams stay untouched, and happens once per experiment so
    every seed shares the same schedule.  A config whose G, tau, log factor,
    descent threshold or (quadratic) objective bound on the path is not
    finite raises a ConfigError naming the fields that constant is computed
    from.
    """
    config.validate()
    T = config.T if horizon is None else horizon
    problem = make_problem(config.problem, config.dim, amplitude=config.amplitude,
                           eig_min=config.eig_min, eig_max=config.eig_max,
                           start_value=config.start_value)
    space = NormedSpace(dim=config.dim, primal_exponent=config.q)
    noise = HeavyTailNoise(p_moment=config.p_moment, tail_index=config.tail_index,
                           scale=config.noise_scale)
    calib_rng = np.random.default_rng([config.seed, 0x0CA11B])
    # a calibration that overflows gives a G that is not finite, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        grad_bound = calibrate_grad_bound(problem, noise, space, calib_rng,
                                          n_samples=config.calib_samples,
                                          safety=config.safety)
    if grad_bound == 0.0:
        raise ConfigError("start_value, noise_scale: the gradient moment bound is 0 "
                          "(no noise at a stationary start), so no schedule exists")
    # the fields that scale G: the gradient at the start, the noise, the safety
    g_fields = ("amplitude" if config.problem == "cosine_sum"
                else "eig_max, start_value") + ", noise_scale, safety"
    _require_finite(g_fields, "the gradient moment bound G", grad_bound)
    horizon_field = "T" if horizon is None else "T-grid"
    try:
        hp = schedule(T, config.p_moment, grad_bound, config.delta,
                      order=config.schedule_order, alpha_scale=config.b,
                      lr_scale=config.s)
    except ValueError as exc:  # alpha above 1: the horizon is too short for b
        raise ConfigError(f"{horizon_field}, b: {exc}") from exc
    _require_finite(f"{horizon_field}, b, {g_fields}", "the clip threshold tau",
                    hp.tau)
    try:
        cert = burn_in_certificate(hp, problem.lipschitz, problem.hessian_lipschitz,
                                   space.smooth_constant)
    except (OverflowError, ZeroDivisionError) as exc:  # s^2 or b^2 out of range
        raise ConfigError("s, b: s^2 / b^2 in the second-order burn-in "
                          "certificate is beyond the float range") from exc
    _require_finite(f"{horizon_field}, delta", "the log factor log(3T/delta)",
                    cert.log_factor)
    _require_finite(f"{horizon_field}, s, b, {g_fields}", "the descent threshold",
                    cert.momentum_threshold)
    if config.problem == "quadratic":
        # each step moves lr_t <= lr in the primal l_q norm, which dominates
        # the Euclidean one (q <= 2): the path stays within R of the centre
        # 0, so F <= eig_max * R^2 / 2, with the square computed first
        reach = abs(config.start_value) * math.sqrt(config.dim) + hp.lr * T
        _require_finite(f"s, {horizon_field}, dim, eig_max, start_value",
                        "the objective bound eig_max (||start||_2 + lr T)^2",
                        config.eig_max * (reach * reach))
    lr_seq = warmup_lr_schedule(hp, _burn_in(config, cert, T), config.warmup)
    return _frozen(Experiment(config=config, problem=problem, noise=noise,
                              space=space, hp=hp, cert=cert, lr_seq=lr_seq))


@dataclass(frozen=True)
class Trajectory:
    """One recorded run; its fields and arrays are read-only."""

    seed: int
    algorithm: str
    hp: HyperParams
    cert: BurnInCertificate
    steps: np.ndarray
    objective: np.ndarray
    grad_norm: np.ndarray
    m_norm: np.ndarray
    eps_hat: np.ndarray
    eps: np.ndarray
    clipped: np.ndarray
    lr: np.ndarray
    sample_norm: np.ndarray = field(repr=False)
    clip_norm: np.ndarray = field(repr=False)  # dual norm of the sample stepped on
    step_len: np.ndarray = field(repr=False)
    w_norm: np.ndarray = field(repr=False)
    final_w: np.ndarray = field(repr=False)
    final_f: float
    selected_step: int

    @property
    def horizon(self) -> int:
        return self.steps.size

    def summary(self) -> dict:
        sel = self.selected_step
        return {
            "seed": self.seed,
            "algorithm": self.algorithm,
            "T": self.horizon,
            "final_f": self.final_f,
            "last_recorded_f": float(self.objective[-1]),
            "avg_grad_norm": float(self.grad_norm.mean()),
            "min_grad_norm": float(self.grad_norm.min()),
            "selected_step": sel,
            "selected_m_norm": float(self.m_norm[sel - 1]),
            "selected_grad_norm": float(self.grad_norm[sel - 1]),
            "clip_fraction": float(self.clipped.mean()),
        }


# seed-steps per block of recorded rows: the diagnostics of a block are
# computed together, and the buffers stay small next to whole-horizon arrays.
# Also the rows per chunk a CSV writer formats at once
_BLOCK = 1024
# seed-steps of records a seed batch holds at once (about 81 bytes each), so
# its width, and the memory of a command, does not grow with the seed count
_SEED_STEPS = 2 ** 20
# the per-step Trajectory fields a step loop records, in the order computed
_RECORDED = ("objective", "grad_norm", "m_norm", "eps_hat", "eps", "sample_norm",
             "clip_norm", "step_len", "w_norm")


def _step_seeds(exp: Experiment, seeds) -> dict[str, np.ndarray]:
    """Step one seed (an int) on 1-D arrays, or a sequence of B seeds
    together on ``(B, dim)`` arrays, each row with the bits of its seed alone.
    Returns the recorded ``Trajectory`` fields: per-step arrays of shape
    ``(*lead, T)`` and ``final_w``, ``(*lead, dim)``, where ``lead`` is ()
    for one seed and (B,) for B.

    The step loop runs only what the next step depends on: the query point
    (w_t, or nigt's extrapolated x_t); the gradient there, kept per row,
    plus the step's noise row, which becomes the sample in place; and one
    ``clipped_momentum_step``, which clips it (``NormedSpace.clip_dual``)
    and writes w_{t+1} and m_t into the block's buffers.  The clipped sample
    it returns is kept only on a step that clipped, where it is not the
    sample.  A block holds at most ``_BLOCK`` seed-steps.  Before its steps,
    one ``noise.draw_steps`` call draws the block's oracle noise of every
    seed, each from its own generator and from the same stream as one
    ``noise.sample`` call per step, and the block's slice of the schedule
    becomes Python floats.  After them, the objective, the gradient norm,
    the momentum norm and error, the sample error, the raw and clipped
    sample norms, the step length and the iterate norm are each computed by
    one batched call; the kept query gradients are nsgd's gradient at w_t
    and nigt's at x_t.  A batch row gets the bits of the single-vector call
    (see ``spaces``), so the values equal those of per-step evaluation.
    """
    problem, noise, space, hp = exp.problem, exp.noise, exp.space, exp.hp
    T, dim = hp.horizon, space.dim
    lead = np.shape(seeds)
    rngs = [np.random.default_rng(s) for s in (seeds if lead else [seeds])]
    state = init_state(np.broadcast_to(problem.start, (*lead, dim)))
    record = {name: np.empty((*lead, T)) for name in _RECORDED}
    nigt = exp.config.algorithm == "nigt"
    rows = min(max(1, _BLOCK // len(rngs)), T)
    w_buf = np.empty((rows + 1, *lead, dim))  # w_t per row, then the next iterate
    m_buf, qg_buf = np.empty((rows, *lead, dim)), np.empty((rows, *lead, dim))
    for start in range(0, T, rows):
        n = min(rows, T - start)
        # the state moves into the buffers, which the last block's w_{t-1}
        # and m_{t-1} may share, so those two are copied out first
        w_prev, m_prev = state.w_prev.copy(), state.m.copy()
        w_buf[0] = state.w
        state = OptimizerState(w_buf[0], w_prev, m_prev)
        # the block's noise; each row becomes its step's sample in place
        samples = noise.draw_steps(space, rngs, n).reshape(n, *lead, dim)
        clips = []
        for i, (lr, sample, qg, w_next, m_t) in enumerate(zip(
                exp.lr_seq[start:start + n].tolist(), samples, qg_buf, w_buf[1:],
                m_buf)):
            query = extrapolation_point(state, hp.beta) if nigt else state.w
            qg[...] = problem.gradient(query)
            np.add(qg, sample, sample)
            state, g_clip = clipped_momentum_step(state, sample, hp, space, lr,
                                                  (w_next, m_t))
            if g_clip is not sample:
                clips.append((i, g_clip))
        block, w, m = slice(start, start + n), w_buf[:n], m_buf[:n]
        query_grad = qg_buf[:n]
        g = samples
        if clips:
            g = samples.copy()
            for i, g_clip in clips:
                g[i] = g_clip
        grad = problem.gradient(w) if nigt else query_grad
        # each value is (n, *lead); its transpose is the record's (*lead, n)
        for name, value in zip(_RECORDED, (
                problem.value(w), space.dual_norm(grad), space.dual_norm(m),
                space.dual_norm(m - grad), space.dual_norm(g - query_grad),
                space.dual_norm(samples), space.dual_norm(g),
                space.primal_norm(w_buf[1:n + 1] - w), space.primal_norm(w))):
            record[name][..., block] = np.transpose(value)
    record["final_w"] = state.w.copy()
    return record


def run_trajectory(exp: Experiment, seed: int,
                   record: dict[str, np.ndarray] | None = None) -> Trajectory:
    """One seeded trajectory of the configured algorithm.

    Without ``record``, the seed is stepped here, as a batch of one on 1-D
    arrays (see ``_step_seeds``).  A seed batch passes each seed's row of
    the batch it stepped instead, so every trajectory, stepped alone or in
    a batch, is made here.  A step's clip flag is its raw norm above tau;
    the norm of the sample it stepped on is recorded beside it, so the
    invariants can check the clip itself.
    """
    rec = _step_seeds(exp, seed) if record is None else record
    return _frozen(Trajectory(
        seed=seed, algorithm=exp.config.algorithm, hp=exp.hp, cert=exp.cert,
        steps=np.arange(1, exp.hp.horizon + 1),
        clipped=(rec["sample_norm"] > exp.hp.tau).astype(np.uint8), lr=exp.lr_seq,
        final_f=float(exp.problem.value(rec["final_w"])),
        selected_step=recommend_output(rec["m_norm"], exp.cert.burn_in), **rec))


# ---------------------------------------------------------------------------
# trajectory-level invariants


def check_trajectory_invariants(traj: Trajectory,
                                hp: HyperParams | None = None) -> dict[str, bool]:
    """Structural invariants of a recorded trajectory.

    - step_length: whenever m_t is nonzero, ||w_{t+1} - w_t|| equals the
      applied learning rate to relative tolerance 1e-12.  Storing w_{t+1}
      rounds each component by eps*|w_i|, so the realized difference
      carries an irreducible absolute error of order eps*||w_t|| on top of
      the relative one; the tolerance accounts for both.
    - momentum_ball: ||m_t|| <= tau (convex combination of clipped samples).
    - tau_consistency: the samples the steps used sit at the threshold on
      clipped steps and keep their raw norm, at most the threshold, on the
      others, against the *intended* hyperparameters (pass the intended hp
      to detect a run that clipped elsewhere, or not at all).
    """
    hp = hp or traj.hp
    moving = traj.m_norm > 0.0
    float_floor = 8.0 * np.finfo(float).eps * (traj.w_norm[moving] + traj.lr[moving])
    ok_len = np.all(np.abs(traj.step_len[moving] - traj.lr[moving])
                    <= 1e-12 * np.maximum(traj.lr[moving], 1e-300) + float_floor)
    ok_ball = np.all(traj.m_norm <= hp.tau * (1.0 + 1e-12))
    was_clipped = traj.clipped.astype(bool)
    kept = traj.clip_norm[~was_clipped]
    ok_tau = (np.all(np.abs(traj.clip_norm[was_clipped] - hp.tau) <= 1e-9 * hp.tau)
              and np.array_equal(kept, traj.sample_norm[~was_clipped])
              and np.all(kept <= hp.tau * (1.0 + 1e-12)))
    return {"step_length": bool(ok_len), "momentum_ball": bool(ok_ball),
            "tau_consistency": bool(ok_tau)}


def _descent_steps(traj: Trajectory, start: int, threshold: float):
    """The descent rule on the steps t >= start >= 1: the window, a slice of
    the per-step arrays (t = 1..T), and masks over it of the steps that
    qualify, ||m_t|| >= threshold, and of those that also violate descent,
    F(w_{t+1}) >= F(w_t) - (lr_t/2)||m_t|| + 1e-9."""
    window = slice(start - 1, None)
    m = traj.m_norm[window]
    qualify = m >= threshold
    f_next = np.append(traj.objective[1:], traj.final_f)[window]
    violate = qualify & (f_next >= traj.objective[window] - 0.5 * traj.lr[window] * m + 1e-9)
    return window, qualify, violate


def _certified_descent(traj: Trajectory):
    """The rule at the certificate's threshold, from its burn-in on (from
    step 1 at burn-in 0), the window output selection searches."""
    return _descent_steps(traj, max(traj.cert.burn_in, 1), traj.cert.momentum_threshold)


def descent_check(traj: Trajectory) -> tuple[int, int]:
    """(qualifying steps, violations) of the certified-descent condition."""
    _, qualify, violate = _certified_descent(traj)
    return int(np.sum(qualify)), int(np.sum(violate))


def eps_hat_check(traj: Trajectory) -> int:
    """Post-burn-in steps whose momentum error exceeds the certified bound."""
    window = _certified_descent(traj)[0]
    return int(np.sum(traj.eps_hat[window] > traj.cert.momentum_error_bound))


def last_iterate_check(traj: Trajectory) -> bool:
    """Last recorded objective is no worse, up to 1e-9, than at t_hat, the
    last post-burn-in step that does not qualify (else the first)."""
    window, qualify, _ = _certified_descent(traj)
    below = traj.steps[window][~qualify]
    t_hat = int(below[-1]) if below.size else window.start + 1
    return bool(traj.objective[-1] <= traj.objective[t_hat - 1] + 1e-9)


# ---------------------------------------------------------------------------
# persistence


def _row_format(cells, sep: str = ",") -> str:
    """The % format of an artifact line of ``cells``: a float at the 17
    significant digits that round-trip exactly, any other cell as %s."""
    return sep.join("%.17g" if isinstance(c, float) else "%s" for c in cells) + "\n"


def write_csv(path: str, header: str, rows):
    """Write ``header`` and one line per row, a tuple of cells; the format
    is derived once, from the first row, whose cell types every row shares.
    Rows are formatted and written ``_BLOCK`` at a time, so a long file is
    never held in memory whole."""
    rows = iter(rows)
    first = next(rows, None)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        if first is not None:
            fmt = _row_format(first)
            fh.write(fmt % first)
            while chunk := "".join(fmt % row for row in islice(rows, _BLOCK)):
                fh.write(chunk)


def write_key_values(path: str, entries: dict):
    """One key=value line per entry, each value formatted as a CSV cell."""
    with open(path, "w") as fh:
        fh.write("".join(_row_format(e, "=") % e for e in entries.items()))


def write_config(config: RunConfig):
    """Echo the resolved config into ``config.out`` as config.txt."""
    with open(os.path.join(config.out, "config.txt"), "w") as fh:
        fh.write(config.to_ini())


def write_trajectory_csv(traj: Trajectory, path: str):
    columns = (traj.steps, traj.objective, traj.grad_norm, traj.m_norm,
               traj.eps_hat, traj.eps, traj.clipped, traj.lr)
    # the columns become Python values one chunk of rows at a time
    write_csv(path, CSV_HEADER, (
        row for start in range(0, traj.horizon, _BLOCK)
        for row in zip(*(c[start:start + _BLOCK].tolist() for c in columns))))


def certificate_entries(hp: HyperParams, cert: BurnInCertificate) -> dict:
    return {
        "order": hp.order,
        "T": hp.horizon,
        "p_moment": hp.p_moment,
        "grad_bound": hp.grad_bound,
        "alpha": hp.alpha,
        "beta": hp.beta,
        "lr": hp.lr,
        "tau": hp.tau,
        "delta": hp.delta,
        "log_factor": cert.log_factor,
        "concentration_factor": cert.concentration_factor,
        "error_scale": cert.error_scale,
        "burn_in": cert.burn_in,
        "momentum_error_bound": cert.momentum_error_bound,
        "momentum_threshold": cert.momentum_threshold,
    }


def _batch_width(seeds: int, horizon: int) -> int:
    """How many seeds step together: at most ``_BLOCK``, and few enough that
    their records hold at most ``_SEED_STEPS`` seed-steps (but at least one)."""
    return min(seeds, _BLOCK, max(1, _SEED_STEPS // horizon))


def _seed_batch(exp: Experiment) -> Iterator[Trajectory]:
    """One trajectory per seed of the experiment's batch, seed + i for i
    below seeds, all on the experiment's schedule.  Seeds step together in
    batches of ``_batch_width`` (a batch of one on 1-D arrays), each batch
    when its first trajectory is asked for; each trajectory owns a copy of
    its row, so one that is kept holds no other seed's records."""
    config = exp.config
    seeds = range(config.seed, config.seed + config.seeds)
    width = _batch_width(config.seeds, exp.hp.horizon)
    for lo in range(0, len(seeds), width):
        batch = seeds[lo:lo + width]
        if len(batch) == 1:
            yield run_trajectory(exp, batch[0])
            continue
        record = _step_seeds(exp, batch)
        for i, seed in enumerate(batch):
            yield run_trajectory(exp, seed, {k: a[i].copy() for k, a in record.items()})
        del record  # freed before the next batch steps


def run(config: RunConfig) -> Iterator[Trajectory]:
    """The configured experiment's seed batch, one trajectory at a time;
    writes nothing (``tailopt run`` lays out the files).  The experiment is
    built here, so a refused config raises before any step.  A fixed
    (config, seed) gives the same trajectory bit for bit."""
    return _seed_batch(build_experiment(config))


# ---------------------------------------------------------------------------
# sweeps and comparisons


@dataclass(frozen=True)
class RateSweepResult:
    horizons: np.ndarray     # read-only, as are the other arrays
    avg_grad: np.ndarray     # seed-averaged mean_t ||grad F(w_t)||
    min_grad: np.ndarray     # seed-averaged min_t ||grad F(w_t)||
    slope: float
    stderr: float
    target: float            # scheduled decay exponent (negated slope target)

    def rows(self) -> list[tuple]:  # (T, avg_grad_norm, min_grad_norm)
        return list(zip(self.horizons.astype(int).tolist(), self.avg_grad.tolist(),
                        self.min_grad.tolist()))


def rate_sweep(config: RunConfig, horizons) -> RateSweepResult:
    """Average-gradient-norm decay across horizons, with a log-log fit; each
    horizon runs the config's seed batch.  A grid the fit cannot use, or a
    horizon whose experiment cannot be built, is refused before any step:
    every horizon's experiment is built before the first one runs."""
    horizons = check_horizon_grid(horizons)
    exps = [build_experiment(config, horizon=T) for T in horizons]
    avg_rows, min_rows = [], []
    for exp in exps:
        # each seed reduced to its scalars as it arrives, then dropped
        avgs, mins = zip(*[(t.grad_norm.mean(), t.grad_norm.min())
                           for t in _seed_batch(exp)])
        avg_rows.append(float(np.mean(avgs)))
        min_rows.append(float(np.mean(mins)))
    slope, stderr = fit_rate_exponent(horizons, avg_rows)
    target = rate_exponent(config.p_moment, config.schedule_order)
    return _frozen(RateSweepResult(horizons=np.asarray(horizons, dtype=float),
                                   avg_grad=np.asarray(avg_rows),
                                   min_grad=np.asarray(min_rows),
                                   slope=slope, stderr=stderr, target=-target))


@dataclass(frozen=True)
class BurnInCompareResult:
    burn_in: int
    final_f: Mapping[str, np.ndarray]       # mode -> per-seed final objective
    min_grad: Mapping[str, np.ndarray]      # mode -> per-seed min grad norm
    post_burn_in_violations: Mapping[str, np.ndarray]  # all read-only

    def mode_summary(self, mode: str) -> dict:
        f = self.final_f[mode]
        g = self.min_grad[mode]
        v = self.post_burn_in_violations[mode]
        half = 1.96 / np.sqrt(f.size)
        return {
            "mode": mode,
            "seeds": int(f.size),
            "final_f_mean": float(f.mean()),
            "final_f_band": float(f.std(ddof=1) * half) if f.size > 1 else 0.0,
            "min_grad_mean": float(g.mean()),
            "min_grad_band": float(g.std(ddof=1) * half) if g.size > 1 else 0.0,
            "violations_mean": float(v.mean()),
        }


def burn_in_compare(config: RunConfig) -> BurnInCompareResult:
    """Paired comparison of warmup modes over the config's seed batch; both
    modes share noise streams seed for seed."""
    final_f, min_grad, violations = {}, {}, {}
    burn_in = 0
    for mode in ("none", "hold"):
        cfg = replace(config, warmup=mode)
        exp = build_experiment(cfg)
        burn_in = _burn_in(cfg, exp.cert, exp.hp.horizon)
        # each seed reduced as it arrives; every step after the effective
        # burn-in is checked for descent, at any ||m_t||
        per_seed = zip(*[(t.final_f, t.grad_norm.min(),
                          np.sum(_descent_steps(t, burn_in + 1, 0.0)[2]))
                         for t in _seed_batch(exp)])
        final_f[mode], min_grad[mode], violations[mode] = map(np.array, per_seed)
    return _frozen(BurnInCompareResult(
        burn_in=burn_in, final_f=MappingProxyType(final_f),
        min_grad=MappingProxyType(min_grad),
        post_burn_in_violations=MappingProxyType(violations)))
