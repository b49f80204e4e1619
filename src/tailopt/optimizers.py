"""Clipped, normalized momentum stepping and its certified schedules.

One update rule.  With a fresh gradient sample g at the query point, clip
threshold tau and mixing weight alpha = 1 - beta:

    m_t = beta * m_{t-1} + (1 - beta) * clip(g, tau)
    w_{t+1} = w_t - lr * d(m_t)

``clipped_momentum_step`` applies it to a sample the caller drew at the
query point of its choice: the current iterate w_t for the first-order
method (nsgd), or the extrapolated point
x_t = w_t + beta (w_t - w_{t-1}) / (1 - beta) of ``extrapolation_point``
for the second-order method (nigt), which cancels the Hessian-level
momentum bias on second-order-smooth objectives.  At beta = 0 the two
query points coincide, and so do the methods step for step.

A step does only what the update needs.  It clips through
``NormedSpace.clip_dual``, the one clip of a dual vector, which settles
most samples inside the tau-ball with one dot product and computes a dual
norm only for the rest.  The step can write m_t and w_{t+1} into the
caller's arrays.  It records no norms: a caller that wants them (the
sample's dual norm, whose excess over tau is the clip flag, among them)
computes them from the samples, many steps at once.

``schedule`` pins alpha, lr and tau to the horizon:

    order="first":   alpha = b / T^(p/(3p-2)),    lr = s / T^((2p-1)/(3p-2))
    order="second":  alpha = b / T^(2p/(5p-3)),   lr = s / T^((3p-1)/(5p-3))

with tau = G / alpha^(1/p) in both cases, where G bounds the p-th moment
of the dual gradient norm.  ``burn_in_certificate`` evaluates the
high-probability constants for these schedules: after ``burn_in`` steps the
momentum error ||m_t - grad F(w_t)||_dual stays below
``momentum_error_bound``, and any step with ||m_t||_dual above
``momentum_threshold`` decreases the objective by at least
(lr/2) ||m_t||_dual, each with probability 1 - delta over the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from tailopt.spaces import NormedSpace

__all__ = [
    "HyperParams",
    "OptimizerState",
    "BurnInCertificate",
    "schedule",
    "schedule_exponents",
    "rate_exponent",
    "init_state",
    "clipped_momentum_step",
    "extrapolation_point",
    "burn_in_certificate",
    "recommend_output",
    "warmup_lr_schedule",
]


def schedule_exponents(p_moment: float, order: str) -> tuple[float, float]:
    """(alpha, lr) horizon exponents for the given schedule order."""
    p = p_moment
    if order == "first":
        return p / (3.0 * p - 2.0), (2.0 * p - 1.0) / (3.0 * p - 2.0)
    if order == "second":
        return 2.0 * p / (5.0 * p - 3.0), (3.0 * p - 1.0) / (5.0 * p - 3.0)
    raise ValueError(f"order must be 'first' or 'second', got {order!r}")


def rate_exponent(p_moment: float, order: str) -> float:
    """Decay exponent of the average gradient norm guarantee."""
    p = p_moment
    if order == "first":
        return (p - 1.0) / (3.0 * p - 2.0)
    if order == "second":
        return (2.0 * p - 2.0) / (5.0 * p - 3.0)
    raise ValueError(f"order must be 'first' or 'second', got {order!r}")


@dataclass(frozen=True)
class HyperParams:
    horizon: int
    p_moment: float
    grad_bound: float
    delta: float
    order: str
    alpha_scale: float  # the b in alpha = b / T^...
    lr_scale: float     # the s in lr = s / T^...
    alpha: float
    beta: float
    lr: float
    tau: float

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.beta != 1.0 - self.alpha:
            raise ValueError("beta must equal 1 - alpha exactly")
        expect_tau = self.grad_bound / self.alpha ** (1.0 / self.p_moment)
        if self.tau != expect_tau:
            raise ValueError("tau must equal grad_bound / alpha^(1/p) exactly")


def schedule(horizon: int, p_moment: float, grad_bound: float, delta: float,
             order: str = "first", alpha_scale: float = 1.0,
             lr_scale: float = 1.0) -> HyperParams:
    """Horizon-pinned hyperparameters carrying the high-probability rates."""
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if alpha_scale <= 0.0 or lr_scale <= 0.0:
        raise ValueError("schedule constants must be positive")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if grad_bound <= 0.0:
        raise ValueError("gradient moment bound must be positive (calibrate first)")
    a_exp, lr_exp = schedule_exponents(p_moment, order)
    alpha = alpha_scale / horizon ** a_exp
    if alpha > 1.0:
        raise ValueError(
            f"alpha = {alpha:.4g} exceeds 1: horizon {horizon} is too small for "
            f"alpha_scale {alpha_scale} (need horizon >= alpha_scale^{1/a_exp:.3g})")
    lr = lr_scale / horizon ** lr_exp
    tau = grad_bound / alpha ** (1.0 / p_moment)
    return HyperParams(horizon=horizon, p_moment=p_moment, grad_bound=grad_bound,
                       delta=delta, order=order, alpha_scale=alpha_scale,
                       lr_scale=lr_scale, alpha=alpha, beta=1.0 - alpha,
                       lr=lr, tau=tau)


# A named tuple rather than a frozen dataclass: both are immutable, and a
# tuple is built in about a third of the time, once per step.
class OptimizerState(NamedTuple):
    w: np.ndarray       # current iterate
    w_prev: np.ndarray  # previous iterate (equals w before the first step)
    m: np.ndarray       # momentum, a dual vector


def init_state(w_start) -> OptimizerState:
    w = np.asarray(w_start, dtype=float).copy()
    return OptimizerState(w, w.copy(), np.zeros_like(w))


def clipped_momentum_step(state: OptimizerState, sample, hp: HyperParams,
                          space: NormedSpace, lr: float,
                          out: tuple[np.ndarray | None, np.ndarray | None] = (None, None),
                          ) -> tuple[OptimizerState, np.ndarray]:
    """One normalized momentum step of length ``lr`` on ``sample``, a
    stochastic gradient the caller drew at its query point: ``state.w``, or
    ``extrapolation_point(state, hp.beta)``.  Returns the new state and
    ``g_clip = space.clip_dual(sample, hp.tau)``, the sample fed into the
    momentum: the sample itself if no row clipped.

    The step acts on the last axis, so a state and sample of shape
    ``(B, dim)`` step B runs at once, each row with the bits it gets on its
    own.  Given ``out``, a pair of arrays, w_{t+1} and m_t are written into
    them, with the bits they get without it."""
    g_clip = space.clip_dual(sample, hp.tau)
    w_out, m_out = out
    # beta m + (1 - beta) g, then w - lr d(m), one rounding per operation
    m = np.multiply(hp.beta, state.m, m_out)
    m += (1.0 - hp.beta) * g_clip
    w_next = np.subtract(state.w, lr * space.duality_map(m), w_out)
    return OptimizerState(w_next, state.w, m), g_clip


def extrapolation_point(state: OptimizerState, beta: float) -> np.ndarray:
    """x_t = w_t + beta (w_t - w_{t-1}) / (1 - beta); equals w_t at the start."""
    if beta >= 1.0:
        raise ValueError("extrapolation requires beta < 1")
    if beta == 0.0:
        return state.w.copy()
    return state.w + (beta / (1.0 - beta)) * (state.w - state.w_prev)


@dataclass(frozen=True)
class BurnInCertificate:
    log_factor: float             # max(1, log(3 T / delta))
    concentration_factor: float   # the K constant
    error_scale: float            # the Z constant
    burn_in: int                  # step count, clamped to [0, T]
    momentum_error_bound: float   # post-burn-in bound on ||m_t - grad F(w_t)||
    momentum_threshold: float     # guaranteed-descent condition on ||m_t||


def burn_in_certificate(hp: HyperParams, lipschitz: float, hessian_lipschitz: float,
                        smooth_constant: float) -> BurnInCertificate:
    """High-probability constants for a scheduled run.

    The K constant intentionally couples to the space's smooth constant C
    differently for the two orders (10*C*D + 4*sqrt(C)*sqrt(D) + 1 versus
    10*D + 4*sqrt(C*D) + 1), matching the respective guarantees as stated.
    """
    T, delta, b, s = hp.horizon, hp.delta, hp.alpha_scale, hp.lr_scale
    G, p, C = hp.grad_bound, hp.p_moment, smooth_constant
    D = max(1.0, math.log(3.0 * T / delta))
    a_exp, lr_exp = schedule_exponents(p, hp.order)
    r_exp = rate_exponent(p, hp.order)
    if hp.order == "first":
        K = 10.0 * C * D + 4.0 * math.sqrt(C) * math.sqrt(D) + 1.0
        Z = s * lipschitz / b + G * K * b ** ((p - 1.0) / p)
    else:
        K = 10.0 * D + 4.0 * math.sqrt(C * D) + 1.0
        Z = hessian_lipschitz * s ** 2 / b ** 2 + G * K * b ** ((p - 1.0) / p)
    if G > 0.0 and Z > 0.0:
        raw = (T ** a_exp / b) * (r_exp * math.log(T) + math.log(G) - math.log(Z))
    else:
        raw = 0.0  # degenerate zero-noise / zero-smoothness geometry
    # clamped before rounding up, so a raw count that overflowed is 0 or T
    burn_in = math.ceil(min(raw, T)) if raw > 0.0 else 0
    err = 2.0 * Z / T ** r_exp
    thresh = 2.0 * (6.0 * Z / T ** r_exp + lipschitz * s / (2.0 * T ** lr_exp))
    return BurnInCertificate(log_factor=D, concentration_factor=K, error_scale=Z,
                             burn_in=burn_in, momentum_error_bound=err,
                             momentum_threshold=thresh)


def recommend_output(momentum_norms, burn_in: int) -> int:
    """1-based step index minimizing ||m_t|| over t >= burn_in (ties: earliest)."""
    norms = np.asarray(momentum_norms, dtype=float)
    start = max(int(burn_in), 1)
    if start > norms.size:
        raise ValueError(f"trajectory has {norms.size} steps, burn-in wants {start}")
    return start + int(np.argmin(norms[start - 1:]))


def warmup_lr_schedule(hp: HyperParams, hold: int) -> np.ndarray:
    """Per-step learning rates: ``hp.lr``, zero through the first ``hold`` steps.

    A hold freezes the iterate while momentum keeps accumulating clipped
    gradients, the analogue of warm-up at learning rate 0; hold 0 is none.
    """
    lrs = np.full(hp.horizon, hp.lr)
    lrs[:hold] = 0.0
    return lrs
