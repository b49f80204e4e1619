"""Synthetic smooth objectives and heavy-tailed stochastic gradient oracles.

Two separable test objectives with known constants:

- ``DiagonalQuadratic``: F(w) = 1/2 sum_i lam_i (w_i - c_i)^2.  Gradient
  Lipschitz constant max(lam), Hessian Lipschitz constant 0, minimum 0.
- ``CosineSum``: F(w) = a * sum_i cos(w_i).  Gradient Lipschitz constant a,
  Hessian Lipschitz constant a, bounded below by -a*dim.

Both constants are valid for every supported norm pair: with primal
exponent p <= 2 we have ||u||_2 <= ||u||_p and ||Hu||_r <= ||Hu||_2 for
r >= 2, so the Euclidean bounds dominate the general ones.

``HeavyTailNoise`` perturbs the exact gradient by an isotropic direction
scaled to unit dual norm times a Pareto-distributed radius, so the dual
norm of the noise is exactly the sampled radius.  The radius has tail
index ``tail_index`` and therefore a finite moment of any order below it
(closed form a*x_m^k/(a-k)), while all higher moments diverge: the
heavy-tailed regime the optimizers are built for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tailopt.spaces import NormedSpace

__all__ = [
    "DiagonalQuadratic",
    "CosineSum",
    "HeavyTailNoise",
    "calibrate_grad_bound",
    "make_problem",
    "pareto_moment",
    "pareto_radii",
]


@dataclass(frozen=True)
class DiagonalQuadratic:
    """F(w) = 1/2 sum lam_i (w_i - center_i)^2."""

    eigenvalues: np.ndarray
    center: np.ndarray
    start: np.ndarray

    def __post_init__(self):
        for name in ("eigenvalues", "center", "start"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if np.any(self.eigenvalues <= 0.0):
            raise ValueError("quadratic eigenvalues must be positive")
        if not (self.eigenvalues.shape == self.center.shape == self.start.shape):
            raise ValueError("eigenvalues, center and start must share a shape")

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def lipschitz(self) -> float:
        return float(np.max(self.eigenvalues))

    @property
    def hessian_lipschitz(self) -> float:
        return 0.0

    @property
    def lower_bound(self) -> float:
        return 0.0

    def value(self, w) -> np.ndarray | float:
        w = self._check(w)
        out = 0.5 * np.sum(self.eigenvalues * (w - self.center) ** 2, axis=-1)
        return float(out) if out.ndim == 0 else out

    def gradient(self, w) -> np.ndarray:
        return self.eigenvalues * (self._check(w) - self.center)

    def hessian_diag(self, w) -> np.ndarray:
        w = self._check(w)
        return np.broadcast_to(self.eigenvalues, w.shape).copy()

    def _check(self, w) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        if w.shape[-1] != self.dim:
            raise ValueError(f"point has dim {w.shape[-1]}, problem has dim {self.dim}")
        return w


@dataclass(frozen=True)
class CosineSum:
    """F(w) = amplitude * sum cos(w_i)."""

    amplitude: float
    dim: int
    start: np.ndarray

    def __post_init__(self):
        if self.amplitude <= 0.0:
            raise ValueError("amplitude must be positive")
        object.__setattr__(self, "start", np.asarray(self.start, dtype=float))
        if self.start.shape != (self.dim,):
            raise ValueError("start point has the wrong dimension")

    @property
    def lipschitz(self) -> float:
        return float(self.amplitude)

    @property
    def hessian_lipschitz(self) -> float:
        return float(self.amplitude)

    @property
    def lower_bound(self) -> float:
        return -self.amplitude * self.dim

    def value(self, w) -> np.ndarray | float:
        w = self._check(w)
        out = self.amplitude * np.sum(np.cos(w), axis=-1)
        return float(out) if out.ndim == 0 else out

    def gradient(self, w) -> np.ndarray:
        return -self.amplitude * np.sin(self._check(w))

    def hessian_diag(self, w) -> np.ndarray:
        return -self.amplitude * np.cos(self._check(w))

    def _check(self, w) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        if w.shape[-1] != self.dim:
            raise ValueError(f"point has dim {w.shape[-1]}, problem has dim {self.dim}")
        return w


def make_problem(kind: str, dim: int, *, amplitude: float = 1.0,
                 eig_min: float = 1.0, eig_max: float = 2.0,
                 start_value: float = 2.0):
    """Build a test problem from flat configuration values."""
    start = np.full(dim, float(start_value))
    if kind == "cosine_sum":
        return CosineSum(amplitude=amplitude, dim=dim, start=start)
    if kind == "quadratic":
        eigs = np.linspace(eig_min, eig_max, dim)
        return DiagonalQuadratic(eigenvalues=eigs, center=np.zeros(dim), start=start)
    raise ValueError(f"unknown problem kind {kind!r}")


def pareto_moment(tail_index: float, scale: float, order: float) -> float:
    """E[R^order] = a * scale^order / (a - order), R ~ Pareto(a, scale), order < a."""
    if order >= tail_index:
        raise ValueError(f"moment of order {order} diverges at tail index {tail_index}")
    return tail_index * scale ** order / (tail_index - order)


def pareto_radii(rng: np.random.Generator, shape, tail_index: float,
                 scale: float = 1.0) -> np.ndarray:
    """Pareto(tail_index, scale) radii of the given shape, by inversion.

    Computes scale * (1 - U)^(-1/tail_index) in the uniform draw's own
    buffer, so a draw of n radii holds one array of n floats.
    """
    r = rng.random(shape)
    # 1 - U lies in (0, 1], avoiding a zero base for the negative power
    np.subtract(1.0, r, out=r)
    np.power(r, -1.0 / tail_index, out=r)
    return np.multiply(r, scale, out=r)


@dataclass(frozen=True)
class HeavyTailNoise:
    """Additive dual-space noise with a symmetric Pareto radius.

    The stochastic gradient at w is grad F(w) + R * u where u is uniform
    on the Euclidean sphere rescaled to unit dual norm and
    R = scale * U^(-1/tail_index) is Pareto(tail_index, scale).  The noise
    has mean zero by symmetry, and ||noise||_dual = R exactly, so moments
    of the dual norm follow the scalar Pareto closed form.

    The calibrated moment bound G is returned by
    :func:`calibrate_grad_bound` and kept in the schedule
    (``HyperParams.grad_bound``), so the noise model stays immutable.
    """

    p_moment: float
    tail_index: float
    scale: float = 1.0

    def __post_init__(self):
        if not (1.0 < self.p_moment <= 2.0):
            raise ValueError(f"moment index must lie in (1, 2], got {self.p_moment}")
        if self.tail_index <= self.p_moment:
            raise ValueError(
                f"tail index {self.tail_index} must exceed the moment index "
                f"{self.p_moment} (finite p-th moment)")
        if self.scale < 0.0:
            raise ValueError("scale must be nonnegative")

    def radius_moment(self, order: float) -> float:
        """Closed-form E[R^order], order < tail_index."""
        return pareto_moment(self.tail_index, self.scale, order)

    def sample_radii(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return pareto_radii(rng, n, self.tail_index, self.scale)

    def draw_steps(self, space: NormedSpace, rng: np.random.Generator,
                   n: int) -> np.ndarray:
        """The additive noise of n consecutive oracle calls, one row each.

        Each step draws dim standard normals (the direction) and then one
        uniform (the radius), so the rows are what n successive
        :meth:`sample` calls add to the gradient, and the generator ends in
        the same state.  The noise does not depend on the query point,
        which is what lets a trajectory draw a block of steps ahead.  A
        zero-scale oracle adds -0.0, which leaves every gradient bit as it
        is, and still consumes its draws.
        """
        u = np.empty((n, space.dim))
        radii = []
        normal, uniform = rng.standard_normal, rng.random
        scale, power = self.scale, -1.0 / self.tail_index
        for row in u:
            normal(out=row)
            # on Python floats, ** is C pow, which can differ in the last
            # bit from the array power of pareto_radii
            radii.append(scale * (1.0 - uniform()) ** power)
        if scale == 0.0:
            return np.full_like(u, -0.0)
        norms = space.dual_norm(u)
        zero = norms == 0.0  # probability-zero guard, row by row
        if zero.any():
            u[zero] = 0.0
            u[zero, 0] = 1.0
            norms[zero] = 1.0
        return (np.array(radii) / norms)[:, np.newaxis] * u

    def sample(self, problem, space: NormedSpace, w,
               rng: np.random.Generator) -> np.ndarray:
        """One stochastic gradient at w: the gradient plus one step of
        :meth:`draw_steps`.  Consumes dim normal and one uniform draw."""
        return problem.gradient(w) + self.draw_steps(space, rng, 1)[0]

    def sample_batch(self, problem, space: NormedSpace, w,
                     rng: np.random.Generator, n: int) -> np.ndarray:
        """n independent stochastic gradients at w: n normal directions,
        then n radii, combined by :meth:`noisy_gradients`."""
        grad = problem.gradient(w)
        if self.scale == 0.0:
            return np.tile(grad, (n, 1))
        u = rng.standard_normal((n, space.dim))
        return self.noisy_gradients(grad, u, self.sample_radii(rng, n), space)

    @staticmethod
    def noisy_gradients(grad, u: np.ndarray, radii: np.ndarray,
                        space: NormedSpace) -> np.ndarray:
        """grad + radii * u / ||u||_dual for (n, dim) normal directions u, in
        u's buffer one operation at a time; a zero direction adds +0.0."""
        norms = np.asarray(space.dual_norm(u))[:, np.newaxis]
        norms[norms == 0.0] = 1.0
        np.multiply(u, radii[:, np.newaxis], out=u)
        np.divide(u, norms, out=u)
        return np.add(u, grad, out=u)


def calibrate_grad_bound(problem, noise: HeavyTailNoise, space: NormedSpace,
                         rng: np.random.Generator, n_samples: int,
                         safety: float) -> float:
    """Estimate the gradient moment bound G at the starting point.

    G = safety * (mean ||grad f(w1, z)||_dual^p)^(1/p).  The safety factor
    absorbs gradient-norm drift along the trajectory; for the bundled
    problems ||grad F|| is bounded (cosine) or the normalized updates keep
    the iterates in a ball of radius lr*T around the start (quadratic).
    """
    if n_samples < 10_000:
        raise ValueError("calibration needs at least 10_000 samples")
    if safety < 1.0:
        raise ValueError("safety factor must be at least 1")
    g = noise.sample_batch(problem, space, problem.start, rng, n_samples)
    moment = float(np.mean(np.asarray(space.dual_norm(g)) ** noise.p_moment))
    return safety * moment ** (1.0 / noise.p_moment)
