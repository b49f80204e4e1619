"""Finite-dimensional l_p / l_r norm pairs with 2-smooth dual norms.

The primal space (where iterates live) carries the l_p norm for some
p in (1, 2]; its dual (where gradients and momentum live) carries the
conjugate l_r norm, 1/p + 1/r = 1, so r in [2, inf).  That dual norm
satisfies the two-sided smoothness inequality

    ||x + y||_r^2  <=  ||x||_r^2 + <grad ||x||_r^2, y> + C ||y||_r^2

with C = r - 1 = 1/(p - 1)  (C = 1 in the Euclidean case p = r = 2),
which is what ``smooth_norm_gap`` evaluates pointwise.  Conjugate norms
with exponent below 2 are *not* 2-smooth for any constant, which is why
the primal exponent is restricted to (1, 2].

``duality_map`` sends a dual vector v to the unit primal vector d(v)
maximizing the pairing, <v, d(v)> = ||v||_r; it is the direction a
normalized gradient step moves in.  It is also the gradient of the dual
norm away from 0, so grad ||x||_r^2 = 2 ||x||_r d(x): the one derivative
the smoothness inequality and the scalar reduction of ``concentration``
need.

All vector operations accept arrays of shape ``(..., dim)`` and act on
the last axis, returning scalars for single vectors and arrays for
batches.  Norms factor out the largest component magnitude before
exponentiating so heavy-tailed inputs cannot overflow.

Single vectors and batches share one arithmetic path: every row of a
``(n, dim)`` batch gets bit for bit the norm, and the duality map, that
the same vector gets on its own, at every exponent.  Recording a
trajectory's diagnostics block-wise therefore reproduces the per-step
values exactly.

A single vector, the optimizer's per-step case, settles its special cases
on one Python float: when its largest magnitude (at q = 2 its sum of
squares) is a finite normal float, the norm and the duality map run one
ufunc per arithmetic operation and no masks; a zero, subnormal, infinite
or NaN vector takes the batch path.  Every power stays an array ``power``
on ``keepdims`` arrays, so the lean path keeps the batch path's bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["NormedSpace"]

_TINY = np.finfo(float).tiny
_HUGE = np.finfo(float).max
# a sum of squares whose dot product is below it has no square or partial sum
# that overflows, in any order of summation
_SQUARES_MAX = float(_HUGE) / 4


def _factored_norm(v: np.ndarray, p: float) -> np.ndarray:
    """``keepdims`` l_p norm along the last axis, max-factored."""
    a = np.abs(v)
    # the factor is the largest magnitude, floored at the smallest normal
    # float so that a zero vector divides by it and gets norm 0, and capped
    # at the largest float so that an infinite component gives inf / max =
    # inf, and norm inf, instead of inf / inf = NaN (NaN stays NaN)
    safe = np.minimum(np.maximum.reduce(a, axis=-1, keepdims=True,
                                        initial=_TINY), _HUGE)
    s = np.add.reduce((a / safe) ** p, axis=-1, keepdims=True)
    return safe * s ** (1.0 / p)


def _lp_norm(v: np.ndarray, p: float) -> np.ndarray | float:
    """l_p norm along the last axis of a float array, max-factored against
    overflow and underflow.

    One arithmetic path for single vectors and batches: the sum and the
    power act on ``keepdims`` arrays, never on numpy scalars, whose C ``pow``
    can differ in the last bit from the array ``power`` loop.  The Euclidean
    case takes a direct sum-of-squares path; a vector whose sum of squares
    is below the smallest normal float (its squares underflowed), overflows
    or is NaN is max-factored instead, and in a batch only that row is.  A
    vector with an infinite component has norm inf; one with a NaN
    component, NaN.

    A single vector decides this on one float, its largest magnitude (at
    p = 2, its sum of squares): a finite normal float skips the masks and
    the clamped factor, anything else takes the batch path.  At p = 2 the
    vector first passes ``np.vdot(v, v)``, which raises no floating-point
    warning, against ``_SQUARES_MAX``, so the lean path warns on no input
    and a vector whose squares overflow is max-factored.  The square root is
    IEEE-exact, so ``math.sqrt`` has the bits of ``np.sqrt``; every other
    power stays an array power.
    """
    if p == 2.0:
        if v.ndim == 1 and np.vdot(v, v) < _SQUARES_MAX:  # a NaN fails it
            s = float(np.add.reduce(v * v))
            if _TINY <= s:
                return math.sqrt(s)
        with np.errstate(over="ignore"):  # a row whose squares overflow is max-factored
            ss = np.add.reduce(v * v, axis=-1, keepdims=True)
        out = np.sqrt(ss)
        bad = ~((ss >= _TINY) & (ss < math.inf))[..., 0]
        if bad.any():
            out[bad] = _factored_norm(v[bad], p)
    else:
        if v.ndim == 1:
            a = np.abs(v)
            m = float(np.maximum.reduce(a))
            if _TINY <= m < math.inf:
                s = np.add.reduce((a / m) ** p, keepdims=True)
                return (m * s ** (1.0 / p)).item()
        out = _factored_norm(v, p)
    out = out[..., 0]
    return float(out) if out.ndim == 0 else out


def _factored_map(v: np.ndarray, r: float) -> np.ndarray:
    """Duality map of the l_r dual along the last axis, max-factored.

    A row with k infinite components and no NaN maps to the duality map of
    sign(v) * isinf(v): sign(v_i) k^(-1/p) on those components (1/p + 1/r
    = 1) and 0 elsewhere, a unit vector whose pairing with v is inf.  A row
    with a NaN component maps to NaN.
    """
    m = np.abs(v).max(axis=-1, keepdims=True)
    finite = m < math.inf  # a NaN row has m = NaN, which fails it
    if not finite.all():
        inf = np.isinf(v)
        k = np.maximum(np.count_nonzero(inf, axis=-1, keepdims=True), 1)
        d = np.where(inf, np.sign(v) * k ** ((1.0 - r) / r), 0.0)
        d = np.where(np.isnan(m), np.nan, d)
        return np.where(finite, _factored_map(np.where(finite, v, 0.0), r), d)
    safe = np.where(m > 0.0, m, 1.0)
    u = np.abs(v) / safe
    s = (u ** r).sum(axis=-1, keepdims=True)
    denom = np.where(s > 0.0, s, 1.0) ** ((r - 1.0) / r)
    d = np.sign(v) * u ** (r - 1.0) / denom
    return np.where(m > 0.0, d, 0.0)


@dataclass(frozen=True)
class NormedSpace:
    """An l_p primal / l_r dual norm pair on R^dim.

    Parameters
    ----------
    dim : int
        Ambient dimension, at least 1.
    primal_exponent : float
        The p of the primal l_p norm; must lie in (1, 2].  Larger primal
        exponents are rejected because the conjugate dual norm would not
        be 2-smooth, which every certificate downstream relies on.
    """

    dim: int
    primal_exponent: float = 2.0
    dual_exponent: float = field(init=False)
    smooth_constant: float = field(init=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        p = float(self.primal_exponent)
        if not (1.0 < p <= 2.0):
            raise ValueError(f"primal exponent must lie in (1, 2], got {p}")
        r = p / (p - 1.0)
        object.__setattr__(self, "primal_exponent", p)
        object.__setattr__(self, "dual_exponent", r)
        # r - 1 = 1/(p - 1); equals 1 exactly in the Euclidean case.
        object.__setattr__(self, "smooth_constant", max(1.0, r - 1.0))

    @classmethod
    def euclidean(cls, dim: int) -> "NormedSpace":
        return cls(dim=dim, primal_exponent=2.0)

    def _check_dim(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape[-1] != self.dim:
            raise ValueError(f"vector has dim {v.shape[-1]}, space has dim {self.dim}")
        return v

    def primal_norm(self, w) -> np.ndarray | float:
        """l_p norm of a primal vector (batch)."""
        return _lp_norm(self._check_dim(w), self.primal_exponent)

    def dual_norm(self, v) -> np.ndarray | float:
        """l_r norm of a dual vector (batch)."""
        return _lp_norm(self._check_dim(v), self.dual_exponent)

    def pairing(self, v, w) -> np.ndarray | float:
        """Application <v, w> of a dual vector to a primal vector."""
        v = self._check_dim(v)
        w = self._check_dim(w)
        out = np.sum(v * w, axis=-1)
        return float(out) if out.ndim == 0 else out

    def duality_map(self, v) -> np.ndarray:
        """Unit primal vector d(v) with <v, d(v)> = ||v||_r; d(0) = 0.

        Componentwise d(v)_i = sign(v_i) |v_i|^(r-1) / ||v||_r^(r-1).  The
        zero convention means an optimizer takes no step on zero signal.
        A vector with infinite components points along them (see
        ``_factored_map``); one with a NaN component maps to NaN.
        """
        v = self._check_dim(v)
        r = self.dual_exponent
        if r == 2.0:
            # the lean path of _lp_norm: no square or partial sum overflows
            if v.ndim == 1 and np.vdot(v, v) < _SQUARES_MAX:
                s = float(np.add.reduce(v * v))
                if _TINY <= s:
                    return v / math.sqrt(s)
            # a norm that overflows is inf, the unit vector comes from
            # _factored_map, and the overflow is no fault of the map
            with np.errstate(over="ignore"):
                n = np.asarray(_lp_norm(v, 2.0))[..., np.newaxis]
            finite = n < math.inf
            ok = finite & (n > 0.0)
            d = np.where(ok, v / np.where(ok, n, 1.0), 0.0)
            # a norm that overflowed, or an infinite or NaN row
            return d if finite.all() else np.where(finite, d, _factored_map(v, r))
        if v.ndim == 1:
            a = np.abs(v)
            m = float(np.maximum.reduce(a))
            if _TINY <= m < math.inf:
                u = a / m
                s = np.add.reduce(u ** r, keepdims=True)
                return np.sign(v) * u ** (r - 1.0) / s ** ((r - 1.0) / r)
        return _factored_map(v, r)

    def clip_dual(self, v, threshold: float) -> np.ndarray:
        """Rescale v to dual norm at most ``threshold``, keeping direction.

        Vectors already inside the threshold ball are returned unchanged.
        """
        if not threshold > 0.0:
            raise ValueError(f"clip threshold must be positive, got {threshold}")
        v = self._check_dim(v)
        n = np.asarray(self.dual_norm(v))[..., np.newaxis]
        scale = np.where(n > threshold, threshold / np.where(n > 0.0, n, 1.0), 1.0)
        return v * scale

    def smooth_norm_gap(self, x, y) -> np.ndarray | float:
        """Slack of the 2-smoothness inequality of the dual norm at (x, y).

        Returns ||x||^2 + <grad ||x||^2, y> + C ||y||^2 - ||x + y||^2,
        which is nonnegative up to rounding for every supported space.  The
        gradient is 2 ||x|| d(x), so the cross term is 2 ||x|| <d(x), y>.
        """
        x = self._check_dim(x)
        y = self._check_dim(y)
        nx = np.asarray(self.dual_norm(x), dtype=float)
        ny = np.asarray(self.dual_norm(y), dtype=float)
        nxy = np.asarray(self.dual_norm(x + y), dtype=float)
        cross = 2.0 * nx * np.sum(self.duality_map(x) * y, axis=-1)
        out = nx ** 2 + cross + self.smooth_constant * ny ** 2 - nxy ** 2
        return float(out) if out.ndim == 0 else out
