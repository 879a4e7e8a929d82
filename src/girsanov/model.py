"""Reversible Markov models and their jump/killing structure.

Two model families are supported.  ``FiniteSymmetricModel`` is a
continuous-time chain on ``{0, ..., n-1}`` described by a symmetry measure
``m``, off-diagonal jump rates ``q`` and killing rates ``k``; reversibility
means detailed balance ``m[x] q[x, y] == m[y] q[y, x]``.
``JumpDiffusionModel`` is the process on the line that superposes a
Brownian motion (generator one half of the second derivative) with a
symmetric alpha-stable jump part whose jump-rate density is
``c / |x - y|**(1 + alpha)``.

Both expose the same three structural objects used throughout the package:
the jump kernel (rate density of jumps), the jump measure ``J`` carrying the
one-half weight convention, and the killing measure ``kappa = k * m``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ModelError

__all__ = [
    "FiniteSymmetricModel",
    "JumpDiffusionModel",
    "LevySystemView",
    "SymmetryReport",
    "validate_symmetry",
    "jump_measure",
    "killing_measure",
    "stable_kernel_density",
    "stable_tail_intensity",
    "stable_small_jump_variance",
    "levy_system",
]


def _readonly(a, dtype=float):
    arr = np.array(a, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _cached(model, name: str, build):
    """``build()``, computed once and kept on the (immutable) ``model`` as ``name``."""
    if getattr(model, name, None) is None:
        object.__setattr__(model, name, build())
    return getattr(model, name)


@dataclass(frozen=True)
class FiniteSymmetricModel:
    """Finite-state reversible chain with killing.

    Parameters
    ----------
    m : array_like, shape (n,)
        Strictly positive state weights (the symmetry measure).
    q : array_like, shape (n, n)
        Nonnegative off-diagonal jump rates.  The diagonal is not part of the
        data and must be supplied as zero; the generator's diagonal is implied
        by the negative row sums and the killing rates.
    k : array_like, shape (n,), optional
        Nonnegative killing rates (defaults to no killing).

    Detailed balance is *not* enforced here; call :func:`validate_symmetry`
    to obtain a report, which downstream operations require to be clean.
    """

    m: np.ndarray
    q: np.ndarray
    k: np.ndarray = None

    def __post_init__(self):
        m = _readonly(self.m)
        if m.ndim != 1 or m.shape[0] == 0:
            raise ModelError("m must be a nonempty 1-d array")
        n = m.shape[0]
        q = _readonly(self.q)
        k = _readonly(np.zeros(n) if self.k is None else self.k)
        if q.shape != (n, n):
            raise ModelError(f"q must have shape ({n}, {n}), got {q.shape}")
        if k.shape != (n,):
            raise ModelError(f"k must have shape ({n},), got {k.shape}")
        if not np.all(np.isfinite(m)) or np.any(m <= 0.0):
            raise ModelError("state weights m must be finite and strictly positive")
        if not np.all(np.isfinite(q)) or np.any(q < 0.0):
            raise ModelError("jump rates q must be finite and nonnegative")
        if np.any(np.diagonal(q) != 0.0):
            raise ModelError("diagonal of q must be zero (no fictitious self-jumps)")
        if not np.all(np.isfinite(k)) or np.any(k < 0.0):
            raise ModelError("killing rates k must be finite and nonnegative")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "k", k)

    @property
    def n(self) -> int:
        return self.m.shape[0]

    def state_vector(self, f, name: str = "f") -> np.ndarray:
        """``f`` as a float vector of one finite number per state; strings,
        None and other objects are no numbers, and raise :class:`DomainError`."""
        try:
            vec = np.asarray(f)
        except ValueError:  # a ragged list
            vec = None
        if vec is None or vec.shape != (self.n,) or vec.dtype.kind not in "iuf" or not np.all(np.isfinite(vec)):
            raise DomainError(f"{name} must be one finite number per state ({self.n}), got {f!r}")
        return np.asarray(vec, dtype=float)

    def jump_table(self) -> tuple:
        """The sampling table ``(cum, target, jump, total)``, built once, of read-only arrays: row ``x``
        of ``cum`` holds the running sums of ``x``'s positive rates over its targets in increasing order,
        then ``inf`` up to one column more than the most targets of any state; ``target`` holds the
        targets (0 in the padding), ``jump`` the last sum (0.0 without jumps), ``total = jump + k``."""
        return _cached(self, "_jump_table_cache", self._build_jump_table)

    def _build_jump_table(self) -> tuple:
        src, dst = np.nonzero(self.q)  # row-major: each row's targets in increasing order
        count = np.bincount(src, minlength=self.n)
        col = np.arange(src.size) - (np.cumsum(count) - count)[src]
        cum = np.zeros((self.n, int(count.max()) + 1))
        cum[src, col] = self.q[src, dst]
        np.cumsum(cum, axis=1, out=cum)  # a running sum, as a loop's acc += r
        jump = _readonly(cum[:, -1])  # a copy; the zeros past the last rate add nothing
        cum[np.arange(cum.shape[1]) >= count[:, None]] = np.inf
        target = np.zeros(cum.shape, dtype=np.intp)
        target[src, col] = dst
        return _readonly(cum), _readonly(target, np.intp), jump, _readonly(jump + self.k)

    def total_rates(self) -> np.ndarray:
        """Per-state total event rate: jumps plus killing."""
        return self.q.sum(axis=1) + self.k

    def generator(self) -> np.ndarray:
        """Generator matrix: off-diagonal ``q``, diagonal ``-row sum - k``; built once, read-only."""
        return _cached(self, "_generator_cache", self._build_generator)

    def _build_generator(self) -> np.ndarray:
        Q = np.array(self.q, dtype=float)
        np.fill_diagonal(Q, -self.q.sum(axis=1) - self.k)
        Q.setflags(write=False)
        return Q


@dataclass(frozen=True)
class SymmetryReport:
    """Outcome of a detailed-balance check.

    ``violations`` lists ``(x, y, residual)`` with
    ``residual = |m[x] q[x, y] - m[y] q[y, x]|``, sorted worst first; the
    report is clean iff the list is empty.
    """

    violations: tuple
    tol: float

    @property
    def ok(self) -> bool:
        return len(self.violations) == 0

    @property
    def max_residual(self) -> float:
        return self.violations[0][2] if self.violations else 0.0

    @property
    def worst(self):
        """Worst offending pair, or ``None`` when the report is clean."""
        return self.violations[0] if self.violations else None


def validate_symmetry(model: FiniteSymmetricModel, tol: float = 1e-12) -> SymmetryReport:
    """Check detailed balance ``m[x] q[x, y] == m[y] q[y, x]`` up to ``tol``.

    Returns a :class:`SymmetryReport`; the report is clean exactly when every
    pair's absolute residual is within ``tol``.
    """
    flux = model.m[:, None] * model.q
    res = np.abs(flux - flux.T)
    xs, ys = np.nonzero(np.triu(res, k=1) > tol)
    violations = sorted(
        ((int(x), int(y), float(res[x, y])) for x, y in zip(xs, ys)),
        key=lambda v: -v[2],
    )
    return SymmetryReport(violations=tuple(violations), tol=tol)


def jump_measure(model: FiniteSymmetricModel) -> np.ndarray:
    """Jump measure on ordered pairs, ``J[x, y] = 0.5 * m[x] * q[x, y]``.

    The one-half weight makes the sum of ``J`` over *ordered* pairs equal the
    usual unordered-pair energy; every quadratic form in this package sums
    over ordered pairs against this ``J``.  Input out of detailed balance
    beyond :func:`validate_symmetry`'s default tolerance is rejected.  The
    result is cached on the (immutable) model, so repeated calls in
    estimator loops pay nothing.
    """
    def build():
        report = validate_symmetry(model)
        if not report.ok:
            x, y, r = report.worst
            raise ModelError(f"detailed balance violated at pair ({x}, {y}): residual {r:.3e}")
        J = 0.5 * model.m[:, None] * model.q
        J.setflags(write=False)
        return J

    return _cached(model, "_jump_measure_cache", build)


def killing_measure(model: FiniteSymmetricModel) -> np.ndarray:
    """Killing measure ``kappa[x] = k[x] * m[x]``."""
    return model.k * model.m


@dataclass(frozen=True)
class JumpDiffusionModel:
    """Brownian motion plus symmetric alpha-stable jumps on the line.

    The diffusion part is fixed at one half of the second derivative
    (variance t at time t); the jump part has rate density
    ``c / |x - y|**(1 + alpha)`` with ``0 < alpha < 2`` and ``c > 0``.
    There is no killing.  The symmetry measure is Lebesgue.  The dimension
    ``d`` is named by every config and must be 1: the weights, the engine,
    the form quadrature and the regions are those of the line.
    """

    d: int
    alpha: float
    c: float = 1.0

    def __post_init__(self):
        # a bool compares as 0 or 1, so every test below would let it through
        for name in ("d", "alpha", "c"):
            if isinstance(getattr(self, name), (bool, np.bool_)):
                raise ModelError(f"{name} must be a number, not the bool {getattr(self, name)!r}")
        if self.d != 1:
            raise ModelError(f"the jump diffusion is one-dimensional: d must be 1, got d = {self.d!r}")
        object.__setattr__(self, "d", 1)
        if not (0.0 < self.alpha < 2.0):
            raise ModelError("stability index alpha must lie in (0, 2)")
        if not (self.c > 0.0 and math.isfinite(self.c)):
            raise ModelError("kernel constant c must be positive and finite")

    def interval(self, region) -> tuple:
        """``region`` as the floats ``(lo, hi)``: two finite real numbers, not
        bools, with ``lo < hi``; else :class:`DomainError`."""
        pair = tuple(region) if isinstance(region, (tuple, list, np.ndarray)) else ()
        if len(pair) == 2 and all(isinstance(v, numbers.Real) and not isinstance(v, (bool, np.bool_)) for v in pair):
            if -math.inf < float(pair[0]) < float(pair[1]) < math.inf:
                return float(pair[0]), float(pair[1])
        raise DomainError(f"region must be a pair of finite numbers lo < hi, got {region!r}")


def stable_kernel_density(x, y, model: JumpDiffusionModel):
    """Jump-rate density ``c / |x - y|**(1 + alpha)`` of the stable part, of
    points (or arrays of points) on the line.  Coincident points are outside
    the domain: the kernel is singular on the diagonal.
    """
    r = np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
    if np.any(r == 0.0):
        raise DomainError("stable kernel is singular at coincident points")
    return model.c / r ** (1.0 + model.alpha)


def stable_tail_intensity(model: JumpDiffusionModel, eps: float) -> float:
    """Total rate of jumps longer than ``eps``.

    Closed form ``2 c eps**(-alpha) / alpha``, both sides of the line; this
    is the Poisson intensity of the explicit jumps a truncated sampler
    generates.
    """
    if not (eps > 0.0):
        raise DomainError("truncation radius must be positive")
    return model.c * 2.0 * eps ** (-model.alpha) / model.alpha


def stable_small_jump_variance(model: JumpDiffusionModel, eps: float) -> float:
    """Variance rate of the jumps shorter than ``eps``.

    Closed form ``2 c eps**(2-alpha) / (2 - alpha)``; a truncated sampler
    folds this into the Gaussian step on top of the diffusion's own unit
    variance rate.
    """
    if not (eps > 0.0):
        raise DomainError("truncation radius must be positive")
    return model.c * 2.0 * eps ** (2.0 - model.alpha) / (2.0 - model.alpha)


@dataclass(frozen=True)
class LevySystemView:
    """Jump mechanism ``(kernel, clock)`` of a model.

    ``kernel(x, y)`` is the jump-rate density from ``x`` to ``y`` and the
    clock is always the deterministic time ``t`` itself (every model here
    jumps at ordinary speed), so only the kernel is carried.  On the diagonal
    the kernel evaluates to zero: single points carry no jump mass.
    """

    kernel: Callable

    clock = "identity"


def levy_system(model) -> LevySystemView:
    """The jump kernel of ``model`` packaged as a :class:`LevySystemView`."""
    if isinstance(model, FiniteSymmetricModel):
        q = model.q

        def kernel(x, y):
            return 0.0 if x == y else float(q[x, y])

        return LevySystemView(kernel=kernel)
    if isinstance(model, JumpDiffusionModel):

        def kernel(x, y):
            if np.array_equal(np.asarray(x, dtype=float), np.asarray(y, dtype=float)):
                return 0.0
            return float(stable_kernel_density(x, y, model))

        return LevySystemView(kernel=kernel)
    raise ModelError(f"unsupported model type: {type(model).__name__}")
