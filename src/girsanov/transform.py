"""Change-of-measure transforms and their pathwise weights.

Three transform families are supported.  ``RhoTransform`` tilts by a strictly
positive function of the state: its weight process is the stochastic
exponential of the compensated increments of rho along the path, and on a
chain it telescopes to ``rho(X_t)/rho(X_0) * exp(-int (Q rho / rho)(X_s) ds)``
with the killing term folded into the generator.  ``PureJumpPhi`` tilts each
jump ``x -> y`` by ``1 + phi(x, y)`` with a symmetric phi and compensates with
the jump-rate average ``N phi``.  ``GeneralMF`` is the supermartingale
product form: a continuous exponential part, a nonincreasing part driven by
``A_rate``, and the jump product ``prod (1 + phi) e^{-phi}``; it reproduces
both special cases.

On a chain every transform has one lowering, :func:`lower` (the only chain
code that branches on its type), which the chain traces and weights, the
batched engine and start law, the transformed structure below, the cemetery
generator and the CLI oracles all read; the telescoped rho trace and
``dirichlet.transformed_generator`` stay independent, as references.  On the
jump diffusion :func:`lower_continuum` is its counterpart: the callables that
the grid weights, the batched continuum engine and the tilted kernel read.

All weight accumulation happens in log space; a jump tilt of exactly -1
drives the weight to zero and the trace records the first time this happens.
"""

from __future__ import annotations

import bisect
import functools
import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

import numpy as np

from .errors import DomainError, TransformError
from .model import (
    FiniteSymmetricModel,
    JumpDiffusionModel,
    _readonly,
    jump_measure,
    stable_kernel_density,
    stable_small_jump_variance,
)
from .paths import Path, _brownian_increments, _state_integrand, jump_steps, reverse, steps

__all__ = [
    "RhoTransform",
    "PureJumpPhi",
    "GeneralMF",
    "TransformSpec",
    "MFTrace",
    "rho_transform_mf",
    "pure_jump_mf",
    "general_mf",
    "split_mf",
    "jump_measure_density",
    "transformed_levy_kernel",
    "transformed_jump_measure",
    "transformed_killing",
    "transformed_model",
    "LoweredTransform",
    "lower",
    "ContinuumLowering",
    "lower_continuum",
    "reversal_identity_residual",
    "inverse_transform",
    "integrability_check",
    "IntegrabilityReport",
    "log_weight_fn",
    "stable_rate_table",
]


# ---------------------------------------------------------------------------
# transform specifications


@dataclass(frozen=True)
class RhoTransform:
    """Tilt by a strictly positive state function ``rho``.

    ``rho`` is a vector on chain states or a callable on points.  The
    implied jump tilt is ``rho(y)/rho(x) - 1`` and the implied death tilt is
    ``-1`` (killing is absorbed: the transformed process is conservative).
    """

    rho: object

    def __post_init__(self):
        if not callable(self.rho):
            arr = _readonly(self.rho)
            if arr.ndim != 1:
                raise TransformError(f"rho must be a vector of state values, got shape {arr.shape}")
            if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
                raise TransformError("rho must be finite and strictly positive")
            object.__setattr__(self, "rho", arr)


@dataclass(frozen=True)
class PureJumpPhi:
    """Symmetric jump tilt with ``phi > -1``, ``phi(x, x) = 0`` and no death tilt."""

    phi: object

    def __post_init__(self):
        if callable(self.phi):
            return
        arr = _readonly(self.phi)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise TransformError(f"phi must be a square matrix of pair values, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise TransformError("phi must be finite")
        if np.any(arr <= -1.0):
            raise TransformError("phi must stay strictly above -1")
        if np.any(np.diagonal(arr) != 0.0):
            raise TransformError("phi must vanish on the diagonal")
        if np.max(np.abs(arr - arr.T)) > 1e-12:
            raise TransformError("phi must be symmetric")
        object.__setattr__(self, "phi", arr)


@dataclass(frozen=True)
class GeneralMF:
    """General supermartingale multiplicative functional.

    ``phi`` is the jump tilt (values >= -1; -1 sends the weight to zero and
    is reported as the trace's zero time), ``phi_delta`` the tilt of the
    death jump, ``a_rate`` the nonnegative rate of the nonincreasing part,
    and ``mc_integrand`` the integrand of the continuous martingale part
    (used on diffusion paths only).
    """

    phi: object
    a_rate: object = None
    mc_integrand: object = None
    phi_delta: object = None

    def __post_init__(self):
        if not callable(self.phi):
            arr = _readonly(self.phi)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise TransformError(f"phi must be a square matrix of pair values, got shape {arr.shape}")
            if not np.all(np.isfinite(arr)) or np.any(arr < -1.0):
                raise TransformError("phi must be finite and >= -1")
            object.__setattr__(self, "phi", arr)
        if self.a_rate is not None and not callable(self.a_rate):
            a = _readonly(self.a_rate)
            if np.any(a < 0.0) or not np.all(np.isfinite(a)):
                raise TransformError("a_rate must be nonnegative and finite")
            object.__setattr__(self, "a_rate", a)
        if self.phi_delta is not None and not callable(self.phi_delta):
            pd = _readonly(self.phi_delta)
            if np.any(pd < -1.0) or not np.all(np.isfinite(pd)):
                raise TransformError("phi_delta must be finite and >= -1")
            object.__setattr__(self, "phi_delta", pd)

    @classmethod
    def from_rho(cls, rho) -> "GeneralMF":
        """The general form equivalent to a rho tilt (death tilt -1)."""
        rho = np.asarray(rho, dtype=float)
        phi = rho[None, :] / rho[:, None] - 1.0
        return cls(phi=phi, phi_delta=np.full(rho.shape[0], -1.0))


TransformSpec = Union[RhoTransform, PureJumpPhi, GeneralMF]


def _unwrap(value, spec: type):
    """The data of ``value`` when it is a ``spec`` transform (``RhoTransform``
    or ``PureJumpPhi``), else ``value`` itself: a raw rho or phi."""
    if isinstance(value, spec):
        return value.rho if spec is RhoTransform else value.phi
    return value


# ---------------------------------------------------------------------------
# traces


@dataclass(frozen=True)
class MFTrace:
    """Weight process sampled at path epochs.

    ``times`` starts at 0 and ends at the evaluation time; ``log_z`` holds
    the log weight at each epoch (cadlag) and ``log_z_pre`` its left limit,
    so the two differ exactly at jump epochs, by ``log(1 + phi)``.
    ``zero_time`` is the first time a tilt of -1 sent the weight to zero.
    """

    times: np.ndarray
    log_z: np.ndarray
    log_z_pre: np.ndarray
    zero_time: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "log_z", np.asarray(self.log_z, dtype=float))
        object.__setattr__(self, "log_z_pre", np.asarray(self.log_z_pre, dtype=float))

    @property
    def z(self) -> np.ndarray:
        return np.exp(self.log_z)

    @property
    def z_pre(self) -> np.ndarray:
        return np.exp(self.log_z_pre)

    @property
    def end_value(self) -> float:
        return float(np.exp(self.log_z[-1]))


# ---------------------------------------------------------------------------
# the lowering of chain transforms


@dataclass(frozen=True)
class LoweredTransform:
    """A chain transform as the general form ``(phi, phi_delta, a_rate)``,
    its reference measure ``mu`` (the estimators' start law) and its walk
    tables: the log weight falls at ``rate[x]`` while the path sits at ``x``
    and moves by ``log_jump[x, y]`` at a jump and ``log_death[x]`` at death.
    """

    phi: np.ndarray
    phi_delta: np.ndarray
    a_rate: np.ndarray
    mu: np.ndarray
    rate: np.ndarray
    log_jump: np.ndarray
    log_death: np.ndarray


def _table(values, name: str, shape: tuple) -> np.ndarray:
    if callable(values):
        raise TransformError(f"{name} must be a table on the chain's states, not a callable")
    arr = np.asarray(values, dtype=float)
    if arr.shape != shape:
        raise TransformError(f"{name} has shape {arr.shape}; this model needs {shape}")
    return arr


def _rho_table(model: FiniteSymmetricModel, rho) -> np.ndarray:
    """A chain's rho, raw or a ``RhoTransform``, as the lowering takes it: finite, > 0, one per state."""
    return _table(RhoTransform(_unwrap(rho, RhoTransform)).rho, "rho", (model.n,))


def lower(model: FiniteSymmetricModel, transform: TransformSpec) -> LoweredTransform:
    """The one lowering of a chain transform, and the only chain code that
    branches on its type; every table must match the model's size.

    The lowering is built once and kept on ``transform`` for the model it was
    lowered against (both immutable: their tables are read-only copies), so
    the engine, the oracles and the transformed structure of one run share
    it; its own tables are read-only too.  Lowered against another model,
    the transform is lowered again and keeps the new result.

    A rho tilt is the jump tilt ``rho(y)/rho(x) - 1`` with death tilt -1 and
    mu = ``rho^2 m``, and keeps its telescoped walk: rate ``Q rho / rho``,
    jumps ``log rho(y) - log rho(x)``, death to zero weight.  A symmetric
    jump tilt is the general form without death tilt or ``a_rate``; both
    walk with rate ``N phi + k phi_delta + a_rate``, factors ``log(1 + phi)``
    and ``log(1 + phi_delta)``, and mu = ``m``.

    Raises :class:`TransformError` where ``rho^2 m`` overflows, or
    underflows to 0 at a state of weight > 0, and where a tilted rate is not
    finite: the weights and the oracles of such a tilt are not numbers.
    """
    kept = getattr(transform, "_lowering", None)
    if kept is None or kept[0] is not model:
        low = _build_lowering(model, transform)
        bad = np.flatnonzero(~np.isfinite(low.rate))
        if bad.size:
            raise TransformError(f"the tilted rate is not finite at states {bad.tolist()}: "
                                 "the tilt is too large for the chain's rates")
        for table in vars(low).values():
            table.setflags(write=False)
        kept = (model, low)
        object.__setattr__(transform, "_lowering", kept)
    return kept[1]


def _build_lowering(model: FiniteSymmetricModel, transform: TransformSpec) -> LoweredTransform:
    n = model.n
    zero = np.zeros(n)
    if isinstance(transform, RhoTransform):
        rho = _table(transform.rho, "rho", (n,))
        with np.errstate(over="ignore"):
            mu = rho * rho * model.m
        if not np.all(np.isfinite(mu)):
            raise TransformError(f"rho^2 m overflows at states {np.flatnonzero(~np.isfinite(mu)).tolist()}: "
                                 "rho is too large for the reference measure")
        lost = np.flatnonzero((mu == 0.0) & (model.m > 0.0))
        if lost.size:
            raise TransformError(f"rho^2 m underflows to 0 at states {lost.tolist()}: "
                                 "rho is too small for the reference measure")
        lr = np.log(rho)
        with np.errstate(over="ignore"):  # lower refuses a rate that is not finite
            return LoweredTransform(
                phi=rho[None, :] / rho[:, None] - 1.0, phi_delta=np.full(n, -1.0), a_rate=zero,
                mu=mu, rate=model.generator() @ rho / rho,
                log_jump=lr[None, :] - lr[:, None], log_death=np.full(n, -np.inf),
            )
    if isinstance(transform, PureJumpPhi):
        phi, phi_delta, a_rate = _table(transform.phi, "phi", (n, n)), zero, zero
    elif isinstance(transform, GeneralMF):
        phi = _table(transform.phi, "phi", (n, n))
        phi_delta = zero if transform.phi_delta is None else _table(transform.phi_delta, "phi_delta", (n,))
        a_rate = zero if transform.a_rate is None else _table(transform.a_rate, "a_rate", (n,))
    else:
        raise TransformError(f"unsupported transform: {type(transform).__name__}")
    with np.errstate(divide="ignore"):
        log_jump, log_death = np.log1p(phi), np.log1p(phi_delta)
    with np.errstate(over="ignore", invalid="ignore"):  # lower refuses a rate that is not finite
        rate = (model.q * phi).sum(axis=1) + model.k * phi_delta + a_rate
    return LoweredTransform(phi=phi, phi_delta=phi_delta, a_rate=a_rate, mu=model.m, rate=rate,
                            log_jump=log_jump, log_death=log_death)


def _moves(path: Path, t: float) -> list:
    """``(time, state)`` of each jump up to ``t``, then ``(time, None)`` for
    a death up to ``t``: the path frozen at the cemetery."""
    moves = [(s, x) for s, x in path.events if s <= t]
    if path.killed_at is not None and path.killed_at <= t:
        moves.append((path.killed_at, None))
    return moves


def _chain_trace(path: Path, t: float, w: LoweredTransform) -> MFTrace:
    """The weight walk of ``w``'s tables along a chain path.

    Each holding time adds ``-rate * held + step`` to the log weight in one
    sum, as the batched engine does, so the end value equals the engine's
    bit for bit; the left limit at an event is ``log_z - rate * held``.
    """
    t = path.time(t)
    times = [0.0]
    log_z = [0.0]
    log_pre = [0.0]
    zero_time = None
    cur = 0.0
    prev_t, prev_x = 0.0, path.x0
    for s, x in _moves(path, t):
        decay = w.rate[prev_x] * (s - prev_t)
        log_pre.append(cur - decay)
        cur = cur + (-decay + (w.log_death[prev_x] if x is None else w.log_jump[prev_x, x]))
        times.append(s)
        log_z.append(cur)
        if zero_time is None and not np.isfinite(cur):
            zero_time = s
        prev_t, prev_x = s, x
    if times[-1] < t:
        decay = 0.0 if prev_x is None else w.rate[prev_x] * (t - prev_t)
        cur = cur - decay
        times.append(t)
        log_pre.append(cur)
        log_z.append(cur)
    return MFTrace(times, log_z, log_pre, zero_time=zero_time)


def _rho_closed_trace(path: Path, t: float, model, rho) -> MFTrace:
    """Telescoped form: log z = log rho(X_s) - log rho(X_0) - cumulative rate,
    with rate ``Q rho / rho`` from the generator, independent of :func:`lower`."""
    t = path.time(t)
    rho = _rho_table(model, rho)
    rate = model.generator() @ rho / rho
    lr = np.log(rho)
    times = [0.0]
    log_z = [0.0]
    log_pre = [0.0]
    cum = 0.0
    prev_t, prev_x = 0.0, path.x0
    for s, x in _moves(path, t):
        cum += rate[prev_x] * (s - prev_t)
        log_pre.append(lr[prev_x] - lr[path.x0] - cum)
        log_z.append(-np.inf if x is None else lr[x] - lr[path.x0] - cum)
        times.append(s)
        prev_t, prev_x = s, x
    zero_time = path.killed_at if prev_x is None else None
    if times[-1] < t:
        if prev_x is None:
            val = -np.inf
        else:
            cum += rate[prev_x] * (t - prev_t)
            val = lr[prev_x] - lr[path.x0] - cum
        times.append(t)
        log_pre.append(val)
        log_z.append(val)
    return MFTrace(times, log_z, log_pre, zero_time=zero_time)


# ---------------------------------------------------------------------------
# diffusion-path weights


def _finite_diff_grad(fn, h: float = 1e-6) -> Callable:
    def grad(x):
        return (fn(x + h) - fn(x - h)) / (2.0 * h)

    return grad


@dataclass(frozen=True)
class ContinuumLowering:
    """A jump-diffusion transform as callables on points: the jump ``tilt``
    that the rate table compensates, the ``log_jump`` factors of explicit
    jumps (one per pair of an array of pre-jump points and one of post-jump
    points), the continuous integrand ``mc`` and the ``a_rate`` (None when
    absent), and the ``rho`` of a rho tilt (else None)."""

    tilt: Callable
    log_jump: Callable
    mc: Optional[Callable] = None
    a_rate: Optional[Callable] = None
    rho: Optional[Callable] = None


def lower_continuum(model, transform: TransformSpec, rho_grad=None) -> ContinuumLowering:
    """The one lowering of a jump-diffusion transform, and the only continuum
    code that branches on its type or asks for callable data.

    A rho tilt is the tilt ``rho(y)/rho(x) - 1``, the jump factor
    ``rho(post)/rho(pre)`` and the integrand ``rho'/rho``, with ``rho'`` from
    ``rho_grad`` or a central difference.  A jump tilt is ``phi`` with the
    factor ``1 + phi``, plus the general form's ``mc_integrand`` and ``a_rate``;
    its factors call ``phi`` on one pair of points at a time, while ``rho``
    takes the arrays whole.
    """
    if not isinstance(model, JumpDiffusionModel):
        raise TransformError("continuum transforms require the jump-diffusion model")
    if not isinstance(transform, (RhoTransform, PureJumpPhi, GeneralMF)):
        raise TransformError(f"unsupported transform: {type(transform).__name__}")
    data = {name: getattr(transform, name, None) for name in ("rho", "phi", "mc_integrand", "a_rate")}
    for name, value in data.items():
        if value is not None and not callable(value):
            raise TransformError(f"continuum transforms need {name} as a callable, got {type(value).__name__}")
    rho, phi = data["rho"], data["phi"]
    if rho is None:
        return ContinuumLowering(
            tilt=phi, log_jump=lambda x, y: np.log1p(np.array([phi(a, b) for a, b in zip(x, y)], dtype=float)),
            mc=data["mc_integrand"], a_rate=data["a_rate"])
    grad = rho_grad if rho_grad is not None else _finite_diff_grad(rho)
    return ContinuumLowering(
        tilt=lambda x, y: rho(y) / rho(x) - 1.0,
        log_jump=lambda pre, post: np.log(np.asarray(rho(post), dtype=float) / np.asarray(rho(pre), dtype=float)),
        mc=lambda x: np.asarray(grad(x), dtype=float) / np.asarray(rho(x), dtype=float), rho=rho)


# interpolation nodes of the rate table over [lo, hi]
_RATE_TABLE_NODES = 241
# panels of the rate table's kernel rule, and the nodes of every panel
_RATE_PANELS = 192
_RULE_NODES = 16
# the rule stops 40/alpha past log(cut), where the kernel mass left is
# e**-40 of that beyond cut, but never past cut * e**230 (about 1e100 cut), so
# a tilt may square the gap without overflow; what lies beyond the last node
# enters as one more node carrying the kernel's exact tail mass
_RATE_U_SPAN = 230.0


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    """Nodes and weights (read-only) of the n-point Gauss-Legendre rule on [-1, 1].

    Newton's method on the Legendre three-term recurrence; numpy's
    ``leggauss`` calls an eigen-solver instead, whose first call sets aside
    about 1 MB of LAPACK buffers.
    """
    x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(100):
        p0, p1 = np.ones(n), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        dx = p1 / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    return _readonly(x), _readonly(2.0 / ((1.0 - x * x) * dp * dp))


def _kernel_rule(model: JumpDiffusionModel, edges: np.ndarray):
    """Nodes ``r`` and weights of ``c r^{-1-alpha} dr`` over the panels between
    ``edges`` (in ``u = log r``): 16-point Gauss-Legendre on each panel, where
    the kernel becomes the smooth weight ``c e^{-alpha u} du``."""
    nodes, weights = _gauss_legendre(_RULE_NODES)
    half = 0.5 * np.diff(edges)[:, None]
    u = (edges[:-1, None] + half * (nodes + 1.0)).ravel()
    return np.exp(u), (half * weights).ravel() * model.c * np.exp(-model.alpha * u)


def stable_rate_table(model: JumpDiffusionModel, tilt, eps: float, lo: float, hi: float) -> Callable:
    """Interpolated ``x -> int_{|z| > eps} tilt(x, x + z) c |z|^{-1-alpha} dz``.

    ``(lo, hi)`` must be an interval of the model
    (:meth:`~girsanov.model.JumpDiffusionModel.interval`); the table has 241
    evenly spaced nodes on it and is clamped to its edge values outside.  Used to
    compensate explicit (truncated) jumps of diffusion-path weights.

    ``tilt(x, y)`` is called with a float ``x`` (a table node) and a float
    array ``y`` of jump targets, and must return an array of ``y``'s shape.
    Each node's integral is one composite Gauss-Legendre rule in
    ``u = log |z|`` (192 panels of 16 nodes on ``[log eps, log cut + 40/alpha]``,
    ``cut = max(10, 4 (hi - lo))``, the span capped at ``log cut + 230``),
    where the kernel becomes the smooth weight ``c e^{-alpha u} du``, plus
    one node at the end of the span carrying the kernel's mass beyond it.
    """
    lo, hi = model.interval((lo, hi))
    xs = np.linspace(lo, hi, _RATE_TABLE_NODES)
    a = model.alpha
    cut = max(10.0, 4.0 * (hi - lo))
    u_hi = math.log(cut) + min(40.0 / a, _RATE_U_SPAN)
    r, kernel = _kernel_rule(model, np.linspace(math.log(eps), u_hi, _RATE_PANELS + 1))
    # the last node carries the kernel's exact mass past e^{u_hi}
    r = np.append(r, math.exp(u_hi))
    kernel = np.append(kernel, model.c * math.exp(-a * u_hi) / a)
    out = np.empty(_RATE_TABLE_NODES)
    for i, x in enumerate(xs.tolist()):
        # the two sides are integrated together: their first-order parts
        # cancel, which removes the near-edge spike a rule would otherwise fight
        out[i] = np.dot(np.asarray(tilt(x, x + r), dtype=float)
                        + np.asarray(tilt(x, x - r), dtype=float), kernel)
    return lambda x: np.interp(x, xs, out)


def _grid_log_steps(low: ContinuumLowering, compensator, base, moves, var_rate: float, dt: float) -> np.ndarray:
    """Each grid step's log weight under ``low``, from the states ``base`` that
    start the steps and their Gaussian moves ``dB``: ``-(compensator + a_rate)
    dt + g dB - g^2 v dt / 2`` with ``g = mc`` (a None term left out), summed as
    ``rate (-dt) + ((g dB) - (g g) (v dt / 2))``; the engine's step rule too."""
    # the compensator's values are let go before mc makes its temporaries,
    # and the sums are written into products made here, in the same order
    step_log = np.asarray(compensator(base), dtype=float)
    if low.a_rate is not None:
        step_log = step_log + low.a_rate(base)
    step_log = step_log * -dt
    if low.mc is not None:
        g = np.asarray(low.mc(base), dtype=float)
        drift = g * moves
        square = g * g
        square *= 0.5 * var_rate * dt
        drift -= square
        step_log += drift
    return step_log


def _grid_trace(path: Path, t: float, model: JumpDiffusionModel, low: ContinuumLowering,
                compensator) -> MFTrace:
    """The weight of ``low`` along a grid path: the running sum of
    :func:`_grid_log_steps` over the path's steps and Gaussian moves, and
    ``log_jump`` at each explicit jump.  The compensator, the rate table of
    ``low.tilt`` unless supplied, is built after ``t`` and ``eps`` pass."""
    if path.eps is None:
        raise TransformError("grid path carries no truncation radius")
    t = path.time(t)
    K = steps(t, path.dt)
    if compensator is None:
        span = float(np.max(np.abs(path.grid))) + 2.0
        compensator = stable_rate_table(model, low.tilt, path.eps, -span, span)
    dt = path.dt
    step_log = _grid_log_steps(low, compensator, path.grid[:K], _brownian_increments(path, K),
                               1.0 + stable_small_jump_variance(model, path.eps), dt)
    log_z = np.zeros(K + 1)
    log_z[1:] = np.cumsum(step_log)
    jump_times = [s for s, _ in path.events]
    live = bisect.bisect_right(jump_times, t)  # event times strictly increase
    if live:
        factors = np.asarray(low.log_jump(np.array(path.jump_pre[:live]),
                                          np.array([post for _, post in path.events[:live]])), dtype=float)
        # added one jump at a time, in time order, as the weight's bits depend on it
        for j, v in zip(jump_steps(jump_times[:live], dt, K).tolist(), factors.reshape(live).tolist()):
            log_z[j + 1:] += v
    times = np.arange(K + 1) * dt
    return MFTrace(times, log_z, log_z.copy())


# ---------------------------------------------------------------------------
# the main weight constructors


def rho_transform_mf(path: Path, rho, model, t: float, *, rho_grad=None, compensator=None) -> MFTrace:
    """Weight process of the rho tilt along a path.

    On chains the weight is the telescoped closed form; ``general_mf`` with
    :meth:`GeneralMF.from_rho` gives the product-of-increments route to the
    same weight.  On diffusion grids the weight combines a continuous
    exponential with integrand ``rho'/rho``, explicit-jump factors
    ``rho(post)/rho(pre)`` and their quadrature compensator (built on the
    fly when not supplied), all from :func:`lower_continuum`.
    """
    rho = _unwrap(rho, RhoTransform)
    if not path.is_grid:
        return _rho_closed_trace(path, t, model, rho)
    return _grid_trace(path, t, model, lower_continuum(model, RhoTransform(rho), rho_grad), compensator)


def pure_jump_mf(path: Path, phi, model, t: float, compensator=None) -> MFTrace:
    """Weight ``prod (1 + phi) * exp(- int N phi)`` of a symmetric jump tilt:
    the general form with a jump tilt only."""
    return general_mf(path, PureJumpPhi(_unwrap(phi, PureJumpPhi)), model, t, compensator)


def general_mf(path: Path, spec: TransformSpec, model, t: float, compensator=None) -> MFTrace:
    """Weight of the general supermartingale form along a path, the walk of
    ``spec``'s lowering on a chain and its grid weight on a diffusion.

    Coincides with :func:`rho_transform_mf` when ``spec`` is derived from a
    rho tilt and with :func:`pure_jump_mf` when only a symmetric jump tilt is
    present.
    """
    if path.is_grid:
        return _grid_trace(path, t, model, lower_continuum(model, spec), compensator)
    return _chain_trace(path, t, lower(model, spec))


def split_mf(path: Path, phi, model, t: float):
    """Factor the jump-tilt weight into an increasing and a decreasing part.

    Returns ``(plus, minus)``: the plus part multiplies the positive tilts
    and exponentiates the negative-tilt compensator, the minus part the other
    way around; their pointwise product is the full weight.
    """
    phi = np.asarray(_unwrap(phi, PureJumpPhi), dtype=float)
    up = lower(model, PureJumpPhi(np.clip(phi, 0.0, None)))  # the positive tilts
    down = lower(model, PureJumpPhi(-np.clip(-phi, 0.0, None)))  # the negative tilts
    plus = _chain_trace(path, t, replace(up, rate=down.rate))
    minus = _chain_trace(path, t, replace(down, rate=up.rate))
    return plus, minus


def log_weight_fn(model: FiniteSymmetricModel, transform: TransformSpec) -> Callable:
    """Scalar evaluator ``(path, t) -> log Z_t`` for chain paths: the end
    value of the weight walk, with the transform lowered once."""
    low = lower(model, transform)
    return lambda path, t: float(_chain_trace(path, t, low).log_z[-1])


# ---------------------------------------------------------------------------
# transformed structure


def jump_measure_density(model: FiniteSymmetricModel, rho, phi, tol: float = 1e-10) -> np.ndarray:
    """Density ``g(x, y) = rho(x)^2 (1 + phi(x, y))`` of the transformed
    jump measure against the base one.

    The pair ``(rho, phi)`` must satisfy the consistency relation
    ``rho(y)^2 / rho(x)^2 = (1 + phi(x, y)) / (1 + phi(y, x))`` on every pair
    charged by the jump measure, which is exactly symmetry of ``g`` there;
    violation beyond ``tol`` (relative) rejects the pair.
    """
    rho = _rho_table(model, rho)
    phi = _table(GeneralMF(phi).phi, "phi", (model.n, model.n))
    g = rho[:, None] ** 2 * (1.0 + phi)  # >= 0, as phi >= -1
    charged = jump_measure(model) > 0.0
    rel = (np.abs(g - g.T) / np.maximum(1.0, np.maximum(g, g.T)))[charged]
    if rel.max(initial=0.0) > tol:
        x, y = np.argwhere(charged)[np.argmax(rel)]
        raise TransformError(
            "inconsistent (rho, phi) pair: jump-measure density asymmetric at "
            f"({x}, {y}) with relative residual {np.max(rel):.3e}"
        )
    return g


def transformed_levy_kernel(model, transform: TransformSpec):
    """Jump kernel of the transformed process: ``(1 + phi) q`` from the
    lowering.

    For a rho tilt the rate ``x -> y`` becomes ``rho(y)/rho(x) q(x, y)``
    (detailed balance then holds w.r.t. ``rho^2 m``); for a jump tilt it
    becomes ``(1 + phi) q`` (still ``m``-symmetric).  For the continuum model
    the callable density ``(1 + tilt(x, y))`` times the stable kernel is
    returned, with the tilt of :func:`lower_continuum`.
    """
    if isinstance(model, FiniteSymmetricModel):
        return (1.0 + lower(model, transform).phi) * model.q
    tilt = lower_continuum(model, transform).tilt
    return lambda x, y: (1.0 + tilt(x, y)) * stable_kernel_density(x, y, model)


def _lowered_jump_measure(model: FiniteSymmetricModel, low: LoweredTransform) -> np.ndarray:
    """Half the flow ``mu_x (1 + phi(x, y)) q(x, y)`` of the lowered kernel,
    computed as ``(1 + phi) (mu/m) J``: ``mu/m`` is exactly 1 where mu = m,
    so a jump tilt's measure is ``(1 + phi) J`` to the bit."""
    return (1.0 + low.phi) * (low.mu / model.m)[:, None] * jump_measure(model)


def transformed_jump_measure(model: FiniteSymmetricModel, transform: TransformSpec) -> np.ndarray:
    """Jump measure of the transformed process, ``(mu/m)(x) (1 + phi(x, y)) J(x, y)``
    from the lowering: ``rho(x) rho(y) J`` for a rho tilt, ``(1 + phi) J``
    for a symmetric jump tilt.

    Defined when the lowered kernel is in detailed balance with mu, which
    is when this measure is symmetric: an asymmetry beyond 1e-10 relative
    to the larger entry of the pair (or to 1) raises ``TransformError``.
    """
    measure = _lowered_jump_measure(model, lower(model, transform))  # >= 0, as phi >= -1
    rel = np.abs(measure - measure.T) / np.maximum(1.0, np.maximum(measure, measure.T))
    worst = float(rel.max())
    if worst > 1e-10:
        x, y = np.unravel_index(np.argmax(rel), rel.shape)
        raise TransformError(
            "the lowered kernel (1 + phi) q is not in detailed balance with the reference "
            f"measure at ({x}, {y}), relative residual {worst:.3e}: the transformed "
            "process is not reversible"
        )
    return measure


def transformed_killing(model: FiniteSymmetricModel, transform: TransformSpec) -> np.ndarray:
    """Killing measure of the transformed process against its reference
    measure mu: ``(1 + phi_delta) k mu + a_rate mu``.

    A rho tilt absorbs killing entirely (identically zero); a symmetric jump
    tilt leaves it unchanged; the general form scales it by ``1 + phi_delta``
    and adds the rate measure of the nonincreasing part.
    """
    low = lower(model, transform)
    return (1.0 + low.phi_delta) * (model.k * low.mu) + low.a_rate * low.mu


def transformed_model(model: FiniteSymmetricModel, transform: TransformSpec) -> FiniteSymmetricModel:
    """The transformed process as a finite model of its own: weights mu,
    rates ``(1 + phi) q``, killing ``k (1 + phi_delta) + a_rate``.

    Rho tilt: weights ``rho^2 m``, rates ``rho(y)/rho(x) q``, no killing.
    Symmetric jump tilt: weights ``m``, rates ``(1 + phi) q``, killing kept.
    A kernel out of detailed balance with mu raises ``TransformError``.
    """
    transformed_jump_measure(model, transform)  # raises unless reversible
    low = lower(model, transform)
    q_hat = (1.0 + low.phi) * model.q
    np.fill_diagonal(q_hat, 0.0)
    return FiniteSymmetricModel(m=low.mu, q=q_hat, k=model.k * (1.0 + low.phi_delta) + low.a_rate)


def reversal_identity_residual(path: Path, rho, model, t: float, **grid_kw) -> float:
    """Residual of the weight's time-reversal identity.

    The rho-tilt weight evaluated along the reversed path should equal the
    forward weight times ``rho(X_0)^2 / rho(X_t)^2``; on chains the residual
    is rounding-level, on diffusion grids it carries discretisation noise.
    """
    rho = _unwrap(rho, RhoTransform)
    fwd = rho_transform_mf(path, rho, model, t, **grid_kw)
    rev_path = reverse(path, t)
    bwd = rho_transform_mf(rev_path, rho, model, t, **grid_kw)
    value = _state_integrand(rho)
    r0, rt = value(path.grid[0] if path.is_grid else path.x0), value(path.state_at(t))
    return abs(bwd.end_value - fwd.end_value * (r0 * r0) / (rt * rt))


def inverse_transform(phi):
    """Jump tilt of the inverse transform: ``-phi / (1 + phi)``, wrapped as a
    ``PureJumpPhi`` when ``phi`` is one.

    Applying it twice recovers ``phi``; the pointwise products
    ``(1 + phi)(1 + inverse) = 1`` hold identically.
    """
    raw = _unwrap(phi, PureJumpPhi)
    arr = np.asarray(raw, dtype=float)
    if np.any(arr <= -1.0):
        raise TransformError("inverse tilt undefined at phi <= -1")
    inverse = -arr / (1.0 + arr)
    return inverse if raw is phi else PureJumpPhi(inverse)


# ---------------------------------------------------------------------------
# integrability of a continuum jump tilt


@dataclass(frozen=True)
class IntegrabilityReport:
    """Outcome of the jump-tilt integrability probe.

    ``status`` is one of ``"finite"``, ``"divergent"`` or ``"inconclusive"``
    (the tilt raised, or the decay exponents did not settle — deliberately
    distinct from divergence); ``worst_estimate`` is the largest sampled value
    of the kernel integral (infinite when divergent) and ``per_point`` maps
    sample points to their estimates.
    """

    status: str
    worst_estimate: float
    per_point: tuple

    def __bool__(self) -> bool:
        return self.status == "finite"


# the probe's panels are at most this wide in u = log r
_PROBE_PANEL = math.log(4.0) / 4.0


def _annulus_verdict(body: float, far: float, inc: np.ndarray) -> tuple:
    """``(status, estimate)`` of one point from its annulus integrals: ``body``
    over ``[delta0, outer]``, ``far`` over ``[outer, 4 outer]`` and ``inc[k]``
    over ``[delta0 4^-(k+1), delta0 4^-k]``."""
    scale = max(body, 1e-12)
    if np.all(inc[-3:] < 1e-13 * scale):
        return "finite", body + far + float(inc.sum())
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.log(inc[:-1] / inc[1:]) / np.log(4.0)
    p_tail = p[-3:]
    if not np.all(np.isfinite(p_tail)):
        return "inconclusive", float("nan")
    p_est = float(np.median(p_tail))
    if far > 0.5 * scale or p_est <= 0.01:
        return "divergent", float("inf")
    if np.max(p_tail) - np.min(p_tail) > 0.5:
        return "inconclusive", float("nan")
    ratio = 4.0 ** (-p_est)
    return "finite", body + far + float(inc.sum()) + float(inc[-1]) * ratio / (1.0 - ratio)


def integrability_check(model: JumpDiffusionModel, phi, region, t: float,
                        levels: int = 10) -> IntegrabilityReport:
    """Probe whether ``x -> int |phi(x, y)| c/|x-y|^{1+alpha} dy`` is finite.

    Seven sample points are spread evenly over the model's interval
    ``region``, checked first; around each the kernel integral is summed
    over ``levels`` (an integer >= 2) shrinking annuli, and the observed
    decay exponent decides between finite, divergent and inconclusive.  The
    annuli are panels of the Gauss-Legendre rule in ``u = log r`` of
    :func:`stable_rate_table`, each at most ``log(4)/4`` wide in ``u`` and 1
    wide in ``r``.  ``phi`` is called once per point and side of the line
    with a float ``x`` and a float array ``y``, and returns an array of
    ``y``'s shape or a scalar, which is broadcast; ``per_point`` keys each
    estimate by the 1-tuple of its point.  ``t`` scales nothing here —
    finiteness at the sampled points is what the pathwise integrability
    requirement needs on a bounded time window.
    """
    lo, hi = model.interval(region)
    if isinstance(levels, bool) or not isinstance(levels, numbers.Integral) or levels < 2:
        raise DomainError(f"levels must be an integer >= 2, got {levels!r}")
    width = hi - lo
    delta0 = min(1.0, max(width, 1e-3))
    outer = 8.0 * max(1.0, width, abs(lo), abs(hi))
    # annulus bounds, innermost first, each one a panel edge
    bounds = [delta0 / 4.0 ** k for k in range(levels, -1, -1)] + [outer, 4.0 * outer]
    edges, starts = [], []
    for a, b in zip(bounds[:-1], bounds[1:]):
        starts.append(_RULE_NODES * len(edges))
        grid = np.linspace(math.log(a), math.log(b), math.ceil(math.log(b / a) / _PROBE_PANEL) + 1)
        # the integers strictly between a and b keep each panel at most 1 wide in r
        edges.extend(np.union1d(grid, np.log(np.arange(math.floor(a) + 1.0, math.ceil(b))))[:-1].tolist())
    r, kernel = _kernel_rule(model, np.array(edges + [math.log(bounds[-1])]))
    per_point = []
    for x in np.linspace(lo, hi, 7).tolist():
        try:
            tilt = np.abs(np.asarray(phi(x, x + r), dtype=float)) + np.abs(np.asarray(phi(x, x - r), dtype=float))
        except Exception:
            per_point.append(((x,), "inconclusive", float("nan")))
            continue
        annuli = np.add.reduceat(tilt * kernel, starts).tolist()
        per_point.append(((x,), *_annulus_verdict(annuli[levels], annuli[levels + 1],
                                                   np.array(annuli[:levels][::-1]))))
    statuses = {s for _, s, _ in per_point}
    status = next(s for s in ("divergent", "inconclusive", "finite") if s in statuses)
    finite_vals = [v for _, _, v in per_point if np.isfinite(v)]
    worst = float("inf") if status == "divergent" else (max(finite_vals) if finite_vals else float("nan"))
    return IntegrabilityReport(status=status, worst_estimate=worst,
                               per_point=tuple((x, v) for x, _, v in per_point))
