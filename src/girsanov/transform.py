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

All weight accumulation happens in log space; a jump tilt of exactly -1
drives the weight to zero and the trace records the first time this happens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
from scipy import integrate as _integrate

from .errors import DomainError, TransformError
from .model import (
    FiniteSymmetricModel,
    JumpDiffusionModel,
    jump_measure,
    stable_small_jump_variance,
)
from .paths import Path, _brownian_increments, reverse

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
    "transformed_revuz",
    "transformed_model",
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
            arr = np.asarray(self.rho, dtype=float)
            if arr.ndim != 1:
                raise TransformError("rho must be a vector of state values")
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
        arr = np.asarray(self.phi, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise TransformError("phi must be a square matrix of pair values")
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
            arr = np.asarray(self.phi, dtype=float)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise TransformError("phi must be a square matrix of pair values")
            if not np.all(np.isfinite(arr)) or np.any(arr < -1.0):
                raise TransformError("phi must be finite and >= -1")
            object.__setattr__(self, "phi", arr)
        if self.a_rate is not None and not callable(self.a_rate):
            a = np.asarray(self.a_rate, dtype=float)
            if np.any(a < 0.0) or not np.all(np.isfinite(a)):
                raise TransformError("a_rate must be nonnegative and finite")
            object.__setattr__(self, "a_rate", a)
        if self.phi_delta is not None and not callable(self.phi_delta):
            pd = np.asarray(self.phi_delta, dtype=float)
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


class _ChainWeights:
    """Per-state compensator rates and per-jump log factors of a transform."""

    __slots__ = ("rate", "log_jump", "log_death")

    def __init__(self, rate, log_jump, log_death):
        self.rate = np.asarray(rate, dtype=float)
        self.log_jump = np.asarray(log_jump, dtype=float)
        self.log_death = np.asarray(log_death, dtype=float)


def _rho_chain_weights(model: FiniteSymmetricModel, rho: np.ndarray) -> _ChainWeights:
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (model.n,):
        raise TransformError("rho has the wrong length for this model")
    if np.any(rho <= 0.0):
        raise TransformError("rho must be strictly positive on visited states")
    rate = model.generator() @ rho / rho
    lr = np.log(rho)
    return _ChainWeights(rate, lr[None, :] - lr[:, None], np.full(model.n, -np.inf))


def _phi_chain_weights(model: FiniteSymmetricModel, phi: np.ndarray) -> _ChainWeights:
    phi = np.asarray(phi, dtype=float)
    PureJumpPhi(phi)  # reuse the structural validation
    rate = (model.q * phi).sum(axis=1)
    return _ChainWeights(rate, np.log1p(phi), np.zeros(model.n))


def _general_chain_weights(model: FiniteSymmetricModel, spec: GeneralMF) -> _ChainWeights:
    phi = np.asarray(spec.phi, dtype=float)
    if phi.shape != (model.n, model.n):
        raise TransformError("phi has the wrong shape for this model")
    n = model.n
    phi_delta = np.zeros(n) if spec.phi_delta is None else np.asarray(spec.phi_delta, dtype=float)
    a_rate = np.zeros(n) if spec.a_rate is None else np.asarray(spec.a_rate, dtype=float)
    rate = (model.q * phi).sum(axis=1) + model.k * phi_delta + a_rate
    with np.errstate(divide="ignore"):
        log_jump = np.log1p(phi)
        log_death = np.log1p(phi_delta)
    return _ChainWeights(rate, log_jump, log_death)


def _chain_weights(model: FiniteSymmetricModel, transform: TransformSpec) -> _ChainWeights:
    """Compensator rates and log factors of any chain transform."""
    if isinstance(transform, RhoTransform):
        return _rho_chain_weights(model, transform.rho)
    if isinstance(transform, PureJumpPhi):
        return _phi_chain_weights(model, transform.phi)
    if isinstance(transform, GeneralMF):
        return _general_chain_weights(model, transform)
    raise TransformError(f"unsupported transform: {type(transform).__name__}")


def _chain_trace(path: Path, t: float, w: _ChainWeights) -> MFTrace:
    if t < 0.0 or t > path.horizon + 1e-12 * max(1.0, path.horizon):
        raise DomainError("t must lie in [0, horizon]")
    times = [0.0]
    log_z = [0.0]
    log_pre = [0.0]
    zero_time = None
    cur = 0.0
    prev_t, prev_x = 0.0, path.x0
    for s, x in path.events:
        if s > t:
            break
        pre = cur - w.rate[prev_x] * (s - prev_t)
        cur = pre + w.log_jump[prev_x, x]
        times.append(s)
        log_pre.append(pre)
        log_z.append(cur)
        if zero_time is None and not np.isfinite(cur):
            zero_time = s
        prev_t, prev_x = s, x
    if path.killed_at is not None and path.killed_at <= t:
        s = path.killed_at
        pre = cur - w.rate[prev_x] * (s - prev_t)
        cur = pre + w.log_death[prev_x]
        times.append(s)
        log_pre.append(pre)
        log_z.append(cur)
        if zero_time is None and not np.isfinite(cur):
            zero_time = s
        prev_t, prev_x = s, None  # frozen at the cemetery
    if times[-1] < t:
        decay = 0.0 if prev_x is None else w.rate[prev_x] * (t - prev_t)
        cur = cur - decay
        times.append(t)
        log_pre.append(cur)
        log_z.append(cur)
    return MFTrace(times, log_z, log_pre, zero_time=zero_time)


def _rho_closed_trace(path: Path, t: float, model, rho) -> MFTrace:
    """Telescoped form: log z = log rho(X_s) - log rho(X_0) - cumulative rate."""
    rho = np.asarray(rho, dtype=float)
    w = _rho_chain_weights(model, rho)
    lr = np.log(rho)
    times = [0.0]
    log_z = [0.0]
    log_pre = [0.0]
    zero_time = None
    cum = 0.0
    prev_t, prev_x = 0.0, path.x0
    for s, x in path.events:
        if s > t:
            break
        cum += w.rate[prev_x] * (s - prev_t)
        log_pre.append(lr[prev_x] - lr[path.x0] - cum)
        log_z.append(lr[x] - lr[path.x0] - cum)
        times.append(s)
        prev_t, prev_x = s, x
    if path.killed_at is not None and path.killed_at <= t:
        s = path.killed_at
        cum += w.rate[prev_x] * (s - prev_t)
        log_pre.append(lr[prev_x] - lr[path.x0] - cum)
        log_z.append(-np.inf)
        times.append(s)
        zero_time = s
        prev_t, prev_x = s, None
    if times[-1] < t:
        if prev_x is None:
            val = -np.inf
        else:
            cum += w.rate[prev_x] * (t - prev_t)
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


def stable_rate_table(model: JumpDiffusionModel, tilt, eps: float, lo: float, hi: float,
                      n_nodes: int = 241) -> Callable:
    """Interpolated ``x -> int_{|z| > eps} tilt(x, x + z) c |z|^{-1-alpha} dz``.

    One-dimensional models only; the table spans ``[lo, hi]`` and is clamped
    to its edge values outside.  Used to compensate explicit (truncated)
    jumps of diffusion-path weights.
    """
    if model.d != 1:
        raise DomainError("rate tables are implemented for one-dimensional models")
    xs = np.linspace(lo, hi, n_nodes)
    out = np.empty(n_nodes)
    a = model.alpha
    cut = max(10.0, 4.0 * (hi - lo))
    for i, x in enumerate(xs):
        # the two sides are integrated together: their first-order parts
        # cancel, which removes the near-edge spike the quadrature would
        # otherwise fight
        f = lambda r: (tilt(x, x + r) + tilt(x, x - r)) * model.c * r ** (-1.0 - a)
        main, _ = _integrate.quad(f, eps, cut, limit=200)
        tail, _ = _integrate.quad(f, cut, np.inf, limit=200)
        out[i] = main + tail
    return lambda x: np.interp(x, xs, out)


def _grid_trace(path: Path, t: float, *, log_jump, comp_rate, mc=None, var_rate=1.0) -> MFTrace:
    """Accumulate a weight along a grid path.

    ``log_jump(pre, post)`` gives the log factor of an explicit jump,
    ``comp_rate(x)`` the compensator rate (including any nonincreasing
    part), ``mc(x)`` the continuous integrand, and ``var_rate`` the variance
    rate per coordinate of the Gaussian driver (1 plus the small-jump
    correction), entering the bracket term.
    """
    K = int(round(t / path.dt))
    if abs(K * path.dt - t) > 1e-9 * max(1.0, t):
        raise DomainError("grid-path weights are evaluated at grid times")
    base = path.grid[:K]
    inc = _brownian_increments(path, K)
    dt = path.dt
    step_log = -np.asarray(comp_rate(base), dtype=float) * dt
    if mc is not None:
        g = np.asarray(mc(base), dtype=float)
        if g.ndim == 1:
            step_log = step_log + g * inc - 0.5 * g * g * var_rate * dt
        else:
            step_log = step_log + np.sum(g * inc, axis=-1) - 0.5 * np.sum(g * g, axis=-1) * var_rate * dt
    log_z = np.zeros(K + 1)
    log_z[1:] = np.cumsum(step_log)
    for (s, post), pre in zip(path.events, path.jump_pre):
        if s > t:
            break
        j = int(np.ceil(s / dt - 1e-9))
        log_z[j:] += float(log_jump(pre, post))
    times = np.arange(K + 1) * dt
    return MFTrace(times, log_z, log_z.copy())


# ---------------------------------------------------------------------------
# the main weight constructors


def rho_transform_mf(path: Path, rho, model, t: float, method: str = "closed",
                     rho_grad=None, compensator=None) -> MFTrace:
    """Weight process of the rho tilt along a path.

    On chains two routes are available and agree to rounding: the telescoped
    closed form (``method="closed"``, canonical) and the incremental
    stochastic-exponential accumulation (``method="incremental"``).  On
    diffusion grids the weight combines a continuous exponential with
    integrand ``rho'/rho``, explicit-jump factors ``rho(post)/rho(pre)`` and
    their quadrature compensator (built on the fly when not supplied).
    """
    if isinstance(rho, RhoTransform):
        rho = rho.rho
    if path.is_grid:
        if not callable(rho):
            raise TransformError("diffusion paths need rho as a callable")
        if not isinstance(model, JumpDiffusionModel):
            raise TransformError("grid paths require the jump-diffusion model")
        if path.eps is None:
            raise TransformError("grid path carries no truncation radius")
        grad = rho_grad if rho_grad is not None else _finite_diff_grad(rho)
        if compensator is None:
            span = float(np.max(np.abs(path.grid))) + 2.0
            compensator = stable_rate_table(
                model, lambda x, y: rho(y) / rho(x) - 1.0, path.eps, -span, span
            )
        vr = 1.0 + stable_small_jump_variance(model, path.eps)
        return _grid_trace(
            path,
            t,
            log_jump=lambda pre, post: math.log(float(rho(post)) / float(rho(pre))),
            comp_rate=compensator,
            mc=lambda x: grad(x) / rho(x),
            var_rate=vr,
        )
    rho = np.asarray(rho, dtype=float)
    if method == "closed":
        return _rho_closed_trace(path, t, model, rho)
    if method == "incremental":
        w = _rho_chain_weights(model, rho)
        ratio = rho[None, :] / rho[:, None]
        w = _ChainWeights(w.rate, np.log1p(ratio - 1.0), w.log_death)
        return _chain_trace(path, t, w)
    raise ValueError(f"unknown method {method!r}")


def pure_jump_mf(path: Path, phi, model, t: float, compensator=None) -> MFTrace:
    """Weight ``prod (1 + phi) * exp(- int N phi)`` of a symmetric jump tilt."""
    if isinstance(phi, PureJumpPhi):
        phi = phi.phi
    if path.is_grid:
        if not callable(phi):
            raise TransformError("diffusion paths need phi as a callable")
        if compensator is None:
            span = float(np.max(np.abs(path.grid))) + 2.0
            compensator = stable_rate_table(model, phi, path.eps, -span, span)
        return _grid_trace(
            path, t,
            log_jump=lambda pre, post: math.log1p(float(phi(pre, post))),
            comp_rate=compensator,
        )
    return _chain_trace(path, t, _phi_chain_weights(model, np.asarray(phi, dtype=float)))


def general_mf(path: Path, spec: GeneralMF, model, t: float, compensator=None) -> MFTrace:
    """Weight of the general supermartingale form along a path.

    Coincides with :func:`rho_transform_mf` when ``spec`` is derived from a
    rho tilt and with :func:`pure_jump_mf` when only a symmetric jump tilt is
    present.
    """
    if path.is_grid:
        phi = spec.phi
        if not callable(phi):
            raise TransformError("diffusion paths need phi as a callable")
        if compensator is None:
            span = float(np.max(np.abs(path.grid))) + 2.0
            comp = stable_rate_table(model, phi, path.eps, -span, span)
        else:
            comp = compensator
        a_rate = spec.a_rate
        if a_rate is not None:
            base_comp = comp
            comp = lambda x: base_comp(x) + a_rate(x)
        vr = 1.0 + stable_small_jump_variance(model, path.eps)
        return _grid_trace(
            path, t,
            log_jump=lambda pre, post: math.log1p(float(phi(pre, post))),
            comp_rate=comp,
            mc=spec.mc_integrand,
            var_rate=vr,
        )
    return _chain_trace(path, t, _general_chain_weights(model, spec))


def split_mf(path: Path, phi, model, t: float):
    """Factor the jump-tilt weight into an increasing and a decreasing part.

    Returns ``(plus, minus)``: the plus part multiplies the positive tilts
    and exponentiates the negative-tilt compensator, the minus part the other
    way around; their pointwise product is the full weight.
    """
    if isinstance(phi, PureJumpPhi):
        phi = phi.phi
    phi = np.asarray(phi, dtype=float)
    PureJumpPhi(phi)
    pos = np.clip(phi, 0.0, None)
    neg = np.clip(-phi, 0.0, None)
    n_pos = (model.q * pos).sum(axis=1)
    n_neg = (model.q * neg).sum(axis=1)
    plus = _chain_trace(path, t, _ChainWeights(-n_neg, np.log1p(pos), np.zeros(model.n)))
    minus = _chain_trace(path, t, _ChainWeights(n_pos, np.log1p(-neg), np.zeros(model.n)))
    return plus, minus


def log_weight_fn(model: FiniteSymmetricModel, transform: TransformSpec) -> Callable:
    """Fast scalar evaluator ``(path, t) -> log Z_t`` for chain paths.

    Resolves the transform into per-state compensator rates and per-jump log
    factors once, so a loop over paths pays only the walk along each path.
    """
    w = _chain_weights(model, transform)
    # plain Python containers: this closure is called once per path
    rate = tuple(float(r) for r in w.rate)
    log_jump = tuple(tuple(float(v) for v in row) for row in w.log_jump)
    log_death = tuple(float(v) for v in w.log_death)

    def log_weight(path: Path, t: float) -> float:
        cur = 0.0
        prev_t, prev_x = 0.0, path.x0
        for s, x in path.events:
            if s > t:
                break
            cur += -rate[prev_x] * (s - prev_t) + log_jump[prev_x][x]
            prev_t, prev_x = s, x
        if path.killed_at is not None and path.killed_at <= t:
            cur += -rate[prev_x] * (path.killed_at - prev_t) + log_death[prev_x]
        else:
            cur -= rate[prev_x] * (t - prev_t)
        return cur

    return log_weight


# ---------------------------------------------------------------------------
# transformed structure


def _implied_phi(model: FiniteSymmetricModel, transform: TransformSpec) -> np.ndarray:
    if isinstance(transform, RhoTransform):
        rho = np.asarray(transform.rho, dtype=float)
        return rho[None, :] / rho[:, None] - 1.0
    if isinstance(transform, (PureJumpPhi, GeneralMF)):
        return np.asarray(transform.phi, dtype=float)
    raise TransformError(f"unsupported transform: {type(transform).__name__}")


def jump_measure_density(model: FiniteSymmetricModel, rho, phi, tol: float = 1e-10) -> np.ndarray:
    """Density ``g(x, y) = rho(x)^2 (1 + phi(x, y))`` of the transformed
    jump measure against the base one.

    The pair ``(rho, phi)`` must satisfy the consistency relation
    ``rho(y)^2 / rho(x)^2 = (1 + phi(x, y)) / (1 + phi(y, x))`` on every pair
    charged by the jump measure, which is exactly symmetry of ``g`` there;
    violation beyond ``tol`` (relative) rejects the pair.
    """
    rho = np.asarray(rho, dtype=float)
    phi = np.asarray(phi, dtype=float)
    g = rho[:, None] ** 2 * (1.0 + phi)
    J = jump_measure(model)
    charged = J > 0.0
    if np.any(charged):
        asym = np.abs(g - g.T)
        scale = np.maximum(1.0, np.maximum(np.abs(g), np.abs(g.T)))
        rel = (asym / scale)[charged]
        if np.max(rel) > tol:
            x, y = np.argwhere(charged)[np.argmax(rel)]
            raise TransformError(
                "inconsistent (rho, phi) pair: jump-measure density asymmetric at "
                f"({x}, {y}) with relative residual {np.max(rel):.3e}"
            )
    return g


def transformed_levy_kernel(model, transform: TransformSpec):
    """Jump kernel of the transformed process.

    For a rho tilt the rate ``x -> y`` becomes ``rho(y)/rho(x) q(x, y)``
    (detailed balance then holds w.r.t. ``rho^2 m``); for a jump tilt it
    becomes ``(1 + phi) q`` (still ``m``-symmetric).  For the continuum model
    a callable density is returned.
    """
    if isinstance(model, JumpDiffusionModel):
        from .model import stable_kernel_density

        if isinstance(transform, RhoTransform):
            rho = transform.rho
            if not callable(rho):
                raise TransformError("continuum transforms need callable data")
            return lambda x, y: rho(y) / rho(x) * stable_kernel_density(x, y, model)
        if isinstance(transform, PureJumpPhi):
            phi = transform.phi
            return lambda x, y: (1.0 + phi(x, y)) * stable_kernel_density(x, y, model)
        raise TransformError("unsupported continuum transform")
    return (1.0 + _implied_phi(model, transform)) * model.q


def transformed_jump_measure(model: FiniteSymmetricModel, transform: TransformSpec) -> np.ndarray:
    """Jump measure of the transformed process: the tilt density times the base measure."""
    J = jump_measure(model)
    if isinstance(transform, RhoTransform):
        rho = np.asarray(transform.rho, dtype=float)
        return rho[:, None] * rho[None, :] * J
    if isinstance(transform, PureJumpPhi):
        return (1.0 + np.asarray(transform.phi, dtype=float)) * J
    raise TransformError("transformed jump measure needs a rho or symmetric jump tilt")


def transformed_killing(model: FiniteSymmetricModel, transform: TransformSpec) -> np.ndarray:
    """Killing measure of the transformed process.

    A rho tilt absorbs killing entirely (identically zero); a symmetric jump
    tilt leaves it unchanged; the general form scales it by ``1 + phi_delta``
    and adds the rate measure of the nonincreasing part.
    """
    kappa = model.k * model.m
    if isinstance(transform, RhoTransform):
        return np.zeros(model.n)
    if isinstance(transform, PureJumpPhi):
        return kappa.copy()
    if isinstance(transform, GeneralMF):
        pd = np.zeros(model.n) if transform.phi_delta is None else np.asarray(transform.phi_delta, dtype=float)
        a = np.zeros(model.n) if transform.a_rate is None else np.asarray(transform.a_rate, dtype=float)
        return (1.0 + pd) * kappa + a * model.m
    raise TransformError(f"unsupported transform: {type(transform).__name__}")


def transformed_revuz(mu, rho) -> np.ndarray:
    """Revuz measure of an additive functional under the rho tilt: ``rho^2 mu``."""
    mu = np.asarray(mu, dtype=float)
    rho = np.asarray(rho, dtype=float)
    return rho * rho * mu


def transformed_model(model: FiniteSymmetricModel, transform: TransformSpec) -> FiniteSymmetricModel:
    """The transformed process as a finite model of its own.

    Rho tilt: weights ``rho^2 m``, rates ``rho(y)/rho(x) q``, no killing.
    Symmetric jump tilt: weights ``m``, rates ``(1 + phi) q``, killing kept.
    """
    if isinstance(transform, RhoTransform):
        rho = np.asarray(transform.rho, dtype=float)
        q_hat = rho[None, :] / rho[:, None] * model.q
        np.fill_diagonal(q_hat, 0.0)
        return FiniteSymmetricModel(m=rho * rho * model.m, q=q_hat, k=np.zeros(model.n))
    if isinstance(transform, PureJumpPhi):
        q_hat = (1.0 + np.asarray(transform.phi, dtype=float)) * model.q
        np.fill_diagonal(q_hat, 0.0)
        return FiniteSymmetricModel(m=model.m.copy(), q=q_hat, k=model.k.copy())
    raise TransformError("only rho and symmetric jump tilts induce a reversible model")


def reversal_identity_residual(path: Path, rho, model, t: float, **grid_kw) -> float:
    """Residual of the weight's time-reversal identity.

    The rho-tilt weight evaluated along the reversed path should equal the
    forward weight times ``rho(X_0)^2 / rho(X_t)^2``; on chains the residual
    is rounding-level, on diffusion grids it carries discretisation noise.
    """
    if isinstance(rho, RhoTransform):
        rho = rho.rho
    fwd = rho_transform_mf(path, rho, model, t, **grid_kw)
    rev_path = reverse(path, t)
    bwd = rho_transform_mf(rev_path, rho, model, t, **grid_kw)
    if path.is_grid:
        r0 = float(rho(path.grid[0]))
        rt = float(rho(path.state_at(t)))
    else:
        rho_arr = np.asarray(rho, dtype=float)
        r0 = float(rho_arr[path.x0])
        rt = float(rho_arr[path.state_at(t)])
    return abs(bwd.end_value - fwd.end_value * (r0 * r0) / (rt * rt))


def inverse_transform(phi):
    """Jump tilt of the inverse transform: ``-phi / (1 + phi)``.

    Applying it twice recovers ``phi``; the pointwise products
    ``(1 + phi)(1 + inverse) = 1`` hold identically.
    """
    if isinstance(phi, PureJumpPhi):
        return PureJumpPhi(inverse_transform(phi.phi))
    phi = np.asarray(phi, dtype=float)
    if np.any(phi <= -1.0):
        raise TransformError("inverse tilt undefined at phi <= -1")
    return -phi / (1.0 + phi)


# ---------------------------------------------------------------------------
# integrability of a continuum jump tilt


@dataclass(frozen=True)
class IntegrabilityReport:
    """Outcome of the jump-tilt integrability probe.

    ``status`` is one of ``"finite"``, ``"divergent"`` or ``"inconclusive"``
    (quadrature did not settle — deliberately distinct from divergence);
    ``worst_estimate`` is the largest sampled value of the kernel integral
    (infinite when divergent) and ``per_point`` maps sample points to their
    estimates.
    """

    status: str
    worst_estimate: float
    per_point: tuple

    def __bool__(self) -> bool:
        return self.status == "finite"


def _radial_annulus(model, tilt, x, r_lo, r_hi, dirs):
    """Integral of |tilt| against the stable kernel over an annulus."""
    a = model.alpha
    total = 0.0
    for u in dirs:
        f = lambda r: abs(tilt(x, x + r * u)) * model.c * r ** (-1.0 - a)
        val, _ = _integrate.quad(f, r_lo, r_hi, limit=100)
        total += val
    if model.d == 1:
        return total  # dirs are the two signs; surface factor already counted
    return total * model.sphere_surface / len(dirs)


def integrability_check(model: JumpDiffusionModel, phi, region, t: float,
                        levels: int = 10) -> IntegrabilityReport:
    """Probe whether ``x -> int |phi(x, y)| c/|x-y|^{d+alpha} dy`` is finite.

    Sample points are spread over ``region`` (a ``(lo, hi)`` box); around
    each the kernel integral is accumulated over shrinking annuli and the
    observed decay exponent decides between finite, divergent and
    inconclusive.  ``t`` scales nothing here — finiteness at the sampled
    points is what the pathwise integrability requirement needs on a bounded
    time window.
    """
    lo = np.atleast_1d(np.asarray(region[0], dtype=float))
    hi = np.atleast_1d(np.asarray(region[1], dtype=float))
    if model.d == 1:
        sample = [np.array([v]) for v in np.linspace(lo[0], hi[0], 7)]
        dirs = [np.array([1.0]), np.array([-1.0])]
    else:
        mid = 0.5 * (lo + hi)
        sample = [lo.copy(), hi.copy(), mid]
        rng = np.random.default_rng(7)
        dirs = []
        for i in range(model.d):
            e = np.zeros(model.d)
            e[i] = 1.0
            dirs.extend([e, -e])
        for _ in range(4):
            v = rng.normal(size=model.d)
            dirs.append(v / np.linalg.norm(v))

    def tilt1(x, y):
        if model.d == 1:
            return phi(float(x[0]), float(y[0])) if x.shape == (1,) else phi(x, y)
        return phi(x, y)

    width = float(np.max(hi - lo))
    delta0 = min(1.0, max(width, 1e-3))
    outer = 8.0 * max(1.0, width, float(np.max(np.abs(lo))), float(np.max(np.abs(hi))))
    per_point = []
    statuses = []
    for x in sample:
        try:
            body = _radial_annulus(model, tilt1, x, delta0, outer, dirs)
            far = _radial_annulus(model, tilt1, x, outer, 4.0 * outer, dirs)
            increments = []
            d_hi = delta0
            for _ in range(levels):
                d_lo = d_hi / 4.0
                increments.append(_radial_annulus(model, tilt1, x, d_lo, d_hi, dirs))
                d_hi = d_lo
        except Exception:
            per_point.append((tuple(x), float("nan")))
            statuses.append("inconclusive")
            continue
        inc = np.asarray(increments)
        scale = max(body, 1e-12)
        if np.all(inc[-3:] < 1e-13 * scale):
            per_point.append((tuple(x), body + far + float(inc.sum())))
            statuses.append("finite")
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            p = np.log(inc[:-1] / inc[1:]) / np.log(4.0)
        p_tail = p[-3:]
        if not np.all(np.isfinite(p_tail)):
            per_point.append((tuple(x), float("nan")))
            statuses.append("inconclusive")
            continue
        p_est = float(np.median(p_tail))
        if far > 0.5 * max(body, 1e-12) or p_est <= 0.01:
            per_point.append((tuple(x), float("inf")))
            statuses.append("divergent")
            continue
        if np.max(p_tail) - np.min(p_tail) > 0.5:
            per_point.append((tuple(x), float("nan")))
            statuses.append("inconclusive")
            continue
        ratio = 4.0 ** (-p_est)
        remainder = float(inc[-1]) * ratio / (1.0 - ratio)
        per_point.append((tuple(x), body + far + float(inc.sum()) + remainder))
        statuses.append("finite")
    if "divergent" in statuses:
        status = "divergent"
    elif "inconclusive" in statuses:
        status = "inconclusive"
    else:
        status = "finite"
    finite_vals = [v for _, v in per_point if np.isfinite(v)]
    worst = float("inf") if status == "divergent" else (max(finite_vals) if finite_vals else float("nan"))
    return IntegrabilityReport(status=status, worst_estimate=worst, per_point=tuple(per_point))
