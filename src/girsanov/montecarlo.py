"""Exact-event path samplers and weighted Monte Carlo estimators.

Sampling is deterministic per path: path ``i`` draws its uniforms from the
counter-based Philox4x64-10 stream keyed by ``(seed, offset + i)`` (see
:class:`RngSpec`), so results do not depend on batching or execution order.
Estimator aggregation uses ``np.sum`` (pairwise summation), which pins means
to the last bit across runs.

The chain estimators run on a batched engine: a numpy Philox4x64-10 (Salmon
et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11) produces every
path's stream at once, and one struct-of-arrays event step advances all
live paths of a fixed-size chunk together.  Each chunk fills one record
(start state, end state, alive flag, log weight) that the estimators reduce.
The step performs the scalar sampler's floating-point operations in the
same order, and takes ``log`` and ``exp`` from the C library through
``math`` (numpy's vectorised kernels differ from it in the last bit on some
inputs), so every estimate equals, bit for bit, the one a per-path loop over
:func:`sample_finite_path` and :func:`log_weight_fn` gives.  That scalar
route stays as the public sampler and as the tests' reference.

The estimators weight base-process paths by the transform's multiplicative
functional instead of simulating the transformed process directly; the
cemetery convention ``f(dead) = 0`` applies throughout.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import DomainError, ModelError, TransformError
from .model import (
    FiniteSymmetricModel,
    JumpDiffusionModel,
    stable_small_jump_variance,
    stable_tail_intensity,
)
from .paths import Path
from .transform import (
    GeneralMF,
    PureJumpPhi,
    RhoTransform,
    _chain_weights,
    log_weight_fn,  # noqa: F401  (the scalar route's weight, kept in this namespace)
    rho_transform_mf,
    stable_rate_table,
)

__all__ = [
    "RngSpec",
    "EstimatorResult",
    "sample_finite_path",
    "sample_jump_diffusion_path",
    "estimate_transformed_semigroup",
    "estimate_mass",
    "estimate_symmetry_gap",
    "estimate_quadratic_form",
    "quadratic_form_trend",
    "estimate_jump_intensity_ratio",
]


_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RngSpec:
    """Reproducible random source: one independent stream per path index.

    Streams are counter-based (Philox keyed by ``(seed, offset + index)``),
    so the path produced for a given index never depends on how many other
    paths ran, in what order, or on how work was batched.  ``offset`` shifts
    the whole block of indices, which gives disjoint blocks of streams.
    """

    seed: int
    offset: int = 0

    def __post_init__(self):
        if int(self.seed) < 0:
            raise DomainError("seed must be a nonnegative integer")
        if int(self.offset) < 0:
            raise DomainError("offset must be a nonnegative integer")

    def stream(self, index: int) -> np.random.Generator:
        key = np.array([self.seed & _MASK64, (self.offset + index) & _MASK64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


class _StreamPool:
    """Reusable generator that re-keys one Philox state per path.

    Produces draw-for-draw the same output as ``RngSpec.stream(index)`` at a
    fraction of the construction cost; the continuum estimator goes through
    this.
    """

    def __init__(self, seed: int, offset: int = 0):
        key = np.array([seed & _MASK64, 0], dtype=np.uint64)
        self._bg = np.random.Philox(key=key)
        self.gen = np.random.Generator(self._bg)
        self._state = self._bg.state
        self._offset = offset

    def stream(self, index: int) -> np.random.Generator:
        st = self._state
        st["state"]["key"][1] = (self._offset + index) & _MASK64
        st["state"]["counter"][:] = 0
        st["buffer_pos"] = 4
        st["has_uint32"] = 0
        st["uinteger"] = 0
        self._bg.state = st
        return self.gen


# ---------------------------------------------------------------------------
# vectorised Philox4x64-10


_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_PHILOX_MUL = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10


def _mulhilo(a: np.ndarray, mul: int):
    """High and low 64-bit words of ``a * mul``, from 32-bit limbs."""
    m0 = np.uint64(mul & 0xFFFFFFFF)
    m1 = np.uint64(mul >> 32)
    a0 = a & _LO32
    a1 = a >> _SHIFT32
    p01 = a0 * m1
    p10 = a1 * m0
    mid = ((a0 * m0) >> _SHIFT32) + (p01 & _LO32) + (p10 & _LO32)
    hi = a1 * m1 + (p01 >> _SHIFT32) + (p10 >> _SHIFT32) + (mid >> _SHIFT32)
    return hi, a * np.uint64(mul)


def _philox_block(counter: np.ndarray, key0: int, key1: np.ndarray):
    """Philox4x64-10 output words for counters ``(counter[i], 0, 0, 0)``
    under keys ``(key0, key1[i])``, as numpy's ``Philox`` computes them."""
    zero = np.zeros_like(counter)
    c0, c1, c2, c3 = counter, zero, zero, zero
    k1 = key1
    for r in range(_PHILOX_ROUNDS):
        if r:
            key0 = (key0 + _PHILOX_WEYL[0]) & _MASK64
            k1 = k1 + np.uint64(_PHILOX_WEYL[1])
        hi0, lo0 = _mulhilo(c0, _PHILOX_MUL[0])
        hi1, lo1 = _mulhilo(c2, _PHILOX_MUL[1])
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(key0), lo1, hi0 ^ c3 ^ k1, lo0
    return c0, c1, c2, c3


class _PhiloxUniforms:
    """The uniform draws of ``count`` consecutive streams, advanced together.

    Row ``i`` yields, draw for draw, ``rng.stream(first + i).random()``:
    numpy's Philox increments the counter before each block (so the first
    block has counter 1), hands out the block's four words in order and maps
    a word ``x`` to ``(x >> 11) * 2**-53``.
    """

    def __init__(self, rng: RngSpec, first: int, count: int):
        self._key0 = rng.seed & _MASK64
        # uint64 array arithmetic wraps modulo 2**64, as the stream keys do
        self._key1 = np.arange(count, dtype=np.uint64) + np.uint64((rng.offset + first) & _MASK64)
        self._drawn = np.zeros(count, dtype=np.int64)
        self._buf = np.empty((count, 4))
        self._fill(np.arange(count), np.ones(count, dtype=np.uint64))

    def _fill(self, rows: np.ndarray, counter: np.ndarray) -> None:
        words = _philox_block(counter, self._key0, self._key1[rows])
        for j, w in enumerate(words):
            self._buf[rows, j] = (w >> np.uint64(11)).astype(float) * (1.0 / 9007199254740992.0)

    def draw(self, rows: np.ndarray) -> np.ndarray:
        """Next uniform of each listed row."""
        drawn = self._drawn[rows]
        slot = drawn & 3
        spent = (slot == 0) & (drawn > 0)
        if spent.any():
            self._fill(rows[spent], (drawn[spent] >> 2).astype(np.uint64) + np.uint64(1))
        self._drawn[rows] = drawn + 1
        return self._buf[rows, slot]


@dataclass(frozen=True)
class EstimatorResult:
    """Sample mean with its standard error and 95% interval."""

    mean: float
    stderr: float
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise DomainError("estimators need at least two samples")

    @property
    def ci95(self):
        half = 1.96 * self.stderr
        return (self.mean - half, self.mean + half)

    def covers(self, value: float) -> bool:
        lo, hi = self.ci95
        return lo <= value <= hi

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "EstimatorResult":
        samples = np.asarray(samples, dtype=float)
        n = samples.size
        mean = float(np.sum(samples) / n)
        centered = samples - mean
        var = float(np.sum(centered * centered) / (n - 1))
        return cls(mean=mean, stderr=float(np.sqrt(var / n)), n=n)


# ---------------------------------------------------------------------------
# samplers


class _FiniteSampler:
    """Event-driven chain sampler with per-row cumulative tables prebuilt.

    The inner loop runs on plain Python floats: holding times come from the
    inverse exponential CDF of one uniform draw, the move from a second
    uniform scanned against the row's cumulative rates (jump targets first,
    death last).
    """

    def __init__(self, model: FiniteSymmetricModel):
        self.model = model
        rows = []
        for x in range(model.n):
            cum = []
            targets = []
            acc = 0.0
            for y in range(model.n):
                r = float(model.q[x, y])
                if r > 0.0:
                    acc += r
                    cum.append(acc)
                    targets.append(y)
            total = acc + float(model.k[x])
            rows.append((tuple(cum), tuple(targets), acc, total))
        self.rows = rows

    def sample(self, x0: int, horizon: float, rng: np.random.Generator) -> Path:
        rows = self.rows
        rnd = rng.random
        t = 0.0
        x = x0
        events = []
        killed = None
        while True:
            cum, targets, jump_total, total = rows[x]
            if total <= 0.0:
                break
            u = rnd()
            while u == 0.0:
                u = rnd()
            t -= math.log(1.0 - u) / total
            if t > horizon:
                break
            v = rnd() * total
            if v >= jump_total:
                killed = t
                break
            for idx, edge in enumerate(cum):
                if v < edge:
                    x = targets[idx]
                    break
            events.append((t, x))
        return Path(x0=x0, events=tuple(events), horizon=horizon, killed_at=killed)


def sample_finite_path(model: FiniteSymmetricModel, x0: int, horizon: float,
                       rng: np.random.Generator) -> Path:
    """One chain path: exponential holding at the total exit rate of the
    current state, next state proportional to its jump rates, death
    proportional to its killing rate."""
    if not (0 <= int(x0) < model.n):
        raise DomainError(f"x0 = {x0} is not a state of the model")
    return _FiniteSampler(model).sample(int(x0), float(horizon), rng)


def sample_jump_diffusion_path(model: JumpDiffusionModel, x0, horizon: float,
                               dt: float, eps: float,
                               rng: np.random.Generator) -> Path:
    """Euler-grid path of the Brownian-plus-stable process.

    Jumps longer than ``eps`` are explicit compound-Poisson events with the
    power-law radial law; shorter ones are folded into the Gaussian step,
    whose per-coordinate variance becomes ``(1 + sigma2(eps)) dt``.  Within
    a step the jumps land first and the Gaussian move follows, so recorded
    pre/post jump states contain no partial Gaussian displacement.
    """
    if dt <= 0.0 or eps <= 0.0:
        raise DomainError("dt and eps must be positive")
    n_steps = int(round(horizon / dt))
    if n_steps < 1 or abs(n_steps * dt - horizon) > 1e-9 * max(1.0, horizon):
        raise DomainError("horizon must be a positive multiple of dt")
    lam = stable_tail_intensity(model, eps)
    if lam * horizon < 1e-6:
        warnings.warn(
            "truncation radius leaves essentially no explicit jumps "
            f"(intensity * horizon = {lam * horizon:.3g})",
            UserWarning,
        )
    d = model.d
    n_jumps = int(rng.poisson(lam * horizon))
    while True:
        jump_times = np.sort(rng.uniform(0.0, horizon, size=n_jumps))
        if n_jumps == 0 or (jump_times[0] > 0.0 and np.all(np.diff(jump_times) > 0.0)):
            break
    radii = eps * rng.random(n_jumps) ** (-1.0 / model.alpha)
    if d == 1:
        signs = np.where(rng.random(n_jumps) < 0.5, -1.0, 1.0)
        sizes = radii * signs
    else:
        dirs = rng.normal(size=(n_jumps, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        sizes = radii[:, None] * dirs
    std = np.sqrt((1.0 + stable_small_jump_variance(model, eps)) * dt)
    if d == 1:
        gauss = rng.normal(0.0, std, size=n_steps)
        grid = np.empty(n_steps + 1)
    else:
        gauss = rng.normal(0.0, std, size=(n_steps, d))
        grid = np.empty((n_steps + 1, d))
    x0_arr = float(x0) if d == 1 else np.asarray(x0, dtype=float)
    grid[0] = x0_arr
    steps = gauss.copy()
    step_of_jump = np.minimum(np.ceil(jump_times / dt - 1e-9).astype(int) - 1, n_steps - 1)
    events = []
    pres = []
    cur = grid[0]
    j = 0
    for step in range(n_steps):
        base = cur
        while j < n_jumps and step_of_jump[j] == step:
            pre = base if d == 1 else base.copy()
            post = pre + sizes[j]
            events.append((float(jump_times[j]), post if d == 1 else post.copy()))
            pres.append(pre)
            base = post
            j += 1
        cur = base + gauss[step]
        grid[step + 1] = cur
    return Path(
        x0=grid[0] if d == 1 else grid[0].copy(),
        events=tuple(events),
        horizon=float(horizon),
        grid=grid,
        dt=float(dt),
        jump_pre=tuple(pres),
        eps=float(eps),
    )


# ---------------------------------------------------------------------------
# batched chain engine


# paths advanced together; bounds the engine's working memory, which peaks at
# about 200 bytes a path inside the Philox block.  Larger chunks gain little
# speed (under 10% at 16384) for the memory they take.
_CHUNK = 1 << 12


def _libm(fn):
    """Elementwise ``fn`` of the ``math`` module over a float array.

    ``math.log`` and ``math.exp`` are the C library's; numpy's vectorised
    ``log`` and ``exp`` differ from them in the last bit on some inputs, and
    the scalar sampler and weight use the C library's.
    """

    def apply(a: np.ndarray) -> np.ndarray:
        # a memoryview iterates as Python floats without building a list
        return np.fromiter(map(fn, memoryview(np.ascontiguousarray(a, dtype=float))),
                           dtype=float, count=a.size)

    return apply


_log = _libm(math.log)
_exp = _libm(math.exp)


@dataclass
class _BatchRecord:
    """Outcome of one chunk of chain paths, one entry per path.

    ``x_t`` is the state at the horizon (meaningless where ``alive`` is
    false) and ``log_w`` the log weight ``log Z_t``.  For the jump-rate
    estimator, ``count`` holds the number of jumps along the tracked pair and
    ``occupation`` the time spent in its first state before the horizon or
    death.
    """

    x0: np.ndarray
    x_t: np.ndarray
    alive: np.ndarray
    log_w: np.ndarray
    count: Optional[np.ndarray] = None
    occupation: Optional[np.ndarray] = None


class _ChainEngine:
    """Chain paths and their weights, a chunk of paths at a time.

    Runs the algorithm of :class:`_FiniteSampler` and the walk of
    :func:`log_weight_fn` over arrays: each pass of the event loop draws a
    holding time for every live path, ends the paths that pass the horizon,
    and kills or moves the rest, adding each path's log-weight increment in
    the scalar walk's order.  The rows of cumulative rates are padded with
    ``inf`` and searched by vectorised bisection.
    """

    def __init__(self, model: FiniteSymmetricModel, transform):
        rows = _FiniteSampler(model).rows
        width = max(len(cum) for cum, *_ in rows)
        self.cum = np.full((model.n, width + 1), np.inf)
        self.target = np.zeros((model.n, width + 1), dtype=np.intp)
        for x, (cum, targets, _jump, _total) in enumerate(rows):
            self.cum[x, : len(cum)] = cum
            self.target[x, : len(targets)] = targets
        self.bisections = width.bit_length()
        self.jump_total = np.array([row[2] for row in rows])
        self.total = np.array([row[3] for row in rows])
        w = _chain_weights(model, transform)
        self.rate = w.rate
        self.log_jump = w.log_jump
        self.log_death = w.log_death
        self.n = model.n

    def run(self, horizon: float, n: int, rng: RngSpec, *, x0: Optional[int] = None,
            start_cdf: Optional[np.ndarray] = None, pair=None, uniforms=_PhiloxUniforms):
        """Yield ``(lo, hi, record)`` for paths ``lo .. hi - 1`` of ``n``.

        Paths start at state ``x0``, or at a state drawn from the path's
        first uniform against ``start_cdf``.  ``pair = (x, y)`` asks for the
        jump count and occupation time of the jump-rate estimator.
        ``uniforms(rng, first, count)`` supplies the draws.
        """
        if x0 is not None and not (0 <= int(x0) < self.n):
            raise DomainError(f"x0 = {x0} is not a state of the model")
        for lo in range(0, n, _CHUNK):
            hi = min(n, lo + _CHUNK)
            draws = uniforms(rng, lo, hi - lo)
            yield lo, hi, self._chunk(draws, hi - lo, float(horizon), x0, start_cdf, pair)

    def _chunk(self, draws, m: int, horizon: float, x0, start_cdf, pair) -> _BatchRecord:
        rows = np.arange(m)
        if start_cdf is None:
            x = np.full(m, int(x0), dtype=np.intp)
        else:
            x = np.searchsorted(start_cdf, draws.draw(rows), side="right")
        # x is the current state of every path; the record keeps it as x_t
        rec = _BatchRecord(x0=x.copy(), x_t=x, alive=np.ones(m, dtype=bool), log_w=np.zeros(m))
        if pair is not None:
            rec.count = np.zeros(m, dtype=np.int64)
            rec.occupation = np.zeros(m)
        t = np.zeros(m)
        live = rows
        while live.size:
            total = self.total[x[live]]
            stuck = total <= 0.0
            if stuck.any():
                self._finish(rec, t, live[stuck], horizon, pair)
                live, total = live[~stuck], total[~stuck]
            u = draws.draw(live)
            zero = u == 0.0
            while zero.any():
                u[zero] = draws.draw(live[zero])
                zero = u == 0.0
            t_next = t[live] - _log(1.0 - u) / total
            over = t_next > horizon
            if over.any():
                self._finish(rec, t, live[over], horizon, pair)
                keep = ~over
                live, total, t_next = live[keep], total[keep], t_next[keep]
            if not live.size:
                break
            src = x[live]
            v = draws.draw(live) * total
            dies = v >= self.jump_total[src]
            # bisection for the first cumulative rate above v: the jump target
            lo = np.zeros(live.size, dtype=np.intp)
            span = np.full(live.size, self.cum.shape[1] - 1, dtype=np.intp)
            for _ in range(self.bisections):
                mid = (lo + span) >> 1
                below = self.cum[src, mid] <= v
                lo = np.where(below, mid + 1, lo)
                span = np.where(below, span, mid)
            dst = self.target[src, lo]
            step = np.where(dies, self.log_death[src], self.log_jump[src, dst])
            held = t_next - t[live]
            rec.log_w[live] = rec.log_w[live] + (-self.rate[src] * held + step)
            if pair is not None:
                here = src == pair[0]
                at = live[here]
                rec.occupation[at] = rec.occupation[at] + held[here]
                rec.count[live] += here & ~dies & (dst == pair[1])
            rec.alive[live[dies]] = False
            moves = ~dies
            live = live[moves]
            x[live] = dst[moves]
            t[live] = t_next[moves]
        return rec

    def _finish(self, rec: _BatchRecord, t: np.ndarray, done: np.ndarray, horizon: float, pair) -> None:
        """Close alive paths at the horizon: the compensator since the last event."""
        state = rec.x_t[done]
        rest = horizon - t[done]
        rec.log_w[done] = rec.log_w[done] - self.rate[state] * rest
        if pair is not None:
            here = state == pair[0]
            at = done[here]
            rec.occupation[at] = rec.occupation[at] + rest[here]


# ---------------------------------------------------------------------------
# estimators


def _check_chain_inputs(model, f):
    f = np.asarray(f, dtype=float)
    if f.shape != (model.n,):
        raise DomainError("f has the wrong length for this model")
    return f


def _tilted_weight_vector(model: FiniteSymmetricModel, transform) -> np.ndarray:
    """Reference measure of the transformed process on a finite model."""
    if isinstance(transform, RhoTransform):
        rho = np.asarray(transform.rho, dtype=float)
        return rho * rho * model.m
    if isinstance(transform, (PureJumpPhi, GeneralMF)):
        return model.m.copy()
    raise TransformError(f"unsupported transform: {type(transform).__name__}")


def estimate_transformed_semigroup(model: FiniteSymmetricModel, transform, f,
                                   x: int, t: float, n: int, rng: RngSpec) -> EstimatorResult:
    """Weighted estimate of the transformed semigroup at a point:
    mean of ``Z_t f(X_t)`` over paths from ``x``, zero after death."""
    f = _check_chain_inputs(model, f)
    samples = np.zeros(n)
    for lo, _hi, rec in _ChainEngine(model, transform).run(t, n, rng, x0=x):
        alive = np.flatnonzero(rec.alive)
        samples[lo + alive] = _exp(rec.log_w[alive]) * f[rec.x_t[alive]]
    return EstimatorResult.from_samples(samples)


def estimate_mass(model: FiniteSymmetricModel, transform, x: int, t: float,
                  n: int, rng: RngSpec) -> EstimatorResult:
    """Weighted mass ``E_x[Z_t; alive]``; equals 1 for every rho tilt."""
    return estimate_transformed_semigroup(model, transform, np.ones(model.n), x, t, n, rng)


def _initial_cumulative(mu: np.ndarray):
    total = float(np.sum(mu))
    if total <= 0.0:
        raise ModelError("reference measure has no mass")
    cdf = np.cumsum(mu) / total
    # cumsum adds in order and sum pairwise, so the quotient can end an ulp
    # below 1; a uniform in that gap would draw the nonexistent state n
    cdf[-1] = 1.0
    return cdf, total


def estimate_symmetry_gap(model: FiniteSymmetricModel, transform, f, g,
                          t: float, n: int, rng: RngSpec) -> EstimatorResult:
    """Antisymmetrized pairing gap of the transformed semigroup.

    Starts each path from the normalized transformed reference measure and
    averages ``|mu| Z_t (g(X_0) f(X_t) - f(X_0) g(X_t))``; both orderings
    share the path (common random numbers), and ``f = g`` short-circuits to
    an exact zero.
    """
    f = _check_chain_inputs(model, f)
    g = _check_chain_inputs(model, g)
    if np.array_equal(f, g):
        return EstimatorResult(0.0, 0.0, n)
    cum, total = _initial_cumulative(_tilted_weight_vector(model, transform))
    samples = np.zeros(n)
    for lo, _hi, rec in _ChainEngine(model, transform).run(t, n, rng, start_cdf=cum):
        alive = np.flatnonzero(rec.alive)
        x0, xt = rec.x0[alive], rec.x_t[alive]
        w = total * _exp(rec.log_w[alive])
        samples[lo + alive] = w * (g[x0] * f[xt] - f[x0] * g[xt])
    return EstimatorResult.from_samples(samples)


def _continuum_initial_table(rho, region, nodes: int = 4097):
    lo, hi = float(region[0]), float(region[1])
    xs = np.linspace(lo, hi, nodes)
    w = np.asarray(rho(xs), dtype=float) ** 2
    dx = xs[1] - xs[0]
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * dx)])
    total = float(cum[-1])
    return xs, cum / total, total


def estimate_quadratic_form(model, transform, f, t: float, n: int, rng: RngSpec,
                            *, region=None, dt: float = 1e-3, eps: float = 0.01,
                            rho_grad=None, compensator=None) -> EstimatorResult:
    """Small-time energy statistic ``(1/2t) E[(f(X_t) - f(X_0))^2 Z_t]``
    with the start drawn from the transformed reference measure.

    As ``t`` decreases this climbs toward the transformed form value.  Paths
    dead at ``t`` enter through the ``f = 0`` cemetery convention, so with a
    transformed killing present the limit is the form total minus half its
    killing part; the transforms exercised here have none or are
    conservative.  On the continuum model (``region`` required, d = 1) the
    start is drawn from ``rho^2`` restricted to the region and the weight is
    the truncated-sampler functional.
    """
    if isinstance(model, JumpDiffusionModel):
        if model.d != 1:
            raise DomainError("continuum estimators are one-dimensional")
        if region is None:
            raise DomainError("continuum estimators need a region")
        if not isinstance(transform, RhoTransform) or not callable(transform.rho):
            raise TransformError("continuum estimators need a callable rho tilt")
        rho = transform.rho
        if compensator is None:
            lo, hi = float(region[0]), float(region[1])
            compensator = stable_rate_table(
                model, lambda a, b: rho(b) / rho(a) - 1.0, eps, lo - 2.0, hi + 2.0
            )
        xs, cdf, scale = _continuum_initial_table(rho, region)
        pool = _StreamPool(rng.seed, rng.offset)
        samples = np.empty(n)
        for i in range(n):
            stream = pool.stream(i)
            x0 = float(np.interp(stream.random(), cdf, xs))
            path = sample_jump_diffusion_path(model, x0, t, dt, eps, stream)
            trace = rho_transform_mf(path, rho, model, t,
                                     rho_grad=rho_grad, compensator=compensator)
            diff = float(f(path.state_at(t))) - float(f(x0))
            samples[i] = scale * trace.end_value * diff * diff / (2.0 * t)
        return EstimatorResult.from_samples(samples)
    f = _check_chain_inputs(model, f)
    cum, total = _initial_cumulative(_tilted_weight_vector(model, transform))
    samples = np.empty(n)
    inv_2t = 1.0 / (2.0 * t)
    for lo, hi, rec in _ChainEngine(model, transform).run(t, n, rng, start_cdf=cum):
        w = total * _exp(rec.log_w)
        diff = np.where(rec.alive, f[rec.x_t], 0.0) - f[rec.x0]
        samples[lo:hi] = w * diff * diff * inv_2t
    return EstimatorResult.from_samples(samples)


def quadratic_form_trend(model, transform, f, ts, n: int, rng: RngSpec, **kw):
    """The energy statistic at several times, smallest-variance bookkeeping
    left to the caller; each time gets its own disjoint block of streams."""
    return [
        (float(t), estimate_quadratic_form(model, transform, f, float(t), n,
                                           replace(rng, offset=rng.offset + idx * n), **kw))
        for idx, t in enumerate(ts)
    ]


def estimate_jump_intensity_ratio(model: FiniteSymmetricModel, transform, pair,
                                  horizon: float, n: int, rng: RngSpec) -> EstimatorResult:
    """Empirical tilted jump rate for one ordered pair.

    Weighted count of ``x -> y`` transitions over weighted occupation time
    at ``x``, both under the end-of-path weight; the ratio converges to the
    tilted kernel entry and its standard error comes from the delta method.
    """
    x, y = int(pair[0]), int(pair[1])
    if not (0 <= x < model.n and 0 <= y < model.n and x != y):
        raise DomainError("pair must name two distinct states")
    num = np.empty(n)
    den = np.empty(n)
    for lo, hi, rec in _ChainEngine(model, transform).run(horizon, n, rng, x0=x, pair=(x, y)):
        w = _exp(rec.log_w)
        num[lo:hi] = w * rec.count
        den[lo:hi] = w * rec.occupation
    num_mean = float(np.sum(num) / n)
    den_mean = float(np.sum(den) / n)
    ratio = num_mean / den_mean
    dn = num - num_mean
    dd = den - den_mean
    var_num = float(np.sum(dn * dn) / (n - 1))
    var_den = float(np.sum(dd * dd) / (n - 1))
    cov = float(np.sum(dn * dd) / (n - 1))
    var_ratio = var_num - 2.0 * ratio * cov + ratio * ratio * var_den
    stderr = float(np.sqrt(max(var_ratio, 0.0) / n)) / den_mean
    return EstimatorResult(mean=ratio, stderr=stderr, n=n)
