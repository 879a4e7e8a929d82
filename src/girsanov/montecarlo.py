"""Exact-event path samplers and weighted Monte Carlo estimators.

Sampling is deterministic per path: path ``i`` draws its uniforms from the
stream ``(seed, offset + i)`` of :mod:`~girsanov.streams`, so results do not
depend on batching or execution order.  Estimator aggregation uses
``np.sum`` (pairwise summation), which pins means to the last bit across
runs.

The chain estimators run on a batched engine: :class:`_PhiloxUniforms`
draws every path's stream at once, and one struct-of-arrays event step
advances all live paths of a fixed-size chunk together.  Each chunk fills
one record (start state, end state, alive flag, log weight, weight) per
horizon asked.  The step bisects the padded rows of the model's one
``jump_table()``; the scalar :func:`sample_finite_path` scans them
unpadded, as lists made once per model, in the same floating-point order,
so every estimate equals, bit for bit, the one a per-path loop over it and
:func:`log_weight_fn` gives; that scalar route stays as the public sampler
and as the tests' reference.

Every holding time takes ``log(1 - u)`` and every weight ``exp(log_w)``
from the C library, through :data:`_log` and :data:`_exp` of
:mod:`~girsanov.streams`, as the scalar route does through ``math``.  The
engine never goes where the two differ: ``1 - u`` lies in ``[2**-53, 1)``
(a zero ``u`` is drawn again), and a log weight, finite or ``-inf``, gets
``math.exp``'s bits up to 709.78 and ``inf`` above, where ``math.exp``
would raise ``OverflowError``.

Every chain estimator is a :class:`ChainRequest` (start law, stream block,
path count, horizon, an optional tracked pair) plus a reducer from a chunk
record to its per-path samples, and :func:`estimate_chain` is the one batch
sampler that serves them.  Requests with the same start law, stream block
and path count read one batch: the engine runs it once, to the largest
horizon asked, and records every path at each smaller horizon on the way
(a checkpoint), since a path's stream does not depend on its horizon.  This
makes those requests use common random numbers, as their identical streams
already did, and changes no value.  The functions ``f`` and ``g`` a request
reduces are checked by :meth:`FiniteSymmetricModel.state_vector`, the rule
the CLI and the forms of ``dirichlet`` use too.

The continuum energy estimator runs on a second batched engine,
:class:`_ContinuumEngine`, over chunks of paths.  Path ``i`` reads its draws
in order from the same ``(seed, offset + i)`` Philox stream, each word an
open uniform (:func:`_open_uniform`): the start, the count of jumps longer
than ``eps`` (Poisson, by inversion of :func:`_poisson_cdf`'s table), that
many jump times, radii and signs, then one normal per grid step, by
:func:`_ndtri`.  Jumps shorter than ``eps`` are folded into the Gaussian
step, as in :func:`sample_jump_diffusion_path`; both count the grid's steps
by :func:`~girsanov.paths.steps`, place each jump in its step by
:func:`~girsanov.paths.jump_steps` and build the grid by :func:`_grid`, so
on the same draws the two give the same paths bit for bit.  The weight of
the rho tilt's :func:`~girsanov.transform.lower_continuum` takes each step's
log weight from :func:`~girsanov.transform._grid_log_steps`, as
:func:`rho_transform_mf` does along a sampled path; the two add steps and
jumps in different orders, so their weights agree to rounding.

Each engine keeps its own Philox workspace.  The chain engine's event loop
allocates no array: every value of a pass (the live paths, their states,
times and weights, the draws, the jump search) is a view of scratch rows the
engine keeps from chunk to chunk, grown only for a larger chunk, and every
step writes into one: a ufunc's ``out``, ``take`` in mode ``"clip"`` (mode
``"raise"`` buffers its output), ``putmask``, and a scatter to the ranks of
:func:`_ranks` where a live set shrinks.  The live paths draw in lockstep
(:meth:`_PhiloxUniforms.draw_live`); between draws the idle workspace holds
the loop's short-lived floats.  A chunk so allocates only the records it
returns, and numpy's cache of small freed blocks does not fill (see
:mod:`~girsanov.streams`).  The continuum engine keeps its workspace, its
chunk's uniforms and its normals across calls, in a free list of at most
one entry (:data:`_CONTINUUM_SCRATCH`), so repeated estimates fault no fresh
pages, and lends the idle workspace to :func:`_ndtri`.

The estimators weight base-process paths by the transform's multiplicative
functional instead of simulating the transformed process directly; the
cemetery convention ``f(dead) = 0`` applies throughout.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, ModelError, TransformError
from .model import (
    FiniteSymmetricModel,
    JumpDiffusionModel,
    _cached,
    stable_small_jump_variance,
    stable_tail_intensity,
)
from .paths import Path, jump_steps, steps
from .streams import (  # module globals here, so the engines' loops look them up in this module
    _ELEVEN, RngSpec, _PhiloxUniforms, _exp, _gather, _grown, _index, _log, _ndtri, _open_uniform,
    _open_unit, _philox_block, _philox_workspace, _poisson_cdf, _poisson_count, _ranks,
)
from .transform import (
    ContinuumLowering,
    _grid_log_steps,
    log_weight_fn,  # noqa: F401  (the scalar route's weight, kept in this namespace)
    rho_transform_mf,  # noqa: F401  (likewise)
    lower,
    lower_continuum,
    stable_rate_table,
)

__all__ = [
    "RngSpec",
    "EstimatorResult",
    "ChainRequest",
    "estimate_chain",
    "semigroup_request",
    "symmetry_gap_request",
    "quadratic_form_requests",
    "jump_rate_request",
    "sample_finite_path",
    "sample_jump_diffusion_path",
    "estimate_transformed_semigroup",
    "estimate_mass",
    "estimate_symmetry_gap",
    "estimate_quadratic_form",
    "quadratic_form_trend",
    "estimate_jump_intensity_ratio",
]


def _state(model: FiniteSymmetricModel, value) -> int:
    """``value`` as a state of ``model``: an exact integer in ``[0, n)``."""
    x = _index(value)
    if x is None or not 0 <= x < model.n:
        raise DomainError(f"{value!r} is not a state of the model")
    return x


def _path_count(value) -> int:
    """``value`` as a count of paths: an exact integer >= 2."""
    n = _index(value)
    if n is None or n < 2:
        raise DomainError(f"estimators need an integer count of at least two paths, got {value!r}")
    return n


def _time(value, name: str = "time") -> float:
    """``value`` as a float time: a real number, finite and > 0, not a bool."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and math.isfinite(value) and value > 0.0):
        raise DomainError(f"{name} must be a finite number > 0, got {value!r}")
    return float(value)


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
        """The estimate from ``samples``, which are left as they are."""
        return cls._from_owned(np.array(samples, dtype=float))

    @classmethod
    def _from_owned(cls, samples: np.ndarray) -> "EstimatorResult":
        """:meth:`from_samples` of a float array the reduction owns: the
        deviations from the mean, then their squares, are written over it,
        and the estimate keeps its bits."""
        n = samples.size
        mean = float(np.sum(samples) / n)
        centered = np.subtract(samples, mean, out=samples)
        var = float(np.sum(np.multiply(centered, centered, out=centered)) / (n - 1))
        return cls(mean=mean, stderr=float(np.sqrt(var / n)), n=n)


# ---------------------------------------------------------------------------
# samplers


def sample_finite_path(model: FiniteSymmetricModel, x0: int, horizon: float,
                       rng: np.random.Generator) -> Path:
    """One chain path: exponential holding at the total exit rate of the
    current state, next state proportional to its jump rates, death
    proportional to its killing rate; on Python floats, over ``model.jump_table()``."""
    x0, horizon = _state(model, x0), _time(horizon, "horizon")
    rows = _cached(model, "_jump_rows_cache", lambda: _jump_rows(model))
    rnd = rng.random
    t, x, events, killed = 0.0, x0, [], None
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


def _jump_rows(model: FiniteSymmetricModel) -> list:
    """The rows of ``model.jump_table()`` as Python values, without the ``inf``
    padding, which a jump never reaches: its ``v`` is below the last running sum."""
    cum, target, jump, total = model.jump_table()
    count = np.isfinite(cum).sum(axis=1).tolist()
    return [(c[:k].tolist(), y[:k].tolist(), j, tot)
            for c, y, k, j, tot in zip(cum, target, count, jump.tolist(), total.tolist())]


def _grid_and_jump_mean(model: JumpDiffusionModel, horizon: float, dt: float, eps: float):
    """Grid steps up to ``horizon`` and the mean count of jumps longer than
    ``eps`` before it, for a truncated grid path."""
    horizon, dt, eps = _time(horizon, "horizon"), _time(dt, "dt"), _time(eps, "eps")
    n_steps = steps(horizon, dt)
    mean = stable_tail_intensity(model, eps) * horizon
    if mean < 1e-6:
        warnings.warn(
            "truncation radius leaves essentially no explicit jumps "
            f"(intensity * horizon = {mean:.3g})",
            UserWarning,
        )
    return n_steps, mean


def _grid(x0, moves, cell, sizes):
    """The ``(m, K + 1)`` grids of ``m`` paths from ``x0`` and their Gaussian
    moves ``(m, K)``, and the states before their jumps: jump ``j``, of
    ``sizes[j]``, lands in the flat cell ``cell[j] = path K + step``, a path's
    jumps in time order.  ``grid[k + 1] = grid[k] + ((0 + s_1 + s_2 ...) +
    move_k)``, a step's jumps summed in time order (``np.add.at`` adds in index
    order); a step's first jump starts from the step's grid state, a later one
    where the jump before it ended."""
    m, K = moves.shape
    grid = np.zeros((m, K + 1))
    flat = grid.reshape(-1)
    at = cell // K + cell  # the row in flat of the state that starts the cell's step
    np.add.at(flat, at + 1, sizes)
    grid[:, 1:] += moves
    grid[:, 0] = x0
    grid.cumsum(axis=1, out=grid)
    pre = flat[at]
    later = (cell[1:] == cell[:-1]).nonzero()[0] + 1
    while later.size:  # each pass settles one more jump of every crowded step
        pre[later] = pre[later - 1] + sizes[later - 1]
        later = later[1:][later[1:] - 1 == later[:-1]]
    return grid, pre


def sample_jump_diffusion_path(model: JumpDiffusionModel, x0, horizon: float,
                               dt: float, eps: float,
                               rng: np.random.Generator) -> Path:
    """Euler-grid path of the Brownian-plus-stable process.

    Jumps longer than ``eps`` are explicit compound-Poisson events with
    power-law lengths and a fair sign; shorter ones are folded into the
    Gaussian step, whose variance becomes ``(1 + sigma2(eps)) dt``.  Within
    a step the jumps land first and the Gaussian move follows, so recorded
    pre/post jump states contain no partial Gaussian displacement.  The grid
    is :class:`_ContinuumEngine`'s rule, :func:`_grid`, for one path, and
    equals the engine's grid bit for bit.
    """
    n_steps, mean = _grid_and_jump_mean(model, horizon, dt, eps)
    n_jumps = int(rng.poisson(mean))
    while True:
        jump_times = np.sort(rng.uniform(0.0, horizon, size=n_jumps))
        if n_jumps == 0 or (jump_times[0] > 0.0 and np.all(np.diff(jump_times) > 0.0)):
            break
    radii = eps * rng.random(n_jumps) ** (-1.0 / model.alpha)
    sizes = radii * np.where(rng.random(n_jumps) < 0.5, -1.0, 1.0)
    std = np.sqrt((1.0 + stable_small_jump_variance(model, eps)) * dt)
    moves = rng.normal(0.0, std, size=(1, n_steps))
    grid, pre = _grid(x0, moves, jump_steps(jump_times, dt, n_steps), sizes)
    grid = grid[0]
    return Path(
        x0=grid[0].copy(),
        events=tuple(zip(jump_times.tolist(), pre + sizes)),
        horizon=float(horizon),
        grid=grid,
        dt=float(dt),
        jump_pre=tuple(pre),
        eps=float(eps),
    )


# ---------------------------------------------------------------------------
# batched chain engine


# paths advanced together; bounds the engine's working memory: it keeps about
# 250 bytes a path of scratch (the Philox workspace 96, the draws' buffers
# 48, its own rows 107) and 16 more a tracked pair.  Each chunk pays the
# event loop's passes and small Philox refills once.  On the README verify
# plus its energy trend (20k-path groups), rounds interleaved in one process
# ran at 0.81, 0.75 and 0.66 of their time at 4096 with chunks of 8192, 16384
# and 32768 (median of 40), for a peak RSS over 300 rounds of 35.7, 38.6 and
# 39.6 MB against 35.0 MB; 8192 takes most of the gain for the least memory.
_CHUNK = 1 << 13
# the engine's scratch rows of each dtype, besides a row pair a tracked pair
_INT_ROWS, _FLOAT_ROWS, _FLAG_ROWS = 7, 5, 3


@dataclass
class _BatchRecord:
    """Outcome of one chunk of chain paths at one horizon, one entry per path.

    ``x_t`` is the state at the horizon (the state at death where ``alive``
    is false), ``log_w`` the log weight ``log Z_t`` and ``w`` the weight
    ``_exp(log_w)``, the C library's ``exp`` (unset on the engine's running
    record).  For each tracked pair ``(x, y)``, ``count[(x, y)]`` holds the
    number of ``x -> y`` jumps and ``occupation[(x, y)]`` the time spent in
    ``x`` before the horizon or death.  ``mass`` is the mass of the law the
    paths started from: ``|mu|`` where they were drawn from the normalised
    ``mu``, 1.0 where they started at one state.
    """

    x0: np.ndarray
    x_t: np.ndarray
    alive: np.ndarray
    log_w: np.ndarray
    count: dict
    occupation: dict
    mass: float
    w: Optional[np.ndarray] = None


class _ChainEngine:
    """Chain paths and their weights, a chunk of paths at a time.

    Runs the algorithm of :func:`sample_finite_path`, on the same jump
    table, and the walk of :func:`log_weight_fn` over arrays: each pass of
    the event loop draws a holding time for every live path, closes the
    checkpoints that holding time passes, ends the paths that pass the last
    horizon, and kills or moves the rest, adding each path's log-weight
    increment in the scalar walk's order.  The table's rows of cumulative
    rates, padded with ``inf``, are searched in halving steps.  Every
    holding time takes :data:`_log` of ``1 - u`` and every weight is
    :data:`_exp` of its log weight, one C loop per array, with the C
    library's bits (see the module docstring).  The engine holds the one
    lowering of its transform, ``low``, and the start law drawn from it.

    Every array of the event loop is a view of the engine's scratch rows,
    and every step writes into one, so a chunk allocates only the records it
    returns.
    """

    def __init__(self, model: FiniteSymmetricModel, transform):
        cum, target, self.jump_total, self.total = model.jump_table()
        self.low = lower(model, transform)
        self.start_cdf, self.mass = _initial_cumulative(self.low.mu)
        # the jump search: each row of the table, padded with inf (target 0)
        # to 2**b columns and flattened, so that from src * 2**b the steps
        # 2**(b-1) .. 1 land on the first rate above v (a row's last column is
        # inf); with the log jump weight of each entry's target
        bits = (cum.shape[1] - 1).bit_length()
        self.width, self.steps = 1 << bits, [1 << j for j in reversed(range(bits))]
        pad = ((0, 0), (0, self.width - cum.shape[1]))
        self.cum = np.pad(cum, pad, constant_values=np.inf).ravel()
        target = np.pad(target, pad)
        self.target = target.ravel()
        self.log_jump = np.take_along_axis(self.low.log_jump, target, axis=1).ravel()
        self.neg_rate = -self.low.rate
        self.stuck = bool((self.total <= 0.0).any())  # some state has no exit
        self._draws = _PhiloxUniforms()
        self._ws = _philox_workspace(0)
        self._int = np.empty((_INT_ROWS, 0), dtype=np.intp)
        self._float = np.empty((_FLOAT_ROWS, 0))
        self._flag = np.empty((_FLAG_ROWS, 0), dtype=bool)
        self._index = np.empty(0, dtype=np.intp)

    def run(self, horizons: tuple, n: int, rng: RngSpec, *, x0: Optional[int] = None,
            pairs: tuple = (), uniforms=None):
        """Yield ``(lo, hi, records)`` for paths ``lo .. hi - 1`` of ``n``.

        ``horizons`` is a sorted tuple; ``records`` holds one
        :class:`_BatchRecord` per horizon.  A path's stream does not depend
        on the horizon, so the record at ``h`` equals, bit for bit, the one a
        run to ``h`` alone gives.  Paths start at state ``x0``, or, when it
        is None, at a state drawn from the path's first uniform against
        ``start_cdf``, the normalised ``mu`` of the lowering.  Each pair
        ``(x, y)`` of ``pairs`` gets the jump count and occupation time of
        the jump-rate estimator.  ``uniforms(rng, first, count)`` supplies
        the draws; by default the paths' Philox streams, through the
        engine's one :class:`_PhiloxUniforms` on the engine's scratch.
        """
        horizons = tuple(float(h) for h in horizons)
        for lo in range(0, n, _CHUNK):
            hi = min(n, lo + _CHUNK)
            if uniforms is None:
                self._scratch(hi - lo, len(pairs))
                scratch = (self._ws, self._int[4:7], self._ws[10].view(np.float64), self._flag[:2], self._index)
                draws = self._draws.start(rng, lo, hi - lo, scratch)
            else:
                draws = uniforms(rng, lo, hi - lo)
            yield lo, hi, self._chunk(draws, hi - lo, horizons, x0, pairs)

    def _scratch(self, m: int, pairs: int) -> None:
        """Grow the scratch rows, when needed, to ``m + 1`` values (the last
        takes a scatter's rejects, see :func:`_ranks`) and a row of each
        dtype for each tracked pair, and the Philox workspace to ``m``
        streams.

        Intp rows 4-6 are the draws' scratch and 5-6 :meth:`_close`'s, bool
        rows 0-1 the draws' and 1 :meth:`_close`'s.  The workspace is idle
        between draws: its last three rows, as floats, hold what the loop
        does not keep over a draw, the draws' output in row 10 among it, and
        are :meth:`_close`'s.
        """
        self._ws = _philox_workspace(m, self._ws)
        if self._index.size > m and self._int.shape[0] >= _INT_ROWS + pairs:
            return
        width = max(m + 1, self._index.size)
        self._int = np.empty((_INT_ROWS + pairs, width), dtype=np.intp)
        self._float = np.empty((_FLOAT_ROWS + pairs, width))
        self._flag = np.empty((_FLAG_ROWS, width), dtype=bool)
        self._index = np.arange(width)

    def _chunk(self, draws, m: int, horizons: tuple, x0, pairs) -> tuple:
        self._scratch(m, len(pairs))
        x, live, live2, src, probe, at, dst = self._int[:_INT_ROWS]
        t, log_w, t_live, t_next, t_next2 = self._float[:_FLOAT_ROWS]
        work, extra = self._ws[9:11].view(np.float64)
        over, keep, dies = self._flag
        counts, occupations = self._int[_INT_ROWS:], self._float[_FLOAT_ROWS:]
        index = self._index
        # every live path draws alike, but for the redraw of a zero
        draw_live = getattr(draws, "draw_live", draws.draw)
        if x0 is None:
            start, mass = np.searchsorted(self.start_cdf, draw_live(index[:m]), side="right"), self.mass
        else:
            start, mass = np.full(m, int(x0), dtype=np.intp), 1.0
        x[:m] = start
        t[:m] = 0.0
        log_w[:m] = 0.0
        for count, occupation in zip(counts, occupations):
            count[:m] = 0
            occupation[:m] = 0.0
        # the running state of every path (its alive flag unset), kept as it
        # was at death by a dead one; a checkpoint's alive flag marks the
        # paths it has closed
        run = _BatchRecord(x0=start, x_t=x[:m], alive=None, log_w=log_w[:m],
                           count={p: c[:m] for p, c in zip(pairs, counts)},
                           occupation={p: o[:m] for p, o in zip(pairs, occupations)}, mass=mass)
        marks = [_BatchRecord(x0=start, x_t=np.empty(m, dtype=np.intp), alive=np.zeros(m, dtype=bool),
                              log_w=np.empty(m), count={p: np.empty(m, dtype=np.int64) for p in pairs},
                              occupation={p: np.empty(m) for p in pairs}, mass=mass)
                 for _ in horizons]
        n = m
        live[:m] = index[:m]
        while n:
            L = live[:n]
            S = _gather(x, L, src)
            if self.stuck:
                # a path that cannot leave its state stays in it past every horizon
                stuck = self.total[S] <= 0.0
                if stuck.any():
                    done = L[stuck]
                    for horizon, mark in zip(horizons, marks):
                        self._close(mark, run, t, done[t[done] <= horizon], horizon)
                    moving = ~stuck
                    n = int(np.count_nonzero(moving))
                    L[:n], S[:n] = L[moving], S[moving]
                    if not n:
                        break
                    L, S = live[:n], src[:n]
            u = draw_live(L)
            if np.count_nonzero(u) < n:
                u = u.copy()  # the draws below write over the draw buffer
                zero = u == 0.0
                while zero.any():
                    u[zero] = draws.draw(L[zero])
                    zero = u == 0.0
            TL, TN = _gather(t, L, t_live), t_next[:n]
            np.subtract(1.0, u, out=TN)
            _log(TN, out=TN)
            np.divide(TN, _gather(self.total, S, work), out=TN)
            np.subtract(TL, TN, out=TN)
            # a checkpoint closes where a holding time first runs past it; a
            # live path has not passed the last horizon
            P, K = over[:n], keep[:n]
            for horizon, mark in zip(horizons[:-1], marks):
                np.logical_and(np.greater(TN, horizon, out=P), np.less_equal(TL, horizon, out=K), out=P)
                k = np.count_nonzero(P)
                if k:
                    live2[_ranks(P, k, probe, index)] = L
                    self._close(mark, run, t, live2[:k], horizon)
            k = np.count_nonzero(np.greater(TN, horizons[-1], out=P))
            if k:
                # the paths that go on first, in order, then those that end
                rank, n = probe[:n], n - k
                rank[np.logical_not(P, out=K)] = index[:n]
                rank[P] = index[n : n + k]
                live2[rank] = L
                self._close(marks[-1], run, t, live2[n : n + k], horizons[-1])
                t_next2[rank] = TN
                live, live2, t_next, t_next2 = live2, live, t_next2, t_next
                if not n:
                    break
                L, TN = live[:n], t_next[:n]
                S, TL = _gather(x, L, src), _gather(t, L, t_live)
            V, D, W, A, B = t_next2[:n], dies[:n], work[:n], at[:n], keep[:n]
            np.multiply(draw_live(L), _gather(self.total, S, W), out=V)
            np.greater_equal(V, _gather(self.jump_total, S, W), out=D)
            # the first cumulative rate above v, from the row's start: the jump target
            np.multiply(S, self.width, out=A)
            for step in self.steps:
                ahead = np.add(A, step - 1, out=probe[:n])
                np.less_equal(_gather(self.cum, ahead, W), V, out=B)
                np.putmask(A, B, np.add(A, step, out=ahead))
            to = _gather(self.target, A, dst)
            gain = _gather(self.log_jump, A, V)
            np.putmask(gain, D, _gather(self.low.log_death, S, W))
            held = np.subtract(TN, TL, out=TL)
            rise = np.multiply(_gather(self.neg_rate, S, W), held, out=W)
            lw = _gather(log_w, L, extra)
            log_w[L] = np.add(lw, np.add(rise, gain, out=rise), out=lw)
            for pair, count, occupation in zip(pairs, counts, occupations):
                here = np.equal(S, pair[0], out=over[:n])
                occ = _gather(occupation, L, W)
                np.putmask(occ, here, np.add(occ, held, out=V))
                occupation[L] = occ
                np.logical_and(here, np.logical_not(D, out=B), out=here)
                np.logical_and(here, np.equal(to, pair[1], out=B), out=here)
                jumps = _gather(count, L, A)
                np.putmask(jumps, here, np.add(jumps, 1, out=probe[:n]))
                count[L] = jumps
            kills = np.count_nonzero(D)
            if kills:
                np.putmask(to, D, S)  # a dead path keeps the state it died in
            x[L] = to
            t[L] = TN
            if kills:
                n -= kills
                live2[_ranks(np.logical_not(D, out=B), n, probe, index)] = L
                live, live2 = live2, live
        # the paths a checkpoint has not closed died before it
        dead = over[:m]
        for mark in marks:
            np.logical_not(mark.alive, out=dead)
            np.putmask(mark.x_t, dead, run.x_t)
            np.putmask(mark.log_w, dead, run.log_w)
            for pair in pairs:
                np.putmask(mark.count[pair], dead, run.count[pair])
                np.putmask(mark.occupation[pair], dead, run.occupation[pair])
            mark.w = _exp(mark.log_w)
        return tuple(marks)

    def _close(self, mark: _BatchRecord, run: _BatchRecord, t: np.ndarray, done: np.ndarray,
               horizon: float) -> None:
        """Record paths ``done`` alive at the horizon: the compensator since
        the last event."""
        k = done.size
        state, jumps = self._int[5:7]
        lw, rest, acc = self._ws[9:12].view(np.float64)
        here = self._flag[1, :k]
        state = _gather(run.x_t, done, state)
        mark.x_t[done] = state
        mark.alive[done] = True
        rest = np.subtract(horizon, _gather(t, done, rest), out=rest[:k])
        lw = np.multiply(_gather(self.low.rate, state, lw), rest, out=lw[:k])
        mark.log_w[done] = np.subtract(_gather(run.log_w, done, acc), lw, out=acc[:k])
        for pair, occupation in run.occupation.items():
            mark.count[pair][done] = _gather(run.count[pair], done, jumps)
            occ = _gather(occupation, done, lw)
            np.putmask(occ, np.equal(state, pair[0], out=here), np.add(occ, rest, out=acc[:k]))
            mark.occupation[pair][done] = occ


# ---------------------------------------------------------------------------
# batched continuum engine


# paths per chunk of the continuum engine.  A warm 3000-path run of
# 512-path chunks of 50 steps peaks near 1.5 MB above the scratch it keeps
# (tracemalloc, continuum-energy settings; 3.5 MB when each call built its
# own), which is 1.6 MB: the Philox workspace over a chunk's ~11k blocks,
# the uniforms and the normals.  512 also ran faster than chunks of 256 or
# 1024 on the acceptance settings
_CONTINUUM_CHUNK = 1 << 9
assert _CONTINUUM_CHUNK <= 1024  # the jump sort's key, path << 53 | word, stays an int64
# paths whose first Philox block (the start and the jump count) the
# continuum engine draws in one call before it runs their chunks; bounds the
# batch's memory: 24 bytes a path kept (key, start, count), and up to 8192
# workspace columns, fewer than a 512-path chunk of 50 steps fills.  A
# 3000-path round takes one call of 258 us where one a chunk took six
# (128 us each at 512 paths; 2-core VM)
_CONTINUUM_BATCH = 1 << 13
# the continuum engine's scratch, kept between calls: at most one list of
# the Philox workspace, the uniforms and the normals, which a run takes and
# gives back when it ends, so that repeated calls fault no fresh pages
_CONTINUUM_SCRATCH = []


def _jump_times(top: np.ndarray, jpath: np.ndarray, t: float) -> np.ndarray:
    """The jump times ``t u`` of a chunk's jumps, sorted by path, then by
    time, from the top 53 bits ``top`` (exact doubles) of their words and
    their paths ``jpath`` (each below 1024).  One int64 key holds the path
    above the word, and a uniform (so a time) never falls where its word
    rises, so the times are those a sort of ``(path, time)`` pairs gives."""
    key = top.astype(np.int64)
    key |= jpath << 53
    key.sort()
    key &= (1 << 53) - 1
    times = _open_unit(key.astype(float))
    times *= t
    return times


class _ContinuumEngine:
    """Truncated grid paths of the 1-d Brownian-plus-stable process with the
    rho tilt's weight, a chunk of paths at a time.

    Path ``i`` reads its draws in order from the ``(seed, offset + i)``
    Philox stream (numpy's counter and word order, :func:`_open_uniform`):
    the start (inverse of the ``rho^2`` table), the explicit-jump count N
    (:func:`_poisson_count`), N jump times ``t u``, N radii
    ``eps u^{-1/alpha}``, N signs (``u < 1/2`` is negative), then one normal
    ``std _ndtri(u)`` per grid step.  Jump sizes pair with the times sorted,
    in draw order.  This is the law and the pairing of
    :func:`sample_jump_diffusion_path`, and both build the grid by
    :func:`_grid`, so on the same draws the two give the same paths bit for
    bit.  The weight sums the steps of
    :func:`~girsanov.transform._grid_log_steps` and the jump factors, so it
    is, to rounding, the one :func:`rho_transform_mf` accumulates along its
    grid, from the same lowering ``low``
    (:func:`~girsanov.transform.lower_continuum`).

    The draws and their order do not depend on the batching: a run draws
    block 1 (the start and the count) of up to :data:`_CONTINUUM_BATCH`
    paths in one call, then each chunk's paths read their whole runs from
    counter 1 again.  The scratch (the Philox workspace, which is
    :func:`_ndtri`'s scratch too, the uniforms and the normals) is taken
    from :data:`_CONTINUUM_SCRATCH` and given back, so it outlives the call.
    """

    def __init__(self, model: JumpDiffusionModel, low: ContinuumLowering, region, t: float, dt: float,
                 eps: float, compensator=None):
        lo, hi = model.interval(region)
        if low.rho is None:
            raise TransformError("the continuum energy statistic needs a rho tilt: its start law is rho^2")
        K, mean = _grid_and_jump_mean(model, t, dt, eps)
        # the start law: rho^2 on the region by the trapezoid rule, and its mass
        self.xs = np.linspace(lo, hi, 4097)
        rho = np.asarray(low.rho(self.xs), dtype=float)
        if rho.shape != self.xs.shape or not np.all((rho > 0.0) & (rho < np.inf)):
            raise TransformError("rho must give a finite value > 0 at every point of the region, "
                                 f"as an array of its argument's shape {self.xs.shape}")
        if compensator is None:
            compensator = stable_rate_table(model, low.tilt, eps, lo - 2.0, hi + 2.0)
        self.low = low
        self.compensator = compensator
        w = rho ** 2
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * (self.xs[1] - self.xs[0]))])
        self.scale = float(cum[-1])
        self.start_cdf = cum / self.scale
        self.count_cdf = _poisson_cdf(mean)
        self.var_rate = 1.0 + stable_small_jump_variance(model, eps)
        self.std = np.sqrt(self.var_rate * dt)
        self.alpha = model.alpha
        self.t, self.dt, self.eps, self.steps = float(t), float(dt), float(eps), K

    def run(self, n: int, rng: RngSpec):
        """Yield ``(lo, hi, x0, x_t, log_w)`` for paths ``lo .. hi - 1`` of ``n``."""
        try:  # a pop, not a check and a pop, so that two threads never take one scratch
            scratch = _CONTINUUM_SCRATCH.pop()
        except IndexError:
            scratch = [_philox_workspace(0), np.empty(0), np.empty(0)]
        try:
            for first in range(0, n, _CONTINUUM_BATCH):
                key0, key1 = rng.keys(first, min(n - first, _CONTINUUM_BATCH))
                x0, count = self._firsts(key0, key1, scratch)
                for lo in range(0, key1.size, _CONTINUUM_CHUNK):
                    hi = min(key1.size, lo + _CONTINUUM_CHUNK)
                    yield (first + lo, first + hi) + self._chunk(key0, key1[lo:hi], x0[lo:hi], count[lo:hi], scratch)
        finally:
            _CONTINUUM_SCRATCH[:] = [scratch]  # one slice assignment: never two entries

    def _firsts(self, key0: int, key1: np.ndarray, scratch: list):
        """The starts and the jump counts of a batch of paths, from their
        first block (counter 1), which fix how many blocks each path reads."""
        scratch[0] = _philox_workspace(key1.size, scratch[0])
        c0, c1, _, _ = _philox_block(np.ones(key1.size, dtype=np.uint64), key0, key1, scratch[0])
        x0 = np.interp(_open_uniform(c0), self.start_cdf, self.xs)
        return x0, _poisson_count(self.count_cdf, _open_uniform(c1))

    def _uniforms(self, key0: int, key1: np.ndarray, count: np.ndarray, scratch: list):
        """Every draw of a chunk's paths, path after path, each as its word's
        top 53 bits (a double, exactly), and per path the index of its first
        jump-time draw (draw 2).  The pass computes block 1 again, so that
        each path's words are one contiguous run from counter 1."""
        blocks = (2 + 3 * count + self.steps + 3) >> 2
        owner = np.repeat(np.arange(key1.size), blocks)
        row0 = np.cumsum(blocks) - blocks
        counter = (np.arange(owner.size) - row0[owner] + 1).astype(np.uint64)
        scratch[0] = _philox_workspace(owner.size, scratch[0])
        words = _philox_block(counter, key0, key1[owner], scratch[0])
        scratch[1] = _grown(scratch[1], 4 * owner.size)
        top = scratch[1][: 4 * owner.size]
        for j, w in enumerate(words):
            np.right_shift(w, _ELEVEN, out=w)
            np.copyto(top[j::4], w)
        return top, 4 * row0 + 2

    def _chunk(self, key0: int, key1: np.ndarray, x0: np.ndarray, count: np.ndarray, scratch: list):
        K, dt, m = self.steps, self.dt, key1.size
        u, start = self._uniforms(key0, key1, count, scratch)

        # explicit jumps, one flat entry each, in path order
        jpath = np.repeat(np.arange(m), count)
        slot = start[jpath] + np.arange(jpath.size) - (np.cumsum(count) - count)[jpath]
        times = _jump_times(u[slot], jpath, self.t)
        _open_unit(u)
        slot += count[jpath]
        sizes = self.eps * u[slot] ** (-1.0 / self.alpha)
        slot += count[jpath]
        sizes *= np.where(u[slot] < 0.5, -1.0, 1.0)
        step = jump_steps(times, dt, K)
        scratch[2] = _grown(scratch[2], m * K)
        brown = scratch[2][: m * K].reshape(m, K)
        # _ndtri's scratch is the Philox workspace, idle until the next chunk,
        # which holds 3 words for every draw: room for 3 doubles a normal
        work = scratch[0].reshape(-1)[: 3 * m * K].view(float).reshape(3, m, K)
        # every index is in range; mode "raise" would buffer the output
        np.take(u, (start + 3 * count)[:, None] + np.arange(K), out=brown, mode="clip")
        _ndtri(brown, work)
        brown *= self.std

        grid, pre = _grid(x0, brown, jpath * K + step, sizes)
        jump_log = self.low.log_jump(pre, pre + sizes)
        step_log = _grid_log_steps(self.low, self.compensator, grid[:, :K], brown, self.var_rate, dt)
        log_w = step_log.sum(axis=1) + np.bincount(jpath, weights=jump_log, minlength=m)
        return x0, grid[:, K].copy(), log_w


# ---------------------------------------------------------------------------
# the chain batch sampler


def _initial_cumulative(mu: np.ndarray):
    total = float(np.sum(mu))
    if total <= 0.0:
        raise ModelError("reference measure has no mass")
    cdf = np.cumsum(mu) / total
    # cumsum adds in order and sum pairwise, so the quotient can end an ulp
    # below 1; a uniform in that gap would draw the nonexistent state n
    cdf[-1] = 1.0
    return cdf, total


def _ratio_estimate(num: np.ndarray, den: np.ndarray) -> EstimatorResult:
    """Ratio of two sample means, its standard error by the delta method;
    :class:`DomainError` when the denominator's mean is 0: the ratio is
    undefined.  ``num`` and ``den`` are float arrays the reduction owns: the
    deviations, then their squares, are written over them."""
    n = num.size
    num_mean = float(np.sum(num) / n)
    den_mean = float(np.sum(den) / n)
    if den_mean == 0.0:
        raise DomainError(f"the ratio {num_mean!r} / 0.0 of weighted means is undefined: every path's weight is 0")
    ratio = num_mean / den_mean
    dn = np.subtract(num, num_mean, out=num)
    dd = np.subtract(den, den_mean, out=den)
    cov = float(np.sum(dn * dd) / (n - 1))
    var_num = float(np.sum(np.multiply(dn, dn, out=dn)) / (n - 1))
    var_den = float(np.sum(np.multiply(dd, dd, out=dd)) / (n - 1))
    var_ratio = var_num - 2.0 * ratio * cov + ratio * ratio * var_den
    stderr = float(np.sqrt(max(var_ratio, 0.0) / n)) / den_mean
    return EstimatorResult(mean=ratio, stderr=stderr, n=n)


@dataclass(frozen=True, eq=False)
class ChainRequest:
    """One chain estimate: the paths it reads and how it reduces them.

    The paths are streams ``rng.offset .. rng.offset + n - 1`` of ``model``
    under ``transform``, run to ``horizon``, started at state ``x0``, or,
    when ``x0`` is None, from the normalised reference measure ``mu`` of the
    transform's lowering (:func:`~girsanov.transform.lower`).  ``pair`` asks for the jump count and
    occupation time of that pair.  ``reduce`` maps a chunk's
    :class:`_BatchRecord` at the horizon to a tuple of per-path sample
    arrays, and ``summarize`` maps the full arrays, which the sampler made
    for it and which it may write over, to the estimate.  A
    request with no ``reduce`` is exactly zero and samples nothing.

    The request is the one place that checks the values a chain estimate
    runs on: it raises :class:`DomainError` unless ``n`` is an integer >= 2,
    ``x0`` None or an integer state and ``horizon`` a finite real number
    > 0 (a bool is neither), and stores them as int, int and float.
    """

    model: FiniteSymmetricModel
    transform: object
    x0: Optional[int]
    horizon: float
    n: int
    rng: RngSpec
    reduce: Optional[Callable[[_BatchRecord], tuple]]
    summarize: Callable[..., EstimatorResult] = EstimatorResult._from_owned
    pair: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "n", _path_count(self.n))
        if self.x0 is not None:
            object.__setattr__(self, "x0", _state(self.model, self.x0))
        object.__setattr__(self, "horizon", _time(self.horizon))


def estimate_chain(model: FiniteSymmetricModel, transform, requests) -> list:
    """Estimates of every request, in order, each distinct path batch sampled once.

    Requests with the same start law, stream block and path count read the
    same paths, so they form one group: the engine runs it once, to its
    largest horizon, and hands each chunk's record at every horizon to the
    requests that asked for it.  A path to an earlier horizon is the prefix
    of the same path to a later one, so each estimate equals, bit for bit,
    the one a run of its request alone gives; requests of one group use
    common random numbers, as their identical streams already did.  The
    call lowers the transform once, in its engine, and every group reads
    its start law and that law's mass from that one lowering.  Every
    request must have been built for this ``model`` and ``transform``, since
    its reducer holds their constants; a request without a reducer gives
    an exact zero.
    """
    requests = list(requests)
    results = [None] * len(requests)
    groups = {}
    for idx, req in enumerate(requests):
        if req.model is not model or req.transform is not transform:
            raise DomainError("request was built for another model or transform")
        if req.reduce is None:
            results[idx] = EstimatorResult(0.0, 0.0, req.n)
            continue
        groups.setdefault((req.x0, req.rng, req.n), []).append(idx)
    if not groups:
        return results
    engine = _ChainEngine(model, transform)
    for (x0, rng, n), members in groups.items():
        estimates = _sample_group(engine, [requests[i] for i in members], x0, rng, n)
        for i, res in zip(members, estimates):
            results[i] = res
    return results


def _sample_group(engine: _ChainEngine, requests: list, x0, rng: RngSpec, n: int) -> list:
    """Estimates of requests that read the same paths, from one engine run."""
    horizons = tuple(sorted({req.horizon for req in requests}))
    pairs = tuple(sorted({req.pair for req in requests} - {None}))
    at = [horizons.index(req.horizon) for req in requests]
    samples = [None] * len(requests)
    for lo, hi, records in engine.run(horizons, n, rng, x0=x0, pairs=pairs):
        for k, req in enumerate(requests):
            parts = req.reduce(records[at[k]])
            if samples[k] is None:
                samples[k] = tuple(np.empty(n) for _ in parts)
            for whole, part in zip(samples[k], parts):
                whole[lo:hi] = part
        records = parts = part = None  # freed before the engine fills the next chunk
    return [req.summarize(*arrays) for req, arrays in zip(requests, samples)]


def semigroup_request(model: FiniteSymmetricModel, transform, f, x: int, t: float,
                      n: int, rng: RngSpec) -> ChainRequest:
    """Request of ``E_x[Z_t f(X_t)]``: samples ``Z_t f(X_t)``, zero after death."""
    f = model.state_vector(f)

    def reduce(rec):
        out = np.zeros(rec.alive.size)
        np.multiply(rec.w, f[rec.x_t], out=out, where=rec.alive)
        return (out,)

    return ChainRequest(model, transform, x0=x, horizon=t, n=n, rng=rng, reduce=reduce)


def symmetry_gap_request(model: FiniteSymmetricModel, transform, f, g, t: float,
                         n: int, rng: RngSpec) -> ChainRequest:
    """Request of the antisymmetrised pairing gap; when ``f = g`` the gap is
    exactly zero, and the request has no reducer and samples nothing."""
    f = model.state_vector(f)
    g = model.state_vector(g, "g")
    if np.array_equal(f, g):
        return ChainRequest(model, transform, x0=None, horizon=t, n=n, rng=rng, reduce=None)

    def reduce(rec):
        out = np.zeros(rec.alive.size)
        alive = np.flatnonzero(rec.alive)
        x0, xt = rec.x0[alive], rec.x_t[alive]
        w = rec.mass * rec.w[alive]
        out[alive] = w * (g[x0] * f[xt] - f[x0] * g[xt])
        return (out,)

    return ChainRequest(model, transform, x0=None, horizon=t, n=n, rng=rng, reduce=reduce)


def _trend_blocks(ts, n: int, rng: RngSpec) -> list:
    """``(t, streams)`` for each time of an energy trend, a nonempty list:
    the time of index ``idx`` reads streams ``rng.offset + idx n`` onward."""
    if not isinstance(ts, (list, tuple, np.ndarray)) or len(ts) == 0:
        raise DomainError(f"ts must be a nonempty list of times, got {ts!r}")
    n = _path_count(n)  # before it scales an offset
    return [(t, replace(rng, offset=rng.offset + idx * n)) for idx, t in enumerate(ts)]


def quadratic_form_requests(model: FiniteSymmetricModel, transform, f, ts, n: int,
                            rng: RngSpec) -> list:
    """Requests of the energy statistic at each time of ``ts``, each time on
    its own block of streams."""
    f = model.state_vector(f)

    def request(t, block):
        def reduce(rec):
            diff = np.where(rec.alive, f[rec.x_t], 0.0)
            diff -= f[rec.x0]
            out = np.multiply(rec.mass, rec.w)
            out *= diff
            out *= diff
            out *= inv_2t
            return (out,)

        req = ChainRequest(model, transform, x0=None, horizon=t, n=n, rng=block, reduce=reduce)
        inv_2t = 1.0 / (2.0 * req.horizon)  # once the request has checked t
        return req

    return [request(t, block) for t, block in _trend_blocks(ts, n, rng)]


def jump_rate_request(model: FiniteSymmetricModel, transform, pair, horizon: float,
                      n: int, rng: RngSpec) -> ChainRequest:
    """Request of the tilted jump rate of ``pair``: weighted jump counts over
    weighted occupation times, from the pair's first state."""
    try:
        x, y = (_state(model, s) for s in pair)
    except (TypeError, ValueError):
        raise DomainError(f"pair must name two states, got {pair!r}") from None
    if x == y:
        raise DomainError("pair must name two distinct states")

    def reduce(rec):
        return (rec.w * rec.count[(x, y)], rec.w * rec.occupation[(x, y)])

    return ChainRequest(model, transform, x0=x, horizon=horizon, n=n, rng=rng,
                        reduce=reduce, summarize=_ratio_estimate, pair=(x, y))


# ---------------------------------------------------------------------------
# estimators


def estimate_transformed_semigroup(model: FiniteSymmetricModel, transform, f,
                                   x: int, t: float, n: int, rng: RngSpec) -> EstimatorResult:
    """Weighted estimate of the transformed semigroup at a point:
    mean of ``Z_t f(X_t)`` over paths from ``x``, zero after death."""
    return estimate_chain(model, transform, [semigroup_request(model, transform, f, x, t, n, rng)])[0]


def estimate_mass(model: FiniteSymmetricModel, transform, x: int, t: float,
                  n: int, rng: RngSpec) -> EstimatorResult:
    """Weighted mass ``E_x[Z_t; alive]``; equals 1 for every rho tilt."""
    return estimate_transformed_semigroup(model, transform, np.ones(model.n), x, t, n, rng)


def estimate_symmetry_gap(model: FiniteSymmetricModel, transform, f, g,
                          t: float, n: int, rng: RngSpec) -> EstimatorResult:
    """Antisymmetrized pairing gap of the transformed semigroup.

    Starts each path from the normalized transformed reference measure and
    averages ``|mu| Z_t (g(X_0) f(X_t) - f(X_0) g(X_t))``; both orderings
    share the path (common random numbers), and ``f = g`` short-circuits to
    an exact zero.
    """
    return estimate_chain(model, transform, [symmetry_gap_request(model, transform, f, g, t, n, rng)])[0]


def estimate_quadratic_form(model, transform, f, t: float, n: int, rng: RngSpec,
                            *, region=None, dt: float = 1e-3, eps: float = 0.01,
                            rho_grad=None, compensator=None) -> EstimatorResult:
    """Small-time energy statistic ``(1/2t) E[(f(X_t) - f(X_0))^2 Z_t]``
    with the start drawn from the transformed reference measure.

    As ``t`` decreases this climbs toward the transformed form value.  Paths
    dead at ``t`` enter through the ``f = 0`` cemetery convention, so with a
    transformed killing present the limit is the form total minus half its
    killing part; the transforms exercised here have none or are
    conservative.  On the continuum model (a rho tilt, ``region`` an interval
    of the model) the start is drawn from ``rho^2`` on the region and the
    weight is the truncated-sampler functional of ``lower_continuum``, all on
    the batched continuum engine (see the module docstring for its draws);
    there ``f``, ``rho``, ``rho_grad`` and ``compensator`` take float arrays.
    On a finite model a keyword set to anything but its default raises :class:`DomainError`.
    """
    if isinstance(model, JumpDiffusionModel):
        low = lower_continuum(model, transform, rho_grad)
        n = _path_count(n)
        engine = _ContinuumEngine(model, low, region, t, dt, eps, compensator)
        samples = np.empty(n)
        for lo, hi, x0, x_t, log_w in engine.run(n, rng):
            diff = np.asarray(f(x_t), dtype=float) - np.asarray(f(x0), dtype=float)
            samples[lo:hi] = engine.scale * np.exp(log_w) * diff * diff / (2.0 * t)
        return EstimatorResult._from_owned(samples)
    given = dict(region=region, dt=dt, eps=eps, rho_grad=rho_grad, compensator=compensator)
    for name, default in estimate_quadratic_form.__kwdefaults__.items():
        if given[name] is not default and not (isinstance(given[name], numbers.Real) and given[name] == default):
            raise DomainError(f"{name} is for the jump-diffusion model only, got {given[name]!r}")
    return estimate_chain(model, transform, quadratic_form_requests(model, transform, f, (t,), n, rng))[0]


def quadratic_form_trend(model, transform, f, ts, n: int, rng: RngSpec, **kw):
    """The energy statistic at several times, smallest-variance bookkeeping
    left to the caller; each time gets its own disjoint block of streams."""
    return [(t, estimate_quadratic_form(model, transform, f, t, n, block, **kw))
            for t, block in _trend_blocks(ts, n, rng)]


def estimate_jump_intensity_ratio(model: FiniteSymmetricModel, transform, pair,
                                  horizon: float, n: int, rng: RngSpec) -> EstimatorResult:
    """Empirical tilted jump rate for one ordered pair.

    Weighted count of ``x -> y`` transitions over weighted occupation time
    at ``x``, both under the end-of-path weight; the ratio converges to the
    tilted kernel entry and its standard error comes from the delta method.
    """
    return estimate_chain(model, transform, [jump_rate_request(model, transform, pair, horizon, n, rng)])[0]
