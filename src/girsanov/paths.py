"""Cadlag trajectory records and pathwise functionals.

A :class:`Path` is either a finite-chain trajectory (piecewise-constant,
integer states, explicit jump events) or a jump-diffusion trajectory stored
on a uniform time grid plus an explicit jump-event list.  In the second form
the continuous part of any functional is computed from the grid and the jump
part from the event list.

Time reversal at ``t`` maps ``s`` to the left limit of the path at ``t - s``,
so the reversed path takes the pre-jump value at reversed jump instants.
Occupation-time integrals are exact on chains (piecewise-constant quadrature)
and trapezoidal on grids; jump sums run over recorded events only.  Every
function on the state space evaluates to zero at the cemetery, so killed
paths contribute nothing after their death time.

Each functional of a path, here and in ``transform`` and ``montecarlo``,
admits a time by :meth:`Path.time`, counts grid steps by :func:`steps` and
finds the step that holds a jump by :func:`jump_steps`.
"""

from __future__ import annotations

import io
import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, PathError

__all__ = [
    "Path",
    "reverse",
    "steps",
    "jump_steps",
    "integrate_along",
    "jump_sum",
    "evenness_residual",
    "lyons_zheng_residual",
    "path_to_csv",
]


@dataclass(frozen=True)
class Path:
    """One trajectory.

    Chain form: ``x0`` is an integer state and ``events`` is a time-ordered
    tuple of ``(time, new_state)`` records with times strictly increasing in
    ``(0, horizon]`` and no fictitious jumps.  ``killed_at`` marks a jump to
    the cemetery; no events may follow it.

    Grid form (jump diffusions): ``grid``, a 1-d array, holds positions at
    uniform times ``0, dt, 2 dt, ...`` including all jumps that occurred up
    to each grid time, ``events`` holds ``(time, new_position)`` and
    ``jump_pre`` the matching pre-jump positions.  ``eps`` records the
    small-jump truncation radius the sampler used (jumps below it were
    folded into the Gaussian part), which downstream weights need.
    """

    x0: object
    events: tuple
    horizon: float
    killed_at: Optional[float] = None
    grid: Optional[np.ndarray] = None
    dt: Optional[float] = None
    jump_pre: Optional[tuple] = None
    eps: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        if not (self.horizon > 0.0 and np.isfinite(self.horizon)):
            raise PathError("horizon must be positive and finite")
        last = 0.0
        for ev in self.events:
            s = ev[0]
            if not (last < s <= self.horizon):
                raise PathError(
                    f"event times must be strictly increasing in (0, horizon]; got {s}"
                )
            last = s
        if self.killed_at is not None:
            if not (0.0 < self.killed_at <= self.horizon):
                raise PathError("killed_at must lie in (0, horizon]")
            if self.events and self.events[-1][0] >= self.killed_at:
                raise PathError("events after the death time are not allowed")
        if self.grid is None:
            prev = self.x0
            for _, s in self.events:
                if s == prev:
                    raise PathError("fictitious jump: new state equals previous state")
                prev = s
        else:
            grid = np.asarray(self.grid, dtype=float)
            if grid.ndim != 1:
                raise PathError(f"a grid path lies on the line: grid must be 1-d, got shape {grid.shape}")
            object.__setattr__(self, "grid", grid)
            if self.dt is None or not (self.dt > 0.0):
                raise PathError("grid paths need a positive step dt")
            if steps(self.horizon, self.dt, PathError) != grid.shape[0] - 1:
                raise PathError("grid length inconsistent with horizon and dt")
            pre = tuple(self.jump_pre) if self.jump_pre is not None else ()
            if len(pre) != len(self.events):
                raise PathError("jump_pre must match events one to one")
            object.__setattr__(self, "jump_pre", pre)

    # -- basic views ---------------------------------------------------

    @property
    def is_grid(self) -> bool:
        return self.grid is not None

    @property
    def event_times(self):
        return [ev[0] for ev in self.events]

    def alive_at(self, t: float) -> bool:
        return self.killed_at is None or t < self.killed_at

    def time(self, t) -> float:
        """``t`` as a float time of this path: a real number, not a bool,
        in ``[0, horizon]`` up to a slack of ``1e-12 max(1, horizon)`` for
        rounding; anything else raises :class:`DomainError`."""
        if isinstance(t, float) or (isinstance(t, numbers.Real) and not isinstance(t, bool)):
            x, h = float(t), self.horizon  # compared as a float: numpy scalars compare slowly
            if 0.0 <= x <= h + 1e-12 * max(1.0, h):
                return x
        raise DomainError(f"t must be a number in [0, horizon = {self.horizon!r}], got {t!r}")

    def state_at(self, t: float):
        """Cadlag evaluation; returns ``None`` for the cemetery.  A grid path
        is read at 0 and at grid times only (:func:`steps`)."""
        t = self.time(t)
        if not self.alive_at(t):
            return None
        if self.is_grid:
            return self.grid[steps(t, self.dt) if t else 0]
        i = bisect_right(self.events, t, key=itemgetter(0))
        return self.x0 if i == 0 else self.events[i - 1][1]

    def states_before(self, t: float):
        """Pre-jump state for each event with time <= t (chain paths)."""
        out = []
        prev = self.x0
        for s, x in self.events:
            if s > t:
                break
            out.append(prev)
            prev = x
        return out


def steps(t: float, dt: float, error: type = DomainError) -> int:
    """The number of grid steps ``K = round(t / dt)`` up to the time ``t``;
    raises ``error`` unless ``K >= 1`` and ``|K dt - t| <= 1e-9 max(1, t)``,
    so that ``t`` is a grid time."""
    K = int(round(t / dt)) if math.isfinite(t / dt) else 0
    if K < 1 or abs(K * dt - t) > 1e-9 * max(1.0, t):
        raise error(f"{t!r} is not a positive multiple of the grid step {dt!r}")
    return K


def jump_steps(times, dt: float, K: int) -> np.ndarray:
    """The grid step ``j`` in ``[0, K)`` that holds each jump time: step
    ``j`` covers ``(j dt, (j + 1) dt]``, a time within 1e-9 dt of 0 falls in
    the first step and one past ``K dt`` in the last."""
    # clipped as floats and cast once: np.clip costs more than the rest on a path's few jumps
    return np.minimum(np.maximum(np.ceil(np.divide(times, dt) - 1e-9), 1.0), K).astype(np.intp) - 1


def _check_window(path: Path, t: float) -> float:
    t = path.time(t)
    if path.killed_at is not None and path.killed_at <= t:
        raise PathError("path is killed before t; reversal undefined")
    return t


def reverse(path: Path, t: float) -> Path:
    """Time-reverse ``path`` over ``[0, t]``.

    The reversed trajectory evaluates at ``s`` to the left limit of the
    original at ``t - s``; jump events map to ``(t - s, pre-jump value)``
    and the jump count is preserved.  Applying the operation twice recovers
    the original restricted to ``[0, t]``.
    """
    t = _check_window(path, t)
    if not (t > 0.0):
        raise DomainError("reversal time must be positive")
    if path.is_grid:
        K = steps(t, path.dt)
        rev_grid = path.grid[K::-1].copy()
        rev_events = []
        rev_pre = []
        for (s, post), pre in zip(reversed(path.events), reversed(path.jump_pre)):
            if s >= t:
                if s == t:
                    rev_grid[0] = np.asarray(pre, dtype=float)
                continue
            rev_events.append((t - s, pre))
            rev_pre.append(post)
        return Path(
            x0=rev_grid[0],
            events=tuple(rev_events),
            horizon=t,
            grid=rev_grid,
            dt=path.dt,
            jump_pre=tuple(rev_pre),
            eps=path.eps,
        )
    kept = [ev for ev in path.events if ev[0] < t]
    # the state before each kept event, then the left limit at t, where the
    # reversed path starts: the state reached by the last event before t
    states = [path.x0] + [x for _, x in kept]
    rev_events = tuple((t - s, pre) for (s, _), pre in zip(reversed(kept), reversed(states[:-1])))
    return Path(x0=states[-1], events=rev_events, horizon=t)


def _state_integrand(f) -> Callable:
    if callable(f):
        fn = f
        return lambda x: 0.0 if x is None else float(fn(x))
    vec = np.asarray(f, dtype=float)
    return lambda x: 0.0 if x is None else float(vec[x])


def _pair_integrand(F) -> Callable:
    if callable(F):
        return F
    mat = np.asarray(F, dtype=float)
    return lambda x, y: float(mat[x, y])


def integrate_along(path: Path, f, t: float) -> float:
    """Occupation integral ``int_0^t f(X_s) ds``.

    Exact piecewise-constant quadrature on chains; trapezoidal on grids.
    Integration stops at the death time (the cemetery contributes zero) and
    ``t = 0`` gives zero.
    """
    t = path.time(t)
    if t == 0.0:
        return 0.0
    if path.is_grid:
        tt = min(t, path.horizon)
        K = tt / path.dt
        k_full = int(np.floor(K + 1e-9))
        vals = np.asarray(f(path.grid), dtype=float)
        total = float(np.trapezoid(vals[: k_full + 1], dx=path.dt)) if k_full >= 1 else 0.0
        frac = tt - k_full * path.dt
        if frac > 1e-9 * path.dt and k_full + 1 < len(vals):
            lam = frac / path.dt
            end_val = (1.0 - lam) * vals[k_full] + lam * vals[k_full + 1]
            total += 0.5 * (vals[k_full] + end_val) * frac
        return total
    fn = _state_integrand(f)
    t_end = t if path.killed_at is None else min(t, path.killed_at)
    total = 0.0
    prev_time, prev_state = 0.0, path.x0
    for s, x in path.events:
        if s >= t_end:
            break
        total += fn(prev_state) * (s - prev_time)
        prev_time, prev_state = s, x
    total += fn(prev_state) * (t_end - prev_time)
    return total


def jump_sum(path: Path, F, t: float) -> float:
    """Sum of ``F(X_{s-}, X_s)`` over recorded jump events with ``s <= t``.

    Only genuine jumps enter (no diagonal terms, no grid increments); the
    death jump is not part of the event list.
    """
    t = path.time(t)
    fn, pres = (F, path.jump_pre) if path.is_grid else (_pair_integrand(F), path.states_before(t))
    total = 0.0
    for (s, post), pre in zip(path.events, pres):
        if s > t:
            break
        total += float(fn(pre, post))
    return total


def evenness_residual(path: Path, f, t: float) -> float:
    """|occupation integral along the path - same along its reversal|.

    Zero (to rounding) whenever the occupation measure is preserved under
    reversal, which holds exactly for chains and for grid trapezoids.
    """
    _check_window(path, t)
    fwd = integrate_along(path, f, t)
    bwd = integrate_along(reverse(path, t), f, t)
    return abs(fwd - bwd)


def _num_laplacian(u, h: float = 1e-4) -> Callable:
    """The central second difference of ``u``, elementwise over an array of
    points: three calls of ``u`` whatever the array's length."""
    def lap(x):
        x = np.asarray(x, dtype=float)
        return (u(x + h) - 2.0 * u(x) + u(x - h)) / (h * h)

    return lap


def _brownian_increments(path: Path, k_steps: int):
    """Per-step continuous increments: grid differences minus jump sizes."""
    inc = np.diff(path.grid[: k_steps + 1], axis=0).astype(float)
    if path.events:
        held = jump_steps([s for s, _ in path.events], path.dt, path.grid.shape[0] - 1)
        sizes = np.array([post for _, post in path.events], dtype=float) - np.array(path.jump_pre, dtype=float)
        # unbuffered, in event order, as a loop over the events subtracts
        np.subtract.at(inc, held[held < k_steps], sizes[held < k_steps])
    return inc


def _continuous_martingale(path: Path, u, lap, k_steps: int) -> float:
    """Discrete continuous-martingale part of u along the first k_steps."""
    base = path.grid[:k_steps]
    inc = _brownian_increments(path, k_steps)
    moved = base + inc
    drift = 0.5 * path.dt * float(np.sum(np.asarray(lap(base), dtype=float)))
    return float(np.sum(np.asarray(u(moved), dtype=float) - np.asarray(u(base), dtype=float))) - drift


def lyons_zheng_residual(path: Path, u, model, t: float, lap_u=None) -> float:
    """Residual of the forward-backward martingale split of ``u`` along a path.

    The increment ``u(X_t) - u(X_0)`` should equal half the difference of the
    forward and time-reversed continuous martingale parts plus the sum of the
    jump increments of ``u``.  On chains the continuous part vanishes and the
    identity telescopes to machine precision; on diffusion grids the residual
    carries the discretisation noise of the grid.
    """
    t = _check_window(path, t)
    if not path.is_grid:
        fn = _state_integrand(u)
        jumps = jump_sum(path, lambda x, y: fn(y) - fn(x), t)
        return abs(fn(path.state_at(t)) - fn(path.x0) - jumps)
    K = steps(t, path.dt)
    lap = lap_u if lap_u is not None else _num_laplacian(u)
    m_fwd = _continuous_martingale(path, u, lap, K)
    rev = reverse(path, t)
    m_bwd = _continuous_martingale(rev, u, lap, K)
    jumps = jump_sum(path, lambda x, y: float(u(y)) - float(u(x)), t)
    lhs = float(u(path.state_at(t))) - float(u(path.grid[0]))
    return abs(lhs - 0.5 * (m_fwd - m_bwd) - jumps)


def path_to_csv(path: Path) -> str:
    """Debug serialisation: one row per grid/event epoch.

    Columns are ``time``, the state (``x0`` for grid paths) and
    ``event_flag`` (1 on jump rows, 0 otherwise; the death row, if any, is
    flagged 1 with state -1); grid values have 17 significant digits.  Not a
    stability-guaranteed format.
    """
    out = io.StringIO()
    if path.is_grid:
        out.write("time,x0,event_flag\n")
        rows = [(j * path.dt, pos, 0) for j, pos in enumerate(path.grid)]
        rows.extend((s, post, 1) for s, post in path.events)
        rows.sort(key=lambda r: (r[0], r[2]))
        for s, pos, flag in rows:
            out.write(f"{s:.17g},{pos:.17g},{flag}\n")
        return out.getvalue()
    out.write("time,state,event_flag\n")
    out.write(f"0,{path.x0},0\n")
    for s, x in path.events:
        out.write(f"{s:.17g},{x},1\n")
    if path.killed_at is not None:
        out.write(f"{path.killed_at:.17g},-1,1\n")
        out.write(f"{path.horizon:.17g},-1,0\n")
    else:
        last = path.events[-1][1] if path.events else path.x0
        if not path.events or path.events[-1][0] < path.horizon:
            out.write(f"{path.horizon:.17g},{last},0\n")
    return out.getvalue()
