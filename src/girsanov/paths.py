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
"""

from __future__ import annotations

import bisect
import io
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, PathError

__all__ = [
    "Path",
    "CafSpec",
    "reverse",
    "shift",
    "integrate_along",
    "jump_sum",
    "evenness_residual",
    "lyons_zheng_residual",
    "path_to_csv",
]


@dataclass(frozen=True)
class CafSpec:
    """Integrand of a continuous additive functional ``int_0^t f(X_s) ds``.

    ``integrand`` may be a vector indexed by chain state or a callable on
    points; the cemetery state always evaluates to zero.
    """

    integrand: object


@dataclass(frozen=True)
class Path:
    """One trajectory.

    Chain form: ``x0`` is an integer state and ``events`` is a time-ordered
    tuple of ``(time, new_state)`` records with times strictly increasing in
    ``(0, horizon]`` and no fictitious jumps.  ``killed_at`` marks a jump to
    the cemetery; no events may follow it.

    Grid form (jump diffusions): ``grid`` holds positions at uniform times
    ``0, dt, 2 dt, ...`` including all jumps that occurred up to each grid
    time, ``events`` holds ``(time, new_position)`` and ``jump_pre`` the
    matching pre-jump positions.  ``eps`` records the small-jump truncation
    radius the sampler used (jumps below it were folded into the Gaussian
    part), which downstream weights need.
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
            object.__setattr__(self, "grid", grid)
            if self.dt is None or not (self.dt > 0.0):
                raise PathError("grid paths need a positive step dt")
            n_steps = grid.shape[0] - 1
            if n_steps < 1 or abs(n_steps * self.dt - self.horizon) > 1e-9 * max(1.0, self.horizon):
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

    def state_at(self, t: float):
        """Cadlag evaluation; returns ``None`` for the cemetery."""
        if t < 0.0 or t > self.horizon:
            raise DomainError("time outside [0, horizon]")
        if not self.alive_at(t):
            return None
        if self.is_grid:
            j = int(round(t / self.dt))
            j = min(max(j, 0), self.grid.shape[0] - 1)
            return self.grid[j]
        times = self.event_times
        i = bisect.bisect_right(times, t)
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


def _check_window(path: Path, t: float):
    if t > path.horizon:
        raise DomainError("t exceeds the path horizon")
    if path.killed_at is not None and path.killed_at <= t:
        raise PathError("path is killed before t; reversal undefined")


def reverse(path: Path, t: float) -> Path:
    """Time-reverse ``path`` over ``[0, t]``.

    The reversed trajectory evaluates at ``s`` to the left limit of the
    original at ``t - s``; jump events map to ``(t - s, pre-jump value)``
    and the jump count is preserved.  Applying the operation twice recovers
    the original restricted to ``[0, t]``.
    """
    if not (t > 0.0):
        raise DomainError("reversal time must be positive")
    _check_window(path, t)
    if path.is_grid:
        K = int(round(t / path.dt))
        if abs(K * path.dt - t) > 1e-9 * max(1.0, t):
            raise DomainError("grid paths can only be reversed at grid times")
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
    rev_events = []
    prev = path.x0
    pres = []
    kept = []
    for s, x in path.events:
        if s < t:
            pres.append(prev)
            kept.append((s, x))
        prev = x
    for (s, _), pre in zip(reversed(kept), reversed(pres)):
        rev_events.append((t - s, pre))
    # the reversed path starts at the left limit of the original at t, which
    # is the state reached by the last event strictly before t
    start = kept[-1][1] if kept else path.x0
    return Path(x0=start, events=tuple(rev_events), horizon=t)


def shift(path: Path, s: float) -> Path:
    """Restart the chain path at time ``s`` (time origin moves to ``s``)."""
    if path.is_grid:
        raise DomainError("shift is provided for chain paths only")
    if not (0.0 <= s < path.horizon):
        raise DomainError("shift time must lie in [0, horizon)")
    if path.killed_at is not None and path.killed_at <= s:
        raise PathError("cannot shift past the death time")
    x0 = path.state_at(s)
    events = tuple((u - s, x) for u, x in path.events if u > s)
    killed = None if path.killed_at is None else path.killed_at - s
    return Path(x0=x0, events=events, horizon=path.horizon - s, killed_at=killed)


def _state_integrand(f) -> Callable:
    if isinstance(f, CafSpec):
        f = f.integrand
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
    if t < 0.0 or t > path.horizon + 1e-12 * max(1.0, path.horizon):
        raise DomainError("t must lie in [0, horizon]")
    if t == 0.0:
        return 0.0
    if path.is_grid:
        fn = f.integrand if isinstance(f, CafSpec) else f
        tt = min(t, path.horizon)
        K = tt / path.dt
        k_full = int(np.floor(K + 1e-9))
        vals = np.asarray(fn(path.grid), dtype=float)
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
    if t < 0.0:
        raise DomainError("t must be nonnegative")
    if path.is_grid:
        total = 0.0
        for (s, post), pre in zip(path.events, path.jump_pre):
            if s > t:
                break
            total += float(F(pre, post))
        return total
    fn = _pair_integrand(F)
    total = 0.0
    prev = path.x0
    for s, x in path.events:
        if s > t:
            break
        total += fn(prev, x)
        prev = x
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
    def lap(x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            return (u(x + h) - 2.0 * u(x) + u(x - h)) / (h * h)
        total = 0.0
        for axis in range(x.shape[-1]):
            e = np.zeros_like(x)
            e[..., axis] = h
            total = total + (u(x + e) - 2.0 * u(x) + u(x - e)) / (h * h)
        return total

    return lap


def _brownian_increments(path: Path, k_steps: int):
    """Per-step continuous increments: grid differences minus jump sizes."""
    inc = np.diff(path.grid[: k_steps + 1], axis=0).astype(float)
    for (s, post), pre in zip(path.events, path.jump_pre):
        j = max(int(np.ceil(s / path.dt - 1e-9)) - 1, 0)
        if j < k_steps:
            inc[j] = inc[j] - (np.asarray(post, dtype=float) - np.asarray(pre, dtype=float))
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
    _check_window(path, t)
    if not path.is_grid:
        vec = None if callable(u) else np.asarray(u, dtype=float)
        fn = (lambda x: float(u(x))) if callable(u) else (lambda x: float(vec[x]))
        jumps = jump_sum(path, lambda x, y: fn(y) - fn(x), t)
        return abs(fn(path.state_at(t)) - fn(path.x0) - jumps)
    K = int(round(t / path.dt))
    if abs(K * path.dt - t) > 1e-9 * max(1.0, t):
        raise DomainError("grid paths support the split at grid times only")
    lap = lap_u if lap_u is not None else _num_laplacian(u)
    m_fwd = _continuous_martingale(path, u, lap, K)
    rev = reverse(path, t)
    m_bwd = _continuous_martingale(rev, u, lap, K)
    jumps = jump_sum(path, lambda x, y: float(u(y)) - float(u(x)), t)
    lhs = float(u(path.state_at(t))) - float(u(path.grid[0]))
    return abs(lhs - 0.5 * (m_fwd - m_bwd) - jumps)


def path_to_csv(path: Path) -> str:
    """Debug serialisation: one row per grid/event epoch.

    Columns are ``time``, the state (one column per coordinate for grid
    paths), and ``event_flag`` (1 on jump rows, 0 otherwise; the death row,
    if any, is flagged 1 with state -1).  Not a stability-guaranteed format.
    """
    out = io.StringIO()
    if path.is_grid:
        dim = 1 if path.grid.ndim == 1 else path.grid.shape[1]
        cols = ",".join(f"x{i}" for i in range(dim))
        out.write(f"time,{cols},event_flag\n")
        rows = []
        for j, pos in enumerate(path.grid):
            rows.append((j * path.dt, np.atleast_1d(pos), 0))
        for s, post in path.events:
            rows.append((s, np.atleast_1d(post), 1))
        rows.sort(key=lambda r: (r[0], r[2]))
        for s, pos, flag in rows:
            coords = ",".join(f"{v:.17g}" for v in pos)
            out.write(f"{s:.17g},{coords},{flag}\n")
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
