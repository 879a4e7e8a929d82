import math
import re

import numpy as np
import pytest

from girsanov import (
    DomainError,
    JumpDiffusionModel,
    Path,
    PathError,
    RngSpec,
    evenness_residual,
    integrate_along,
    jump_sum,
    lyons_zheng_residual,
    path_to_csv,
    reverse,
    sample_finite_path,
    sample_jump_diffusion_path,
)
from girsanov.paths import _num_laplacian, steps

CHAIN_PATH = Path(x0=0, events=((0.5, 1), (1.5, 2)), horizon=2.0)


def _grid_path():
    # one explicit jump of size +1.0 at s = 0.3 (pre 0.2, post 1.2)
    return Path(
        x0=0.0,
        events=((0.3, 1.2),),
        horizon=1.0,
        grid=np.array([0.0, 1.5, 2.0]),
        dt=0.5,
        jump_pre=(0.2,),
        eps=0.1,
    )


def test_path_construction_errors():
    with pytest.raises(PathError):
        Path(x0=0, events=((0.5, 1), (0.5, 2)), horizon=2.0)
    with pytest.raises(PathError):
        Path(x0=0, events=((2.5, 1),), horizon=2.0)
    with pytest.raises(PathError):
        Path(x0=0, events=((0.0, 1),), horizon=2.0)
    with pytest.raises(PathError):
        Path(x0=0, events=(), horizon=0.0)
    with pytest.raises(PathError):
        Path(x0=0, events=((0.5, 1),), horizon=2.0, killed_at=0.4)
    with pytest.raises(PathError):
        Path(x0=0, events=(), horizon=2.0, killed_at=2.5)
    with pytest.raises(PathError):
        Path(x0=0, events=((0.5, 0),), horizon=2.0)  # fictitious jump
    with pytest.raises(PathError):
        Path(x0=0.0, events=(), horizon=1.0, grid=np.array([0.0, 1.0, 2.0]))
    with pytest.raises(PathError):
        Path(x0=0.0, events=(), horizon=1.0, grid=np.array([0.0, 1.0]), dt=0.25)
    with pytest.raises(PathError):
        Path(
            x0=0.0, events=((0.3, 1.2),), horizon=1.0,
            grid=np.array([0.0, 1.5, 2.0]), dt=0.5, jump_pre=(),
        )


def test_state_at_is_cadlag():
    p = CHAIN_PATH
    assert p.state_at(0.0) == 0
    assert p.state_at(0.49) == 0
    assert p.state_at(0.5) == 1  # right-continuous at the jump
    assert p.state_at(1.5) == 2
    assert p.state_at(2.0) == 2
    assert p.event_times == [0.5, 1.5]
    assert p.states_before(2.0) == [0, 1]
    assert p.states_before(1.0) == [0]
    with pytest.raises(DomainError):
        p.state_at(-0.1)
    with pytest.raises(DomainError):
        p.state_at(2.1)
    # rounding past the horizon, within 1e-12 of it, is still the horizon
    assert p.state_at(2.0 + 1e-12) == 2
    with pytest.raises(DomainError):
        p.state_at(2.0 + 1e-11)


def test_grid_state_at_reads_grid_times_only():
    # the jump at 0.3 lands in the grid value at 0.5; state_at rounded t to
    # the nearest grid time, so 0.26 and 0.74 gave 1.5
    p = Path(x0=0.0, events=((0.3, 1.2),), horizon=1.0, grid=np.array([0.0, 1.5, 2.0]),
             dt=0.5, jump_pre=(0.2,), eps=0.1)
    assert [p.state_at(t) for t in (0.0, 0.5, 1.0)] == [0.0, 1.5, 2.0]
    assert p.state_at(0.5 + 1e-10) == 1.5  # within the grid-time rounding of paths.steps
    for t in (0.26, 0.24, 0.3, 0.74, 1e-10, 0.5 + 1e-8):
        with pytest.raises(DomainError, match="grid step"):
            p.state_at(t)


def test_steps_counts_the_grid_steps_of_grid_times_only():
    assert steps(0.5, 1e-3) == 500
    assert steps(0.3, 0.1) == 3  # 0.3 / 0.1 is 2.9999999999999996
    for t, dt in ((0.0, 1e-3), (0.25, 0.1), (0.5004, 1e-3), (math.nan, 1e-3), (math.inf, 1e-3)):
        with pytest.raises(DomainError):
            steps(t, dt)


def test_state_at_after_death():
    p = Path(x0=0, events=((0.5, 1),), horizon=2.0, killed_at=1.0)
    assert p.alive_at(0.9)
    assert not p.alive_at(1.0)
    assert p.state_at(0.9) == 1
    assert p.state_at(1.5) is None


def test_integrate_along_chain():
    f = np.array([1.0, -1.0, 0.5])
    assert integrate_along(CHAIN_PATH, f, 2.0) == pytest.approx(-0.25, abs=1e-15)
    assert integrate_along(CHAIN_PATH, f, 0.0) == 0.0
    assert integrate_along(CHAIN_PATH, f, 0.25) == pytest.approx(0.25)
    with pytest.raises(DomainError):
        integrate_along(CHAIN_PATH, f, 2.5)


def test_integrate_along_stops_at_death():
    p = Path(x0=0, events=((0.5, 1),), horizon=2.0, killed_at=1.0)
    f = np.array([1.0, 3.0, 0.0])
    # 1 * 0.5 up to the jump, 3 * 0.5 up to death, nothing after
    assert integrate_along(p, f, 2.0) == pytest.approx(2.0)


def test_integrate_along_grid_trapezoid():
    p = Path(
        x0=0.0, events=(), horizon=1.0,
        grid=np.array([0.0, 1.0, 2.0]), dt=0.5, jump_pre=(),
    )
    ident = lambda x: x
    assert integrate_along(p, ident, 1.0) == pytest.approx(1.0)
    # partial cell: the interpolated trajectory is x(s) = 2 s
    assert integrate_along(p, ident, 0.75) == pytest.approx(0.5625)


def test_jump_sum_chain():
    F = np.array([[0.0, 2.0, 0.0], [0.25, 0.0, -1.0], [0.0, 0.0, 0.0]])
    assert jump_sum(CHAIN_PATH, F, 2.0) == pytest.approx(1.0)  # F[0,1] + F[1,2]
    assert jump_sum(CHAIN_PATH, F, 1.0) == pytest.approx(2.0)
    assert jump_sum(CHAIN_PATH, F, 0.2) == 0.0
    assert jump_sum(CHAIN_PATH, lambda x, y: float(y - x), 2.0) == pytest.approx(2.0)


def test_jump_sum_grid():
    p = _grid_path()
    assert jump_sum(p, lambda pre, post: post - pre, 1.0) == pytest.approx(1.0)
    assert jump_sum(p, lambda pre, post: post - pre, 0.2) == 0.0


def test_reverse_chain_example():
    p = Path(x0=0, events=((0.5, 1),), horizon=1.0)
    r = reverse(p, 1.0)
    assert r.x0 == 1
    assert r.events == ((0.5, 0),)
    # reversed path evaluates to the left limit of the original
    assert r.state_at(0.2) == 1
    assert r.state_at(0.5) == 0
    rr = reverse(r, 1.0)
    assert rr.x0 == p.x0 and rr.events == p.events


def test_reverse_chain_event_at_endpoint():
    p = Path(x0=0, events=((0.4, 1), (1.0, 2)), horizon=1.0)
    r = reverse(p, 1.0)
    # the jump exactly at t is invisible to left limits
    assert r.x0 == 1
    assert r.events == ((0.6, 0),)


def test_reverse_matches_left_limits():
    rng = np.random.default_rng(3)
    for trial in range(50):
        n = 4
        events = []
        last = 0.0
        state = 0
        for _ in range(rng.integers(0, 6)):
            last += rng.uniform(0.05, 0.3)
            nxt = int((state + rng.integers(1, n)) % n)
            events.append((last, nxt))
            state = nxt
        p = Path(x0=0, events=tuple(events), horizon=2.0)
        t = 1.9
        r = reverse(p, t)
        for s in rng.uniform(0.0, t, size=8):
            shifted = max(t - s - 1e-9, 0.0)  # probe the left limit
            assert r.state_at(s) == p.state_at(shifted)


def test_reverse_killed_raises():
    p = Path(x0=0, events=(), horizon=2.0, killed_at=1.0)
    with pytest.raises(PathError):
        reverse(p, 1.5)
    with pytest.raises(DomainError):
        reverse(CHAIN_PATH, 0.0)
    with pytest.raises(DomainError):
        reverse(CHAIN_PATH, 2.5)


def test_reverse_grid_structure():
    p = _grid_path()
    r = reverse(p, 1.0)
    np.testing.assert_array_equal(r.grid, [2.0, 1.5, 0.0])
    assert r.events == ((0.7, 0.2),)
    assert r.jump_pre == (1.2,)
    assert r.eps == p.eps
    rr = reverse(r, 1.0)
    np.testing.assert_array_equal(rr.grid, p.grid)
    assert rr.events[0][0] == pytest.approx(0.3)
    assert rr.events[0][1] == 1.2
    assert rr.jump_pre == p.jump_pre


def test_reverse_grid_jump_at_endpoint():
    p = Path(
        x0=0.0, events=((1.0, 2.5),), horizon=1.0,
        grid=np.array([0.0, 1.0, 2.5]), dt=0.5, jump_pre=(2.0,),
    )
    r = reverse(p, 1.0)
    assert r.grid[0] == pytest.approx(2.0)  # left limit replaces the endpoint
    assert r.events == ()
    with pytest.raises(DomainError):
        reverse(p, 0.7)  # not a grid time


def test_evenness_residual_sampled_chains(chain3):
    rng_spec = RngSpec(seed=77)
    f = np.array([0.3, -1.0, 2.0])
    checked = 0
    for i in range(200):
        p = sample_finite_path(chain3, 0, 1.5, rng_spec.stream(i))
        assert evenness_residual(p, f, 1.5) <= 1e-12
        checked += 1
    assert checked == 200


def test_evenness_residual_grid():
    model = JumpDiffusionModel(d=1, alpha=1.0, c=1.0)
    rng = RngSpec(seed=5)
    p = sample_jump_diffusion_path(model, 0.0, 1.0, 0.01, 0.05, rng.stream(0))
    assert evenness_residual(p, lambda x: np.cos(x), 1.0) <= 1e-10


def test_lyons_zheng_chain_exact(chain3):
    rng_spec = RngSpec(seed=101)
    u = np.array([0.0, 1.0, -0.5])
    for i in range(100):
        p = sample_finite_path(chain3, int(i % 3), 2.0, rng_spec.stream(i))
        assert lyons_zheng_residual(p, u, chain3, 2.0) <= 1e-12


def test_lyons_zheng_grid_small():
    model = JumpDiffusionModel(d=1, alpha=1.0, c=0.2)
    rng = RngSpec(seed=11)
    resid = []
    for i in range(20):
        p = sample_jump_diffusion_path(model, 0.0, 0.5, 1e-3, 0.1, rng.stream(i))
        resid.append(
            lyons_zheng_residual(p, np.sin, model, 0.5, lap_u=lambda x: -np.sin(x))
        )
    # grid-level discretisation noise only: small on average, never wild
    assert np.mean(resid) < 0.05
    assert max(resid) < 0.5


def test_path_to_csv_chain():
    p = Path(x0=0, events=((0.5, 1),), horizon=2.0, killed_at=0.8)
    text = path_to_csv(p)
    lines = text.strip().split("\n")
    assert lines[0] == "time,state,event_flag"
    assert lines[1] == "0,0,0"
    assert lines[2] == "0.5,1,1"
    assert lines[3].startswith("0.8") and lines[3].endswith("-1,1")
    assert lines[4] == "2,-1,0"
    alive = path_to_csv(CHAIN_PATH).strip().split("\n")
    assert alive[-1] == "2,2,0"


def test_path_to_csv_grid():
    # 3 grid rows + 1 event row, time-sorted with the event between grid
    # times, every number with 17 significant digits
    assert path_to_csv(_grid_path()) == (
        "time,x0,event_flag\n"
        "0,0,0\n"
        "0.29999999999999999,1.2,1\n"
        "0.5,1.5,0\n"
        "1,2,0\n"
    )
    third = Path(x0=0.0, events=((0.1, 1.0 / 3.0),), horizon=0.5, grid=np.array([0.0, 0.5]),
                 dt=0.5, jump_pre=(0.0,), eps=0.1)
    assert path_to_csv(third) == "time,x0,event_flag\n0,0,0\n0.10000000000000001,0.33333333333333331,1\n0.5,0.5,0\n"


@pytest.mark.parametrize("grid", [np.zeros((3, 2)), np.zeros((3, 1)), np.float64(0.0)], ids=["3x2", "3x1", "scalar"])
def test_a_grid_path_lies_on_the_line(grid):
    with pytest.raises(PathError, match=re.escape(f"grid must be 1-d, got shape {np.shape(grid)}")):
        Path(x0=0.0, events=(), horizon=1.0, grid=grid, dt=0.5, jump_pre=(), eps=0.1)


@pytest.mark.parametrize("k_steps", [1, 10, 2000])
def test_numerical_laplacian_calls_u_three_times_on_any_grid(k_steps):
    # the second difference is elementwise: three calls of u on the whole
    # grid, with the bits of a call on each point alone
    calls = []

    def u(x):
        calls.append(np.shape(x))
        return np.sin(x)

    x = np.linspace(-1.0, 1.0, k_steps)
    lap = _num_laplacian(u)(x)
    assert calls == [x.shape] * 3
    alone = np.array([_num_laplacian(np.sin)(v) for v in x[:5]])
    assert lap[:5].tobytes() == alone.tobytes()
    np.testing.assert_allclose(lap, -np.sin(x), atol=1e-6)
