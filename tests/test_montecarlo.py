import ctypes
import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as scipy_stats
from scipy.linalg import expm
from scipy.special import ndtri

from conftest import BAD_REGIONS, make_reversible, make_symmetric_phi
from girsanov import (
    DomainError,
    EstimatorResult,
    FiniteSymmetricModel,
    GeneralMF,
    JumpDiffusionModel,
    ModelError,
    PureJumpPhi,
    RhoTransform,
    RngSpec,
    TransformError,
    estimate_jump_intensity_ratio,
    estimate_mass,
    estimate_quadratic_form,
    estimate_symmetry_gap,
    estimate_transformed_semigroup,
    general_mf,
    log_weight_fn,
    pure_jump_generator,
    quadratic_form_trend,
    rho_transform_mf,
    sample_finite_path,
    sample_jump_diffusion_path,
    stable_rate_table,
    stable_small_jump_variance,
    stable_tail_intensity,
    transformed_generator,
    transformed_model,
)
import girsanov
from girsanov import cli, montecarlo, streams
from girsanov.montecarlo import _ChainEngine
from girsanov.paths import _brownian_increments, jump_steps
from girsanov.streams import _PhiloxUniforms
from girsanov.transform import lower, lower_continuum

F010 = np.array([0.0, 1.0, 0.0])


def zscore(result, oracle):
    return abs(result.mean - oracle) / result.stderr


# -- random source -----------------------------------------------------------


def test_rng_streams_are_reproducible_and_distinct():
    spec = RngSpec(seed=123)
    a = spec.stream(7).random(5)
    b = spec.stream(7).random(5)
    np.testing.assert_array_equal(a, b)
    c = spec.stream(8).random(5)
    assert not np.array_equal(a, c)
    d = RngSpec(seed=124).stream(7).random(5)
    assert not np.array_equal(a, d)
    with pytest.raises(DomainError):
        RngSpec(seed=-1)


def test_offset_shifts_the_stream_block():
    spec = RngSpec(seed=31, offset=40)
    np.testing.assert_array_equal(spec.stream(2).random(5), RngSpec(seed=31).stream(42).random(5))
    with pytest.raises(DomainError):
        RngSpec(seed=0, offset=-1)


@pytest.mark.parametrize("kwargs", [dict(seed=1.5), dict(seed=1, offset=2.5), dict(seed=True),
                                    dict(seed=1, offset=False), dict(seed="3"), dict(seed=None)])
def test_rng_spec_rejects_non_integer_seeds_and_offsets(kwargs):
    with pytest.raises(DomainError):
        RngSpec(**kwargs)


@pytest.mark.parametrize("index", [-1, np.int64(-2), True, np.True_, 1.5, "1", None])
def test_stream_refuses_negative_bool_and_non_integer_indices(index):
    # stream(-1) of offset 5 would be stream 0 of offset 4, a block meant to be disjoint
    with pytest.raises(DomainError):
        RngSpec(seed=3, offset=5).stream(index)


def test_stream_index_wraps_modulo_two_to_the_64():
    spec = RngSpec(seed=3, offset=5)
    np.testing.assert_array_equal(spec.stream(np.int64(2)).random(3), RngSpec(seed=3, offset=7).stream(0).random(3))
    np.testing.assert_array_equal(spec.stream(2**64 - 5).random(3), RngSpec(seed=3).stream(0).random(3))


def test_rng_spec_takes_numpy_integers_as_ints():
    spec = RngSpec(seed=np.uint64(2**64 - 1), offset=np.int64(3))
    assert type(spec.seed) is int and type(spec.offset) is int
    np.testing.assert_array_equal(spec.stream(1).random(5), RngSpec(seed=2**64 - 1).stream(4).random(5))


@pytest.mark.parametrize("first", [np.int64(2), np.uint64(2), np.int64(2**63 - 1), np.uint64(2**64 - 1), 2**63 - 3])
def test_keys_take_a_numpy_integer_first_as_an_int(first):
    # a numpy integer plus an int stays a numpy integer (NEP 50): int64
    # overflowed near 2**63 before the sum was masked
    key0, key1 = RngSpec(seed=3, offset=5).keys(first, 3)
    assert key0 == 3 and key1.dtype == np.uint64
    assert key1.tolist() == [(5 + int(first) + i) % 2**64 for i in range(3)]


def test_numpy_philox_matches_numpy_generator():
    # keys near 2**64 - 1 wrap to 0 and 1; twelve draws cross three blocks
    seed, offset = 2**64 - 1, 2**64 - 3
    draws = _PhiloxUniforms(RngSpec(seed=seed, offset=offset), 0, 5)
    rows = np.arange(5)
    got = np.array([draws.draw(rows).copy() for _ in range(12)]).T  # a draw holds until the next
    for i in range(5):
        key = np.array([seed, (offset + i) % 2**64], dtype=np.uint64)
        want = np.random.Generator(np.random.Philox(key=key)).random(12)
        np.testing.assert_array_equal(got[i], want)


def test_philox_workspace_is_reused_over_growing_and_shrinking_blocks():
    # keys and counters near 2**64 wrap; each call overwrites the last one's words
    key0 = 2**64 - 1
    ws = streams._philox_workspace(4096)
    for n, first in ((4096, 2**64 - 2000), (1, 2**64 - 1), (7, 2**64 - 4), (4096, 0), (3, 2**64 - 2)):
        key1 = np.arange(n, dtype=np.uint64) + np.uint64(first)
        counter = (np.arange(n, dtype=np.uint64) % np.uint64(3)) + np.uint64(1)
        assert streams._philox_workspace(n, ws) is ws
        got = np.stack(streams._philox_block(counter, key0, key1, ws), axis=1)
        for i in sorted({0, 1, n // 2, n - 2, n - 1} & set(range(n))):
            bits = np.random.Philox(key=np.array([key0, key1[i]], dtype=np.uint64))
            want = bits.random_raw(4 * int(counter[i]))[-4:]
            np.testing.assert_array_equal(got[i], want)
    assert streams._philox_workspace(4097, ws).shape == (ws.shape[0], 4097)


def test_warm_philox_block_allocates_nothing():
    n = 4096
    ws = streams._philox_workspace(n)
    key1 = np.arange(n, dtype=np.uint64)
    for counter in (np.ones(n, dtype=np.uint64), 1):  # one counter a row, or one shared as an int
        streams._philox_block(counter, 7, key1, ws)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            streams._philox_block(counter, 7, key1, ws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < 4096, type(counter)  # one 4096-row uint64 array alone is 32 KB


_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_M64 = (1 << 64) - 1


def _philox_unfolded(counter: int, key0: int, key1: int) -> list:
    """Philox4x64-10 of the counter ``(counter, 0, 0, 0)``, every round in
    full, in Python ints (Salmon et al., SC'11)."""
    x, k = [counter, 0, 0, 0], [key0, key1]
    for r in range(10):
        if r:
            k = [(k[0] + _PHILOX_W[0]) & _M64, (k[1] + _PHILOX_W[1]) & _M64]
        p0, p1 = x[0] * _PHILOX_M[0], x[2] * _PHILOX_M[1]
        x = [(p1 >> 64) ^ x[1] ^ k[0], p1 & _M64, (p0 >> 64) ^ x[3] ^ k[1], p0 & _M64]
    return x


@pytest.mark.parametrize("key0", [0, 7, 2**64 - 1, 2**64 - _PHILOX_W[0]])
@pytest.mark.parametrize("case", ["random", "shared", "one row", "int 1", "int 2", "int 2**64 - 1"])
def test_folded_philox_block_equals_the_unfolded_rounds(key0, case):
    # the fold takes rounds 0 and 1 apart, for a counter a row or one
    # Python int for all; the Weyl steps of both keys wrap for the largest
    # key0 and the key1 near 2**64.  Blocks of up to _PACKED_STREAMS streams
    # run on Python ints and wider ones on numpy: widths on both sides of the
    # edge pin both kernels and the dispatch between them
    rng = np.random.default_rng(23)
    edge = streams._PACKED_STREAMS
    for n in (1,) if case == "one row" else (1, 2, 3, edge - 1, edge, edge + 1, 300):
        counter = rng.integers(0, 2**64, size=n, dtype=np.uint64, endpoint=False)
        if case == "shared":
            counter[:] = counter[0]
        key1 = rng.integers(0, 2**64, size=n, dtype=np.uint64, endpoint=False)
        key1[:2] = (2**64 - 1, 2**64 - _PHILOX_W[1])[:n]
        if case.startswith("int"):
            counter = eval(case[4:])
            want = [_philox_unfolded(counter, key0, int(k)) for k in key1]
        else:
            want = [_philox_unfolded(int(c), key0, int(k)) for c, k in zip(counter, key1)]
        ws = streams._philox_workspace(n)
        got = np.stack(streams._philox_block(counter, key0, key1, ws), axis=1)
        np.testing.assert_array_equal(got, np.array(want, dtype=np.uint64), err_msg=f"{n} streams")


def test_numpy_philox_refills_mix_shared_and_unequal_counters(monkeypatch):
    # rows in lockstep refill with one int counter; a row drawn ahead by a
    # block makes the next refills of the same rows unequal, until it is
    # left out of them and all six are level again
    counters = []

    def block(counter, *args):
        counters.append(type(counter))
        return philox_block(counter, *args)

    philox_block = streams._philox_block
    monkeypatch.setattr(streams, "_philox_block", block)
    spec = RngSpec(seed=2**64 - 2, offset=77)
    draws = _PhiloxUniforms(spec, 3, 6)
    seen = {r: [] for r in range(6)}
    every, ahead, rest = np.arange(6), np.array([4]), np.array([0, 1, 2, 3, 5])
    for rows in [every] * 5 + [ahead] * 4 + [every] * 8 + [rest] * 4 + [every] * 4:
        for r, u in zip(rows, draws.draw(rows)):
            seen[int(r)].append(u)
    for r, got in seen.items():
        assert got == spec.stream(3 + r).random(len(got)).tolist(), r
    # the first block, all rows, row 4 alone, two with row 4 a block ahead, the rest, all rows level again
    assert counters == [int, int, int, np.ndarray, np.ndarray, int, int]


def test_lockstep_draws_survive_a_redraw_mid_block():
    # five rows draw in lockstep over three blocks while row 4 leaves between
    # draws, as a finished path does; rows 1 and 3 draw once more mid-block,
    # as a redraw of a zero does; the four left draw in lockstep again, now
    # row by row, one block apart across the next refill
    spec = RngSpec(seed=2**64 - 1, offset=41)
    draws = _PhiloxUniforms(spec, 7, 5)
    seen = {r: [] for r in range(5)}
    every, four, skew = np.arange(5), np.arange(4), np.array([1, 3])
    for live, rows in [(True, every)] * 6 + [(True, four)] * 4 + [(False, skew)] + [(True, four)] * 7:
        for r, u in zip(rows, (draws.draw_live if live else draws.draw)(rows)):
            seen[int(r)].append(u)
    for r, got in seen.items():
        assert got == spec.stream(7 + r).random(len(got)).tolist(), r
    assert [len(got) for got in seen.values()] == [17, 18, 17, 18, 6]


def test_chain_engine_draws_in_lockstep(chain3_killed, phi3, monkeypatch):
    # without a zero uniform every draw of a chunk, from the start state on,
    # reads all its live rows at one position; a row-by-row draw would fail
    monkeypatch.setattr(_PhiloxUniforms, "draw", lambda self, rows: pytest.fail("row-by-row draw"))
    engine = _ChainEngine(chain3_killed, PureJumpPhi(phi=phi3))
    for _lo, _hi, (_short, long) in engine.run((0.5, 3.0), 300, RngSpec(seed=4), pairs=((1, 2),)):
        assert not long.alive.all() and long.count[(1, 2)].any()


def test_numpy_philox_rows_advance_independently():
    spec = RngSpec(seed=5, offset=1000)
    draws = _PhiloxUniforms(spec, 10, 3)
    seen = {0: [], 1: [], 2: []}
    for rows in ([0, 1, 2], [2], [2], [0, 2], [2], [2], [1, 2], [2]):
        for r, u in zip(rows, draws.draw(np.array(rows))):
            seen[r].append(u)
    for r, got in seen.items():
        assert got == spec.stream(10 + r).random(len(got)).tolist()


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1])
@pytest.mark.parametrize("offset", [0, 9, 2**64 - 1])
def test_stream_uniforms_continue_stream_zero(seed, offset):
    # successive spans of 1 to 10,001 draws, starting at draws 0, 1, 3, 6, 10, ... (every
    # word of a block) and ending at every word too; the key word offset + 0 wraps for the last offset
    spec = RngSpec(seed=seed, offset=offset)
    want = spec.stream(0)
    start = 0
    for count in (1, 2, 3, 4, 5, 600, 9, 10_001, 8, 1344):
        got = streams.stream_uniforms(spec, start, count)
        assert got.shape == (count,) and got.tobytes() == want.random(count).tobytes(), (start, count)
        start += count


# -- chain sampler statistics ------------------------------------------------


def test_holding_time_mean(chain3):
    spec = RngSpec(seed=201)
    waits = []
    for i in range(4000):
        p = sample_finite_path(chain3, 1, 50.0, spec.stream(i))
        waits.append(p.events[0][0])
    waits = np.array(waits)
    err = waits.std(ddof=1) / math.sqrt(len(waits))
    assert abs(waits.mean() - 1.0 / 3.0) < 4.0 * err


def test_transition_proportions(chain3):
    spec = RngSpec(seed=202)
    hits = 0
    n = 4000
    for i in range(n):
        p = sample_finite_path(chain3, 1, 50.0, spec.stream(i))
        hits += p.events[0][1] == 2
    # p = rate(1->2) / total = 2/3
    err = math.sqrt((2.0 / 3.0) * (1.0 / 3.0) / n)
    assert abs(hits / n - 2.0 / 3.0) < 4.0 * err


def test_overwhelming_killing_rate():
    model = FiniteSymmetricModel(
        m=np.ones(2), q=np.array([[0.0, 0.1], [0.1, 0.0]]), k=np.array([1e3, 1e3])
    )
    spec = RngSpec(seed=203)
    dead = sum(
        sample_finite_path(model, 0, 1.0, spec.stream(i)).killed_at is not None
        for i in range(500)
    )
    assert dead / 500 > 0.99


def test_sampler_rejects_bad_start(chain3):
    with pytest.raises(DomainError):
        sample_finite_path(chain3, 5, 1.0, RngSpec(seed=0).stream(0))
    with pytest.raises(DomainError):
        sample_finite_path(chain3, 1.5, 1.0, RngSpec(seed=0).stream(0))
    # with a NaN or infinite horizon the event loop would never end
    for horizon in (float("nan"), float("inf"), 0.0, -1.0, True):
        with pytest.raises(DomainError):
            sample_finite_path(chain3, 0, horizon, RngSpec(seed=0).stream(0))


def test_absorbing_state_path():
    # a state with no exits and no killing just sits there
    model = FiniteSymmetricModel(m=np.ones(2), q=np.zeros((2, 2)))
    p = sample_finite_path(model, 0, 3.0, RngSpec(seed=1).stream(0))
    assert p.events == () and p.killed_at is None


# -- estimators vs. matrix-exponential oracles -------------------------------


def test_estimates_are_bit_identical_across_runs(chain3, rho121):
    spec = RngSpec(seed=204)
    a = estimate_transformed_semigroup(chain3, RhoTransform(rho=rho121), F010, 0, 0.5, 2000, spec)
    b = estimate_transformed_semigroup(chain3, RhoTransform(rho=rho121), F010, 0, 0.5, 2000, spec)
    assert a.mean == b.mean and a.stderr == b.stderr


def test_semigroup_estimate_rho(chain3, rho121):
    q_hat = transformed_generator(chain3, rho121)
    oracle = float((expm(0.5 * q_hat) @ F010)[0])
    est = estimate_transformed_semigroup(
        chain3, RhoTransform(rho=rho121), F010, 0, 0.5, 20000, RngSpec(seed=205)
    )
    assert zscore(est, oracle) < 4.0


def test_semigroup_estimate_phi(chain3_killed, phi3):
    gen = pure_jump_generator(chain3_killed, phi3)
    oracle = float((expm(0.5 * gen) @ F010)[1])
    est = estimate_transformed_semigroup(
        chain3_killed, PureJumpPhi(phi=phi3), F010, 1, 0.5, 20000, RngSpec(seed=206)
    )
    assert zscore(est, oracle) < 4.0


def test_trivial_tilt_recovers_plain_semigroup(chain3):
    oracle = float((expm(0.8 * chain3.generator()) @ F010)[0])
    est = estimate_transformed_semigroup(
        chain3, RhoTransform(rho=np.ones(3)), F010, 0, 0.8, 20000, RngSpec(seed=207)
    )
    assert zscore(est, oracle) < 4.0


def test_mass_is_conserved_for_rho_tilt(chain3_killed, rho121):
    # the tilt absorbs killing: weighted mass is exactly one in expectation
    est = estimate_mass(chain3_killed, RhoTransform(rho=rho121), 1, 1.0, 20000, RngSpec(seed=208))
    assert zscore(est, 1.0) < 4.0


def test_mass_under_jump_tilt_sees_killing(chain3_killed, phi3):
    gen = pure_jump_generator(chain3_killed, phi3)
    oracle = float((expm(1.0 * gen) @ np.ones(3))[1])
    assert oracle < 1.0  # killing survives a pure jump tilt
    est = estimate_mass(chain3_killed, PureJumpPhi(phi=phi3), 1, 1.0, 20000, RngSpec(seed=209))
    assert zscore(est, oracle) < 4.0


def test_symmetry_gap_identical_arguments_short_circuit(chain3, rho121):
    est = estimate_symmetry_gap(chain3, RhoTransform(rho=rho121), F010, F010, 0.5, 100, RngSpec(seed=0))
    assert est.mean == 0.0 and est.stderr == 0.0 and est.n == 100


def test_symmetry_gap_vanishes(chain3, rho121, phi3):
    g = np.array([1.0, 0.0, 2.0])
    for transform, seed in ((RhoTransform(rho=rho121), 210), (PureJumpPhi(phi=phi3), 211)):
        est = estimate_symmetry_gap(chain3, transform, F010, g, 0.5, 20000, RngSpec(seed=seed))
        assert zscore(est, 0.0) < 4.0


def test_quadratic_form_constant_function_is_exact_zero(chain3, rho121):
    est = estimate_quadratic_form(
        chain3, RhoTransform(rho=rho121), np.full(3, 2.5), 0.2, 500, RngSpec(seed=212)
    )
    assert est.mean == 0.0 and est.stderr == 0.0


def test_quadratic_form_matches_finite_time_oracle(chain3, rho121):
    t = 0.2
    q_hat = transformed_generator(chain3, rho121)
    mu = rho121 ** 2 * chain3.m
    resolvent = np.eye(3) - expm(t * q_hat)
    oracle = float(np.sum(mu * (resolvent @ F010) * F010)) / t
    est = estimate_quadratic_form(
        chain3, RhoTransform(rho=rho121), F010, t, 30000, RngSpec(seed=213)
    )
    assert zscore(est, oracle) < 4.0


def test_quadratic_form_trend_blocks(chain3, rho121):
    ts = (0.4, 0.2)
    out = quadratic_form_trend(chain3, RhoTransform(rho=rho121), F010, ts, 2000, RngSpec(seed=214))
    assert [t for t, _ in out] == list(ts)
    again = quadratic_form_trend(chain3, RhoTransform(rho=rho121), F010, ts, 2000, RngSpec(seed=214))
    assert [r.mean for _, r in out] == [r.mean for _, r in again]
    # the two times use disjoint stream blocks: distinct draws, not recycled
    assert out[0][1].mean != out[1][1].mean


@pytest.mark.parametrize("name, value", [
    ("region", "nonsense"), ("region", (-8.0, 8.0)), ("dt", -5), ("dt", 1e-2), ("eps", "x"), ("eps", 0.02),
    ("rho_grad", lambda x: x), ("compensator", lambda x: x),
])
def test_quadratic_form_refuses_continuum_arguments_on_a_chain(chain3, rho121, monkeypatch, name, value):
    # they would be silently ignored; the error comes before any sampling
    def fail(*args):
        raise AssertionError("sampled before refusing the argument")

    monkeypatch.setattr(montecarlo, "estimate_chain", fail)
    transform, rng = RhoTransform(rho=rho121), RngSpec(seed=1)
    with pytest.raises(DomainError, match=name):
        estimate_quadratic_form(chain3, transform, F010, 0.1, 100, rng, **{name: value})
    with pytest.raises(DomainError, match=name):
        quadratic_form_trend(chain3, transform, F010, (0.1, 0.2), 100, rng, **{name: value})


def test_quadratic_form_takes_the_continuum_defaults_on_a_chain(chain3, rho121):
    args = (chain3, RhoTransform(rho=rho121), F010, 0.1, 200, RngSpec(seed=1))
    given = dict(region=None, dt=1e-3, eps=np.float64(0.01), rho_grad=None, compensator=None)
    assert estimate_quadratic_form(*args, **given) == estimate_quadratic_form(*args)


def test_jump_intensity_ratios(chain3, rho121, phi3):
    est = estimate_jump_intensity_ratio(
        chain3, RhoTransform(rho=rho121), (0, 1), 2.0, 4000, RngSpec(seed=215)
    )
    assert zscore(est, 2.0) < 4.0
    identity = PureJumpPhi(phi=np.zeros((3, 3)))
    est2 = estimate_jump_intensity_ratio(chain3, identity, (1, 2), 2.0, 4000, RngSpec(seed=216))
    assert zscore(est2, chain3.q[1, 2]) < 4.0
    est3 = estimate_jump_intensity_ratio(
        chain3, PureJumpPhi(phi=phi3), (1, 2), 2.0, 4000, RngSpec(seed=217)
    )
    assert zscore(est3, 1.0) < 4.0


def test_jump_intensity_uncharged_pair(chain3, rho121):
    est = estimate_jump_intensity_ratio(
        chain3, RhoTransform(rho=rho121), (0, 2), 2.0, 1000, RngSpec(seed=218)
    )
    assert est.mean == 0.0 and est.stderr == 0.0
    with pytest.raises(DomainError):
        estimate_jump_intensity_ratio(chain3, RhoTransform(rho=rho121), (1, 1), 2.0, 100, RngSpec(seed=0))


def test_jump_intensity_of_all_zero_weights_is_undefined():
    # every jump out of state 0 is tilted by -1: at exit rate 10 over [0, 4]
    # every path from 0 jumps, so every weight, and both means, are 0
    model = FiniteSymmetricModel(m=np.ones(3), q=np.array([[0.0, 5.0, 5.0], [5.0, 0.0, 1.0], [5.0, 1.0, 0.0]]))
    phi = np.zeros((3, 3))
    phi[0, 1:] = -1.0
    with pytest.raises(DomainError, match="0.0 / 0.0 of weighted means is undefined"):
        estimate_jump_intensity_ratio(model, GeneralMF(phi=phi), (0, 1), 4.0, 2000, RngSpec(seed=0))


def test_weighted_base_equals_direct_transformed_simulation(chain3, rho121):
    # the same quantity two ways: weight base paths, or simulate the
    # transformed chain outright and use no weight
    f = np.array([0.5, -1.0, 2.0])
    weighted = estimate_transformed_semigroup(
        chain3, RhoTransform(rho=rho121), f, 2, 0.7, 30000, RngSpec(seed=219)
    )
    hat = transformed_model(chain3, RhoTransform(rho=rho121))
    direct = estimate_transformed_semigroup(
        hat, PureJumpPhi(phi=np.zeros((3, 3))), f, 2, 0.7, 30000, RngSpec(seed=220)
    )
    gap = abs(weighted.mean - direct.mean)
    assert gap < 4.0 * math.hypot(weighted.stderr, direct.stderr)


# -- jump-diffusion sampler --------------------------------------------------

STABLE1 = JumpDiffusionModel(d=1, alpha=1.0, c=0.01)
STABLE_C = JumpDiffusionModel(d=1, alpha=1.0, c=1.0)


def test_jump_diffusion_validation():
    rng = RngSpec(seed=2).stream(0)
    with pytest.raises(DomainError):
        sample_jump_diffusion_path(STABLE1, 0.0, 1.0, 0.3, 0.1, rng)
    with pytest.raises(DomainError):
        sample_jump_diffusion_path(STABLE1, 0.0, 1.0, -0.1, 0.1, rng)
    with pytest.raises(DomainError):
        sample_jump_diffusion_path(STABLE1, 0.0, 1.0, 0.1, 0.0, rng)


def test_jump_diffusion_warns_when_truncation_removes_jumps():
    with pytest.warns(UserWarning, match="intensity"):
        sample_jump_diffusion_path(STABLE1, 0.0, 1.0, 0.1, 1e7, RngSpec(seed=3).stream(0))


def test_jump_diffusion_gaussian_variance():
    # conditioned on no explicit jump, the endpoint is exactly Gaussian with
    # variance (1 + small-jump correction) * t
    spec = RngSpec(seed=221)
    var_rate = 1.0 + stable_small_jump_variance(STABLE1, 0.1)
    ends = []
    for i in range(2000):
        p = sample_jump_diffusion_path(STABLE1, 0.0, 1.0, 0.01, 0.1, spec.stream(i))
        if not p.events:
            ends.append(p.grid[-1])
    ends = np.array(ends)
    assert len(ends) > 1000
    sample_var = ends.var(ddof=1)
    err = var_rate * math.sqrt(2.0 / (len(ends) - 1))
    assert abs(sample_var - var_rate) < 4.0 * err
    assert abs(ends.mean()) < 4.0 * math.sqrt(var_rate / len(ends))


def test_jump_diffusion_jump_statistics():
    model = JumpDiffusionModel(d=1, alpha=1.0, c=1.0)
    spec = RngSpec(seed=222)
    lam = stable_tail_intensity(model, 0.1)
    n = 400
    total = 0
    positive = 0
    smallest = np.inf
    for i in range(n):
        p = sample_jump_diffusion_path(model, 0.0, 1.0, 0.01, 0.1, spec.stream(i))
        for (s, post), pre in zip(p.events, p.jump_pre):
            total += 1
            positive += post > pre
            smallest = min(smallest, abs(post - pre))
    mean_jumps = lam * n
    assert abs(total - mean_jumps) < 4.0 * math.sqrt(mean_jumps)
    assert smallest >= 0.1  # truncation radius is a hard floor
    assert abs(positive - 0.5 * total) < 4.0 * math.sqrt(0.25 * total)


def test_jump_diffusion_two_dimensional():
    # the jump diffusion lives on the line: a plane model is refused by name
    # before a path could be sampled
    with pytest.raises(ModelError, match="one-dimensional: d must be 1, got d = 2"):
        sample_jump_diffusion_path(JumpDiffusionModel(d=2, alpha=1.2, c=1.0), np.zeros(2), 1.0, 0.01, 0.3,
                                   RngSpec(seed=223).stream(0))


class _OneEarlyJump:
    """Draws of one explicit jump at time 1e-20, radius drawn at 3/4, no
    Gaussian moves."""

    def poisson(self, lam):
        return 1

    def uniform(self, low, high, size):
        return np.full(size, 1e-20)

    def random(self, size=None):
        return 0.75 if size is None else np.full(size, 0.75)

    def normal(self, loc, scale, size):
        return np.zeros(size)


def test_jump_at_time_near_zero_lands_in_the_first_step():
    # ceil(s/dt - 1e-9) - 1 is -1 for s < 1e-9 dt; such a jump was left
    # out of the grid, and with it every later jump of the path
    p = sample_jump_diffusion_path(STABLE1, 0.0, 0.1, 0.01, 0.1, _OneEarlyJump())
    size = 0.1 * 0.75 ** -1.0
    assert len(p.events) == 1 and p.jump_pre == (0.0,)
    np.testing.assert_array_equal(p.grid[1:], size)
    np.testing.assert_array_equal(_brownian_increments(p, 10), 0.0)
    # the shared rule gives the step of each of the four expressions it
    # replaced: the sampler's, the continuum engine's, the increments' and
    # the grid weight's (which gives the step plus one)
    dt, K = 0.01, 10
    grid_times = np.arange(1, K + 1) * dt
    times = np.concatenate([grid_times, np.nextafter(grid_times, 0.0), np.nextafter(grid_times, 1.0),
                            [1e-10 * dt, K * dt]])
    shared = jump_steps(times, dt, K)
    np.testing.assert_array_equal(shared, np.clip(np.ceil(times / dt - 1e-9).astype(int) - 1, 0, K - 1))
    np.testing.assert_array_equal(shared, np.clip(np.ceil(times / dt - 1e-9).astype(np.intp) - 1, 0, K - 1))
    assert shared.tolist() == [max(int(np.ceil(s / dt - 1e-9)) - 1, 0) for s in times]
    assert (shared + 1).tolist() == [max(int(np.ceil(s / dt - 1e-9)), 1) for s in times]
    assert shared[-2:].tolist() == [0, K - 1]


def _per_step_loop_path(model, x0, horizon, dt, eps, rng):
    """Reference grid path by a loop over steps, on the sampler's draws:
    within a step the jumps land one by one in time order, then the Gaussian
    move follows, so pre/post states carry no partial Gaussian displacement."""
    n_steps = round(horizon / dt)
    n_jumps = int(rng.poisson(stable_tail_intensity(model, eps) * horizon))
    while True:
        jump_times = np.sort(rng.uniform(0.0, horizon, size=n_jumps))
        if n_jumps == 0 or (jump_times[0] > 0.0 and np.all(np.diff(jump_times) > 0.0)):
            break
    radii = eps * rng.random(n_jumps) ** (-1.0 / model.alpha)
    sizes = radii * np.where(rng.random(n_jumps) < 0.5, -1.0, 1.0)
    std = np.sqrt((1.0 + stable_small_jump_variance(model, eps)) * dt)
    gauss = rng.normal(0.0, std, size=n_steps)
    grid = np.empty(n_steps + 1)
    grid[0] = x0
    step_of_jump = jump_steps(jump_times, dt, n_steps)
    events, pres = [], []
    j = 0
    for step in range(n_steps):
        base = grid[step].copy()
        while j < n_jumps and step_of_jump[j] == step:
            pres.append(base)
            base = base + sizes[j]
            events.append((float(jump_times[j]), base))
            j += 1
        grid[step + 1] = base + gauss[step]
    return grid, events, pres


@pytest.mark.parametrize("model, x0, eps", [
    (STABLE_C, 0.3, 0.01),
], ids=["d=1"])
def test_grid_path_matches_the_per_step_loop(model, x0, eps):
    # on the same draws: the sampler sums a step's jumps from 0 and adds them
    # with the Gaussian move in one running sum, the loop adds them one by one,
    # so the two agree to rounding
    t, dt = 0.5, 0.01
    crowded = 0
    for seed in (0, 1, 2):
        path = sample_jump_diffusion_path(model, x0, t, dt, eps, RngSpec(seed=seed).stream(0))
        grid, events, pres = _per_step_loop_path(model, x0, t, dt, eps, RngSpec(seed=seed).stream(0))
        tol = 1e-12 * np.max(np.abs(path.grid))
        np.testing.assert_allclose(path.grid, grid, rtol=0.0, atol=tol)
        assert [s for s, _ in path.events] == [s for s, _ in events]
        np.testing.assert_allclose([x for _, x in path.events], [x for _, x in events], rtol=0.0, atol=tol)
        np.testing.assert_allclose(path.jump_pre, pres, rtol=0.0, atol=tol)
        steps_held = jump_steps([s for s, _ in events], dt, grid.shape[0] - 1)
        crowded += int(np.any(np.bincount(steps_held) > 1))
    assert crowded == 3  # every seed has a step with several jumps


# a path's jumps by grid step, in time order: runs of 1, 2, 3 and 4 jumps in one step
GRID_CELLS = [[0, 2, 2, 5], [], [1, 1, 1, 3, 4, 4, 4, 4], [5, 5, 5], [0, 3]]


def test_grid_of_many_paths_equals_one_path_calls():
    rng = np.random.default_rng(11)
    m, K = len(GRID_CELLS), 6
    x0, moves = rng.normal(size=m), rng.normal(size=(m, K))
    sizes = rng.normal(size=sum(map(len, GRID_CELLS)))
    cell = np.concatenate([p * K + np.array(s, dtype=np.intp) for p, s in enumerate(GRID_CELLS)])
    grid, pre = montecarlo._grid(x0, moves, cell, sizes)
    assert grid.shape == (m, K + 1) and pre.shape == sizes.shape
    # the rule: a step's first jump starts from its grid state, a later one
    # where the jump before it ended
    for j, c in enumerate(cell.tolist()):
        want = pre[j - 1] + sizes[j - 1] if j and cell[j - 1] == c else grid[c // K, c % K]
        assert pre[j].tobytes() == want.tobytes()
    first = 0
    for p, s in enumerate(GRID_CELLS):
        one = slice(first, first + len(s))
        one_grid, one_pre = montecarlo._grid(x0[p], moves[p:p + 1], np.array(s, dtype=np.intp), sizes[one])
        assert one_grid.shape == (1, K + 1)
        assert one_grid[0].tobytes() == grid[p].tobytes()
        assert one_pre.tobytes() == pre[one].tobytes()
        first += len(s)
    # the sum: each step adds its jumps, summed in time order from 0, and then its move
    jumps = np.zeros(m * K)
    for c, size in zip(cell, sizes):
        jumps[c] = jumps[c] + size
    steps_sum = jumps.reshape(m, K) + moves
    want = np.concatenate([x0[:, None], steps_sum], axis=1).cumsum(axis=1)
    assert want.tobytes() == grid.tobytes()


# -- continuum engine vs. the scalar reference -------------------------------

RHO_C = lambda x: 1.0 + 0.5 * np.exp(-np.asarray(x) ** 2)  # noqa: E731
RHO_C_GRAD = lambda x: -np.asarray(x) * np.exp(-np.asarray(x) ** 2)  # noqa: E731
F_C = lambda x: np.exp(-np.asarray(x) ** 2)  # noqa: E731
CONT = dict(region=(-8.0, 8.0), dt=1e-3, eps=0.01)
TOP_WORD = (1 << 64) - 1


def _open_uniforms(words):
    u = ((np.asarray(words, dtype=np.uint64) >> np.uint64(11)).astype(float) + 0.5) * 2.0 ** -53
    return np.minimum(u, 1.0 - 2.0 ** -53)


class _Replay:
    """Generator stand-in for the scalar sampler that hands out the engine's
    draws: the path's numpy Philox words, mapped to open uniforms, with the
    Poisson count by inversion and normals by ``ndtri``."""

    def __init__(self, words):
        self.u = _open_uniforms(words)
        self.pos = 0

    def _take(self, size):
        k = 1 if size is None else int(np.prod(size))
        out = self.u[self.pos:self.pos + k]
        assert out.size == k, "replay ran out of draws"
        self.pos += k
        return float(out[0]) if size is None else out.reshape(size)

    def random(self, size=None):
        return self._take(size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return low + (high - low) * self._take(size)

    def poisson(self, lam):
        return int(streams._poisson_count(streams._poisson_cdf(lam), self._take(None)))

    def normal(self, loc=0.0, scale=1.0, size=None):
        return loc + scale * ndtri(self._take(size))


def _engine_paths(engine, n, rng):
    parts = list(zip(*((x0, x_t, log_w) for _lo, _hi, x0, x_t, log_w in engine.run(n, rng))))
    return tuple(np.concatenate(p) for p in parts)


@pytest.mark.parametrize("seed, offset", [(5, 0), (61, 1000)])
def test_continuum_engine_matches_scalar_reference(monkeypatch, seed, offset):
    # equal draws: start and end state exact (both build the grid in one
    # order), weight to 1e-12 relative (the weights sum in different
    # orders).  The one known divergence is two equal jump times in one path
    # (about 1e-15 a path), where the scalar sampler redraws the times and
    # the engine keeps them.
    t, n = 0.05, 150
    monkeypatch.setattr(montecarlo, "_CONTINUUM_CHUNK", 64)  # three chunks
    engine = montecarlo._ContinuumEngine(
        STABLE_C, lower_continuum(STABLE_C, RhoTransform(rho=RHO_C), RHO_C_GRAD), t=t, **CONT)
    rng = RngSpec(seed=seed, offset=offset)
    x0, x_t, log_w = _engine_paths(engine, n, rng)
    samples = []
    for i in range(n):
        replay = _Replay(rng.stream(i).bit_generator.random_raw(4 * 64))
        start = float(np.interp(replay.random(), engine.start_cdf, engine.xs))
        assert start == x0[i]
        path = sample_jump_diffusion_path(STABLE_C, start, t, CONT["dt"], CONT["eps"], replay)
        z = rho_transform_mf(path, RHO_C, STABLE_C, t, rho_grad=RHO_C_GRAD,
                             compensator=engine.compensator).end_value
        assert x_t[i] == path.state_at(t)
        assert math.exp(log_w[i]) == pytest.approx(z, rel=1e-12)
        diff = float(F_C(path.state_at(t))) - float(F_C(start))
        samples.append(engine.scale * z * diff * diff / (2.0 * t))
    est = estimate_quadratic_form(STABLE_C, RhoTransform(rho=RHO_C), F_C, t, n, rng,
                                  rho_grad=RHO_C_GRAD, compensator=engine.compensator, **CONT)
    assert est.mean == pytest.approx(np.mean(samples), rel=1e-12)
    # a path's draws and arithmetic do not depend on the chunk it ran in
    monkeypatch.setattr(montecarlo, "_CONTINUUM_CHUNK", 4096)
    for a, b in zip(_engine_paths(engine, n, rng), (x0, x_t, log_w)):
        np.testing.assert_allclose(a, b, rtol=1e-15, atol=0.0)


def test_continuum_weights_take_the_lowerings_a_rate():
    # both routes weigh a step by _grid_log_steps: a constant a_rate takes
    # a t off each log weight at time t, and the engine's paths stay as they were
    t, a = 0.05, 0.3
    flat, rated = (lambda x: np.zeros(np.shape(x))), (lambda x: np.full(np.shape(x), a))
    low = lower_continuum(STABLE_C, RhoTransform(rho=RHO_C), RHO_C_GRAD)
    (x0, x_t, log_w), (x0_a, x_t_a, log_w_a) = (
        _engine_paths(montecarlo._ContinuumEngine(STABLE_C, lw, t=t, compensator=flat, **CONT), 40, RngSpec(seed=3))
        for lw in (low, replace(low, a_rate=rated)))
    assert x0.tobytes() == x0_a.tobytes() and x_t.tobytes() == x_t_a.tobytes()
    np.testing.assert_allclose(log_w_a, log_w - a * t, rtol=0.0, atol=1e-12)
    path = sample_jump_diffusion_path(STABLE_C, 0.3, t, CONT["dt"], CONT["eps"], RngSpec(seed=3).stream(0))
    phi = lambda x, y: 0.4 * np.cos(x) * np.cos(y)  # noqa: E731
    plain, tilted = (general_mf(path, GeneralMF(phi=phi, a_rate=r), STABLE_C, t, compensator=flat).log_z
                     for r in (None, rated))
    np.testing.assert_allclose(tilted, plain - a * CONT["dt"] * np.arange(plain.size), rtol=0.0, atol=1e-12)


def test_open_uniforms_at_the_extreme_words():
    u = streams._open_uniform(np.array([0, TOP_WORD], dtype=np.uint64))
    assert u.tolist() == [2.0 ** -54, 1.0 - 2.0 ** -53]
    assert np.all(np.isfinite(streams._ndtri(u.copy())))
    assert np.all(np.isfinite(CONT["eps"] * u ** (-1.0 / STABLE_C.alpha)))


def _neighbours(values, k=3):
    out = []
    for v in values:
        below = above = v
        for _ in range(k):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, 1.0)
            out += [below, above]
        out.append(v)
    return out


def test_ndtri_matches_scipy_bit_for_bit():
    # the engine's own normals against SciPy's Cephes ndtri: open uniforms of
    # Philox words, the branch edges e^-2 and 1 - e^-2, the edge x = 8 of the
    # tail tables (y = e^-32, on both sides), 1/2, log-spaced tails and the
    # extreme words
    words = RngSpec(seed=2023).stream(0).bit_generator.random_raw(2_000_000)
    low, far = streams._NDTRI_LOW, math.exp(-32.0)
    edges = _neighbours([low, 1.0 - low, far, 1.0 - far, 0.5]) + [2.0 ** -54, 1.0 - 2.0 ** -53]
    tails = np.logspace(-300.0, math.log10(low), 200_000)
    probe = np.concatenate([streams._open_uniform(words), edges, tails,
                            1.0 - np.logspace(-16.0, math.log10(low), 200_000)])
    assert np.all((probe > 0.0) & (probe < 1.0))
    got, want = streams._ndtri(probe.copy()), ndtri(probe)
    assert got.tobytes() == want.tobytes(), probe[got.view(np.uint64) != want.view(np.uint64)][:5]
    # a chunk's shape, with its scratch given, as the engine calls it
    grid = probe[: 512 * 50].reshape(512, 50).copy()
    streams._ndtri(grid, np.empty((3, 512, 50)))
    assert grid.tobytes() == want[: 512 * 50].tobytes()


def test_poisson_table_and_the_top_uniform():
    cdf = streams._poisson_cdf(10.0)
    k = np.arange(cdf.size - 1)
    np.testing.assert_allclose(cdf[:-1], scipy_stats.poisson.cdf(k, 10.0), rtol=1e-13)
    assert cdf[-1] == 1.0
    # 1 - 2**-54 rounds to 1.0 in double; either way the count is the table's
    for u in (1.0 - 2.0 ** -54, 1.0 - 2.0 ** -53):
        count = streams._poisson_count(cdf, u)
        assert 0 <= count < cdf.size
    assert streams._poisson_count(cdf, 2.0 ** -54) == 0
    with pytest.raises(DomainError):
        streams._poisson_cdf(800.0)


@pytest.mark.parametrize("words", [(0, 0, 0, 0), (0, TOP_WORD, 0, 0), (TOP_WORD,) * 4])
def test_continuum_engine_stays_finite_on_extreme_words(monkeypatch, words):
    # every block gives the same four words: the smallest and largest
    # uniforms as starts, counts, times (in the first step, and at the very
    # end), radii (eps 2**54 and eps), signs and normals (about -8.3 and 8.2)
    def block(counter, key0, key1, _ws):
        return tuple(np.full(counter.shape, w, dtype=np.uint64) for w in words)

    monkeypatch.setattr(montecarlo, "_philox_block", block)
    engine = montecarlo._ContinuumEngine(
        STABLE_C, lower_continuum(STABLE_C, RhoTransform(rho=RHO_C), RHO_C_GRAD), t=0.05, **CONT)
    x0, x_t, log_w = _engine_paths(engine, 3, RngSpec(seed=0))
    assert np.all(np.isfinite(x0)) and np.all(np.isfinite(x_t)) and np.all(np.isfinite(log_w))


def _complex_key_times(top, jpath, t):
    # the reference order: a complex key sorts by its real part (the path),
    # then its imaginary part (the time), and holds both exactly
    key = np.empty(top.size, dtype=complex)
    key.real = jpath
    key.imag = t * streams._open_unit(np.array(top, dtype=float))
    return np.sort(key).imag


_TOP = (1 << 53) - 1


@pytest.mark.parametrize("case", ["many", "repeated", "extreme"])
def test_integer_key_jump_times_sort_as_the_complex_key(case):
    rng = np.random.default_rng(32)
    if case == "many":  # 40k jumps over a chunk's 512 paths, about 80 a path
        jpath = np.sort(rng.integers(0, 512, 40_000))
        top = rng.integers(0, 2**53, 40_000).astype(float)
    elif case == "repeated":  # a few words, repeated within and across paths; above 1/2 two words share a uniform
        pool = np.array([0, 1, 2, 2**52 - 1, 2**52, 2**52 + 1, 2**52 + 2, _TOP - 2, _TOP - 1, _TOP], dtype=float)
        jpath = np.sort(rng.integers(0, 64, 5_000))
        top = pool[rng.integers(0, pool.size, 5_000)]
    else:  # the largest key an int64 must hold: path 1023 above the top word
        jpath = np.array([0, 0, 1, 1, 1023, 1023, 1023])
        top = np.array([_TOP, 0, _TOP, _TOP, 0, _TOP, 2**52], dtype=float)
    for t in (0.05, 1.0, 3.7):
        got = montecarlo._jump_times(top.copy(), jpath, t)
        assert got.tobytes() == _complex_key_times(top, jpath, t).tobytes()


@pytest.mark.parametrize("words", [None, (0, 0, 0, 0), (TOP_WORD,) * 4, (TOP_WORD, TOP_WORD, 0, TOP_WORD)])
def test_continuum_engine_sorts_jumps_as_the_complex_key(monkeypatch, words):
    # engine paths with the integer-key sort against the same engine with the
    # complex-key reference patched in: a model with about 100 jumps a path
    # on the real draws, and the extreme-word stand-in (every time one word)
    if words is not None:
        monkeypatch.setattr(montecarlo, "_philox_block", lambda counter, key0, key1, _ws: tuple(
            np.full(counter.shape, w, dtype=np.uint64) for w in words))
    engine = montecarlo._ContinuumEngine(
        STABLE_C, lower_continuum(STABLE_C, RhoTransform(rho=RHO_C), RHO_C_GRAD), t=0.05,
        **{**CONT, "eps": 0.001 if words is None else CONT["eps"]})
    got = _engine_paths(engine, 600, RngSpec(seed=9))
    monkeypatch.setattr(montecarlo, "_jump_times", _complex_key_times)
    want = _engine_paths(engine, 600, RngSpec(seed=9))
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


def test_continuum_batches_and_chunks_give_the_same_paths(monkeypatch):
    # first blocks drawn in batches of 128 and chunks of 64 (128 paths and
    # fewer take the packed kernel) against one batch and one chunk (numpy's
    # kernel): the same paths, bit for bit, and one kernel call a batch and a chunk
    engine = montecarlo._ContinuumEngine(
        STABLE_C, lower_continuum(STABLE_C, RhoTransform(rho=RHO_C), RHO_C_GRAD), t=0.05, **CONT)
    rng = RngSpec(seed=23, offset=5)
    calls = []
    block = montecarlo._philox_block
    monkeypatch.setattr(montecarlo, "_philox_block", lambda *a: calls.append(a[2].size) or block(*a))
    one = _engine_paths(engine, 300, rng)
    assert calls == [300, calls[1]] and calls[1] > 300  # the batch, then the chunk's full pass
    monkeypatch.setattr(montecarlo, "_CONTINUUM_BATCH", 128)
    monkeypatch.setattr(montecarlo, "_CONTINUUM_CHUNK", 64)
    calls.clear()
    spans = [(lo, hi) for lo, hi, *_ in engine.run(300, rng)]
    assert spans == [(0, 64), (64, 128), (128, 192), (192, 256), (256, 300)]
    assert len(calls) == 3 + 5 and calls[0] == 128
    many = _engine_paths(engine, 300, rng)
    for a, b in zip(one, many):
        assert a.tobytes() == b.tobytes()


_COMPENSATOR = stable_rate_table(STABLE_C, lambda a, b: RHO_C(b) / RHO_C(a) - 1.0, CONT["eps"], -10.0, 10.0)


def _warm_energy(n=3000, f=F_C):
    return estimate_quadratic_form(STABLE_C, RhoTransform(rho=RHO_C), f, 0.05, n, RngSpec(seed=4),
                                   rho_grad=RHO_C_GRAD, compensator=_COMPENSATOR, **CONT)


def test_warm_continuum_estimate_reuses_its_scratch():
    # at the continuum-energy settings a warm 3000-path estimate traced a
    # 1.5 MB peak; one that built its workspace, uniforms and normals each
    # call traced 3.5 MB
    _warm_energy()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _warm_energy()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 2.2e6
    assert len(montecarlo._CONTINUUM_SCRATCH) == 1


def test_continuum_scratch_survives_an_f_that_raises():
    want = _warm_energy(n=1500)
    seen = []

    def failing(x):
        seen.append(x.size)
        if len(seen) == 3:  # f(x_t) of the second of three chunks
            raise RuntimeError("f failed")
        return F_C(x)

    with pytest.raises(RuntimeError, match="f failed"):
        _warm_energy(n=1500, f=failing)
    gc.collect()
    assert len(montecarlo._CONTINUUM_SCRATCH) <= 1
    got = _warm_energy(n=1500)
    assert (got.mean, got.stderr) == (want.mean, want.stderr)
    assert len(montecarlo._CONTINUUM_SCRATCH) == 1


def test_interleaved_continuum_runs_take_their_own_scratch():
    # two runs at once each take a scratch: the second finds the free list
    # empty and makes its own, and the list keeps one when both end
    engine = montecarlo._ContinuumEngine(
        STABLE_C, lower_continuum(STABLE_C, RhoTransform(rho=RHO_C), RHO_C_GRAD), t=0.05, **CONT)
    want = [_engine_paths(engine, 1200, RngSpec(seed=s)) for s in (1, 2)]
    runs = [engine.run(1200, RngSpec(seed=s)) for s in (1, 2)]
    parts = [[], []]
    for pair in zip(*runs):
        for part, (_lo, _hi, *values) in zip(parts, pair):
            part.append(values)
    for part, ref in zip(parts, want):
        for got, w in zip(zip(*part), ref):
            assert np.concatenate(got).tobytes() == w.tobytes()
    assert len(montecarlo._CONTINUUM_SCRATCH) == 1


def test_continuum_estimate_matches_the_scalar_route_in_law():
    # the acceptance (c) statistic, batched engine against a per-path loop
    # over the scalar sampler and weight on numpy's own Philox draws
    t, n = 0.05, 4000
    est = estimate_quadratic_form(STABLE_C, RhoTransform(rho=RHO_C), F_C, t, n, RngSpec(seed=71),
                                  rho_grad=RHO_C_GRAD, **CONT)
    engine = montecarlo._ContinuumEngine(
        STABLE_C, lower_continuum(STABLE_C, RhoTransform(rho=RHO_C), RHO_C_GRAD), t=t, **CONT)
    spec = RngSpec(seed=72)
    samples = []
    for i in range(n):
        stream = spec.stream(i)
        start = float(np.interp(stream.random(), engine.start_cdf, engine.xs))
        path = sample_jump_diffusion_path(STABLE_C, start, t, CONT["dt"], CONT["eps"], stream)
        z = rho_transform_mf(path, RHO_C, STABLE_C, t, rho_grad=RHO_C_GRAD,
                             compensator=engine.compensator).end_value
        diff = float(F_C(path.state_at(t))) - float(F_C(start))
        samples.append(engine.scale * z * diff * diff / (2.0 * t))
    scalar = EstimatorResult.from_samples(np.array(samples))
    assert abs(est.mean - scalar.mean) < 4.0 * math.hypot(est.stderr, scalar.stderr)


# -- result container --------------------------------------------------------


def test_estimator_result_basics():
    r = EstimatorResult(mean=1.0, stderr=0.5, n=10)
    lo, hi = r.ci95
    assert lo == pytest.approx(1.0 - 0.98)
    assert hi == pytest.approx(1.0 + 0.98)
    assert r.covers(lo) and r.covers(hi)
    assert not r.covers(hi + 1e-9)
    with pytest.raises(DomainError):
        EstimatorResult(mean=0.0, stderr=0.0, n=1)


def test_estimator_result_from_samples():
    rng = np.random.default_rng(224)
    samples = rng.normal(3.0, 2.0, size=500)
    r = EstimatorResult.from_samples(samples)
    assert r.mean == pytest.approx(float(np.mean(samples)), rel=1e-12)
    assert r.stderr == pytest.approx(float(np.std(samples, ddof=1) / math.sqrt(500)), rel=1e-12)
    assert r.n == 500


def test_estimator_result_from_samples_leaves_the_callers_array():
    samples = np.random.default_rng(225).normal(1.0, 3.0, size=1001)
    given = samples.copy()
    r = EstimatorResult.from_samples(samples)
    assert samples.tobytes() == given.tobytes()
    n = samples.size
    mean = float(np.sum(given) / n)
    centered = given - mean
    assert (r.mean, r.stderr) == (mean, float(np.sqrt(float(np.sum(centered * centered) / (n - 1)) / n)))
    # the in-place reduction of an array the estimator owns keeps the bits
    assert EstimatorResult._from_owned(samples.copy()) == r
    assert EstimatorResult.from_samples(given.tolist()) == r


# -- batched engine vs. the scalar reference ---------------------------------
#
# The reference is a per-path loop: one keyed stream, ``sample_finite_path``
# and ``log_weight_fn`` per path.  The batched engine must reproduce it bit
# for bit, so results are compared with ``==``.


def _reference_start(model, transform):
    if isinstance(transform, RhoTransform):
        mu = transform.rho * transform.rho * model.m
    else:
        mu = model.m
    total = float(np.sum(mu))
    cum = np.cumsum(mu) / total
    cum[-1] = 1.0
    return cum, total


def _reference_paths(model, transform, t, n, rng, x=None):
    """``(x0, path, log weight)`` per path, started at ``x`` or drawn."""
    log_w = log_weight_fn(model, transform)
    cum, _total = _reference_start(model, transform)
    for i in range(n):
        stream = rng.stream(i)
        x0 = x if x is not None else int(np.searchsorted(cum, stream.random(), side="right"))
        path = sample_finite_path(model, x0, t, stream)
        yield x0, path, log_w(path, t)


def reference_semigroup(model, transform, f, x, t, n, rng):
    samples = np.empty(n)
    for i, (_x0, path, lw) in enumerate(_reference_paths(model, transform, t, n, rng, x)):
        samples[i] = math.exp(lw) * f[path.state_at(t)] if path.alive_at(t) else 0.0
    return EstimatorResult.from_samples(samples)


def reference_symmetry_gap(model, transform, f, g, t, n, rng):
    _cum, total = _reference_start(model, transform)
    samples = np.empty(n)
    for i, (x0, path, lw) in enumerate(_reference_paths(model, transform, t, n, rng)):
        if not path.alive_at(t):
            samples[i] = 0.0
            continue
        xt = path.state_at(t)
        w = total * math.exp(lw)
        samples[i] = w * (g[x0] * f[xt] - f[x0] * g[xt])
    return EstimatorResult.from_samples(samples)


def reference_quadratic_form(model, transform, f, t, n, rng):
    _cum, total = _reference_start(model, transform)
    samples = np.empty(n)
    inv_2t = 1.0 / (2.0 * t)
    for i, (x0, path, lw) in enumerate(_reference_paths(model, transform, t, n, rng)):
        w = total * math.exp(lw)
        f_end = f[path.state_at(t)] if path.alive_at(t) else 0.0
        diff = f_end - f[x0]
        samples[i] = w * diff * diff * inv_2t
    return EstimatorResult.from_samples(samples)


def reference_counts(path, pair, horizon):
    """Jumps along ``pair`` and time spent in its first state."""
    x, y = pair
    count, occ = 0, 0.0
    prev_t, prev_x = 0.0, path.x0
    for s, state in path.events:
        if prev_x == x:
            occ += s - prev_t
        if prev_x == x and state == y:
            count += 1
        prev_t, prev_x = s, state
    end = path.killed_at if path.killed_at is not None else horizon
    if prev_x == x:
        occ += end - prev_t
    return count, occ


def reference_jump_ratio(model, transform, pair, horizon, n, rng):
    num, den = np.empty(n), np.empty(n)
    paths = _reference_paths(model, transform, horizon, n, rng, pair[0])
    for i, (_x0, path, lw) in enumerate(paths):
        w = math.exp(lw)
        count, occ = reference_counts(path, pair, horizon)
        num[i], den[i] = w * count, w * occ
    num_mean, den_mean = float(np.sum(num) / n), float(np.sum(den) / n)
    ratio = num_mean / den_mean
    dn, dd = num - num_mean, den - den_mean
    var_num = float(np.sum(dn * dn) / (n - 1))
    var_den = float(np.sum(dd * dd) / (n - 1))
    cov = float(np.sum(dn * dd) / (n - 1))
    var_ratio = var_num - 2.0 * ratio * cov + ratio * ratio * var_den
    stderr = float(np.sqrt(max(var_ratio, 0.0) / n)) / den_mean
    return EstimatorResult(mean=ratio, stderr=stderr, n=n)


def same(a, b):
    return (a.mean, a.stderr, a.n) == (b.mean, b.stderr, b.n)


def parity_cases():
    """(model, transform) pairs: every transform family, with and without killing."""
    q = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 2.0], [0.0, 2.0, 0.0]])
    chain = FiniteSymmetricModel(m=np.ones(3), q=q)
    killed = FiniteSymmetricModel(m=np.ones(3), q=q, k=np.array([0.0, 1.0, 0.0]))
    phi = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, -0.5], [0.0, -0.5, 0.0]])
    rng = np.random.default_rng(41)
    big = make_reversible(rng, 7, with_killing=True)
    big_phi = make_symmetric_phi(rng, 7)
    general = GeneralMF(phi=phi, a_rate=np.array([0.5, 0.0, 0.0]), phi_delta=np.array([0.0, -0.5, 0.0]))
    # a tilt of exactly -1 zeroes the weight of paths that take (2, 1)
    zeroing = GeneralMF(phi=np.array([[0.0, 0.5, 0.0], [0.2, 0.0, 0.0], [0.0, -1.0, 0.0]]),
                        phi_delta=np.array([1.0, 0.0, 0.0]))
    out = []
    for name, model in (("chain", chain), ("killed", killed)):
        out.append((f"{name}-rho", model, RhoTransform(rho=np.array([1.0, 2.0, 1.0]))))
        out.append((f"{name}-phi", model, PureJumpPhi(phi=phi)))
        out.append((f"{name}-general", model, general))
    out.append(("killed-zeroing", killed, zeroing))
    out.append(("random7-rho", big, RhoTransform(rho=rng.uniform(0.5, 2.0, size=7))))
    out.append(("random7-phi", big, PureJumpPhi(phi=big_phi)))
    # a star: the hub reaches every leaf, each leaf only the hub, and every
    # third leaf kills, so the hub's row is far longer than any other
    star_q = np.zeros((9, 9))
    star_q[0, 1:] = rng.uniform(0.5, 2.0, size=8)
    star_q[1:, 0] = star_q[0, 1:]
    star = FiniteSymmetricModel(m=np.ones(9), q=star_q, k=np.where(np.arange(9) % 3 == 2, 0.7, 0.0))
    out.append(("star-phi", star, PureJumpPhi(phi=np.where(star_q > 0.0, 0.4, 0.0))))
    return out


PARITY = parity_cases()


@pytest.mark.parametrize("name,model,transform", PARITY, ids=[c[0] for c in PARITY])
@pytest.mark.parametrize("seed", [0, 7, 2**64 - 2])
def test_batched_estimators_equal_scalar_reference(name, model, transform, seed):
    rng = RngSpec(seed=seed)
    n = 400
    f = np.linspace(-1.0, 2.0, model.n)
    g = np.cos(np.arange(model.n))
    assert same(estimate_transformed_semigroup(model, transform, f, 1, 0.7, n, rng),
                reference_semigroup(model, transform, f, 1, 0.7, n, rng))
    assert same(estimate_mass(model, transform, 0, 1.3, n, rng),
                reference_semigroup(model, transform, np.ones(model.n), 0, 1.3, n, rng))
    assert same(estimate_symmetry_gap(model, transform, f, g, 0.5, n, rng),
                reference_symmetry_gap(model, transform, f, g, 0.5, n, rng))
    trend = quadratic_form_trend(model, transform, f, (0.3, 0.05), n, rng)
    for idx, (t, res) in enumerate(trend):
        block = RngSpec(seed=seed, offset=idx * n)
        assert same(res, reference_quadratic_form(model, transform, f, t, n, block))
    assert same(estimate_jump_intensity_ratio(model, transform, (1, 2), 2.0, n, rng),
                reference_jump_ratio(model, transform, (1, 2), 2.0, n, rng))
    # the scalar sampler keeps each state's own targets only, no padding
    count = np.count_nonzero(model.q, axis=1).tolist()
    assert [len(cum) for cum, *_rest in model._jump_rows_cache] == count
    assert [len(targets) for _cum, targets, *_rest in model._jump_rows_cache] == count


def test_batched_estimators_equal_scalar_reference_across_chunks(chain3_killed, phi3):
    # more paths than one chunk, from a stream block that does not start at 0
    n = 2 * montecarlo._CHUNK + 300
    rng = RngSpec(seed=11, offset=5)
    transform = GeneralMF(phi=phi3, a_rate=np.array([0.5, 0.0, 0.0]), phi_delta=np.array([0.0, -0.5, 0.0]))
    assert same(estimate_quadratic_form(chain3_killed, transform, F010, 0.2, n, rng),
                reference_quadratic_form(chain3_killed, transform, F010, 0.2, n, rng))
    assert same(estimate_transformed_semigroup(chain3_killed, transform, F010, 1, 0.5, n, rng),
                reference_semigroup(chain3_killed, transform, F010, 1, 0.5, n, rng))


def records_equal(a, b):
    fields = ("x0", "x_t", "alive", "log_w", "w")
    return (all(np.array_equal(getattr(a, k), getattr(b, k)) for k in fields)
            and a.count.keys() == b.count.keys() == a.occupation.keys() == b.occupation.keys()
            and all(np.array_equal(a.count[p], b.count[p]) and np.array_equal(a.occupation[p], b.occupation[p])
                    for p in a.count))


def checkpoint_cases():
    """The parity cases, plus a chain with an isolated state, where paths
    drawn to start there never move."""
    q = np.zeros((4, 4))
    q[:3, :3] = [[0.0, 1.0, 0.0], [1.0, 0.0, 2.0], [0.0, 2.0, 0.0]]
    isolated = FiniteSymmetricModel(m=np.ones(4), q=q, k=np.array([0.0, 1.0, 0.0, 0.0]))
    return PARITY + [("isolated-rho", isolated, RhoTransform(rho=np.array([1.0, 2.0, 1.0, 1.5])))]


CHECKPOINTS = checkpoint_cases()


@pytest.mark.parametrize("name,model,transform", CHECKPOINTS, ids=[c[0] for c in CHECKPOINTS])
def test_checkpoints_equal_separate_runs(name, model, transform, monkeypatch):
    # three chunks (100, 100, 50) from a stream block that does not start at 0
    monkeypatch.setattr(montecarlo, "_CHUNK", 100)
    engine = _ChainEngine(model, transform)
    rng = RngSpec(seed=17, offset=1234)
    starts = ({"x0": 1, "pairs": ((1, 2), (0, 1))}, {"x0": None}, {"x0": 0, "pairs": ((0, 1),)})
    for start in starts:
        both = list(engine.run((2.0, 3.0), 250, rng, **start))
        early = list(engine.run((2.0,), 250, rng, **start))
        late = list(engine.run((3.0,), 250, rng, **start))
        assert [(lo, hi) for lo, hi, _recs in both] == [(0, 100), (100, 200), (200, 250)]
        for (lo, hi, (at2, at3)), (lo2, hi2, (one2,)), (lo3, hi3, (one3,)) in zip(both, early, late):
            assert (lo, hi) == (lo2, hi2) == (lo3, hi3)
            assert records_equal(at2, one2)
            assert records_equal(at3, one3)
        # the two checkpoints differ, so the test would see a mix-up
        assert not all(records_equal(recs[0], recs[1]) for _lo, _hi, recs in both)


def _records_nbytes(records):
    arrays = {id(a): a for rec in records
              for a in (rec.x0, rec.x_t, rec.alive, rec.log_w, rec.w, *rec.count.values(), *rec.occupation.values())}
    return sum(a.nbytes for a in arrays.values())


@pytest.mark.parametrize("start", [{"x0": None}, {"x0": 0, "pairs": ((0, 1),)}], ids=["drawn start", "pair"])
def test_warm_chain_chunk_allocates_only_its_records(chain3_killed, phi3, start):
    # a killed chain and two horizons: paths close a checkpoint, end and die
    transform = GeneralMF(phi=phi3, a_rate=np.array([0.5, 0.0, 0.0]), phi_delta=np.array([0.0, -0.5, 0.0]))
    engine = _ChainEngine(chain3_killed, transform)
    chunk, beyond = engine._chunk, []

    def measured(*args):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        records = chunk(*args)
        beyond.append(tracemalloc.get_traced_memory()[1] - before - _records_nbytes(records))
        return records

    engine._chunk = measured
    tracemalloc.start()
    try:
        for seed in (1, 2):  # the first run grows the scratch
            list(engine.run((0.3, 1.5), montecarlo._CHUNK, RngSpec(seed=seed), **start))
    finally:
        tracemalloc.stop()
    # the slack is Python objects (views, the records' dicts); one chunk-wide
    # float array alone is 64 KB
    assert beyond[1] < 16384, beyond


@pytest.mark.parametrize("chunk", [None, 100])
def test_groups_of_one_call_equal_their_requests_alone(chain3_killed, phi3, chunk, monkeypatch):
    # one engine runs every group on the same scratch: a large group, a
    # tiny one and a middling one, fixed and drawn starts, two horizons and
    # a pair in one group; none may see another's leftovers
    if chunk is not None:
        monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
    big = 2 * montecarlo._CHUNK + 300
    transform = GeneralMF(phi=phi3, a_rate=np.array([0.5, 0.0, 0.0]), phi_delta=np.array([0.0, -0.5, 0.0]))
    f, g = np.array([1.0, -0.5, 2.0]), np.array([0.0, 1.0, 0.5])
    rng = RngSpec(seed=31, offset=7)
    requests = [
        montecarlo.semigroup_request(chain3_killed, transform, f, 1, 0.5, big, rng),
        *montecarlo.quadratic_form_requests(chain3_killed, transform, f, (0.3, 0.05), 3, rng),
        montecarlo.jump_rate_request(chain3_killed, transform, (0, 1), 2.0, 100, rng),
        montecarlo.semigroup_request(chain3_killed, transform, f, 0, 0.7, 100, rng),
        montecarlo.symmetry_gap_request(chain3_killed, transform, f, g, 0.4, big, rng),
        montecarlo.semigroup_request(chain3_killed, transform, g, 2, 1.1, 3, rng),
    ]
    together = montecarlo.estimate_chain(chain3_killed, transform, requests)
    for req, res in zip(requests, together):
        assert same(res, montecarlo.estimate_chain(chain3_killed, transform, [req])[0])


def test_estimate_chain_rejects_requests_built_for_another_transform(chain3):
    rng = RngSpec(seed=3)
    rho = RhoTransform(rho=np.array([1.0, 2.0, 1.0]))
    flat = RhoTransform(rho=np.ones(3))
    req = montecarlo.quadratic_form_requests(chain3, rho, F010, (0.2,), 50, rng)[0]
    with pytest.raises(DomainError, match="another model or transform"):
        montecarlo.estimate_chain(chain3, flat, [req])


def test_equal_pair_gap_is_exact_zero_without_sampling(chain3, monkeypatch):
    monkeypatch.setattr(_ChainEngine, "_chunk", lambda *a, **k: pytest.fail("sampled"))
    rho = RhoTransform(rho=np.array([1.0, 2.0, 1.0]))
    req = montecarlo.symmetry_gap_request(chain3, rho, F010, F010, 0.5, 40, RngSpec(seed=1))
    assert req.reduce is None
    assert montecarlo.estimate_chain(chain3, rho, [req]) == [EstimatorResult(0.0, 0.0, 40)]
    assert estimate_symmetry_gap(chain3, rho, F010, F010, 0.5, 40, RngSpec(seed=1)) == EstimatorResult(0.0, 0.0, 40)


class ScriptedDraws:
    """Uniform source with a fixed sequence per path."""

    def __init__(self, scripts):
        self.scripts = [iter(s) for s in scripts]

    def draw(self, rows):
        return np.array([next(self.scripts[r]) for r in rows])


class ScriptedStream:
    def __init__(self, script):
        self.script = iter(script)

    def random(self):
        return next(self.script)


def test_zero_uniform_is_redrawn_like_the_scalar_sampler(chain3_killed, phi3):
    rng = np.random.default_rng(3)
    scripts = []
    for i in range(40):
        script = rng.uniform(0.0, 1.0, size=200)
        script[rng.random(200) < 0.2] = 0.0
        script[0] = 0.0  # a holding-time draw: must be redrawn
        script[1] = 0.0 if i % 2 else script[1]  # twice in a row on odd paths
        scripts.append(script)
    transform = PureJumpPhi(phi=phi3)
    engine = _ChainEngine(chain3_killed, transform)
    horizon = 3.0
    [(lo, hi, (rec,))] = engine.run((horizon,), len(scripts), RngSpec(seed=0), x0=1, pairs=((1, 2),),
                                    uniforms=lambda _rng, first, count: ScriptedDraws(scripts[first:first + count]))
    assert (lo, hi) == (0, len(scripts))
    log_w = log_weight_fn(chain3_killed, transform)
    for i, script in enumerate(scripts):
        path = sample_finite_path(chain3_killed, 1, horizon, ScriptedStream(script))
        assert rec.alive[i] == path.alive_at(horizon)
        if path.alive_at(horizon):
            assert rec.x_t[i] == path.state_at(horizon)
        assert rec.log_w[i] == log_w(path, horizon)
        assert (rec.count[(1, 2)][i], rec.occupation[(1, 2)][i]) == reference_counts(path, (1, 2), horizon)


def scripts_near(total, time, rng):
    """Scripts whose first uniform puts the first holding time (at exit
    rate ``total``) on ``time`` and on each side of it: ``u = 1 - exp(-total
    time)`` and its neighbours up to 4 ulps away; random draws follow."""
    centre = 1.0 - math.exp(-total * time)
    firsts = [centre]
    for toward in (0.0, 1.0):
        u = centre
        for _ in range(4):
            u = np.nextafter(u, toward)
            firsts.append(u)
    return [np.concatenate([[u], rng.uniform(0.0, 1.0, size=200)]) for u in firsts]


def assert_records_match_scalar(model, transform, x0, horizons, scripts):
    """The engine's records at each horizon on ``scripts`` equal the scalar
    sampler's paths and weights bit for bit."""
    engine = _ChainEngine(model, transform)
    log_w = log_weight_fn(model, transform)
    [(_lo, _hi, recs)] = engine.run(horizons, len(scripts), RngSpec(seed=0), x0=x0,
                                    uniforms=lambda _rng, first, count: ScriptedDraws(scripts[first:first + count]))
    for horizon, rec in zip(horizons, recs):
        for i, script in enumerate(scripts):
            path = sample_finite_path(model, x0, horizon, ScriptedStream(script))
            assert rec.alive[i] == path.alive_at(horizon)
            if path.alive_at(horizon):
                assert rec.x_t[i] == path.state_at(horizon)
            assert rec.log_w[i] == log_w(path, horizon)
            assert rec.w[i] == math.exp(rec.log_w[i])


JUMP_AND_RHO = [PureJumpPhi(phi=np.array([[0.0, 1.0, 0.0], [1.0, 0.0, -0.5], [0.0, -0.5, 0.0]])),
                RhoTransform(rho=np.array([1.0, 2.0, 1.0]))]


@pytest.mark.parametrize("transform", JUMP_AND_RHO, ids=["phi", "rho"])
def test_holding_time_at_a_horizon_matches_the_scalar_route(chain3_killed, transform):
    # the first holding time lands on, just before and just after the last
    # horizon, a checkpoint, and a time a relative 2**-40 past the last
    # horizon, which such a holding time is only compared with
    rng = np.random.default_rng(19)
    totals = chain3_killed.q.sum(axis=1) + chain3_killed.k
    sides = set()
    for x0 in range(chain3_killed.n):
        total = float(totals[x0])
        for h in (0.5, 0.7, 2.0):
            for at in (h, h * (1.0 + 2.0 ** -40)):
                scripts = scripts_near(total, at, rng)
                for horizons in ((h,), (h, h + 1.0), (0.5 * h, h)):
                    assert_records_match_scalar(chain3_killed, transform, x0, horizons, scripts)
                if at == h:
                    first = [0.0 - math.log(1.0 - script[0]) / total for script in scripts]
                    sides.update(np.sign(np.array(first) - h))
    assert sides == {-1.0, 0.0, 1.0}  # some land exactly on the horizon


@pytest.mark.parametrize("transform", JUMP_AND_RHO, ids=["phi", "rho"])
def test_holding_time_on_the_horizon_where_numpy_log_differs(chain3_killed, transform):
    # a horizon equal to the first holding time by the C library's log, on
    # uniforms where numpy's own log moves that time off it: only the C
    # library's value, which the engine's _log gives, may decide (where the
    # two logs agree on every uniform, there is no such case and the test
    # checks nothing)
    rng = np.random.default_rng(29)
    totals = chain3_killed.q.sum(axis=1) + chain3_killed.k
    u = rng.uniform(0.0, 1.0, size=20_000)
    for x0 in range(chain3_killed.n):
        total = float(totals[x0])
        exact = np.array([0.0 - math.log(1.0 - v) / total for v in u])
        numpy = 0.0 - np.log(1.0 - u) / total
        for off in (exact < numpy, exact > numpy):
            for i in np.flatnonzero(off)[:4]:
                h = float(exact[i])
                scripts = [np.concatenate([[u[i]], rng.uniform(0.0, 1.0, size=200)])]
                for horizons in ((h,), (h, h + 1.0), (0.5 * h, h)):
                    assert_records_match_scalar(chain3_killed, transform, x0, horizons, scripts)


@pytest.mark.parametrize("name,model,transform", CHECKPOINTS, ids=[c[0] for c in CHECKPOINTS])
def test_record_weight_is_the_c_library_exp_of_its_log_weight(name, model, transform):
    engine = _ChainEngine(model, transform)
    low = lower(model, transform)
    kinds = set()
    for start in ({"x0": 1}, {"x0": None}):
        horizons = (0.05, 0.4, 2.0)
        for _lo, _hi, recs in engine.run(horizons, 300, RngSpec(seed=23), **start):
            for horizon, rec in zip(horizons, recs):
                assert np.array_equal(rec.w, np.array([math.exp(v) for v in rec.log_w]))
                kinds.update(rec.log_w == 0.0 - low.rate[rec.x0] * horizon)
    assert kinds == {True, False}  # paths with no event before the horizon, and the others


README_TREND = {
    "model": {"type": "finite", "m": [1.0, 1.0, 1.0], "q": [[0.0, 1.0, 0.0], [1.0, 0.0, 2.0], [0.0, 2.0, 0.0]]},
    "transform": {"type": "rho", "rho": [1.0, 2.0, 1.0]},
    "checks": ["symmetry", "conservativeness", "form_identity",
               {"id": "semigroup", "f": [0.0, 1.0, 0.0], "t": 0.5, "paths": 20_000},
               {"id": "quadratic_form", "f": [0.0, 1.0, 0.0], "ts": [0.2, 0.1, 0.05], "paths": 20_000}],
}


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def c_library_inputs(name):
    """Inputs of ``_log`` (``1 - u``) or ``_exp`` (log weights), including
    those where numpy's own function differs from the C library's."""
    rng = np.random.default_rng(41)
    if name == "log":
        one_minus_u = 1.0 - rng.integers(1, 2**53, size=200_000) * 2.0 ** -53
        return np.concatenate([
            one_minus_u, np.arange(1.0, 5000.0) * 2.0 ** -53, 2.0 ** -np.arange(54.0), [1.0],
            np.arange(1.0, 100.0) * 5e-324, 2.0 ** -np.arange(1023.0, 1075.0),
        ])
    return np.concatenate([rng.uniform(-745.0, 709.0, size=200_000), np.linspace(-745.0, 709.0, 10_001),
                           [-745.0, -0.0, 0.0, 709.0], -(2.0 ** -np.arange(1.0, 80.0))])


@pytest.mark.parametrize("name", ["log", "exp"])
def test_c_library_ufuncs_give_the_bits_of_math(name):
    x = c_library_inputs(name)
    expected = np.array([getattr(math, name)(v) for v in x.tolist()])
    assert np.array_equal(bits(getattr(streams, f"_{name}")(x)), bits(expected))


@pytest.mark.skipif(not (sys.platform == "linux" and np.lib.NumpyVersion(np.__version__) >= "2.0.0"),
                    reason="the ufuncs are built from numpy 2's C-API over the C library of a Linux process")
def test_engine_takes_the_c_library_ufuncs_here():
    assert isinstance(montecarlo._log, np.ufunc) and isinstance(montecarlo._exp, np.ufunc)


@pytest.mark.parametrize("name", ["log", "exp"])
def test_unbuildable_ufunc_falls_back_to_mapping_math(name, monkeypatch):
    def unbuildable(_name):
        raise ImportError("no numpy._core")

    monkeypatch.setattr(streams, "_libm_ufunc", unbuildable)
    chosen = streams._c_library(name)
    assert not isinstance(chosen, np.ufunc)
    x = c_library_inputs(name)[:20_000]
    assert np.array_equal(bits(chosen(x)), bits([getattr(math, name)(v) for v in x.tolist()]))


@pytest.mark.parametrize("name,wrong", [("log", np.log1p), ("exp", np.expm1), ("log", np.exp)])
def test_probe_rejects_a_wrong_binding(name, wrong, monkeypatch):
    monkeypatch.setattr(streams, "_libm_ufunc", lambda _name: wrong)
    assert streams._c_library(name) is not wrong


@pytest.mark.parametrize("name", ["log", "exp"])
def test_probe_rejects_numpys_own_function_where_it_differs(name, monkeypatch):
    x = c_library_inputs(name)
    with np.errstate(under="ignore"):
        if np.array_equal(bits(getattr(np, name)(x)), bits([getattr(math, name)(v) for v in x.tolist()])):
            pytest.skip(f"numpy's {name} gives the C library's bits here")
    monkeypatch.setattr(streams, "_libm_ufunc", lambda _name: getattr(np, name))
    assert streams._c_library(name) is not getattr(np, name)


@pytest.mark.parametrize("name,model,transform", CHECKPOINTS, ids=[c[0] for c in CHECKPOINTS])
def test_mapping_math_gives_the_records_of_the_ufuncs(name, model, transform, monkeypatch):
    horizons = (0.05, 0.4, 2.0)
    starts = ({"x0": 1, "pairs": ((1, 2), (0, 1))}, {"x0": None})
    engine = _ChainEngine(model, transform)
    taken = [list(engine.run(horizons, 300, RngSpec(seed=31), **start)) for start in starts]
    monkeypatch.setattr(montecarlo, "_log", streams._libm(math.log))
    monkeypatch.setattr(montecarlo, "_exp", streams._libm(math.exp))
    mapped = [list(engine.run(horizons, 300, RngSpec(seed=31), **start)) for start in starts]
    for run_taken, run_mapped in zip(taken, mapped):
        for (_lo, _hi, recs), (_lo2, _hi2, recs2) in zip(run_taken, run_mapped):
            assert all(records_equal(a, b) for a, b in zip(recs, recs2))


def counted_lowerings(monkeypatch):
    calls = []

    def counted(model, transform):
        calls.append(transform)
        return lower(model, transform)

    monkeypatch.setattr(montecarlo, "lower", counted)
    return calls


@pytest.mark.parametrize("name,model,transform", CHECKPOINTS[:3], ids=[c[0] for c in CHECKPOINTS[:3]])
def test_each_chain_estimate_lowers_its_transform_once(name, model, transform, monkeypatch):
    calls = counted_lowerings(monkeypatch)
    rng = RngSpec(seed=2)
    f = np.linspace(-1.0, 2.0, model.n)
    estimate_quadratic_form(model, transform, f, 0.3, 50, rng)
    estimate_symmetry_gap(model, transform, f, np.cos(np.arange(model.n)), 0.3, 50, rng)
    estimate_mass(model, transform, 0, 0.3, 50, rng)
    assert len(calls) == 3
    requests = [*montecarlo.quadratic_form_requests(model, transform, f, (0.3, 0.1), 50, rng),
                montecarlo.symmetry_gap_request(model, transform, f, np.cos(np.arange(model.n)), 0.3, 50, rng)]
    montecarlo.estimate_chain(model, transform, requests)
    assert len(calls) == 4 and all(tr is transform for tr in calls)


def test_readme_verify_lowers_its_transform_once_in_sampling(tmp_path, monkeypatch):
    calls = counted_lowerings(monkeypatch)
    config = cli.ExperimentConfig.from_json(json.dumps(README_TREND))
    assert cli.run(config, out_dir=str(tmp_path), seed=0) == 0
    assert len(calls) == 1


NAN = float("nan")


@pytest.mark.parametrize("estimate", [
    pytest.param(lambda m, tr, rng: estimate_mass(m, tr, 0, -1.0, 100, rng), id="t=-1"),
    pytest.param(lambda m, tr, rng: estimate_mass(m, tr, 0, NAN, 100, rng), id="t=nan"),
    pytest.param(lambda m, tr, rng: estimate_mass(m, tr, 0, float("inf"), 100, rng), id="t=inf"),
    pytest.param(lambda m, tr, rng: estimate_mass(m, tr, 0, "0.5", 100, rng), id="t=str"),
    pytest.param(lambda m, tr, rng: estimate_mass(m, tr, 1.7, 0.5, 100, rng), id="x=1.7"),
    pytest.param(lambda m, tr, rng: estimate_mass(m, tr, True, 0.5, 100, rng), id="x=True"),
    pytest.param(lambda m, tr, rng: estimate_mass(m, tr, 0, 0.5, 2.9, rng), id="n=2.9"),
    pytest.param(lambda m, tr, rng: estimate_mass(m, tr, 0, 0.5, True, rng), id="n=True"),
    pytest.param(lambda m, tr, rng: estimate_transformed_semigroup(m, tr, [0, NAN, 0], 0, 0.5, 100, rng),
                 id="f-nan"),
    pytest.param(lambda m, tr, rng: estimate_transformed_semigroup(m, tr, [0, "a", 0], 0, 0.5, 100, rng),
                 id="f-str"),
    pytest.param(lambda m, tr, rng: estimate_symmetry_gap(m, tr, F010, [0, None, 0], 0.5, 100, rng),
                 id="g-none"),
    pytest.param(lambda m, tr, rng: estimate_symmetry_gap(m, tr, F010, F010, -1.0, 100, rng),
                 id="gap-exact-zero-t=-1"),
    pytest.param(lambda m, tr, rng: estimate_jump_intensity_ratio(m, tr, (0.9, 1.2), 2.0, 100, rng),
                 id="pair-floats"),
    pytest.param(lambda m, tr, rng: estimate_jump_intensity_ratio(m, tr, (0, 1, 2), 2.0, 100, rng),
                 id="pair-of-three"),
    pytest.param(lambda m, tr, rng: montecarlo.quadratic_form_requests(m, tr, F010, [], 100, rng),
                 id="ts-empty"),
    pytest.param(lambda m, tr, rng: montecarlo.quadratic_form_requests(m, tr, F010, [0.0], 100, rng),
                 id="ts-zero"),
    pytest.param(lambda m, tr, rng: montecarlo.quadratic_form_requests(m, tr, F010, [0.2], "5", rng),
                 id="trend-n-str"),
])
def test_chain_estimators_reject_bad_values_before_sampling(chain3, rho121, monkeypatch, estimate):
    monkeypatch.setattr(_ChainEngine, "_chunk", lambda *a, **k: pytest.fail("sampled"))
    with pytest.raises(DomainError):
        estimate(chain3, RhoTransform(rho=rho121), RngSpec(seed=1))


@pytest.mark.parametrize("estimate", [
    pytest.param(lambda tr, rng: estimate_quadratic_form(STABLE_C, tr, F_C, 0.05, 2.5, rng, **CONT), id="n=2.5"),
    pytest.param(lambda tr, rng: estimate_quadratic_form(STABLE_C, tr, F_C, 0.05, 1, rng, **CONT), id="n=1"),
    pytest.param(lambda tr, rng: estimate_quadratic_form(STABLE_C, tr, F_C, 0.05, True, rng, **CONT),
                 id="n=True"),
    pytest.param(lambda tr, rng: estimate_quadratic_form(STABLE_C, tr, F_C, -0.05, 100, rng, **CONT),
                 id="t=-0.05"),
    pytest.param(lambda tr, rng: quadratic_form_trend(STABLE_C, tr, F_C, [], 100, rng, **CONT), id="ts-empty"),
    pytest.param(lambda tr, rng: quadratic_form_trend(STABLE_C, tr, F_C, 0.05, 100, rng, **CONT),
                 id="ts-scalar"),
    # the first four gave -5.24, an exact 0.0 +- 0.0, NaN and NaN
    *(pytest.param(lambda tr, rng, region=region: estimate_quadratic_form(
        STABLE_C, tr, F_C, 0.05, 100, rng, **{**CONT, "region": region}), id=f"region={region}")
      for region in BAD_REGIONS),
])
def test_continuum_estimator_rejects_bad_values_before_sampling(monkeypatch, estimate):
    monkeypatch.setattr(montecarlo._ContinuumEngine, "_chunk", lambda *a, **k: pytest.fail("sampled"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            estimate(RhoTransform(rho=RHO_C), RngSpec(seed=1))


@pytest.mark.parametrize("transform", [RhoTransform(rho=np.ones(3)), PureJumpPhi(phi=lambda x, y: 0.0 * y)])
def test_continuum_estimator_needs_a_callable_rho_tilt(monkeypatch, transform):
    monkeypatch.setattr(montecarlo._ContinuumEngine, "_chunk", lambda *a, **k: pytest.fail("sampled"))
    with pytest.raises(TransformError):
        estimate_quadratic_form(STABLE_C, transform, F_C, 0.05, 100, RngSpec(seed=1), **CONT)


@pytest.mark.parametrize("rho", [
    pytest.param(lambda x: np.where(np.abs(x) < 1.0, 0.0, 1.0), id="zero"),
    pytest.param(lambda x: 0.5 - 0.1 * np.asarray(x), id="negative"),  # below 0 for x > 5
    pytest.param(lambda x: np.where(np.asarray(x) > 7.5, np.nan, 1.0), id="nan"),
    pytest.param(lambda x: np.where(np.asarray(x) < -7.5, np.inf, 1.0), id="inf"),
    pytest.param(lambda x: 1.5, id="float"),
])
def test_continuum_estimator_refuses_a_rho_that_is_not_positive(monkeypatch, rho):
    # the paper's rho is strictly positive; before, 0, a negative value or
    # NaN gave mean=nan, stderr=nan, and a float for an array numpy's ValueError
    monkeypatch.setattr(montecarlo._ContinuumEngine, "_chunk", lambda *a, **k: pytest.fail("sampled"))
    monkeypatch.setattr(montecarlo, "_philox_block", lambda *a, **k: pytest.fail("drew"))
    with pytest.raises(TransformError, match="rho must give a finite value > 0"):
        estimate_quadratic_form(STABLE_C, RhoTransform(rho=rho), F_C, 0.05, 100, RngSpec(seed=1), **CONT)


def test_engine_rejects_bad_start(chain3, rho121):
    with pytest.raises(DomainError):
        estimate_transformed_semigroup(chain3, RhoTransform(rho=rho121), F010, 3, 0.5, 10, RngSpec(seed=0))


def test_mass_of_a_rho_tilt_on_a_wide_sparse_ring():
    # 500 states with two targets each: the jump table's rows stay 3 wide
    n = 500
    x = np.arange(n)
    ring = np.roll(np.eye(n), 1, axis=1) + np.roll(np.eye(n), -1, axis=1)
    model = FiniteSymmetricModel(m=np.ones(n), q=ring, k=np.where(x % 6 == 3, 1.0, 0.0))
    assert model.jump_table()[0].shape == (n, 3)
    rho = 1.0 + 0.5 * np.sin(2.0 * np.pi * x / n)
    est = estimate_mass(model, RhoTransform(rho=rho), 3, 0.5, 4000, RngSpec(seed=500))
    assert abs(est.mean - 1.0) <= 4.0 * est.stderr


def test_start_uniform_above_rounded_cdf_draws_the_last_state():
    # with ten weights of 0.1, cumsum / sum ends one ulp below 1, so the
    # largest uniform below 1 would draw the nonexistent state 10
    n = 10
    ring = np.roll(np.eye(n), 1, axis=1) + np.roll(np.eye(n), -1, axis=1)
    model = FiniteSymmetricModel(m=np.full(n, 0.1), q=ring)
    transform = RhoTransform(rho=np.ones(n))
    mu = lower(model, transform).mu
    gap = np.nextafter(1.0, 0.0)
    assert (np.cumsum(mu) / np.sum(mu))[-1] <= gap
    cdf, total = montecarlo._initial_cumulative(mu)
    assert cdf[-1] == 1.0 and total == pytest.approx(1.0)
    script = np.concatenate([[gap], np.random.default_rng(5).uniform(0.1, 1.0, size=200)])
    engine = _ChainEngine(model, transform)
    assert np.array_equal(engine.start_cdf, cdf)
    [(_lo, _hi, (rec,))] = engine.run((0.01,), 1, RngSpec(seed=0),
                                      uniforms=lambda _rng, first, count: ScriptedDraws([script]))
    assert rec.x0[0] == n - 1


# The semigroup and energy-trend requests of the README verify, run 60
# times; glibc's count of bytes in use may not grow over runs 10-59.
_HEAP_GROWTH = """
import ctypes
import numpy as np
from girsanov import FiniteSymmetricModel, RhoTransform, RngSpec, montecarlo

class Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in ("arena", "ordblks", "smblks", "hblks", "hblkhd",
                                                     "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]

mallinfo2 = ctypes.CDLL(None).mallinfo2
mallinfo2.argtypes, mallinfo2.restype = [], Mallinfo2
model = FiniteSymmetricModel(m=np.ones(3), q=np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 2.0], [0.0, 2.0, 0.0]]))
rho = RhoTransform(rho=np.array([1.0, 2.0, 1.0]))
f = np.array([0.0, 1.0, 0.0])

def readme(seed):
    rng = RngSpec(seed=seed)
    requests = [montecarlo.semigroup_request(model, rho, f, 0, 0.5, 20_000, rng)]
    requests += montecarlo.quadratic_form_requests(model, rho, f, (0.2, 0.1, 0.05), 20_000, rng)
    montecarlo.estimate_chain(model, rho, requests)

for seed in range(10):
    readme(seed)
before = mallinfo2().uordblks
for seed in range(10, 60):
    readme(seed)
print(mallinfo2().uordblks - before)
"""


def test_repeated_chain_estimates_do_not_grow_the_heap():
    # numpy keeps freed data blocks under 1024 bytes, up to 7 of each size,
    # in a cache that tracemalloc cannot see; an event loop that allocated
    # its shrinking live sets would fill it, run after run.  A fresh process,
    # so that earlier tests have not filled it already
    try:
        ctypes.CDLL(None).mallinfo2
    except (OSError, AttributeError):
        pytest.skip("needs glibc's mallinfo2")
    src = os.path.dirname(os.path.dirname(os.path.abspath(girsanov.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _HEAP_GROWTH], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 128 * 1024
