import math

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import make_reversible, make_symmetric_phi
from girsanov import (
    DomainError,
    EstimatorResult,
    FiniteSymmetricModel,
    GeneralMF,
    JumpDiffusionModel,
    PureJumpPhi,
    RhoTransform,
    RngSpec,
    estimate_jump_intensity_ratio,
    estimate_mass,
    estimate_quadratic_form,
    estimate_symmetry_gap,
    estimate_transformed_semigroup,
    log_weight_fn,
    pure_jump_generator,
    quadratic_form_trend,
    sample_finite_path,
    sample_jump_diffusion_path,
    stable_small_jump_variance,
    stable_tail_intensity,
    transformed_generator,
    transformed_model,
)
from girsanov import montecarlo
from girsanov.montecarlo import _ChainEngine, _PhiloxUniforms, _StreamPool

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


def test_stream_pool_matches_fresh_streams():
    spec = RngSpec(seed=99)
    pool = _StreamPool(99)
    for index in (0, 3, 1, 3, 250):  # revisits must reset cleanly
        fresh = spec.stream(index).random(6)
        pooled = pool.stream(index).random(6)
        np.testing.assert_array_equal(fresh, pooled)
    # mixed draw kinds consume buffered state differently; still identical
    g1 = spec.stream(5)
    want = (g1.random(), g1.integers(10), g1.normal(), g1.random(3).tolist())
    g2 = pool.stream(5)
    got = (g2.random(), g2.integers(10), g2.normal(), g2.random(3).tolist())
    assert want == got


def test_offset_shifts_the_stream_block():
    spec = RngSpec(seed=31, offset=40)
    np.testing.assert_array_equal(spec.stream(2).random(5), RngSpec(seed=31).stream(42).random(5))
    with pytest.raises(DomainError):
        RngSpec(seed=0, offset=-1)


def test_numpy_philox_matches_numpy_generator():
    # keys near 2**64 - 1 wrap to 0 and 1; twelve draws cross three blocks
    seed, offset = 2**64 - 1, 2**64 - 3
    draws = _PhiloxUniforms(RngSpec(seed=seed, offset=offset), 0, 5)
    rows = np.arange(5)
    got = np.array([draws.draw(rows) for _ in range(12)]).T
    for i in range(5):
        key = np.array([seed, (offset + i) % 2**64], dtype=np.uint64)
        want = np.random.Generator(np.random.Philox(key=key)).random(12)
        np.testing.assert_array_equal(got[i], want)


def test_numpy_philox_rows_advance_independently():
    spec = RngSpec(seed=5, offset=1000)
    draws = _PhiloxUniforms(spec, 10, 3)
    seen = {0: [], 1: [], 2: []}
    for rows in ([0, 1, 2], [2], [2], [0, 2], [2], [2], [1, 2], [2]):
        for r, u in zip(rows, draws.draw(np.array(rows))):
            seen[r].append(u)
    for r, got in seen.items():
        assert got == spec.stream(10 + r).random(len(got)).tolist()


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
    model = JumpDiffusionModel(d=2, alpha=1.2, c=1.0)
    p = sample_jump_diffusion_path(model, np.zeros(2), 1.0, 0.01, 0.3, RngSpec(seed=223).stream(0))
    assert p.grid.shape == (101, 2)
    np.testing.assert_array_equal(p.grid[0], [0.0, 0.0])
    for (s, post), pre in zip(p.events, p.jump_pre):
        assert np.linalg.norm(np.asarray(post) - np.asarray(pre)) >= 0.3
    assert p.state_at(1.0).shape == (2,)


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
    return np.cumsum(mu) / total, total


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


def test_batched_estimators_equal_scalar_reference_across_chunks(chain3_killed, phi3):
    # more paths than one chunk, from a stream block that does not start at 0
    n = 2 * montecarlo._CHUNK + 300
    rng = RngSpec(seed=11, offset=5)
    transform = GeneralMF(phi=phi3, a_rate=np.array([0.5, 0.0, 0.0]), phi_delta=np.array([0.0, -0.5, 0.0]))
    assert same(estimate_quadratic_form(chain3_killed, transform, F010, 0.2, n, rng),
                reference_quadratic_form(chain3_killed, transform, F010, 0.2, n, rng))
    assert same(estimate_transformed_semigroup(chain3_killed, transform, F010, 1, 0.5, n, rng),
                reference_semigroup(chain3_killed, transform, F010, 1, 0.5, n, rng))


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
    [(lo, hi, rec)] = engine.run(horizon, len(scripts), RngSpec(seed=0), x0=1, pair=(1, 2),
                                 uniforms=lambda _rng, first, count: ScriptedDraws(scripts[first:first + count]))
    assert (lo, hi) == (0, len(scripts))
    log_w = log_weight_fn(chain3_killed, transform)
    for i, script in enumerate(scripts):
        path = sample_finite_path(chain3_killed, 1, horizon, ScriptedStream(script))
        assert rec.alive[i] == path.alive_at(horizon)
        if path.alive_at(horizon):
            assert rec.x_t[i] == path.state_at(horizon)
        assert rec.log_w[i] == log_w(path, horizon)
        assert (rec.count[i], rec.occupation[i]) == reference_counts(path, (1, 2), horizon)


def test_engine_rejects_bad_start(chain3, rho121):
    with pytest.raises(DomainError):
        estimate_transformed_semigroup(chain3, RhoTransform(rho=rho121), F010, 3, 0.5, 10, RngSpec(seed=0))
