import math

import numpy as np
import pytest
from scipy import integrate

from conftest import BAD_REGIONS, make_reversible
from girsanov import (
    DomainError,
    FiniteSymmetricModel,
    JumpDiffusionModel,
    ModelError,
    RngSpec,
    jump_measure,
    killing_measure,
    levy_system,
    sample_finite_path,
    stable_kernel_density,
    stable_small_jump_variance,
    stable_tail_intensity,
    validate_symmetry,
)


def test_chain3_is_symmetric(chain3):
    report = validate_symmetry(chain3)
    assert report.ok
    assert report.max_residual == 0.0
    assert report.violations == ()


def test_symmetry_report_names_worst_pair():
    q = np.array([[0.0, 1.0], [2.0, 0.0]])
    model = FiniteSymmetricModel(m=np.ones(2), q=q)
    report = validate_symmetry(model)
    assert not report.ok
    x, y, res = report.worst
    assert {x, y} == {0, 1}
    assert res == pytest.approx(1.0)


def test_jump_measure_chain3(chain3):
    J = jump_measure(chain3)
    assert J[0, 1] == 0.5
    assert J[1, 2] == 1.0
    assert J[0, 2] == 0.0
    np.testing.assert_allclose(J, J.T)


def test_jump_measure_rejects_asymmetric():
    model = FiniteSymmetricModel(m=np.ones(2), q=np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ModelError, match=r"\(0, 1\)|\(1, 0\)"):
        jump_measure(model)


def test_jump_measure_random_models():
    rng = np.random.default_rng(10)
    for _ in range(20):
        model = make_reversible(rng, rng.integers(3, 9))
        J = jump_measure(model)
        np.testing.assert_allclose(J, 0.5 * model.m[:, None] * model.q, atol=1e-15)


def test_killing_measure(chain3, chain3_killed):
    np.testing.assert_array_equal(killing_measure(chain3), np.zeros(3))
    np.testing.assert_array_equal(killing_measure(chain3_killed), np.array([0.0, 1.0, 0.0]))
    model = FiniteSymmetricModel(
        m=np.array([2.0, 1.0]), q=np.array([[0.0, 0.5], [1.0, 0.0]]), k=np.array([3.0, 0.0])
    )
    np.testing.assert_array_equal(killing_measure(model), np.array([6.0, 0.0]))


def test_model_validation_errors():
    q = np.zeros((2, 2))
    with pytest.raises(ModelError):
        FiniteSymmetricModel(m=np.array([1.0, -1.0]), q=q)
    with pytest.raises(ModelError):
        FiniteSymmetricModel(m=np.array([1.0, np.nan]), q=q)
    with pytest.raises(ModelError):
        FiniteSymmetricModel(m=np.ones(2), q=np.array([[0.0, -1.0], [0.0, 0.0]]))
    with pytest.raises(ModelError):
        FiniteSymmetricModel(m=np.ones(2), q=np.array([[0.5, 0.0], [0.0, 0.0]]))
    with pytest.raises(ModelError):
        FiniteSymmetricModel(m=np.ones(2), q=q, k=np.array([-1.0, 0.0]))
    with pytest.raises(ModelError):
        FiniteSymmetricModel(m=np.ones(3), q=q)


def test_model_arrays_are_readonly(chain3):
    with pytest.raises(ValueError):
        chain3.q[0, 1] = 5.0
    with pytest.raises(ValueError):
        chain3.m[0] = 2.0


# -- the jump table ------------------------------------------------------------


def reference_rows(model):
    """The table as a loop over all state pairs builds it: per row the
    running sums, the targets, the jump rate and the exit rate."""
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
        rows.append((cum, targets, acc, acc + float(model.k[x])))
    return rows


def reference_sample(rows, x0, horizon, rng):
    """``(events, killed_at)`` of one path by the event loop on the reference rows."""
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
    return tuple(events), killed


def random_sparse_model(rng, n):
    """A reversible chain with uneven weights, rates over several scales,
    a random share of absent edges, some isolated states and some killing."""
    m = np.exp(rng.uniform(-3.0, 3.0, size=n))
    flux = np.triu(np.exp(rng.uniform(-8.0, 4.0, size=(n, n))), 1)
    flux[rng.uniform(size=(n, n)) < rng.uniform(0.0, 1.0)] = 0.0
    isolated = rng.uniform(size=n) < 0.15
    flux[isolated, :] = 0.0
    flux[:, isolated] = 0.0
    flux = flux + flux.T
    k = np.where(rng.uniform(size=n) < 0.4, rng.uniform(0.0, 2.0, size=n), 0.0)
    return FiniteSymmetricModel(m=m, q=flux / m[:, None], k=k)


def test_jump_table_equals_the_pair_loop_bit_for_bit():
    rng = np.random.default_rng(17)
    seen = {"no jumps": 0, "only killing": 0, "stuck": 0}
    for trial in range(240):
        model = random_sparse_model(rng, 1 + trial % 40)
        cum, target, jump, total = model.jump_table()
        rows = reference_rows(model)
        width = max(len(row[0]) for row in rows)
        assert cum.shape == target.shape == (model.n, width + 1)
        for x, (ref_cum, ref_targets, ref_jump, ref_total) in enumerate(rows):
            k = len(ref_cum)
            assert cum[x, :k].tolist() == ref_cum
            assert target[x, :k].tolist() == ref_targets
            assert np.all(cum[x, k:] == np.inf)
            assert jump[x] == ref_jump and total[x] == ref_total
            seen["no jumps"] += k == 0
            seen["only killing"] += k == 0 and ref_total > 0.0
            seen["stuck"] += ref_total == 0.0
    assert all(count > 0 for count in seen.values()), seen


def test_jump_table_is_cached_and_readonly(chain3_killed):
    table = chain3_killed.jump_table()
    assert chain3_killed.jump_table() is table
    cum, target, jump, total = table
    np.testing.assert_array_equal(cum, [[1.0, np.inf, np.inf], [1.0, 3.0, np.inf], [2.0, np.inf, np.inf]])
    np.testing.assert_array_equal(target[:, :2], [[1, 0], [0, 2], [1, 0]])
    np.testing.assert_array_equal(jump, [1.0, 3.0, 2.0])
    np.testing.assert_array_equal(total, [1.0, 4.0, 2.0])
    for arr in table:
        with pytest.raises(ValueError):
            arr[0] = 0


def test_sample_finite_path_follows_the_reference_loop(chain3_killed):
    rows = reference_rows(chain3_killed)
    spec = RngSpec(seed=71)
    kinds = set()
    for i in range(200):
        path = sample_finite_path(chain3_killed, i % 3, 3.0, spec.stream(i))
        events, killed = reference_sample(rows, i % 3, 3.0, spec.stream(i))
        assert path.events == events and path.killed_at == killed
        assert path.x0 == i % 3 and path.horizon == 3.0
        kinds.add(killed is None)
    assert kinds == {True, False}


def test_generator_structure(chain3_killed):
    gen = chain3_killed.generator()
    np.testing.assert_allclose(gen.sum(axis=1), -chain3_killed.k, atol=1e-15)
    off = gen.copy()
    np.fill_diagonal(off, 0.0)
    np.testing.assert_array_equal(off, chain3_killed.q)
    np.testing.assert_allclose(
        chain3_killed.total_rates(), chain3_killed.q.sum(axis=1) + chain3_killed.k
    )


def test_levy_system_finite(chain3):
    ls = levy_system(chain3)
    assert ls.clock == "identity"
    assert ls.kernel(0, 1) == 1.0
    assert ls.kernel(1, 2) == 2.0
    assert ls.kernel(1, 1) == 0.0


def test_levy_system_continuum():
    model = JumpDiffusionModel(d=1, alpha=1.0, c=1.0)
    ls = levy_system(model)
    assert ls.kernel(0.0, 2.0) == pytest.approx(0.25)
    assert ls.kernel(1.5, 1.5) == 0.0


def test_jump_diffusion_validation():
    with pytest.raises(ModelError):
        JumpDiffusionModel(d=0, alpha=1.0)
    for d in (2, 3, 1.5, "1", None):
        with pytest.raises(ModelError, match=f"d must be 1, got d = {d!r}"):
            JumpDiffusionModel(d=d, alpha=1.0)
    for d in (1, 1.0, np.int64(1)):
        assert type(JumpDiffusionModel(d=d, alpha=1.0).d) is int
    with pytest.raises(ModelError):
        JumpDiffusionModel(d=1, alpha=0.0)
    with pytest.raises(ModelError):
        JumpDiffusionModel(d=1, alpha=2.0)
    with pytest.raises(ModelError):
        JumpDiffusionModel(d=1, alpha=1.0, c=0.0)


@pytest.mark.parametrize("field, value", [
    ("d", True),  # was a model with d = 1
    ("alpha", True),  # was kept as the bool
    ("c", True),
    ("alpha", np.True_),
])
def test_jump_diffusion_refuses_bools(field, value):
    kwargs = {"d": 1, "alpha": 1.0, "c": 1.0, field: value}
    with pytest.raises(ModelError, match=f"{field} must be a number"):
        JumpDiffusionModel(**kwargs)


@pytest.mark.parametrize("region", BAD_REGIONS + [("-1", "1"), (False, True), np.array([[-1.0, 1.0]]), -1.0])
def test_interval_refuses_anything_but_two_finite_numbers_in_order(region):
    with pytest.raises(DomainError, match="region must be"):
        JumpDiffusionModel(d=1, alpha=1.0).interval(region)


def test_interval_is_a_float_pair_of_one_dimensional_models():
    model = JumpDiffusionModel(d=1, alpha=1.0)
    for region in ((-8, 8), [-8.0, 8.0], np.array([-8.0, 8.0]), (np.int64(-8), np.float32(8.0))):
        lo, hi = model.interval(region)
        assert (lo, hi) == (-8.0, 8.0) and type(lo) is float and type(hi) is float
    with pytest.raises(ModelError, match="one-dimensional"):
        JumpDiffusionModel(d=2, alpha=1.0)


def test_stable_kernel_density_values():
    model = JumpDiffusionModel(d=1, alpha=1.0, c=1.0)
    assert stable_kernel_density(0.0, 2.0, model) == pytest.approx(0.25)
    np.testing.assert_allclose(
        stable_kernel_density(np.zeros(3), np.array([1.0, 2.0, 4.0]), model),
        [1.0, 0.25, 0.0625],
    )
    model2 = JumpDiffusionModel(d=1, alpha=0.5, c=2.0)
    assert stable_kernel_density(1.0, -1.0, model2) == pytest.approx(2.0 / 2.0 ** 1.5)
    with pytest.raises(DomainError):
        stable_kernel_density(1.0, 1.0, model)


def test_stable_tail_intensity_reference_value():
    model = JumpDiffusionModel(d=1, alpha=1.0, c=1.0)
    assert stable_tail_intensity(model, 0.1) == pytest.approx(20.0, rel=1e-12)


def test_stable_tail_intensity_matches_quadrature():
    # the rate of jumps longer than eps, both sides of the line
    for alpha, c, eps in [(0.7, 2.3, 0.05), (1.3, 0.8, 0.2), (1.9, 1.0, 0.5)]:
        model = JumpDiffusionModel(d=1, alpha=alpha, c=c)
        direct, _ = integrate.quad(lambda r: 2.0 * c * r ** (-1.0 - alpha), eps, np.inf)
        assert stable_tail_intensity(model, eps) == pytest.approx(direct, rel=1e-9)
    with pytest.raises(DomainError):
        stable_tail_intensity(model, 0.0)


def test_stable_small_jump_variance_matches_quadrature():
    # second moment of the jumps shorter than eps
    for alpha, c, eps in [(1.0, 1.0, 0.1), (0.6, 2.0, 0.3), (1.4, 1.1, 0.2)]:
        model = JumpDiffusionModel(d=1, alpha=alpha, c=c)
        direct, _ = integrate.quad(lambda r: r * r * 2.0 * c * r ** (-1.0 - alpha), 0.0, eps)
        assert stable_small_jump_variance(model, eps) == pytest.approx(direct, rel=1e-9)


def test_sphere_surface():
    # the closed forms' 2.0 is the surface 2 pi^(d/2) / Gamma(d/2) of the unit
    # sphere at d = 1 to the bit, so each equals its general-d expression there
    surface = 2.0 * math.pi ** 0.5 / math.gamma(0.5)
    assert surface.hex() == (2.0).hex()
    for alpha in (0.3, 0.7, 1.0, 1.3, 1.99):
        for c in (0.01, 0.7, 1.0, 2.5):
            model = JumpDiffusionModel(d=1, alpha=alpha, c=c)
            for eps in (1e-3, 0.01, 0.1, 0.3, 2.0):
                tail = c * surface * eps ** (-alpha) / alpha
                var = c * surface * eps ** (2.0 - alpha) / (1 * (2.0 - alpha))
                assert stable_tail_intensity(model, eps).hex() == tail.hex()
                assert stable_small_jump_variance(model, eps).hex() == var.hex()
