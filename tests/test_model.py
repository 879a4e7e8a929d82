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
    jump_measure,
    killing_measure,
    levy_system,
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
    with pytest.raises(DomainError, match="one-dimensional"):
        JumpDiffusionModel(d=2, alpha=1.0).interval((-8.0, 8.0))


def test_sphere_surface():
    assert JumpDiffusionModel(d=1, alpha=1.0).sphere_surface == pytest.approx(2.0)
    assert JumpDiffusionModel(d=2, alpha=1.0).sphere_surface == pytest.approx(2.0 * math.pi)
    assert JumpDiffusionModel(d=3, alpha=1.0).sphere_surface == pytest.approx(4.0 * math.pi)


def test_stable_kernel_density_values():
    model = JumpDiffusionModel(d=1, alpha=1.0, c=1.0)
    assert stable_kernel_density(0.0, 2.0, model) == pytest.approx(0.25)
    np.testing.assert_allclose(
        stable_kernel_density(np.zeros(3), np.array([1.0, 2.0, 4.0]), model),
        [1.0, 0.25, 0.0625],
    )
    model2 = JumpDiffusionModel(d=2, alpha=0.5, c=2.0)
    r = math.sqrt(2.0)
    assert stable_kernel_density(np.zeros(2), np.ones(2), model2) == pytest.approx(
        2.0 / r ** 2.5
    )
    with pytest.raises(DomainError):
        stable_kernel_density(1.0, 1.0, model)


def test_stable_tail_intensity_reference_value():
    model = JumpDiffusionModel(d=1, alpha=1.0, c=1.0)
    assert stable_tail_intensity(model, 0.1) == pytest.approx(20.0, rel=1e-12)


def test_stable_tail_intensity_matches_quadrature():
    for d, alpha, c, eps in [(1, 0.7, 2.3, 0.05), (2, 1.3, 0.8, 0.2), (3, 1.9, 1.0, 0.5)]:
        model = JumpDiffusionModel(d=d, alpha=alpha, c=c)
        direct, _ = integrate.quad(
            lambda r: model.sphere_surface * c * r ** (d - 1) * r ** (-d - alpha),
            eps, np.inf,
        )
        assert stable_tail_intensity(model, eps) == pytest.approx(direct, rel=1e-9)
    with pytest.raises(DomainError):
        stable_tail_intensity(model, 0.0)


def test_stable_small_jump_variance_matches_quadrature():
    # per-coordinate second moment of the truncated jump law
    for d, alpha, c, eps in [(1, 1.0, 1.0, 0.1), (1, 0.6, 2.0, 0.3), (2, 1.4, 1.1, 0.2)]:
        model = JumpDiffusionModel(d=d, alpha=alpha, c=c)
        direct, _ = integrate.quad(
            lambda r: (r * r / d) * model.sphere_surface * c * r ** (d - 1) * r ** (-d - alpha),
            0.0, eps,
        )
        assert stable_small_jump_variance(model, eps) == pytest.approx(direct, rel=1e-9)
