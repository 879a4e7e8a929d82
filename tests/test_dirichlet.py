import dataclasses
import math

import numpy as np
import pytest
from numpy import fft
from scipy import integrate, special

from conftest import BAD_REGIONS, make_reversible, make_symmetric_phi
from girsanov import (
    DomainError,
    FiniteSymmetricModel,
    GeneralMF,
    JumpDiffusionModel,
    ModelError,
    PureJumpPhi,
    RhoTransform,
    TransformError,
    base_form,
    conservativeness_check,
    continuum_form_quadrature,
    domain_membership,
    pure_jump_generator,
    transformed_form_phi,
    transformed_form_rho,
    transformed_generator,
    transformed_levy_kernel,
)
from girsanov import dirichlet
from girsanov.dirichlet import _fast_len, _quad_level, _stable_spectrum, _stable_toeplitz, _zeta

F010 = np.array([0.0, 1.0, 0.0])


def dual_value(Q, mu, f):
    """Independent route: -(Qf, f) in the mu-weighted inner product."""
    return -float(np.sum(mu * (Q @ f) * f))


def test_base_form_worked_examples(chain3, chain3_killed):
    assert base_form(chain3, F010).total == pytest.approx(3.0, abs=1e-14)
    assert base_form(chain3, np.ones(3)).total == pytest.approx(0.0, abs=1e-14)
    killed = base_form(chain3_killed, F010)
    assert killed.jump_part == pytest.approx(3.0, abs=1e-14)
    assert killed.killing_part == pytest.approx(1.0, abs=1e-14)
    assert killed.total == pytest.approx(4.0, abs=1e-14)
    assert killed.continuous_part == 0.0
    with pytest.raises(DomainError):
        base_form(chain3, np.ones(4))


def test_base_form_generator_duality():
    rng = np.random.default_rng(40)
    for _ in range(30):
        model = make_reversible(rng, int(rng.integers(3, 9)), with_killing=bool(rng.integers(2)))
        Q = model.generator()
        for _ in range(10):
            f = rng.uniform(-2.0, 2.0, size=model.n)
            want = dual_value(Q, model.m, f)
            assert base_form(model, f).total == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_form_is_positive_and_parallelogram():
    rng = np.random.default_rng(41)
    for _ in range(20):
        model = make_reversible(rng, 5, with_killing=True)
        f = rng.uniform(-1.0, 1.0, size=5)
        g = rng.uniform(-1.0, 1.0, size=5)
        ef = base_form(model, f).total
        eg = base_form(model, g).total
        assert ef >= 0.0 and eg >= 0.0
        lhs = base_form(model, f + g).total + base_form(model, f - g).total
        assert lhs == pytest.approx(2.0 * ef + 2.0 * eg, rel=1e-12, abs=1e-12)


def test_transformed_generator_worked_matrix(chain3, rho121):
    got = transformed_generator(chain3, rho121)
    want = np.array([
        [-2.0, 2.0, 0.0],
        [0.5, -1.5, 1.0],
        [0.0, 4.0, -4.0],
    ])
    np.testing.assert_allclose(got, want, atol=1e-14)


def test_transformed_generator_trivial_tilt(chain3_killed):
    # rho identically one leaves the jump rates alone but absorbs killing
    got = transformed_generator(chain3_killed, np.ones(3))
    want = chain3_killed.generator() + np.diag(chain3_killed.k)
    np.testing.assert_allclose(got, want, atol=1e-14)


def test_transformed_generator_two_routes_agree():
    rng = np.random.default_rng(42)
    for _ in range(25):
        model = make_reversible(rng, int(rng.integers(3, 9)), with_killing=bool(rng.integers(2)))
        rho = rng.uniform(0.3, 3.0, size=model.n)
        q_hat = transformed_generator(model, rho)
        kernel = transformed_levy_kernel(model, RhoTransform(rho=rho))
        off = q_hat.copy()
        np.fill_diagonal(off, 0.0)
        np.testing.assert_allclose(off, kernel, rtol=1e-12, atol=1e-12)
        # rows sum to zero and the tilted weights symmetrise the generator
        np.testing.assert_allclose(q_hat.sum(axis=1), np.zeros(model.n), atol=1e-12)
        mu = rho * rho * model.m
        weighted = mu[:, None] * q_hat
        np.testing.assert_allclose(weighted, weighted.T, rtol=1e-12, atol=1e-12)


def test_transformed_form_rho_worked_example(chain3, rho121):
    val = transformed_form_rho(chain3, rho121, F010)
    assert val.total == pytest.approx(6.0, abs=1e-14)
    assert val.killing_part == 0.0


def test_transformed_form_rho_duality():
    rng = np.random.default_rng(43)
    for _ in range(20):
        model = make_reversible(rng, int(rng.integers(3, 8)), with_killing=True)
        rho = rng.uniform(0.3, 3.0, size=model.n)
        q_hat = transformed_generator(model, rho)
        mu = rho * rho * model.m
        for _ in range(10):
            f = rng.uniform(-2.0, 2.0, size=model.n)
            want = dual_value(q_hat, mu, f)
            got = transformed_form_rho(model, rho, f).total
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_transformed_form_phi_worked_example(chain3, phi3):
    val = transformed_form_phi(chain3, phi3, F010)
    assert val.total == pytest.approx(3.0, abs=1e-14)


def test_transformed_form_phi_constant_tilt(chain3):
    c0 = 0.75
    phi = np.full((3, 3), c0)
    np.fill_diagonal(phi, 0.0)
    f = np.array([0.3, -1.2, 0.8])
    got = transformed_form_phi(chain3, phi, f)
    assert got.jump_part == pytest.approx((1.0 + c0) * base_form(chain3, f).jump_part,
                                          rel=1e-13)


def test_transformed_form_phi_duality():
    rng = np.random.default_rng(44)
    for _ in range(20):
        model = make_reversible(rng, int(rng.integers(3, 8)), with_killing=True)
        phi = make_symmetric_phi(rng, model.n)
        gen = pure_jump_generator(model, phi)
        for _ in range(10):
            f = rng.uniform(-2.0, 2.0, size=model.n)
            want = dual_value(gen, model.m, f)
            got = transformed_form_phi(model, phi, f).total
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_mutual_energy_bounds():
    # a tilt pinned to [c1, c2] pins the jump energies the same way
    rng = np.random.default_rng(45)
    c1, c2 = -0.6, 1.8
    for _ in range(20):
        model = make_reversible(rng, 5)
        phi = make_symmetric_phi(rng, 5, lo=c1, hi=c2)
        f = rng.uniform(-2.0, 2.0, size=5)
        base = base_form(model, f).jump_part
        tilted = transformed_form_phi(model, phi, f).jump_part
        assert (1.0 + c1) * base - 1e-12 <= tilted <= (1.0 + c2) * base + 1e-12
    for _ in range(20):
        model = make_reversible(rng, 5)
        phi = make_symmetric_phi(rng, 5, lo=0.0, hi=2.0)
        f = rng.uniform(-2.0, 2.0, size=5)
        assert base_form(model, f).jump_part <= transformed_form_phi(model, phi, f).jump_part + 1e-12


def test_conservativeness_check(chain3_killed, rho121):
    report = conservativeness_check(chain3_killed, rho121)
    assert report.ok and bool(report)
    assert report.row_sum_residual <= 1e-12
    assert abs(report.unit_form_value) <= 1e-12
    rng = np.random.default_rng(46)
    for _ in range(10):
        model = make_reversible(rng, 6, with_killing=True)
        rho = rng.uniform(0.3, 3.0, size=6)
        assert conservativeness_check(model, rho).ok


STABLE1 = JumpDiffusionModel(d=1, alpha=1.0, c=1.0)


def test_continuum_quadrature_constant_function():
    qf = continuum_form_quadrature(lambda x: 1.0 + 0.0 * x, lambda x: np.ones_like(x),
                                   STABLE1, (-4.0, 4.0), 64)
    assert qf.total == 0.0
    assert qf.error_estimate == 0.0
    assert not qf.inconclusive


def dense_quad_level(rho, f, model, lo, hi, n):
    """Reference: the mesh-level form value as a dense n x n pair sum over
    every ``i != j``, plus the diagonal term ``-zeta(alpha - 1) c h^{3-alpha}
    sum_i r_i^2 f'(x_i)^2`` with SciPy's zeta."""
    h = (hi - lo) / n
    x = lo + (np.arange(n) + 0.5) * h
    fx = np.asarray(f(x), dtype=float)
    rx = np.asarray(rho(x), dtype=float)
    df = (np.asarray(f(x + h), dtype=float) - np.asarray(f(x - h), dtype=float)) / (2.0 * h)
    energy = float(np.sum(rx * rx * df * df))
    alpha = model.alpha
    dist = np.abs(x[:, None] - x[None, :])
    fbar = fx[:, None] - fx[None, :]
    weight = rx[:, None] * rx[None, :]
    np.fill_diagonal(dist, 1.0)
    kern = (model.c / 2.0) * dist ** (-1.0 - alpha)
    np.fill_diagonal(kern, 0.0)
    pairs = float(np.sum(fbar * fbar * weight * kern)) * h * h
    diagonal = -special.zeta(alpha - 1.0) * model.c * h ** (3.0 - alpha) * energy
    return 0.5 * energy * h, pairs + diagonal


QUAD_RHO = lambda x: 1.0 + 0.5 * np.exp(-np.asarray(x, dtype=float) ** 2)
QUAD_F = {
    "wide": lambda x: np.exp(-np.asarray(x, dtype=float) ** 2),
    "narrow": lambda x: np.exp(-(np.asarray(x, dtype=float) / 0.25) ** 2),
    "constant": lambda x: np.ones_like(np.asarray(x, dtype=float)),
}


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("name", sorted(QUAD_F))
def test_quad_level_matches_dense_pair_sum(alpha, name):
    model = JumpDiffusionModel(d=1, alpha=alpha, c=1.0)
    f = QUAD_F[name]
    for mesh in (8, 37, 160, 320, 1280):
        for n in (mesh, 2 * mesh):
            cont, jump = _quad_level(QUAD_RHO, f, model, -8.0, 8.0, n)
            want_cont, want_jump = dense_quad_level(QUAD_RHO, f, model, -8.0, 8.0, n)
            assert cont == pytest.approx(want_cont, rel=1e-11, abs=0.0)
            assert jump == pytest.approx(want_jump, rel=1e-11, abs=0.0)


def reference_quad_level(rho, f, model, lo, hi, n):
    """Reference: the mesh level with the kernel's circulant built and
    transformed on every call and ``r``, ``r f`` transformed one at a time;
    the cached spectrum and the batched transform must give its bits."""
    h = (hi - lo) / n
    size = _fast_len(2 * n)
    half = size // 2 + 1
    block = np.empty(4 * n + 3 * size + 6 * half)
    x, df, rf, tmp = block[: 4 * n].reshape(4, n)
    col = block[4 * n : 4 * n + size]
    spectra = block[4 * n + size : 4 * n + size + 6 * half].view(complex).reshape(3, half)
    conv = block[4 * n + size + 6 * half :].reshape(2, size)
    np.add(np.arange(n), 0.5, out=x)
    x *= h
    x += lo
    np.subtract(np.asarray(f(x + h), dtype=float), np.asarray(f(x - h), dtype=float), out=df)
    df /= 2.0 * h
    fx = np.asarray(f(x), dtype=float)
    rx = np.asarray(rho(x), dtype=float)
    np.multiply(rx, rx, out=tmp)
    tmp *= df
    tmp *= df
    energy = float(np.sum(tmp))
    cont = 0.5 * energy * h
    alpha = model.alpha
    col[:] = 0.0
    col[1:n] = 0.5 * model.c * (np.arange(1, n) * h) ** (-1.0 - alpha)
    col[size - n + 1 :] = col[n - 1 : 0 : -1]
    np.multiply(rx, fx, out=rf)
    fft.rfft(rx, size, out=spectra[0])
    fft.rfft(rf, size, out=spectra[1])
    fft.rfft(col, out=spectra[2])
    np.multiply(spectra[:2], spectra[2], out=spectra[:2])
    fft.irfft(spectra[:2], size, out=conv)
    k_r, k_rf = conv[:, :n]
    np.multiply(fx, k_r, out=tmp)
    tmp -= k_rf
    pairs = 2.0 * float(np.dot(rf, tmp)) * h * h
    diagonal = -_zeta(alpha - 1.0) * model.c * h ** (3.0 - alpha) * energy
    return cont, pairs + diagonal


def quadrature_bits(qf):
    """Every field of a ``QuadratureForm``, floats as their bit patterns."""
    return tuple(np.float64(v).view(np.uint64) if isinstance(v, float) else v for v in dataclasses.astuple(qf))


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_cached_spectrum_gives_the_reference_bits(alpha, monkeypatch):
    model = JumpDiffusionModel(d=1, alpha=alpha, c=1.3)
    region = (-8.0, 7.5)
    for mesh in (8, 9, 15, 160, 1000, 2560):
        for name in sorted(QUAD_F):
            f = QUAD_F[name]
            with monkeypatch.context() as patch:
                patch.setattr(dirichlet, "_quad_level", reference_quad_level)
                want = quadrature_bits(continuum_form_quadrature(QUAD_RHO, f, model, region, mesh))
            _stable_spectrum.cache_clear()
            cold = quadrature_bits(continuum_form_quadrature(QUAD_RHO, f, model, region, mesh))
            warm = quadrature_bits(continuum_form_quadrature(QUAD_RHO, f, model, region, mesh))
            assert cold == want and warm == want, (mesh, name)


def test_stable_toeplitz_is_the_dense_kernel_product():
    model = JumpDiffusionModel(d=1, alpha=0.7, c=1.3)
    rows = np.random.default_rng(5).normal(size=(3, 45))
    n = rows.shape[1]
    size = _fast_len(2 * n)
    x = -8.0 + (np.arange(n) + 0.5) * (15.5 / n)
    dist = np.abs(x[:, None] - x[None, :])
    np.fill_diagonal(dist, np.inf)
    dense = 0.5 * model.c * dist ** (-1.0 - model.alpha)
    got = _stable_toeplitz(model, -8.0, 7.5, rows, np.empty((3, size // 2 + 1), complex), np.empty((3, size)))
    np.testing.assert_allclose(got, rows @ dense, rtol=1e-12, atol=1e-12 * np.abs(rows @ dense).max())


def test_ladder_builds_each_spectrum_once():
    # meshes 160-2560 and their doubles: six sizes, shared by both functions
    _stable_spectrum.cache_clear()
    for _ in range(2):
        for mesh in (160, 320, 640, 1280, 2560):
            for name in ("wide", "narrow"):
                continuum_form_quadrature(QUAD_RHO, QUAD_F[name], STABLE1, (-8.0, 8.0), mesh)
        assert _stable_spectrum.cache_info().misses == 6


def test_cached_spectrum_is_read_only_and_bounded():
    _stable_spectrum.cache_clear()
    spectrum = _stable_spectrum(1.0, 1.0, -8.0, 8.0, 16)
    with pytest.raises(ValueError):
        spectrum[0] = 0.0
    maxsize = _stable_spectrum.cache_info().maxsize
    for n in range(8, 8 + maxsize + 10):
        _stable_spectrum(1.0, 1.0, -8.0, 8.0, n)
    assert _stable_spectrum.cache_info().currsize == maxsize


def test_fast_len_is_the_least_five_smooth_length():
    def smooth(k):
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        return k == 1

    for m in range(1, 3000):
        want = next(k for k in range(m, 2 * m + 1) if smooth(k))
        assert _fast_len(m) == want, m


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_quad_level_is_second_order(alpha):
    # successive level differences shrink by about 4 per mesh doubling
    model = JumpDiffusionModel(d=1, alpha=alpha, c=1.0)
    for name in ("wide", "narrow"):
        levels = [sum(_quad_level(QUAD_RHO, QUAD_F[name], model, -8.0, 8.0, n))
                  for n in (160, 320, 640, 1280, 2560)]
        steps = np.diff(levels)
        ratios = steps[:-1] / steps[1:]
        assert np.all((3.5 <= ratios) & (ratios <= 5.0)), (name, ratios)


def test_zeta_matches_scipy_on_the_quadratures_range():
    for s in np.linspace(-0.999, 0.999, 999):
        assert _zeta(s) == pytest.approx(special.zeta(s), rel=1e-12, abs=0.0), s


def test_continuum_quadrature_fine_mesh_in_linear_memory():
    # 65536 fine cells: a dense pair sum would need four 65536^2 float arrays
    rho, f = QUAD_RHO, QUAD_F["wide"]
    big = continuum_form_quadrature(rho, f, STABLE1, (-8.0, 8.0), 2 ** 15)
    ref = continuum_form_quadrature(rho, f, STABLE1, (-8.0, 8.0), 1280)
    assert np.isfinite(big.total) and not big.inconclusive
    assert big.mesh == 2 ** 16
    assert big.total == pytest.approx(ref.total, rel=0.01)


def test_continuum_quadrature_validation():
    f = lambda x: np.exp(-x * x)
    one = lambda x: np.ones_like(x)
    with pytest.raises(DomainError):
        continuum_form_quadrature(one, f, STABLE1, (2.0, -2.0), 64)
    with pytest.raises(DomainError):
        continuum_form_quadrature(one, f, STABLE1, (-2.0, 2.0), 4)
    with pytest.raises(ModelError, match="d must be 1"):  # d = 2 is refused before any quadrature
        continuum_form_quadrature(one, f, JumpDiffusionModel(d=2, alpha=1.0), (-2.0, 2.0), 64)


def test_continuum_quadrature_takes_numpy_integer_meshes():
    rho = lambda x: 1.0 + 0.5 * np.exp(-np.asarray(x, dtype=float) ** 2)
    f = lambda x: np.exp(-np.asarray(x, dtype=float) ** 2)
    region = (-8.0, 8.0)
    qf = continuum_form_quadrature(rho, f, STABLE1, region, np.int64(16))
    assert qf == continuum_form_quadrature(rho, f, STABLE1, region, 16)
    assert type(qf.mesh) is int
    rep = domain_membership(STABLE1, RhoTransform(rho=rho), f, region=region, mesh=np.int32(64))
    assert rep == domain_membership(STABLE1, RhoTransform(rho=rho), f, region=region, mesh=64)
    for mesh in (100.0, True, np.float64(16.0)):  # a float or a bool is no cell count
        with pytest.raises(DomainError, match="mesh must be an integer"):
            continuum_form_quadrature(rho, f, STABLE1, region, mesh)
        with pytest.raises(DomainError, match="mesh must be an integer"):
            domain_membership(STABLE1, RhoTransform(rho=rho), f, region=region, mesh=mesh)


def test_continuum_jump_part_against_independent_route():
    # oracle: outer trapezoid over x of an adaptive inner integral in y —
    # a different discretisation than the mesh pair sum
    f = lambda x: np.exp(-np.asarray(x, dtype=float) ** 2)
    lo, hi = -6.0, 6.0
    xs = np.linspace(lo, hi, 241)

    def inner(x):
        fx = math.exp(-x * x)
        fpx = -2.0 * x * fx

        def g(u):
            # (f(x+u) - f(x))^2 * (1/2)|u|^{-2} written as a difference
            # quotient, bounded at u = 0 by the squared derivative
            if u == 0.0:
                return 0.5 * fpx * fpx
            return 0.5 * ((math.exp(-(x + u) ** 2) - fx) / u) ** 2

        val, _ = integrate.quad(g, lo - x, hi - x, limit=200, points=[0.0])
        return val

    oracle = np.trapezoid([inner(x) for x in xs], xs)
    qf = continuum_form_quadrature(lambda x: np.ones_like(x), f, STABLE1, (lo, hi), 256)
    assert not qf.inconclusive
    assert qf.jump_part == pytest.approx(oracle, rel=0.02)
    finer = continuum_form_quadrature(lambda x: np.ones_like(x), f, STABLE1, (lo, hi), 512)
    assert abs(finer.jump_part - oracle) <= abs(qf.jump_part - oracle) + 1e-4


def test_continuum_quadrature_mesh_refinement():
    rho = lambda x: 1.0 + 0.5 * np.exp(-np.asarray(x, dtype=float) ** 2)
    f = lambda x: np.exp(-np.asarray(x, dtype=float) ** 2)
    coarse = continuum_form_quadrature(rho, f, STABLE1, (-8.0, 8.0), 160)
    fine = continuum_form_quadrature(rho, f, STABLE1, (-8.0, 8.0), 320)
    assert fine.error_estimate < coarse.error_estimate
    assert fine.total == pytest.approx(coarse.total, rel=0.02)


def test_domain_membership_finite_models(chain3_killed, rho121, phi3):
    f = np.array([0.2, -1.0, 0.7])
    rep = domain_membership(chain3_killed, RhoTransform(rho=rho121), f)
    assert rep.in_domain and bool(rep)
    assert rep.jump_energy == pytest.approx(
        transformed_form_rho(chain3_killed, rho121, f).jump_part
    )
    assert rep.squared_norm == pytest.approx(float(np.sum(f * f * rho121 ** 2)))
    rep2 = domain_membership(chain3_killed, PureJumpPhi(phi=phi3), f)
    assert rep2.in_domain
    rep3 = domain_membership(chain3_killed, GeneralMF(phi=phi3, a_rate=np.array([0.1, 0.0, 0.0])), f)
    assert rep3.in_domain
    with pytest.raises(TransformError):
        domain_membership(chain3_killed, object(), f)


@pytest.mark.parametrize("f", [["a", "b", "c"], ["1", "0", "0"], None, [math.nan, 0.0, 0.0],
                               [1.0, math.inf, 0.0], [1.0, 2.0], np.ones(4)])
def test_finite_forms_refuse_anything_but_one_finite_number_per_state(chain3, rho121, f):
    for form in (lambda: base_form(chain3, f), lambda: transformed_form_rho(chain3, rho121, f),
                 lambda: transformed_form_phi(chain3, np.zeros((3, 3)), f),
                 lambda: domain_membership(chain3, RhoTransform(rho=rho121), f)):
        with pytest.raises(DomainError):
            form()


def test_domain_membership_continuum():
    rho = lambda x: 1.0 + 0.5 * np.exp(-np.asarray(x, dtype=float) ** 2)
    f = lambda x: np.exp(-np.asarray(x, dtype=float) ** 2)
    rep = domain_membership(STABLE1, RhoTransform(rho=rho), f, region=(-8.0, 8.0), mesh=128)
    assert rep.in_domain
    assert rep.status == "ok"
    assert rep.squared_norm > 0.0
    with pytest.raises(DomainError):
        domain_membership(STABLE1, RhoTransform(rho=rho), f)


@pytest.mark.parametrize("region", BAD_REGIONS)
def test_continuum_forms_refuse_a_bad_region(region):
    # domain_membership reported an inconclusive quadrature on the reversed,
    # empty and NaN regions
    rho = lambda x: 1.0 + 0.5 * np.exp(-np.asarray(x, dtype=float) ** 2)
    f = lambda x: np.exp(-np.asarray(x, dtype=float) ** 2)
    with pytest.raises(DomainError, match="region must be"):
        continuum_form_quadrature(rho, f, STABLE1, region, 64)
    with pytest.raises(DomainError, match="region must be"):
        domain_membership(STABLE1, RhoTransform(rho=rho), f, region=region, mesh=64)


def test_continuum_membership_needs_a_callable_rho_tilt():
    f = lambda x: np.exp(-np.asarray(x, dtype=float) ** 2)
    for transform in (RhoTransform(rho=np.ones(3)), PureJumpPhi(phi=lambda x, y: 0.0 * y),
                      GeneralMF(phi=lambda x, y: 0.0 * y)):
        with pytest.raises(TransformError):
            domain_membership(STABLE1, transform, f, region=(-2.0, 2.0))


def test_domain_membership_inconclusive_on_failure():
    rho = lambda x: 1.0 + 0.0 * np.asarray(x, dtype=float)

    def bad_f(x):
        raise ValueError("no values here")

    rep = domain_membership(STABLE1, RhoTransform(rho=rho), bad_f, region=(-2.0, 2.0))
    assert rep.status == "inconclusive"
    assert not rep.in_domain
