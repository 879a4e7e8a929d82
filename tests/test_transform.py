import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from conftest import BAD_REGIONS, make_consistent_pair, make_reversible, make_symmetric_phi
from girsanov import dirichlet
from girsanov.paths import integrate_along, jump_sum, lyons_zheng_residual, reverse
from girsanov import transform as transform_module
from girsanov.paths import jump_steps
from girsanov.transform import _chain_trace, _grid_trace, lower, lower_continuum
from girsanov import (
    DomainError,
    FiniteSymmetricModel,
    GeneralMF,
    JumpDiffusionModel,
    ModelError,
    Path,
    PathError,
    PureJumpPhi,
    RhoTransform,
    RngSpec,
    TransformError,
    estimate_mass,
    jump_measure_density,
    general_mf,
    integrability_check,
    inverse_transform,
    jump_measure,
    log_weight_fn,
    pure_jump_mf,
    reversal_identity_residual,
    rho_transform_mf,
    sample_finite_path,
    sample_jump_diffusion_path,
    split_mf,
    stable_rate_table,
    stable_small_jump_variance,
    transformed_jump_measure,
    transformed_killing,
    transformed_levy_kernel,
    transformed_model,
    transformed_revuz,
    validate_symmetry,
)

HOP_01 = Path(x0=0, events=((0.5, 1),), horizon=1.0)


# -- specification objects ---------------------------------------------------


def test_transform_spec_validation():
    with pytest.raises(TransformError):
        RhoTransform(rho=np.array([1.0, 0.0]))
    with pytest.raises(TransformError):
        RhoTransform(rho=np.array([[1.0], [2.0]]))
    with pytest.raises(TransformError):
        PureJumpPhi(phi=np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(TransformError):
        PureJumpPhi(phi=np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
    with pytest.raises(TransformError):
        PureJumpPhi(phi=np.array([[0.5, 1.0], [1.0, 0.0]]))  # diagonal
    with pytest.raises(TransformError):
        GeneralMF(phi=np.array([[0.0, -1.5], [-1.5, 0.0]]))
    with pytest.raises(TransformError):
        GeneralMF(phi=np.zeros((2, 2)), a_rate=np.array([-0.1, 0.0]))
    with pytest.raises(TransformError):
        GeneralMF(phi=np.zeros((2, 2)), phi_delta=np.array([-2.0, 0.0]))
    # -1 entries are allowed in the general form (they zero the weight)
    GeneralMF(phi=np.array([[0.0, -1.0], [-1.0, 0.0]]))


# -- worked chain weights ----------------------------------------------------


def test_rho_weight_worked_example(chain3, rho121):
    trace = rho_transform_mf(HOP_01, rho121, chain3, 1.0)
    assert trace.end_value == pytest.approx(2.0 * math.exp(0.25), rel=1e-14)
    assert trace.z[0] == 1.0
    assert trace.zero_time is None


def test_phi_weight_worked_example(chain3, phi3):
    trace = pure_jump_mf(HOP_01, phi3, chain3, 1.0)
    assert trace.end_value == pytest.approx(2.0 * math.exp(-0.5), rel=1e-14)


def test_split_weight_worked_example(chain3, phi3):
    plus, minus = split_mf(HOP_01, phi3, chain3, 1.0)
    assert plus.end_value == pytest.approx(2.0 * math.exp(0.5), rel=1e-14)
    assert minus.end_value == pytest.approx(math.exp(-1.0), rel=1e-14)
    full = pure_jump_mf(HOP_01, phi3, chain3, 1.0)
    assert plus.end_value * minus.end_value == pytest.approx(full.end_value, rel=1e-14)


def test_rho_closed_vs_incremental(chain3_killed):
    rng = np.random.default_rng(21)
    spec = RngSpec(seed=50)
    saw_killed = 0
    for i in range(300):
        rho = rng.uniform(0.3, 3.0, size=3)
        p = sample_finite_path(chain3_killed, int(rng.integers(3)), 2.0, spec.stream(i))
        # the telescoped closed form against the product of increments
        a = rho_transform_mf(p, rho, chain3_killed, 2.0)
        b = general_mf(p, GeneralMF.from_rho(rho), chain3_killed, 2.0)
        np.testing.assert_allclose(a.times, b.times, atol=0.0)
        np.testing.assert_allclose(a.log_z, b.log_z, atol=1e-12)
        np.testing.assert_allclose(a.log_z_pre, b.log_z_pre, atol=1e-12)
        assert a.zero_time == b.zero_time
        if p.killed_at is not None:
            saw_killed += 1
            assert a.end_value == 0.0 and a.zero_time == p.killed_at
    assert saw_killed > 20


def test_general_form_reproduces_rho_route(chain3_killed):
    spec = RngSpec(seed=51)
    rho = np.array([0.7, 1.9, 1.2])
    g = GeneralMF.from_rho(rho)
    for i in range(300):
        p = sample_finite_path(chain3_killed, i % 3, 1.5, spec.stream(i))
        a = rho_transform_mf(p, rho, chain3_killed, 1.5)
        b = general_mf(p, g, chain3_killed, 1.5)
        if p.killed_at is not None and p.killed_at <= 1.5:
            assert a.end_value == 0.0 and b.end_value == 0.0
        else:
            assert b.end_value == pytest.approx(a.end_value, rel=1e-12)


def test_general_form_reproduces_phi_route(chain3, phi3):
    spec = RngSpec(seed=52)
    g = GeneralMF(phi=phi3)
    for i in range(100):
        p = sample_finite_path(chain3, i % 3, 1.5, spec.stream(i))
        a = pure_jump_mf(p, phi3, chain3, 1.5)
        b = general_mf(p, g, chain3, 1.5)
        assert b.end_value == pytest.approx(a.end_value, rel=1e-12)


def test_zero_time_on_full_jump_tilt(chain3):
    phi = np.array([
        [0.0, -1.0, 0.0],
        [-1.0, 0.0, 0.5],
        [0.0, 0.5, 0.0],
    ])
    g = GeneralMF(phi=phi)
    p = Path(x0=0, events=((0.3, 1), (0.9, 2)), horizon=1.0)
    trace = general_mf(p, g, chain3, 1.0)
    assert trace.zero_time == 0.3
    assert trace.end_value == 0.0
    assert trace.z[0] == 1.0


def test_trace_epoch_structure(chain3, phi3):
    p = Path(x0=0, events=((0.4, 1), (1.1, 2)), horizon=2.0)
    trace = pure_jump_mf(p, phi3, chain3, 2.0)
    np.testing.assert_array_equal(trace.times, [0.0, 0.4, 1.1, 2.0])
    assert trace.log_z[0] == 0.0 and trace.log_z_pre[0] == 0.0
    # post/pre differ exactly at jumps, by log(1 + phi)
    assert trace.log_z[1] - trace.log_z_pre[1] == pytest.approx(math.log1p(phi3[0, 1]))
    assert trace.log_z[2] - trace.log_z_pre[2] == pytest.approx(math.log1p(phi3[1, 2]))
    assert trace.log_z[3] == trace.log_z_pre[3]
    assert trace.z_pre[1] == pytest.approx(math.exp(trace.log_z_pre[1]))


def test_trace_killed_epoch(chain3_killed, rho121):
    p = Path(x0=1, events=(), horizon=1.0, killed_at=0.5)
    trace = rho_transform_mf(p, rho121, chain3_killed, 1.0)
    assert trace.times[-2] == 0.5
    assert trace.zero_time == 0.5
    assert np.isfinite(trace.log_z_pre[-2])  # left limit stays positive
    assert trace.log_z[-1] == -np.inf


def test_rho_trace_reads_no_lowering(chain3_killed, monkeypatch):
    # the telescoped trace takes Q rho / rho from the generator, so it stays
    # an oracle independent of the lowering, with the values it always gave
    def fail(*args):
        raise AssertionError("the telescoped rho trace built a lowering")

    monkeypatch.setattr(transform_module, "_build_lowering", fail)
    rho = np.array([0.7, 1.9, 1.3])
    hops = Path(x0=0, events=((0.3, 1), (0.9, 2), (1.4, 1)), horizon=2.0)
    dies = Path(x0=1, events=((0.2, 0), (0.7, 1)), horizon=2.0, killed_at=1.1)
    cases = [
        (hops, 2.0, [0.0, 0.3, 0.9, 1.4, 2.0],
         [0.0, 0.4842431158254128, 1.4626482309626145, 1.3805993911290568, 2.738494127971162],
         [0.0, -0.5142857142857143, 1.842137852667518, 1.001109769424153, 2.738494127971162], None),
        (hops, 1.0, [0.0, 0.3, 0.9, 1.0],
         [0.0, 0.4842431158254128, 1.4626482309626145, 1.3703405386549221],
         [0.0, -0.5142857142857143, 1.842137852667518, 1.3703405386549221], None),
        (dies, 2.0, [0.0, 0.2, 0.7, 1.1, 2.0],
         [0.0, -0.5458972511637588, -0.40451127819548877, -np.inf, -np.inf],
         [0.0, 0.45263157894736833, -1.403040108306616, 0.5007518796992483, -np.inf], 1.1),
    ]
    for path, t, times, log_z, log_pre, zero_time in cases:
        trace = rho_transform_mf(path, rho, chain3_killed, t)
        assert trace.times.tolist() == times
        assert trace.log_z.tolist() == log_z
        assert trace.log_z_pre.tolist() == log_pre
        assert trace.zero_time == zero_time
    with pytest.raises(TransformError):
        rho_transform_mf(hops, np.ones(4), chain3_killed, 1.0)
    with pytest.raises(TransformError):
        rho_transform_mf(hops, np.array([1.0, 0.0, 1.0]), chain3_killed, 1.0)


def test_second_rho_trace_builds_no_generator(chain3_killed, monkeypatch):
    # the generator is built once and kept read-only on the model, so a
    # second trace pays one product and gives the same bits
    model = FiniteSymmetricModel(m=chain3_killed.m, q=chain3_killed.q, k=chain3_killed.k)
    rho = np.array([0.7, 1.9, 1.3])
    hops = Path(x0=0, events=((0.3, 1), (0.9, 2), (1.4, 1)), horizon=2.0)
    first = rho_transform_mf(hops, rho, model, 2.0)

    def fail(self):
        raise AssertionError("a second generator was built")

    monkeypatch.setattr(FiniteSymmetricModel, "_build_generator", fail)
    second = rho_transform_mf(hops, rho, model, 2.0)
    assert second.log_z.tolist() == first.log_z.tolist()
    assert second.log_z_pre.tolist() == first.log_z_pre.tolist()
    assert model.generator() is model.generator()
    assert not model.generator().flags.writeable


@pytest.mark.parametrize("call, match", [
    (lambda m: dirichlet.transformed_form_rho(m, [2.0], np.ones(3)), r"rho has shape \(1,\)"),
    (lambda m: dirichlet.transformed_form_rho(m, np.ones(4), np.ones(3)), r"rho has shape \(4,\)"),
    (lambda m: dirichlet.transformed_form_rho(m, np.ones((3, 1)), np.ones(3)), r"got shape \(3, 1\)"),
    (lambda m: dirichlet.transformed_generator(m, RhoTransform(np.ones(4))), r"rho has shape \(4,\)"),
    (lambda m: dirichlet.conservativeness_check(m, np.ones(2)), r"rho has shape \(2,\)"),
    (lambda m: jump_measure_density(m, -np.ones(3), np.zeros((3, 3))), "strictly positive"),
    (lambda m: jump_measure_density(m, np.ones(2), np.zeros((3, 3))), r"rho has shape \(2,\)"),
    (lambda m: jump_measure_density(m, np.ones(3), np.zeros((2, 2))), r"phi has shape \(2, 2\)"),
    (lambda m: jump_measure_density(m, np.ones(3), np.zeros(3)), r"got shape \(3,\)"),
    (lambda m: jump_measure_density(m, np.ones(3), np.full((3, 3), -2.0)), ">= -1"),
], ids=["form-rho-short", "form-rho-long", "form-rho-2d", "generator-long", "conservativeness-short",
        "density-negative-rho", "density-short-rho", "density-small-phi", "density-flat-phi",
        "density-phi-below-minus-one"])
def test_chain_rho_and_phi_tables_follow_the_lowering_rule(chain3, call, match):
    # one rule for a chain's tables: the transform's own checks, then the
    # model's size, as lower applies them; a short rho used to broadcast
    with pytest.raises(TransformError, match=match):
        call(chain3)


def test_log_weight_fn_matches_traces(chain3_killed, rho121, phi3):
    spec = RngSpec(seed=53)
    transforms = [
        RhoTransform(rho=rho121),
        PureJumpPhi(phi=phi3),
        GeneralMF(phi=phi3, a_rate=np.array([0.2, 0.0, 0.1]),
                  phi_delta=np.array([0.0, 0.5, 0.0])),
    ]
    traces = [
        lambda p, t: rho_transform_mf(p, rho121, chain3_killed, t),
        lambda p, t: pure_jump_mf(p, phi3, chain3_killed, t),
        lambda p, t: general_mf(p, transforms[2], chain3_killed, t),
    ]
    for transform, trace_fn in zip(transforms, traces):
        lw = log_weight_fn(chain3_killed, transform)
        for i in range(200):
            p = sample_finite_path(chain3_killed, i % 3, 2.0, spec.stream(i))
            want = trace_fn(p, 2.0).log_z[-1]
            got = lw(p, 2.0)
            if np.isfinite(want):
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
            else:
                assert got == -np.inf


def test_weight_has_unit_mean(chain3, phi3, rho121):
    # martingale property of both chain weights, crude 4-sigma gate
    spec = RngSpec(seed=54)
    for transform in (RhoTransform(rho=rho121), PureJumpPhi(phi=phi3)):
        lw = log_weight_fn(chain3, transform)
        vals = np.array([
            math.exp(lw(sample_finite_path(chain3, 0, 1.0, spec.stream(i)), 1.0))
            for i in range(4000)
        ])
        err = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - 1.0) < 4.0 * err


# -- transformed structure ---------------------------------------------------


def test_jump_measure_density_rho_only(chain3, rho121):
    phi = rho121[None, :] / rho121[:, None] - 1.0
    g = jump_measure_density(chain3, rho121, phi)
    J = jump_measure(chain3)
    expect = rho121[:, None] * rho121[None, :]
    np.testing.assert_allclose(g[J > 0], expect[J > 0], rtol=1e-14)


def test_jump_measure_density_consistent_pair_symmetric():
    rng = np.random.default_rng(30)
    for _ in range(20):
        model = make_reversible(rng, int(rng.integers(3, 8)))
        rho, phi = make_consistent_pair(rng, model)
        g = jump_measure_density(model, rho, phi)
        J = jump_measure(model)
        np.testing.assert_allclose(g[J > 0], g.T[J > 0], rtol=1e-10)


def test_jump_measure_density_rejects_inconsistent_pair(chain3, rho121, phi3):
    # phi3 is symmetric but rho121 is not constant, so the joint pair
    # cannot produce a symmetric density on charged edges
    with pytest.raises(TransformError, match="asymmetric"):
        jump_measure_density(chain3, rho121, phi3)


def test_transformed_kernel_rho(chain3, rho121):
    q_hat = transformed_levy_kernel(chain3, RhoTransform(rho=rho121))
    assert q_hat[0, 1] == pytest.approx(2.0)
    assert q_hat[1, 0] == pytest.approx(0.5)
    assert q_hat[1, 2] == pytest.approx(1.0)
    assert q_hat[2, 1] == pytest.approx(4.0)
    # detailed balance w.r.t. rho^2 m
    mu = rho121 ** 2 * chain3.m
    np.testing.assert_allclose(mu[:, None] * q_hat, (mu[:, None] * q_hat).T, atol=1e-14)


def test_transformed_kernel_phi(chain3, phi3):
    q_hat = transformed_levy_kernel(chain3, PureJumpPhi(phi=phi3))
    assert q_hat[0, 1] == pytest.approx(2.0)
    assert q_hat[1, 0] == pytest.approx(2.0)
    assert q_hat[1, 2] == pytest.approx(1.0)
    assert q_hat[2, 1] == pytest.approx(1.0)
    np.testing.assert_allclose(chain3.m[:, None] * q_hat, (chain3.m[:, None] * q_hat).T)


def test_transformed_kernel_continuum():
    model = JumpDiffusionModel(d=1, alpha=1.0, c=1.0)
    rho = lambda x: 1.0 + 0.5 * math.exp(-x * x)
    kern = transformed_levy_kernel(model, RhoTransform(rho=rho))
    assert kern(0.0, 2.0) == pytest.approx(rho(2.0) / rho(0.0) * 0.25)
    phi = lambda x, y: 0.5 * (y - x) ** 2 / (1.0 + (y - x) ** 2)
    kern2 = transformed_levy_kernel(model, PureJumpPhi(phi=phi))
    assert kern2(0.0, 2.0) == pytest.approx((1.0 + phi(0.0, 2.0)) * 0.25)
    # the general form is read through the same lowering (it was refused)
    kern3 = transformed_levy_kernel(model, GeneralMF(phi=phi))
    for x, y in ((0.0, 2.0), (-1.5, 0.25), (3.0, -4.0)):
        assert kern3(x, y) == kern2(x, y)
    with pytest.raises(TransformError, match="rho as a callable"):
        transformed_levy_kernel(model, RhoTransform(rho=np.ones(3)))


def test_transformed_jump_measure_values(chain3, rho121, phi3):
    J_rho = transformed_jump_measure(chain3, RhoTransform(rho=rho121))
    assert J_rho[0, 1] == pytest.approx(1.0)
    assert J_rho[1, 2] == pytest.approx(2.0)
    np.testing.assert_allclose(J_rho, J_rho.T, atol=1e-14)
    J_phi = transformed_jump_measure(chain3, PureJumpPhi(phi=phi3))
    assert J_phi[0, 1] == pytest.approx(1.0)
    assert J_phi[1, 2] == pytest.approx(0.5)
    np.testing.assert_allclose(J_phi, J_phi.T, atol=1e-14)


def test_transformed_killing_per_type(chain3_killed, rho121, phi3):
    np.testing.assert_array_equal(
        transformed_killing(chain3_killed, RhoTransform(rho=rho121)), np.zeros(3)
    )
    np.testing.assert_array_equal(
        transformed_killing(chain3_killed, PureJumpPhi(phi=phi3)),
        chain3_killed.k * chain3_killed.m,
    )
    g = GeneralMF(phi=phi3, a_rate=np.array([0.5, 0.0, 0.0]),
                  phi_delta=np.array([0.0, 1.0, 0.0]))
    got = transformed_killing(chain3_killed, g)
    np.testing.assert_allclose(got, np.array([0.5, 2.0, 0.0]))


def test_transformed_revuz(rho121):
    mu = np.array([1.0, 3.0, 2.0])
    np.testing.assert_allclose(transformed_revuz(mu, rho121), [1.0, 12.0, 2.0])


def test_transformed_model_is_reversible(chain3_killed, rho121, phi3):
    rng = np.random.default_rng(31)
    hat = transformed_model(chain3_killed, RhoTransform(rho=rho121))
    assert validate_symmetry(hat).ok
    np.testing.assert_array_equal(hat.k, np.zeros(3))
    np.testing.assert_allclose(hat.m, rho121 ** 2 * chain3_killed.m)
    hat2 = transformed_model(chain3_killed, PureJumpPhi(phi=phi3))
    assert validate_symmetry(hat2).ok
    np.testing.assert_array_equal(hat2.k, chain3_killed.k)
    for _ in range(10):
        model = make_reversible(rng, 5, with_killing=True)
        rho = rng.uniform(0.4, 2.5, size=5)
        assert validate_symmetry(transformed_model(model, RhoTransform(rho=rho))).ok
        phi = make_symmetric_phi(rng, 5)
        assert validate_symmetry(transformed_model(model, PureJumpPhi(phi=phi))).ok


def test_reversal_identity_chain(chain3, rho121):
    spec = RngSpec(seed=55)
    for i in range(200):
        p = sample_finite_path(chain3, i % 3, 1.5, spec.stream(i))
        assert reversal_identity_residual(p, rho121, chain3, 1.5) <= 1e-12


def test_inverse_transform_round_trip(phi3):
    inv = inverse_transform(phi3)
    assert inv[0, 1] == pytest.approx(-0.5)
    assert inv[1, 2] == pytest.approx(1.0)
    np.testing.assert_allclose(inverse_transform(inv), phi3, atol=1e-14)
    np.testing.assert_allclose((1.0 + phi3) * (1.0 + inv), np.ones((3, 3)), atol=1e-14)
    wrapped = inverse_transform(PureJumpPhi(phi=phi3))
    assert isinstance(wrapped, PureJumpPhi)
    np.testing.assert_allclose(wrapped.phi, inv)
    with pytest.raises(TransformError):
        inverse_transform(np.array([[0.0, -1.0], [-1.0, 0.0]]))


def test_inverse_transform_undoes_the_weight(chain3, phi3):
    # tilting the transformed process by the inverse tilt cancels the
    # weight pathwise, not just in law
    spec = RngSpec(seed=56)
    hat = transformed_model(chain3, PureJumpPhi(phi=phi3))
    inv = inverse_transform(phi3)
    for i in range(200):
        p = sample_finite_path(chain3, i % 3, 1.5, spec.stream(i))
        z_fwd = pure_jump_mf(p, phi3, chain3, 1.5).end_value
        z_bwd = pure_jump_mf(p, inv, hat, 1.5).end_value
        assert z_fwd * z_bwd == pytest.approx(1.0, rel=1e-12)


def test_split_parts_are_monotone(chain3):
    rng = np.random.default_rng(32)
    spec = RngSpec(seed=57)
    for i in range(100):
        phi = make_symmetric_phi(rng, 3)
        p = sample_finite_path(chain3, i % 3, 1.5, spec.stream(i))
        plus, minus = split_mf(p, phi, chain3, 1.5)
        assert np.all(np.diff(plus.log_z) >= -1e-12)
        assert np.all(np.diff(minus.log_z) <= 1e-12)
        full = pure_jump_mf(p, phi, chain3, 1.5).end_value
        assert plus.end_value * minus.end_value == pytest.approx(full, rel=1e-12)


# -- the lowering --------------------------------------------------------------


def _random_families(rng, model):
    """One transform of each family on ``model``, with the general form's
    phi asymmetric and reaching -1, and its death tilt reaching -1."""
    n = model.n
    phi = rng.uniform(-1.0, 2.0, size=(n, n))
    phi[rng.uniform(size=(n, n)) < 0.2] = -1.0
    np.fill_diagonal(phi, 0.0)
    phi_delta = rng.uniform(-1.0, 2.0, size=n)
    phi_delta[0] = -1.0
    return (
        RhoTransform(rho=rng.uniform(0.3, 3.0, size=n)),
        PureJumpPhi(phi=make_symmetric_phi(rng, n)),
        GeneralMF(phi=phi, phi_delta=phi_delta, a_rate=rng.uniform(0.0, 1.0, size=n)),
    )


def _parent_tables(model, transform):
    """The walk tables and start measure as each family built them before
    there was one lowering."""
    n = model.n
    if isinstance(transform, RhoTransform):
        rho = transform.rho
        lr = np.log(rho)
        return (model.generator() @ rho / rho, lr[None, :] - lr[:, None], np.full(n, -np.inf),
                rho * rho * model.m)
    if isinstance(transform, PureJumpPhi):
        return (model.q * transform.phi).sum(axis=1), np.log1p(transform.phi), np.zeros(n), model.m.copy()
    with np.errstate(divide="ignore"):
        return ((model.q * transform.phi).sum(axis=1) + model.k * transform.phi_delta + transform.a_rate,
                np.log1p(transform.phi), np.log1p(transform.phi_delta), model.m.copy())


def _walk(tables, path, t):
    """The scalar log-weight walk in the batched engine's order: each holding
    time adds ``-rate * held + step`` in one sum."""
    rate, log_jump, log_death = (tables[0].tolist(), tables[1].tolist(), tables[2].tolist())
    cur = 0.0
    prev_t, prev_x = 0.0, path.x0
    for s, x in path.events:
        if s > t:
            break
        cur += -rate[prev_x] * (s - prev_t) + log_jump[prev_x][x]
        prev_t, prev_x = s, x
    if path.killed_at is not None and path.killed_at <= t:
        cur += -rate[prev_x] * (path.killed_at - prev_t) + log_death[prev_x]
    else:
        cur -= rate[prev_x] * (t - prev_t)
    return cur


def test_lowering_equals_each_familys_own_tables():
    rng = np.random.default_rng(61)
    for _ in range(40):
        model = make_reversible(rng, int(rng.integers(3, 9)), with_killing=True)
        for transform in _random_families(rng, model):
            low = lower(model, transform)
            rate, log_jump, log_death, mu = _parent_tables(model, transform)
            np.testing.assert_array_equal(low.rate, rate, strict=True)
            np.testing.assert_array_equal(low.log_jump, log_jump, strict=True)
            np.testing.assert_array_equal(low.log_death, log_death, strict=True)
            np.testing.assert_array_equal(low.mu, mu, strict=True)
    with pytest.raises(TransformError, match="unsupported transform"):
        lower(model, np.ones(model.n))


def test_lowering_is_kept_on_the_transform_for_its_model(chain3, chain3_killed, rho121, phi3):
    for data, make in ((rho121, RhoTransform), (phi3, PureJumpPhi),
                       (phi3, lambda phi: GeneralMF(phi=phi, a_rate=np.ones(3), phi_delta=np.zeros(3)))):
        data, original = data.copy(), data.copy()
        transform = make(data)
        low = lower(chain3, transform)
        assert lower(chain3, transform) is low
        data **= 2  # the transform holds its own copy, so the kept lowering stays right
        assert lower(chain3, transform) is low
        for name, table in vars(low).items():
            np.testing.assert_array_equal(table, getattr(lower(chain3, make(original)), name))
        assert not np.array_equal(lower(chain3, make(data)).log_jump, low.log_jump)
        other = lower(chain3_killed, transform)
        assert other is not low and lower(chain3_killed, transform) is other
        for name, table in vars(other).items():
            np.testing.assert_array_equal(table, getattr(lower(chain3_killed, make(original)), name))
        for table in (*vars(low).values(), *vars(other).values()):
            assert not table.flags.writeable
        for name in ("rho", "phi", "a_rate", "phi_delta"):
            table = getattr(transform, name, None)
            assert table is None or not table.flags.writeable


def test_chain_trace_ends_where_the_engine_order_walk_ends():
    rng = np.random.default_rng(62)
    spec = RngSpec(seed=63)
    model = make_reversible(rng, 5, with_killing=True)
    for transform in _random_families(rng, model):
        tables = _parent_tables(model, transform)
        low = lower(model, transform)
        log_w = log_weight_fn(model, transform)
        for i in range(300):
            p = sample_finite_path(model, i % 5, 2.0, spec.stream(i))
            want = _walk(tables, p, 2.0)
            assert _chain_trace(p, 2.0, low).log_z[-1] == want
            assert log_w(p, 2.0) == want


def test_pure_jump_generator_is_the_cemetery_generators_state_block():
    rng = np.random.default_rng(64)
    for _ in range(20):
        model = make_reversible(rng, int(rng.integers(3, 9)), with_killing=True)
        phi = make_symmetric_phi(rng, model.n)
        rates = (1.0 + phi) * model.q
        np.fill_diagonal(rates, 0.0)
        want = rates.copy()
        np.fill_diagonal(want, -(rates.sum(axis=1) + model.k))
        np.testing.assert_array_equal(dirichlet.pure_jump_generator(model, phi), want, strict=True)
        np.testing.assert_array_equal(dirichlet.pure_jump_generator(model, PureJumpPhi(phi)), want)


@pytest.mark.parametrize("transform, field", [
    (RhoTransform(rho=np.ones(2)), "rho"),
    (PureJumpPhi(phi=np.zeros((4, 4))), "phi"),
    (GeneralMF(phi=np.zeros((3, 3)), phi_delta=np.zeros(4)), "phi_delta"),
    (GeneralMF(phi=np.zeros((3, 3)), a_rate=np.array([0.1, 0.2])), "a_rate"),
    (GeneralMF(phi=lambda x, y: 0.0), "phi"),
])
def test_lower_rejects_tables_that_do_not_fit_the_model(chain3_killed, transform, field):
    with pytest.raises(TransformError, match=rf"^{field} "):
        lower(chain3_killed, transform)
    with pytest.raises(TransformError, match=rf"^{field} "):
        transformed_killing(chain3_killed, transform)
    with pytest.raises(TransformError, match=rf"^{field} "):
        estimate_mass(chain3_killed, transform, 0, 1.0, 100, RngSpec(seed=1))


def test_reversibility_not_type_decides_the_transformed_structure(chain3_killed, phi3):
    # a general form with a symmetric jump tilt is in detailed balance with m
    g = GeneralMF(phi=phi3, a_rate=np.array([0.5, 0.0, 0.0]), phi_delta=np.array([0.0, 1.0, 0.0]))
    np.testing.assert_array_equal(transformed_jump_measure(chain3_killed, g),
                                  transformed_jump_measure(chain3_killed, PureJumpPhi(phi=phi3)))
    hat = transformed_model(chain3_killed, g)
    assert validate_symmetry(hat).ok
    np.testing.assert_array_equal(hat.k, [0.5, 2.0, 0.0])  # k (1 + phi_delta) + a_rate
    np.testing.assert_allclose(hat.generator(), dirichlet.cemetery_generator(chain3_killed, g)[:3, :3],
                               rtol=0.0, atol=1e-15)
    # an asymmetric jump tilt is not
    skew = GeneralMF(phi=np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    for structure in (transformed_jump_measure, transformed_model):
        with pytest.raises(TransformError, match="detailed balance"):
            structure(chain3_killed, skew)


# -- diffusion-path weights --------------------------------------------------


@pytest.mark.parametrize("region", [r for r in BAD_REGIONS if r is not None and len(r) == 2])
def test_stable_rate_table_refuses_a_bad_interval(region):
    # a reversed interval gave a table, though np.interp needs increasing nodes
    with pytest.raises(DomainError, match="region must be"):
        stable_rate_table(STABLE1, lambda x, y: 0.0 * y, 0.1, *region)


def test_lower_continuum_needs_the_jump_diffusion_and_callable_data(chain3):
    fn, pair = (lambda x: 1.0 + 0.0 * x), (lambda x, y: 0.0 * y)
    low = lower_continuum(STABLE1, GeneralMF(phi=pair, a_rate=fn, mc_integrand=fn))
    assert low.a_rate is fn and low.mc is fn and low.tilt is pair and low.rho is None
    assert lower_continuum(STABLE1, RhoTransform(rho=fn)).rho is fn
    with pytest.raises(TransformError, match="jump-diffusion model"):
        lower_continuum(chain3, RhoTransform(rho=fn))
    for transform, field in ((RhoTransform(rho=np.ones(3)), "rho"), (PureJumpPhi(phi=np.zeros((3, 3))), "phi"),
                             (GeneralMF(phi=np.zeros((3, 3))), "phi"),
                             (GeneralMF(phi=pair, a_rate=np.ones(3)), "a_rate"),  # was a TypeError on a path
                             (GeneralMF(phi=pair, mc_integrand=1.0), "mc_integrand")):
        with pytest.raises(TransformError, match=f"need {field} as a callable"):
            lower_continuum(STABLE1, transform)


def test_stable_rate_table_matches_direct_quadrature():
    model = JumpDiffusionModel(d=1, alpha=1.0, c=1.0)
    tilt = lambda x, y: (y - x) ** 2 / (1.0 + (y - x) ** 2)
    table = stable_rate_table(model, tilt, 0.1, -2.0, 2.0)
    # the tilt depends on the gap only: both sides together give
    # 2 * int_eps^inf r^2/(1+r^2) r^-2 dr = 2 (pi/2 - arctan eps)
    expect = 2.0 * (math.pi / 2.0 - math.atan(0.1))
    for x in (-1.5, 0.0, 0.7):
        assert table(x) == pytest.approx(expect, rel=1e-8)
    skew = lambda x, y: (1.0 + 0.3 * math.sin(x)) * (y - x) ** 2 / (1.0 + (y - x) ** 2)
    table2 = stable_rate_table(model, skew, 0.1, -2.0, 2.0)
    for x in (-1.0, 0.5):
        direct, _ = integrate.quad(
            lambda r: (skew(x, x + r) + skew(x, x - r)) * r ** -2.0, 0.1, np.inf
        )
        assert table2(x) == pytest.approx(direct, rel=1e-7)


@pytest.mark.parametrize("alpha", [0.05, 0.5, 1.5, 1.95])
def test_stable_rate_table_is_finite_and_tight_across_alpha(alpha):
    # both sides of r^2/(1+r^2) against c r^{-1-alpha}:
    # 2 c (int_0^inf - int_0^eps) r^{1-alpha}/(1+r^2) dr, the first in closed
    # form, the second by quad with the algebraic weight r^{1-alpha}; small
    # alpha puts mass out to r ~ e^{40/alpha}, where the rule's range is capped
    model = JumpDiffusionModel(d=1, alpha=alpha, c=0.7)
    tilt = lambda x, y: (1.0 + 0.3 * math.sin(x)) * (y - x) ** 2 / (1.0 + (y - x) ** 2)
    table = stable_rate_table(model, tilt, 0.1, -2.0, 2.0)
    head, _ = integrate.quad(lambda r: 1.0 / (1.0 + r * r), 0.0, 0.1, weight="alg",
                             wvar=(1.0 - alpha, 0.0), epsabs=0.0, epsrel=1e-13)
    whole = math.pi / (2.0 * math.sin(math.pi * alpha / 2.0))
    xs = np.linspace(-2.0, 2.0, 241)  # the table's own nodes
    assert np.all(np.isfinite(table(xs)))
    for x in (-2.0, 0.5, 2.0):
        expect = 2.0 * 0.7 * (1.0 + 0.3 * math.sin(x)) * (whole - head)
        assert table(x) == pytest.approx(expect, rel=1e-12)


def test_grid_weight_pure_jump_hand_check():
    model = JumpDiffusionModel(d=1, alpha=1.0, c=1.0)
    p = Path(
        x0=0.0, events=((0.3, 1.2),), horizon=1.0,
        grid=np.array([0.0, 1.5, 2.0]), dt=0.5, jump_pre=(0.2,), eps=0.1,
    )
    comp = lambda x: np.full(np.shape(x), 0.7)
    trace = pure_jump_mf(p, lambda x, y: 0.5, model, 1.0, compensator=comp)
    assert trace.log_z[-1] == pytest.approx(math.log(1.5) - 0.7, rel=1e-14)
    # the jump factor lands in the step containing the jump time
    assert trace.log_z[1] == pytest.approx(math.log(1.5) - 0.35, rel=1e-14)
    half = pure_jump_mf(p, lambda x, y: 0.5, model, 0.5, compensator=comp)
    assert half.log_z[-1] == pytest.approx(math.log(1.5) - 0.35, rel=1e-14)
    with pytest.raises(DomainError):
        pure_jump_mf(p, lambda x, y: 0.5, model, 0.7, compensator=comp)


def test_grid_weight_exponential_rho_identity():
    # rho = exp(c x) makes the weight log-linear in the displacement:
    # log Z_t = c (X_t - X_0) - c^2/2 * var_rate * t when the jump
    # compensator is switched off
    model = JumpDiffusionModel(d=1, alpha=1.2, c=0.8)
    spec = RngSpec(seed=58)
    c = 0.2
    rho = lambda x: np.exp(c * np.asarray(x, dtype=float))
    zero_comp = lambda x: np.zeros(np.shape(x))
    vr = 1.0 + stable_small_jump_variance(model, 0.05)
    for i in range(5):
        p = sample_jump_diffusion_path(model, 0.3, 1.0, 0.01, 0.05, spec.stream(i))
        trace = rho_transform_mf(
            p, rho, model, 1.0,
            rho_grad=lambda x: c * np.exp(c * np.asarray(x, dtype=float)),
            compensator=zero_comp,
        )
        expect = c * (p.grid[-1] - p.grid[0]) - 0.5 * c * c * vr * 1.0
        assert trace.log_z[-1] == pytest.approx(expect, rel=1e-10, abs=1e-12)


def test_grid_weight_requires_callable_data(chain3):
    model = JumpDiffusionModel(d=1, alpha=1.0, c=1.0)
    p = Path(
        x0=0.0, events=(), horizon=1.0,
        grid=np.zeros(3), dt=0.5, jump_pre=(), eps=0.1,
    )
    with pytest.raises(TransformError):
        rho_transform_mf(p, np.ones(3), model, 1.0)
    with pytest.raises(TransformError):
        pure_jump_mf(p, np.zeros((3, 3)), model, 1.0)


HALF_TILT = lambda x, y: 0.5 + 0.0 * np.asarray(y, dtype=float)
GRID_ROUTES = {
    "rho": lambda p, model, comp: rho_transform_mf(p, lambda x: 1.0 + 0.0 * x, model, 1.0, compensator=comp),
    "phi": lambda p, model, comp: pure_jump_mf(p, HALF_TILT, model, 1.0, compensator=comp),
    "general": lambda p, model, comp: general_mf(p, GeneralMF(phi=HALF_TILT), model, 1.0, compensator=comp),
}


@pytest.mark.parametrize("route", sorted(GRID_ROUTES))
@pytest.mark.parametrize("supplied", [False, True])
def test_grid_routes_check_the_path_and_model_alike(route, supplied, chain3):
    weigh = GRID_ROUTES[route]
    comp = (lambda x: np.zeros(np.shape(x))) if supplied else None
    model = JumpDiffusionModel(d=1, alpha=1.0, c=1.0)
    p = Path(x0=0.0, events=(), horizon=1.0, grid=np.zeros(3), dt=0.5, jump_pre=(), eps=0.1)
    assert weigh(p, model, comp).end_value > 0.0
    with pytest.raises(TransformError, match="truncation radius"):
        weigh(replace(p, eps=None), model, comp)
    with pytest.raises(TransformError, match="jump-diffusion model"):
        weigh(p, chain3, comp)


def test_reversal_identity_grid_is_small():
    model = JumpDiffusionModel(d=1, alpha=1.0, c=1.0)
    spec = RngSpec(seed=59)
    rho = lambda x: 1.0 + 0.5 * np.exp(-np.asarray(x, dtype=float) ** 2)
    table = stable_rate_table(
        model, lambda x, y: rho(y) / rho(x) - 1.0, 0.05, -8.0, 8.0
    )
    resid = []
    for i in range(10):
        p = sample_jump_diffusion_path(model, 0.0, 0.5, 1e-3, 0.05, spec.stream(i))
        z = rho_transform_mf(p, rho, model, 0.5, compensator=table).end_value
        resid.append(
            reversal_identity_residual(p, rho, model, 0.5, compensator=table) / z
        )
    # discretisation-level only, far below the weight scale
    assert np.mean(resid) < 0.05


# the continuum-energy settings: t, grid step and truncation radius
GRID_T, GRID_DT, GRID_EPS = 0.05, 1e-3, 0.01
GRID_RHO = lambda x: 1.0 + 0.5 * np.exp(-np.asarray(x) ** 2)
GRID_PHI = lambda x, y: 0.4 * np.cos(x) * np.cos(y)
ONE_JUMP = {  # the log factor of one jump, on the path's own values
    "rho": lambda pre, post: np.log(np.asarray(GRID_RHO(post), dtype=float) / np.asarray(GRID_RHO(pre), dtype=float)),
    "phi": lambda pre, post: np.log1p(np.asarray(GRID_PHI(pre, post), dtype=float)),
}


def per_jump_log_z(path, t, low, compensator, one_jump):
    """Reference: the grid weight with one factor call per jump, each added
    to the rest of the grid in time order."""
    no_jumps = replace(low, log_jump=lambda pre, post: np.zeros(len(pre)))
    log_z = _grid_trace(path, t, STABLE1, no_jumps, compensator).log_z.copy()
    held = jump_steps([s for s, _ in path.events], path.dt, log_z.size - 1)
    for j, (s, post), pre in zip(held, path.events, path.jump_pre):
        if s > t:
            break
        log_z[j + 1:] += float(one_jump(pre, post))
    return log_z


@pytest.mark.parametrize("kind", sorted(ONE_JUMP))
def test_grid_weight_takes_a_paths_jump_factors_in_one_call(kind):
    transform = RhoTransform(rho=GRID_RHO) if kind == "rho" else PureJumpPhi(phi=GRID_PHI)
    low = lower_continuum(STABLE1, transform)
    calls = []
    counted = replace(low, log_jump=lambda pre, post: calls.append(len(pre)) or low.log_jump(pre, post))
    table = stable_rate_table(STABLE1, low.tilt, GRID_EPS, -12.0, 12.0)
    spec = RngSpec(seed=67)
    x0s = np.random.default_rng(68).uniform(-8.0, 8.0, 300)
    jumps = 0
    for i, x0 in enumerate(x0s):
        p = sample_jump_diffusion_path(STABLE1, x0, GRID_T, GRID_DT, GRID_EPS, spec.stream(i))
        for t in (GRID_T, 0.03):
            live = sum(s <= t for s, _ in p.events)
            jumps += live
            del calls[:]
            got = _grid_trace(p, t, STABLE1, counted, table).log_z
            assert calls == ([live] if live else [])
            want = per_jump_log_z(p, t, low, table, ONE_JUMP[kind])
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    assert jumps > 3000


LINE = JumpDiffusionModel(d=1, alpha=1.2, c=1.0)
LINE_RHO = lambda x: 1.0 + 0.5 * np.exp(-np.asarray(x) ** 2)  # noqa: E731
LINE_PHI = lambda x, y: 0.4 * np.cos(x) * np.cos(y)  # noqa: E731
LINE_ROUTES = {
    "rho": lambda p, comp: rho_transform_mf(p, LINE_RHO, LINE, 0.2, compensator=comp),
    "pure_jump": lambda p, comp: pure_jump_mf(p, LINE_PHI, LINE, 0.2, compensator=comp),
    "general": lambda p, comp: general_mf(p, GeneralMF(phi=LINE_PHI, mc_integrand=lambda x: 0.1 * x),
                                          LINE, 0.2, comp),
}


@pytest.mark.parametrize("supplied", [False, True], ids=["table", "supplied"])
@pytest.mark.parametrize("route", sorted(LINE_ROUTES))
def test_grid_weights_refuse_a_plane_path(monkeypatch, route, supplied):
    # no plane path reaches a grid weight: its (3, 2) grid is refused where
    # the path is built, and d = 2 where the model is, both by name and
    # before a rate table is built; on the line the route weighs a path
    def no_table(*args, **kwargs):
        raise AssertionError("a rate table was built for a plane path")

    monkeypatch.setattr(transform_module, "stable_rate_table", no_table)
    with pytest.raises(PathError, match=r"grid must be 1-d, got shape \(3, 2\)"):
        LINE_ROUTES[route](Path(x0=0.0, events=(), horizon=0.2, grid=np.zeros((3, 2)), dt=0.1,
                                jump_pre=(), eps=0.1), None)
    with pytest.raises(ModelError, match="got d = 2"):
        JumpDiffusionModel(d=2, alpha=1.2, c=1.0)
    monkeypatch.undo()
    path = sample_jump_diffusion_path(LINE, 0.3, 0.2, 1e-2, 0.1, RngSpec(seed=1).stream(0))
    assert path.events
    compensator = (lambda x: np.zeros(np.shape(x))) if supplied else None
    log_z = LINE_ROUTES[route](path, compensator).log_z
    assert log_z.shape == (21,) and np.all(np.isfinite(log_z))


# -- integrability probe -----------------------------------------------------

STABLE1 = JumpDiffusionModel(d=1, alpha=1.0, c=1.0)


def test_integrability_bounded_quadratic_tilt():
    phi = lambda x, y: (y - x) ** 2 / (1.0 + (y - x) ** 2)
    report = integrability_check(STABLE1, phi, (-1.0, 1.0), t=1.0)
    assert report.status == "finite"
    assert bool(report)
    assert np.isfinite(report.worst_estimate)
    # every sampled point sees the same translation-invariant integral
    vals = [v for _, v in report.per_point]
    assert max(vals) - min(vals) < 1e-3 * max(vals)


def test_integrability_linear_tilt_diverges():
    phi = lambda x, y: abs(y - x) / (1.0 + (y - x) ** 2)
    report = integrability_check(STABLE1, phi, (-1.0, 1.0), t=1.0)
    assert report.status == "divergent"
    assert not bool(report)
    assert report.worst_estimate == float("inf")


def test_integrability_root_tilt_diverges():
    phi = lambda x, y: abs(y - x) ** 0.5 / (1.0 + (y - x) ** 2)
    report = integrability_check(STABLE1, phi, (-1.0, 1.0), t=1.0)
    assert report.status == "divergent"


def test_integrability_raising_tilt_is_inconclusive():
    raised = []

    def phi(x, y):
        if np.any(np.abs(y - x) > 20.0):
            raised.append(x)
            raise ValueError("model blew up")
        return (y - x) ** 2 / (1.0 + (y - x) ** 2)

    report = integrability_check(STABLE1, phi, (-1.0, 1.0), t=1.0)
    assert report.status == "inconclusive"
    assert not bool(report)
    # the tilt's own error, at every point
    assert raised == np.linspace(-1.0, 1.0, 7).tolist()


def _quad_tilt(x, y):
    r2 = (np.asarray(y, dtype=float) - x) ** 2
    return r2 / (1.0 + r2)


@pytest.mark.parametrize("dim, region", [(1, r) for r in BAD_REGIONS + [(1.0, -1.0), (True, 2.0)]] + [
    (2, ((1.0, 1.0), (-1.0, -1.0))), (2, ((-1.0,), (1.0, 1.0, 1.0))), (2, ((-1.0, np.nan), (1.0, 1.0))),
    (2, ((-1.0, -1.0), (1.0, np.inf))), (2, ((-1.0, 1.0), (1.0, 1.0))), (2, ((False, False), (True, True))),
    (2, np.array([[-1.0, -1.0], [1.0, 1.0]])), (2, ((-1.0, -1.0), (1.0, 1.0), (2.0, 2.0))),
    (2, ((-1.0, (0.0, 1.0)), (1.0, 1.0))), (2, (("a", "b"), ("c", "d"))), (2, None)])
def test_integrability_refuses_a_bad_box_before_any_quadrature(monkeypatch, dim, region):
    # the probe's region is an interval of the line: bad intervals (dim 1)
    # and boxes of the plane, good or bad (dim 2), are refused alike
    monkeypatch.setattr(transform_module, "_kernel_rule", lambda *a, **k: pytest.fail("rule built"))
    with pytest.raises(DomainError, match="region must be a pair of finite numbers"):
        integrability_check(STABLE1, lambda x, y: pytest.fail("tilt called"), region, t=1.0)


@pytest.mark.parametrize("levels", [1, 0, -1, True, 2.0, 3.5, "4", None])
def test_integrability_refuses_too_few_levels(levels):
    # one annulus gives no decay exponent, none leaves out the disc inside delta0
    with pytest.raises(DomainError, match="levels must be an integer >= 2"):
        integrability_check(STABLE1, _quad_tilt, (-1.0, 1.0), t=1.0, levels=levels)


@pytest.mark.parametrize("levels", [2, np.int64(3)])
def test_integrability_takes_two_or_more_levels(levels):
    assert integrability_check(STABLE1, _quad_tilt, (-1.0, 1.0), t=1.0, levels=levels).status == "finite"


def test_integrability_keeps_its_value_on_a_good_box():
    report = integrability_check(STABLE1, _quad_tilt, (-1, 1), t=1.0)
    # int_0^64 r^2 / (1 + r^2) r^-2 dr on both sides, out to 4 outer = 64
    assert report.status == "finite" and report.worst_estimate == pytest.approx(2.0 * math.atan(64.0), rel=1e-12)
    # seven float points, each keyed by its 1-tuple
    assert [x for x, _ in report.per_point] == [(v,) for v in np.linspace(-1.0, 1.0, 7).tolist()]
    assert all(type(x[0]) is float for x, _ in report.per_point)


# the probe's rule against an adaptive quadrature of the same annuli; a tilt
# is smooth when |tilt| is smooth in r on each side (not so |rho(y)/rho(x) - 1|,
# kinked where rho(y) = rho(x), which a fixed rule resolves less well).  The
# remainder reads the annuli near r = 1e-6, so 1 - exp(-r^2), which cancels
# there to about 1e-4, would compare rounding noise: expm1 keeps its digits
_ORACLE_RHO = lambda x: 1.0 + 0.5 * np.exp(-np.asarray(x) ** 2)
_ORACLE_TILTS = {
    "quadratic": (lambda x, y: (y - x) ** 2 / (1.0 + (y - x) ** 2), True),
    "linear": (lambda x, y: np.abs(y - x) / (1.0 + (y - x) ** 2), True),
    "root": (lambda x, y: np.abs(y - x) ** 0.5 / (1.0 + (y - x) ** 2), True),
    "sin2": (lambda x, y: np.sin(y - x) ** 2, True),
    "expm1": (lambda x, y: -np.expm1(-(y - x) ** 2), True),
    "cos": (lambda x, y: (y - x) ** 2 * (2.0 + np.cos(x + y)) / (1.0 + (y - x) ** 4), True),
    "p15": (lambda x, y: np.abs(y - x) ** 1.5 / (1.0 + np.abs(y - x) ** 3), True),
    "tanh": (lambda x, y: np.tanh(y - x), True),
    "growth": (lambda x, y: (y - x) ** 2, True),
    "const": (lambda x, y: 0.5, True),
    "zero": (lambda x, y: 0.0, True),
    "rho": (lambda x, y: _ORACLE_RHO(y) / _ORACLE_RHO(x) - 1.0, False),
}


def _quad_point(model, phi, x, bounds, levels):
    """``(status, estimate)`` of one point from annuli integrated by ``quad``."""
    annuli = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        total = 0.0
        for side in (1.0, -1.0):
            f = lambda r: abs(phi(x, x + r * side)) * model.c * r ** (-1.0 - model.alpha)
            total += integrate.quad(f, a, b, limit=100)[0]
        annuli.append(total)
    return transform_module._annulus_verdict(annuli[levels], annuli[levels + 1], np.array(annuli[:levels][::-1]))


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("region", [(-1.0, 1.0), (0.25, 0.5), (-10.0, 10.0)])
@pytest.mark.parametrize("c", [1.0, 2.5])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 1.9])
def test_integrability_rule_matches_quad(alpha, c, region):
    # (-10, 10) reaches r = 640, where sin^2 oscillates: at alpha = 0.5 panels
    # bounded in log r alone, up to 188 wide in r there, miss it by 3.2e-3
    model = JumpDiffusionModel(d=1, alpha=alpha, c=c)
    lo, hi = region
    levels = 10
    delta0 = min(1.0, hi - lo)
    outer = 8.0 * max(1.0, hi - lo, abs(lo), abs(hi))
    bounds = [delta0 / 4.0 ** k for k in range(levels, -1, -1)] + [outer, 4.0 * outer]
    for name, (phi, smooth) in _ORACLE_TILTS.items():
        report = integrability_check(model, phi, region, t=1.0, levels=levels)
        oracle = [_quad_point(model, phi, x, bounds, levels) for (x,), _ in report.per_point]
        statuses = {s for s, _ in oracle}
        assert report.status == next(s for s in ("divergent", "inconclusive", "finite") if s in statuses), name
        for (_, value), (_, expected) in zip(report.per_point, oracle):
            assert np.isfinite(value) == np.isfinite(expected), name
            if smooth and np.isfinite(expected):
                assert value == pytest.approx(expected, rel=1e-9, abs=0.0), name


# -- the time rule of the path functionals -----------------------------------

_CHAIN3 = FiniteSymmetricModel(m=np.ones(3), q=np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 2.0], [0.0, 2.0, 0.0]]))
_RHO3 = np.array([1.0, 2.0, 1.0])
_RHO_FN = lambda x: 1.0 + 0.5 * np.exp(-np.asarray(x, dtype=float) ** 2)  # noqa: E731
_COMP = lambda x: np.full(np.shape(x), 0.7)  # noqa: E731
# horizon 2 with two jumps; horizon 1 on the grid 0, 0.5, 1 with one jump
_TIME_PATHS = {
    "chain": Path(x0=0, events=((0.5, 1), (1.5, 2)), horizon=2.0),
    "grid": Path(x0=0.0, events=((0.3, 1.2),), horizon=1.0, grid=np.array([0.0, 1.5, 2.0]),
                 dt=0.5, jump_pre=(0.2,), eps=0.1),
}
_TIME_CALLS = {
    "chain": {
        "state_at": lambda p, t: p.state_at(t),
        "integrate_along": lambda p, t: integrate_along(p, np.ones(3), t),
        "jump_sum": lambda p, t: jump_sum(p, np.ones((3, 3)), t),
        "rho_transform_mf": lambda p, t: rho_transform_mf(p, _RHO3, _CHAIN3, t),
        "pure_jump_mf": lambda p, t: pure_jump_mf(p, np.zeros((3, 3)), _CHAIN3, t),
        "general_mf": lambda p, t: general_mf(p, GeneralMF(phi=np.zeros((3, 3))), _CHAIN3, t),
        "log_weight_fn": lambda p, t: log_weight_fn(_CHAIN3, RhoTransform(_RHO3))(p, t),
        "reverse": lambda p, t: reverse(p, t),
        "lyons_zheng_residual": lambda p, t: lyons_zheng_residual(p, _RHO3, _CHAIN3, t),
        "reversal_identity_residual": lambda p, t: reversal_identity_residual(p, _RHO3, _CHAIN3, t),
    },
    "grid": {
        "state_at": lambda p, t: p.state_at(t),
        "integrate_along": lambda p, t: integrate_along(p, np.sin, t),
        "jump_sum": lambda p, t: jump_sum(p, lambda x, y: y - x, t),
        "rho_transform_mf": lambda p, t: rho_transform_mf(p, _RHO_FN, STABLE1, t, compensator=_COMP),
        "pure_jump_mf": lambda p, t: pure_jump_mf(p, lambda x, y: 0.5, STABLE1, t, compensator=_COMP),
        "general_mf": lambda p, t: general_mf(p, GeneralMF(phi=lambda x, y: 0.5), STABLE1, t,
                                              compensator=_COMP),
        "reverse": lambda p, t: reverse(p, t),
        "lyons_zheng_residual": lambda p, t: lyons_zheng_residual(p, np.sin, STABLE1, t,
                                                                  lap_u=lambda x: -np.sin(x)),
        "reversal_identity_residual": lambda p, t: reversal_identity_residual(p, _RHO_FN, STABLE1, t,
                                                                              compensator=_COMP),
    },
}


@pytest.mark.parametrize("kind, name", [(k, n) for k, calls in _TIME_CALLS.items() for n in calls])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -0.1, "twice the horizon", "1", True])
def test_path_functionals_refuse_times_outside_the_path(kind, name, bad):
    # log_weight_fn evaluates chain paths only, so it has no grid case
    path, call = _TIME_PATHS[kind], _TIME_CALLS[kind][name]
    t = 2.0 * path.horizon if bad == "twice the horizon" else bad
    call(path, path.horizon)  # the horizon itself is a time of the path
    with pytest.raises(DomainError):
        call(path, t)


@pytest.mark.parametrize("weigh", [
    lambda p, t: rho_transform_mf(p, _RHO_FN, STABLE1, t),
    lambda p, t: pure_jump_mf(p, HALF_TILT, STABLE1, t),
    lambda p, t: general_mf(p, GeneralMF(phi=HALF_TILT), STABLE1, t),
], ids=["rho", "phi", "general"])
def test_grid_routes_refuse_a_time_before_building_a_compensator(monkeypatch, weigh):
    # each route built its compensator table (5 to 20 ms) before it refused t
    monkeypatch.setattr(transform_module, "stable_rate_table", lambda *a, **k: pytest.fail("table built"))
    with pytest.raises(DomainError):
        weigh(_TIME_PATHS["grid"], 7.0)
