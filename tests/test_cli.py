import importlib.util
import json
import logging
import math
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

import girsanov
from girsanov import ConfigError, cli, dirichlet, montecarlo
from girsanov.cli import ExperimentConfig, emit_plot_data, main, run

CHAIN3_MODEL = {
    "type": "finite",
    "m": [1.0, 1.0, 1.0],
    "q": [[0.0, 1.0, 0.0], [1.0, 0.0, 2.0], [0.0, 2.0, 0.0]],
}

RHO121 = {"type": "rho", "rho": [1.0, 2.0, 1.0]}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().strip("\n").split("\n")


# -- configuration parsing ---------------------------------------------------


def test_config_round_trip():
    cfg = ExperimentConfig.from_json(json.dumps({
        "model": CHAIN3_MODEL,
        "transform": RHO121,
        "checks": ["symmetry", {"id": "semigroup", "f": [0, 1, 0], "t": 0.5}],
        "seed": 7,
        "out": "results",
    }))
    assert ExperimentConfig.from_json(cfg.to_json()) == cfg
    assert cfg.checks[0] == {"id": "symmetry"}
    assert cfg.seed == 7


def test_config_phi_auto_completion():
    cfg = ExperimentConfig.from_json(json.dumps({
        "model": CHAIN3_MODEL,
        "transform": {"type": "phi", "phi": [[0, 1, 1.0], [1, 2, -0.5]]},
    }))
    phi = cfg.resolve_transform().phi
    assert phi[0, 1] == 1.0 and phi[1, 0] == 1.0
    assert phi[1, 2] == -0.5 and phi[2, 1] == -0.5
    assert phi[0, 2] == 0.0


def test_config_phi_conflict_rejected():
    with pytest.raises(ConfigError, match="conflicting"):
        ExperimentConfig.from_json(json.dumps({
            "model": CHAIN3_MODEL,
            "transform": {"type": "phi", "phi": [[0, 1, 1.0], [1, 0, 0.25]]},
        }))
    for entry in ([1, 1, 1.0], [0.9, 1, 1.0], [0, True, 1.0]):  # [0.9, 1] would run as pair (0, 1)
        with pytest.raises(ConfigError, match="off-diagonal"):
            ExperimentConfig.from_json(json.dumps({
                "model": CHAIN3_MODEL,
                "transform": {"type": "phi", "phi": [entry]},
            }))


def test_config_rejections():
    with pytest.raises(ConfigError, match="unknown config keys"):
        ExperimentConfig.from_json(json.dumps({"model": CHAIN3_MODEL, "extras": 1}))
    with pytest.raises(ConfigError, match="unknown check id"):
        ExperimentConfig.from_json(json.dumps({"model": CHAIN3_MODEL, "checks": ["entropy"]}))
    with pytest.raises(ConfigError, match="not valid JSON"):
        ExperimentConfig.from_json("{nope")
    with pytest.raises(ConfigError, match="model"):
        ExperimentConfig.from_json(json.dumps({"checks": []}))
    with pytest.raises(ConfigError, match="invalid model"):
        ExperimentConfig.from_json(json.dumps({
            "model": {"type": "finite", "m": [1, 1], "q": [[0, -1], [1, 0]]},
        }))
    with pytest.raises(ConfigError, match="unknown model type"):
        ExperimentConfig.from_json(json.dumps({"model": {"type": "ising"}}))
    with pytest.raises(ConfigError, match="'model'"):
        ExperimentConfig.from_json(json.dumps({"model": [1, 2]}))
    with pytest.raises(ConfigError, match="'transform'"):
        ExperimentConfig.from_json(json.dumps({"model": CHAIN3_MODEL, "transform": "rho"}))
    for out in (None, 7):  # would write into ./None and ./7
        with pytest.raises(ConfigError, match="'out'"):
            ExperimentConfig.from_json(json.dumps({"model": CHAIN3_MODEL, "out": out}))
    with pytest.raises(ConfigError, match="'d'"):  # would run as d = 1
        ExperimentConfig.from_json(json.dumps({"model": {"type": "jump_diffusion", "d": 1.5, "alpha": 1.0}}))


@pytest.mark.parametrize("part, spec", [
    pytest.param("model", {"type": "jump_diffusion", "d": 1, "alpha": True}, id="alpha-true"),
    pytest.param("model", {"type": "finite", "m": ["1", "1"], "q": [[0, 1], [1, 0]]}, id="m-strings"),
    pytest.param("transform", {"type": "rho", "rho": ["1", "2", "1"]}, id="rho-strings"),
    pytest.param("transform", {"type": "general", "phi": [], "a_rate": [True, 0, 0]}, id="a_rate-bool"),
    pytest.param("transform", {"type": "phi", "phi": [[0, 1, "0.5"]]}, id="phi-value-string"),
])
def test_config_numbers_refuse_strings_and_bools(part, spec):
    config = {"model": CHAIN3_MODEL, part: spec}
    with pytest.raises(ConfigError, match="number"):
        ExperimentConfig.from_json(json.dumps(config))


@pytest.mark.parametrize("part, spec", [
    pytest.param("model", {"type": "jump_diffusion", "d": 1, "alpha": [1.0]}, id="alpha-list"),
    pytest.param("transform", {"type": "rho", "rho": [1.0, 2.0]}, id="rho-short"),
    pytest.param("transform", {"type": "general", "phi": [], "phi_delta": [0.0, 0.0, 0.0, 0.0]}, id="phi_delta-long"),
])
def test_config_values_need_their_shape(part, spec):
    with pytest.raises(ConfigError, match=f"{part} '.*' must have shape"):
        ExperimentConfig.from_json(json.dumps({"model": CHAIN3_MODEL, part: spec}))


@pytest.mark.parametrize("part, spec, message", [
    # a dropped field would change the run silently: no killing, no jump tilt, no discount
    pytest.param("model", {**CHAIN3_MODEL, "kill": [0, 1, 0]},
                 "model 'finite' has unknown fields ['kill']; it reads ['k', 'm', 'q']", id="kill"),
    pytest.param("model", {**CHAIN3_MODEL, "alpha": 1.0},
                 "model 'finite' has unknown fields ['alpha']", id="alpha-on-finite"),
    pytest.param("transform", {**RHO121, "phi": [[0, 1, 1.0]]},
                 "transform 'rho' has unknown fields ['phi']; it reads ['rho']", id="phi-on-rho"),
    pytest.param("transform", {"type": "general", "phi": [], "a-rate": [1.0, 0.0, 0.0]},
                 "transform 'general' has unknown fields ['a-rate']; it reads ['a_rate', 'phi', 'phi_delta']",
                 id="a-rate"),
    pytest.param("model", {"type": "finite", "m": [1, 1, 1]}, "model 'finite' needs 'q'", id="finite-without-q"),
])
def test_unknown_and_missing_model_and_transform_fields_exit_two(tmp_path, capsys, part, spec, message):
    cfg = write_config(tmp_path, {"model": CHAIN3_MODEL, "transform": RHO121, "checks": ["symmetry"], part: spec})
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


# -- verify ------------------------------------------------------------------


def happy_config(tmp_path, seed=0):
    return write_config(tmp_path, {
        "model": CHAIN3_MODEL,
        "transform": RHO121,
        "checks": [
            "symmetry",
            "conservativeness",
            {"id": "form_identity", "f": [0.0, 1.0, 0.0]},
        ],
        "seed": seed,
    })


def test_verify_happy_path(tmp_path):
    out = str(tmp_path / "out")
    code = main(["verify", "--config", happy_config(tmp_path), "--out", out])
    assert code == 0
    lines = read_csv(os.path.join(out, "report.csv"))
    assert lines[0] == "check_id,estimate,stderr,oracle,pass"
    assert len(lines) == 4  # three checks, one row each
    for line in lines[1:]:
        assert line.endswith(",true")
    ids = [line.split(",")[0] for line in lines[1:]]
    assert ids == ["symmetry", "conservativeness", "form_identity"]
    forms = read_csv(os.path.join(out, "forms.csv"))
    assert forms[0] == "part,value,cross_check,residual"
    parts = dict(line.split(",")[:2] for line in forms[1:])
    assert float(parts["total"]) == pytest.approx(6.0)
    assert float(parts["jump"]) == pytest.approx(6.0)
    report = json.load(open(os.path.join(out, "report.json")))
    assert all(entry["pass"] for entry in report["checks"])
    assert report["seed"] == 0


def test_verify_without_a_witness_leaves_no_older_forms(tmp_path):
    # a run that writes no forms.csv removes the one an earlier run left in
    # the same directory, which would otherwise read as this run's
    out = str(tmp_path / "out")
    assert main(["verify", "--config", happy_config(tmp_path), "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "forms.csv"))
    plain = write_config(tmp_path, {"model": CHAIN3_MODEL, "transform": RHO121, "checks": ["symmetry"]},
                         name="plain.json")
    assert main(["verify", "--config", plain, "--out", out]) == 0
    assert sorted(os.listdir(out)) == ["report.csv", "report.json"]


def test_verify_is_byte_deterministic(tmp_path):
    cfg = write_config(tmp_path, {
        "model": CHAIN3_MODEL,
        "transform": RHO121,
        "checks": [
            "symmetry",
            {"id": "semigroup", "f": [0.0, 1.0, 0.0], "t": 0.5},
            {"id": "quadratic_form", "f": [0.0, 1.0, 0.0], "ts": [0.4, 0.2]},
        ],
        "seed": 3,
    })
    outs = []
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        assert main(["verify", "--config", cfg, "--out", out, "--paths", "800"]) == 0
        outs.append({
            name: open(os.path.join(out, name), "rb").read()
            for name in ("report.csv", "report.json")
        })
    assert outs[0] == outs[1]


def test_verify_monte_carlo_checks(tmp_path):
    out = str(tmp_path / "out")
    cfg = write_config(tmp_path, {
        "model": {**CHAIN3_MODEL, "k": [0.0, 1.0, 0.0]},
        "transform": RHO121,
        "checks": [
            {"id": "mass", "x": 1, "t": 1.0},
            {"id": "symmetry_gap", "f": [0.0, 1.0, 0.0], "g": [1.0, 0.0, 2.0]},
            {"id": "jump_rate", "pair": [0, 1]},
        ],
        "seed": 1,
    })
    assert main(["verify", "--config", cfg, "--out", out, "--paths", "3000"]) == 0
    lines = read_csv(os.path.join(out, "report.csv"))
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert float(rows["mass"][3]) == pytest.approx(1.0)  # tilt absorbs killing
    assert float(rows["jump_rate"][3]) == pytest.approx(2.0)
    assert rows["symmetry_gap"][4] == "true"


def test_verify_exit_one_on_statistical_miss(tmp_path):
    # seed 12 at 400 paths puts the semigroup CI legitimately off its
    # oracle (about one config in twenty does, by construction of a 95%
    # interval); frozen here to pin the failure branch
    cfg = write_config(tmp_path, {
        "model": CHAIN3_MODEL,
        "transform": RHO121,
        "checks": [{"id": "semigroup", "f": [0.0, 1.0, 0.0], "t": 0.5, "x": 0}],
        "seed": 12,
    })
    out = str(tmp_path / "out")
    assert main(["verify", "--config", cfg, "--out", out, "--paths", "400"]) == 1
    line = read_csv(os.path.join(out, "report.csv"))[1]
    assert line.startswith("semigroup") and line.endswith(",false")


# every jump out of state 0 is tilted by -1, so on [0, 4] at exit rate 10
# every path from 0 has weight 0 and the jump rate of (0, 1) is 0 / 0
ZEROED_FROM_0 = {"model": {"type": "finite", "m": [1, 1, 1], "q": [[0, 5, 5], [5, 0, 1], [5, 1, 0]]},
                 "transform": {"type": "general", "phi": [[0, 1, -1], [0, 2, -1]]}}


def test_verify_exit_two_when_every_path_weight_is_zero(tmp_path, capsys):
    cfg = write_config(tmp_path, {**ZEROED_FROM_0, "checks": [
        "symmetry", {"id": "jump_rate", "pair": [0, 1], "horizon": 4, "paths": 2000}]})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "undefined" in err and "Traceback" not in err


def test_verify_seed_override(tmp_path):
    cfg = write_config(tmp_path, {
        "model": CHAIN3_MODEL,
        "transform": RHO121,
        "checks": [{"id": "semigroup", "f": [0.0, 1.0, 0.0], "t": 0.5, "x": 0}],
        "seed": 0,
    })
    out = str(tmp_path / "out")
    assert main(["verify", "--config", cfg, "--out", out, "--paths", "400"]) == 0
    assert main(["verify", "--config", cfg, "--out", out, "--paths", "400",
                 "--seed", "12"]) == 1


def test_verify_exit_two_on_bad_model(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"type": "finite", "m": [1.0, 1.0],
                  "q": [[0.0, 1.0], [2.0, 0.0]]},
        "checks": ["symmetry"],
    })
    # detailed-balance violation: q is fine structurally, so the config
    # loads, but the symmetry check must report the violation
    out = str(tmp_path / "out")
    assert main(["verify", "--config", cfg, "--out", out]) == 1
    line = read_csv(os.path.join(out, "report.csv"))[1]
    assert line.endswith(",false")

    bad = write_config(tmp_path, {
        "model": {"type": "finite", "m": [1.0, -1.0], "q": [[0.0, 1.0], [1.0, 0.0]]},
        "checks": ["symmetry"],
    }, name="bad.json")
    assert main(["verify", "--config", bad, "--out", out]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_exit_two_on_missing_pieces(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["verify", "--config", str(tmp_path / "absent.json"), "--out", out]) == 2
    cfg = write_config(tmp_path, {
        "model": CHAIN3_MODEL,
        "checks": ["conservativeness"],  # needs a transform
    })
    assert main(["verify", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


# -- exact oracles under killing --------------------------------------------

KILLED_MODEL = {**CHAIN3_MODEL, "k": [0.0, 1.0, 0.0]}
PHI_TILT = {"type": "phi", "phi": [[0, 1, 1.0], [1, 2, -0.5]]}
GENERAL_TILT = {
    "type": "general",
    "phi": [[0, 1, 1.0], [1, 0, 1.0], [1, 2, -0.5], [2, 1, -0.5]],
    "a_rate": [0.5, 0.0, 0.0],
    "phi_delta": [0.0, -0.5, 0.0],
}


def verify_report(tmp_path, transform, checks, paths=2000, model=KILLED_MODEL):
    cfg = write_config(tmp_path, {"model": model, "transform": transform,
                                  "checks": checks, "seed": 7})
    out = str(tmp_path / "out")
    code = main(["verify", "--config", cfg, "--out", out, "--paths", str(paths)])
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        return code, {row["check_id"]: row for row in json.load(fh)["checks"]}


def test_energy_oracle_counts_dead_paths_under_a_jump_tilt(tmp_path):
    # the killing-blind value (<f, f> - <f, P_t f>) / t would be 2.4871
    _code, rows = verify_report(tmp_path, PHI_TILT,
                                [{"id": "quadratic_form", "f": [0, 1, 0], "ts": [0.2]}])
    assert rows["quadratic_form"]["oracle"] == pytest.approx(2.1325, abs=5e-5)


def test_energy_oracle_keeps_death_tilt_and_discount_of_general_transform(tmp_path):
    code, rows = verify_report(tmp_path, GENERAL_TILT,
                               [{"id": "quadratic_form", "f": [0, 1, 0], "ts": [0.2]}],
                               paths=20_000)
    assert rows["quadratic_form"]["oracle"] == pytest.approx(1.9868, abs=5e-5)
    assert code == 0 and rows["quadratic_form"]["pass"]


def test_mass_and_semigroup_oracles_for_general_transform(tmp_path):
    code, rows = verify_report(tmp_path, GENERAL_TILT, [
        {"id": "mass", "x": 0, "t": 0.5},
        {"id": "semigroup", "f": [0, 1, 0], "x": 1, "t": 0.5},
    ], paths=20_000)
    assert code == 0
    assert rows["mass"]["pass"] and rows["semigroup"]["pass"]
    # a constant discount alone scales the mass by exp(-a t)
    discount = {"type": "general", "phi": [], "a_rate": [0.5, 0.5, 0.5]}
    _code, rows = verify_report(tmp_path, discount, [{"id": "mass", "x": 2, "t": 0.8}],
                                model=CHAIN3_MODEL)
    assert rows["mass"]["oracle"] == pytest.approx(math.exp(-0.4), rel=1e-12)


def _exact_symmetry_gap(phi_entries, f, g, t):
    # built here from the chain3 rates, not through the package
    q = np.array(CHAIN3_MODEL["q"])
    phi = np.zeros((3, 3))
    for x, y, v in phi_entries:
        phi[x, y] = v
    gen = (1.0 + phi) * q
    np.fill_diagonal(gen, -gen.sum(axis=1))
    p = expm(t * gen)
    f, g = np.asarray(f, dtype=float), np.asarray(g, dtype=float)
    return float(np.sum(np.array(CHAIN3_MODEL["m"]) * (g * (p @ f) - f * (p @ g))))


@pytest.mark.parametrize("phi_entries, value", [
    # GeneralMF.from_rho((1, 2, 1)): the README rho tilt, whose reversing
    # measure is rho^2 m rather than the start measure m
    ([[0, 1, 1.0], [1, 0, -0.5], [1, 2, -0.5], [2, 1, 1.0]], 0.421499),
    ([[0, 1, 1.0], [1, 0, -0.5]], 0.319049),
])
def test_symmetry_gap_oracle_of_general_transform(tmp_path, phi_entries, value):
    transform = {"type": "general", "phi": phi_entries}
    if len(phi_entries) == 4:
        transform["phi_delta"] = [-1.0, -1.0, -1.0]
    f, g, t = [0, 1, 0], [1, 0, 0], 0.7
    code, rows = verify_report(tmp_path, transform,
                               [{"id": "symmetry_gap", "f": f, "g": g, "t": t}],
                               paths=20_000, model=CHAIN3_MODEL)
    row = rows["symmetry_gap"]
    exact = _exact_symmetry_gap(phi_entries, f, g, t)
    assert exact == pytest.approx(value, abs=5e-7)
    assert row["oracle"] == pytest.approx(exact, rel=1e-12)
    lo, hi = row["estimate"] - 1.96 * row["stderr"], row["estimate"] + 1.96 * row["stderr"]
    assert lo <= exact <= hi
    assert code == 0 and row["pass"]


# -- the oracles' matrix exponential ----------------------------------------

GENERAL_FROM_RHO = {  # GeneralMF.from_rho((1, 2, 1)): not in detailed balance with m
    "type": "general",
    "phi": [[0, 1, 1.0], [1, 0, -0.5], [1, 2, -0.5], [2, 1, 1.0]],
    "phi_delta": [-1.0, -1.0, -1.0],
}


@pytest.mark.parametrize("model, transform", [
    pytest.param(CHAIN3_MODEL, RHO121, id="rho"),
    pytest.param(KILLED_MODEL, RHO121, id="rho-killed"),
    pytest.param(KILLED_MODEL, PHI_TILT, id="phi-killed"),
    pytest.param(KILLED_MODEL, GENERAL_TILT, id="general-killed-a_rate"),
    pytest.param(CHAIN3_MODEL, {"type": "general", "phi": [], "a_rate": [0.5, 0.5, 0.5]}, id="a_rate"),
    pytest.param(CHAIN3_MODEL, GENERAL_FROM_RHO, id="general-from-rho"),
    pytest.param(CHAIN3_MODEL, {"type": "general", "phi": [[0, 1, 1.0], [1, 0, -0.5]]}, id="general-one-way"),
])
def test_expm_matches_scipy_on_the_oracle_generators(model, transform):
    cfg = ExperimentConfig.from_json(json.dumps({"model": model, "transform": transform}))
    gen = dirichlet.cemetery_generator(*cfg.resolve())
    for t in (0.05, 0.1, 0.2, 0.4, 0.5, 0.7, 0.8, 1.0, 2.0, 3.0):  # every horizon the checks above read
        np.testing.assert_allclose(cli.expm(t * gen), expm(t * gen), rtol=0.0, atol=1e-14)


def _frobenius_error(approx, exact):
    scale = np.abs(exact).max()  # so that the squares of a large exponential do not overflow
    return np.linalg.norm((approx - exact) / scale) / np.linalg.norm(exact / scale)


def test_expm_of_dense_nonsymmetric_matrices():
    # against 40 digits: at norm 1e3 SciPy's own error reaches about 1e-12
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(13)
    for norm in 10.0 ** np.arange(-3, 4):
        for _ in range(3):
            a = rng.standard_normal((6, 6))
            a *= norm / np.linalg.norm(a, 1)
            with mpmath.workdps(40):
                exact = np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(), dtype=float)
            assert _frobenius_error(cli.expm(a), exact) <= 1e-12, norm
            # expm(2 b) = expm(b)^2 with b = a / 2: a check of the unscaled Pade
            # step while the 1-norm is below theta_13, exact by construction above
            half = cli.expm(0.5 * a)
            assert _frobenius_error(half @ half, cli.expm(a)) <= 1e-12, norm


def test_expm_of_zero_is_the_identity():
    assert np.array_equal(cli.expm(np.zeros((5, 5))), np.eye(5))


@pytest.mark.parametrize("check, calls", [
    ({"id": "mass", "t": 0.5}, 1),
    ({"id": "semigroup", "f": [0, 1, 0], "t": 0.5}, 1),
    ({"id": "symmetry_gap", "f": [0, 1, 0], "g": [1, 0, 0]}, 1),
    ({"id": "quadratic_form", "f": [0, 1, 0], "ts": [0.2, 0.1]}, 2),
])
def test_oracles_exponentiate_through_the_module_attribute(tmp_path, monkeypatch, check, calls):
    # a tracer replaces cli.expm to time the oracles
    shapes = []
    exponential = cli.expm
    monkeypatch.setattr(cli, "expm", lambda a: shapes.append(a.shape) or exponential(a))
    cfg = ExperimentConfig.from_json(json.dumps({"model": KILLED_MODEL, "transform": PHI_TILT, "checks": [check]}))
    assert run(cfg, out_dir=str(tmp_path), paths=200) in (0, 1)
    assert shapes == [(4, 4)] * calls  # three states and the cemetery


def test_run_exponentiates_once_per_distinct_horizon(tmp_path, monkeypatch):
    # four checks read t = 2 and one reads t = 3: two exponentials serve them all
    horizons = []
    exponential = cli.expm
    monkeypatch.setattr(cli, "expm", lambda a: horizons.append(a.copy()) or exponential(a))
    f, g = [0, 1, 0], [1, 0, 0]
    checks = [{"id": "mass", "t": 2.0}, {"id": "semigroup", "f": f, "t": 2.0},
              {"id": "symmetry_gap", "f": f, "g": g, "t": 2.0}, {"id": "quadratic_form", "f": f, "ts": [3.0, 2.0]}]
    cfg = ExperimentConfig.from_json(json.dumps({"model": KILLED_MODEL, "transform": PHI_TILT, "checks": checks}))
    assert run(cfg, out_dir=str(tmp_path), paths=200) in (0, 1)
    gen = dirichlet.cemetery_generator(*cfg.resolve())
    assert len(horizons) == 2  # mass asks for t = 2 first, quadratic_form for t = 3
    assert np.array_equal(horizons[0], 2.0 * gen) and np.array_equal(horizons[1], 3.0 * gen)


def test_run_resolves_the_model_once(tmp_path, monkeypatch):
    cfg = ExperimentConfig.from_json(json.dumps({"model": KILLED_MODEL, "transform": PHI_TILT,
                                                 "checks": ["symmetry"]}))
    parts = []
    resolve = cli._resolve
    monkeypatch.setattr(cli, "_resolve", lambda part, *args: parts.append(part) or resolve(part, *args))
    assert run(cfg, out_dir=str(tmp_path)) == 0
    assert parts == ["model", "transform"]
    model, transform = cfg.resolve()
    assert np.array_equal(transform.phi, cfg.resolve_transform().phi)
    assert np.array_equal(model.k, cfg.resolve_model().k)


def test_run_builds_the_cemetery_generator_once(tmp_path, monkeypatch):
    # five checks read it (mass, semigroup, symmetry_gap, quadratic_form and
    # the form identity); one build serves them all
    builds = []
    build = dirichlet.cemetery_generator
    monkeypatch.setattr(dirichlet, "cemetery_generator", lambda *args: builds.append(1) or build(*args))
    checks = ["symmetry", {"id": "form_identity", "f": [1, 0, -1]}, {"id": "mass", "t": 0.5},
              {"id": "semigroup", "f": [0, 1, 0], "t": 0.5}, {"id": "symmetry_gap", "f": [0, 1, 0], "g": [1, 0, 0]},
              {"id": "quadratic_form", "f": [0, 1, 0], "ts": [0.2, 0.1]}, {"id": "jump_rate", "pair": [0, 1]}]
    cfg = ExperimentConfig.from_json(json.dumps({"model": KILLED_MODEL, "transform": PHI_TILT, "checks": checks}))
    assert run(cfg, out_dir=str(tmp_path), paths=200) in (0, 1)
    assert len(builds) == 1


def bench_workloads():
    """``bench/workloads.py``, which holds the benchmark's chain configs."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location("bench_workloads", os.path.join(root, "bench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["chain-readme", "chain-killed"])
def test_run_builds_one_lowering(tmp_path, monkeypatch, workload):
    # the engine, the oracles' mu and cemetery generator, and the transformed
    # jump measure, killing and kernel all read one lowering
    builds = []
    build = girsanov.transform._build_lowering
    monkeypatch.setattr(girsanov.transform, "_build_lowering",
                        lambda *args: builds.append(1) or build(*args))
    cfg = ExperimentConfig.from_json(bench_workloads().config_text(workload))
    assert run(cfg, out_dir=str(tmp_path), seed=0) == 0
    assert len(builds) == 1


# -- the form identity, batched over its draws ------------------------------


def _killed_ring(n=24):
    """A ring with moves to the nearest and next-nearest states, killing at
    every sixth state and a symmetric jump tilt, as a config."""
    x = np.arange(n)
    m = 1.0 + 0.5 * np.sin(2.0 * np.pi * x / n)
    q = np.zeros((n, n))
    phi = []
    for i in range(n):
        for d, rate, tilt in ((1, 1.6, 0.3), (2, 0.6, -0.25)):
            j = (i + d) % n
            q[i, j] = q[j, i] = rate * (1.0 + 0.3 * np.cos(2.0 * np.pi * (i + 0.5 * d) / n))
            phi.append([i, j, tilt * math.cos(6.0 * math.pi * i / n)])
    q /= m[:, None]
    k = np.where(x % 6 == 3, 1.0, 0.0)
    return {"model": {"type": "finite", "m": m.tolist(), "q": q.tolist(), "k": k.tolist()},
            "transform": {"type": "phi", "phi": phi}}


FORM_CONFIGS = {"readme": {"model": CHAIN3_MODEL, "transform": RHO121}, "killed-ring-24": _killed_ring()}


def _form_residual_by_draws(model, transform, draws, seed):
    """The form-identity residual of every draw, summed from the definition
    one freshly drawn vector at a time, and the generator block and mu it
    was summed with."""
    n = model.n
    J, kappa = girsanov.transformed_jump_measure(model, transform), girsanov.transformed_killing(model, transform)
    gen, mu = dirichlet.cemetery_generator(model, transform)[:n, :n], girsanov.transform.lower(model, transform).mu
    rng = girsanov.RngSpec(seed).stream(0)
    out = []
    for _ in range(draws):
        f = rng.uniform(-1.0, 1.0, size=n)
        d = f[:, None] - f[None, :]
        total = 0.0 + float(np.sum(J * d * d)) + float(np.sum(kappa * f * f))
        cross = float(-np.sum((gen @ f) * f * mu))
        out.append(abs(total - cross) / max(1.0, abs(total)))
    return (gen, mu), np.array(out)


@pytest.mark.parametrize("name", sorted(FORM_CONFIGS))
def test_batched_form_identity_equals_the_loop_over_draws(tmp_path, name):
    model, transform = ExperimentConfig.from_json(json.dumps(FORM_CONFIGS[name])).resolve()
    block = cli._FORM_BLOCK // model.n ** 2  # 3640 draws on the README chain, 56 on the ring
    for draws in (1, 200, 2 * block + 5):
        seed = 3 + draws
        (gen, mu), by_draw = _form_residual_by_draws(model, transform, draws, seed)
        rng = girsanov.RngSpec(seed).stream(0)
        *_parts, batched = dirichlet._form_duality(model, transform, gen, mu)(
            rng.uniform(-1.0, 1.0, size=(draws, model.n)))
        assert np.array_equal(batched, by_draw), draws
        cfg = ExperimentConfig.from_json(json.dumps({**FORM_CONFIGS[name], "seed": seed,
                                                     "checks": [{"id": "form_identity", "draws": draws}]}))
        assert run(cfg, out_dir=str(tmp_path / f"{draws}")) == 0
        with open(tmp_path / f"{draws}" / "report.json", encoding="utf-8") as fh:
            [row] = json.load(fh)["checks"]
        assert row["estimate"] == max(0.0, by_draw.max()), draws


def test_form_identity_vectors_are_stream_zero_over_every_call_split(tmp_path, monkeypatch):
    # n = 3, so calls after the first start inside a Philox block of four
    # words: at value 594 for calls of 198 draws (600), 99 for 33 (100)
    cfg = ExperimentConfig.from_json(json.dumps({**FORM_CONFIGS["readme"], "seed": 2**63 + 5,
                                                 "checks": [{"id": "form_identity", "draws": 1000}]}))
    want = girsanov.RngSpec(cfg.seed).stream(0).uniform(-1.0, 1.0, (1000, 3))
    duality = dirichlet._form_duality

    def traced(*args):
        evaluate = duality(*args)
        return lambda fs: seen.append(fs.copy()) or evaluate(fs)

    monkeypatch.setattr(dirichlet, "_form_duality", traced)
    for size in (cli._FORM_BLOCK, 600, 100):
        monkeypatch.setattr(cli, "_FORM_BLOCK", size)
        seen = []
        assert run(cfg, out_dir=str(tmp_path / str(size))) == 0
        got = np.concatenate(seen)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), size
        assert len(seen) == -(-1000 // max(1, size // 9)), size


def test_checks_are_validated_before_any_sampling(tmp_path, monkeypatch, capsys):
    calls = []
    for name in ("estimate_chain", "estimate_transformed_semigroup", "estimate_mass", "quadratic_form_trend"):
        monkeypatch.setattr(montecarlo, name, lambda *a, name=name, **k: calls.append(name))
    cfg = write_config(tmp_path, {
        "model": KILLED_MODEL,
        "transform": GENERAL_TILT,
        "checks": ["symmetry", {"id": "semigroup", "f": [0, 1, 0], "t": 0.5}, "form_identity"],
    })
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
    assert "form_identity" in capsys.readouterr().err
    assert calls == []
    assert not (out / "report.csv").exists()


@pytest.mark.parametrize("check", [
    {"id": "semigroup", "f": [0, 1]},
    {"id": "mass", "x": 3},
    {"id": "jump_rate", "pair": [1, 1]},
    {"id": "symmetry_gap", "f": [0, 1, 0]},
    {"id": "semigroup", "f": [0, "a", 0], "t": 0.5},  # a traceback once
    {"id": "semigroup", "f": [0, None, 0], "t": 0.5},  # a NaN report once
    {"id": "mass", "t": "0.5"},
    {"id": "mass", "t": True},
    {"id": "quadratic_form", "f": [0, 1, 0], "ts": 0.2},
    {"id": "jump_rate", "pair": 1},
    {"id": "form_identity", "f": [0, float("nan"), 0]},
])
def test_malformed_check_fields_exit_two(tmp_path, monkeypatch, check, capsys):
    calls = []
    monkeypatch.setattr(montecarlo, "estimate_chain", lambda *a, **k: calls.append(a))
    cfg = write_config(tmp_path, {"model": CHAIN3_MODEL, "transform": RHO121, "checks": ["symmetry", check]})
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
    assert f"check {check['id']!r}" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("check, paths", [
    ({"id": "quadratic_form", "f": [0, 1, 0], "ts": [0.0]}, None),
    ({"id": "jump_rate", "pair": [0, 1], "horizon": 0.0}, None),
    ({"id": "semigroup", "f": [0, 1, 0], "t": -1}, None),
    ({"id": "mass", "paths": 1}, None),
    ({"id": "quadratic_form", "f": [0, 1, 0], "ts": [0.2, float("nan")]}, None),
    ({"id": "symmetry_gap", "f": [0, 1, 0], "g": [1, 0, 0], "t": float("inf")}, None),
    ({"id": "mass"}, "1"),
])
def test_times_and_path_counts_are_validated_before_any_sampling(tmp_path, monkeypatch, capsys,
                                                                 check, paths):
    calls = []
    monkeypatch.setattr(montecarlo, "estimate_chain", lambda *a, **k: calls.append(a))
    cfg = write_config(tmp_path, {"model": CHAIN3_MODEL, "transform": RHO121,
                                  "checks": ["symmetry", check]})
    out = tmp_path / "out"
    argv = ["verify", "--config", cfg, "--out", str(out)]
    assert main(argv + (["--paths", paths] if paths else [])) == 2
    assert "error:" in capsys.readouterr().err
    assert calls == []
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("check", [
    {"id": "mass", "T": 0.5, "path": 10, "paths": 2000},  # misspelt t and paths
    {"id": "symmetry_gap", "f": [0, 1, 0], "g": [1, 0, 0], "x": 1},  # starts from mu, not x
    {"id": "form_identity", "draws": 0},
    {"id": "form_identity", "draws": -5},
    {"id": "form_identity", "draws": 2.5},
    {"id": "form_identity", "draws": True},
])
def test_unread_fields_and_empty_draws_exit_two(tmp_path, monkeypatch, capsys, check):
    calls = []
    monkeypatch.setattr(montecarlo, "estimate_chain", lambda *a, **k: calls.append(a))
    cfg = write_config(tmp_path, {"model": CHAIN3_MODEL, "transform": RHO121, "checks": ["symmetry", check]})
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("check", [
    {"id": "semigroup", "f": [0, 1, 0], "t": 0.5, "paths": 2.9},  # would run 2 paths
    {"id": "semigroup", "f": [0, 1, 0], "x": 1.7, "t": 0.5},  # would start from state 1
    {"id": "mass", "x": True, "t": 0.5},
    {"id": "mass", "x": "0", "t": 0.5},
    {"id": "mass", "t": 0.5, "paths": True},
    {"id": "mass", "t": 0.5, "paths": "2000"},
    {"id": "jump_rate", "pair": [0.0, 1], "horizon": 0.5},
    {"id": "jump_rate", "pair": [0, 1.9], "horizon": 0.5},
    {"id": "jump_rate", "pair": [False, 1], "horizon": 0.5},
    {"id": "mass", "x": None, "t": 0.5},  # would start from mu, where the oracle reads one state
    {"id": "semigroup", "f": [0, 1, 0], "x": None, "t": 0.5},
])
def test_non_integer_counts_and_states_exit_two_before_any_file(tmp_path, monkeypatch, capsys, check):
    calls = []
    monkeypatch.setattr(montecarlo, "estimate_chain", lambda *a, **k: calls.append(a))
    cfg = write_config(tmp_path, {"model": CHAIN3_MODEL, "transform": RHO121, "checks": ["symmetry", check]})
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def test_a_number_for_the_weights_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": {"type": "finite", "m": 1.0, "q": [[0.0]]}, "checks": ["symmetry"]})
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
    assert "error: invalid model: m must be a nonempty 1-d array" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("big", [1e308, 1e200])
def test_a_rho_whose_measure_overflows_exits_two(tmp_path, capsys, big):
    # rho^2 m is inf: 1e308 ended in an OverflowError traceback from
    # cli.expm, 1e200 exited 1 with NaN rows and RuntimeWarnings
    cfg = write_config(tmp_path, {
        "model": CHAIN3_MODEL, "transform": {"type": "rho", "rho": [1.0, big, 1.0]},
        "checks": ["symmetry", "conservativeness", "form_identity",
                   {"id": "semigroup", "f": [0.0, 1.0, 0.0], "t": 0.5, "paths": 20_000},
                   {"id": "quadratic_form", "f": [0.0, 1.0, 0.0], "ts": [0.2, 0.1, 0.05], "paths": 20_000}]})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
    assert "error: rho^2 m overflows at states [1]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed, argv", [(-3, []), ("abc", []), (2.0, []), (2**64, []), (0, ["--seed", "-1"]),
                                        (0, ["--seed", str(2**64)])])
def test_bad_seed_exits_two_before_any_file(tmp_path, capsys, seed, argv):
    cfg = write_config(tmp_path, {"model": CHAIN3_MODEL, "transform": RHO121,
                                  "checks": ["symmetry"], "seed": seed})
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)] + argv) == 2
    assert "seed" in capsys.readouterr().err
    assert not out.exists()
    assert main(["simulate", "--config", cfg, "--out", str(out), "--paths", "1"] + argv) == 2
    assert not out.exists()


def _all_chain_checks():
    f, g = [0.5, 1.0, -0.25], [1.0, 0.0, 2.0]
    return [
        "symmetry",
        {"id": "form_identity", "f": f},
        {"id": "mass", "x": 0, "t": 2.0},
        {"id": "semigroup", "f": f, "x": 0, "t": 2.0},
        {"id": "symmetry_gap", "f": f, "g": g, "t": 2.0},
        {"id": "quadratic_form", "f": f, "ts": [3.0, 2.0]},
        {"id": "jump_rate", "pair": [0, 1], "horizon": 2.0},
    ]


def _verify_json(tmp_path, name, checks):
    cfg = write_config(tmp_path, {"model": KILLED_MODEL, "transform": PHI_TILT, "checks": checks,
                                  "seed": 5}, name=f"{name}.json")
    out = tmp_path / name
    main(["verify", "--config", cfg, "--out", str(out), "--paths", "600"])
    with open(out / "report.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_checks_reading_the_same_streams_share_one_batch(tmp_path, monkeypatch):
    chunk = montecarlo._ChainEngine._chunk
    runs = []

    def counted(self, *args, **kwargs):
        runs.append(args[2])  # the horizons of the run
        return chunk(self, *args, **kwargs)

    monkeypatch.setattr(montecarlo._ChainEngine, "_chunk", counted)
    together = _verify_json(tmp_path, "together", _all_chain_checks())
    # mass, semigroup and jump_rate from x = 0 to t = 2; symmetry_gap at t = 2
    # and quadratic_form at t = 3 on the first block; quadratic_form at t = 2
    # on the second block: three runs where each check alone would make six
    assert sorted(runs) == [(2.0,), (2.0,), (2.0, 3.0)]
    alone = {"checks": [], "series": []}
    for idx, check in enumerate(_all_chain_checks()):
        report = _verify_json(tmp_path, f"alone{idx}", [check])
        alone["checks"] += report["checks"]
        alone["series"] += report["series"]
    assert len(runs) == 3 + 6
    assert together["checks"] == alone["checks"]
    assert together["series"] == alone["series"]


def test_check_log_lines_follow_the_shared_sampling(tmp_path, caplog):
    checks = ["symmetry", {"id": "mass", "t": 0.5}, "form_identity"]
    cfg = write_config(tmp_path, {"model": CHAIN3_MODEL, "transform": RHO121, "checks": checks})
    with caplog.at_level(logging.INFO, logger="girsanov"):
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out"), "--paths", "200"]) == 0
    lines = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith(("sampling", "running check"))]
    assert lines == ["sampling 1 chain requests", "running check symmetry",
                     "running check mass", "running check form_identity"]


# -- plotdata ----------------------------------------------------------------


def test_plotdata_from_report(tmp_path):
    cfg = write_config(tmp_path, {
        "model": CHAIN3_MODEL,
        "transform": RHO121,
        "checks": [
            {"id": "quadratic_form", "f": [0.0, 1.0, 0.0], "ts": [0.4, 0.2, 0.1]},
            {"id": "jump_rate", "pair": [0, 1], "horizon": 2.0},
        ],
        "seed": 4,
    })
    out = str(tmp_path / "out")
    main(["verify", "--config", cfg, "--out", out, "--paths", "500"])
    assert main(["plotdata", "--report", os.path.join(out, "report.json"),
                 "--out", out]) == 0
    lines = read_csv(os.path.join(out, "plot.csv"))
    assert lines[0] == "check_id,t,estimate,stderr,oracle"
    assert len(lines) == 5  # three trend times + one jump-rate row
    ids = [ln.split(",")[0] for ln in lines[1:]]
    assert ids == sorted(ids)
    qf_ts = [float(ln.split(",")[1]) for ln in lines[1:] if ln.startswith("quadratic_form")]
    assert qf_ts == sorted(qf_ts)


def test_plotdata_empty_series(tmp_path):
    out = str(tmp_path / "plot.csv")
    emit_plot_data({"series": []}, out)
    assert read_csv(out) == ["check_id,t,estimate,stderr,oracle"]


def test_plotdata_missing_report(tmp_path, capsys):
    assert main(["plotdata", "--report", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("report", [
    pytest.param([], id="json-list"),
    pytest.param({"series": [{"t": 0.2, "estimate": 1.0, "stderr": 0.1, "oracle": 1.0}]}, id="no-check_id"),
    pytest.param({"series": [{"check_id": "jump_rate", "t": "late", "estimate": 1.0, "stderr": 0.1,
                              "oracle": 1.0}]}, id="t-not-a-number"),
])
def test_plotdata_malformed_report_exits_two(tmp_path, capsys, report):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    out = tmp_path / "plots"
    assert main(["plotdata", "--report", str(path), "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_plotdata_sorted_stably(tmp_path):
    report = {"series": [
        {"check_id": "b", "t": 0.2, "estimate": 1.0, "stderr": 0.1, "oracle": 1.0},
        {"check_id": "a", "t": 0.4, "estimate": 2.0, "stderr": 0.1, "oracle": 2.0},
        {"check_id": "a", "t": 0.2, "estimate": 3.0, "stderr": 0.1, "oracle": 3.0},
    ]}
    out = str(tmp_path / "plot.csv")
    emit_plot_data(report, out)
    rows = [ln.split(",")[:2] for ln in read_csv(out)[1:]]
    assert rows == [["a", "0.20000000000000001"],
                    ["a", "0.40000000000000002"],
                    ["b", "0.20000000000000001"]]


# -- simulate ----------------------------------------------------------------


def test_simulate_finite_model(tmp_path):
    cfg = write_config(tmp_path, {"model": CHAIN3_MODEL})
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfg, "--out", out, "--paths", "5",
                 "--horizon", "2.0"]) == 0
    lines = read_csv(os.path.join(out, "paths.csv"))
    assert lines[0] == "path,time,state,event_flag"
    indices = {ln.split(",")[0] for ln in lines[1:]}
    assert indices == {"0", "1", "2", "3", "4"}


JD_MODEL = {"type": "jump_diffusion", "d": 1, "alpha": 1.0, "c": 1.0}


def test_simulate_jump_diffusion_model(tmp_path):
    cfg = write_config(tmp_path, {"model": JD_MODEL})
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfg, "--out", out, "--paths", "2",
                 "--horizon", "0.1", "--dt", "0.01", "--eps", "0.05"]) == 0
    lines = read_csv(os.path.join(out, "paths.csv"))
    assert lines[0] == "path,time,x0,event_flag"
    # 2 paths x (11 grid rows + any jump rows)
    assert len(lines) >= 23


@pytest.mark.parametrize("model, argv", [
    (CHAIN3_MODEL, ["--horizon", "nan"]),  # the event loop never ended
    (CHAIN3_MODEL, ["--horizon", "inf"]),
    (CHAIN3_MODEL, ["--horizon", "0"]),
    (CHAIN3_MODEL, ["--horizon", "-1"]),
    (CHAIN3_MODEL, ["--paths", "-2"]),  # a header-only file once
    (CHAIN3_MODEL, ["--paths", "0"]),
    (JD_MODEL, ["--horizon", "nan"]),
    (JD_MODEL, ["--dt", "0"]),
    (JD_MODEL, ["--eps", "0"]),
])
def test_simulate_rejects_bad_options_before_any_file(tmp_path, capsys, model, argv):
    cfg = write_config(tmp_path, {"model": model})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)] + argv) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_a_plane_jump_diffusion_exits_two_at_config_time(tmp_path, capsys, monkeypatch, command):
    # the jump diffusion is one-dimensional: d = 2 is refused by name while the
    # config is read, before any path is sampled or any file written
    monkeypatch.setattr(montecarlo, "sample_jump_diffusion_path", lambda *a, **k: pytest.fail("sampled"))
    cfg = write_config(tmp_path, {"model": {**JD_MODEL, "d": 2}})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error: invalid model: the jump diffusion is one-dimensional: d must be 1, got d = 2" in err
    assert not out.exists()


def test_simulate_deterministic(tmp_path):
    cfg = write_config(tmp_path, {"model": CHAIN3_MODEL, "seed": 9})
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    main(["simulate", "--config", cfg, "--out", a, "--paths", "4"])
    main(["simulate", "--config", cfg, "--out", b, "--paths", "4"])
    assert open(os.path.join(a, "paths.csv"), "rb").read() == \
        open(os.path.join(b, "paths.csv"), "rb").read()


# -- process-level behaviour -------------------------------------------------


def _src_env(**extra):
    """Environment whose PYTHONPATH starts with the ``src`` holding this girsanov."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(girsanov.__file__)))
    inherited = os.environ.get("PYTHONPATH")
    pythonpath = src + os.pathsep + inherited if inherited else src
    return dict(os.environ, PYTHONPATH=pythonpath, **extra)


def check_logging_levels(launcher, tmp_path):
    """Run ``verify`` in a fresh process; ``main`` sets logging from GIRSANOV_LOG."""
    cfg = happy_config(tmp_path)
    out = str(tmp_path / "out")
    proc = subprocess.run(
        [*launcher, "verify", "--config", cfg, "--out", out],
        capture_output=True, text=True, env=_src_env(GIRSANOV_LOG="info"),
    )
    assert proc.returncode == 0
    assert "running check symmetry" in proc.stderr
    quiet = subprocess.run(
        [*launcher, "verify", "--config", cfg, "--out", out],
        capture_output=True, text=True, env=_src_env(GIRSANOV_LOG="error"),
    )
    assert quiet.returncode == 0
    assert quiet.stderr.strip() == ""


_IMPORT_FOOTPRINT = """
import sys
import numpy as np

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import girsanov
assert scipy_loaded() == [], scipy_loaded()
assert "numpy.random" not in sys.modules
model = girsanov.JumpDiffusionModel(d=1, alpha=1.0, c=1.0)
rho = lambda x: 1.0 + 0.5 * np.exp(-np.asarray(x) ** 2)
quad = girsanov.continuum_form_quadrature(rho, lambda x: np.exp(-np.asarray(x) ** 2), model, (-8.0, 8.0), 64)
assert np.isfinite(quad.total) and quad.total > 0.0
assert scipy_loaded() == [], scipy_loaded()
assert "numpy.random" not in sys.modules
import girsanov.cli
assert scipy_loaded() == [], scipy_loaded()
# a chain verify takes its exact oracles from numpy alone
import json
readme = {"model": {"type": "finite", "m": [1, 1, 1], "q": [[0, 1, 0], [1, 0, 2], [0, 2, 0]]},
          "transform": {"type": "rho", "rho": [1, 2, 1]},
          "checks": ["symmetry", "conservativeness", "form_identity",
                     {"id": "semigroup", "f": [0, 1, 0], "t": 0.5},
                     {"id": "quadratic_form", "f": [0, 1, 0], "ts": [0.2, 0.1, 0.05]}]}
killed_ring = {"model": {"type": "finite", "m": [1, 1, 1, 1], "k": [0, 0, 1, 0],
                         "q": [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]},
               "transform": {"type": "phi", "phi": [[0, 1, 0.5], [1, 2, -0.25], [2, 3, 0.5], [0, 3, -0.25]]},
               "checks": ["symmetry", {"id": "form_identity", "f": [1, 0, -1, 0]}, "mass",
                          {"id": "semigroup", "f": [1, 0, -1, 0], "t": 2.0},
                          {"id": "symmetry_gap", "f": [1, 0, -1, 0], "g": [0, 1, 0, -1], "t": 2.0},
                          {"id": "quadratic_form", "f": [1, 0, -1, 0], "ts": [3.0, 2.0]},
                          {"id": "jump_rate", "pair": [0, 1]}]}
for name, payload in (("readme", readme), ("killed_ring", killed_ring)):
    config = girsanov.cli.ExperimentConfig.from_json(json.dumps(payload))
    assert girsanov.cli.run(config, out_dir=sys.argv[1] + "/" + name, paths=200) in (0, 1)
    assert scipy_loaded() == [], (name, scipy_loaded())
    # the form identity draws its vectors without numpy.random
    assert "numpy.random" not in sys.modules, name
# the continuum estimator draws its normals from numpy alone
est = girsanov.estimate_quadratic_form(model, girsanov.RhoTransform(rho=rho), lambda x: np.exp(-np.asarray(x) ** 2),
                                       0.05, 2, girsanov.RngSpec(seed=0), region=(-8.0, 8.0), dt=1e-3, eps=0.01)
assert np.isfinite(est.mean)
assert scipy_loaded() == [], scipy_loaded()
assert "numpy.random" not in sys.modules
report = girsanov.integrability_check(model, lambda x, y: rho(y) / rho(x) - 1.0, (-1.0, 1.0), 0.1, levels=3)
# near y = x the tilt is about |rho'(x)/rho(x)| |y - x|, which alpha = 1 does not integrate unless x = 0
assert report.status == "divergent", report.status
assert scipy_loaded() == [], scipy_loaded()
"""

# a meta path finder that refuses every SciPy import, then proof that it does
_NO_SCIPY = """
import sys

class _RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError("no SciPy here: " + name)
        return None

sys.meta_path.insert(0, _RefuseScipy())
try:
    import scipy.integrate
except ImportError:
    pass
else:
    raise AssertionError("scipy imported")
"""


def test_import_loads_only_the_scipy_and_numpy_random_a_run_calls(tmp_path):
    proc = subprocess.run([sys.executable, "-c", _IMPORT_FOOTPRINT, str(tmp_path)], capture_output=True,
                          text=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr


def test_a_run_needs_no_scipy(tmp_path):
    # the README verify, a continuum estimate, the form quadrature and the
    # integrability probe, in a process that cannot import SciPy at all
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY + _IMPORT_FOOTPRINT, str(tmp_path)],
                          capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr


def test_console_script_logging_levels(tmp_path):
    check_logging_levels([sys.executable, "-m", "girsanov"], tmp_path)


@pytest.mark.skipif(shutil.which("girsanov") is None,
                    reason="girsanov console script not installed")
def test_installed_console_script_logging_levels(tmp_path):
    check_logging_levels(["girsanov"], tmp_path)


def test_run_function_uses_config_out(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = ExperimentConfig.from_json(json.dumps({
        "model": CHAIN3_MODEL,
        "transform": RHO121,
        "checks": ["symmetry"],
        "out": "from_config",
    }))
    assert run(cfg) == 0
    assert os.path.exists(tmp_path / "from_config" / "report.csv")
