import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import girsanov
from girsanov import ConfigError, montecarlo
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
    with pytest.raises(ConfigError, match="off-diagonal"):
        ExperimentConfig.from_json(json.dumps({
            "model": CHAIN3_MODEL,
            "transform": {"type": "phi", "phi": [[1, 1, 1.0]]},
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


def test_checks_are_validated_before_any_sampling(tmp_path, monkeypatch, capsys):
    calls = []
    for name in ("estimate_transformed_semigroup", "estimate_mass", "quadratic_form_trend"):
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
])
def test_malformed_check_fields_exit_two(tmp_path, check, capsys):
    cfg = write_config(tmp_path, {"model": CHAIN3_MODEL, "transform": RHO121, "checks": [check]})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "error:" in capsys.readouterr().err


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


def test_simulate_jump_diffusion_model(tmp_path):
    cfg = write_config(tmp_path, {
        "model": {"type": "jump_diffusion", "d": 1, "alpha": 1.0, "c": 1.0},
    })
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfg, "--out", out, "--paths", "2",
                 "--horizon", "0.1", "--dt", "0.01", "--eps", "0.05"]) == 0
    lines = read_csv(os.path.join(out, "paths.csv"))
    assert lines[0] == "path,time,x0,event_flag"
    # 2 paths x (11 grid rows + any jump rows)
    assert len(lines) >= 23


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
