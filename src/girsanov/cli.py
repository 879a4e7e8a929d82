"""Command-line front end: config-driven verification runs and path dumps.

Subcommands: ``verify`` executes the checks listed in a JSON config and
writes a machine-readable report, ``simulate`` dumps sampled paths to CSV,
``plotdata`` converts a previous report into a long-format CSV for the
time-series checks.  Exit codes: 0 all checks passed, 1 at least one check
failed, 2 configuration or validation error.

All emitted files are byte-deterministic for a fixed config: floats are
written with 17 significant digits, lines end with a bare newline, and CSV
follows RFC 4180 quoting.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import expm

from . import dirichlet, montecarlo
from .errors import ConfigError, GirsanovError
from .model import FiniteSymmetricModel, JumpDiffusionModel, validate_symmetry
from .montecarlo import RngSpec
from .paths import path_to_csv
from .transform import (
    GeneralMF,
    PureJumpPhi,
    RhoTransform,
    transformed_levy_kernel,
)

__all__ = ["ExperimentConfig", "run", "emit_plot_data", "main"]

log = logging.getLogger("girsanov")

KNOWN_CHECKS = (
    "symmetry",
    "conservativeness",
    "form_identity",
    "mass",
    "semigroup",
    "symmetry_gap",
    "quadratic_form",
    "jump_rate",
)

_EXACT_TOL = 1e-12


def _fmt(x) -> str:
    if x is None:
        return ""
    return format(float(x), ".17g")


def _csv_field(s: str) -> str:
    if any(ch in s for ch in ',"\n\r'):
        return '"' + s.replace('"', '""') + '"'
    return s


def _write_csv(path: str, header, rows) -> None:
    lines = [",".join(_csv_field(h) for h in header)]
    for row in rows:
        lines.append(",".join(_csv_field(c if isinstance(c, str) else _fmt(c)) for c in row))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description, held as plain JSON-able values."""

    model: dict
    transform: Optional[dict] = None
    checks: tuple = ()
    seed: int = 0
    out: str = "."

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - {"model", "transform", "checks", "seed", "out"}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "model" not in raw:
            raise ConfigError("config needs a 'model' entry")
        checks = raw.get("checks", [])
        if not isinstance(checks, list):
            raise ConfigError("'checks' must be a list")
        norm_checks = []
        for ch in checks:
            if isinstance(ch, str):
                ch = {"id": ch}
            if not isinstance(ch, dict) or "id" not in ch:
                raise ConfigError("each check must be an id string or an object with 'id'")
            if ch["id"] not in KNOWN_CHECKS:
                raise ConfigError(f"unknown check id {ch['id']!r}")
            norm_checks.append(dict(ch))
        cfg = cls(
            model=dict(raw["model"]),
            transform=dict(raw["transform"]) if raw.get("transform") is not None else None,
            checks=tuple(norm_checks),
            seed=int(raw.get("seed", 0)),
            out=str(raw.get("out", ".")),
        )
        cfg.resolve_model()  # validate eagerly so bad configs exit with code 2
        cfg.resolve_transform()
        return cfg

    def to_json(self) -> str:
        payload = {
            "model": self.model,
            "transform": self.transform,
            "checks": [dict(c) for c in self.checks],
            "seed": self.seed,
            "out": self.out,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def resolve_model(self):
        spec = self.model
        kind = spec.get("type")
        try:
            if kind == "finite":
                return FiniteSymmetricModel(
                    m=np.asarray(spec["m"], dtype=float),
                    q=np.asarray(spec["q"], dtype=float),
                    k=np.asarray(spec["k"], dtype=float) if "k" in spec else None,
                )
            if kind == "jump_diffusion":
                return JumpDiffusionModel(
                    d=int(spec["d"]), alpha=float(spec["alpha"]), c=float(spec.get("c", 1.0))
                )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed model spec: {exc}") from exc
        except GirsanovError as exc:
            raise ConfigError(f"invalid model: {exc}") from exc
        raise ConfigError(f"unknown model type {kind!r}")

    def resolve_transform(self):
        if self.transform is None:
            return None
        model = self.resolve_model()
        spec = self.transform
        kind = spec.get("type")
        try:
            if kind == "rho":
                n = model.n if isinstance(model, FiniteSymmetricModel) else None
                return RhoTransform(rho=_state_vector(spec["rho"], "rho", n))
            if kind == "phi":
                return PureJumpPhi(phi=_phi_table(spec["phi"], _model_size(model)))
            if kind == "general":
                n = _model_size(model)
                return GeneralMF(
                    phi=_phi_table(spec["phi"], n, symmetric=False),
                    a_rate=_state_vector(spec.get("a_rate"), "a_rate", n),
                    phi_delta=_state_vector(spec.get("phi_delta"), "phi_delta", n),
                )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed transform spec: {exc}") from exc
        except GirsanovError as exc:
            raise ConfigError(f"invalid transform: {exc}") from exc
        raise ConfigError(f"unknown transform type {kind!r}")


def _model_size(model) -> int:
    if not isinstance(model, FiniteSymmetricModel):
        raise ConfigError("tabular transforms need a finite model")
    return model.n


def _state_vector(values, name: str, n: Optional[int]):
    """``values`` as a float vector of ``n`` entries (any length when ``n``
    is None); None stays None."""
    if values is None:
        return None
    vec = np.asarray(values, dtype=float)
    if n is not None and vec.shape != (n,):
        raise ConfigError(f"transform {name!r} needs one value per state ({n})")
    return vec


def _phi_table(entries, n: int, symmetric: bool = True) -> np.ndarray:
    """Dense phi matrix from sparse ``[x, y, value]`` rows.

    With ``symmetric`` the mirror entry is filled in automatically; giving
    both orders with different values is a conflict.
    """
    phi = np.zeros((n, n))
    seen = {}
    for row in entries:
        if len(row) != 3:
            raise ConfigError(f"phi entries must be [x, y, value], got {row!r}")
        x, y, v = int(row[0]), int(row[1]), float(row[2])
        if not (0 <= x < n and 0 <= y < n) or x == y:
            raise ConfigError(f"phi entry ({x}, {y}) is not an off-diagonal pair")
        for key in ((x, y),) if not symmetric else ((x, y), (y, x)):
            if key in seen and seen[key] != v:
                raise ConfigError(
                    f"conflicting phi values for pair {key}: {seen[key]} vs {v}"
                )
        seen[(x, y)] = v
        phi[x, y] = v
        if symmetric:
            seen[(y, x)] = v
            phi[y, x] = v
    return phi


# ---------------------------------------------------------------------------
# checks


@dataclass
class _CheckOutput:
    rows: list = field(default_factory=list)        # report.csv rows
    series: list = field(default_factory=list)      # plot-data rows
    forms: list = field(default_factory=list)       # forms.csv rows


_ANY_TRANSFORM = (RhoTransform, PureJumpPhi, GeneralMF)

# check id -> (transform types it accepts, or None when it needs no
# transform; config fields it cannot run without)
_REQUIREMENTS = {
    "symmetry": (None, ()),
    "conservativeness": ((RhoTransform,), ()),
    "form_identity": ((RhoTransform, PureJumpPhi), ()),
    "mass": (_ANY_TRANSFORM, ()),
    "semigroup": (_ANY_TRANSFORM, ("f",)),
    "symmetry_gap": (_ANY_TRANSFORM, ("f", "g")),
    "quadratic_form": (_ANY_TRANSFORM, ("f",)),
    "jump_rate": (_ANY_TRANSFORM, ("pair",)),
}


def _validate_check(model, transform, check) -> None:
    """Raise ``ConfigError`` unless ``check`` can run on this model and transform.

    Run for every check before any of them starts, so a bad check costs no
    sampling and no finished results are thrown away.
    """
    cid = check["id"]
    if not isinstance(model, FiniteSymmetricModel):
        raise ConfigError(f"check {cid!r} needs a finite model")
    kinds, fields = _REQUIREMENTS[cid]
    if kinds is not None:
        if transform is None:
            raise ConfigError(f"check {cid!r} needs a transform in the config")
        if not isinstance(transform, kinds):
            raise ConfigError(f"check {cid!r} does not apply to a {type(transform).__name__} transform")
    missing = [key for key in fields if key not in check]
    if missing:
        raise ConfigError(f"check {cid!r} needs {', '.join(map(repr, missing))}")
    n = model.n
    try:
        for key in ("f", "g"):
            if key in check and np.shape(check[key]) != (n,):
                raise ConfigError(f"check {cid!r}: {key!r} needs one value per state ({n})")
        if "x" in check and not (0 <= int(check["x"]) < n):
            raise ConfigError(f"check {cid!r}: x = {check['x']} is not a state")
        if "pair" in check:
            pair = [int(s) for s in check["pair"]]
            if len(pair) != 2 or not all(0 <= s < n for s in pair) or pair[0] == pair[1]:
                raise ConfigError(f"check {cid!r}: 'pair' must name two distinct states")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"check {cid!r} is malformed: {exc}") from exc


def _lowered(transform) -> tuple:
    """Canonical triple ``(phi, phi_delta, a_rate)`` of a chain transform.

    A rho tilt is the jump tilt ``rho(y)/rho(x) - 1`` with death tilt -1
    (``GeneralMF.from_rho``); a symmetric jump tilt has no death tilt and no
    nonincreasing part.
    """
    if isinstance(transform, RhoTransform):
        transform = GeneralMF.from_rho(transform.rho)
    elif isinstance(transform, PureJumpPhi):
        transform = GeneralMF(phi=transform.phi)
    phi = np.asarray(transform.phi, dtype=float)
    zero = np.zeros(phi.shape[0])
    phi_delta = zero if transform.phi_delta is None else np.asarray(transform.phi_delta, dtype=float)
    a_rate = zero if transform.a_rate is None else np.asarray(transform.a_rate, dtype=float)
    return phi, phi_delta, a_rate


def _cemetery_generator(model, transform) -> np.ndarray:
    """Generator of ``g -> E_x[Z_t g(X_t)]`` on the states plus a cemetery.

    Index ``n`` is the absorbing cemetery.  Jumps run at ``(1 + phi) q``,
    killing flows into the cemetery at ``k (1 + phi_delta)``, and ``a_rate``
    discounts without moving mass anywhere.  A weighted path that dies keeps
    its weight at death, so ``P_t(x, cemetery)`` is ``E_x[Z_t; dead at t]``.
    """
    phi, phi_delta, a_rate = _lowered(transform)
    n = model.n
    rates = (1.0 + phi) * model.q
    np.fill_diagonal(rates, 0.0)
    death = model.k * (1.0 + phi_delta)
    gen = np.zeros((n + 1, n + 1))
    gen[:n, :n] = rates
    gen[:n, n] = death
    gen[np.arange(n), np.arange(n)] = -(rates.sum(axis=1) + death + a_rate)
    return gen


def _oracle_semigroup(model, transform, f, x, t) -> float:
    """Matrix-exponential value of the transformed semigroup at a state."""
    p = expm(t * _cemetery_generator(model, transform))
    return float(p[int(x), : model.n] @ np.asarray(f, dtype=float))


def _check_symmetry(model, transform, check, rng, paths):
    report = validate_symmetry(model)
    out = _CheckOutput()
    out.rows.append(("symmetry", report.max_residual, None, 0.0, report.ok))
    return out

def _check_conservativeness(model, transform, check, rng, paths):
    rep = dirichlet.conservativeness_check(model, transform.rho)
    worst = max(rep.row_sum_residual, abs(rep.unit_form_value))
    out = _CheckOutput()
    out.rows.append(("conservativeness", worst, None, 0.0, rep.ok))
    return out


def _form_for(model, transform, f):
    if isinstance(transform, RhoTransform):
        fv = dirichlet.transformed_form_rho(model, transform.rho, f)
        gen = dirichlet.transformed_generator(model, transform.rho)
        rho = np.asarray(transform.rho, dtype=float)
        mu = rho * rho * model.m
    else:
        fv = dirichlet.transformed_form_phi(model, transform, f)
        gen = dirichlet.pure_jump_generator(model, transform.phi)
        mu = model.m
    cross = float(-np.sum((gen @ f) * f * mu))
    return fv, cross


def _check_form_identity(model, transform, check, rng, paths):
    n = model.n
    gen_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(rng.seed)))
    worst = 0.0
    for _ in range(int(check.get("draws", 200))):
        f = gen_rng.uniform(-1.0, 1.0, size=n)
        fv, cross = _form_for(model, transform, f)
        worst = max(worst, abs(fv.total - cross) / max(1.0, abs(fv.total)))
    out = _CheckOutput()
    out.rows.append(("form_identity", worst, None, 0.0, worst <= _EXACT_TOL))
    if "f" in check:
        f = np.asarray(check["f"], dtype=float)
        fv, cross = _form_for(model, transform, f)
        out.forms.append(("continuous", fv.continuous_part, None, None))
        out.forms.append(("jump", fv.jump_part, None, None))
        out.forms.append(("killing", fv.killing_part, None, None))
        out.forms.append(("total", fv.total, cross, abs(fv.total - cross)))
    return out


def _check_mass(model, transform, check, rng, paths):
    x = int(check.get("x", 0))
    t = float(check.get("t", 1.0))
    n = paths or int(check.get("paths", 100_000))
    res = montecarlo.estimate_mass(model, transform, x, t, n, rng)
    oracle = _oracle_semigroup(model, transform, np.ones(model.n), x, t)
    out = _CheckOutput()
    out.rows.append(("mass", res.mean, res.stderr, oracle, res.covers(oracle)))
    return out


def _check_semigroup(model, transform, check, rng, paths):
    f = np.asarray(check["f"], dtype=float)
    x = int(check.get("x", 0))
    t = float(check.get("t", 1.0))
    n = paths or int(check.get("paths", 100_000))
    res = montecarlo.estimate_transformed_semigroup(model, transform, f, x, t, n, rng)
    oracle = _oracle_semigroup(model, transform, f, x, t)
    out = _CheckOutput()
    out.rows.append(("semigroup", res.mean, res.stderr, oracle, res.covers(oracle)))
    return out


def _check_symmetry_gap(model, transform, check, rng, paths):
    f = np.asarray(check["f"], dtype=float)
    g = np.asarray(check["g"], dtype=float)
    t = float(check.get("t", 0.7))
    n = paths or int(check.get("paths", 100_000))
    res = montecarlo.estimate_symmetry_gap(model, transform, f, g, t, n, rng)
    out = _CheckOutput()
    out.rows.append(("symmetry_gap", res.mean, res.stderr, 0.0, res.covers(0.0)))
    return out


def _check_quadratic_form(model, transform, check, rng, paths):
    f = np.asarray(check["f"], dtype=float)
    ts = [float(t) for t in check.get("ts", (0.2, 0.1, 0.05))]
    n = paths or int(check.get("paths", 100_000))
    trend = montecarlo.quadratic_form_trend(model, transform, f, ts, n, rng)
    gen = _cemetery_generator(model, transform)
    mu = montecarlo._tilted_weight_vector(model, transform)
    # (f(y) - f(x))^2 for every end state y, the cemetery (f = 0) last
    sq = (np.append(f, 0.0)[None, :] - f[:, None]) ** 2

    def exact_at(t):
        # exact finite-t value of the energy statistic, dead paths included
        pt = expm(t * gen)[: model.n]
        return float(np.sum(mu * np.sum(pt * sq, axis=1)) / (2.0 * t))

    exact = {t: exact_at(t) for t, _res in trend}
    out = _CheckOutput()
    t_min, res_min = min(trend, key=lambda pair: pair[0])
    out.rows.append(("quadratic_form", res_min.mean, res_min.stderr, exact[t_min],
                     res_min.covers(exact[t_min])))
    for t, res in trend:
        out.series.append(("quadratic_form", t, res.mean, res.stderr, exact[t]))
    return out


def _check_jump_rate(model, transform, check, rng, paths):
    x, y = (int(s) for s in check["pair"])
    horizon = float(check.get("horizon", 2.0))
    n = paths or int(check.get("paths", 20_000))
    res = montecarlo.estimate_jump_intensity_ratio(model, transform, (x, y), horizon, n, rng)
    oracle = float(transformed_levy_kernel(model, transform)[x, y])
    passed = res.covers(oracle) if oracle > 0.0 else res.mean == 0.0
    out = _CheckOutput()
    out.rows.append(("jump_rate", res.mean, res.stderr, oracle, passed))
    out.series.append(("jump_rate", horizon, res.mean, res.stderr, oracle))
    return out


_CHECK_FNS = {
    "symmetry": _check_symmetry,
    "conservativeness": _check_conservativeness,
    "form_identity": _check_form_identity,
    "mass": _check_mass,
    "semigroup": _check_semigroup,
    "symmetry_gap": _check_symmetry_gap,
    "quadratic_form": _check_quadratic_form,
    "jump_rate": _check_jump_rate,
}


# ---------------------------------------------------------------------------
# orchestration


def run(config: ExperimentConfig, out_dir: Optional[str] = None,
        seed: Optional[int] = None, paths: Optional[int] = None) -> int:
    """Execute the configured checks and write report files.

    Writes ``report.csv`` (one row per check), ``forms.csv`` when a form
    check supplies a witness function, and ``report.json`` with the full
    row and series data.  Returns the process exit code.
    """
    try:
        model = config.resolve_model()
        transform = config.resolve_transform()
        for check in config.checks:
            _validate_check(model, transform, check)
    except GirsanovError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = out_dir if out_dir is not None else config.out
    os.makedirs(out_dir, exist_ok=True)
    rng = RngSpec(seed=seed if seed is not None else config.seed)
    rows = []
    series = []
    forms = []
    try:
        for check in config.checks:
            log.info("running check %s", check["id"])
            res = _CHECK_FNS[check["id"]](model, transform, check, rng, paths)
            rows.extend(res.rows)
            series.extend(res.series)
            forms.extend(res.forms)
    except GirsanovError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write_csv(
        os.path.join(out_dir, "report.csv"),
        ("check_id", "estimate", "stderr", "oracle", "pass"),
        [(cid, est, se, orc, "true" if ok else "false") for cid, est, se, orc, ok in rows],
    )
    if forms:
        _write_csv(
            os.path.join(out_dir, "forms.csv"),
            ("part", "value", "cross_check", "residual"),
            forms,
        )
    payload = {
        "checks": [
            {"check_id": cid, "estimate": est, "stderr": se, "oracle": orc, "pass": bool(ok)}
            for cid, est, se, orc, ok in rows
        ],
        "series": [
            {"check_id": cid, "t": t, "estimate": est, "stderr": se, "oracle": orc}
            for cid, t, est, se, orc in series
        ],
        "seed": rng.seed,
    }
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    all_ok = all(ok for *_rest, ok in rows)
    for cid, est, _se, orc, ok in rows:
        log.info("%s: estimate=%s oracle=%s %s", cid, _fmt(est), _fmt(orc),
                 "pass" if ok else "FAIL")
    return 0 if all_ok else 1


def emit_plot_data(report: dict, out_path: str) -> None:
    """Long-format CSV of every time-indexed series in a report.

    One row per (check, t), columns exactly ``check_id, t, estimate,
    stderr, oracle``, stably sorted by check id then t.
    """
    series = report.get("series", [])
    ordered = sorted(series, key=lambda r: (r["check_id"], float(r["t"])))
    _write_csv(
        out_path,
        ("check_id", "t", "estimate", "stderr", "oracle"),
        [(r["check_id"], r["t"], r["estimate"], r["stderr"], r["oracle"]) for r in ordered],
    )


def _simulate(config: ExperimentConfig, out_dir: str, seed: Optional[int],
              n_paths: int, horizon: float, dt: float, eps: float) -> int:
    try:
        model = config.resolve_model()
    except GirsanovError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(out_dir, exist_ok=True)
    rng = RngSpec(seed=seed if seed is not None else config.seed)
    blocks = []
    header = None
    for i in range(n_paths):
        if isinstance(model, FiniteSymmetricModel):
            path = montecarlo.sample_finite_path(model, 0, horizon, rng.stream(i))
        else:
            x0 = 0.0 if model.d == 1 else np.zeros(model.d)
            path = montecarlo.sample_jump_diffusion_path(model, x0, horizon, dt, eps, rng.stream(i))
        lines = path_to_csv(path).strip("\n").split("\n")
        if header is None:
            header = "path," + lines[0]
        blocks.extend(f"{i},{line}" for line in lines[1:])
    with open(os.path.join(out_dir, "paths.csv"), "w", encoding="utf-8", newline="") as fh:
        fh.write((header or "path") + "\n" + "\n".join(blocks) + ("\n" if blocks else ""))
    return 0


def main(argv=None) -> int:
    level = os.environ.get("GIRSANOV_LOG", "warn").lower()
    levels = {"error": logging.ERROR, "warn": logging.WARNING,
              "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(stream=sys.stderr, level=levels.get(level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")

    parser = argparse.ArgumentParser(
        prog="girsanov",
        description="Simulation and verification toolkit for change-of-measure "
                    "transforms of reversible Markov processes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the configured checks")
    p_verify.add_argument("--config", required=True)
    p_verify.add_argument("--out", default=None)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--paths", type=int, default=None)

    p_sim = sub.add_parser("simulate", help="dump sampled paths to CSV")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--paths", type=int, default=10)
    p_sim.add_argument("--horizon", type=float, default=1.0)
    p_sim.add_argument("--dt", type=float, default=1e-3)
    p_sim.add_argument("--eps", type=float, default=0.01)

    p_plot = sub.add_parser("plotdata", help="emit plot-ready CSV from a report")
    p_plot.add_argument("--report", default=None,
                        help="report.json path (default: <out>/report.json)")
    p_plot.add_argument("--out", default=".")

    args = parser.parse_args(argv)

    if args.command == "plotdata":
        report_path = args.report or os.path.join(args.out, "report.json")
        try:
            with open(report_path, encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read report: {exc}", file=sys.stderr)
            return 2
        os.makedirs(args.out, exist_ok=True)
        emit_plot_data(report, os.path.join(args.out, "plot.csv"))
        return 0

    try:
        with open(args.config, encoding="utf-8") as fh:
            config = ExperimentConfig.from_json(fh.read())
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except GirsanovError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out_dir = args.out if args.out is not None else config.out
    if args.command == "verify":
        return run(config, out_dir=out_dir, seed=args.seed, paths=args.paths)
    if args.command == "simulate":
        return _simulate(config, out_dir, args.seed, args.paths,
                         args.horizon, args.dt, args.eps)
    return 2
