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
import math
import os
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from . import dirichlet, montecarlo
from .errors import ConfigError, GirsanovError, ModelError, TransformError
from .model import FiniteSymmetricModel, JumpDiffusionModel, validate_symmetry
from .paths import path_to_csv
from .streams import RngSpec, stream_uniforms
from .transform import GeneralMF, PureJumpPhi, RhoTransform, lower, transformed_levy_kernel

__all__ = ["ExperimentConfig", "run", "emit_plot_data", "main"]

log = logging.getLogger("girsanov")

_EXACT_TOL = 1e-12


# Padé [13/13] coefficients b_0 ... b_13 of exp, divided by b_0 so that
# expm(0) is the identity to the bit, and the largest 1-norm at which that
# approximant is accurate to double precision (Higham, SIAM J. Matrix Anal.
# Appl. 26, 2005, table 2.3)
_PADE13 = tuple(b / 64764752532480000.0 for b in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0, 129060195264000.0,
    10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0))
_THETA13 = 5.371920351148152


def expm(a) -> np.ndarray:
    """Matrix exponential of the real square matrix ``a`` by scaling and
    squaring: the [13/13] Padé approximant of ``exp(a / 2**s)``, squared ``s``
    times, with ``s`` the least that brings the 1-norm to ``_THETA13``.

    Assumes nothing of the structure: the oracles pass cemetery generators,
    which need not be symmetrisable.  The exact oracles call it through this
    module attribute, so a tracer that replaces it sees every call.
    """
    a = np.asarray(a, dtype=float)
    norm = np.linalg.norm(a, 1)
    s = max(0, math.ceil(math.log2(norm / _THETA13))) if norm > 0.0 else 0
    a = a / 2.0 ** s
    b = _PADE13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    ident = np.eye(a.shape[0])
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


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
        if not isinstance(raw.get("model"), dict):
            raise ConfigError("config needs a 'model' entry that is a JSON object")
        transform = raw.get("transform")
        if transform is not None and not isinstance(transform, dict):
            raise ConfigError("'transform' must be a JSON object")
        out = raw.get("out", ".")
        if not isinstance(out, str):
            raise ConfigError(f"'out' must be a string, got {out!r}")
        checks = raw.get("checks", [])
        if not isinstance(checks, list):
            raise ConfigError("'checks' must be a list")
        norm_checks = []
        for ch in checks:
            if isinstance(ch, str):
                ch = {"id": ch}
            if not isinstance(ch, dict) or not isinstance(ch.get("id"), str):
                raise ConfigError("each check must be an id string or an object with an 'id' string")
            if ch["id"] not in _CHECKS:
                raise ConfigError(f"unknown check id {ch['id']!r}")
            norm_checks.append(dict(ch))
        seed = raw.get("seed", 0)
        if type(seed) is not int or not 0 <= seed < 2**64:  # a bool is no seed
            raise ConfigError(f"'seed' must be an integer in [0, 2**64), got {seed!r}")
        cfg = cls(
            model=dict(raw["model"]),
            transform=dict(transform) if transform is not None else None,
            checks=tuple(norm_checks),
            seed=seed,
            out=out,
        )
        cfg.resolve()  # bad configs exit with code 2 here
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

    def resolve(self):
        """``(model, transform)``, the transform None when there is none;
        the model is built once and the transform is built on it."""
        model = self.resolve_model()
        return model, None if self.transform is None else _resolve("transform", _TRANSFORMS, self.transform, model)

    def resolve_model(self):
        return _resolve("model", _MODELS, self.model)

    def resolve_transform(self):
        return self.resolve()[1]


def _fields(part: str, spec: dict, tag: str, needed, defaults) -> dict:
    """``spec`` with ``defaults`` filled in, or ``ConfigError`` naming a
    field it lacks or one its type does not read.  ``spec[tag]`` is the
    type: a check's ``id``, a model's or a transform's ``type``."""
    unknown = sorted(set(spec) - {tag, *needed, *defaults})
    if unknown:
        raise ConfigError(f"{part} {spec[tag]!r} has unknown fields {unknown}; it reads "
                          f"{sorted({*needed, *defaults}) or 'none'}")
    missing = [key for key in needed if key not in spec]
    if missing:
        raise ConfigError(f"{part} {spec[tag]!r} needs {', '.join(map(repr, missing))}")
    return {**defaults, **spec}


def _resolve(part: str, table: dict, spec: dict, *context):
    """The model or transform ``spec`` describes, built by the entry of its
    type in ``table`` from its fields and ``context`` (a transform's model)."""
    kind = spec.get("type")
    if not isinstance(kind, str) or kind not in table:
        raise ConfigError(f"unknown {part} type {kind!r}")
    needed, defaults, build = table[kind]
    try:
        return build(_fields(part, spec, "type", needed, defaults), *context)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed {part} spec: {exc}") from exc
    except (ModelError, TransformError) as exc:
        raise ConfigError(f"invalid {part}: {exc}") from exc


def _is_number(value) -> bool:
    return type(value) in (int, float)  # JSON's numbers; a bool is neither


def _all_numbers(value) -> bool:
    """Whether ``value`` is a number or a nested list of numbers (no bools);
    a list of numbers costs one set of its element types, not a call each."""
    kinds = set(map(type, value)) if isinstance(value, list) else {type(value)}
    return kinds <= {int, float} or (kinds <= {int, float, list} and all(map(_all_numbers, value)))


def _numbers(part: str, spec: dict, name: str, shape=None):
    """Field ``name`` of ``spec`` as a float array of ``shape`` (any shape
    when None); refuses bools, strings and all else but numbers and nested
    lists of them.  None, an optional field's default, stays None."""
    value = spec[name]
    if value is None:
        return None
    if not _all_numbers(value):
        raise ConfigError(f"{part} {name!r} must hold numbers only, got {value!r}")
    arr = np.asarray(value, dtype=float)
    if shape is not None and arr.shape != shape:
        raise ConfigError(f"{part} {name!r} must have shape {shape}, got {arr.shape}")
    return arr


def _jump_diffusion(spec) -> JumpDiffusionModel:
    if type(spec["d"]) is not int:
        raise ConfigError(f"model 'd' must be an integer, got {spec['d']!r}")
    return JumpDiffusionModel(d=spec["d"], alpha=float(_numbers("model", spec, "alpha", ())),
                              c=float(_numbers("model", spec, "c", ())))


def _phi_table(entries, model, symmetric: bool = True) -> np.ndarray:
    """Dense phi matrix on the states of ``model`` from sparse ``[x, y,
    value]`` rows.  With ``symmetric`` the mirror entry is filled in
    automatically; giving both orders with different values is a conflict."""
    if not isinstance(model, FiniteSymmetricModel):
        raise ConfigError("tabular transforms need a finite model")
    n = model.n
    phi = np.zeros((n, n))
    seen = {}
    for row in entries:
        if len(row) != 3:
            raise ConfigError(f"phi entries must be [x, y, value], got {row!r}")
        x, y, v = row
        if not _is_number(v):
            raise ConfigError(f"phi value of ({x!r}, {y!r}) must be a number, got {v!r}")
        if not (type(x) is int and type(y) is int and 0 <= x < n and 0 <= y < n) or x == y:
            raise ConfigError(f"phi entry ({x!r}, {y!r}) is not an off-diagonal pair")
        for key in ((x, y), (y, x))[: 2 if symmetric else 1]:
            if seen.setdefault(key, float(v)) != v:
                raise ConfigError(f"conflicting phi values for pair {key}: {seen[key]} vs {float(v)}")
            phi[key] = v
    return phi


# model or transform type -> (fields it cannot be built without; {other
# field it reads: default}; builder from its fields, and a transform's model)
_MODELS = {
    "finite": (("m", "q"), {"k": None}, lambda s: FiniteSymmetricModel(
        m=_numbers("model", s, "m"), q=_numbers("model", s, "q"), k=_numbers("model", s, "k"))),
    "jump_diffusion": (("d", "alpha"), {"c": 1.0}, _jump_diffusion),
}
_TRANSFORMS = {
    "rho": (("rho",), {}, lambda s, model: RhoTransform(rho=_numbers(
        "transform", s, "rho", (model.n,) if isinstance(model, FiniteSymmetricModel) else None))),
    "phi": (("phi",), {}, lambda s, model: PureJumpPhi(phi=_phi_table(s["phi"], model))),
    "general": (("phi",), {"a_rate": None, "phi_delta": None}, lambda s, model: GeneralMF(
        phi=_phi_table(s["phi"], model, symmetric=False),  # checks for a finite model before model.n
        a_rate=_numbers("transform", s, "a_rate", (model.n,)),
        phi_delta=_numbers("transform", s, "phi_delta", (model.n,)))),
}


# ---------------------------------------------------------------------------
# checks


# A check's plan maker returns its plan: the chain requests it samples, and
# a function from their estimates, in order, and the run's :class:`_Oracle`
# to its output.  ``run`` plans every check before it writes anything,
# samples the requests of every check in one call, then runs the functions
# in config order.


class _Oracle:
    """The pieces of the exact oracles that every check of a run shares,
    each built on first use and then kept: the cemetery generator of the
    transform (:func:`dirichlet.cemetery_generator`), the reference measure
    ``mu`` of its lowering and the generator's exponential at each time."""

    def __init__(self, model, transform):
        self.model, self.transform = model, transform
        self._semigroups = {}

    @cached_property
    def gen(self) -> np.ndarray:
        return dirichlet.cemetery_generator(self.model, self.transform)

    @cached_property
    def mu(self) -> np.ndarray:
        return lower(self.model, self.transform).mu

    def semigroup(self, t: float) -> np.ndarray:
        """``expm(t * gen)``, one exponential per distinct ``t`` of the run."""
        if t not in self._semigroups:
            self._semigroups[t] = expm(t * self.gen)
        return self._semigroups[t]


@dataclass
class _CheckOutput:
    rows: list = field(default_factory=list)        # report.csv rows
    series: list = field(default_factory=list)      # plot-data rows
    forms: list = field(default_factory=list)       # forms.csv rows


def _exact(row_fn):
    """Plan maker of a check that samples nothing: ``row_fn(model,
    transform)`` gives its report row when ``run`` reaches the check."""
    def plan(model, transform, check, rng):
        return [], lambda _results, _oracle: _CheckOutput(rows=[row_fn(model, transform)])
    return plan


def _symmetry_row(model, transform):
    report = validate_symmetry(model)
    return ("symmetry", report.max_residual, None, 0.0, report.ok)


def _conservativeness_row(model, transform):
    rep = dirichlet.conservativeness_check(model, transform.rho)
    return ("conservativeness", max(rep.row_sum_residual, abs(rep.unit_form_value)), None, 0.0, rep.ok)


def _statistical_row(cid: str, res, oracle: float) -> _CheckOutput:
    return _CheckOutput(rows=[(cid, res.mean, res.stderr, oracle, res.covers(oracle))])


# entries of the (draws, n, n) differences the form identity builds at once;
# a generator call draws a whole number of such blocks, up to _FORM_BLOCK values
_FORM_BLOCK = 1 << 15


def _check_form_identity(model, transform, check, rng):
    draws = check["draws"]
    if type(draws) is not int or draws < 1:
        raise ConfigError(f"'draws' must be an integer >= 1, got {draws!r}")
    f = None if check["f"] is None else model.state_vector(check["f"])

    def finish(_results, oracle):
        n = model.n
        duality = dirichlet._form_duality(model, transform, oracle.gen[:n, :n], oracle.mu)
        # the vectors are rng.stream(0).uniform(-1.0, 1.0, (draws, n)), a
        # block of draws at a time, so the differences stay near
        # _FORM_BLOCK entries; blocks read the one stream in order
        block = max(1, _FORM_BLOCK // n ** 2)
        call = block * max(1, _FORM_BLOCK // (block * n))
        worst = 0.0
        for start in range(0, draws, call):
            fs = stream_uniforms(rng, start * n, min(call, draws - start) * n).reshape(-1, n) * 2.0 - 1.0
            for lo in range(0, len(fs), block):
                *_parts, residual = duality(fs[lo : lo + block])
                worst = max(worst, float(np.max(residual)))
        out = _CheckOutput(rows=[("form_identity", worst, None, 0.0, worst <= _EXACT_TOL)])
        if f is not None:
            # the witness is one more row through the same evaluator
            jump, kill, cross, _residual = (float(v[0]) for v in duality(f[None, :]))
            total = dirichlet.FormValue(0.0, jump, kill).total
            out.forms = [("continuous", 0.0, None, None), ("jump", jump, None, None), ("killing", kill, None, None),
                         ("total", total, cross, abs(total - cross))]
        return out

    return [], finish


def _check_semigroup(model, transform, check, rng):
    """The transformed semigroup of ``f`` at ``x``; ``mass`` is that of f = 1."""
    if check["x"] is None:  # the request would start from mu, and the oracle reads one state
        raise ConfigError("'x' must be a state, got null")
    f = np.ones(model.n) if check["id"] == "mass" else model.state_vector(check["f"])
    req = montecarlo.semigroup_request(model, transform, f, check["x"], check["t"], check["paths"], rng)

    def finish(results, oracle):
        # matrix-exponential value of the transformed semigroup at x
        p = oracle.semigroup(req.horizon)
        return _statistical_row(check["id"], results[0], float(p[req.x0, : model.n] @ f))

    return [req], finish


def _check_symmetry_gap(model, transform, check, rng):
    f = model.state_vector(check["f"])
    g = model.state_vector(check["g"], "g")
    req = montecarlo.symmetry_gap_request(model, transform, f, g, check["t"], check["paths"], rng)

    def finish(results, oracle):
        # exact sum_x mu_x (g P_t f - f P_t g)(x) from the start measure the
        # estimator uses; 0 when the tilted jumps are in detailed balance with it
        pt = oracle.semigroup(req.horizon)[: model.n, : model.n]
        exact = float(np.sum(oracle.mu * (g * (pt @ f) - f * (pt @ g))))
        return _statistical_row("symmetry_gap", results[0], exact)

    return [req], finish


def _check_quadratic_form(model, transform, check, rng):
    f = model.state_vector(check["f"])
    reqs = montecarlo.quadratic_form_requests(model, transform, f, check["ts"], check["paths"], rng)

    def finish(results, oracle):
        mu = oracle.mu
        # (f(y) - f(x))^2 for every end state y, the cemetery (f = 0) last
        sq = (np.append(f, 0.0)[None, :] - f[:, None]) ** 2

        def exact_at(t):
            # exact finite-t value of the energy statistic, dead paths included
            pt = oracle.semigroup(t)[: model.n]
            return float(np.sum(mu * np.sum(pt * sq, axis=1)) / (2.0 * t))

        trend = [(req.horizon, res, exact_at(req.horizon)) for req, res in zip(reqs, results)]
        _t, res_min, exact_min = min(trend, key=lambda row: row[0])
        out = _statistical_row("quadratic_form", res_min, exact_min)
        out.series = [("quadratic_form", t, res.mean, res.stderr, exact) for t, res, exact in trend]
        return out

    return reqs, finish


def _check_jump_rate(model, transform, check, rng):
    req = montecarlo.jump_rate_request(model, transform, check["pair"], check["horizon"], check["paths"], rng)

    def finish(results, _oracle):
        res = results[0]
        oracle = float(transformed_levy_kernel(model, transform)[req.pair])
        passed = res.covers(oracle) if oracle > 0.0 else res.mean == 0.0
        return _CheckOutput(rows=[("jump_rate", res.mean, res.stderr, oracle, passed)],
                            series=[("jump_rate", req.horizon, res.mean, res.stderr, oracle)])

    return [req], finish


_ANY_TRANSFORM = (RhoTransform, PureJumpPhi, GeneralMF)

# check id -> (transform types it accepts, or None when it needs no
# transform; fields it cannot run without; {other field it reads: default};
# plan maker)
_CHECKS = {
    "symmetry": (None, (), {}, _exact(_symmetry_row)),
    "conservativeness": ((RhoTransform,), (), {}, _exact(_conservativeness_row)),
    "form_identity": ((RhoTransform, PureJumpPhi), (), {"f": None, "draws": 200}, _check_form_identity),
    "mass": (_ANY_TRANSFORM, (), {"x": 0, "t": 1.0, "paths": 100_000}, _check_semigroup),
    "semigroup": (_ANY_TRANSFORM, ("f",), {"x": 0, "t": 1.0, "paths": 100_000}, _check_semigroup),
    "symmetry_gap": (_ANY_TRANSFORM, ("f", "g"), {"t": 0.7, "paths": 100_000}, _check_symmetry_gap),
    "quadratic_form": (_ANY_TRANSFORM, ("f",), {"ts": (0.2, 0.1, 0.05), "paths": 100_000},
                       _check_quadratic_form),
    "jump_rate": (_ANY_TRANSFORM, ("pair",), {"horizon": 2.0, "paths": 20_000}, _check_jump_rate),
}


def _plan(model, transform, check, rng, paths):
    """The plan of ``check``, or ``ConfigError`` if it cannot run.

    Checks only what the library cannot know: a finite model, the transform
    kind, no missing and no unread field.  The requests the plan builds
    check every value.  ``paths``, unless None, replaces the path count.
    """
    cid = check["id"]
    if not isinstance(model, FiniteSymmetricModel):
        raise ConfigError(f"check {cid!r} needs a finite model")
    kinds, needed, defaults, plan = _CHECKS[cid]
    fields = _fields("check", check, "id", needed, defaults)
    if kinds is not None and not isinstance(transform, kinds):
        raise ConfigError(f"check {cid!r} needs a {' or '.join(k.__name__ for k in kinds)} transform, "
                          f"not {type(transform).__name__ if transform is not None else 'none'}")
    if paths is not None and "paths" in defaults:
        fields["paths"] = paths
    try:
        return plan(model, transform, fields, rng)
    except GirsanovError as exc:
        raise ConfigError(f"check {cid!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# orchestration


def run(config: ExperimentConfig, out_dir: Optional[str] = None,
        seed: Optional[int] = None, paths: Optional[int] = None) -> int:
    """Execute the configured checks and write report files.

    Writes ``report.csv`` (one row per check), ``forms.csv`` when a form
    check supplies a witness (else removes an earlier run's), and
    ``report.json`` with the full row and series data; returns the exit code.
    """
    try:
        model, transform = config.resolve()
        rng = RngSpec(seed=seed if seed is not None else config.seed)
        # every check planned, so every value checked, before any sampling or
        # file; the lowering too (rho^2 m finite), which the run then reuses
        plans = [_plan(model, transform, check, rng, paths) for check in config.checks]
        if transform is not None and isinstance(model, FiniteSymmetricModel):
            lower(model, transform)
    except GirsanovError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = out_dir if out_dir is not None else config.out
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    series = []
    forms = []
    try:
        # every statistical check's paths in one call, so checks that read
        # the same stream block share one batch
        requests = [req for reqs, _finish in plans for req in reqs]
        log.info("sampling %d chain requests", len(requests))
        results = montecarlo.estimate_chain(model, transform, requests)
        oracle = _Oracle(model, transform)
        for check, (reqs, finish) in zip(config.checks, plans):
            log.info("running check %s", check["id"])
            res = finish(results[: len(reqs)], oracle)
            results = results[len(reqs):]
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
    forms_path = os.path.join(out_dir, "forms.csv")
    if forms:
        _write_csv(forms_path, ("part", "value", "cross_check", "residual"), forms)
    elif os.path.exists(forms_path):  # an earlier run's, which would read as this run's
        os.remove(forms_path)
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


_PLOT_HEADER = ("check_id", "t", "estimate", "stderr", "oracle")


def _plot_rows(report) -> list:
    """The series rows of ``report`` sorted stably by check id then t, or
    ``ConfigError`` if a row lacks a field or holds a value of another kind."""
    try:
        rows = [[row[key] for key in _PLOT_HEADER] for row in report.get("series", [])]
    except (AttributeError, KeyError, TypeError) as exc:
        raise ConfigError(f"a report is a JSON object whose 'series' rows hold {_PLOT_HEADER}: {exc!r}") from exc
    for row in rows:
        if not (isinstance(row[0], str) and _is_number(row[1]) and all(v is None or _is_number(v) for v in row[2:])):
            raise ConfigError(f"series row {row} needs a check id string, a number t and numbers or nulls")
    return sorted(rows, key=lambda r: (r[0], r[1]))


def emit_plot_data(report: dict, out_path: str) -> None:
    """Long-format CSV of every time-indexed series in a report.

    One row per (check, t), columns exactly ``check_id, t, estimate,
    stderr, oracle``, stably sorted by check id then t.
    """
    _write_csv(out_path, _PLOT_HEADER, _plot_rows(report))


def _simulate(config: ExperimentConfig, out_dir: str, seed: Optional[int],
              n_paths: int, horizon: float, dt: float, eps: float) -> int:
    blocks = []
    header = None
    try:
        model = config.resolve_model()
        rng = RngSpec(seed=seed if seed is not None else config.seed)
        if n_paths < 1:
            raise ConfigError(f"--paths must be at least 1, got {n_paths}")
        # every path sampled, so the samplers have checked --horizon, --dt
        # and --eps, before the output directory exists
        for i in range(n_paths):
            if isinstance(model, FiniteSymmetricModel):
                path = montecarlo.sample_finite_path(model, 0, horizon, rng.stream(i))
            else:
                path = montecarlo.sample_jump_diffusion_path(model, 0.0, horizon, dt, eps, rng.stream(i))
            lines = path_to_csv(path).strip("\n").split("\n")
            if header is None:
                header = "path," + lines[0]
            blocks.extend(f"{i},{line}" for line in lines[1:])
    except GirsanovError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "paths.csv"), "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join([header, *blocks]) + "\n")
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
                rows = _plot_rows(json.load(fh))
        except (OSError, json.JSONDecodeError, ConfigError) as exc:
            print(f"error: cannot read report: {exc}", file=sys.stderr)
            return 2
        os.makedirs(args.out, exist_ok=True)
        _write_csv(os.path.join(args.out, "plot.csv"), _PLOT_HEADER, rows)
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
    return _simulate(config, out_dir, args.seed, args.paths, args.horizon, args.dt, args.eps)
