"""Verdicts on the program's outputs, against the values of ``oracles.py``.

Two kinds of check:

* per operation, deterministic: report rows present, exact checks passed,
  every oracle column equal to the independent exact value to 1e-9
  relative, form parts equal to the independent ones.  An operation that
  breaks one of these is counted as failed.
* per run, statistical: every estimate, pooled over the run's rounds (equal
  path counts, so the pooled standard error is ``sqrt(sum se^2) / R``), lies
  within ``Z_BOUND`` pooled standard errors of the exact value; the energy
  trend approaches the form value monotonically; the continuum statistic
  lies within the acceptance bound.  A miss makes the run incorrect.

Pooling keeps the chance of a false alarm at a 4-sigma bound near 1e-4 per
run instead of per round.  Each function returns a list of problems; empty
means the output passed.
"""

from __future__ import annotations

import math

import workloads as W

Z_BOUND = 4.0
ORACLE_RTOL = 1e-9
EXACT_TOL = 1e-12


def _close(a, b) -> bool:
    return a is not None and math.isfinite(a) and abs(a - b) <= max(ORACLE_RTOL * abs(b), EXACT_TOL)


def chain_op_problems(rnd: dict, expected: dict) -> dict:
    """Deterministic problems of one verify round, keyed by check id."""
    problems = {cid: [] for cid in expected}
    report = rnd.get("report")
    if rnd.get("exit") == 2 or report is None:
        return {cid: [f"verify exited {rnd.get('exit')} without a report"] for cid in expected}
    rows = {}
    for row in report["checks"]:
        rows.setdefault(row["check_id"], []).append(row)
    series = {}
    for row in report["series"]:
        series.setdefault(row["check_id"], []).append(row)
    for cid, exp in expected.items():
        out = problems[cid]
        if len(rows.get(cid, [])) != 1:
            out.append(f"{cid}: expected one report row, got {len(rows.get(cid, []))}")
            continue
        row = rows[cid][0]
        if cid in ("symmetry", "conservativeness", "form_identity"):
            if row["pass"] is not True or not (0.0 <= row["estimate"] <= EXACT_TOL):
                out.append(f"{cid}: exact check reports {row['estimate']!r}, pass={row['pass']}")
        if cid == "symmetry" and exp["residual"] > EXACT_TOL:
            out.append("symmetry: model is not symmetric")
        if cid == "form_identity" and exp["forms"] is not None:
            forms = rnd.get("forms") or {}
            for part, value in exp["forms"].items():
                if not _close(forms.get(part), value):
                    out.append(f"form_identity: {part} part {forms.get(part)!r} != exact {value!r}")
        if "oracle" in exp:
            if not _close(row["oracle"], exp["oracle"]):
                out.append(f"{cid}: oracle column {row['oracle']!r} != exact {exp['oracle']!r}")
            if not (math.isfinite(row["estimate"]) and row["stderr"] is not None and row["stderr"] > 0.0):
                out.append(f"{cid}: estimate {row['estimate']!r} +/- {row['stderr']!r} is not a finite estimate")
        if "series" in exp:
            got = {float(r["t"]): r for r in series.get(cid, [])}
            if sorted(got) != sorted(exp["series"]):
                out.append(f"{cid}: series times {sorted(got)} != {sorted(exp['series'])}")
            for t, value in exp["series"].items():
                if t in got and not _close(got[t]["oracle"], value):
                    out.append(f"{cid}: oracle at t={t} {got[t]['oracle']!r} != exact {value!r}")
    all_pass = all(row["pass"] for row in report["checks"])
    if rnd["exit"] != (0 if all_pass else 1):
        problems.setdefault("exit", []).append(f"exit code {rnd['exit']} disagrees with the pass column")
    return problems


def chain_estimates(rnd: dict) -> dict:
    """``(check id, t) -> (estimate, stderr)`` of one round's report."""
    out = {}
    report = rnd.get("report") or {"checks": [], "series": []}
    for row in report["checks"]:
        if row["check_id"] in ("mass", "semigroup", "symmetry_gap", "jump_rate"):
            out[(row["check_id"], None)] = (row["estimate"], row["stderr"])
    for row in report["series"]:
        if row["check_id"] == "quadratic_form":
            out[("quadratic_form", float(row["t"]))] = (row["estimate"], row["stderr"])
    return out


def exact_estimates(expected: dict) -> dict:
    """``(check id, t) -> exact value`` for every estimated quantity."""
    out = {}
    for cid in ("mass", "semigroup", "symmetry_gap", "jump_rate"):
        if cid in expected:
            out[(cid, None)] = expected[cid]["oracle"]
    for t, value in expected.get("quadratic_form", {}).get("series", {}).items():
        out[("quadratic_form", t)] = value
    return out


def pooled(rounds_estimates: list) -> dict:
    """Pool per-round ``(estimate, stderr)`` of equal sample size."""
    keys = set().union(*rounds_estimates) if rounds_estimates else set()
    out = {}
    for key in keys:
        vals = [r[key] for r in rounds_estimates if key in r]
        n = len(vals)
        mean = sum(v[0] for v in vals) / n
        out[key] = (mean, math.sqrt(sum(v[1] * v[1] for v in vals)) / n)
    return out


def coverage_problems(pool: dict, exact: dict) -> list:
    out = []
    for key, value in exact.items():
        if key not in pool:
            out.append(f"{key}: no estimate to pool")
            continue
        mean, se = pool[key]
        if not abs(mean - value) <= Z_BOUND * se:
            out.append(f"{key}: pooled estimate {mean:.6g} +/- {se:.3g} is more than "
                       f"{Z_BOUND:g} standard errors from exact {value:.6g}")
    return out


def trend_problems(pool: dict, limit: float) -> list:
    """Pooled energy statistic must approach ``limit`` as t shrinks."""
    ts = sorted((t for cid, t in pool if cid == "quadratic_form"), reverse=True)
    gaps = [abs(pool[("quadratic_form", t)][0] - limit) for t in ts]
    if any(not (a > b) for a, b in zip(gaps, gaps[1:])):
        return [f"energy statistic at t={ts} has gaps {gaps} to {limit}, not decreasing"]
    return []


def energy_op_problems(rnd: dict) -> list:
    """One continuum estimate must be a finite mean with a positive standard error."""
    if math.isfinite(rnd["mean"]) and math.isfinite(rnd["stderr"]) and rnd["stderr"] > 0.0:
        return []
    return [f"estimate {rnd['mean']!r} +/- {rnd['stderr']!r} is not finite"]


def energy_problems(rounds: list, exact: float) -> list:
    """Pooled continuum statistic must lie within the acceptance bound."""
    mean = sum(r["mean"] for r in rounds) / len(rounds)
    rel = abs(mean - exact) / abs(exact)
    if not rel <= W.ENERGY_TOLERANCE:
        return [f"pooled statistic {mean:.5g} is {100 * rel:.1f}% from the form value {exact:.6g}"]
    return []


def quadrature_op_problems(value: dict, exact: float) -> list:
    """One ladder value must lie within its own error estimate of the oracle."""
    total, err = value["total"], value["error_estimate"]
    if value["inconclusive"] or not (math.isfinite(total) and math.isfinite(err)):
        return [f"{value['f']} mesh {value['mesh']}: inconclusive value {total!r}"]
    if not abs(total - exact) <= err:
        return [f"{value['f']} mesh {value['mesh']}: {total!r} is {abs(total - exact):.3g} from "
                f"exact {exact!r}, beyond its error estimate {err:.3g}"]
    return []


def first_accurate_mesh(values: list, name: str, exact: float):
    """Smallest ladder mesh whose value is within ``QUAD_ACCURACY`` of exact."""
    for mesh in W.LADDER:
        for v in values:
            if v["f"] == name and v["mesh"] == mesh and abs(v["total"] - exact) <= W.QUAD_ACCURACY * abs(exact):
                return mesh
    return None
