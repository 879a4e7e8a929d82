"""Show that every check of the benchmark rejects a perturbed output.

Runs one real round of each workload, confirms the checks accept it (apart
from the known ``chain-killed`` quadratic-form oracle fault), then applies
one perturbation at a time and confirms the verdict gains a new problem.
Also confirms the oracles' own invariants.  Exits 1 if any perturbation
slips through.

    python3 bench/selfcheck.py
"""

from __future__ import annotations

import copy
import os
import shutil
import sys

import numpy as np

import oracles
import run
import workloads as W

sys.path.insert(0, str(run.SRC))
from worker import SETUPS  # noqa: E402


def _row(rnd, cid):
    return next(r for r in rnd["report"]["checks"] if r["check_id"] == cid)


def _series(rnd, cid, t=None):
    rows = [r for r in rnd["report"]["series"] if r["check_id"] == cid]
    return rows[0] if t is None else next(r for r in rows if r["t"] == t)


def _set(cid, field, value):
    return lambda rounds: _row(rounds[0], cid).__setitem__(field, value)


def _scale_oracle(cid, series=False):
    def apply(rounds):
        row = _series(rounds[0], cid) if series else _row(rounds[0], cid)
        row["oracle"] *= 1.0 + 1e-7
    return apply


def _shift(cid, series=False):
    """Move an estimate 10 of its standard errors (one chain round: pooled = own)."""
    def apply(rounds):
        row = _series(rounds[0], cid) if series else _row(rounds[0], cid)
        row["estimate"] += 10.0 * row["stderr"]
    return apply


def _swap_energy(rounds):
    a = _series(rounds[0], "quadratic_form", 0.1)
    b = _series(rounds[0], "quadratic_form", 0.05)
    a["estimate"], b["estimate"] = b["estimate"], a["estimate"]


def _set_form(part, factor):
    return lambda rounds: rounds[0]["forms"].__setitem__(part, rounds[0]["forms"][part] * factor)


# (label, perturbation of a list of rounds, text the new problem must contain)
CHAIN = [
    ("symmetry residual", _set("symmetry", "estimate", 1e-6), "exact check"),
    ("symmetry verdict", _set("symmetry", "pass", False), "exact check"),
    ("form identity residual", _set("form_identity", "estimate", 1e-9), "exact check"),
    ("semigroup oracle", _scale_oracle("semigroup"), "oracle column"),
    ("semigroup estimate", _shift("semigroup"), "standard errors"),
    ("semigroup stderr zero", _set("semigroup", "stderr", 0.0), "not a finite estimate"),
    ("quadratic-form series oracle", _scale_oracle("quadratic_form", series=True), "oracle at t="),
    ("quadratic-form estimate", _shift("quadratic_form", series=True), "standard errors"),
    ("row missing", lambda rounds: rounds[0]["report"]["checks"].pop(), "expected one report row"),
    ("exit code", lambda rounds: rounds[0].__setitem__("exit", 1 - rounds[0]["exit"]), "exit code"),
    ("no report", lambda rounds: rounds[0].update(exit=2, report=None), "without a report"),
]
README_ONLY = [
    ("conservativeness residual", _set("conservativeness", "estimate", 1e-6), "exact check"),
    ("energy trend not monotone", _swap_energy, "not decreasing"),
]
KILLED_ONLY = [
    ("mass oracle", _scale_oracle("mass"), "oracle column"),
    ("symmetry gap estimate", _shift("symmetry_gap"), "standard errors"),
    ("jump-rate oracle", _scale_oracle("jump_rate"), "oracle column"),
    ("jump-rate series oracle", _scale_oracle("jump_rate", series=True), "oracle at t="),
    ("jump-rate estimate", _shift("jump_rate"), "standard errors"),
    ("form jump part", _set_form("jump", 1.0 + 1e-7), "jump part"),
    ("form killing part", _set_form("killing", 0.0), "killing part"),
]
CONTINUUM = [
    ("statistic 20% high", lambda rounds: [r.__setitem__("mean", r["mean"] * 1.2 + 1.0) for r in rounds],
     "% from the form value"),
    ("statistic not finite", lambda rounds: rounds[0].__setitem__("mean", float("nan")), "not finite"),
    ("stderr zero", lambda rounds: rounds[0].__setitem__("stderr", 0.0), "not finite"),
]


def _bump(rounds):
    v = rounds[0]["values"][2]
    v["total"] += 2.0 * v["error_estimate"] + 1e-9


def _drift(rounds):
    for v in rounds[0]["values"]:
        v["total"] *= 1.01


QUADRATURE = [
    ("ladder value beyond its error estimate", _bump, "beyond its error estimate"),
    ("ladder value inconclusive", lambda rounds: rounds[0]["values"][0].__setitem__("inconclusive", True), "inconclusive"),
    ("accuracy never reached", _drift, "no ladder mesh within"),
]


def oracle_invariants() -> list:
    bad = []
    for workload in ("chain-readme", "chain-killed"):
        orc = oracles.chain_oracle(workload)
        for t in (0.05, 0.5, 2.0):
            rows = oracles.expm(t * orc.gen).sum(axis=1)[: orc.n]
            if np.max(np.abs(rows - 1.0)) > 1e-12:
                bad.append(f"{workload}: weighted mass with the cemetery is not 1 at t={t}")
    orc = oracles.chain_oracle("chain-readme")
    if abs(orc.energy_statistic(W.README_F, 1e-6) - W.ENERGY_LIMIT) > 1e-4:
        bad.append("chain-readme: energy statistic does not tend to the form value 6")
    return bad


def main() -> int:
    out = run.BENCH / "out" / "selfcheck"
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    failures = oracle_invariants()
    cases = {
        "chain-readme": CHAIN + README_ONLY,
        "chain-killed": CHAIN + KILLED_ONLY,
        "continuum-energy": CONTINUUM,
        "form-quadrature": QUADRATURE,
    }
    for workload, perturbations in cases.items():
        work = SETUPS[workload](workload, str(out / workload))
        # the continuum statistic is checked pooled; one round is too noisy
        rounds = [work.round(seed) for seed in range(5 if workload == "continuum-energy" else 1)]
        base = run.evaluate(workload, rounds)
        base_problems = set(base["problems"] + base["stat_problems"])
        expected_base = base["failed"] == (1 if workload == "chain-killed" else 0) and not base["stat_problems"]
        print(f"{workload}: real round gives failed={base['failed']}, problems={sorted(base_problems)}")
        if not expected_base:
            failures.append(f"{workload}: real round not accepted as expected")
        for label, perturb, text in perturbations:
            bent = copy.deepcopy(rounds)
            perturb(bent)
            verdict = run.evaluate(workload, bent)
            new = [p for p in set(verdict["problems"] + verdict["stat_problems"]) - base_problems if text in p]
            print(f"  {label:40s} {'rejected' if new else 'NOT REJECTED'}: {sorted(new)[:1]}")
            if not new:
                failures.append(f"{workload}: {label} not rejected")
    for f in failures:
        print("selfcheck failure:", f, file=sys.stderr)
    print("selfcheck", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
