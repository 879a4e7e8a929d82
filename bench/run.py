"""Benchmark of the girsanov toolkit: one workload, one run, one JSON line.

    python3 bench/run.py --workload chain-readme --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout.  With ``--trace 0`` the run
launches ``CHILDREN`` fresh worker processes one after another, each set up
from scratch and then running whole timed rounds for its share of
``--seconds``; it prints the end-to-end metrics.  With ``--trace 1`` one
worker runs the rounds with spans recorded (``bench/out/.../spans.json``)
and ``layers.py`` then times each layer; it prints the per-layer metrics.
Every run checks the program's outputs against ``oracles.py``, which does
not use the package.  The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See ``bench/README.md`` for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import os

# every process of the benchmark is single-threaded
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import checks
import oracles
import workloads as W

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILDREN = 3
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(cmd, deadline: float) -> dict:
    """Run one benchmark process to its end; return its last stdout line as JSON."""
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise BenchError("run time limit reached before launching " + " ".join(cmd[1:3]))
    try:
        proc = subprocess.run([sys.executable, *map(str, cmd)], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cmd[0]} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{cmd[0]} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def evaluate(workload: str, rounds: list) -> dict:
    """Count operations, check outputs, and derive the accuracy figures."""
    problems, stat_problems = [], []
    attempted = failed = 0
    if workload in ("chain-readme", "chain-killed"):
        config = W.chain_config(workload)
        expected = oracles.chain_expected(workload, config)
        for rnd in rounds:
            per_op = checks.chain_op_problems(rnd, expected)
            stat_problems += per_op.pop("exit", [])
            attempted += len(expected)
            failed += sum(1 for probs in per_op.values() if probs)
            problems += [p for probs in per_op.values() for p in probs]
        exact = checks.exact_estimates(expected)
        estimates = [checks.chain_estimates(r) for r in rounds]
        pool = checks.pooled(estimates)
        stat_problems += checks.coverage_problems(pool, exact)
        if workload == "chain-readme":
            stat_problems += checks.trend_problems(pool, W.ENERGY_LIMIT)
        # a round without estimates failed its verify run, which coverage flags
        worst = statistics.median(
            max((est[k][1] / abs(v) for k, v in exact.items() if v != 0.0 and k in est), default=0.0)
            for est in estimates)
        work = W.paths_per_round(config)
    elif workload == "continuum-energy":
        exact = oracles.continuum_form("wide")
        for rnd in rounds:
            probs = checks.energy_op_problems(rnd)
            attempted += 1
            failed += bool(probs)
            problems += probs
        stat_problems += checks.energy_problems(rounds, exact)
        worst = statistics.median(r["stderr"] for r in rounds) / exact
        work = W.CONT_PATHS
    else:
        exact = {name: oracles.continuum_form(name) for name in W.QUAD_FUNCTIONS}
        seconds = {}
        for rnd in rounds:
            for value in rnd["values"]:
                attempted += 1
                probs = checks.quadrature_op_problems(value, exact[value["f"]])
                failed += bool(probs)
                problems += probs
                seconds.setdefault((value["f"], value["mesh"]), []).append(value["seconds"])
        to_accuracy = 0.0
        for name in W.QUAD_FUNCTIONS:
            mesh = checks.first_accurate_mesh(rounds[0]["values"], name, exact[name])
            if mesh is None:
                stat_problems.append(f"{name}: no ladder mesh within {W.QUAD_ACCURACY} of exact")
                mesh = W.LADDER[-1]
            to_accuracy += sum(statistics.median(seconds[(name, m)]) for m in W.LADDER if m <= mesh)
        work = W.kernel_pairs_per_round()
    wall = statistics.median(r["wall"] for r in rounds)
    if workload != "form-quadrature":
        to_accuracy = wall * (worst / 0.01) ** 2
    return {"attempted": attempted, "failed": failed, "problems": problems, "stat_problems": stat_problems,
            "wall": wall, "work_per_s": work / wall, "time_to_accuracy": to_accuracy}


def untraced(args, out: Path, deadline: float) -> dict:
    setups, peaks, rounds = [], [], []
    for child in range(CHILDREN):
        launched = perf_counter()
        res = run_child([BENCH / "worker.py", "--workload", args.workload, "--seed", args.seed,
                         "--child", child, "--seconds", args.seconds / CHILDREN,
                         "--out", out / f"child{child}"], deadline)
        setups.append(res["ready"] - launched)
        peaks.append(res["peak_rss_mb"])
        rounds += res["rounds"]
    verdict = evaluate(args.workload, rounds)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (verdict["wall"], "s"),
        "work_per_s": (verdict["work_per_s"], "1/s"),
        "time_to_accuracy_s": (verdict["time_to_accuracy"], "s"),
        "peak_rss_mb": (statistics.median(peaks), "MB"),
    }
    return verdict, metrics, {"setups": setups, "peaks": peaks, "rounds": rounds}


def traced(args, out: Path, deadline: float):
    spans = out / "spans.json"
    res = run_child([BENCH / "worker.py", "--workload", args.workload, "--seed", args.seed,
                     "--seconds", args.seconds, "--out", out / "child0", "--trace", spans], deadline)
    verdict = evaluate(args.workload, res["rounds"])
    print(f"traced wall_s {verdict['wall']:.6g} over {len(res['rounds'])} rounds; spans in {spans}")
    layers = run_child([BENCH / "layers.py", "--seed", args.seed, "--out", out / "layers"], deadline)
    return verdict, {name: tuple(pair) for name, pair in layers.items()}, {"rounds": res["rounds"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=W.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be nonnegative and --seconds positive")
    if not (SRC / "girsanov" / "__init__.py").is_file():
        print(f"error: no girsanov sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    deadline = perf_counter() + RUN_LIMIT_S
    out = BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    try:
        verdict, metrics, raw = (traced if args.trace else untraced)(args, out, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem, count in Counter(verdict["problems"] + verdict["stat_problems"]).items():
        print(f"check: {problem} (x{count})", file=sys.stderr)
    with open(out / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"verdict": verdict, "raw": raw, "metrics": metrics}, fh, indent=1)
    print(json.dumps({
        "correct": not verdict["stat_problems"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
