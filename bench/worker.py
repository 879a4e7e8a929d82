"""One benchmark process: set a workload up, then run whole timed rounds.

Launched fresh by ``run.py`` so that set-up pays the interpreter start and
``import girsanov`` exactly as ``girsanov verify`` does.  Prints one JSON
object: the ``perf_counter`` instant set-up ended (the system-wide monotonic
clock, comparable with the launcher's), every round's wall time and the
program's outputs, and the process's peak resident set.

    python3 bench/worker.py --workload chain-readme --seed 1 --child 0 \
        --seconds 2 --out bench/out/scratch [--trace FILE]
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from time import perf_counter

import workloads as W


def peak_rss_mb() -> float:
    """High-water resident set of this process since it started.

    Read from ``VmHWM``: on Linux ``getrusage`` carries the launcher's high
    water across ``vfork``/``exec``, so a small child of a large process
    would report the parent's peak.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM line in /proc/self/status")


def round_seed(seed: int, child: int, index: int) -> int:
    return seed * 100_000 + child * 1_000 + index


class ChainVerify:
    """``girsanov verify`` on a config: parse and validate in set-up."""

    def __init__(self, workload, out_dir):
        from girsanov import cli

        self.cli = cli
        self.config = cli.ExperimentConfig.from_json(W.config_text(workload))
        self.out_dir = out_dir

    def round(self, seed):
        start = perf_counter()
        code = self.cli.run(self.config, out_dir=self.out_dir, seed=seed)
        wall = perf_counter() - start
        report = None
        forms = None
        path = os.path.join(self.out_dir, "report.json")
        if code != 2 and os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                report = json.load(fh)
            forms_path = os.path.join(self.out_dir, "forms.csv")
            if os.path.exists(forms_path):
                with open(forms_path, encoding="utf-8", newline="") as fh:
                    forms = {row["part"]: float(row["value"]) for row in csv.DictReader(fh)}
        # so that a round which writes nothing is not judged on the last round's files
        for name in ("report.json", "report.csv", "forms.csv"):
            if os.path.exists(os.path.join(self.out_dir, name)):
                os.remove(os.path.join(self.out_dir, name))
        return {"wall": wall, "seed": seed, "exit": code, "report": report, "forms": forms}


class ContinuumEnergy:
    """Acceptance (c) statistic; the compensator table is built in set-up."""

    def __init__(self, workload, out_dir):
        import girsanov as g
        from girsanov import montecarlo

        self.g = g
        self.montecarlo = montecarlo
        self.model = g.JumpDiffusionModel(d=1, alpha=W.ALPHA, c=W.KERNEL_C)
        self.transform = g.RhoTransform(rho=W.rho)
        lo, hi = W.REGION
        self.compensator = g.stable_rate_table(
            self.model, lambda a, b: W.rho(b) / W.rho(a) - 1.0, W.CONT_EPS, lo - 2.0, hi + 2.0
        )

    def round(self, seed):
        # called through the module attribute, which the tracer replaces
        start = perf_counter()
        res = self.montecarlo.estimate_quadratic_form(
            self.model, self.transform, W.f_wide, W.CONT_T, W.CONT_PATHS, self.g.RngSpec(seed=seed),
            region=W.REGION, dt=W.CONT_DT, eps=W.CONT_EPS, rho_grad=W.rho_grad,
            compensator=self.compensator,
        )
        wall = perf_counter() - start
        return {"wall": wall, "seed": seed, "mean": res.mean, "stderr": res.stderr, "n": res.n}


class FormQuadrature:
    """``continuum_form_quadrature`` over the mesh ladder, no Monte Carlo."""

    def __init__(self, workload, out_dir):
        import girsanov as g
        from girsanov import dirichlet

        self.dirichlet = dirichlet
        self.model = g.JumpDiffusionModel(d=1, alpha=W.ALPHA, c=W.KERNEL_C)

    def round(self, seed):
        values = []
        wall = 0.0
        for name, (f, _grad) in W.QUAD_FUNCTIONS.items():
            for mesh in W.LADDER:
                start = perf_counter()
                q = self.dirichlet.continuum_form_quadrature(W.rho, f, self.model, W.REGION, mesh)
                took = perf_counter() - start
                wall += took
                values.append({"f": name, "mesh": mesh, "seconds": took, "total": q.total,
                               "error_estimate": q.error_estimate, "inconclusive": q.inconclusive})
        return {"wall": wall, "seed": seed, "values": values}


SETUPS = {
    "chain-readme": ChainVerify,
    "chain-killed": ChainVerify,
    "continuum-energy": ContinuumEnergy,
    "form-quadrature": FormQuadrature,
}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=W.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--child", type=int, default=0)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", default=None, help="write spans of the timed rounds to this file")
    args = p.parse_args(argv)

    os.makedirs(args.out, exist_ok=True)
    work = SETUPS[args.workload](args.workload, args.out)
    ready = perf_counter()
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    rounds = []
    while True:
        rounds.append(work.round(round_seed(args.seed, args.child, len(rounds))))
        if perf_counter() - ready >= args.seconds:
            break
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(args.trace, {"workload": args.workload, "seed": args.seed,
                                 "round_walls": [r["wall"] for r in rounds]})
    print(json.dumps({"ready": ready, "rounds": rounds, "peak_rss_mb": peak_rss_mb()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
