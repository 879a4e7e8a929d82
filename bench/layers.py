"""Per-layer timings and counts, run by ``run.py --trace 1``.

Every figure times calls into one public function of the package, at the
settings of the workload whose end-to-end metric it should move (see the
table in ``bench/README.md``).  A per-item figure is the median over
batches of the batch time divided by its size.  Prints one JSON object
``{name: [value, unit]}`` as its last line; ``--peak MESH`` instead runs
that one quadrature mesh and prints the process's peak resident set.

    python3 bench/layers.py --seed 1 --out bench/out/layers
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

import workloads as W
from worker import peak_rss_mb

BATCHES = 5


def per_item(fn, items, batches=BATCHES, scale=1e6):
    """Median over batches of ``fn(items)`` time per item (default: microseconds)."""
    times = []
    for _ in range(batches):
        batch = items() if callable(items) else items
        start = perf_counter()
        fn(batch)
        times.append((perf_counter() - start) / len(batch))
    return statistics.median(times) * scale


def median_call(fn, repeats=3):
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def peak_child(mesh: int) -> None:
    import girsanov as g

    model = g.JumpDiffusionModel(d=1, alpha=W.ALPHA, c=W.KERNEL_C)
    for f, _grad in W.QUAD_FUNCTIONS.values():
        g.continuum_form_quadrature(W.rho, f, model, W.REGION, mesh)
    print(json.dumps({"peak_rss_mb": peak_rss_mb()}))


def fresh_process(args: list) -> str:
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          check=True, timeout=120, env=os.environ.copy())
    return proc.stdout.strip().splitlines()[-1]


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--peak", type=int, default=None)
    args = p.parse_args(argv)
    if args.peak is not None:
        peak_child(args.peak)
        return 0

    out = {}
    script = os.path.abspath(__file__)
    work_dir = args.out or os.path.join(os.path.dirname(script), "out", "layers")
    os.makedirs(work_dir, exist_ok=True)
    out["girsanov.import_s"] = (statistics.median(
        float(fresh_process(["-c", "import time; t = time.perf_counter(); import girsanov; "
                                   "print(time.perf_counter() - t)"]))
        for _ in range(5)), "s")

    import girsanov as g
    from girsanov import cli
    from spans import Tracer

    seed = args.seed
    rng = np.random.default_rng(seed)

    # -- model and config (set-up of the chain workloads) ------------------
    m, q, k, phi = W.killed_model()

    def build(batch):
        for _ in batch:
            model = g.FiniteSymmetricModel(m=m, q=q, k=k)
            g.validate_symmetry(model)
            g.jump_measure(model)

    out["model.build_us"] = (per_item(build, range(200)), "us")
    killed_text = W.config_text("chain-killed")
    out["cli.config_ms"] = (per_item(lambda b: [cli.ExperimentConfig.from_json(killed_text) for _ in b],
                                     range(20), scale=1e3), "ms")

    # -- verify-run split from spans (chain-killed config) ------------------
    config = cli.ExperimentConfig.from_json(killed_text)
    tracer = Tracer()
    tracer.install()
    try:
        for i in range(3):
            cli.run(config, out_dir=work_dir, seed=seed * 100 + i)
    finally:
        tracer.uninstall()
    split = tracer.verify_split()
    out["cli.oracle_ms"] = (statistics.median(s[1] for s in split) * 1e3, "ms")
    out["cli.report_ms"] = (statistics.median(s[3] for s in split) * 1e3, "ms")

    # -- chain estimator and path layers (chain-killed settings) ------------
    model = config.resolve_model()
    transform = config.resolve_transform()
    f_killed, _ = W.killed_functions()
    chain3 = g.FiniteSymmetricModel(m=np.ones(3), q=np.array(W.README_Q))
    readme_tilt = g.RhoTransform(rho=np.array(W.README_RHO))
    n_paths = 2_000
    spec = g.RngSpec(seed=seed)

    out["montecarlo.chain_path_us"] = (median_call(lambda: g.estimate_transformed_semigroup(
        chain3, readme_tilt, W.README_F, 0, 1e-4, 20_000, spec)) / 20_000 * 1e6, "us")

    def sample(mdl, t, count, x0=0):
        return [g.sample_finite_path(mdl, x0, t, spec.stream(i)) for i in range(count)]

    short_t = 0.5
    events = {t: np.mean([len(pth.events) for pth in sample(model, t, n_paths)]) for t in (short_t, W.KILLED_T)}
    est_time = {t: median_call(lambda t=t: g.estimate_transformed_semigroup(
        model, transform, f_killed, 0, t, n_paths, spec), repeats=7) for t in (short_t, W.KILLED_T)}
    out["montecarlo.chain_event_us"] = ((est_time[W.KILLED_T] - est_time[short_t])
                                        / (n_paths * (events[W.KILLED_T] - events[short_t])) * 1e6, "us")

    streams = lambda: [spec.stream(i) for i in range(n_paths)]  # noqa: E731
    out["montecarlo.sample_finite_path_us"] = (per_item(
        lambda b: [g.sample_finite_path(model, 0, W.KILLED_T, s) for s in b], streams), "us")

    samples = rng.standard_normal(W.README_PATHS)
    out["montecarlo.reduce_ms"] = (per_item(
        lambda b: [g.EstimatorResult.from_samples(samples) for _ in b], range(50), scale=1e3), "ms")

    paths = sample(model, W.KILLED_T, n_paths)
    records = [(pth.x0, pth.events, pth.horizon, pth.killed_at) for pth in paths]
    out["paths.path_build_us"] = (per_item(
        lambda b: [g.Path(x0=x0, events=ev, horizon=h, killed_at=kd) for x0, ev, h, kd in b], records), "us")
    times = rng.uniform(0.0, W.KILLED_T, size=len(paths))
    pairs = list(zip(paths, times))
    out["paths.state_at_us"] = (per_item(lambda b: [pth.state_at(t) for pth, t in b], pairs), "us")
    log_w = g.log_weight_fn(model, transform)
    out["transform.log_weight_us"] = (per_item(lambda b: [log_w(pth, W.KILLED_T) for pth in b], paths), "us")
    out["transform.chain_trace_us"] = (per_item(
        lambda b: [g.pure_jump_mf(pth, transform, model, W.KILLED_T) for pth in b], paths[:500]), "us")

    # -- weight health on each Monte Carlo workload's paths -----------------
    def ess(w):
        w = np.asarray(w)
        return float(w.sum() ** 2 / (w.size * np.sum(w * w)))

    weights = np.array([math.exp(log_w(pth, W.KILLED_T)) for pth in paths])
    alive = np.array([pth.alive_at(W.KILLED_T) for pth in paths])
    ess_by = {"chain-killed": ess(weights)}
    out["montecarlo.useful_path_fraction"] = (float(np.mean(alive & (weights > 0.0))), "ratio")
    readme_w = g.log_weight_fn(chain3, readme_tilt)
    ess_by["chain-readme"] = ess([math.exp(readme_w(pth, 0.5)) for pth in sample(chain3, 0.5, n_paths)])

    # -- continuum layers (continuum-energy settings) -----------------------
    jd = g.JumpDiffusionModel(d=1, alpha=W.ALPHA, c=W.KERNEL_C)
    lo, hi = W.REGION
    tilt = lambda a, b: W.rho(b) / W.rho(a) - 1.0  # noqa: E731
    tables = []
    out["transform.rate_table_s"] = (median_call(
        lambda: tables.append(g.stable_rate_table(jd, tilt, W.CONT_EPS, lo - 2.0, hi + 2.0))), "s")
    table = tables[-1]
    grid_n = 100
    xs = np.linspace(lo, hi, 4097)
    cdf = np.cumsum(W.rho(xs) ** 2)
    x0s = np.interp(rng.uniform(0.0, 1.0, grid_n), cdf / cdf[-1], xs)
    grid_streams = lambda: [spec.stream(i) for i in range(grid_n)]  # noqa: E731
    out["montecarlo.grid_path_us"] = (per_item(
        lambda b: [g.sample_jump_diffusion_path(jd, x0, W.CONT_T, W.CONT_DT, W.CONT_EPS, s)
                   for x0, s in zip(x0s, b)], grid_streams), "us")
    grid_paths = [g.sample_jump_diffusion_path(jd, x0, W.CONT_T, W.CONT_DT, W.CONT_EPS, spec.stream(i))
                  for i, x0 in enumerate(x0s)]
    traces = []
    out["transform.grid_weight_us"] = (per_item(
        lambda b: traces.extend(g.rho_transform_mf(pth, W.rho, jd, W.CONT_T, rho_grad=W.rho_grad,
                                                   compensator=table) for pth in b),
        grid_paths), "us")
    ess_by["continuum-energy"] = ess([tr.end_value for tr in traces[:grid_n]])
    out["montecarlo.ess_fraction"] = (min(ess_by.values()), "ratio")

    # -- form quadrature ladder (form-quadrature settings) -------------------
    for mesh in W.LADDER:
        out[f"dirichlet.quadrature_s.m{mesh}"] = (median_call(lambda mesh=mesh: [
            g.continuum_form_quadrature(W.rho, f, jd, W.REGION, mesh)
            for f, _grad in W.QUAD_FUNCTIONS.values()]), "s")
    for mesh in W.LADDER:
        peak = json.loads(fresh_process([script, "--peak", str(mesh)]))["peak_rss_mb"]
        out[f"dirichlet.quadrature_peak_mb.m{mesh}"] = (peak, "MB")

    with open(os.path.join(work_dir, "layers.json"), "w", encoding="utf-8") as fh:
        json.dump({"metrics": out, "ess_by_workload": ess_by,
                   "events_per_path": {str(t): float(v) for t, v in events.items()}}, fh, indent=1)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
