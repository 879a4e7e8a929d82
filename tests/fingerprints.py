"""Output fingerprints: the bits the package's outputs had when they were pinned.

``fingerprints.json`` beside this file holds, under one platform key
(machine, C library, Python, numpy):

- per chain config of ``bench/workloads.py`` and seed 0-4, the exit code of
  ``cli.run`` and the sha256 of each report file it writes;
- per seed 0-5, ``float.hex`` of the continuum energy statistic's mean and
  standard error at the settings of the benchmark's continuum-energy round;
- the form-quadrature ladder's totals and error estimates, as hex;
- the sha256 of each demo's stdout.

``test_fingerprints.py`` compares the first three, and ``test_demos.py`` the
demos, whose runs it already makes.  The bits rest on the C library's
``log`` and ``exp``, numpy's loops and the BLAS under ``cli.expm``, so on
another platform key the comparison fails and names the key.  A change
that moves values on purpose rewrites the file:

    python tests/fingerprints.py --write

and one that should move none can list what it moved, exiting 1 if
anything did (2 on another platform key):

    python tests/fingerprints.py --check
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FILE = os.path.join(HERE, "fingerprints.json")
DEMOS = os.path.join(ROOT, "demos")
DEMO_NAMES = (
    "finite_chain_forms.py",
    "jump_tilt_walkthrough.py",
    "monte_carlo_verification.py",
    "stable_jump_diffusion.py",
    "state_tilt_walkthrough.py",
)
CHAIN_SEEDS = range(5)
CONTINUUM_SEEDS = range(6)

sys.path.insert(0, os.path.join(ROOT, "bench"))
import worker  # noqa: E402  (the benchmark's rounds and inputs, read and never edited)
import workloads as W  # noqa: E402

sys.path.remove(os.path.join(ROOT, "bench"))


def platform_key() -> dict:
    return {
        "machine": platform.machine(),
        "libc": " ".join(platform.libc_ver()),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def chain() -> dict:
    """Exit code and report files' sha256 of ``cli.run`` per chain config and seed."""
    from girsanov import cli

    out = {}
    for workload in ("chain-readme", "chain-killed"):
        config = cli.ExperimentConfig.from_json(W.config_text(workload))
        for seed in CHAIN_SEEDS:
            with tempfile.TemporaryDirectory() as tmp:
                code = cli.run(config, out_dir=tmp, seed=seed)
                files = {}
                for name in sorted(os.listdir(tmp)):
                    with open(os.path.join(tmp, name), "rb") as fh:
                        files[name] = sha256(fh.read())
            out[f"{workload}/{seed}"] = {"exit": code, "files": files}
    return out


def continuum() -> dict:
    """Mean and standard error of the benchmark's continuum-energy round per seed, as hex."""
    energy = worker.ContinuumEnergy("continuum-energy", None)
    out = {}
    for seed in CONTINUUM_SEEDS:
        res = energy.round(seed)
        out[str(seed)] = {"mean": float.hex(res["mean"]), "stderr": float.hex(res["stderr"])}
    return out


def form_quadrature() -> dict:
    """Total and error estimate of every rung of the benchmark's form-quadrature ladder, as hex."""
    rungs = worker.FormQuadrature("form-quadrature", None).round(0)["values"]
    return {f"{q['f']}/{q['mesh']}": {"total": float.hex(q["total"]), "error_estimate": float.hex(q["error_estimate"]),
                                      "inconclusive": bool(q["inconclusive"])} for q in rungs}


def demo_stdout(demo: str, cwd: str) -> subprocess.CompletedProcess:
    """A demo run from a checkout, on the ``girsanov`` this process imports."""
    import girsanov

    src = os.path.dirname(os.path.dirname(os.path.abspath(girsanov.__file__)))
    return subprocess.run([sys.executable, os.path.join(DEMOS, demo)], cwd=cwd, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)


def demos() -> dict:
    out = {}
    for demo in DEMO_NAMES:
        with tempfile.TemporaryDirectory() as tmp:
            proc = demo_stdout(demo, tmp)
        if proc.returncode != 0:
            raise SystemExit(f"{demo} exited {proc.returncode}:\n{proc.stderr}")
        out[demo] = sha256(proc.stdout.encode())
    return out


def stored() -> dict:
    """The pinned fingerprints; AssertionError naming both keys when this
    platform's key is not the one they were pinned under."""
    with open(FILE, encoding="utf-8") as fh:
        pinned = json.load(fh)
    here = platform_key()
    assert pinned["platform"] == here, (
        f"fingerprints were pinned on platform {pinned['platform']}, this is {here}: "
        "rewrite them here with `python tests/fingerprints.py --write` on the commit they pin"
    )
    return pinned


def current() -> dict:
    """Every fingerprint, computed now."""
    return {"platform": platform_key(), "chain": chain(), "continuum": continuum(),
            "form_quadrature": form_quadrature(), "demos": demos()}


def leaves(tree, prefix: str = "") -> dict:
    """The values of nested dicts, keyed by their slash-joined keys."""
    if not isinstance(tree, dict):
        return {prefix: tree}
    out = {}
    for key, sub in tree.items():
        out.update(leaves(sub, f"{prefix}/{key}" if prefix else str(key)))
    return out


def moved(pinned: dict, now: dict) -> list:
    """``(key, pinned value, value now)`` of every fingerprint that differs,
    a missing one as None: a report file as ``chain/<config>/<seed>/files/<file>``,
    a continuum seed as ``continuum/<seed>/<mean or stderr>``, a rung as
    ``form_quadrature/<f>/<mesh>/<field>``."""
    old, new = leaves(pinned), leaves(now)
    return [(key, old.get(key), new.get(key)) for key in sorted(old.keys() | new.keys())
            if old.get(key) != new.get(key)]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args == ["--check"]:
        try:
            pinned = stored()
        except AssertionError as exc:
            print(exc)
            return 2
        changes = moved(pinned, current())
        for key, was, now in changes:
            print(f"moved: {key}: {was} -> {now}")
        print(f"{len(changes)} fingerprints moved" if changes else "no fingerprint moved")
        return 1 if changes else 0
    if args != ["--write"]:
        print(__doc__)
        return 2
    with open(FILE, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(current(), sort_keys=True, indent=1) + "\n")
    print(f"wrote {FILE}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))  # the checkout's package, not an installed one
    sys.exit(main())
