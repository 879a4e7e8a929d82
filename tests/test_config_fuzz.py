"""A seeded fuzz of ``girsanov verify`` over the benchmark's chain configs.

Each case replaces one leaf (a number, string, bool or null at any depth) of
the chain-readme or chain-killed config of ``bench/workloads.py`` by one of
17 values, with every check's path count first cut to 200, and runs
``cli.main(["verify", ...])`` under a time guard.  A case escapes when the
run raises, returns anything but 0, 1 or 2, runs past the guard, or writes
a passing row that holds a non-finite estimate, stderr or oracle.

Tier-1 runs a fixed-seed sample of the cases; all of them, each escape
printed, run with

    python tests/test_config_fuzz.py --all
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import math
import os
import random
import signal
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("chain-readme", "chain-killed")
VALUES = (math.nan, math.inf, -math.inf, -1, 0, -0.0, 0.5, 1, True, "x", [], {}, None, 1e308, 2**70, [1.0], [[1.0]])
PATHS = 200
GUARD_S = 4.0  # seconds a case may run
SAMPLE, SEED = 400, 35


def _configs() -> dict:
    """Each chain config of ``bench/workloads.py``, read from its JSON text,
    with every check's path count cut to :data:`PATHS`."""
    spec = importlib.util.spec_from_file_location("bench_workloads", os.path.join(HERE, "..", "bench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    out = {}
    for name in WORKLOADS:
        config = json.loads(workloads.config_text(name))
        for check in config["checks"]:
            if isinstance(check, dict) and "paths" in check:
                check["paths"] = PATHS
        out[name] = json.dumps(config)
    return out


def _leaves(node, at=()):
    """The path of every leaf under ``node``, in document order."""
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _leaves(child, at + (key,))
    else:
        yield at


def cases(configs: dict) -> list:
    """Every ``(workload, leaf path, value index)`` of ``configs``, 16,150 on the two configs."""
    return [(name, at, v) for name, text in configs.items() for at in _leaves(json.loads(text))
            for v in range(len(VALUES))]


class _Overrun(BaseException):
    """A case ran past the guard (a BaseException, so no handler in the package catches it)."""


def _alarm(_signum, _frame):
    raise _Overrun


def escape(configs: dict, case, work: str):
    """How ``case`` escapes, or None when it exits 0, 1 or 2 within the
    guard with every passing row finite.  ``work`` is a scratch directory."""
    name, at, v = case
    config = json.loads(configs[name])  # a fresh parse: no two cases share a list
    node = config
    for key in at[:-1]:
        node = node[key]
    node[at[-1]] = json.loads(json.dumps(VALUES[v]))
    path, out = os.path.join(work, "config.json"), os.path.join(work, "out")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(config))  # dumps takes the C encoder, dump does not
    report = os.path.join(out, "report.json")
    if os.path.exists(report):
        os.remove(report)
    from girsanov import cli

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, GUARD_S)
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["verify", "--config", path, "--out", out])
    except _Overrun:
        return f"ran past {GUARD_S} s"
    except Exception as exc:  # noqa: BLE001  (any exception is an escape)
        return f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if code not in (0, 1, 2):
        return f"returned {code!r}"
    if code != 2:
        with open(report, encoding="utf-8") as fh:
            for row in json.load(fh)["checks"]:
                values = [row[k] for k in ("estimate", "stderr", "oracle")]
                if row["pass"] and not all(x is None or math.isfinite(x) for x in values):
                    return f"passing row {row['check_id']} holds {values}"
    return None


def _label(case) -> str:
    name, at, v = case
    return f"{name} {'/'.join(map(str, at))} = {json.dumps(VALUES[v])}"


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="the time guard needs setitimer")
def test_a_seeded_sample_of_one_leaf_mutations_exits_zero_one_or_two(tmp_path):
    configs = _configs()
    sample = random.Random(SEED).sample(cases(configs), SAMPLE)
    escapes = [(_label(case), why) for case in sample if (why := escape(configs, case, str(tmp_path)))]
    assert escapes == []


def main(argv) -> int:
    if argv != ["--all"]:
        print("usage: python tests/test_config_fuzz.py --all", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(HERE, "..", "src"))  # the checkout's package, not an installed one
    configs = _configs()
    every, escaped = cases(configs), 0
    with tempfile.TemporaryDirectory() as work:
        for case in every:
            why = escape(configs, case, work)
            if why:
                escaped += 1
                print(f"escape: {_label(case)}: {why}", flush=True)
    print(f"{escaped} of {len(every)} cases escaped")
    return 1 if escaped else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
