"""Inputs of the four benchmark workloads, shared by the runner and the workers.

Nothing here imports ``girsanov``: the runner computes its oracles from these
plain arrays without the package, so the oracles stay independent of it.
"""

from __future__ import annotations

import json

import numpy as np

WORKLOADS = ("chain-readme", "chain-killed", "continuum-energy", "form-quadrature")

# -- chain-readme: the README config plus the acceptance energy trend --------

README_Q = [[0.0, 1.0, 0.0], [1.0, 0.0, 2.0], [0.0, 2.0, 0.0]]
README_RHO = [1.0, 2.0, 1.0]
README_F = [0.0, 1.0, 0.0]
README_PATHS = 20_000          # per estimate; the acceptance fixture uses 1M per time
README_TS = (0.2, 0.1, 0.05)
ENERGY_LIMIT = 6.0             # transformed form value of f = 1{1}


def readme_config() -> dict:
    return {
        "model": {"type": "finite", "m": [1.0, 1.0, 1.0], "q": README_Q},
        "transform": {"type": "rho", "rho": README_RHO},
        "checks": [
            "symmetry",
            "conservativeness",
            "form_identity",
            {"id": "semigroup", "f": README_F, "t": 0.5, "paths": README_PATHS},
            {"id": "quadratic_form", "f": README_F, "ts": list(README_TS),
             "paths": README_PATHS},
        ],
        "seed": 0,
        "out": ".",
    }


# -- chain-killed: 24-state ring with killing and a symmetric jump tilt -------

KILLED_N = 24
KILLED_T = 2.0                 # about 10 jump events per path
KILLED_TS = (3.0, 2.0)
KILLED_PATHS = 4_000
KILLED_PAIR = (0, 1)


def killed_model():
    """Weights, rates, killing and jump tilt of the ``chain-killed`` chain.

    Nearest and next-nearest neighbour moves on a ring; rates are a symmetric
    flux divided by the weights, so detailed balance holds by construction.
    Every sixth state kills at rate 1.
    """
    n = KILLED_N
    x = np.arange(n)
    m = 1.0 + 0.5 * np.sin(2.0 * np.pi * x / n)
    flux = np.zeros((n, n))
    phi = np.zeros((n, n))
    for i in range(n):
        for d, base, amp in ((1, 1.6, 0.3), (2, 0.6, -0.25)):
            j = (i + d) % n
            flux[i, j] = flux[j, i] = base * (1.0 + 0.3 * np.cos(2.0 * np.pi * (i + 0.5 * d) / n))
            phi[i, j] = phi[j, i] = amp * np.cos(6.0 * np.pi * i / n)
    q = flux / m[:, None]
    k = np.where(x % 6 == 3, 1.0, 0.0)
    return m, q, k, phi


def killed_functions():
    x = np.arange(KILLED_N)
    return np.cos(2.0 * np.pi * x / KILLED_N), np.sin(2.0 * np.pi * x / KILLED_N)


def killed_config() -> dict:
    m, q, k, phi = killed_model()
    f, g = killed_functions()
    n = KILLED_N
    entries = [[i, j, float(phi[i, j])] for i in range(n) for j in range(i + 1, n) if phi[i, j] != 0.0]
    f, g = f.tolist(), g.tolist()
    p = KILLED_PATHS
    return {
        "model": {"type": "finite", "m": m.tolist(), "q": q.tolist(), "k": k.tolist()},
        "transform": {"type": "phi", "phi": entries},
        # every chain check that accepts a jump tilt; conservativeness
        # applies to rho tilts only and is rejected for this transform
        "checks": [
            "symmetry",
            {"id": "form_identity", "f": f},
            {"id": "mass", "x": 0, "t": KILLED_T, "paths": p},
            {"id": "semigroup", "f": f, "x": 0, "t": KILLED_T, "paths": p},
            {"id": "symmetry_gap", "f": f, "g": g, "t": KILLED_T, "paths": p},
            {"id": "quadratic_form", "f": f, "ts": list(KILLED_TS), "paths": p},
            {"id": "jump_rate", "pair": list(KILLED_PAIR), "horizon": KILLED_T, "paths": p},
        ],
        "seed": 0,
        "out": ".",
    }


def chain_config(workload: str) -> dict:
    return readme_config() if workload == "chain-readme" else killed_config()


def config_text(workload: str) -> str:
    return json.dumps(chain_config(workload), sort_keys=True)


def paths_per_round(config: dict) -> int:
    """Sample paths one verify run draws over all its statistical checks."""
    total = 0
    for check in config["checks"]:
        if isinstance(check, dict) and "paths" in check:
            total += check["paths"] * len(check.get("ts", [None]))
    return total


# -- continuum: acceptance (c) statistic and the form quadrature ladder -------

ALPHA = 1.0
KERNEL_C = 1.0
REGION = (-8.0, 8.0)
CONT_T = 0.05
CONT_DT = 1e-3
CONT_EPS = 0.01
CONT_PATHS = 3_000
ENERGY_TOLERANCE = 0.15        # acceptance (c) bound on the statistic
LADDER = (160, 320, 640, 1280, 2560)
QUAD_ACCURACY = 1e-3           # relative target of time_to_accuracy_s


def rho(x):
    return 1.0 + 0.5 * np.exp(-np.asarray(x) ** 2)


def rho_grad(x):
    x = np.asarray(x)
    return -x * np.exp(-x ** 2)


def f_wide(x):
    return np.exp(-np.asarray(x) ** 2)


def f_wide_grad(x):
    x = np.asarray(x)
    return -2.0 * x * np.exp(-x ** 2)


def f_narrow(x):
    return np.exp(-(np.asarray(x) / 0.25) ** 2)


def f_narrow_grad(x):
    x = np.asarray(x)
    return -32.0 * x * np.exp(-(x / 0.25) ** 2)


# name -> (f, f'), in ladder order
QUAD_FUNCTIONS = {"wide": (f_wide, f_wide_grad), "narrow": (f_narrow, f_narrow_grad)}


def kernel_pairs_per_round() -> int:
    """Kernel pairs one ladder pass evaluates: cells squared, both levels."""
    return len(QUAD_FUNCTIONS) * sum(mesh * mesh + (2 * mesh) ** 2 for mesh in LADDER)
