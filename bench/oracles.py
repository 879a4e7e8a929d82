"""Exact values the benchmark checks the program against, made without it.

Chains: the tilted generator is built here from the directly tilted kernel,
``rho(y)/rho(x) q`` (killing absorbed, so dead paths carry weight 0) or
``(1 + phi) q`` with the base killing flowing into an explicit cemetery
state, and exponentiated with ``scipy.linalg.expm``.  Functions vanish at
the cemetery.  Nothing here calls ``transformed_generator`` or
``pure_jump_generator``.

Continuum: the tilted energy over the box is a composite Gauss-Legendre
tensor rule in ``(x, y)``.  For ``alpha = 1`` the jump integrand
``((f(x) - f(y)) / (x - y))^2 rho(x) rho(y)`` is smooth across the diagonal,
where it takes the value ``f'(x)^2 rho(x)^2``, so the rule converges
geometrically; the value is computed at two resolutions and they must agree.

Nothing is cached: ``python3 bench/oracles.py`` prints every value.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

import workloads as W


# ---------------------------------------------------------------------------
# chains


def _extended_generator(q, k, tilt_kernel, absorbs_killing: bool) -> np.ndarray:
    """Generator on ``n`` states plus a cemetery (index ``n``)."""
    n = q.shape[0]
    rates = np.array(tilt_kernel * q, dtype=float)
    np.fill_diagonal(rates, 0.0)
    out = np.zeros((n + 1, n + 1))
    out[:n, :n] = rates
    death = np.zeros(n) if absorbs_killing else np.asarray(k, dtype=float)
    out[:n, n] = death
    out[np.arange(n), np.arange(n)] = -(rates.sum(axis=1) + death)
    return out


class ChainOracle:
    """Exact weighted expectations ``E_x[Z_t g(X_t)]`` of one tilted chain."""

    def __init__(self, m, q, k=None, *, rho=None, phi=None):
        self.m = np.asarray(m, dtype=float)
        self.q = np.asarray(q, dtype=float)
        n = self.m.shape[0]
        self.k = np.zeros(n) if k is None else np.asarray(k, dtype=float)
        self.n = n
        if rho is not None:
            rho = np.asarray(rho, dtype=float)
            self.kernel = rho[None, :] / rho[:, None]
            self.mu = rho * rho * self.m
            self.gen = _extended_generator(self.q, self.k, self.kernel, absorbs_killing=True)
        else:
            self.kernel = 1.0 + np.asarray(phi, dtype=float)
            self.mu = self.m.copy()
            self.gen = _extended_generator(self.q, self.k, self.kernel, absorbs_killing=False)
        self._cache = {}

    def _p(self, t: float) -> np.ndarray:
        if t not in self._cache:
            self._cache[t] = expm(t * self.gen)
        return self._cache[t]

    def _ext(self, f) -> np.ndarray:
        return np.append(np.asarray(f, dtype=float), 0.0)   # f(dead) = 0

    def semigroup(self, f, x: int, t: float) -> float:
        return float(self._p(t)[x] @ self._ext(f))

    def mass(self, x: int, t: float) -> float:
        return self.semigroup(np.ones(self.n), x, t)

    def energy_statistic(self, f, t: float) -> float:
        """``(1/2t) sum_x mu(x) E_x[Z_t (f(X_t) - f(x))^2]``, dead paths included."""
        p = self._p(t)
        fe = self._ext(f)
        f = np.asarray(f, dtype=float)
        sq = (fe[None, :] - f[:, None]) ** 2
        return float(np.sum(self.mu * np.sum(p[: self.n] * sq, axis=1)) / (2.0 * t))

    def jump_rate(self, x: int, y: int) -> float:
        return float(self.kernel[x, y] * self.q[x, y])

    def form_parts(self, f):
        """Jump and killing parts of the tilted energy (jump tilts only)."""
        f = np.asarray(f, dtype=float)
        jm = 0.5 * self.m[:, None] * self.kernel * self.q
        np.fill_diagonal(jm, 0.0)
        jump = float(np.sum(jm * (f[:, None] - f[None, :]) ** 2))
        kill = float(np.sum(self.k * self.m * f * f))
        return {"continuous": 0.0, "jump": jump, "killing": kill, "total": jump + kill}

    def symmetry_residual(self) -> float:
        flux = self.m[:, None] * self.q
        return float(np.max(np.abs(flux - flux.T)))


def chain_oracle(workload: str) -> ChainOracle:
    if workload == "chain-readme":
        return ChainOracle(np.ones(3), np.array(W.README_Q), rho=np.array(W.README_RHO))
    m, q, k, phi = W.killed_model()
    return ChainOracle(m, q, k, phi=phi)


def chain_expected(workload: str, config: dict) -> dict:
    """Per check id, the exact value(s) its report row must carry."""
    orc = chain_oracle(workload)
    out = {}
    for check in config["checks"]:
        c = {"id": check} if isinstance(check, str) else check
        cid = c["id"]
        if cid == "symmetry":
            out[cid] = {"residual": orc.symmetry_residual()}
        elif cid == "conservativeness":
            out[cid] = {}
        elif cid == "form_identity":
            out[cid] = {"forms": orc.form_parts(c["f"]) if "f" in c else None}
        elif cid == "mass":
            out[cid] = {"oracle": orc.mass(c["x"], c["t"])}
        elif cid == "semigroup":
            out[cid] = {"oracle": orc.semigroup(c["f"], c.get("x", 0), c["t"])}
        elif cid == "symmetry_gap":
            out[cid] = {"oracle": 0.0}
        elif cid == "quadratic_form":
            series = {float(t): orc.energy_statistic(c["f"], float(t)) for t in c["ts"]}
            out[cid] = {"oracle": series[min(series)], "series": series}
        elif cid == "jump_rate":
            rate = orc.jump_rate(*c["pair"])
            out[cid] = {"oracle": rate, "series": {float(c["horizon"]): rate}}
    return out


# ---------------------------------------------------------------------------
# continuum


def _gauss_legendre(lo: float, hi: float, width: float, order: int):
    panels = int(round((hi - lo) / width))
    edges = np.linspace(lo, hi, panels + 1)
    s, w = np.polynomial.legendre.leggauss(order)
    a, b = edges[:-1, None], edges[1:, None]
    return (0.5 * (a + b) + 0.5 * (b - a) * s).ravel(), (0.5 * (b - a) * w).ravel()


def _form_by_gauss_legendre(f, fgrad, width: float, order: int) -> float:
    lo, hi = W.REGION
    x, w = _gauss_legendre(lo, hi, width, order)
    fx, rx, dx = f(x), W.rho(x), fgrad(x)
    continuous = 0.5 * float(np.sum(w * rx * rx * dx * dx))
    jump = 0.0
    block = 512
    for i in range(0, x.size, block):
        rows = np.arange(i, min(i + block, x.size))
        with np.errstate(divide="ignore", invalid="ignore"):
            quot = (fx[rows, None] - fx[None, :]) / (x[rows, None] - x[None, :])
        quot[rows - i, rows] = dx[rows]
        jump += float(np.sum((w[rows, None] * w[None, :]) * (rx[rows, None] * rx[None, :]) * quot * quot))
    return continuous + 0.5 * W.KERNEL_C * jump


def continuum_form(name: str) -> float:
    """Tilted energy of ``QUAD_FUNCTIONS[name]`` over ``REGION`` (alpha = 1)."""
    if W.ALPHA != 1.0:
        raise ValueError("the Gauss-Legendre oracle relies on alpha = 1")
    f, fgrad = W.QUAD_FUNCTIONS[name]
    coarse = _form_by_gauss_legendre(f, fgrad, 0.2, 12)
    fine = _form_by_gauss_legendre(f, fgrad, 0.1, 16)
    if abs(fine - coarse) > 1e-11 * abs(fine):
        raise ArithmeticError(f"Gauss-Legendre oracle not converged for {name}: {coarse!r} vs {fine!r}")
    return fine


if __name__ == "__main__":
    import json

    values = {name: continuum_form(name) for name in W.QUAD_FUNCTIONS}
    for wl in ("chain-readme", "chain-killed"):
        values[wl] = chain_expected(wl, W.chain_config(wl))
    print(json.dumps(values, indent=2, sort_keys=True, default=str))
