"""Energy forms of base and transformed models, exact and by quadrature.

Every quadratic form here decomposes into a local (gradient) part, a jump
part and a killing part.  On finite chains the local part vanishes and the
jump part is the double sum over ORDERED pairs weighted by the half-measure
``J = m q / 2`` — summing both orders with the half weight is equivalent to
summing unordered pairs with full weight, and mixing the two conventions is
the classic factor-of-two mistake; every routine in this module uses the
ordered-pair convention.

The module's master identity is form-generator duality: each form value
must match ``-(Q f, f)`` in the matching weighted inner product, with the
generator built by an independent route.  Every chain form, and the batched
identity that ``girsanov verify`` checks, is summed by :func:`_chain_form`.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np
from numpy import fft

from .errors import DomainError, TransformError
from .model import (
    FiniteSymmetricModel,
    JumpDiffusionModel,
    jump_measure,
    killing_measure,
)
from .transform import (
    PureJumpPhi,
    _lowered_jump_measure,
    _rho_table,
    _unwrap,
    lower,
    lower_continuum,
    transformed_jump_measure,
    transformed_killing,
)

__all__ = [
    "FormValue",
    "base_form",
    "transformed_generator",
    "cemetery_generator",
    "pure_jump_generator",
    "transformed_form_rho",
    "transformed_form_phi",
    "ConservativenessReport",
    "conservativeness_check",
    "QuadratureForm",
    "continuum_form_quadrature",
    "DomainReport",
    "domain_membership",
]


@dataclass(frozen=True)
class FormValue:
    """Beurling-Deny split of a quadratic form value; all parts nonnegative."""

    continuous_part: float
    jump_part: float
    killing_part: float

    @property
    def total(self) -> float:
        return self.continuous_part + self.jump_part + self.killing_part


def _chain_form(J: np.ndarray, kappa, fs: np.ndarray):
    """Per row ``f`` of ``fs`` (shape ``(rows, n)``), the jump part
    ``sum_{x,y} J(x,y) (f(x)-f(y))^2`` over ordered pairs and the killing
    part ``sum_x kappa(x) f(x)^2``: the one place a chain form is summed.  A
    row's sums are pairwise sums of its own products, whatever rows come with it."""
    rows, n = fs.shape
    diff = fs[:, :, None] - fs[:, None, :]
    return (J * diff * diff).reshape(rows, n * n).sum(axis=1), (kappa * fs * fs).sum(axis=1)


def _form_value(J: np.ndarray, kappa, f: np.ndarray) -> FormValue:
    (jump,), (kill,) = _chain_form(J, kappa, f[None, :])
    return FormValue(0.0, float(jump), float(kill))


def _form_duality(model: FiniteSymmetricModel, transform, gen: np.ndarray, mu: np.ndarray):
    """``fs -> (jump, killing, cross, residual)``, each per row ``f`` of ``fs``:
    the parts of ``transform``'s form, ``cross = -sum_x (gen f)(x) f(x) mu(x)``
    with ``gen`` its lowered kernel's generator on the states, and the duality
    residual ``|total - cross| / max(1, |total|)``.  ``gen @ f`` is one
    product per row, as one over all rows would round differently."""
    J, kappa = transformed_jump_measure(model, transform), transformed_killing(model, transform)

    def duality(fs: np.ndarray):
        jump, kill = _chain_form(J, kappa, fs)
        total = (0.0 + jump) + kill  # FormValue.total's order
        cross = -((np.array([gen @ f for f in fs]) * fs * mu).sum(axis=1))
        return jump, kill, cross, np.abs(total - cross) / np.maximum(1.0, np.abs(total))

    return duality


def base_form(model: FiniteSymmetricModel, f) -> FormValue:
    """Energy ``sum_{x,y} (f(x)-f(y))^2 J(x,y) + sum_x kappa(x) f(x)^2``.

    The jump sum runs over ordered pairs against the half-weighted measure.
    Equals ``-(Qf, f)_m`` for every ``f``.
    """
    return _form_value(jump_measure(model), killing_measure(model), model.state_vector(f))


def transformed_generator(model: FiniteSymmetricModel, rho) -> np.ndarray:
    """Generator of the rho-tilted process, column by column from its
    definition ``Qhat f = (Q(rho f) - f Q rho) / rho``.

    Built by applying the base generator to ``rho``-weighted basis vectors
    rather than from the tilted kernel, so the two routes can be compared.
    Row sums vanish identically (killing is absorbed by the tilt).
    """
    rho = _rho_table(model, rho)
    Q = model.generator()
    Qrho = Q @ rho
    n = model.n
    out = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        out[:, j] = (Q @ (rho * e) - e * Qrho) / rho
    return out


def cemetery_generator(model: FiniteSymmetricModel, transform) -> np.ndarray:
    """Generator of ``g -> E_x[Z_t g(X_t)]`` on the states plus a cemetery,
    built from the transform's lowering.

    Index ``n`` is the absorbing cemetery.  Jumps run at ``(1 + phi) q``,
    killing flows into the cemetery at ``k (1 + phi_delta)``, and ``a_rate``
    discounts without moving mass anywhere.  A weighted path that dies keeps
    its weight at death, so ``P_t(x, cemetery)`` is ``E_x[Z_t; dead at t]``.
    """
    low = lower(model, transform)
    n = model.n
    rates = (1.0 + low.phi) * model.q
    np.fill_diagonal(rates, 0.0)
    death = model.k * (1.0 + low.phi_delta)
    gen = np.zeros((n + 1, n + 1))
    gen[:n, :n] = rates
    gen[:n, n] = death
    gen[np.arange(n), np.arange(n)] = -(rates.sum(axis=1) + death + low.a_rate)
    return gen


def pure_jump_generator(model: FiniteSymmetricModel, phi) -> np.ndarray:
    """Generator with jump rates ``(1 + phi) q`` and the base killing: the
    state block of the jump tilt's :func:`cemetery_generator`."""
    return cemetery_generator(model, PureJumpPhi(_unwrap(phi, PureJumpPhi)))[: model.n, : model.n]


def transformed_form_rho(model: FiniteSymmetricModel, rho, f) -> FormValue:
    """Energy of the rho-tilted process: jump measure ``rho(x)rho(y)J``,
    no killing part.  Equals ``-(Qhat f, f)`` weighted by ``rho^2 m``.

    The measure is built from rho directly, not from the lowering, so it
    stays an independent reference for :func:`transformed_jump_measure`.
    """
    rho = _rho_table(model, rho)
    return _form_value(rho[:, None] * rho[None, :] * jump_measure(model), 0.0, model.state_vector(f))


def transformed_form_phi(model: FiniteSymmetricModel, phi, f) -> FormValue:
    """Energy of the jump-tilted process: measure ``(1 + phi)J``, killing kept."""
    phi = PureJumpPhi(_unwrap(phi, PureJumpPhi))
    f = model.state_vector(f)
    return _form_value(transformed_jump_measure(model, phi), transformed_killing(model, phi), f)


@dataclass(frozen=True)
class ConservativenessReport:
    """Evidence that the rho-tilted process conserves mass.

    ``row_sum_residual`` is ``max |Qhat 1|`` and ``unit_form_value`` the
    tilted energy of the constant-one vector; both vanish (to rounding) even
    when the base model kills, because the tilt absorbs killing.
    """

    row_sum_residual: float
    unit_form_value: float
    tol: float = 1e-12

    @property
    def ok(self) -> bool:
        return self.row_sum_residual <= self.tol and abs(self.unit_form_value) <= self.tol

    def __bool__(self) -> bool:
        return self.ok


def conservativeness_check(model: FiniteSymmetricModel, rho, tol: float = 1e-12) -> ConservativenessReport:
    q_hat = transformed_generator(model, rho)
    ones = np.ones(model.n)
    residual = float(np.max(np.abs(q_hat @ ones)))
    unit = transformed_form_rho(model, rho, ones).total
    return ConservativenessReport(residual, unit, tol)


# ---------------------------------------------------------------------------
# continuum quadrature


@dataclass(frozen=True)
class QuadratureForm:
    """Two-level quadrature value of a continuum form.

    ``error_estimate`` is the change between the coarse and fine mesh; no
    extrapolation is done, the fine value is returned.  ``inconclusive`` is
    set when the two levels disagree so badly that the value should not be
    trusted.
    """

    continuous_part: float
    jump_part: float
    killing_part: float
    error_estimate: float
    mesh: int
    inconclusive: bool = False

    @property
    def total(self) -> float:
        return self.continuous_part + self.jump_part + self.killing_part


@functools.lru_cache(maxsize=128)
def _fast_len(m: int) -> int:
    """The least ``2**a 3**b 5**c >= m``, a length the FFT splits into small
    factors; at a length with a large prime factor it is several times slower."""
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the least power of two that reaches m
            best = min(best, p35 << (-(-m // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


# B_2, B_4, ..., B_12
_BERNOULLI = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0, -691.0 / 2730.0)


def _zeta(s: float) -> float:
    """Riemann zeta at real ``s != 1`` by Euler-Maclaurin summation: nine
    terms, the integral and end correction from 10 on, and six Bernoulli
    terms; within 3e-13 relative on ``(-1, 1)``, where the quadrature needs
    it (SciPy's would load ``scipy.special`` into every quadrature run)."""
    N = 10
    total = sum(k ** -s for k in range(1, N)) + N ** (1.0 - s) / (s - 1.0) + 0.5 * N ** -s
    term = s * N ** (-s - 1.0) / 2.0  # B_2k / (2k)! s (s+1) ... (s+2k-2) N^(-s-2k+1)
    for j, b in enumerate(_BERNOULLI):
        total += b * term
        k = 2 * j + 1
        term *= (s + k) * (s + k + 1) / ((k + 2) * (k + 3) * N * N)
    return total


@functools.lru_cache(maxsize=32)
def _stable_spectrum(alpha: float, c: float, lo: float, hi: float, n: int) -> np.ndarray:
    """Real FFT of the circulant that carries the stable kernel's Toeplitz
    matrix on ``n`` cells of ``(lo, hi)``: length :func:`_fast_len` ``(2n)``,
    entries ``k`` and ``size - k`` both ``(c/2)|kh|^{-1-alpha}`` for every
    offset ``1 <= k < n``, zeros elsewhere.

    Read-only, as every caller shares it.  It depends on nothing but its
    key, so it is kept for the 32 keys used last.  One spectrum holds
    ``_fast_len(2n)/2 + 1`` complex values, at most ``32 n`` bytes, so the
    cache holds at most about 1 MB per 1000 cells of the largest mesh kept
    (0.16 MB over meshes 160 to 5120).
    """
    h = (hi - lo) / n
    size = _fast_len(2 * n)
    col = np.zeros(size)
    col[1:n] = 0.5 * c * (np.arange(1, n) * h) ** (-1.0 - alpha)
    col[size - n + 1 :] = col[n - 1 : 0 : -1]
    spectrum = fft.rfft(col)
    spectrum.setflags(write=False)
    return spectrum


def _stable_toeplitz(model: JumpDiffusionModel, lo: float, hi: float, rows: np.ndarray,
                     spectra: np.ndarray, conv: np.ndarray) -> np.ndarray:
    """``K`` applied to each row of ``rows`` (shape ``(m, n)``), where
    ``K_ij = (c/2)|x_i - x_j|^{-1-alpha}`` for ``i != j`` (0 on the
    diagonal) on ``n`` cells of ``(lo, hi)``.

    One batched real FFT of the rows, zero-padded to ``size =``
    :func:`_fast_len` ``(2n)``, one product with the cached
    :func:`_stable_spectrum` and one batched inverse.  ``spectra``
    (``(m, size // 2 + 1)`` complex) and ``conv`` (``(m, size)``) are the
    caller's work arrays; the result is the view ``conv[:, :n]``.
    """
    n = rows.shape[-1]
    size = conv.shape[-1]
    fft.rfft(rows, size, out=spectra)
    spectra *= _stable_spectrum(model.alpha, model.c, lo, hi, n)
    fft.irfft(spectra, size, out=conv)
    return conv[:, :n]


def _quad_level(rho, f, model: JumpDiffusionModel, lo: float, hi: float, n: int):
    """Midpoint-rule form value on one mesh level, second order in ``h``, in
    O(n log n) time and O(n) memory.

    The jump part is the punctured pair sum over every ``i != j`` plus the
    diagonal term the puncture leaves out.  Near the diagonal the integrand
    is ``r(x)^2 f'(x)^2 (c/2)|y - x|^{1-alpha}``, and the punctured
    trapezoid sum of ``|u|^{1-alpha}`` misses ``2 zeta(alpha - 1) h^{2-alpha}``
    times its smooth factor (Navot, J. Math. Phys. 40, 1961), which adds
    ``-zeta(alpha - 1) c h^{3-alpha} sum_i r_i^2 f'(x_i)^2``.

    On the uniform mesh the kernel ``K_ij = (c/2)|x_i - x_j|^{-1-alpha}`` is
    Toeplitz, and the pair sum is two matrix-vector products::

        sum_ij (f_i - f_j)^2 r_i r_j K_ij
            = 2 sum_i (r f^2)_i (K r)_i - 2 sum_i (r f)_i (K (r f))_i
            = 2 sum_i (r f)_i (f_i (K r)_i - (K (r f))_i)

    The last form, which cancels entry by entry, is the one summed; for
    constant ``f`` the two convolved vectors are equal and it is exactly 0.
    Both products come from :func:`_stable_toeplitz`, one batched real FFT
    (numpy's) of ``r`` and ``r f`` against the kernel's circulant of length
    :func:`_fast_len` ``(2n)``, which carries every offset ``k >= 1``.  That
    circulant's spectrum depends only on ``(alpha, c, lo, hi, n)`` and is
    cached per key (:func:`_stable_spectrum`: the 32 keys used last, at most
    about 1 MB per 1000 cells of the largest mesh kept); nothing that
    depends on ``rho`` or ``f`` is kept.
    """
    h = (hi - lo) / n
    size = _fast_len(2 * n)
    half = size // 2 + 1  # length of a real transform's spectrum
    # Every array the level computes is a view of one block, written in place
    # (f's results stay their own arrays; rho's is copied in next to r f, so
    # that one FFT call transforms both).  As some twenty arrays,
    # the level's memory went back to the system after each call and was
    # faulted in again on the next (2-3.5 MB a pass over meshes 160-2560):
    # glibc sets its trim threshold to twice the largest block it has
    # unmapped, and this block is larger than all else a level allocates.
    block = np.empty(5 * n + 2 * size + 4 * half)
    x, df, tmp = block[: 3 * n].reshape(3, n)
    r_rf = block[3 * n : 5 * n].reshape(2, n)  # r and r f, transformed together
    spectra = block[5 * n : 5 * n + 4 * half].view(complex).reshape(2, half)
    conv = block[5 * n + 4 * half :].reshape(2, size)
    rx, rf = r_rf
    np.add(np.arange(n), 0.5, out=x)
    x *= h
    x += lo
    np.subtract(np.asarray(f(x + h), dtype=float), np.asarray(f(x - h), dtype=float), out=df)
    df /= 2.0 * h
    fx = np.asarray(f(x), dtype=float)
    rx[:] = np.asarray(rho(x), dtype=float)
    np.multiply(rx, rx, out=tmp)
    tmp *= df
    tmp *= df
    energy = float(np.sum(tmp))
    cont = 0.5 * energy * h
    alpha = model.alpha
    np.multiply(rx, fx, out=rf)
    k_r, k_rf = _stable_toeplitz(model, lo, hi, r_rf, spectra, conv)
    np.multiply(fx, k_r, out=tmp)
    tmp -= k_rf
    pairs = 2.0 * float(np.dot(rf, tmp)) * h * h
    diagonal = -_zeta(alpha - 1.0) * model.c * h ** (3.0 - alpha) * energy
    return cont, pairs + diagonal


def _mesh(value) -> int:
    """``value`` as a cell count: an exact integer >= 8, numpy's included."""
    if not isinstance(value, numbers.Integral) or value < 8:
        raise DomainError(f"mesh must be an integer of at least 8 cells, got {value!r}")
    return int(value)


def continuum_form_quadrature(rho, f, model: JumpDiffusionModel, region, mesh: int) -> QuadratureForm:
    """Quadrature value of the tilted continuum energy over an interval.

    ``region = (lo, hi)``, an interval of the model, truncates both
    arguments of the jump double integral; ``f`` and ``rho`` should be
    smooth with ``f`` effectively supported inside the region.  The value is
    computed on ``mesh`` and ``2 * mesh`` cells and the fine value is
    returned together with the inter-level change as the error estimate.
    """
    lo, hi = model.interval(region)
    mesh = _mesh(mesh)
    c_lo, j_lo = _quad_level(rho, f, model, lo, hi, mesh)
    c_hi, j_hi = _quad_level(rho, f, model, lo, hi, 2 * mesh)
    err = abs((c_hi + j_hi) - (c_lo + j_lo))
    total = c_hi + j_hi
    bad = not np.isfinite(total) or (abs(total) > 0 and err > 0.5 * abs(total))
    return QuadratureForm(c_hi, j_hi, 0.0, err, 2 * mesh, inconclusive=bad)


@dataclass(frozen=True)
class DomainReport:
    """Finiteness witnesses for membership in a transformed form domain.

    The three witnesses are the local energy against ``rho^2``, the jump
    energy against the tilted jump measure, and the squared norm against the
    tilted reference measure.  ``status`` is ``"ok"`` or ``"inconclusive"``
    (quadrature failed to settle).
    """

    in_domain: bool
    continuous_energy: float
    jump_energy: float
    squared_norm: float
    status: str = "ok"

    def __bool__(self) -> bool:
        return self.in_domain


def domain_membership(model, transform, f, region=None, mesh: int = 256) -> DomainReport:
    """Check the three finiteness witnesses of form-domain membership.

    On finite models every vector of one finite number per state qualifies
    and the witnesses are exact sums.  On the continuum model the witnesses
    are quadrature values of a rho tilt over ``region``, an interval of the
    model, and membership means all three are finite and it converged.
    """
    if isinstance(model, FiniteSymmetricModel):
        f_arr = model.state_vector(f)
        low = lower(model, transform)
        J_y = _lowered_jump_measure(model, low)
        # the symmetric part of the jump measure carries the form
        wits = (0.0, _form_value(0.5 * (J_y + J_y.T), 0.0, f_arr).jump_part, float(np.sum(f_arr * f_arr * low.mu)))
        return DomainReport(all(np.isfinite(w) for w in wits), *wits)
    if not isinstance(model, JumpDiffusionModel):
        raise DomainError(f"unsupported model type: {type(model).__name__}")
    # a bad argument is an error, not an inconclusive quadrature
    lo, hi = model.interval(region)
    rho = lower_continuum(model, transform).rho
    if rho is None:
        raise TransformError("continuum membership checks need a rho tilt: the quadrature weighs by rho")
    mesh = _mesh(mesh)
    try:
        qf = continuum_form_quadrature(rho, f, model, (lo, hi), mesh)
        h = (hi - lo) / (2 * mesh)
        xs = lo + (np.arange(2 * mesh) + 0.5) * h
        fx = np.asarray(f(xs), dtype=float)
        rx = np.asarray(rho(xs), dtype=float)
        sq = float(np.sum(fx * fx * rx * rx)) * h
    except Exception:
        return DomainReport(False, float("nan"), float("nan"), float("nan"), status="inconclusive")
    wits = (qf.continuous_part, qf.jump_part, sq)
    finite = all(np.isfinite(w) for w in wits)
    if qf.inconclusive:
        return DomainReport(False, *wits, status="inconclusive")
    return DomainReport(finite, *wits)
