import math

import numpy as np
import pytest

from gibbslab import dirac_spectrum as ds
from gibbslab import hill_spectrum as hs
from gibbslab.floquet import _mat_prod, _segment_count, rk4_transfer, step_polynomials
from gibbslab.fourier_field import (
    GridTooSmallError,
    PeriodicField,
    default_grid_size,
    evaluate,
    lp_integral,
)
from gibbslab.gibbs_sampler import RejectionBudgetError, _batch_in_omega, gibbs_weight


def random_field(cutoff: int, seed: int, scale: float = 1.0, decay: float = 1.0) -> PeriodicField:
    rng = np.random.default_rng(seed)
    ns = np.arange(-cutoff, cutoff + 1)
    c = rng.standard_normal(2 * cutoff + 1) + 1j * rng.standard_normal(2 * cutoff + 1)
    c = scale * c / (1.0 + np.abs(ns)) ** decay
    return PeriodicField(cutoff, c)


def coefficients_from_grid(values: np.ndarray, cutoff: int) -> PeriodicField:
    """Inverse of ``evaluate`` for grid_size > 2*cutoff+1."""
    if values.size <= 2 * cutoff + 1:
        raise GridTooSmallError("grid too small to recover the requested cutoff")
    spec = np.fft.fft(values) / values.size
    ns = np.arange(-cutoff, cutoff + 1)
    return PeriodicField(cutoff, spec[ns % values.size])


def bounded_below_field(cutoff: int, seed: int, floor: float = 0.3) -> PeriodicField:
    """Random field with |phi| bounded away from zero on the circle."""
    f = random_field(cutoff, seed, scale=0.5)
    vals = evaluate(f, default_grid_size(cutoff))
    lift = max(0.0, floor - np.abs(vals).min()) + floor
    c = np.array(f.coeffs)
    c[cutoff] += lift + 1.0
    return PeriodicField(cutoff, c)


def real_even_field(cutoff: int, seed: int, scale: float = 0.1) -> PeriodicField:
    """Real-valued pi-periodic potential for Hill tests."""
    rng = np.random.default_rng(seed)
    c = np.zeros(2 * cutoff + 1, dtype=complex)
    for n in range(2, cutoff + 1, 2):
        z = (rng.standard_normal() + 1j * rng.standard_normal()) * scale / n
        c[cutoff + n] = z
        c[cutoff - n] = np.conj(z)
    return PeriodicField(cutoff, c)


def system_args(system: str, field: PeriodicField, steps: int):
    """(B's Taylor coefficients at the step starts, C, period) of the Dirac or Hill system."""
    if system == "dirac":
        return ds._dirac_nodes(field, steps), ds._DIRAC_C, 2 * np.pi
    return hs._hill_nodes(field, steps), hs._HILL_C, np.pi


def transfer(system: str, field: PeriodicField, steps: int, lam):
    """The four monodromy entries (11, 12, 21, 22) of the Dirac or Hill system on a batch."""
    step_poly = step_polynomials(*system_args(system, field, steps), steps)
    return rk4_transfer(step_poly, steps, lam)


def determinant(m):
    """det of the monodromy matrices whose entries ``transfer`` returns."""
    return m[0] * m[3] - m[1] * m[2]


def picard_monodromy(
    field: PeriodicField,
    lam: complex,
    grid: int = 4096,
    max_iter: int = 200,
    tol: float = 1e-12,
) -> np.ndarray:
    """Slow reference Dirac monodromy from the Volterra integral form of the system.

    Iterates Psi <- E(x) (I + int_0^x E(-s) K(s) Psi(s) ds) with
    E(x) = exp((lam x / 2) [[0,-1],[1,0]]) and K = [[Q, P], [P, -Q]],
    using cumulative trapezoid quadrature.  The field is summed densely
    from its modes, so the oracle shares no sampling code with the
    transfer-matrix engine.
    """
    xs = np.linspace(0.0, 2.0 * np.pi, grid + 1)
    vals = np.exp(1j * np.outer(xs, field.modes)) @ field.coeffs
    P, Q = np.imag(vals), np.real(vals)
    K = np.empty((grid + 1, 2, 2), dtype=complex)
    K[:, 0, 0] = Q
    K[:, 0, 1] = P
    K[:, 1, 0] = P
    K[:, 1, 1] = -Q

    def E(x, sign=1.0):
        a = sign * lam * x / 2.0
        c, s = np.cos(a), np.sin(a)
        out = np.empty(x.shape + (2, 2), dtype=complex)
        out[..., 0, 0] = c
        out[..., 0, 1] = -s
        out[..., 1, 0] = s
        out[..., 1, 1] = c
        return out

    Ex = E(xs)
    Em = E(xs, sign=-1.0)
    psi = Ex.copy()
    h = xs[1] - xs[0]
    for _ in range(max_iter):
        G = Em @ K @ psi
        integral = np.zeros_like(G)
        integral[1:] = np.cumsum(0.5 * h * (G[:-1] + G[1:]), axis=0)
        new = Ex @ (np.eye(2)[None, :, :] + integral)
        change = np.max(np.abs(new - psi))
        psi = new
        if change < tol:
            break
    return psi[-1]


def dirac_rk4_nodes(field: PeriodicField, steps: int):
    """The Dirac B's entries at the RK4 nodes x_j = j * pi / steps, j = 0..2*steps."""
    vals = evaluate(field, 2 * steps)
    vals = np.append(vals, vals[0])  # the node x = 2 pi closes the period
    Q, P = np.real(vals), np.imag(vals)
    return (Q, P, P, -Q)


def hill_rk4_nodes(q: PeriodicField, steps: int):
    """The Hill B's entries at the RK4 nodes x_j = j * pi / (2 * steps), j = 0..2*steps."""
    qg = np.real(evaluate(q, 4 * steps)[: 2 * steps + 1])
    zero, one = np.zeros_like(qg), np.ones_like(qg)
    return (zero, one, qg, zero)


# Steps of the RK4 polynomial build done at once
RK4_STEP_BLOCK = 256


def rk4_step_polynomials(b_nodes, c, length: float, steps: int) -> np.ndarray:
    """RK4 step increments of Psi' = (B(x) + lam C) Psi as polynomials in lam.

    The RK4 counterpart of ``floquet.step_polynomials``, for driving
    ``rk4_transfer`` with RK4 steps: ``b_nodes`` holds B's four entries at
    the half-grid nodes (``dirac_rk4_nodes``, ``hill_rk4_nodes``).  On a
    linear system RK4 step n is exactly Psi -> Psi + Q_n(lam) Psi with Q_n
    of degree at most 4 in lam; the stage formulas run once on matrix
    polynomials from Psi = I.  Returns the (deg + 1, 4, steps) coefficients
    with identically zero trailing ones dropped (deg 4 for Dirac, 2 for Hill).
    """
    b = np.array(b_nodes, dtype=float).reshape(2, 2, 1, -1)
    assert b.shape[-1] == 2 * steps + 1
    c_mat = np.array(c, dtype=float).reshape(2, 2, 1, 1)
    h = length / steps

    def times_a(b_node, poly):
        # (B + lam C) poly; poly has degree <= 3, so nothing is cut off
        prod = _mat_prod(b_node, poly)
        prod[:, :, 1:] += _mat_prod(c_mat, poly[:, :, :-1])
        return prod

    out = np.empty((5, 2, 2, steps))
    for s in range(0, steps, RK4_STEP_BLOCK):
        e = min(s + RK4_STEP_BLOCK, steps)
        # matrix polynomials of degree <= 4 as (2, 2, 5, e - s) arrays
        eye = np.zeros((2, 2, 5, e - s))
        eye[0, 0, 0] = eye[1, 1, 0] = 1.0
        b1, b2, b3 = (b[..., 2 * s + i : 2 * e + i : 2] for i in range(3))
        k1 = times_a(b1, eye)
        k2 = times_a(b2, eye + (h / 2) * k1)
        k3 = times_a(b2, eye + (h / 2) * k2)
        k4 = times_a(b3, eye + h * k3)
        out[..., s:e] = np.moveaxis((h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), 2, 0)
    out = out.reshape(5, 4, steps)
    deg = 4
    while deg > 0 and not out[deg].any():
        deg -= 1
    return out[: deg + 1]


def rk4_staged_oracle(b_nodes, c, length: float, steps: int, lam: np.ndarray):
    """The staged RK4 loop for Psi' = (B(x) + lam C) Psi, from B at the nodes.

    Runs the four stages on the (k, lam.size) lanes of every step, with the
    same segments along x (``_segment_count``) and the same pairwise tree
    as ``rk4_transfer``, so the two differ only in how a step is formed
    when the loop runs on ``rk4_step_polynomials``.
    Returns the four entries of Psi(length) shaped like ``lam``.
    """
    lam = np.asarray(lam, dtype=complex)
    shape = lam.shape
    k = _segment_count(steps, lam.size)
    seg = steps // k
    h = length / steps
    # node j of every segment as a (k, 1) column; segments share end nodes
    idx = 2 * seg * np.arange(k)[:, None] + np.arange(2 * seg + 1)
    cols = [np.asarray(b)[idx].T[:, :, None] for b in b_nodes]
    row = lam.reshape(1, -1)
    lam_c = [None if ci == 0 else ci * row for ci in c]

    def node(j: int):
        return tuple(b[j] if lc is None else b[j] + lc for b, lc in zip(cols, lam_c))

    def mul(A, m):
        a11, a12, a21, a22 = A
        return (
            a11 * m[0] + a12 * m[2],
            a11 * m[1] + a12 * m[3],
            a21 * m[0] + a22 * m[2],
            a21 * m[1] + a22 * m[3],
        )

    def step_add(m, d, t):
        return (m[0] + t * d[0], m[1] + t * d[1], m[2] + t * d[2], m[3] + t * d[3])

    lanes = (k, lam.size)
    psi = (
        np.ones(lanes, dtype=complex),
        np.zeros(lanes, dtype=complex),
        np.zeros(lanes, dtype=complex),
        np.ones(lanes, dtype=complex),
    )
    A3 = node(0)
    for j in range(seg):
        A1, A2, A3 = A3, node(2 * j + 1), node(2 * j + 2)
        k1 = mul(A1, psi)
        k2 = mul(A2, step_add(psi, k1, h / 2))
        k3 = mul(A2, step_add(psi, k2, h / 2))
        k4 = mul(A3, step_add(psi, k3, h))
        psi = tuple(
            psi[i] + (h / 6.0) * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
            for i in range(4)
        )
    while psi[0].shape[0] > 1:
        psi = mul([p[1::2] for p in psi], [p[0::2] for p in psi])
    return tuple(p.reshape(shape) for p in psi)


def hill_oracle(q: PeriodicField, lambda_max: float, K: int = 32) -> np.ndarray:
    """Periodic and antiperiodic eigenvalues of -f'' + q f up to lambda_max, sorted.

    ``eigvalsh`` of the Hermitian matrices of the operator in the bases
    e^{2inx} (periodic) and e^{i(2n+1)x} (antiperiodic), |n| <= K, with
    entries freq_m^2 delta_mn + qhat_{2(m-n)}; no transfer matrix is involved.
    """
    ns = np.arange(-K, K + 1)
    diff = 2 * (ns[:, None] - ns[None, :])
    coupling = np.zeros(diff.shape, dtype=complex)
    for n, c in zip(q.modes, q.coeffs):
        coupling[diff == n] = c
    both = np.sort(np.concatenate([
        np.linalg.eigvalsh(np.diag((2.0 * ns + shift) ** 2) + coupling) for shift in (0, 1)
    ]))
    return both[both <= lambda_max]


def dirac_oracle(field: PeriodicField, window, K: int = 64) -> list:
    """Periodic points of the Dirac system in the window as (value, series, multiplicity), sorted.

    ``eigvalsh`` of the Hermitian matrix of 2L, L = [[-P, Q + d/dx], [Q - d/dx, P]]
    with Q + iP the field, in the bases e^{ikx} ('principal', Delta = 2) and
    e^{i(k+1/2)x} ('complementary', Delta = -2), |k| <= K; no transfer matrix
    is involved.  Two eigenvalues of one series closer than 1e-9 are one
    point of multiplicity 2 at their mean.
    """
    ks = np.arange(-K, K + 1)
    diff = ks[:, None] - ks[None, :]
    Q = np.zeros(diff.shape, dtype=complex)
    P = np.zeros(diff.shape, dtype=complex)
    for n in field.modes:
        c, c_minus = field.mode(n), np.conj(field.mode(-n))
        Q[diff == n] = 0.5 * (c + c_minus)
        P[diff == n] = 0.5j * (c_minus - c)
    points = []
    for shift, series in ((0.0, "principal"), (0.5, "complementary")):
        D = np.diag(1j * (ks + shift))
        lam = 2.0 * np.linalg.eigvalsh(np.block([[-P, Q + D], [Q - D, P]]))
        lam = lam[(window[0] <= lam) & (lam <= window[1])]
        i = 0
        while i < lam.size:
            if i + 1 < lam.size and lam[i + 1] - lam[i] < 1e-9:
                points.append((0.5 * (lam[i] + lam[i + 1]), series, 2))
                i += 2
            else:
                points.append((lam[i], series, 1))
                i += 1
    return sorted(points)


def hessian_fd_oracle(field: PeriodicField, v, p: float, h: float = 1e-4) -> float:
    """Second central difference of the L^p energy along a coordinate vector.

    ``v`` = (xi, eta) perturbs the coordinates (a_{-M..M}, b_{-M..M}) of
    the field's cutoff M.  Shares only ``lp_integral`` with the Hessian code
    in hessian_convexity.
    """
    xi, eta = np.split(np.asarray(v, dtype=float), 2)
    step = PeriodicField(field.cutoff, xi + 1j * eta)
    vp = lp_integral(field + h * step, p)
    v0 = lp_integral(field, p)
    vm = lp_integral(field + (-h) * step, p)
    return (vp - 2.0 * v0 + vm) / (h * h)


def rejection_oracle(count: int, params, seed: int, max_attempts: int = 10_000_000):
    """Round-by-round rejection sampling that builds every drawn row into a loop.

    Round r draws one (pending, modes, 2) block of normals from
    SeedSequence((seed, r)), turns each row into coefficients, and keeps the
    rows that pass the exact membership test.  Returns (coeffs, weights,
    attempts); raises RejectionBudgetError with the sampler's message.
    """
    M = params.cutoff
    accepted = np.zeros((count, 2 * M + 1), dtype=complex)
    pending = np.arange(count)
    attempts = 0
    round_idx = 0
    while pending.size:
        if attempts >= max_attempts:
            raise RejectionBudgetError(
                f"no full acceptance after {attempts} attempts "
                f"({pending.size} of {count} still pending)"
            )
        rng = np.random.default_rng(np.random.SeedSequence((seed, round_idx)))
        if params.kind == "kdv":
            ns = np.arange(1, M + 1)
            z = rng.standard_normal((pending.size, M, 2))
            pos = (z[:, :, 0] + 1j * z[:, :, 1]) / (math.sqrt(2.0) * ns[None, :])
            if params.pi_periodic:
                pos[:, 0::2] = 0.0
            draws = np.zeros((pending.size, 2 * M + 1), dtype=complex)
            draws[:, M + 1 :] = pos
            draws[:, :M] = np.conj(pos[:, ::-1])
        else:
            ns = np.arange(-M, M + 1)
            z = rng.standard_normal((pending.size, 2 * M + 1, 2))
            draws = z[:, :, 0] + 1j * z[:, :, 1]
            with np.errstate(divide="ignore", invalid="ignore"):
                draws = draws / ns[None, :]
            draws[:, M] = 0.0
        attempts += pending.size
        ok = _batch_in_omega(draws, params)
        accepted[pending[ok]] = draws[ok]
        pending = pending[~ok]
        round_idx += 1
    weights = np.array([gibbs_weight(PeriodicField(M, c), params) for c in accepted])
    return accepted, weights, attempts


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
