import numpy as np
import pytest

from gibbslab.fourier_field import PeriodicField, evaluate, default_grid_size, lp_integral


def random_field(cutoff: int, seed: int, scale: float = 1.0, decay: float = 1.0) -> PeriodicField:
    rng = np.random.default_rng(seed)
    ns = np.arange(-cutoff, cutoff + 1)
    c = rng.standard_normal(2 * cutoff + 1) + 1j * rng.standard_normal(2 * cutoff + 1)
    c = scale * c / (1.0 + np.abs(ns)) ** decay
    return PeriodicField(cutoff, c)


def bounded_below_field(cutoff: int, seed: int, floor: float = 0.3) -> PeriodicField:
    """Random field with |phi| bounded away from zero on the circle."""
    f = random_field(cutoff, seed, scale=0.5)
    vals = evaluate(f, default_grid_size(cutoff)).values
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
    from its modes, so the oracle shares no sampling code with the RK4
    engine.
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


def hessian_fd_oracle(field: PeriodicField, direction, p: float, h: float = 1e-4) -> float:
    """Second central difference of the L^p energy along a Direction of the field's cutoff.

    Shares only ``lp_integral`` with the Hessian code in hessian_convexity.
    """
    step = PeriodicField(field.cutoff, direction.xi + 1j * direction.eta)
    vp = lp_integral(field + h * step, p)
    v0 = lp_integral(field, p)
    vm = lp_integral(field + (-h) * step, p)
    return (vp - 2.0 * v0 + vm) / (h * h)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
