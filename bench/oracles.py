"""Independent reference computations for the benchmark's output checks.

Everything here uses numpy only and shares no code with ``gibbslab``:
spectra come from dense Hermitian eigenproblems in Fourier bases, not
from transfer matrices, and Gibbs weights from direct trigonometric sums
on a grid of the benchmark's own choosing, not from FFT quadrature.

Fields are passed in the repository's JSON wire format
``{"cutoff": M, "coeffs": [[n, re, im], ...]}``.
"""

from __future__ import annotations

import numpy as np


def coefficients(field: dict) -> dict[int, complex]:
    """Mode -> complex coefficient of a wire-format field."""
    return {int(n): complex(a, b) for n, a, b in field["coeffs"]}


def mass(field: dict) -> float:
    """sum |c_n|^2, the L^2 mass with the dx/2pi normalisation."""
    return float(sum(abs(c) ** 2 for c in coefficients(field).values()))


def _mode_matrix(hat: dict[int, complex], size: int, stride: int) -> np.ndarray:
    """Matrix of multiplication by sum_k hat[stride*k] e^{i stride k x} on size modes."""
    idx = np.arange(size)
    diff = stride * (idx[:, None] - idx[None, :])
    out = np.zeros((size, size), dtype=complex)
    for k, v in hat.items():
        out[diff == k] = v
    return out


# ---------------------------------------------------------------------------
# Dirac operator
# ---------------------------------------------------------------------------

def dirac_operator(field: dict, K: int, antiperiodic: bool) -> np.ndarray:
    """Hermitian matrix of L = [[-P, Q + d/dx], [Q - d/dx, P]].

    The periodic Dirac system Psi' = [[Q, P - lam/2], [P + lam/2, -Q]] Psi
    rearranges to (lam/2) Psi = L Psi, so its periodic (Delta = 2) and
    antiperiodic (Delta = -2) eigenvalues are 2 * eig(L) in the bases
    e^{ikx}, k in Z, and e^{i(k+1/2)x}, respectively; |k| <= K.
    """
    c = coefficients(field)
    modes = set(c) | {-n for n in c}
    qhat = {n: (c.get(n, 0) + np.conj(c.get(-n, 0))) / 2.0 for n in modes}
    phat = {n: (c.get(n, 0) - np.conj(c.get(-n, 0))) / 2.0j for n in modes}
    size = 2 * K + 1
    ks = np.arange(-K, K + 1) + (0.5 if antiperiodic else 0.0)
    Q = _mode_matrix(qhat, size, 1)
    P = _mode_matrix(phat, size, 1)
    D = np.diag(1j * ks)
    return np.block([[-P, Q + D], [Q - D, P]])


def dirac_eigenvalues(field: dict, K: int = 48) -> tuple[np.ndarray, np.ndarray]:
    """(periodic, antiperiodic) Dirac eigenvalues, sorted, with multiplicity.

    Only eigenvalues well inside |lam| < K are converged in the basis size.
    """
    per = 2.0 * np.linalg.eigvalsh(dirac_operator(field, K, antiperiodic=False))
    anti = 2.0 * np.linalg.eigvalsh(dirac_operator(field, K, antiperiodic=True))
    return per, anti


# ---------------------------------------------------------------------------
# Hill operator, period pi
# ---------------------------------------------------------------------------

def hill_operator(field: dict, K: int, antiperiodic: bool) -> np.ndarray:
    """Hermitian matrix of -d^2/dx^2 + q on pi-periodic or pi-antiperiodic functions.

    Periodic basis e^{2inx}: entries 4 n^2 delta_mn + qhat_{2(m-n)}.
    Antiperiodic basis e^{i(2n+1)x}: entries (2n+1)^2 delta_mn + qhat_{2(m-n)}.
    """
    c = coefficients(field)
    ns = np.arange(-K, K + 1)
    freq = 2 * ns + (1 if antiperiodic else 0)
    return np.diag(freq.astype(float) ** 2).astype(complex) + _mode_matrix(c, ns.size, 2)


def hill_eigenvalues(field: dict, lambda_max: float, K: int = 32) -> np.ndarray:
    """Periodic and antiperiodic Hill eigenvalues up to lambda_max, merged and sorted."""
    per = np.linalg.eigvalsh(hill_operator(field, K, antiperiodic=False))
    anti = np.linalg.eigvalsh(hill_operator(field, K, antiperiodic=True))
    both = np.sort(np.concatenate([per, anti]))
    return both[both <= lambda_max]


def hill_midpoints(eigenvalues: np.ndarray, n_max: int) -> np.ndarray:
    """t_n = sqrt((lam_{2n-1} + lam_{2n}) / 2) for n = 1..n_max."""
    lam = np.asarray(eigenvalues, dtype=float)
    return np.sqrt(0.5 * (lam[1 : 2 * n_max : 2] + lam[2 : 2 * n_max + 1 : 2]))


# ---------------------------------------------------------------------------
# Gibbs weights
# ---------------------------------------------------------------------------

def lp_integral(field: dict, p: float, grid: int = 67) -> float:
    """int |phi|^p dx/2pi by a direct trigonometric sum on an odd grid.

    For even integer p the integrand is a trigonometric polynomial of
    degree p * cutoff, integrated exactly by any grid larger than that.
    """
    c = coefficients(field)
    cutoff = int(field["cutoff"])
    if grid <= p * cutoff:
        raise ValueError("grid too small for exact quadrature")
    xs = 2.0 * np.pi * np.arange(grid) / grid
    ns = np.array(sorted(c))
    vals = np.exp(1j * np.outer(xs, ns)) @ np.array([c[n] for n in ns])
    return float(np.mean(np.abs(vals) ** p))


def nls_gibbs_weight(field: dict, p: float, beta: float) -> float:
    """exp(-(beta/p) int |phi|^p dx/2pi)."""
    return float(np.exp(-(beta / p) * lp_integral(field, p)))


def cubic_integral(field: dict, grid: int = 67) -> float:
    """int q^3 dx/2pi for a real field, by the same direct sum."""
    c = coefficients(field)
    xs = 2.0 * np.pi * np.arange(grid) / grid
    ns = np.array(sorted(c))
    vals = np.real(np.exp(1j * np.outer(xs, ns)) @ np.array([c[n] for n in ns]))
    return float(np.mean(vals**3))


def kdv_gibbs_weight(field: dict, beta: float) -> float:
    """exp(+(beta/6) int q^3 dx/2pi)."""
    return float(np.exp((beta / 6.0) * cubic_integral(field)))
