"""Hessian quadratic form of the nonlinear energy and convexity certification.

Everything here works in the real coordinates (a_n, b_n) of a field.  The
second derivative of V(phi) = int |phi|^p dx/2pi along the perturbation
phi + t*(psi + i*theta), with psi = sum xi_n e^{inx} and theta = sum eta_n
e^{inx} (real xi, eta), is

    (p/2)       int |phi|^{p-2} ||(delta, conj(delta))||^2     dx/2pi
  + (p(p-2)/4)  int |phi|^{p-4} |delta conj(phi) + conj(delta) phi|^2 dx/2pi

with delta = psi + i*theta, i.e. p*|delta|^2 in the first integrand and
p(p-2)*Re(delta conj(phi))^2 in the second.  This form is validated against
a finite-difference oracle in the test suite.  For p < 4 the second
integrand is evaluated in the guarded product form
|phi|^{p-2} * (Re(delta conj(phi)) / |phi|)^2, whose ratio is bounded by
|delta| pointwise, so zeros of phi are harmless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fourier_field import (
    PeriodicField,
    default_grid_size,
    evaluate,
    hamiltonian,
    kinetic_energy,
    l2_norm_sq,
    lp_integral,
)

__all__ = [
    "ConvexityParams",
    "ConvexityReport",
    "hessian_matrix_V",
    "w_k_perturbation",
    "y_n_perturbation",
    "perturbed_hamiltonians",
    "certify_convexity",
    "lsi_lower_bound",
    "embedding_constants",
]

SINGULAR_GUARD = 1e-12  # |phi| floor inside the guarded integrand
CERT_TOL = 1e-9  # slack of both eigenvalue tests in certify_convexity


@dataclass(frozen=True)
class ConvexityParams:
    """Configured exponents and embedding constants for the convexity bounds.

      c_gamma : ||phi||_{L^{p-2}} <= c_gamma * ||phi||_{H^gamma}  (p = 4),
                exactly 1, attained at the constants
      c_delta : ||phi||_infty     <= c_delta * ||phi||_{H^delta}
      kappa   : HessV bound by kappa ||phi||_{L^{p-2}}^{p-2}, exactly 2p(p-1) = 24
      kappa_p : kappa combined with the embeddings, kappa * c_delta^2
                (150 at the defaults)

    c_gamma and kappa are fixed class attributes, not constructor fields.
    The default c_delta = 2.5 is not computed: it lies above the exact
    c_delta(M) of :func:`embedding_constants` at delta = 0.75 for every M,
    since the full-space value is sqrt(1 + 2 zeta(3/2)) ~ 2.495, but not
    at every delta (c_delta(16) = 2.545 at delta = 0.6).
    """

    c_gamma = 1.0
    kappa = 24.0

    delta: float = 0.75
    gamma: float = 0.3
    c_delta: float = 2.5
    holder_bound: float | None = None

    def __post_init__(self):
        if not (0.5 < self.delta < 1.0):
            raise ValueError("delta must lie in (1/2, 1)")
        if not (0.25 < self.gamma < 0.5):
            raise ValueError("gamma must lie in (1/4, 1/2)")
        if self.c_delta <= 0:
            raise ValueError("c_delta must be positive")

    @property
    def kappa_p(self) -> float:
        return self.kappa * self.c_delta**2

    def growth_factor(self, beta: float) -> float:
        """1 + |beta| c_gamma kappa_p K^{p-2} with K the Holder bound (p = 4 form)."""
        if self.holder_bound is None:
            raise ValueError("holder_bound K is required")
        return 1.0 + abs(beta) * self.c_gamma * self.kappa_p * self.holder_bound**2

    def truncation_level(self, beta: float) -> int:
        """Smallest mode index M with M^{2(1-delta)} at least the growth factor.

        Recomputed from the inputs on every call; never cached.  At beta = 0
        the base equals 1 and the level is 1.
        """
        base = self.growth_factor(beta) ** (1.0 / (2.0 * (1.0 - self.delta)))
        return max(1, int(math.ceil(base - 1e-12)))


def embedding_constants(delta: float, cutoff: int) -> dict[str, float]:
    """Exact embedding constants on the fields of mode cutoff M (p = 4).

    c_delta(M) = sqrt(1 + 2 sum_{n=1}^{M} n^{-2 delta}) by Cauchy-Schwarz
    against the H^delta weights (1 at n = 0, |n|^{2 delta} otherwise); the
    field c_n = weight_n^{-1} attains it at x = 0.  c_gamma = 1 because
    every weight is at least 1, with equality at the constants, and
    kappa = 2p(p-1) = 24.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    ns = np.arange(1, cutoff + 1, dtype=float)
    c_delta = math.sqrt(1.0 + 2.0 * float(np.sum(ns ** (-2.0 * delta))))
    c_gamma, kappa = ConvexityParams.c_gamma, ConvexityParams.kappa
    return {"c_gamma": c_gamma, "c_delta": c_delta, "kappa": kappa, "kappa_p": kappa * c_delta**2}


@dataclass(frozen=True)
class ConvexityReport:
    functional: str
    weight: str
    min_eigenvalue: float
    paper_bound: float
    certified: bool
    lsi_lower_bound: float
    convexity_modulus: float
    kernel_min_eigenvalue: float | None = None
    tolerance: float = CERT_TOL

    def to_json(self) -> dict:
        return {
            "functional": self.functional,
            "weight": self.weight,
            "min_eigenvalue": self.min_eigenvalue,
            "paper_bound": self.paper_bound,
            "certified": self.certified,
            "lsi_lower_bound": self.lsi_lower_bound,
            "convexity_modulus": self.convexity_modulus,
            "kernel_min_eigenvalue": self.kernel_min_eigenvalue,
            "tolerance": self.tolerance,
        }


# ---------------------------------------------------------------------------
# The quadratic form
# ---------------------------------------------------------------------------

def hessian_matrix_V(field: PeriodicField, p: float) -> np.ndarray:
    """Dense Hessian of V in the coordinates (a_{-M..M}, b_{-M..M}).

    The Gram matrix of the bilinear form of the module docstring over the
    directions delta = e^{inx} (the a_n) and delta = i e^{inx} (the b_n),
    with both integrals taken as means over the default grid.
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    g = default_grid_size(field.cutoff)
    phi = evaluate(field, g).values
    ns = np.arange(-field.cutoff, field.cutoff + 1)
    basis = np.exp(1j * np.outer(ns, 2 * np.pi * np.arange(g) / g))
    D = np.vstack([basis, 1j * basis])  # delta of each coordinate direction, (d, g)

    absphi = np.abs(phi)
    w1 = np.ones(g) if p == 2.0 else absphi ** (p - 2.0)
    H = p * np.real((D * w1) @ D.conj().T) / g
    if p == 2.0:
        return H
    # guarded product form of |phi|^{p-4} Re(delta conj(phi))^2
    R = np.real(D * np.conj(phi)) / np.maximum(absphi, SINGULAR_GUARD)
    return H + p * (p - 2.0) * ((R * w1) @ R.T) / g


# ---------------------------------------------------------------------------
# Perturbations
# ---------------------------------------------------------------------------

def _w_k_rate(beta: float, params: ConvexityParams) -> tuple[int, float]:
    """Truncation level M and the coefficient growth factor * M^{2 delta} of W_K."""
    level = params.truncation_level(beta)
    return level, params.growth_factor(beta) * level ** (2.0 * params.delta)


def w_k_perturbation(
    field: PeriodicField, beta: float, p: float, params: ConvexityParams
) -> float:
    """Growth factor times M^{2 delta} times the low-mode mass sum_{|j|<=M}."""
    level, rate = _w_k_rate(beta, params)
    M = field.cutoff
    return rate * float(np.sum(np.abs(field.coeffs[max(0, M - level) : M + level + 1]) ** 2))


def w_k_sup_bound(beta: float, ball_radius: float, params: ConvexityParams) -> float:
    """Upper bound of the low-mode perturbation on the ball of mass N."""
    return _w_k_rate(beta, params)[1] * ball_radius


def _y_n_rate(beta: float, ball_radius: float, params: ConvexityParams) -> float:
    """(1-delta) (|beta| c_delta N)^{1/(1-delta)}, the coefficient of Y_N."""
    if beta == 0.0:
        return 0.0
    d = params.delta
    return (1.0 - d) * (abs(beta) * params.c_delta * ball_radius) ** (1.0 / (1.0 - d))


def y_n_perturbation(
    field: PeriodicField, beta: float, ball_radius: float, params: ConvexityParams
) -> float:
    """(1-delta) (|beta| c_delta N)^{1/(1-delta)} times the L^2 mass."""
    return _y_n_rate(beta, ball_radius, params) * l2_norm_sq(field)


def y_n_sup_bound(beta: float, ball_radius: float, params: ConvexityParams) -> float:
    """Upper bound of Y_N on the ball of mass N: its coefficient times N."""
    return _y_n_rate(beta, ball_radius, params) * ball_radius


def perturbed_hamiltonians(
    field: PeriodicField,
    beta: float,
    p: float,
    ball_radius: float,
    params: ConvexityParams,
) -> dict[str, float]:
    """Values of H, H_K = H + W_K and G_N = kinetic + Y_N + (beta/2) V.

    The focusing perturbations are identically zero at beta = 0, where the
    plain Hamiltonian is already convex; all three then reduce to the
    kinetic term.
    """
    H = hamiltonian(field, p, beta)
    wk = 0.0 if beta == 0.0 else w_k_perturbation(field, beta, p, params)
    gn = (
        kinetic_energy(field)
        + y_n_perturbation(field, beta, ball_radius, params)
        + (0.0 if beta == 0.0 else (beta / 2.0) * lp_integral(field, p))
    )
    return {"H": H, "H_K": H + wk, "G_N": gn}


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------

def _weight_diagonal(weight: str, modes: np.ndarray, delta: float) -> np.ndarray:
    absn = np.abs(modes).astype(float)
    if weight == "l2":
        w = np.ones_like(absn)
    elif weight == "h1":
        w = absn**2
    elif weight == "h_delta":
        # Holder norm counts the zero mode with unit weight
        w = np.where(absn > 0, absn ** (2.0 * delta), 1.0)
    else:
        raise ValueError("weight must be 'l2', 'h1' or 'h_delta'")
    return np.concatenate([w, w])


def _functional_hessian(
    functional: str,
    field: PeriodicField,
    beta: float,
    p: float,
    ball_radius: float,
    params: ConvexityParams,
) -> np.ndarray:
    M = field.cutoff
    modes = np.arange(-M, M + 1).astype(float)
    kin = np.diag(np.concatenate([modes**2, modes**2]))
    if functional == "H":
        return kin + (beta / p) * hessian_matrix_V(field, p)
    if functional == "H_K":
        H = kin + (beta / p) * hessian_matrix_V(field, p)
        if beta == 0.0:
            return H
        level, rate = _w_k_rate(beta, params)
        diag = np.where(np.abs(modes) <= level, 2.0 * rate, 0.0)
        return H + np.diag(np.concatenate([diag, diag]))
    if functional == "G_N":
        rate = _y_n_rate(beta, ball_radius, params)
        out = kin + 2.0 * rate * np.eye(2 * (2 * M + 1))
        if beta != 0.0:
            out = out + (beta / 2.0) * hessian_matrix_V(field, p)
        return out
    raise ValueError("functional must be 'H', 'H_K' or 'G_N'")


def default_paper_bound(functional: str, delta: float) -> float:
    """Hessian-scale lower bounds: twice the convexity modulus eta.

    G_N carries the (1/2)(1-delta) coefficient against the h1 seminorm;
    H_K carries modulus 1/4, i.e. 1/2 on the Hessian scale; the defocusing
    H is bounded below by the kinetic form itself.
    """
    if functional == "G_N":
        return 0.5 * (1.0 - delta)
    if functional == "H_K":
        return 0.5
    return 1.0


def certify_convexity(
    functional: str,
    field: PeriodicField,
    beta: float,
    p: float,
    ball_radius: float,
    params: ConvexityParams,
    weight: str = "h1",
    paper_bound: float | None = None,
) -> ConvexityReport:
    """Dense eigenvalue certificate Hess >= bound * W for the chosen weight.

    ``min_eigenvalue`` is the smallest eigenvalue of W^{-1/2} Hess W^{-1/2}
    on the positive-weight subspace.  Certification additionally demands
    positive semidefiniteness of Hess - bound*W on the full space (reported
    through ``kernel_min_eigenvalue`` when W is singular), so weight kernels
    and cross terms are not silently ignored.  Both tests allow CERT_TOL.
    """
    if field.cutoff > 16:
        raise ValueError("dense certification is limited to cutoff <= 16")
    if paper_bound is None:
        paper_bound = default_paper_bound(functional, params.delta)
    H = _functional_hessian(functional, field, beta, p, ball_radius, params)
    wdiag = _weight_diagonal(weight, np.arange(-field.cutoff, field.cutoff + 1), params.delta)
    pos = wdiag > 0
    scale = 1.0 / np.sqrt(wdiag[pos])
    Hw = H[np.ix_(pos, pos)] * scale[:, None] * scale[None, :]
    min_eig = float(np.linalg.eigvalsh(Hw)[0])

    kernel_eig: float | None = None
    full = H - paper_bound * np.diag(wdiag)
    full_min = float(np.linalg.eigvalsh(full)[0])
    if not np.all(pos):
        kernel_eig = full_min
    certified = (min_eig >= paper_bound - CERT_TOL) and (full_min >= -CERT_TOL)

    eta = max(min_eig, 0.0) / 2.0
    alpha = lsi_lower_bound(
        beta,
        p,
        ball_radius,
        params,
        eta=eta,
        route="holder" if functional == "H_K" else "ball",
    )
    return ConvexityReport(
        functional=functional,
        weight=weight,
        min_eigenvalue=min_eig,
        paper_bound=paper_bound,
        certified=bool(certified),
        lsi_lower_bound=alpha,
        convexity_modulus=eta,
        kernel_min_eigenvalue=kernel_eig,
    )


def lsi_lower_bound(
    beta: float,
    p: float,
    ball_radius: float,
    params: ConvexityParams,
    eta: float = 0.25,
    route: str = "ball",
) -> float:
    """Bounded-perturbation constant alpha = eta * exp(-2 * sup perturbation).

    ``route='holder'`` uses the low-mode perturbation bound on the Holder
    ball (requires params.holder_bound); ``route='ball'`` uses the L^2-mass
    perturbation bound.  At beta = 0 no perturbation is needed and alpha
    equals eta.  The value can underflow to 0.0 for large parameter
    regimes; callers needing the exponent should use the sup bounds
    directly.
    """
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    if beta == 0.0:
        return eta
    if route == "holder":
        sup = w_k_sup_bound(beta, ball_radius, params)
    elif route == "ball":
        sup = y_n_sup_bound(beta, ball_radius, params)
    else:
        raise ValueError("route must be 'ball' or 'holder'")
    return eta * math.exp(-2.0 * sup) if sup < 350 else 0.0
