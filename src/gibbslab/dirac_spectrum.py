"""Spectral data of the periodic 2x2 Dirac system with potential phi = Q + iP.

The transfer matrix solves Psi' = A(x, lambda) Psi on [0, 2pi] with

    A = [[Q, P - lambda/2], [P + lambda/2, -Q]],

which is trace free, so det Psi is conserved.  The discriminant is
Delta(lambda) = trace Psi_lambda(2pi); for the zero potential it equals
2 cos(pi lambda).  Periodic spectrum and critical points are the real
solutions of Delta = +/-2 and Delta' = 0.

Linear statistics sum a strip-holomorphic, real-symmetric test function
over a two-sided index range of spectral points, either directly or by a
calculus-of-residues contour integral.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .floquet import (
    DOUBLE_TOL,
    TAYLOR_ORDER,
    InsufficientPointsError,
    Monodromy,
    build_models,
    contour_sum,
    locate_spectral_points,
    transfer_discriminant,
    transfer_monodromy,
)
from .fourier_field import PeriodicField, taylor_samples

__all__ = [
    "SpectralPoint",
    "SpectralDataDirac",
    "TestFunction",
    "monodromy",
    "discriminant",
    "discriminant_batch",
    "periodic_eigenvalues",
    "critical_points",
    "spectral_data",
    "two_sided_slice",
    "linear_statistic_direct",
    "linear_statistic_contour",
    "lorentzian",
    "cos_gauss",
    "poly_lorentzian",
    "parse_test_function",
    "InsufficientPointsError",
]

DEFAULT_STEPS = 256


# Psi' = (B(x) + lambda C) Psi with B = [[Q, P], [P, -Q]] and C = [[0, -1/2], [1/2, 0]]
_DIRAC_C = (0.0, -0.5, 0.5, 0.0)


def _dirac_nodes(field: PeriodicField, steps: int):
    """B's Taylor coefficients B^(j)(x_n) / j! at the step starts x_n = 2 pi n / steps."""
    vals = taylor_samples(field, TAYLOR_ORDER, steps)
    Q, P = np.real(vals), np.imag(vals)
    return (Q, P, P, -Q)


def monodromy(field: PeriodicField, lam: complex, steps: int = DEFAULT_STEPS) -> Monodromy:
    """Psi_lambda(2 pi) by fixed-step order-TAYLOR_ORDER Taylor steps."""
    nodes = _dirac_nodes(field, steps)
    return transfer_monodromy(nodes, _DIRAC_C, 2.0 * np.pi, steps, lam, field.content_hash())


def discriminant_batch(field: PeriodicField, steps: int = DEFAULT_STEPS):
    """Closure evaluating Delta on arrays of spectral parameters."""
    return transfer_discriminant(_dirac_nodes(field, steps), _DIRAC_C, 2.0 * np.pi, steps)


def discriminant(field: PeriodicField, lam: complex, steps: int = DEFAULT_STEPS) -> complex:
    return complex(discriminant_batch(field, steps)(np.asarray([lam]))[0])


# ---------------------------------------------------------------------------
# Spectral data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralPoint:
    value: float
    series: str          # 'principal' (Delta = 2) or 'complementary' (Delta = -2)
    multiplicity: int
    residual: float      # |Delta(value)^2 - 4| from the direct solver

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "series": self.series,
            "multiplicity": self.multiplicity,
            "residual": self.residual,
        }


@dataclass(frozen=True)
class SpectralDataDirac:
    window: tuple[float, float]
    periodic_points: tuple[SpectralPoint, ...] = ()
    critical_points: tuple[float, ...] = ()
    critical_residuals: tuple[float, ...] = ()
    # the |Delta'| checks' disk models (trust 0.25), for contour sums; not serialized
    critical_models: tuple = dataclasses.field(default=(), compare=False, repr=False)

    def periodic_values(self, with_multiplicity: bool = False) -> np.ndarray:
        if with_multiplicity:
            return np.array(
                [p.value for p in self.periodic_points for _ in range(p.multiplicity)]
            )
        return np.array([p.value for p in self.periodic_points])

    def to_json(self) -> dict:
        return {
            "window": list(self.window),
            "periodic_points": [p.to_json() for p in self.periodic_points],
            "critical_points": list(self.critical_points),
            "critical_residuals": list(self.critical_residuals),
        }


def _series_name(level: float) -> str:
    return "principal" if level > 0 else "complementary"


def _scan_grid(window: tuple[float, float], spacing: float = 0.1) -> np.ndarray:
    lo, hi = window
    if hi <= lo:
        raise ValueError("empty window")
    n = max(8, int(math.ceil((hi - lo) / spacing)) + 1)
    return np.linspace(lo, hi, n)


def _periodic_points(disc, window, refine_tol: float) -> tuple[SpectralPoint, ...]:
    """Real solutions of Delta^2 = 4 in the window, located on the closure ``disc``."""
    roots = locate_spectral_points(disc, _scan_grid(window))
    roots = [r for r in roots if not r.is_critical and window[0] <= r.value <= window[1]]
    pts = []
    if roots:
        check = np.real(disc(np.array([r.value for r in roots], dtype=complex)))
        for r, dval in zip(roots, check):
            resid = abs(dval * dval - 4.0)
            if resid > max(refine_tol * 100.0, DOUBLE_TOL):
                raise FloatingPointError(
                    f"defining-equation residual {resid:.2e} too large at {r.value:.8f}; "
                    "increase the step budget or refine the window grid"
                )
            pts.append(SpectralPoint(r.value, _series_name(r.level), r.multiplicity, resid))
    return tuple(pts)


def _critical_data(disc, window, refine_tol: float) -> SpectralDataDirac:
    """Real zeros of Delta' in the window, located on the closure ``disc``."""
    roots = locate_spectral_points(
        disc, _scan_grid(window), levels=(), want_critical=True
    )
    vals = [r.value for r in roots if r.is_critical and window[0] <= r.value <= window[1]]
    # |Delta'| from fresh disk models centered on the points, in one batch
    checks = build_models(disc, np.array(vals), 0.25) if vals else []
    residuals = []
    for v, model in zip(vals, checks):
        resid = abs(model.coef[1])
        if resid > max(refine_tol * 100.0, 1e-6):
            raise FloatingPointError(
                f"|Delta'| residual {resid:.2e} too large at {v:.8f}"
            )
        residuals.append(float(resid))
    return SpectralDataDirac(
        window=window,
        critical_points=tuple(vals),
        critical_residuals=tuple(residuals),
        critical_models=tuple(checks),
    )


def periodic_eigenvalues(
    field: PeriodicField,
    window: tuple[float, float],
    refine_tol: float = 1e-8,
    steps: int = DEFAULT_STEPS,
) -> SpectralDataDirac:
    """Real solutions of Delta^2 = 4 in the window, with series labels.

    Eigenvalues of the free system sit on the integer lattice with unit
    spacing, so the scan grid uses spacing 0.1.  Returned points satisfy
    |Delta^2 - 4| < max(100 * refine_tol, DOUBLE_TOL) against the direct solver.
    """
    pts = _periodic_points(discriminant_batch(field, steps), window, refine_tol)
    return SpectralDataDirac(window=window, periodic_points=pts)


def critical_points(
    field: PeriodicField,
    window: tuple[float, float],
    refine_tol: float = 1e-8,
    steps: int = DEFAULT_STEPS,
) -> SpectralDataDirac:
    """Real zeros of Delta' in the window (free case: the integers)."""
    return _critical_data(discriminant_batch(field, steps), window, refine_tol)


def spectral_data(
    field: PeriodicField,
    window: tuple[float, float],
    refine_tol: float = 1e-8,
    steps: int = DEFAULT_STEPS,
) -> SpectralDataDirac:
    """Periodic and critical points in the window, from one discriminant closure.

    The same as :func:`periodic_eigenvalues` and :func:`critical_points` at
    the same steps, with the step polynomials built once for both passes.
    """
    disc = discriminant_batch(field, steps)
    pts = _periodic_points(disc, window, refine_tol)
    crit = _critical_data(disc, window, refine_tol)
    return dataclasses.replace(crit, periodic_points=pts)


def two_sided_slice(points: np.ndarray, M: int) -> np.ndarray:
    """Points indexed j = -M..M with j = 0 the point nearest zero.

    Indices increase with the spectral parameter.  Raises when fewer than
    M points lie on either side of the center.
    """
    pts = np.sort(np.asarray(points, dtype=float))
    if pts.size < 2 * M + 1:
        raise InsufficientPointsError(f"need {2 * M + 1} points, have {pts.size}")
    center = int(np.argmin(np.abs(pts)))
    if center - M < 0 or center + M >= pts.size:
        raise InsufficientPointsError(
            "two-sided range extends past the computed window; widen the window"
        )
    return pts[center - M : center + M + 1]


# ---------------------------------------------------------------------------
# Test functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestFunction:
    """Strip-holomorphic observable with the real symmetry g(conj z) = conj g(z)."""

    evaluator: object
    strip_height: float
    name: str

    def __call__(self, z):
        return self.evaluator(z)

    def validate(self, samples: int = 100, seed: int = 0, tol: float = 1e-10) -> None:
        rng = np.random.default_rng(seed)
        z = rng.uniform(-5, 5, samples) + 1j * rng.uniform(
            -self.strip_height, self.strip_height, samples
        )
        sym = np.max(np.abs(self(np.conj(z)) - np.conj(self(z))))
        if sym > tol:
            raise ValueError(f"{self.name}: real symmetry violated by {sym:.2e}")
        edge = rng.uniform(-50, 50, samples) + 1j * self.strip_height * np.sign(
            rng.standard_normal(samples)
        )
        vals = np.abs(self(edge))
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"{self.name}: unbounded on the strip boundary")


def lorentzian(c: float = 3.0, strip_height: float = 1.0) -> TestFunction:
    if c <= strip_height:
        raise ValueError("lorentzian scale c must exceed the strip height")
    g = TestFunction(lambda z: 1.0 / (np.asarray(z) ** 2 + c * c), strip_height, f"lorentzian(c={c:g})")
    g.validate()
    return g


def cos_gauss(a: float = 1.0, strip_height: float = 1.0) -> TestFunction:
    g = TestFunction(
        lambda z: np.cos(a * np.asarray(z)) * np.exp(-np.asarray(z) ** 2),
        strip_height,
        f"cos_gauss(a={a:g})",
    )
    g.validate()
    return g


def poly_lorentzian(
    c: float = 3.0, c0: float = 1.0, c2: float = 1.0, strip_height: float = 1.0
) -> TestFunction:
    if c <= strip_height:
        raise ValueError("poly_lorentzian scale c must exceed the strip height")
    g = TestFunction(
        lambda z: (c0 + c2 * np.asarray(z) ** 2) / (np.asarray(z) ** 2 + c * c),
        strip_height,
        f"poly_lorentzian(c={c:g},c0={c0:g},c2={c2:g})",
    )
    g.validate()
    return g


def parse_test_function(spec: str) -> TestFunction:
    """Parse 'builtin:lorentzian:c=3' style test-function descriptors."""
    parts = spec.split(":")
    if parts and parts[0] == "builtin":
        parts = parts[1:]
    if not parts:
        raise ValueError(f"empty test-function spec {spec!r}")
    name, kwargs = parts[0], {}
    for item in parts[1:]:
        key, _, val = item.partition("=")
        kwargs[key] = float(val)
    makers = {"lorentzian": lorentzian, "cos_gauss": cos_gauss, "poly_lorentzian": poly_lorentzian}
    if name not in makers:
        raise ValueError(f"unknown test function {name!r}; choose from {sorted(makers)}")
    return makers[name](**kwargs)


# ---------------------------------------------------------------------------
# Linear statistics
# ---------------------------------------------------------------------------

def linear_statistic_direct(points, g, M: int) -> float:
    """Sum of g over the two-sided slice j = -M..M of the given points."""
    sel = two_sided_slice(np.asarray(points, dtype=float), M)
    return float(np.real(np.sum(g(sel.astype(complex)))))


def linear_statistic_contour(
    field: PeriodicField,
    g,
    centers,
    radius: float = 0.2,
    kernel: str = "critical",
    steps: int = DEFAULT_STEPS,
) -> float:
    """Residue-calculus evaluation of the linear statistic.

    Integrates g times Delta''/Delta' (critical points) or
    Delta'/(Delta -+ 2) (eigenvalue series) over a chain of circles.  Each
    circle must enclose the intended roots only; the g = 1 root count is
    checked for integrality and a failure raises ContourPlacementError.
    """
    if radius >= 0.25:
        raise ValueError("contour radius must stay below 1/4")
    centers = np.asarray(centers, dtype=complex)
    disc = discriminant_batch(field, steps)
    models = build_models(disc, centers, max(0.25, radius + 0.05))
    value, _counts = contour_sum(models, g, kernel, radius)
    return value
