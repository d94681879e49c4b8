"""Spectral data of the periodic 2x2 Dirac system with potential phi = Q + iP.

The transfer matrix solves Psi' = A(x, lambda) Psi on [0, 2pi] with

    A = [[Q, P - lambda/2], [P + lambda/2, -Q]],

which is trace free, so det Psi is conserved.  The discriminant is
Delta(lambda) = trace Psi_lambda(2pi); for the zero potential it equals
2 cos(pi lambda).  Periodic spectrum and critical points are the real
solutions of Delta = +/-2 and Delta' = 0.  The former are the eigenvalues
of 2L, L = [[-P, Q + d/dx], [Q - d/dx, P]] as (lambda / 2) Psi = L Psi,
on the modes e^{ikx} (Delta = 2) and e^{i(k+1/2)x} (Delta = -2).

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
    TAYLOR_ORDER,
    TRUST,
    InsufficientPointsError,
    build_models,
    check_finite,
    check_residuals,
    contour_sum,
    locate_spectral_points_block,
    member_result,
    mode_coefficients,
    mode_spectrum,
    one_member,
    pad_members,
    transfer_discriminant,
)
from .fourier_field import PeriodicField, taylor_samples

__all__ = [
    "SpectralPoint",
    "SpectralDataDirac",
    "TestFunction",
    "discriminant_batch",
    "periodic_eigenvalues",
    "critical_points",
    "critical_points_block",
    "spectral_data",
    "spectral_data_from",
    "two_sided_slice",
    "linear_statistic_direct",
    "contour_statistic",
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


def discriminant_batch(field: PeriodicField, steps: int = DEFAULT_STEPS):
    """Closure evaluating Delta on arrays of spectral parameters."""
    return _discriminant_block([field], steps)


def _discriminant_block(fields, steps: int):
    """floquet.transfer_discriminant closure of a block of fields: Delta of each."""
    return transfer_discriminant(
        [_dirac_nodes(f, steps) for f in fields], _DIRAC_C, 2.0 * np.pi, steps
    )


# ---------------------------------------------------------------------------
# Spectral data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralPoint:
    value: float
    series: str          # 'principal' (Delta = 2) or 'complementary' (Delta = -2)
    multiplicity: int
    residual: float      # |Delta(value)^2 - 4| from the direct solver
    truncation_bound: float  # distance to the operator's eigenvalues, each of them


@dataclass(frozen=True)
class SpectralDataDirac:
    window: tuple[float, float]
    periodic_points: tuple[SpectralPoint, ...] = ()
    critical_points: tuple[float, ...] = ()
    critical_residuals: tuple[float, ...] = ()
    # the |Delta'| checks' disk models (trust floquet.TRUST), one row per
    # critical point, for contour sums; not written to result files
    critical_models: np.ndarray = dataclasses.field(
        default_factory=lambda: np.empty((0, 0), dtype=complex),
        compare=False,
        repr=False,
        metadata={"wire": False},
    )

    def periodic_values(self, with_multiplicity: bool = False) -> np.ndarray:
        if with_multiplicity:
            return np.array(
                [p.value for p in self.periodic_points for _ in range(p.multiplicity)]
            )
        return np.array([p.value for p in self.periodic_points])


def _scan_grid(window: tuple[float, float], spacing: float = 0.1) -> np.ndarray:
    lo, hi = window
    if hi <= lo:
        raise ValueError("empty window")
    n = max(8, int(math.ceil((hi - lo) / spacing)) + 1)
    return np.linspace(lo, hi, n)


def _mode_matrices(field):
    """floquet.mode_spectrum's ``matrix`` for 2L on a block of one field: in the
    components psi1 +- i psi2, 2L is [[D, 2i C], [(2i C)^H, -D]] with D = diag(2w)
    and C_ab = c(w_a - w_b), and its real form is

        [[D + 2 Re c(w_a + w_b),  -2 Im c(w_a - w_b)],
         [-2 Im c(w_b - w_a),     -D - 2 Re c(-(w_a + w_b))]]."""
    re, im = 2.0 * np.real(field.coeffs)[None], 2.0 * np.imag(field.coeffs)[None]

    def matrix(freqs, members):
        diff = np.rint(freqs[:, None] - freqs).astype(int)
        total = np.rint(freqs[:, None] + freqs).astype(int)
        d = np.diag(2.0 * freqs)
        off = -mode_coefficients(im[members], diff)
        top = d + mode_coefficients(re[members], total)
        bottom = -d - mode_coefficients(re[members], -total)
        return np.block([[top, off], [off.swapaxes(1, 2), bottom]]), np.concatenate([freqs, freqs])

    return matrix


def _periodic_points(field, disc, window, refine_tol: float) -> tuple[SpectralPoint, ...]:
    """The mode matrices' eigenvalues in the window, checked on ``disc``; two of one
    series whose truncation-bound intervals overlap are one double point at their mean."""
    if window[1] <= window[0]:
        raise ValueError("empty window")
    edge = max(abs(window[0]), abs(window[1])) / 2.0
    values, anti, bounds = one_member(
        mode_spectrum(_mode_matrices(field), 1.0, [field.cutoff], [edge], window, refine_tol)
    )
    found = []  # (value, antiperiodic, multiplicity, truncation bound)
    for series in (False, True):
        v, b = values[anti == series], bounds[anti == series]
        i = 0
        while i < v.size:
            m = 2 if i + 1 < v.size and v[i + 1] - v[i] <= b[i] + b[i + 1] else 1
            half = (v[i + m - 1] - v[i]) / 2
            found.append((v[i] + half, series, m, b[i : i + m].max() + half))
            i += m
    found.sort()
    points = np.array([f[0] for f in found])
    delta = disc(points)
    resid = check_residuals(np.abs(delta * delta - 4.0), points, refine_tol)
    return tuple(
        SpectralPoint(float(v), "complementary" if a else "principal", m, float(r), float(b))
        for (v, a, m, b), r in zip(found, resid)
    )


def _critical_data(disc, members: int, window, refine_tol: float) -> list:
    """Real zeros of Delta' in the window for each member of the block closure ``disc``:
    its SpectralDataDirac, or the numerical failure that failed it.

    The points come from floquet.locate_spectral_points_block on the one
    scan grid, and their |Delta'| checks from one set of fresh disk models
    centered on every member's points (floquet.pad_members), in one batch.
    """
    grid = _scan_grid(window)
    located = locate_spectral_points_block(disc, np.broadcast_to(grid, (members, grid.size)))
    found = [v if isinstance(v, np.ndarray) and v.size else None for v in located]
    centers = pad_members(found)
    checks = None if centers is None else build_models(disc, centers, TRUST)
    out = []
    for i, (v, f) in enumerate(zip(located, found)):
        if f is not None:
            v = member_result(_checked_critical, window, f, checks[i, : f.size], refine_tol)
        out.append(SpectralDataDirac(window=window) if isinstance(v, np.ndarray) else v)
    return out


def _checked_critical(window, vals: np.ndarray, checks: np.ndarray, refine_tol: float):
    """One member's critical data from its check models, or FloatingPointError."""
    check_finite(checks)
    residuals = check_residuals(np.abs(checks[:, 1]), vals, refine_tol)
    return SpectralDataDirac(
        window=window,
        critical_points=tuple(vals.tolist()),
        critical_residuals=tuple(map(float, residuals)),
        critical_models=checks,
    )


def periodic_eigenvalues(
    field: PeriodicField,
    window: tuple[float, float],
    refine_tol: float = 1e-8,
    steps: int = DEFAULT_STEPS,
) -> SpectralDataDirac:
    """Real solutions of Delta^2 = 4 in the window, with series labels.

    Every point lies within its truncation bound, at most ``refine_tol``,
    of the operator's eigenvalues and satisfies |Delta^2 - 4| <=
    max(100 * refine_tol, 1e-6) against the direct solver at ``steps``.
    """
    pts = _periodic_points(field, discriminant_batch(field, steps), window, refine_tol)
    return SpectralDataDirac(window=window, periodic_points=pts)


def critical_points(
    field: PeriodicField,
    window: tuple[float, float],
    refine_tol: float = 1e-8,
    steps: int = DEFAULT_STEPS,
) -> SpectralDataDirac:
    """Real zeros of Delta' in the window (free case: the integers)."""
    return one_member(critical_points_block([field], window, refine_tol, steps))


def critical_points_block(
    fields,
    window: tuple[float, float],
    refine_tol: float = 1e-8,
    steps: int = DEFAULT_STEPS,
) -> list:
    """:func:`critical_points` of a block of fields, each engine phase one call for
    the block: each field's SpectralDataDirac, or the numerical failure
    (floquet.NUMERICAL_FAILURES) that failed it alone."""
    return _critical_data(_discriminant_block(fields, steps), len(fields), window, refine_tol)


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
    return spectral_data_from(field, discriminant_batch(field, steps), window, refine_tol)


def spectral_data_from(field, disc, window: tuple[float, float], refine_tol: float = 1e-8):
    """:func:`spectral_data` with ``disc`` the field's :func:`discriminant_batch` closure.

    A caller that evaluates the discriminant elsewhere too (a trace) shares
    the closure, and so its step polynomials, with both passes.
    """
    pts = _periodic_points(field, disc, window, refine_tol)
    crit = one_member(_critical_data(disc, 1, window, refine_tol))
    _check_gaps(pts, np.array(crit.critical_points))
    return dataclasses.replace(crit, periodic_points=pts)


def _check_gaps(points: tuple[SpectralPoint, ...], crit: np.ndarray) -> None:
    """FloatingPointError unless the critical points between the first and the last
    periodic point lie one in each gap, in order.

    Delta' has exactly one zero in each gap, two consecutive periodic points
    of one series counted with multiplicity (a double point is a closed
    gap), and none in a band.  Each gap is widened by its edges' truncation
    bounds.
    """
    if not points:
        return
    expanded = [p for p in points for _ in range(p.multiplicity)]
    v = np.array([p.value for p in expanded])
    b = np.array([p.truncation_bound for p in expanded])
    gap = np.array([p.series == q.series for p, q in zip(expanded, expanded[1:])], dtype=bool)
    lo, hi = (v - b)[:-1][gap], (v + b)[1:][gap]
    inner = crit[(v[0] - b[0] <= crit) & (crit <= v[-1] + b[-1])]
    if inner.size != lo.size:
        raise FloatingPointError(
            f"{inner.size} critical points in {lo.size} gaps between {v[0]:.8f} and {v[-1]:.8f}"
        )
    out = np.flatnonzero((inner < lo) | (inner > hi))
    if out.size:
        i = out[0]
        raise FloatingPointError(
            f"critical point {inner[i]:.8f} outside its gap [{lo[i]:.8f}, {hi[i]:.8f}]"
        )


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


def contour_statistic(
    models: np.ndarray, centers, g, radius: float = 0.2, kernel: str = "critical"
) -> float:
    """Residue-calculus evaluation of the linear statistic on disk models.

    ``models`` are the discriminant's :func:`floquet.build_models` rows at
    the real ``centers``, of trust floquet.TRUST, such as the
    ``critical_models`` of :func:`critical_points`.  Integrates g times
    Delta''/Delta' (critical points) or Delta'/(Delta -+ 2) (eigenvalue
    series) over a chain of circles.  Each circle must enclose the intended
    roots only; the g = 1 root count is checked for integrality and a
    failure raises ContourPlacementError.  Models of shape (B, C, n) and
    (B, C) centers are a block of B members' circles: the result is then a
    list with each member's value or the ContourPlacementError that failed
    it (floquet.contour_sum).
    """
    if not 0.0 < radius < 0.25:
        raise ValueError(f"contour radius must lie in (0, 1/4), got {radius}")
    if np.size(centers) == 0:
        raise ValueError("no contour centers (the default centers are the field's critical points)")
    value, _counts = contour_sum(models, centers, TRUST, g, kernel, radius)
    return value


def linear_statistic_contour(
    field: PeriodicField,
    g,
    centers,
    radius: float = 0.2,
    kernel: str = "critical",
    steps: int = DEFAULT_STEPS,
) -> float:
    """:func:`contour_statistic` on disk models of the field's discriminant at ``centers``,
    which must be real (floquet.build_models)."""
    centers = np.asarray(centers)
    models = build_models(discriminant_batch(field, steps), centers, TRUST)
    return contour_statistic(models, centers, g, radius, kernel)
