"""Periodic spectrum of Hill's equation -f'' + q f = lambda f.

The potential q is real valued and pi-periodic (even Fourier modes only),
and the discriminant is the trace of the transfer matrix of (f, f') over
one period pi, so the free case gives Delta(lambda) = 2 cos(pi sqrt(lambda))
with periodic points at 4 n^2 and antiperiodic points at (2n-1)^2.

Eigenvalues are ordered lambda_0 < lambda_1 <= lambda_2 < lambda_3 <= ...;
the intervals (lambda_{2j-1}, lambda_{2j}) are the spectral gaps, and the
gap midpoints define the sampling sequence

    t_n = sqrt((lambda_{2n-1} + lambda_{2n}) / 2),  t_0 = 0,  t_{-n} = -t_n,

which stays within 1/4 of the integers under the smallness hypotheses
int q dx/2pi = 0 and int |q| dx/2pi < 1/2, making it a sampling sequence
for band-limited functions of band 2.

The eigenvalues are those of the operator's matrices on the modes e^{2inx}
(periodic) and e^{i(2n+1)x} (antiperiodic), each with a truncation bound
and the residual |Delta^2 - 4| of the transfer-matrix discriminant.  All
outputs carry the period convention marker "pi".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .floquet import (
    TAYLOR_ORDER,
    InsufficientPointsError,
    build_models,
    check_finite,
    check_residuals,
    contour_sum,
    member_result,
    mode_spectrum,
    multiplication_matrix,
    one_member,
    pad_members,
    transfer_discriminant,
)
from .fourier_field import (
    PeriodicField,
    default_grid_size,
    evaluate,
    is_real_valued,
    taylor_samples,
)

__all__ = [
    "OddModeError",
    "HillSpectralData",
    "FrameEstimate",
    "BorgReport",
    "hill_discriminant_batch",
    "hill_periodic_spectrum",
    "hill_periodic_spectrum_block",
    "borg_check",
    "BandLimitedFunction",
    "default_test_family",
    "frame_bounds_estimate",
    "pw_statistic_contour",
    "gap_summability_report",
]

PERIOD_CONVENTION = "pi"
DEFAULT_STEPS = 256
SPECTRUM_TOL = 1e-8


class OddModeError(ValueError):
    """The potential has odd Fourier modes and is not pi-periodic."""


def _check_potential(q: PeriodicField, tol: float = 1e-10) -> None:
    if not is_real_valued(q, tol):
        raise ValueError("Hill potential must be real valued")
    ns = q.modes
    odd = np.abs(q.coeffs[ns % 2 != 0])
    if odd.size and odd.max() > tol:
        raise OddModeError("Hill potential must be pi-periodic (even modes only)")


# f'' = (q - lambda) f as Psi' = (B(x) + lambda C) Psi on (f, f'):
# B = [[0, 1], [q, 0]] and C = [[0, 0], [-1, 0]]
_HILL_C = (0.0, 0.0, -1.0, 0.0)


def _hill_nodes(q: PeriodicField, steps: int):
    """B's Taylor coefficients B^(j)(x_n) / j! at the step starts x_n = pi n / steps."""
    qd = np.real(taylor_samples(q, TAYLOR_ORDER, 2 * steps)[:, :steps])
    zero, one = np.zeros_like(qd), np.zeros_like(qd)
    one[0] = 1.0
    return (zero, one, qd, zero)


def hill_discriminant_batch(q: PeriodicField, steps: int = DEFAULT_STEPS):
    return _discriminant_block([q], steps)


def _discriminant_block(qs, steps: int):
    """floquet.transfer_discriminant closure of a block of potentials: Delta of each."""
    for q in qs:
        _check_potential(q)
    return transfer_discriminant([_hill_nodes(q, steps) for q in qs], _HILL_C, np.pi, steps)


# ---------------------------------------------------------------------------
# Periodic spectrum, gaps and midpoints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HillSpectralData:
    eigenvalues: np.ndarray          # ordered with multiplicity
    series: tuple[str, ...]          # 'periodic' (Delta=2) / 'antiperiodic' (Delta=-2)
    gaps: tuple[tuple[float, float, float], ...]
    midpoints: np.ndarray            # t_n for n = 0..n_max, t_0 = 0
    residuals: np.ndarray
    truncation_bounds: np.ndarray    # distance to an eigenvalue of the operator
    lambda_max: float
    period_convention: str = PERIOD_CONVENTION
    ordering_ok: bool = True

    def t(self, n: int) -> float:
        """Two-sided midpoint sequence with t_{-n} = -t_n, for |n| <= n_max."""
        if abs(n) >= self.midpoints.size:
            raise InsufficientPointsError(
                f"midpoint index {n} beyond the computed range |n| <= {self.n_max}"
            )
        return float(np.sign(n) * self.midpoints[abs(n)])

    def two_sided_t(self, J: int) -> np.ndarray:
        return np.array([self.t(n) for n in range(-J, J + 1)])

    @property
    def n_max(self) -> int:
        return self.midpoints.size - 1

    def to_json(self) -> dict:
        return {
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "series": list(self.series),
            "gaps": [[float(a), float(b), float(c)] for a, b, c in self.gaps],
            "midpoints": [float(t) for t in self.midpoints],
            "residuals": [float(r) for r in self.residuals],
            "truncation_bounds": [float(b) for b in self.truncation_bounds],
            "lambda_max": self.lambda_max,
            "period_convention": self.period_convention,
            "ordering_ok": self.ordering_ok,
        }


def _mode_eigenvalues(q: PeriodicField, lambda_max: float, tol: float):
    """floquet.mode_spectrum of -d^2/dx^2 + q: (values, antiperiodic, bounds) up to lambda_max."""

    def matrix(freqs):  # -d^2/dx^2 + q on the modes e^(iwx)
        return np.diag(freqs * freqs) + multiplication_matrix(q.coeffs, freqs), freqs

    # q's mean shifts the diagonal w^2, which reaches lambda_max at edge
    edge = math.sqrt(max(lambda_max - q.mode(0).real, 0.0))
    return mode_spectrum(matrix, 2.0, q.cutoff, edge, (-np.inf, lambda_max), tol)


def hill_periodic_spectrum(
    q: PeriodicField,
    lambda_max: float,
    tol: float = SPECTRUM_TOL,
    steps: int = DEFAULT_STEPS,
) -> HillSpectralData:
    """All periodic and antiperiodic eigenvalues up to lambda_max.

    Each lies within its truncation bound, at most ``tol``, of the
    operator's; both edges of a gap are listed, however narrow.  Residuals
    |Delta^2 - 4| come from the direct solver (floquet.check_residuals).
    """
    return one_member(hill_periodic_spectrum_block([q], lambda_max, tol, steps))


def hill_periodic_spectrum_block(
    qs,
    lambda_max: float,
    tol: float = SPECTRUM_TOL,
    steps: int = DEFAULT_STEPS,
) -> list:
    """:func:`hill_periodic_spectrum` of a block of potentials: each one's
    HillSpectralData, or the numerical failure (floquet.NUMERICAL_FAILURES)
    that failed it alone.

    Each potential has its own mode matrices; the residual checks of the
    whole block are one real-lambda call of the transfer-matrix engine, on
    every member's eigenvalues (floquet.pad_members).
    """
    if not lambda_max >= 0.0:
        raise ValueError(f"lambda_max must be non-negative, got {lambda_max}")
    disc = _discriminant_block(qs, steps)
    spectra = [member_result(_mode_eigenvalues, q, lambda_max, tol) for q in qs]
    values = [None if isinstance(s, BaseException) else s[0] for s in spectra]
    padded = pad_members(values)
    delta = np.empty((len(qs), 0)) if padded is None else disc(padded)
    return [
        s if v is None else member_result(_hill_data, *s, delta[i, : v.size], lambda_max, tol)
        for i, (s, v) in enumerate(zip(spectra, values))
    ]


def _hill_data(eigenvalues, anti, bounds, delta, lambda_max: float, tol: float) -> HillSpectralData:
    """One potential's spectral data from its mode-matrix eigenvalues and Delta at them."""
    check_finite(delta)
    series = ["antiperiodic" if a else "periodic" for a in anti]
    resid = check_residuals(np.abs(delta * delta - 4.0), eigenvalues, tol)

    # ordering sanity: after lambda_0 the series labels come in equal pairs
    # alternating antiperiodic / periodic
    ordering_ok = eigenvalues.size >= 1
    for j in range(1, eigenvalues.size - 1, 2):
        if series[j] != series[j + 1]:
            ordering_ok = False

    gaps: list[tuple[float, float, float]] = []
    tvals: list[float] = [0.0]
    j = 1
    while j + 1 < eigenvalues.size:
        lo, hi = float(eigenvalues[j]), float(eigenvalues[j + 1])
        gaps.append((lo, hi, hi - lo))
        mid = 0.5 * (lo + hi)
        if mid < 0:
            break
        tvals.append(math.sqrt(mid))
        j += 2
    return HillSpectralData(
        eigenvalues=eigenvalues,
        series=tuple(series),
        gaps=tuple(gaps),
        midpoints=np.asarray(tvals),
        residuals=resid,
        truncation_bounds=bounds,
        lambda_max=lambda_max,
        ordering_ok=ordering_ok,
    )


# ---------------------------------------------------------------------------
# Borg-type margins
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BorgReport:
    mean: float
    mean_abs: float
    hypotheses_ok: bool
    n_max: int
    max_center_offset: float       # max |t_n - n|
    max_consecutive_spacing: float # max (t_{n+1} - t_n), two sided
    min_pair_spacing: float        # min (t_n - t_m) over n > m, two sided
    max_square_offset: float       # max |t_n^2 - n^2|
    passed: bool

    def to_json(self) -> dict:
        return {
            "mean": self.mean,
            "mean_abs": self.mean_abs,
            "hypotheses_ok": self.hypotheses_ok,
            "n_max": self.n_max,
            "max_center_offset": self.max_center_offset,
            "max_consecutive_spacing": self.max_consecutive_spacing,
            "min_pair_spacing": self.min_pair_spacing,
            "max_square_offset": self.max_square_offset,
            "passed": self.passed,
        }


def borg_check(q: PeriodicField, data: HillSpectralData, n_max: int) -> BorgReport:
    """Verify the smallness hypotheses and the midpoint margins.

    Hypotheses: int q dx/2pi = 0 and int |q| dx/2pi < 1/2.  Under them the
    midpoints must satisfy |t_n - n| < 1/4 with consecutive spacings below
    3/2 and pairwise separations above 1/2.  Violated hypotheses make the
    report fail without raising.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if n_max > data.n_max:
        raise ValueError(f"data holds midpoints up to n = {data.n_max} < {n_max}")
    g = default_grid_size(q.cutoff)
    vals = np.real(evaluate(q, g).values)
    mean = float(np.mean(vals))
    mean_abs = float(np.mean(np.abs(vals)))
    hypotheses_ok = abs(mean) < 1e-9 and mean_abs < 0.5

    t = data.two_sided_t(n_max)
    ns = np.arange(-n_max, n_max + 1)
    center_off = float(np.max(np.abs(t - ns)))
    spacing = np.diff(t)
    max_spacing = float(np.max(spacing))
    min_spacing = float(np.min(spacing))
    square_off = float(np.max(np.abs(t**2 - ns.astype(float) ** 2)))
    margins_ok = center_off < 0.25 and max_spacing < 1.5 and min_spacing > 0.5
    return BorgReport(
        mean=mean,
        mean_abs=mean_abs,
        hypotheses_ok=hypotheses_ok,
        n_max=n_max,
        max_center_offset=center_off,
        max_consecutive_spacing=max_spacing,
        min_pair_spacing=min_spacing,
        max_square_offset=square_off,
        passed=bool(hypotheses_ok and margins_ok),
    )


# ---------------------------------------------------------------------------
# Band-limited test family and frame bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BandLimitedFunction:
    """Shifted, modulated sinc with band exactly [-2, 2] and closed-form norm.

    g(x) = trig(omega u) * sin(bw u)/(pi u) with u = x - shift, bw = 2 - omega
    and trig either cos or sin.  The squared L^2(R) norm is
    (bw +/- max(0, bw - omega)) / 2pi with + for the cos phase.
    """

    shift: float
    omega: float
    phase: str  # 'cos' or 'sin'

    @property
    def bandwidth(self) -> float:
        return 2.0 - self.omega

    def norm_sq(self) -> float:
        bw = self.bandwidth
        overlap = max(0.0, bw - self.omega)
        if self.phase == "cos":
            return (bw + overlap) / (2.0 * np.pi)
        return (bw - overlap) / (2.0 * np.pi)

    def __call__(self, x):
        u = np.asarray(x, dtype=float) - self.shift
        bw = self.bandwidth
        sinc = (bw / np.pi) * np.sinc(bw * u / np.pi)
        trig = np.cos(self.omega * u) if self.phase == "cos" else np.sin(self.omega * u)
        return trig * sinc

    @property
    def name(self) -> str:
        return f"{self.phase}(omega={self.omega:g})*sinc@{self.shift:+g}"


def default_test_family(family_size: int = 64) -> list[BandLimitedFunction]:
    """The documented family: shifts {0, +-1/4, +-1/2} times 13 modulations."""
    if family_size < 1:
        raise ValueError("family must contain at least one function")
    shifts = [0.0, 0.25, -0.25, 0.5, -0.5]
    members = []
    for s in shifts:
        for k in range(7):
            members.append(BandLimitedFunction(s, 0.25 * k, "cos"))
        for k in range(1, 7):
            members.append(BandLimitedFunction(s, 0.25 * k, "sin"))
    if family_size > len(members):
        raise ValueError(f"at most {len(members)} family members are defined")
    return members[:family_size]


@dataclass(frozen=True)
class FrameEstimate:
    lower: float
    upper: float
    test_family_size: int
    index_range: int

    def __post_init__(self):
        if not (0.0 < self.lower <= self.upper):
            raise ValueError("frame estimates must satisfy 0 < A <= B")

    def to_json(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "test_family_size": self.test_family_size,
            "index_range": self.index_range,
        }


def sampling_ratio(g: BandLimitedFunction, t_values: np.ndarray) -> float:
    """R(g) = sum |g(t_n)|^2 / ||g||^2, invariant under scaling of g."""
    return float(np.sum(np.abs(g(t_values)) ** 2) / g.norm_sq())


def frame_bounds_estimate(
    t_sequence: np.ndarray, index_range: int, family_size: int = 64
) -> FrameEstimate:
    """Empirical frame bounds of the sampling sequence over the test family.

    ``t_sequence`` must hold the two-sided values t_n for |n| <= index_range
    (length 2*index_range + 1, ascending).  Lower/upper are the min and max
    of the sampling ratio R over the family; both are finite-family
    estimates of the true frame bounds.
    """
    t = np.asarray(t_sequence, dtype=float)
    if t.size != 2 * index_range + 1:
        raise ValueError("t_sequence must have length 2*index_range + 1")
    family = default_test_family(family_size)
    ratios = np.array([sampling_ratio(g, t) for g in family])
    return FrameEstimate(
        lower=float(ratios.min()),
        upper=float(ratios.max()),
        test_family_size=family_size,
        index_range=index_range,
    )


# ---------------------------------------------------------------------------
# Cauchy-formula midpoint squares
# ---------------------------------------------------------------------------

def pw_statistic_contour(q: PeriodicField, indices, steps: int = DEFAULT_STEPS) -> list[dict]:
    """t_m^2 = (1/4 pi i) contour of lambda Delta'/(Delta -+ 2) around gap m
    (even m: Delta = 2 series; odd: Delta = -2), one record per index.

    Circle m is centred at the mode-matrix gap midpoint mu_m with radius
    min(h_m + 1/4, (h_m + d_m) / 2), h_m half the gap and d_m the distance
    from mu_m to the nearest other eigenvalue; one set of models serves every
    circle.  A root count other than 2, gap edges not of the kernel's series
    or a t_m^2 off mu_m (floquet.check_residuals) raises FloatingPointError.
    """
    ms = np.array([int(m) for m in indices])
    if ms.size == 0 or ms.min() < 1:
        raise ValueError("indices must be positive, and at least one is needed")
    disc = hill_discriminant_batch(q, steps)
    # by min-max lambda_{2m+1} <= (m+1)^2 + max q, and max q <= sum |q_n|
    lam_max = (ms.max() + 1.0) ** 2 + np.sum(np.abs(q.coeffs)) + 1.0
    lam, anti, _ = _mode_eigenvalues(q, lam_max, SPECTRUM_TOL)
    odd = ms % 2 == 1
    if np.any(anti[2 * ms - 1] != odd) or np.any(anti[2 * ms] != odd):
        raise FloatingPointError("gap edges are not of the kernel's series")
    lo, hi = lam[2 * ms - 1], lam[2 * ms]
    center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    near = np.minimum(center - lam[2 * ms - 2], lam[2 * ms + 1] - center)
    radius = np.minimum(half + 0.25, 0.5 * (half + near))
    trust = float(radius.max()) + 0.1
    models = build_models(disc, center, trust)
    out = []
    for i, (m, r) in enumerate(zip(ms.tolist(), radius.tolist())):
        kernel = "minus" if odd[i] else "plus"
        value, (count,) = contour_sum(
            models[i : i + 1], center[i : i + 1], trust, lambda z: z, kernel, r
        )
        if abs(count - 2.0) > 0.1:
            raise FloatingPointError(f"circle at {center[i]:.6f} holds {count:.2f} roots, not 2")
        out.append({"index": m, "t_sq": 0.5 * value, "count": count, "radius": r})
    check_residuals(np.abs([r["t_sq"] for r in out] - center), center, SPECTRUM_TOL)
    return out


def gap_summability_report(data: HillSpectralData) -> dict:
    """Partial square sums of the gap lengths and a tail-decay diagnostic."""
    lengths = np.array([g[2] for g in data.gaps])
    partial = np.cumsum(lengths**2)
    half = lengths.size // 2
    head = float(np.sum(lengths[:half] ** 2)) if half else 0.0
    tail = float(np.sum(lengths[half:] ** 2))
    return {
        "gap_lengths": [float(x) for x in lengths],
        "partial_l2": [float(x) for x in partial],
        "l2_total": float(partial[-1]) if lengths.size else 0.0,
        "head_l2": head,
        "tail_l2": tail,
        "period_convention": data.period_convention,
    }
