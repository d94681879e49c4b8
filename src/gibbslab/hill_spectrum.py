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

For lambda >= 0.5 the scan and the local models work in the variable
s = sqrt(lambda), where the free spectrum is the integer lattice and the
cluster spacing is uniform; negative and near-zero lambda are scanned
directly.  All outputs carry the period convention marker "pi".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .floquet import (
    DOUBLE_TOL,
    NUMERICAL_FAILURES,
    TAYLOR_ORDER,
    InsufficientPointsError,
    Monodromy,
    build_models,
    contour_sum,
    locate_spectral_points,
    transfer_discriminant,
    transfer_monodromy,
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
    "hill_monodromy",
    "hill_discriminant",
    "hill_discriminant_batch",
    "hill_periodic_spectrum",
    "borg_check",
    "BandLimitedFunction",
    "default_test_family",
    "frame_bounds_estimate",
    "pw_statistic_contour",
    "gap_summability_report",
]

PERIOD_CONVENTION = "pi"
DEFAULT_STEPS = 256
BRANCH_SPLIT = 0.5  # lambda below this is handled in the lambda plane


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


def hill_monodromy(q: PeriodicField, lam: complex, steps: int = DEFAULT_STEPS) -> Monodromy:
    """Transfer matrix of (f, f') over one period pi."""
    _check_potential(q)
    return transfer_monodromy(_hill_nodes(q, steps), _HILL_C, np.pi, steps, lam, q.content_hash())


def hill_discriminant_batch(q: PeriodicField, steps: int = DEFAULT_STEPS):
    _check_potential(q)
    return transfer_discriminant(_hill_nodes(q, steps), _HILL_C, np.pi, steps)


def hill_discriminant(q: PeriodicField, lam: complex, steps: int = DEFAULT_STEPS):
    val = complex(hill_discriminant_batch(q, steps)(np.asarray([lam]))[0])
    if abs(complex(lam).imag) == 0.0:
        return val.real
    return val


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
            "lambda_max": self.lambda_max,
            "period_convention": self.period_convention,
            "ordering_ok": self.ordering_ok,
        }


def _series_label(level: float) -> str:
    return "periodic" if level > 0 else "antiperiodic"


def hill_periodic_spectrum(
    q: PeriodicField,
    lambda_max: float,
    tol: float = 1e-8,
    steps: int = DEFAULT_STEPS,
) -> HillSpectralData:
    """All periodic and antiperiodic eigenvalues up to lambda_max.

    Double points (closed gaps) appear twice and produce zero-length gaps.
    Residuals |Delta^2 - 4| are evaluated with the direct solver at every
    returned eigenvalue.
    """
    disc = hill_discriminant_batch(q, steps)
    qsup = float(np.max(np.abs(np.real(evaluate(q, default_grid_size(q.cutoff)).values))))

    found: list[tuple[float, float, int]] = []  # (lambda, level, multiplicity)

    lam_lo = min(-1.0, -1.2 * qsup - 0.5)
    lam_grid = np.arange(lam_lo, 0.9 + 0.04, 0.04)
    roots_lam = locate_spectral_points(disc, lam_grid)
    for r in roots_lam:
        if not r.is_critical and r.value < BRANCH_SPLIT:
            found.append((r.value, r.level, r.multiplicity))

    s_max = math.sqrt(lambda_max) + 0.6
    s_grid = np.arange(math.sqrt(BRANCH_SPLIT) - 0.1, s_max, 0.1)

    def disc_s(svals):
        svals = np.asarray(svals, dtype=complex)
        return disc(svals * svals)

    roots_s = locate_spectral_points(disc_s, s_grid)
    for r in roots_s:
        lam = r.value * r.value
        if not r.is_critical and lam >= BRANCH_SPLIT:
            found.append((lam, r.level, r.multiplicity))

    found.sort(key=lambda t: t[0])
    # de-duplicate the branch seam: identical roots reported by both scans
    deduped: list[tuple[float, float, int]] = []
    for lam, level, mult in found:
        if (
            deduped
            and abs(lam - deduped[-1][0]) < 1e-8
            and level == deduped[-1][1]
            and mult == deduped[-1][2]
        ):
            continue
        deduped.append((lam, level, mult))
    found = deduped
    eigs: list[float] = []
    series: list[str] = []
    for lam, level, mult in found:
        if lam > lambda_max:
            break
        for _ in range(mult):
            eigs.append(lam)
            series.append(_series_label(level))

    eigenvalues = np.asarray(eigs)
    resid = np.abs(np.real(disc(eigenvalues.astype(complex))) ** 2 - 4.0)
    bad = resid > max(100.0 * tol, DOUBLE_TOL)
    if np.any(bad):
        raise FloatingPointError(
            f"{int(bad.sum())} eigenvalues exceed the defining-equation residual "
            f"(max {resid.max():.2e}); raise the step budget"
        )

    # ordering sanity: after lambda_0 the series labels come in equal pairs
    # alternating antiperiodic / periodic
    ordering_ok = eigenvalues.size >= 1
    for j in range(1, eigenvalues.size - 1, 2):
        if series[j] != series[j + 1]:
            ordering_ok = False
    if eigenvalues.size and not np.all(np.diff(eigenvalues) >= -1e-12):
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

def pw_statistic_contour(
    q: PeriodicField,
    indices,
    steps: int = DEFAULT_STEPS,
    radius: float = 0.25,
) -> list[dict]:
    """t_m^2 by the Cauchy integral around m^2 (even m: Delta=2 series; odd:
    Delta=-2), i.e. (1/4 pi i) contour of lambda Delta'/(Delta -+ 2).

    The circle radius defaults to 1/4; when the enclosed root count is not
    2 the radius is grown once (reported), and a placement that still fails
    raises.  Returns one record per index with the value, count and radius.
    """
    disc = hill_discriminant_batch(q, steps)
    out = []
    for m in indices:
        m = int(m)
        if m < 1:
            raise ValueError("indices must be positive")
        center = float(m * m)
        kernel = "plus" if m % 2 == 0 else "minus"
        # the second circle either gives a record or raises
        for attempt, r in enumerate((radius, 1.6 * radius)):
            models = build_models(disc, np.array([center]), r + 0.1)
            try:
                value, counts = contour_sum(models, lambda z: z, kernel, r)
            except NUMERICAL_FAILURES:
                if attempt == 1:
                    raise
                continue
            if abs(counts[0] - 2.0) <= 0.1:
                out.append({
                    "index": m,
                    "t_sq": 0.5 * value,
                    "count": counts[0],
                    "radius": r,
                    "radius_adapted": attempt > 0,
                })
                break
            if attempt == 1:
                raise FloatingPointError(
                    f"circle at {center} encloses {counts[0]:.2f} roots, expected 2"
                )
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
