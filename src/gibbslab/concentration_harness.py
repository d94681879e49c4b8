"""Empirical concentration of spectral statistics under Gibbs ensembles.

For a statistic X collected over a weighted ensemble, the centered
log-moment-generating curve

    L(t) = log ( sum_i w_i exp(t (x_i - mean)) / sum_i w_i )

is convex with L(0) = 0.  Sub-Gaussian concentration bounds it by eta t^2;
the harness fits eta two ways (least squares in t^2 and as the smallest
envelope compatible with bootstrap error bands) on a trusted range
|t| <= 2 / std, where the weighted log-mean-exp is Monte Carlo stable.
The predicted bound is K^2 / alpha from an empirical Lipschitz constant
and a log-Sobolev constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .floquet import SEGMENT_LANES, member_result, one_member
from .fourier_field import PeriodicField, l2_norm_sq, lp_integral
from .gibbs_sampler import GibbsEnsemble
from . import dirac_spectrum as ds
from . import hill_spectrum as hs

__all__ = [
    "StatisticSample",
    "LogMgfCurve",
    "SubgaussianFit",
    "ConcentrationReport",
    "make_statistic",
    "collect_statistic",
    "trusted_t_range",
    "default_t_grid",
    "empirical_log_mgf",
    "subgaussian_fit",
    "DegenerateWeightsError",
    "lipschitz_probe",
    "concentration_report",
]


_BOOTSTRAP_TAG = 5  # stream tags keep the harness draws independent
_LIPSCHITZ_TAG = 7

# Transfer-matrix steps of the built-in spectral statistics, and points of
# the default t grid
DIRAC_STEPS = 128
HILL_STEPS = 128
T_GRID_POINTS = 41

# Bootstrap replicates are evaluated in blocks whose (block, T, n)
# temporaries hold about this many elements (one replicate at least): 512 KiB
# each; blocks of 2^18 took twice as long at 100 and 1,000 members
BOOTSTRAP_BLOCK_ELEMENTS = 2**16


class DegenerateWeightsError(ValueError):
    """The weights leave nothing to estimate: one is negative, they sum to
    zero, or the log-MGF curve kept no nonzero t."""


@dataclass(frozen=True, eq=False)
class StatisticSample:
    values: np.ndarray
    weights: np.ndarray
    statistic_name: str
    ensemble_ref: str
    failed: int = 0  # members whose evaluation failed numerically
    members: np.ndarray | None = None  # ensemble index of each value; default 0..n-1

    def __post_init__(self):
        v = np.asarray(self.values, float)
        w = np.asarray(self.weights, float)
        if v.shape != w.shape or v.ndim != 1:
            raise ValueError("values and weights must be matching 1-d arrays")
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(w))):
            raise ValueError("values and weights must be finite")
        if np.any(w < 0.0):
            raise DegenerateWeightsError("weights must be non-negative")
        if not np.sum(w) > 0.0:
            raise DegenerateWeightsError(
                f"the weights of all {w.size} members sum to zero; a weighted "
                "mean needs at least one member with a positive weight"
            )
        m = np.arange(v.size) if self.members is None else np.asarray(self.members, int)
        if m.shape != v.shape:
            raise ValueError("members must give one ensemble index per value")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "members", m)

    def weighted_mean(self) -> float:
        return float(np.average(self.values, weights=self.weights))

    def weighted_variance(self) -> float:
        m = self.weighted_mean()
        return float(np.average((self.values - m) ** 2, weights=self.weights))

    def scaled(self, c: float) -> "StatisticSample":
        return StatisticSample(
            c * self.values,
            self.weights,
            f"{c:g}*{self.statistic_name}",
            self.ensemble_ref,
            self.failed,
            self.members,
        )


# ---------------------------------------------------------------------------
# Statistic registry
# ---------------------------------------------------------------------------

def _spectral_spec(parts: list[str], kind: str, key: str):
    """(index range, test function) of a '<head>:<kind>:<g>:<key>=3' descriptor
    split at ':'; the range defaults to 3."""
    head = parts[0]
    if len(parts) < 3 or parts[1] != kind:
        raise ValueError(f"the {head} statistic is '{head}:{kind}:<g>:{key}=<n>'")
    n = 3
    gspec = []
    for item in parts[2:]:
        if item.startswith(key + "="):
            n = int(item[len(key) + 1 :])
        else:
            gspec.append(item)
    return n, ds.parse_test_function(":".join(gspec))


def make_statistic(spec: str):
    """Build a named field statistic from a descriptor string.

    Supported descriptors:
      'l2'                          mass ||phi||^2
      'l2norm'                      ||phi|| (1-Lipschitz)
      'V:p=4'                       int |phi|^p dx/2pi
      'coord:a1'                    Re of mode 1 (any 'a<n>' or 'b<n>')
      'dirac:critical:<g>:M=3'      two-sided sum of g over Dirac critical
                                    points j = -M..M, by the contour method
                                    on circles at the member's own points
      'hill:midpoints:<g>:J=3'      sum of g over Hill gap midpoints t_n,
                                    |n| <= J (g acts on the real line)
    with <g> a test-function descriptor like 'lorentzian:c=3'.
    """
    parts = spec.split(":")
    head = parts[0]
    if head == "l2":
        return "l2", lambda f: l2_norm_sq(f)
    if head == "l2norm":
        return "l2norm", lambda f: math.sqrt(l2_norm_sq(f))
    if head == "V":
        p = 4.0
        for item in parts[1:]:
            k, _, v = item.partition("=")
            if k == "p":
                p = float(v)
        return f"V(p={p:g})", lambda f: lp_integral(f, p)
    if head == "coord":
        which = parts[1] if len(parts) > 1 else ""
        if which[:1] not in ("a", "b") or not which[1:]:
            raise ValueError(f"unknown coordinate {which!r}; use 'a<n>' or 'b<n>'")
        n = int(which[1:])
        if which[0] == "a":
            return f"Re c_{n}", lambda f: float(np.real(f.mode(n)))
        return f"Im c_{n}", lambda f: float(np.imag(f.mode(n)))
    if head == "dirac":
        m, g = _spectral_spec(parts, "critical", "M")
        name = f"dirac:critical:{g.name}:M={m}"
        # unit-mass fields scatter the critical lattice by more than one
        # spacing, so scan well past the index range before slicing
        window = (-m - 1.8, m + 1.8)

        def central(crit: ds.SpectralDataDirac):
            points = np.array(crit.critical_points)
            pts = ds.two_sided_slice(points, m)
            rows = (pts[0] <= points) & (points <= pts[-1])
            return crit.critical_models[rows], points[rows]

        def block(fields) -> list:
            # circles centered on each member's own critical points (the
            # free-lattice centers only capture them for small fields),
            # integrated on the disk models of their |Delta'| checks: 2m + 1
            # circles for every member, so the block's are one contour sum
            out = [
                c if isinstance(c, BaseException) else member_result(central, c)
                for c in ds.critical_points_block(fields, window, steps=DIRAC_STEPS)
            ]
            live = [i for i, r in enumerate(out) if isinstance(r, tuple)]
            if live:
                models, centers = (np.array(a) for a in zip(*(out[i] for i in live)))
                for i, v in zip(live, ds.contour_statistic(models, centers, g)):
                    out[i] = v
            return out

        # a block's grid call has B * 97 lanes and its two model calls about
        # B * 117 each (13 half-ring nodes at each of about 9 critical
        # points), at most half again the grid's: so every call of a block of
        # SEGMENT_LANES // (3 * 97) = 14 still runs as two segments
        return name, _blocked(block, SEGMENT_LANES // (3 * ds._scan_grid(window).size))
    if head == "hill":
        J, g = _spectral_spec(parts, "midpoints", "J")
        name = f"hill:midpoints:{g.name}:J={J}"
        lam_max = float((J + 0.6) ** 2)

        def midpoint_sum(data: hs.HillSpectralData) -> float:
            ts = data.two_sided_t(J)
            return float(np.real(np.sum(g(ts.astype(complex)))))

        def block(fields) -> list:
            return [
                d if isinstance(d, BaseException) else member_result(midpoint_sum, d)
                for d in hs.hill_periodic_spectrum_block(fields, lam_max, steps=HILL_STEPS)
            ]

        # the block's one engine call, the residual checks, has about 2 J + 2
        # lanes per member (the eigenvalues up to lam_max), at two segments
        return name, _blocked(block, SEGMENT_LANES // (2 * (2 * J + 2)))
    raise ValueError(f"unknown statistic {spec!r}")


def _blocked(block, members: int):
    """The statistic of one field as ``block`` on a block of one; ``block`` and
    its block size ride along for :func:`collect_statistic`."""

    def stat(f: PeriodicField) -> float:
        return one_member(block([f]))

    stat.block, stat.block_members = block, max(1, members)
    return stat


def collect_statistic(
    ensemble: GibbsEnsemble,
    statistic,
    name: str | None = None,
    failure_cap: float = 0.01,
) -> StatisticSample:
    """Evaluate a statistic on every member; failures are capped at 1%.

    ``statistic`` is either a descriptor string for :func:`make_statistic`
    or a callable on fields.  The spectral statistics of
    :func:`make_statistic`, given either way, run a block of members at a
    time, each engine phase one call for the block; any other callable
    runs member by member.  The n members are cut into ceil(n / B)
    consecutive blocks whose sizes differ by at most one, B the
    statistic's block size, so block membership is a function of the count
    alone.  A failure is a non-finite value or an exception from
    ``floquet.NUMERICAL_FAILURES``; it fails that member alone, never its
    block, and any other exception propagates.  The sample records the
    ensemble index of every value.
    """
    if isinstance(statistic, str):
        name, fn = make_statistic(statistic)
    else:
        fn = statistic
        name = name or getattr(statistic, "__name__", "statistic")
    block = getattr(fn, "block", None) or (lambda fields: [member_result(fn, f) for f in fields])

    n = len(ensemble)
    size = getattr(fn, "block_members", None) or max(n, 1)
    results = []
    for idx in np.array_split(np.arange(n), max(1, -(-n // size))):
        results += block([ensemble.samples[i] for i in idx]) if idx.size else []
    good = [
        (i, float(v)) for i, v in enumerate(results) if not isinstance(v, BaseException)
    ]
    good = [(i, v) for i, v in good if math.isfinite(v)]
    failures = n - len(good)
    if failures > failure_cap * n:
        raise RuntimeError(
            f"{failures}/{n} member evaluations failed, above the {failure_cap:.0%} cap"
        )
    idx = [i for i, _ in good]
    vals = np.array([v for _, v in good])
    return StatisticSample(
        values=vals,
        weights=ensemble.weights[idx],
        statistic_name=name,
        ensemble_ref=f"seed={ensemble.seed},method={ensemble.method},n={n}",
        failed=failures,
        members=np.array(idx, dtype=int),
    )


# ---------------------------------------------------------------------------
# Log-MGF curve
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LogMgfCurve:
    t: np.ndarray
    value: np.ndarray
    stderr: np.ndarray
    trimmed: int  # grid points dropped because exp overflowed


def trusted_t_range(sample: StatisticSample) -> float:
    """|t| <= 2 / std keeps the weighted log-mean-exp Monte Carlo stable."""
    std = math.sqrt(sample.weighted_variance())
    if std == 0.0:
        return 1.0
    return 2.0 / std


def default_t_grid(sample: StatisticSample) -> np.ndarray:
    r = trusted_t_range(sample)
    grid = np.linspace(-r, r, T_GRID_POINTS)
    grid[np.abs(grid) < 1e-12 * r] = 0.0  # pin the center so L(0) = 0 exactly
    return grid


def _log_mean_exp(centered: np.ndarray, weights: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Weighted log-mean-exp of t * centered at every t: (..., n) samples give (..., T)."""
    a = t[:, None] * centered[..., None, :]
    peak = np.max(a, axis=-1)
    total = np.sum(weights[..., None, :] * np.exp(a - peak[..., None]), axis=-1)
    return peak + np.log(total / np.sum(weights, axis=-1)[..., None])


def empirical_log_mgf(
    sample: StatisticSample,
    t_grid: np.ndarray | None = None,
    bootstrap: int = 200,
    seed: int = 0,
) -> LogMgfCurve:
    """Weighted log-mean-exp of the centered statistic with bootstrap bands.

    The grid must be symmetric around zero.  Grid points where the exponent
    overflows float64 are trimmed and counted.  L(0) = 0 exactly.  The
    bootstrap replicates are evaluated a block at a time, the block's whole
    grid on one (block, T, n) array of about BOOTSTRAP_BLOCK_ELEMENTS
    elements.
    """
    if bootstrap < 1:
        raise ValueError(f"bootstrap needs at least 1 replicate, got {bootstrap}")
    if t_grid is None:
        t_grid = default_t_grid(sample)
    t_grid = np.asarray(t_grid, float)
    if abs(t_grid.min() + t_grid.max()) > 1e-12 * max(1.0, t_grid.max()):
        raise ValueError("t grid must be symmetric around 0")
    centered = sample.values - sample.weighted_mean()
    w = sample.weights
    keep = np.max(np.abs(t_grid[:, None] * centered), axis=1) < 700.0
    trimmed = int(np.sum(~keep))
    t_use = t_grid[keep]
    vals = _log_mean_exp(centered, w, t_use)

    rng = np.random.default_rng(np.random.SeedSequence((seed, _BOOTSTRAP_TAG)))
    n = centered.size
    boots = np.empty((bootstrap, t_use.size))
    block = max(1, BOOTSTRAP_BLOCK_ELEMENTS // max(1, t_use.size * n))
    for s in range(0, bootstrap, block):
        # the same stream as one rng.integers(0, n, n) per replicate
        idx = rng.integers(0, n, (min(block, bootstrap - s), n))
        boots[s : s + len(idx)] = _log_mean_exp(centered[idx], w[idx], t_use)
    stderr = boots.std(axis=0)
    return LogMgfCurve(t=t_use, value=vals, stderr=stderr, trimmed=trimmed)


@dataclass(frozen=True)
class SubgaussianFit:
    fitted_eta: float        # least-squares coefficient of t^2
    envelope_eta: float      # smallest eta with L(t) <= eta t^2 + band
    eta_bound: float | None
    passed: bool | None


def subgaussian_fit(curve: LogMgfCurve, eta_bound: float | None = None) -> SubgaussianFit:
    """Fit L(t) ~ eta t^2 on the curve's grid.

    ``fitted_eta`` minimizes sum (L(t) - eta t^2)^2; ``envelope_eta`` is the
    smallest eta such that L(t) <= eta t^2 + stderr band at every grid
    point.  When a bound is supplied the test passes iff envelope_eta stays
    below it.  A curve without a nonzero t raises DegenerateWeightsError.
    """
    t = curve.t
    nz = t != 0.0
    if not np.any(nz):
        raise DegenerateWeightsError(
            f"no nonzero t survived: all {curve.trimmed} were trimmed as |t (x - mean)| "
            "overflowed exp; the weights sit on so few members that the trusted "
            "range 2 / std far exceeds the values' spread"
        )
    t2 = t[nz] ** 2
    fitted = float(np.dot(curve.value[nz], t2) / np.dot(t2, t2))
    envelope = float(np.max((curve.value[nz] - curve.stderr[nz]) / t2))
    envelope = max(envelope, 0.0)
    passed = None if eta_bound is None else bool(envelope <= eta_bound)
    return SubgaussianFit(fitted, envelope, eta_bound, passed)


def lipschitz_probe(
    statistic,
    ensemble: GibbsEnsemble,
    pair_count: int = 200,
    seed: int = 0,
    sample: StatisticSample | None = None,
) -> dict:
    """Empirical Lipschitz constant over sampled member pairs.

    Returns the max ratio |X_i - X_j| / ||phi_i - phi_j||_{L^2} together
    with the maximizing pair and the number of pairs compared
    (``pairs_tested``); i = j and coincident pairs are skipped.  Pass the
    ``sample`` collected from this ensemble to reuse its values: each
    member is paired with its own value, and pairs with a member whose
    evaluation failed are skipped.
    """
    if isinstance(statistic, str):
        _, fn = make_statistic(statistic)
    else:
        fn = statistic
    n = len(ensemble)
    if n < 2:
        raise ValueError("need at least two members")
    rng = np.random.default_rng(np.random.SeedSequence((seed, _LIPSCHITZ_TAG)))
    best = 0.0
    best_pair = (0, 1)
    if sample is None:
        cache: dict[int, float] = {}
    else:
        cache = dict(zip(sample.members.tolist(), sample.values.tolist()))

    def val(i: int) -> float:
        if i not in cache:
            cache[i] = float(fn(ensemble.samples[i]))
        return cache[i]

    tested = 0
    for _ in range(pair_count):
        i, j = (int(x) for x in rng.integers(0, n, 2))
        if i == j or (sample is not None and not (i in cache and j in cache)):
            continue
        diff = ensemble.samples[i] - ensemble.samples[j]
        dn = math.sqrt(l2_norm_sq(diff))
        if dn == 0.0:
            continue
        ratio = abs(val(i) - val(j)) / dn
        tested += 1
        if ratio > best:
            best = ratio
            best_pair = (i, j)
    return {"lipschitz": best, "pair": best_pair, "pairs_tested": tested}


# ---------------------------------------------------------------------------
# Full report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConcentrationReport:
    statistic_name: str
    weighted_mean: float
    weighted_variance: float
    log_mgf_curve: LogMgfCurve
    fit: SubgaussianFit
    subgaussian_pass: bool | None  # fit.passed
    lsi_predicted_eta: float | None
    trusted_range: float
    members_evaluated: int
    members_failed: int
    weight_ess: float  # (sum w)^2 / sum w^2 over the members with a value


def concentration_report(
    sample: StatisticSample,
    t_grid: np.ndarray | None = None,
    eta_bound: float | None = None,
    bootstrap: int = 200,
    seed: int = 0,
) -> ConcentrationReport:
    curve = empirical_log_mgf(sample, t_grid, bootstrap=bootstrap, seed=seed)
    fit = subgaussian_fit(curve, eta_bound)
    return ConcentrationReport(
        statistic_name=sample.statistic_name,
        weighted_mean=sample.weighted_mean(),
        weighted_variance=sample.weighted_variance(),
        log_mgf_curve=curve,
        fit=fit,
        subgaussian_pass=fit.passed,
        lsi_predicted_eta=eta_bound,
        trusted_range=trusted_t_range(sample),
        members_evaluated=sample.values.size + sample.failed,
        members_failed=sample.failed,
        weight_ess=float(sample.weights.sum() ** 2 / np.dot(sample.weights, sample.weights)),
    )
