"""Split-step evolution of truncated fields under the periodic NLS flow

    -i u_t = -u_xx + beta |u|^{p-2} u.

Strang splitting alternates the exact linear phase exp(i n^2 dt) per mode
with the exact pointwise nonlinear rotation exp(i beta |u|^{p-2} dt).  The
state lives on a grid zero-padded to twice the retained mode count and is
not projected back to the retained modes between steps.  Both sub-flows
are isometries of the discrete L^2 norm, but every step zeroes the Nyquist
mode to keep the state on a symmetric mode range and so removes the mass
the rotation moved there.  Mass therefore leaks linearly in time rather
than being conserved to rounding (about 1e-9 relative per unit time for a
unit-mass field at cutoff 8 and dt = 1e-3), and time reversal holds only
up to the same loss.  Truncated dynamics on finitely many modes is not
the PDE flow; every report carries the cutoff so results are read as
truncated-flow statements.

One Strang loop serves a single field (a 1-d spectrum) and the invariance
ensemble, evolved in blocks of rows with the same bits per member.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dirac_spectrum import periodic_eigenvalues
from .fourier_field import PeriodicField, hamiltonian, l2_norm_sq
from .gibbs_sampler import GibbsEnsemble

__all__ = [
    "FlowParams",
    "BlowUpError",
    "split_step_evolve",
    "evolve_trajectory",
    "conservation_check",
    "isospectrality_check",
    "isospectrality_refinement",
    "weighted_ks_distance",
    "invariance_check",
    "InvarianceReport",
]


_INVARIANCE_TAG = 11  # stream tag for the permutation null
# rows x grid points per block of the ensemble flow: 64 members at G = 64;
# larger blocks ran slower and cost peak memory (cf. floquet.SEGMENT_LANES)
BLOCK_LANES = 4096
DRIFT_TOL = 1e-3  # relative mass drift beyond which a flow counts as a blow-up
BAND_QUANTILE = 0.99  # quantile of the permutation null that bounds a KS distance


class BlowUpError(FloatingPointError):
    """The evolution left the trusted regime (mass drift or non-finite state)."""


@dataclass(frozen=True)
class FlowParams:
    """Time-stepping configuration; dt * steps is the total time.

    |dt| <= 0.1 / cutoff^2 keeps the splitting error in the resolved-phase
    regime.  Negative dt runs the flow backwards (used by the reversibility
    checks).
    """

    p: float
    beta: float
    dt: float
    steps: int
    cutoff: int

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("p must be >= 2")
        if self.dt == 0.0:
            raise ValueError("dt must be nonzero")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        # resolution guard; the 10% slack admits the reference pair
        # (cutoff=32, dt=1e-4) used throughout the checks
        if abs(self.dt) > 0.11 / self.cutoff**2:
            raise ValueError("dt too large: require |dt| <~ 0.1 / cutoff^2")

    @property
    def total_time(self) -> float:
        return self.dt * self.steps


def _padded_size(cutoff: int) -> int:
    g, target = 1, max(8, 2 * (2 * cutoff + 1))
    while g < target:
        g *= 2
    return g


def _flow_grid(field_cutoff: int, params: FlowParams) -> int:
    """Grid size of the flow; checks that fields of this cutoff fit on it."""
    G = _padded_size(params.cutoff)
    if field_cutoff > G // 2 - 1:
        raise ValueError("field cutoff exceeds the dealiased grid of this flow")
    if params.p % 2 != 0:
        warnings.warn(
            "odd nonlinearity power: pointwise modulus power has no padding guarantee",
            stacklevel=3,
        )
    return G


def _strang(
    spec: np.ndarray, params: FlowParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Strang steps on each row (last axis) of ``spec``.

    Returns the evolved spectra, a per-row trust flag (finite state, mass
    drift within ``DRIFT_TOL``) and the per-row relative mass drift.  Every
    operation acts row by row, so a row gets the same bits alone or in a
    block, and a row that overflows leaves its neighbours untouched.
    """
    G = spec.shape[-1]
    kk = np.fft.fftfreq(G, d=1.0 / G)
    half = np.exp(1j * kk**2 * (params.dt / 2.0))
    ex = params.p - 2.0
    mass0 = np.sum(np.abs(spec) ** 2, axis=-1)
    # no np.errstate here: a non-default error state slows every ufunc call
    # of the loop by about 2 %
    for _ in range(params.steps):
        spec *= half
        u = np.fft.ifft(spec, axis=-1) * G
        u *= np.exp(1j * params.beta * params.dt * np.abs(u) ** ex)
        spec = np.fft.fft(u, axis=-1) / G
        spec[..., G // 2] = 0.0  # keep the state on the symmetric mode range
        spec *= half
    change = np.abs(np.sum(np.abs(spec) ** 2, axis=-1) - mass0)
    scale = np.maximum(mass0, 1e-30)
    ok = np.all(np.isfinite(spec), axis=-1) & ((mass0 == 0.0) | (change <= DRIFT_TOL * scale))
    return spec, ok, change / scale


def _grid_field(row: np.ndarray) -> PeriodicField:
    """Every mode of one evolved row as a field of cutoff G/2 - 1."""
    G = row.size
    Mg = G // 2 - 1
    return PeriodicField(Mg, row[np.arange(-Mg, Mg + 1) % G])


def split_step_evolve(field: PeriodicField, params: FlowParams) -> PeriodicField:
    """Evolve for params.steps Strang steps; returns the full grid state.

    The returned field carries every mode of the dealiased grid (cutoff
    G/2 - 1 with G twice the retained mode count), so conservation checks
    see the actual evolved state rather than a projection of it.
    """
    G = _flow_grid(field.cutoff, params)
    spec = np.zeros(G, dtype=complex)
    spec[field.modes % G] = field.coeffs
    spec, ok, drift = _strang(spec, params)
    if not ok:
        raise BlowUpError(
            f"evolution left the trusted regime (relative mass drift {drift:.2e})"
        )
    return _grid_field(spec)


def evolve_trajectory(
    field: PeriodicField, params: FlowParams, snapshots: int = 8
) -> list[PeriodicField]:
    """Initial state plus ``snapshots`` equally spaced states along the flow."""
    if snapshots < 1:
        raise ValueError("snapshots must be >= 1")
    per = max(1, params.steps // snapshots)
    out = [field]
    state = field
    done = 0
    while done < params.steps:
        chunk = min(per, params.steps - done)
        leg = FlowParams(params.p, params.beta, params.dt, chunk, params.cutoff)
        state = split_step_evolve(state, leg)
        out.append(state)
        done += chunk
    return out


def conservation_check(
    trajectory: list[PeriodicField], p: float, beta: float
) -> dict[str, float]:
    """Max relative drift of the mass and the Hamiltonian along a trajectory."""
    if len(trajectory) < 2:
        raise ValueError("trajectory needs at least two states")
    masses = np.array([l2_norm_sq(f) for f in trajectory])
    energies = np.array([hamiltonian(f, p, beta) for f in trajectory])
    m0, h0 = masses[0], energies[0]
    return {
        "l2_drift": float(np.max(np.abs(masses - m0)) / max(abs(m0), 1e-30)),
        "hamiltonian_drift": float(np.max(np.abs(energies - h0)) / max(abs(h0), 1e-30)),
    }


# ---------------------------------------------------------------------------
# Isospectrality of the Dirac data along the flow
# ---------------------------------------------------------------------------

def _matched_drift(before: np.ndarray, after: np.ndarray) -> tuple[float, bool]:
    """Max pointwise drift after nearest-neighbor matching of sorted lists."""
    b, a = np.sort(before), np.sort(after)
    if b.size == 0 or a.size == 0:
        return float("nan"), False
    if b.size == a.size:
        return float(np.max(np.abs(b - a))), True
    drift = max(float(np.min(np.abs(a - x))) for x in b)
    return drift, False


def isospectrality_check(
    field: PeriodicField,
    params: FlowParams,
    window: tuple[float, float] = (-2.5, 2.5),
    dirac_steps: int = 1024,
) -> dict:
    """Drift of the periodic Dirac eigenvalues between t = 0 and t = T.

    Defined for the quartic nonlinearity (p = 4), where the flow-compatible
    normalization makes the spectrum a conserved quantity in the continuum
    limit; the reported drift is a discretization quantity that shrinks
    under (dt, cutoff) refinement.
    """
    if params.p != 4:
        raise ValueError("isospectrality is defined for p = 4")
    before = periodic_eigenvalues(field, window, steps=dirac_steps)
    evolved = split_step_evolve(field, params)
    after = periodic_eigenvalues(evolved, window, steps=dirac_steps)
    drift, matched = _matched_drift(
        before.periodic_values(with_multiplicity=True),
        after.periodic_values(with_multiplicity=True),
    )
    return {
        "window": list(window),
        "drift": drift,
        "matched": matched,
        "count_before": int(before.periodic_values(with_multiplicity=True).size),
        "count_after": int(after.periodic_values(with_multiplicity=True).size),
        "cutoff": params.cutoff,
        "dt": params.dt,
        "time": params.total_time,
    }


def isospectrality_refinement(
    field: PeriodicField,
    beta: float,
    time: float,
    levels: list[tuple[float, int]],
    window: tuple[float, float] = (-2.5, 2.5),
    dirac_steps: int = 1024,
) -> list[dict]:
    """Run the drift check across (dt, cutoff) refinement levels."""
    out = []
    for dt, cutoff in levels:
        params = FlowParams(4.0, beta, dt, int(round(time / dt)), cutoff)
        out.append(isospectrality_check(field, params, window, dirac_steps))
    return out


# ---------------------------------------------------------------------------
# Empirical invariance of the Gibbs ensemble
# ---------------------------------------------------------------------------

def weighted_ks_distance(
    x1: np.ndarray, w1: np.ndarray, x2: np.ndarray, w2: np.ndarray
) -> float:
    """sup |F1 - F2| between two weighted empirical distributions."""
    x1 = np.asarray(x1, float)
    x2 = np.asarray(x2, float)
    o1, o2 = np.argsort(x1), np.argsort(x2)
    s1, s2 = x1[o1], x2[o2]
    c1 = np.cumsum(np.asarray(w1, float)[o1])
    c2 = np.cumsum(np.asarray(w2, float)[o2])
    if c1[-1] <= 0 or c2[-1] <= 0:
        raise ValueError("weights must have positive total mass")
    c1 = c1 / c1[-1]
    c2 = c2 / c2[-1]
    grid = np.concatenate([s1, s2])
    i1 = np.searchsorted(s1, grid, side="right")
    i2 = np.searchsorted(s2, grid, side="right")
    f1 = np.where(i1 > 0, c1[i1 - 1], 0.0)
    f2 = np.where(i2 > 0, c2[i2 - 1], 0.0)
    return float(np.max(np.abs(f1 - f2)))


@dataclass(frozen=True)
class InvarianceReport:
    time: float
    cutoff: int
    distances: dict
    null_bands: dict
    within_band: dict
    excluded_blowups: int
    all_within_band: bool


def invariance_check(
    ensemble: GibbsEnsemble,
    params: FlowParams,
    observables: dict,
    seed: int = 0,
    permutations: int = 200,
) -> InvarianceReport:
    """Two-sample comparison of observable distributions before and after.

    Every member evolves to the same final time.  The members are evolved
    in blocks of rows (``BLOCK_LANES`` grid values per block) through the
    Strang loop of ``split_step_evolve``, so each gets the same bits as a
    run of its own; a member that blows up by that function's rule
    (non-finite state, or relative mass drift above ``DRIFT_TOL``) is
    excluded and counted.  Observables are read off each block as it
    finishes, so no evolved state outlives its block.  For each
    observable, the weighted KS distance between the before and after
    ensembles is compared against a permutation null band (the
    ``BAND_QUANTILE`` of distances obtained by randomly re-splitting the
    pooled samples), seeded for reproducibility.  At least 8 members, one
    observable and one permutation are required.
    """
    n = len(ensemble)
    if n < 8:
        raise ValueError("invariance check needs at least 8 members")
    if not observables:
        raise ValueError("invariance check needs at least one observable")
    if permutations < 1:
        raise ValueError(f"invariance check needs at least 1 permutation, got {permutations}")

    G = _flow_grid(max(f.cutoff for f in ensemble.samples), params)
    rows = max(1, BLOCK_LANES // G)
    keep: list[int] = []
    after_values: dict[str, list] = {name: [] for name in observables}
    for start in range(0, n, rows):
        block = ensemble.samples[start : start + rows]
        spec = np.zeros((len(block), G), dtype=complex)
        for r, f in enumerate(block):
            spec[r, f.modes % G] = f.coeffs
        spec, ok, _ = _strang(spec, params)
        for r in np.flatnonzero(ok):
            keep.append(start + int(r))
            f = _grid_field(spec[r])
            for name, fn in observables.items():
                after_values[name].append(fn(f))
    blowups = n - len(keep)
    weights = ensemble.weights[keep]

    rng = np.random.default_rng(np.random.SeedSequence((seed, _INVARIANCE_TAG)))
    distances: dict[str, float] = {}
    bands: dict[str, float] = {}
    within: dict[str, bool] = {}
    for name, fn in observables.items():
        before = np.array([fn(ensemble.samples[i]) for i in keep])
        after = np.array(after_values[name])
        d = weighted_ks_distance(before, weights, after, weights)
        pool_vals = np.concatenate([before, after])
        pool_w = np.concatenate([weights, weights])
        m = pool_vals.size
        perm_d = np.empty(permutations)
        for b in range(permutations):
            idx = rng.permutation(m)
            half = m // 2
            perm_d[b] = weighted_ks_distance(
                pool_vals[idx[:half]],
                pool_w[idx[:half]],
                pool_vals[idx[half:]],
                pool_w[idx[half:]],
            )
        band = float(np.quantile(perm_d, BAND_QUANTILE))
        distances[name] = d
        bands[name] = band
        within[name] = bool(d <= band)
    return InvarianceReport(
        time=params.total_time,
        cutoff=params.cutoff,
        distances=distances,
        null_bands=bands,
        within_band=within,
        excluded_blowups=blowups,
        all_within_band=all(within.values()),
    )
