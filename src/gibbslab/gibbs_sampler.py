"""Weighted ensembles approximating truncated Gibbs measures.

The reference Gaussian ("Wiener loop") puts independent N(0, 1/n^2) weight
on each real coordinate of mode n != 0, which realizes exp(-(1/2) int |phi'|^2 dx/2pi)
on the truncated phase space.  The Gibbs ensemble reweights it by

    exp(-(beta/p) int |phi|^p dx/2pi)            (nls)
    exp(+(beta/6) int q^3  dx/2pi)               (kdv, real fields)

restricted to the closed ball ||phi||_{L^2}^2 <= N, optionally intersected
with a Holder ball ||phi||_{H^gamma} <= K.

Determinism: all sampling is driven by numpy SeedSequence streams derived
from the master seed.  A rejection draw reads one stream,
SeedSequence((seed, 1)): rows of standard normals come off it in order, and
the first ``count`` rows inside Omega are the ensemble, in row order.
``attempts`` counts the rows read up to and including the one that completes
the draw, so a draw of n members is the prefix of a draw of n + k.  Rows are
drawn and screened by their mass on the raw normals in chunks, and only rows
inside the ball are built into loops and tested exactly; neither the chunk
size nor the screen changes a member or an attempt count.  The result is a
pure function of (params, count, seed), independent of any worker fan-out.
A tilted proposal would change how rows are drawn, and so move this stream
again.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .fourier_field import (
    PeriodicField,
    field_from_json,
    field_to_json,
    l2_norm_sq,
    lp_integral,
    cubic_integral,
    result_to_json,
    sobolev_norm_sq,
)

__all__ = [
    "GibbsParams",
    "GibbsEnsemble",
    "OmegaReport",
    "DivergentWeightError",
    "RejectionBudgetError",
    "sample_wiener_loop",
    "sample_kdv_loop",
    "gibbs_weight",
    "in_omega",
    "importance_ensemble",
    "mcmc_ensemble",
    "effective_sample_size",
    "save_ensemble_jsonl",
    "load_ensemble_jsonl",
]

MAX_LOG_WEIGHT = 700.0  # exp overflow threshold for float64
_REJECTION_TAG = 1  # stream tag of the rejection draw
_MCMC_TAG = 2  # stream tag of the Markov chain
_SCREEN_ROWS = 1024  # most rows of normals drawn and mass-screened at a time
# The screen's mass (z*z) @ w and the exact sum |c_n|^2 differ by rounding
# (about 1e-14 relative), far inside this margin, so the screen passes
# every row the exact closed-ball test accepts.
_SCREEN_SLACK = 1e-9


class DivergentWeightError(FloatingPointError):
    """A Gibbs weight overflowed; relevant near the marginal focusing case."""


class RejectionBudgetError(RuntimeError):
    """Rejection sampling exhausted its attempt budget without acceptances."""


def _json_value(obj: dict, key: str, kind, optional: bool = False):
    """``kind(obj[key])``, or None for an optional key that is absent or null.

    A missing required key, or a value ``kind`` rejects, is a ValueError
    naming the key, so a malformed file is a configuration error.
    """
    value = obj.get(key)
    if value is None:
        if optional:
            return None
        raise ValueError(f"missing key {key!r}")
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"key {key!r}: {exc}") from None


@dataclass(frozen=True)
class GibbsParams:
    """Parameters of a truncated Gibbs measure.

    ``ball_radius`` is the bound N on ||phi||_{L^2}^2.  When both
    ``holder_gamma`` and ``holder_bound`` are set, membership additionally
    requires ||phi||_{H^gamma} <= holder_bound.  ``pi_periodic`` conditions
    the kdv loop on the pi-periodic subspace (odd modes zero), which for a
    product Gaussian is the same as sampling even modes only.
    """

    p: float
    beta: float
    ball_radius: float
    cutoff: int
    kind: str = "nls"
    holder_gamma: float | None = None
    holder_bound: float | None = None
    pi_periodic: bool = False

    def __post_init__(self):
        if self.kind not in ("nls", "kdv"):
            raise ValueError("kind must be 'nls' or 'kdv'")
        if self.kind == "nls" and not (2.0 <= self.p <= 6.0):
            raise ValueError("nls requires 2 <= p <= 6")
        if not 0 < self.ball_radius < math.inf:  # NaN fails too
            raise ValueError("ball_radius must be positive and finite")
        if not (math.isfinite(self.beta) and math.isfinite(self.p)):
            raise ValueError("beta and p must be finite")
        if self.cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        if (self.holder_gamma is None) != (self.holder_bound is None):
            raise ValueError("holder_gamma and holder_bound must be set together")
        if self.holder_gamma is not None and not (0.25 < self.holder_gamma < 0.5):
            raise ValueError("holder_gamma must lie in (1/4, 1/2)")
        if self.holder_bound is not None and not 0 < self.holder_bound < math.inf:
            raise ValueError("holder_bound must be positive and finite")
        if self.pi_periodic and self.kind != "kdv":
            raise ValueError("pi_periodic applies to kdv sampling only")

    @staticmethod
    def from_json(obj: dict) -> "GibbsParams":
        return GibbsParams(
            p=_json_value(obj, "p", float),
            beta=_json_value(obj, "beta", float),
            ball_radius=_json_value(obj, "ball_radius", float),
            cutoff=_json_value(obj, "cutoff", int),
            kind=obj.get("kind", "nls"),
            holder_gamma=_json_value(obj, "holder_gamma", float, optional=True),
            holder_bound=_json_value(obj, "holder_bound", float, optional=True),
            pi_periodic=bool(obj.get("pi_periodic", False)),
        )


@dataclass(frozen=True)
class OmegaReport:
    in_ball: bool
    in_holder_ball: bool | None  # None when no Holder constraint configured


@dataclass(frozen=True)
class GibbsEnsemble:
    params: GibbsParams
    samples: tuple[PeriodicField, ...]
    weights: np.ndarray
    seed: int
    method: str
    diagnostics: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if len(self.samples) != w.size:
            raise ValueError("samples and weights lengths differ")
        if w.size and (not np.all(np.isfinite(w)) or np.any(w < 0)):
            raise ValueError("weights must be finite and nonnegative")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "samples", tuple(self.samples))

    def __len__(self) -> int:
        return len(self.samples)


# ---------------------------------------------------------------------------
# Wiener loops
# ---------------------------------------------------------------------------

def _normals_shape(params: GibbsParams) -> tuple[int, int]:
    """Shape (modes, 2) of the standard normals behind one loop."""
    if params.kind == "kdv":
        return (params.cutoff, 2)
    return (2 * params.cutoff + 1, 2)


def _coeffs_from_normals(z: np.ndarray, params: GibbsParams) -> np.ndarray:
    """Loop coefficients from rows of standard normals of shape (rows, modes, 2).

    nls: c_n = (zeta + i zeta')/n for 1 <= |n| <= M, c_0 = 0.
    kdv: c_n = (zeta + i zeta')/(sqrt(2) n) for n >= 1, mirrored to real fields.
    Per-component variance 1/(2 n^2) makes the kdv product density equal
    exp(-(1/2) int (q')^2 dx/2pi) on the independent coordinates n >= 1.
    """
    cutoff = params.cutoff
    if params.kind == "kdv":
        ns = np.arange(1, cutoff + 1)
        pos = (z[:, :, 0] + 1j * z[:, :, 1]) / (math.sqrt(2.0) * ns[None, :])
        if params.pi_periodic:
            pos[:, 0::2] = 0.0  # zero the odd modes n = 1, 3, ...
        coeffs = np.zeros((z.shape[0], 2 * cutoff + 1), dtype=complex)
        coeffs[:, cutoff + 1 :] = pos
        coeffs[:, :cutoff] = np.conj(pos[:, ::-1])
        return coeffs
    ns = np.arange(-cutoff, cutoff + 1)
    coeffs = z[:, :, 0] + 1j * z[:, :, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        coeffs = coeffs / ns[None, :]
    coeffs[:, cutoff] = 0.0
    return coeffs


def _loop_batch(count: int, params: GibbsParams, rng: np.random.Generator) -> np.ndarray:
    return _coeffs_from_normals(rng.standard_normal((count, *_normals_shape(params))), params)


def _reference_loop(cutoff: int, kind: str, pi_periodic: bool, seed: int) -> PeriodicField:
    # beta = 0: the reference Gaussian itself (the construction never reads
    # the ball radius)
    params = GibbsParams(p=2.0, beta=0.0, ball_radius=1.0, cutoff=cutoff,
                         kind=kind, pi_periodic=pi_periodic)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return PeriodicField(cutoff, _loop_batch(1, params, rng)[0])


def sample_wiener_loop(cutoff: int, seed: int) -> PeriodicField:
    """One draw of the complex loop with coefficients (zeta+i zeta')/n, zero mean mode."""
    return _reference_loop(cutoff, "nls", False, seed)


def sample_kdv_loop(cutoff: int, seed: int, pi_periodic: bool = False) -> PeriodicField:
    return _reference_loop(cutoff, "kdv", pi_periodic, seed)


# ---------------------------------------------------------------------------
# Weights and membership
# ---------------------------------------------------------------------------

def _log_weight(field: PeriodicField, params: GibbsParams) -> float:
    if params.beta == 0.0:
        return 0.0
    if params.kind == "kdv":
        return (params.beta / 6.0) * cubic_integral(field)
    return -(params.beta / params.p) * lp_integral(field, params.p)


def gibbs_weight(field: PeriodicField, params: GibbsParams) -> float:
    """exp(-(beta/p) V) for nls, exp(+(beta/6) int q^3) for kdv.

    Raises :class:`DivergentWeightError` instead of silently overflowing,
    which matters near the marginal focusing case p = 6.
    """
    lw = _log_weight(field, params)
    if lw > MAX_LOG_WEIGHT:
        raise DivergentWeightError(f"log-weight {lw:.3g} overflows float64")
    return math.exp(lw)


def in_omega(field: PeriodicField, params: GibbsParams) -> OmegaReport:
    """Closed-ball membership report for Omega_N (and Omega_{N,K} if set)."""
    in_ball = l2_norm_sq(field) <= params.ball_radius
    in_holder: bool | None = None
    if params.holder_bound is not None:
        in_holder = (
            sobolev_norm_sq(field, params.holder_gamma) <= params.holder_bound**2
        )
    return OmegaReport(in_ball=bool(in_ball), in_holder_ball=in_holder)


def _batch_in_omega(coeffs: np.ndarray, params: GibbsParams) -> np.ndarray:
    l2 = np.sum(np.abs(coeffs) ** 2, axis=1)
    ok = l2 <= params.ball_radius
    if params.holder_bound is not None:
        ns = np.arange(-params.cutoff, params.cutoff + 1)
        w = np.zeros_like(ns, dtype=float)
        nz = ns != 0
        w[nz] = np.abs(ns[nz]) ** (2.0 * params.holder_gamma)
        mag2 = np.abs(coeffs) ** 2
        h = mag2[:, params.cutoff] + mag2 @ w
        ok &= h <= params.holder_bound**2
    return ok


def _mass_on_normals(params: GibbsParams) -> np.ndarray:
    """w with ||phi||^2 = (z*z) @ w on flattened rows z of normals.

    Each normal feeds one real or imaginary part (and its mirror for kdv),
    so w is the mass of the loop built from each unit row: 1/n^2 per part.
    """
    shape = _normals_shape(params)
    d = shape[0] * shape[1]
    return np.sum(np.abs(_coeffs_from_normals(np.eye(d).reshape(d, *shape), params)) ** 2, axis=1)


def _screen(rows: np.ndarray, mass_w: np.ndarray, ball_radius: float) -> np.ndarray:
    """Indices of flattened rows of normals whose mass may lie in the closed ball."""
    return ((rows * rows) @ mass_w <= ball_radius * (1.0 + _SCREEN_SLACK)).nonzero()[0]


# ---------------------------------------------------------------------------
# Ensembles
# ---------------------------------------------------------------------------

def importance_ensemble(
    count: int,
    params: GibbsParams,
    seed: int,
    max_attempts: int = 10_000_000,
) -> GibbsEnsemble:
    """Rejection-sample `count` loops into Omega and attach Gibbs weights.

    The acceptance rate reported is accepted/attempted for the ball
    indicator; the nonlinear factor enters through importance weights, not
    through rejection.

    Rows of normals come off the one stream SeedSequence((seed, 1)) in
    order, into one buffer: ``count`` rows first, then chunks doubling up
    to ``_SCREEN_ROWS`` rows, each cut to the budget left.  Only rows that
    pass the mass screen become coefficients and meet the exact ball (and
    Holder) test, and the passing rows are accepted in row order.
    ``attempts`` is the number of rows read up to and including the one
    that completes the draw, so it does not depend on the chunks; a failing
    draw raises after exactly ``max_attempts`` rows.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence((seed, _REJECTION_TAG)))
    mass_w = _mass_on_normals(params)
    buf = np.empty((max(count, _SCREEN_ROWS), *_normals_shape(params)))
    accepted = np.zeros((count, 2 * params.cutoff + 1), dtype=complex)
    filled = 0
    attempts = 0
    rows = count
    while filled < count:
        if attempts >= max_attempts:
            raise RejectionBudgetError(
                f"no full acceptance after {attempts} attempts "
                f"({count - filled} of {count} still pending)"
            )
        rows = min(rows, max_attempts - attempts)
        chunk = rng.standard_normal(out=buf[:rows])
        passed = _screen(chunk.reshape(rows, -1), mass_w, params.ball_radius)
        draws = _coeffs_from_normals(chunk[passed], params)
        hits = _batch_in_omega(draws, params).nonzero()[0][:count - filled]
        accepted[filled:filled + hits.size] = draws[hits]
        filled += hits.size
        attempts += int(passed[hits[-1]]) + 1 if filled == count else rows
        rows = min(2 * rows, _SCREEN_ROWS)

    fields = tuple(PeriodicField(params.cutoff, accepted[i]) for i in range(count))
    divergent = 0
    weights = np.empty(count)
    for i, f in enumerate(fields):
        try:
            weights[i] = gibbs_weight(f, params)
        except DivergentWeightError:
            divergent += 1
            weights[i] = 0.0
    diagnostics = {
        "acceptance_rate": count / attempts,
        "attempts": attempts,
        "divergent_weights": divergent,
    }
    if divergent:
        diagnostics["divergent_weight_event"] = True
    return GibbsEnsemble(params, fields, weights, seed, "importance", diagnostics)


def mcmc_ensemble(
    count: int,
    step_size: float,
    params: GibbsParams,
    seed: int,
    burn_in: int | None = None,
) -> GibbsEnsemble:
    """Markov chain with the Gaussian-preserving autoregressive proposal.

    Proposal phi' = sqrt(1-s^2) phi + s xi with xi a fresh loop draw leaves
    the reference Gaussian invariant, so the accept test only involves the
    nonlinear log-weight difference together with the ball indicators.
    Emitted samples carry unit weights.
    """
    if not (0.0 < step_size < 1.0):
        raise ValueError("step_size must lie in (0, 1)")
    if count < 1:
        raise ValueError("count must be >= 1")
    if burn_in is None:
        burn_in = min(1000, 10 * count)
    rng = np.random.default_rng(np.random.SeedSequence((seed, _MCMC_TAG)))
    dim = 2 * params.cutoff + 1

    state = np.zeros(dim, dtype=complex)  # zero field lies in every ball
    state_lw = _log_weight(PeriodicField(params.cutoff, state), params)
    keep = np.empty((count, dim), dtype=complex)
    n_accept = 0
    n_total = count + burn_in
    blend = math.sqrt(1.0 - step_size**2)
    for it in range(n_total):
        fresh = _loop_batch(1, params, rng)[0]
        u = rng.uniform()  # one uniform per step, used only when needed
        proposal = blend * state + step_size * fresh
        if bool(_batch_in_omega(proposal[None, :], params)[0]):
            prop_lw = _log_weight(PeriodicField(params.cutoff, proposal), params)
            log_ratio = prop_lw - state_lw
            if log_ratio >= 0 or math.log(u) < log_ratio:
                state = proposal
                state_lw = prop_lw
                n_accept += 1
        if it >= burn_in:
            keep[it - burn_in] = state
    fields = tuple(PeriodicField(params.cutoff, keep[i]) for i in range(count))
    diagnostics = {
        "accept_fraction": n_accept / n_total,
        "burn_in": burn_in,
        "step_size": step_size,
    }
    return GibbsEnsemble(params, fields, np.ones(count), seed, "mcmc", diagnostics)


def _integrated_autocorrelation(x: np.ndarray) -> float:
    """1 + 2 sum rho_k over the initial positive sequence of lags."""
    x = np.asarray(x, float)
    n = x.size
    if n < 3:
        return 1.0
    y = x - x.mean()
    var = np.dot(y, y) / n
    if var == 0.0:
        return 1.0
    tau = 1.0
    for k in range(1, n // 2):
        rho = np.dot(y[:-k], y[k:]) / ((n - k) * var)
        if rho <= 0:
            break
        tau += 2.0 * rho
    return tau


def effective_sample_size(ensemble: GibbsEnsemble) -> float:
    """Weight-based ESS (sum w)^2 / sum w^2; autocorrelation ESS for chains."""
    if len(ensemble) == 0:
        raise ValueError("empty ensemble")
    if ensemble.method == "mcmc":
        trace = np.array([l2_norm_sq(f) for f in ensemble.samples])
        return len(ensemble) / _integrated_autocorrelation(trace)
    w = ensemble.weights
    s = w.sum()
    if s == 0:
        return 0.0
    return float(s * s / np.dot(w, w))


# ---------------------------------------------------------------------------
# JSON-lines serialization: header record then one record per sample.
# ---------------------------------------------------------------------------

def save_ensemble_jsonl(ensemble: GibbsEnsemble, path) -> None:
    with open(path, "w") as fh:
        header = {
            "kind": "header",
            "params": result_to_json(ensemble.params),
            "seed": ensemble.seed,
            "method": ensemble.method,
            "count": len(ensemble),
            "diagnostics": ensemble.diagnostics,
        }
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for f, w in zip(ensemble.samples, ensemble.weights):
            rec = {"kind": "sample", "field": field_to_json(f), "weight": float(w)}
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _json_record(path, lineno: int, line: str) -> dict:
    """Line ``lineno`` of a JSON-lines file as a dict, or ValueError naming the file and line."""
    try:
        obj = json.loads(line)
    except ValueError as exc:
        raise ValueError(f"{path}: line {lineno}: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: line {lineno}: not a JSON object")
    return obj


def load_ensemble_jsonl(path) -> GibbsEnsemble:
    with open(path) as fh:
        header = _json_record(path, 1, fh.readline())
        if header.get("kind") != "header":
            raise ValueError("first record must be the ensemble header")
        try:
            params = GibbsParams.from_json(_json_value(header, "params", dict))
            count = _json_value(header, "count", int)
            seed = _json_value(header, "seed", int)
            method = _json_value(header, "method", str)
        except ValueError as exc:
            raise ValueError(f"{path}: ensemble header: {exc}") from None
        samples = []
        weights = []
        for lineno, line in enumerate(fh, 2):
            if not line.strip():
                continue
            rec = _json_record(path, lineno, line)
            try:
                samples.append(_json_value(rec, "field", field_from_json))
                weights.append(_json_value(rec, "weight", float))
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    if len(samples) != count:
        raise ValueError(f"{path}: header count {count}, {len(samples)} records")
    return GibbsEnsemble(
        params,
        tuple(samples),
        np.array(weights),
        seed,
        method,
        dict(header.get("diagnostics", {})),
    )
