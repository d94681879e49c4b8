"""Weighted ensembles approximating truncated Gibbs measures.

The reference Gaussian ("Wiener loop") puts independent N(0, 1/n^2) weight
on each real coordinate of mode n != 0, which realizes exp(-(1/2) int |phi'|^2 dx/2pi)
on the truncated phase space.  The Gibbs ensemble reweights it by

    exp(-(beta/p) int |phi|^p dx/2pi)            (nls)
    exp(+(beta/6) int q^3  dx/2pi)               (kdv, real fields)

restricted to the closed ball ||phi||_{L^2}^2 <= N, optionally intersected
with a Holder ball ||phi||_{H^gamma} <= K.

Determinism: all sampling is driven by numpy SeedSequence streams derived
from the master seed.  Rejection sampling proceeds in global rounds; in
round r the pending sample indices (in ascending order) consume the rows of
one batch drawn from SeedSequence((seed, r)).  Rows are screened by their
mass on the raw normals, and only rows inside the ball are built into loops
and tested exactly; the screen only skips work, so the stream and every
accepted row are those of building every row.  The rounds' seeds are
hashed many rounds at a time by numpy's SeedSequence algorithm, and once
fewer than ``_SCREEN_ROWS`` samples are pending, several rounds are drawn
and screened together, then replayed one by one; neither changes a stream,
an acceptance or an attempt count.  The result is a pure function of
(params, count, seed), independent of any worker fan-out.
"""

from __future__ import annotations

import functools
import json
import math
import operator
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
_MCMC_TAG = 2  # stream tag separating the chain from rejection rounds
_SCREEN_ROWS = 1024  # rows of normals drawn and mass-screened at a time
_HASH_ROUNDS = 1024  # rounds whose stream seeds are hashed at a time
# The screen's mass (z*z) @ w and the exact sum |c_n|^2 differ by rounding
# (about 1e-14 relative), far inside this margin, so the screen passes
# every row the exact closed-ball test accepts.
_SCREEN_SLACK = 1e-9


# numpy.random.SeedSequence's hash constants (pool size 4), for _round_states
_MASK32 = 0xFFFF_FFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01_F9DD, 0x4973_F715


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
# Round streams
# ---------------------------------------------------------------------------

def _entropy_words(n: int) -> list[int]:
    """The little-endian uint32 words SeedSequence makes of a non-negative integer."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hashmix(init: int, mult: int):
    """SeedSequence's hashmix on uint32 arrays, with its running constant.

    The constant advances by the same product on every call whatever the
    data, so one sequence of constants serves all rounds at once.
    """
    const = init

    def step(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> 16

    return step


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ result >> 16


def _round_states(seed: int, first: int, count: int) -> np.ndarray:
    """Row j is SeedSequence((seed, first + j)).generate_state(4, np.uint64).

    numpy's pool hash (entropy words, pool of four, mixed all to all) and
    its output hash, as uint32 arithmetic over ``count`` rounds at once.
    """
    if first < 1 << 32 < first + count:  # the round's entropy gains a word at 2**32
        head = (1 << 32) - first
        return np.concatenate([_round_states(seed, first, head),
                               _round_states(seed, 1 << 32, count - head)])
    rounds = np.arange(first, first + count, dtype=np.uint64)
    entropy = [np.full(count, w, np.uint32) for w in _entropy_words(seed)]
    entropy.append((rounds & _MASK32).astype(np.uint32))
    if first >> 32:
        entropy.append((rounds >> 32).astype(np.uint32))

    hashmix = _hashmix(_INIT_A, _MULT_A)
    zero = np.zeros(count, np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))

    out_hash = _hashmix(_INIT_B, _MULT_B)
    state = np.empty((count, 2 * _POOL_SIZE), np.uint32)
    for i in range(2 * _POOL_SIZE):
        state[:, i] = out_hash(pool[i % _POOL_SIZE])
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _round_seed_type() -> type:
    """The ISeedSequence that hands PCG64 a round's words, hashed beforehand.

    Built on first use, so that importing gibbslab does not import
    numpy.random.
    """

    class RoundSeed(np.random.bit_generator.ISeedSequence):
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("a round seed holds the four uint64 words of PCG64")
            return self.state

    return RoundSeed


def _round_generator(state: np.ndarray) -> np.random.Generator:
    """The generator of SeedSequence((seed, r)), from its words ``_round_states`` gave."""
    return np.random.Generator(np.random.PCG64(_round_seed_type()(state)))


def _screened_rounds(
    states: np.ndarray, rows: int, params: GibbsParams, mass_w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The first ``rows`` rows of normals of each round whose mass may lie in the ball.

    Round j of the block owns block rows j*rows ... (j+1)*rows - 1.  Returns
    the passing block rows in ascending order and their normals.  Rounds of
    at most ``_SCREEN_ROWS`` rows share one buffer and one screen; a single
    round of more rows is drawn and screened in chunks of that size.
    """
    shape = _normals_shape(params)
    if rows > _SCREEN_ROWS:
        (state,) = states  # a round this large is a block of its own
        rng = _round_generator(state)
        buf = np.empty((_SCREEN_ROWS, *shape))
        hits, normals = [], []
        for start in range(0, rows, _SCREEN_ROWS):
            k = min(_SCREEN_ROWS, rows - start)
            rng.standard_normal(out=buf[:k])
            passed = _screen(buf[:k].reshape(k, -1), mass_w, params.ball_radius)
            hits.append(start + passed)
            normals.append(buf[passed])
        return np.concatenate(hits), np.concatenate(normals)
    buf = np.empty((len(states) * rows, *shape))
    for j, state in enumerate(states):
        _round_generator(state).standard_normal(out=buf[j * rows:(j + 1) * rows])
    hits = _screen(buf.reshape(len(buf), -1), mass_w, params.ball_radius)
    return hits, buf[hits]


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

    Round r draws from SeedSequence((seed, r)).  The rounds' seeds are
    hashed ``_HASH_ROUNDS`` at a time.  A round of more than ``_SCREEN_ROWS``
    pending samples draws its normals in chunks of ``_SCREEN_ROWS`` rows;
    otherwise blocks of consecutive rounds (one round, then doubling, up
    to ``_SCREEN_ROWS`` rows) each draw as many rows as were pending at the
    block's start, screen them in one call, and are replayed in order, each
    round using only the rows below its own pending count.  Only rows that
    pass the mass screen become coefficients and meet the exact ball (and
    Holder) test.  ``max_attempts`` is checked before each round, so a
    failing draw may report up to ``count - 1`` attempts beyond the budget.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    mass_w = _mass_on_normals(params)
    accepted = np.zeros((count, 2 * params.cutoff + 1), dtype=complex)
    pending = np.arange(count)
    attempts = 0
    round_idx = 0
    block = 1
    while pending.size:
        offset = round_idx % _HASH_ROUNDS
        if offset == 0:
            states = _round_states(seed, round_idx, _HASH_ROUNDS)
        rows = pending.size
        rounds = min(block, max(1, _SCREEN_ROWS // rows), _HASH_ROUNDS - offset)
        hits, normals = _screened_rounds(states[offset:offset + rounds], rows, params, mass_w)
        edges = np.searchsorted(hits, np.arange(rounds + 1) * rows).tolist()
        for j in range(rounds):
            if attempts >= max_attempts:
                raise RejectionBudgetError(
                    f"no full acceptance after {attempts} attempts "
                    f"({pending.size} of {count} still pending)"
                )
            attempts += pending.size
            lo, hi = edges[j], edges[j + 1]
            if lo < hi:
                found = hits[lo:hi] - j * rows
                live = found < pending.size
                draws = _coeffs_from_normals(normals[lo:hi][live], params)
                ok = _batch_in_omega(draws, params)
                found = found[live][ok]
                accepted[pending[found]] = draws[ok]
                pending = np.delete(pending, found)
                if not pending.size:
                    break
        round_idx += rounds
        block = min(2 * block, _SCREEN_ROWS)  # at most _SCREEN_ROWS rounds of one row

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
