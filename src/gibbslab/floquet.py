"""Shared machinery for periodic 2x2 spectral problems.

Three layers, all pure functions over immutable inputs:

* a fixed-step fourth-order (RK4) propagator for the trace-free system
  Psi' = (B(x) + lambda C) Psi, vectorized over a batch of spectral
  parameters; the Dirac and Hill modules supply only B at the RK4 nodes
  and the constant C;
* local analytic "disk models": Taylor expansions of an entire function
  (the discriminant) recovered from samples on a circle, giving cheap and
  spectrally accurate access to values, derivatives and roots near the
  center;
* window scans that bracket sign changes and near-double minima on a real
  grid, refine them through disk models, and classify multiplicities.

Contour sums for linear statistics are evaluated on the models, so the
integrand stays an analytic object and the calculus-of-residues identities
hold to model accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Monodromy",
    "rk4_transfer",
    "transfer_monodromy",
    "transfer_discriminant",
    "DiskModel",
    "build_models",
    "LocatedRoot",
    "locate_spectral_points",
    "contour_sum",
    "ContourPlacementError",
    "InsufficientPointsError",
    "NUMERICAL_FAILURES",
]


class ContourPlacementError(RuntimeError):
    """A contour root count failed the integrality test."""


class InsufficientPointsError(ValueError):
    """Not enough spectral points for the requested two-sided index range."""


# The failures a spectral computation may raise on a hard input; callers
# that tolerate a few failed members catch these and let any other
# exception (a bug) propagate.
NUMERICAL_FAILURES = (FloatingPointError, RuntimeError, InsufficientPointsError)


# ---------------------------------------------------------------------------
# Batched RK4 transfer matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Monodromy:
    """Transfer matrix over one period at a fixed spectral parameter."""

    matrix: np.ndarray
    lam: complex
    potential_hash: str

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError("monodromy matrix must be 2x2")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def trace(self) -> complex:
        return complex(self.matrix[0, 0] + self.matrix[1, 1])

    @property
    def determinant(self) -> complex:
        m = self.matrix
        return complex(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


def rk4_transfer(b_nodes, c, length: float, steps: int, lam: np.ndarray):
    """Transfer matrix of Psi' = (B(x) + lam C) Psi over [0, length], Psi(0) = I.

    ``b_nodes`` holds the four entries (b11, b12, b21, b22) of B, each an
    array of samples at the half-grid nodes x_j = j * length / (2 * steps),
    j = 0..2*steps; ``c`` holds the four constant entries of C.  Returns
    four arrays shaped like the batch ``lam`` holding the entries of
    Psi(length).
    """
    if steps < 64:
        raise ValueError("steps must be >= 64")
    lam = np.asarray(lam, dtype=complex)
    shape = lam.shape
    h = length / steps
    # Python floats multiply arrays with less overhead than numpy scalars
    cols = [np.asarray(b).tolist() for b in b_nodes]
    if any(len(col) != 2 * steps + 1 for col in cols):
        raise ValueError("each entry of B needs 2 * steps + 1 node samples")
    lam_c = [None if ci == 0 else ci * lam for ci in c]

    def node(j: int):
        return tuple(b[j] if lc is None else b[j] + lc for b, lc in zip(cols, lam_c))

    def mul(A, m):
        a11, a12, a21, a22 = A
        return (
            a11 * m[0] + a12 * m[2],
            a11 * m[1] + a12 * m[3],
            a21 * m[0] + a22 * m[2],
            a21 * m[1] + a22 * m[3],
        )

    def step_add(m, k, t):
        return (m[0] + t * k[0], m[1] + t * k[1], m[2] + t * k[2], m[3] + t * k[3])

    psi = (
        np.ones(shape, dtype=complex),
        np.zeros(shape, dtype=complex),
        np.zeros(shape, dtype=complex),
        np.ones(shape, dtype=complex),
    )
    A3 = node(0)
    for j in range(steps):
        A1, A2, A3 = A3, node(2 * j + 1), node(2 * j + 2)
        k1 = mul(A1, psi)
        k2 = mul(A2, step_add(psi, k1, h / 2))
        k3 = mul(A2, step_add(psi, k2, h / 2))
        k4 = mul(A3, step_add(psi, k3, h))
        psi = tuple(
            psi[i] + (h / 6.0) * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
            for i in range(4)
        )
    if not all(np.all(np.isfinite(p)) for p in psi):
        raise FloatingPointError(
            "transfer matrix overflowed; spectral parameter too large for the step budget"
        )
    return psi


def transfer_monodromy(
    b_nodes, c, length: float, steps: int, lam: complex, potential_hash: str
) -> Monodromy:
    """Psi_lambda(length) at one spectral parameter, as a :class:`Monodromy`."""
    m = rk4_transfer(b_nodes, c, length, steps, np.asarray([lam], dtype=complex))
    mat = np.array([[m[0][0], m[1][0]], [m[2][0], m[3][0]]])
    return Monodromy(mat, complex(lam), potential_hash)


def transfer_discriminant(b_nodes, c, length: float, steps: int):
    """Closure evaluating Delta = trace Psi_lambda(length) on arrays of lambda."""

    def disc(lams):
        m = rk4_transfer(b_nodes, c, length, steps, np.asarray(lams, dtype=complex))
        return m[0] + m[3]

    return disc


# ---------------------------------------------------------------------------
# Disk models
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DiskModel:
    """Taylor model f(center + w) = sum_k coef[k] w^k, trusted for |w| <= trust."""

    center: complex
    radius: float
    trust: float
    coef: np.ndarray

    def __call__(self, z):
        w = np.asarray(z, dtype=complex) - self.center
        return np.polyval(self.coef[::-1], w)

    def deriv_coef(self, order: int = 1) -> np.ndarray:
        c = self.coef
        for _ in range(order):
            c = c[1:] * np.arange(1, c.size)
        return c

    def eval_deriv(self, z, order: int = 1):
        w = np.asarray(z, dtype=complex) - self.center
        return np.polyval(self.deriv_coef(order)[::-1], w)

    def _roots_of_coef(self, coef: np.ndarray) -> np.ndarray:
        scale = np.abs(coef) * self.trust ** np.arange(coef.size)
        top = np.max(scale)
        if top == 0.0:
            return np.empty(0, dtype=complex)
        keep = np.nonzero(scale > 1e-14 * top)[0]
        coef = coef[: keep[-1] + 1]
        if coef.size < 2:
            return np.empty(0, dtype=complex)
        roots = np.roots(coef[::-1])
        return roots[np.abs(roots) <= self.trust]

    def roots_at_level(self, level: float) -> np.ndarray:
        """Roots of f = level inside the trust disk (relative to center)."""
        shifted = self.coef.copy()
        shifted[0] -= level
        return self._roots_of_coef(shifted)

    def critical_roots(self) -> np.ndarray:
        """Roots of f' inside the trust disk (relative to center)."""
        return self._roots_of_coef(self.deriv_coef(1))


def build_models(
    f_batch,
    centers: np.ndarray,
    radius: float = 0.7,
    trust: float = 0.35,
    nodes: int = 64,
    max_terms: int = 44,
) -> list[DiskModel]:
    """Fit disk models at the given centers with one batched evaluation.

    ``f_batch`` maps an array of complex points to function values.  The fit
    samples ``nodes`` points on each circle of the given radius; Taylor
    coefficients follow from one FFT per circle, with aliasing controlled by
    radius > trust.
    """
    centers = np.asarray(centers, dtype=complex)
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    ring = radius * np.exp(1j * theta)
    pts = (centers[:, None] + ring[None, :]).ravel()
    vals = np.asarray(f_batch(pts), dtype=complex).reshape(centers.size, nodes)
    alpha = np.fft.fft(vals, axis=1) / nodes
    k = np.arange(min(max_terms, nodes))
    coefs = alpha[:, : k.size] / radius ** k[None, :]
    return [
        DiskModel(center=complex(c), radius=radius, trust=trust, coef=coefs[i])
        for i, c in enumerate(centers)
    ]


# ---------------------------------------------------------------------------
# Root location on a real window
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocatedRoot:
    value: float
    level: float        # discriminant level (+2/-2), or nan for critical points
    multiplicity: int
    residual: float     # |model(value) - level|, or |model'(value)| for critical

    @property
    def is_critical(self) -> bool:
        return np.isnan(self.level)


def _candidate_centers(grid: np.ndarray, d: np.ndarray, levels, want_critical: bool):
    cands: list[float] = []
    for level in levels:
        f = d - level
        sign_change = np.nonzero(f[:-1] * f[1:] < 0)[0]
        cands.extend(0.5 * (grid[i] + grid[i + 1]) for i in sign_change)
        cands.extend(grid[np.nonzero(f == 0.0)[0]])
        a = np.abs(f)
        interior = np.nonzero((a[1:-1] <= a[:-2]) & (a[1:-1] <= a[2:]) & (a[1:-1] < 1.0))[0]
        cands.extend(grid[i + 1] for i in interior)
    if want_critical:
        slope = np.diff(d)
        turn = np.nonzero(slope[:-1] * slope[1:] < 0)[0]
        cands.extend(grid[i + 1] for i in turn)
    return sorted(cands)


def _thin_centers(cands: list[float], min_sep: float) -> np.ndarray:
    kept: list[float] = []
    for c in cands:
        if not kept or c - kept[-1] >= min_sep:
            kept.append(c)
    return np.asarray(kept, dtype=float)


def _owned(roots_with_model, centers: np.ndarray):
    """Keep each root only in the model whose center is nearest to it."""
    out = []
    for value, model_idx, payload in roots_with_model:
        nearest = int(np.argmin(np.abs(centers - value)))
        if nearest == model_idx:
            out.append((value, payload))
    return out


def locate_spectral_points(
    f_batch,
    grid: np.ndarray,
    levels=(2.0, -2.0),
    want_critical: bool = False,
    trust: float = 0.35,
    radius: float = 0.7,
    nodes: int = 64,
    double_tol: float = 1e-6,
    imag_tol: float = 1e-3,
    merge_window: float = 0.02,
) -> tuple[list[LocatedRoot], list[DiskModel]]:
    """Find real solutions of f = level (and optionally f' = 0) on a window.

    The grid must be fine enough that every target lies within ``trust`` of
    a sign change, a local minimum of |f - level|, or a discrete extremum;
    grid spacing at most 0.35 * trust guarantees this for simple roots.

    A pair of zeros of f - level counts as one double root when the dip
    min |f^2 - 4| at the critical point between them falls below
    ``double_tol``: below that level the two edges are numerically
    indistinguishable and the well-conditioned quantity is the critical
    point itself, which is where the double root is reported.
    """
    grid = np.asarray(grid, dtype=float)
    d = np.real(np.asarray(f_batch(grid.astype(complex))))
    cands = _candidate_centers(grid, d, levels, want_critical)
    if not cands:
        return [], []
    centers = _thin_centers(cands, 0.35 * trust)
    models = build_models(f_batch, centers, radius=radius, trust=trust, nodes=nodes)

    simple_hits: list[tuple[float, int, tuple]] = []
    double_hits: list[tuple[float, int, tuple]] = []
    crit_hits: list[tuple[float, int, tuple]] = []
    for mi, model in enumerate(models):
        if want_critical:
            crit = model.critical_roots()
            for w in np.sort(np.real(crit[np.abs(np.imag(crit)) <= imag_tol])):
                lam = float(np.real(model.center) + w)
                resid = float(np.abs(model.eval_deriv(lam, 1)))
                crit_hits.append((lam, mi, (resid,)))
        for level in levels:
            roots = model.roots_at_level(level)
            if roots.size == 0:
                continue
            real_mask = np.abs(np.imag(roots)) <= imag_tol
            for w in np.sort(np.real(roots[real_mask])):
                lam = float(np.real(model.center) + w)
                simple_hits.append((lam, mi, (level,)))
            # conjugate pair: the discriminant does not visibly reach the
            # level; keep it as a double point if the dip is within tol
            uppers = roots[~real_mask]
            for w in np.real(uppers[np.imag(uppers) > 0]):
                lam_star = _critical_near(models[mi], w)
                if lam_star is None:
                    continue
                lam = float(np.real(model.center) + lam_star)
                dip = float(np.abs(model(lam) ** 2 - 4.0))
                if dip < double_tol:
                    double_hits.append((lam, mi, (level, dip)))

    # ownership, then dip-based merging of nearly coincident simple pairs
    owned_simple = _owned(simple_hits, centers)
    owned_double = _owned(double_hits, centers)
    results: list[LocatedRoot] = []
    for level in levels:
        vals = sorted(v for v, payload in owned_simple if payload[0] == level)
        i = 0
        while i < len(vals):
            if i + 1 < len(vals) and vals[i + 1] - vals[i] < merge_window:
                mid = 0.5 * (vals[i] + vals[i + 1])
                mi = int(np.argmin(np.abs(centers - mid)))
                w_star = _critical_near(models[mi], mid - np.real(models[mi].center))
                if w_star is not None:
                    lam = float(np.real(models[mi].center) + w_star)
                    dip = float(np.abs(models[mi](lam) ** 2 - 4.0))
                    # a conjugate pair kept as two real hits has equal real
                    # parts, so the bracket is widened by imag_tol
                    inside = vals[i] - imag_tol <= lam <= vals[i + 1] + imag_tol
                    if dip < double_tol and inside:
                        results.append(LocatedRoot(lam, level, 2, dip))
                        i += 2
                        continue
            lam = vals[i]
            mi = int(np.argmin(np.abs(centers - lam)))
            resid = float(np.abs(models[mi](lam) - level))
            results.append(LocatedRoot(lam, level, 1, resid))
            i += 1
    for lam, (level, dip) in owned_double:
        results.append(LocatedRoot(lam, level, 2, dip))
    for lam, (resid,) in _owned(crit_hits, centers):
        results.append(LocatedRoot(lam, float("nan"), 1, resid))
    results.sort(key=lambda r: r.value)
    return results, models


def _critical_near(model: DiskModel, w_guess: float):
    crit = model.critical_roots()
    crit = crit[np.abs(np.imag(crit)) <= 1e-6]
    if crit.size == 0:
        return None
    w = np.real(crit)
    return float(w[np.argmin(np.abs(w - w_guess))])


# ---------------------------------------------------------------------------
# Contour sums
# ---------------------------------------------------------------------------

def contour_sum(
    models: list[DiskModel],
    g,
    kernel: str,
    radius: float,
    nodes: int = 64,
    count_tol: float = 0.1,
) -> tuple[float, list[float]]:
    """Sum of (1/2 pi i) * contour integrals of g times a logarithmic kernel.

    kernel 'critical' uses Delta''/Delta' (zeros of Delta'), 'plus' uses
    Delta'/(Delta - 2) and 'minus' uses Delta'/(Delta + 2).  Each circle is
    centered at its model's center with the given radius; the enclosed root
    count (the same integral with g = 1) must be within ``count_tol`` of an
    integer or the placement is rejected.
    """
    if kernel not in ("critical", "plus", "minus"):
        raise ValueError("kernel must be 'critical', 'plus' or 'minus'")
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    phase = np.exp(1j * theta)
    total = 0.0 + 0.0j
    counts: list[float] = []
    for model in models:
        if radius > model.trust:
            raise ValueError("contour radius exceeds the model trust radius")
        z = model.center + radius * phase
        if kernel == "critical":
            num = model.eval_deriv(z, 2)
            den = model.eval_deriv(z, 1)
        else:
            num = model.eval_deriv(z, 1)
            den = model(z) - (2.0 if kernel == "plus" else -2.0)
        ratio = num / den
        count = (radius / nodes) * np.sum(ratio * phase)
        if abs(count - round(count.real)) > count_tol:
            raise ContourPlacementError(
                f"root count {count:.4f} at center {model.center:.6g} "
                "is not close to an integer; adjust the circles"
            )
        counts.append(float(count.real))
        gz = np.asarray(g(z), dtype=complex)
        total += (radius / nodes) * np.sum(gz * ratio * phase)
    return float(np.real(total)), counts
