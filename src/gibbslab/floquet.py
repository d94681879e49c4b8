"""Shared machinery for periodic 2x2 spectral problems.

Three layers, all pure functions over immutable inputs:

* a fixed-step fourth-order (RK4) propagator for the trace-free system
  Psi' = (B(x) + lambda C) Psi with real B and C, vectorized over a batch
  of complex spectral parameters; the Dirac and Hill modules supply only
  B at the RK4 nodes and the constant C.  On a linear system an RK4 step
  is Psi -> Psi + Q_n(lambda) Psi with Q_n a matrix polynomial of degree
  at most 4 (2 for Hill, whose C^2 = 0), so the stage formulas run once
  per field on polynomials (step_polynomials, real coefficients), and
  each step of the lambda loop is one real matrix product of Q_n's
  coefficients with the powers of lambda plus four array operations into
  buffers made once per call, where the staged loop needed about 100
  operations.  A small batch also fills the arrays along x: segments of
  the period run side by side and are multiplied in a pairwise tree, so
  the step loop's fixed cost per array operation is paid over fewer steps;
* local analytic "disk models": Taylor expansions of an entire function
  (the discriminant) recovered from samples on a circle, giving cheap and
  spectrally accurate access to values, derivatives and roots near the
  center.  The discriminant is entire of exponential type pi (in lambda
  for Dirac, in s = sqrt(lambda) for Hill), so the circle's node count
  follows from the growth bound (pi r)^n / n! <= 1e-16 (see build_models);
* window scans that bracket sign changes and near-double minima on a real
  grid, refine them through disk models, read every double point at a
  real critical point with a small dip, and return the located points
  (value, level, multiplicity) only.

Contour sums for linear statistics are evaluated on the models, so the
integrand stays an analytic object and the calculus-of-residues identities
hold to model accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Monodromy",
    "step_polynomials",
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


# Most lanes (segments x spectral parameters) a small batch is spread over.
# Below this size each array operation costs mostly its fixed Python overhead,
# so filling the lanes along x is almost free; above it that overhead no
# longer dominates.
SEGMENT_LANES = 4096


def _segment_count(steps: int, batch: int) -> int:
    """Largest power of two k dividing ``steps`` with k * batch <= SEGMENT_LANES."""
    k = 1
    while steps % (2 * k) == 0 and 2 * k * batch <= SEGMENT_LANES:
        k *= 2
    return k


# Steps of the polynomial build done at once; a block's stage polynomials
# stay a few tens of kB whatever the step budget.
STEP_BLOCK = 256


def _mat_prod(x, y):
    """2x2 matrix products x @ y over the first two axes, broadcast over the rest."""
    return x[:, 0, None] * y[None, 0] + x[:, 1, None] * y[None, 1]


def step_polynomials(b_nodes, c, length: float, steps: int) -> np.ndarray:
    """RK4 step increments of Psi' = (B(x) + lam C) Psi as polynomials in lam.

    ``b_nodes`` holds the four entries (b11, b12, b21, b22) of B, each an
    array of samples at the half-grid nodes x_j = j * length / (2 * steps),
    j = 0..2*steps; ``c`` holds the four constant entries of C.  On a
    linear system RK4 step n is exactly Psi -> Psi + Q_n(lam) Psi, where
    Q_n is a matrix polynomial of degree at most 4 in lam whose
    coefficients depend on B alone.  They come from running the stage
    formulas once on matrix polynomials from Psi = I, in blocks of
    STEP_BLOCK steps.

    Returns a (deg + 1, 4, steps) array: [m, :, n] holds the entries (11,
    12, 21, 22) of the coefficient of lam^m in Q_n.  Trailing coefficients
    that vanish identically are dropped, so deg is 4 for Dirac and 2 for
    Hill, whose C^2 = 0.  B and C must be real (both front ends' are), so
    the coefficients are real; a complex B or C raises ValueError.
    """
    b_nodes = [np.asarray(b) for b in b_nodes]
    if any(b.shape != (2 * steps + 1,) for b in b_nodes):
        raise ValueError("each entry of B needs 2 * steps + 1 node samples")
    if any(np.iscomplexobj(v) for v in (*b_nodes, *c)):
        raise ValueError("B and C must be real")
    b = np.array(b_nodes, dtype=float).reshape(2, 2, 1, -1)
    c_mat = np.array(c, dtype=float).reshape(2, 2, 1, 1)
    h = length / steps

    def times_a(b_node, poly):
        # (B + lam C) poly; poly has degree <= 3, so nothing is cut off
        prod = _mat_prod(b_node, poly)
        prod[:, :, 1:] += _mat_prod(c_mat, poly[:, :, :-1])
        return prod

    out = np.empty((5, 2, 2, steps))
    for s in range(0, steps, STEP_BLOCK):
        e = min(s + STEP_BLOCK, steps)
        # matrix polynomials of degree <= 4 as (2, 2, 5, e - s) arrays
        eye = np.zeros((2, 2, 5, e - s))
        eye[0, 0, 0] = eye[1, 1, 0] = 1.0
        b1, b2, b3 = (b[..., 2 * s + i : 2 * e + i : 2] for i in range(3))
        k1 = times_a(b1, eye)
        k2 = times_a(b2, eye + (h / 2) * k1)
        k3 = times_a(b2, eye + (h / 2) * k2)
        k4 = times_a(b3, eye + h * k3)
        out[..., s:e] = np.moveaxis((h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), 2, 0)
    out = out.reshape(5, 4, steps)
    deg = 4
    while deg > 0 and not out[deg].any():
        deg -= 1
    return out[: deg + 1]


def rk4_transfer(step_poly: np.ndarray, steps: int, lam: np.ndarray):
    """Transfer matrix Psi(length) of Psi' = (B(x) + lam C) Psi, Psi(0) = I.

    ``step_poly`` is :func:`step_polynomials` of the system over ``steps``
    steps, a real array.  Returns four arrays shaped like the batch ``lam``
    holding the entries of Psi(length).  Each step forms
    Q(lam) = sum_m lam^m Q^(m) for every lane as one real matrix product of
    its coefficients with the interleaved real and imaginary parts of the
    powers of lam, computed once per call, and applies Psi + Q(lam) Psi in
    four array operations.  Adding Psi last keeps the rounding of the staged
    RK4 loop; a product with I + Q would lose the low bits of the increment.

    A small batch is spread along x: [0, length] is split into k equal
    segments (k the largest power of two dividing ``steps`` with
    k * lam.size <= SEGMENT_LANES), every segment is propagated from the
    identity at once on (2, 2, k, lam.size) arrays, and the k segment
    matrices are multiplied in log2(k) pairwise levels, later segment on
    the left.  The steps are the same as for k = 1, so results agree with
    the unsegmented loop to rounding.
    """
    if steps < 64:
        raise ValueError("steps must be >= 64")
    step_poly = np.asarray(step_poly)
    if step_poly.ndim != 3 or step_poly.shape[1:] != (4, steps):
        raise ValueError("step polynomials must have shape (deg + 1, 4, steps)")
    lam = np.asarray(lam, dtype=complex)
    shape = lam.shape
    k = _segment_count(steps, lam.size)
    seg = steps // k
    deg = step_poly.shape[0] - 1
    # the coefficients of step j of every segment as a (4 * k, deg + 1)
    # matrix, rows in (entry, segment) order, and lam^m in row m of powers
    cols = np.ascontiguousarray(step_poly.reshape(deg + 1, 4 * k, seg).transpose(2, 1, 0))
    powers = np.empty((deg + 1, lam.size), dtype=complex)
    powers[0] = 1.0
    rhs = powers.view(float)
    lanes = (2, 2, k, lam.size)
    psi = np.zeros(lanes, dtype=complex)
    psi[0, 0] = psi[1, 1] = 1.0
    # the step loop writes into buffers made once: a fresh temporary of this
    # size per operation costs page faults that outweigh the arithmetic
    q_out = np.empty((4 * k, rhs.shape[1]))
    q = q_out.view(complex).reshape(lanes)
    dpsi, term = np.empty(lanes, dtype=complex), np.empty(lanes, dtype=complex)
    # an overflow is reported once, as the FloatingPointError below
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, deg + 1):
            powers[m] = powers[m - 1] * lam.ravel()
        for col in cols:
            np.matmul(col, rhs, out=q_out)
            # psi + Q psi, with the product summed before psi is added
            np.multiply(q[:, 0, None], psi[None, 0], out=dpsi)
            np.multiply(q[:, 1, None], psi[None, 1], out=term)
            dpsi += term
            psi += dpsi
        while psi.shape[2] > 1:
            psi = _mat_prod(psi[:, :, 1::2], psi[:, :, 0::2])
    if not np.all(np.isfinite(psi)):
        raise FloatingPointError(
            "transfer matrix overflowed; spectral parameter too large for the step budget"
        )
    return tuple(p.reshape(shape) for p in psi.reshape(4, -1))


def transfer_monodromy(
    b_nodes, c, length: float, steps: int, lam: complex, potential_hash: str
) -> Monodromy:
    """Psi_lambda(length) at one spectral parameter, as a :class:`Monodromy`."""
    step_poly = step_polynomials(b_nodes, c, length, steps)
    m = rk4_transfer(step_poly, steps, np.asarray([lam], dtype=complex))
    mat = np.array([[m[0][0], m[1][0]], [m[2][0], m[3][0]]])
    return Monodromy(mat, complex(lam), potential_hash)


def transfer_discriminant(b_nodes, c, length: float, steps: int):
    """Closure evaluating Delta = trace Psi_lambda(length) on arrays of lambda.

    The step polynomials are built once, here, and shared by every call.
    """
    step_poly = step_polynomials(b_nodes, c, length, steps)

    def disc(lams):
        m = rk4_transfer(step_poly, steps, np.asarray(lams, dtype=complex))
        return m[0] + m[3]

    return disc


# ---------------------------------------------------------------------------
# Disk models
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DiskModel:
    """Taylor model f(center + w) = sum_k coef[k] w^k, trusted for |w| <= trust."""

    center: complex
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


def _ring_nodes(radius: float) -> int:
    """Least multiple of 8 nodes n with (pi * radius)^n / n! <= 1e-16.

    The bound is compared in logarithms: the direct quotient overflows to
    nan for a large radius.
    """
    log_growth, target = math.log(math.pi * radius), math.log(1e-16)
    n = 8
    while n * log_growth - math.lgamma(n + 1) > target:
        n += 8
    return n


def build_models(f_batch, centers: np.ndarray, trust: float) -> list[DiskModel]:
    """Fit disk models at the given centers with one batched evaluation.

    ``f_batch`` maps an array of complex points to function values and must
    be entire of exponential type at most pi, so that its Taylor
    coefficients on a circle of radius r fall like (pi r)^k / k!.  Each
    circle has radius r = 2 * trust and the least multiple of 8 nodes n
    with (pi r)^n / n! <= 1e-16, so the trapezoid rule recovers every
    coefficient kept (one per node) to 1e-16 of the function's size on the
    circle; the coefficients follow from one FFT per circle.  For Hill's
    lambda plane, of exponential type 0, the bound is conservative.
    """
    centers = np.asarray(centers, dtype=complex)
    radius = 2.0 * trust
    nodes = _ring_nodes(radius)
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    ring = radius * np.exp(1j * theta)
    pts = (centers[:, None] + ring[None, :]).ravel()
    vals = np.asarray(f_batch(pts), dtype=complex).reshape(centers.size, nodes)
    # r^-k underflows quietly to 0 where r^k would overflow on a wide circle
    coefs = np.fft.fft(vals, axis=1) * (radius ** -np.arange(nodes) / nodes)
    return [DiskModel(complex(c), trust, coefs[i]) for i, c in enumerate(centers)]


# ---------------------------------------------------------------------------
# Root location on a real window
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocatedRoot:
    value: float
    level: float        # discriminant level (+2/-2), or nan for critical points
    multiplicity: int

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


# Window-scan tolerances.  Disk models are trusted within TRUST of their
# centers; a root with imaginary part at most IMAG_TOL counts as real; a
# real critical point (imaginary part at most DOUBLE_IMAG_TOL) with dip
# |f^2 - 4| below DOUBLE_TOL is a double point, and simple roots within
# MERGE_WINDOW of it at its level are its edges.
TRUST = 0.35
IMAG_TOL = 1e-3
DOUBLE_IMAG_TOL = 1e-6
DOUBLE_TOL = 1e-6
MERGE_WINDOW = 0.02


def locate_spectral_points(
    f_batch,
    grid: np.ndarray,
    levels=(2.0, -2.0),
    want_critical: bool = False,
) -> list[LocatedRoot]:
    """Find real solutions of f = level (and optionally f' = 0) on a window.

    Returns the points sorted by value, each with its level (nan for a
    critical point) and multiplicity; the disk models stay internal.

    The grid must be fine enough that every target lies within ``TRUST`` of
    a sign change, a local minimum of |f - level|, or a discrete extremum;
    grid spacing at most 0.35 * TRUST guarantees this for simple roots.

    One rule decides multiplicity.  A real critical point c of a model
    (imaginary part at most ``DOUBLE_IMAG_TOL``) whose dip |f(c)^2 - 4| is
    below ``DOUBLE_TOL`` is a double point of the level nearest Re f(c),
    reported at c: below that dip the two edges, a close real pair or a
    conjugate pair just off the axis, are numerically indistinguishable
    and the critical point is the well-conditioned quantity.  Every other
    root of f = level with imaginary part at most ``IMAG_TOL`` is a simple
    point.  Each hit is kept only by the model whose center is nearest to
    it; then a simple point within ``MERGE_WINDOW`` of a kept double point
    at its level is dropped as one of that double point's edges.  The edges
    may be kept by a different model than the critical point, so this runs
    after ownership.  The double-point rule runs only when ``levels`` is
    non-empty, since a critical-only scan could keep none of its hits.
    """
    grid = np.asarray(grid, dtype=float)
    d = np.real(np.asarray(f_batch(grid.astype(complex))))
    cands = _candidate_centers(grid, d, levels, want_critical)
    if not cands:
        return []
    centers = _thin_centers(cands, 0.35 * TRUST)
    models = build_models(f_batch, centers, TRUST)

    hits: list[tuple[int, LocatedRoot]] = []  # (model index, root)
    for mi, model in enumerate(models):
        x0 = np.real(model.center)
        crit = model.critical_roots()
        if want_critical:
            for w in np.real(crit[np.abs(np.imag(crit)) <= IMAG_TOL]):
                hits.append((mi, LocatedRoot(float(x0 + w), math.nan, 1)))
        if levels:
            for w in np.real(crit[np.abs(np.imag(crit)) <= DOUBLE_IMAG_TOL]):
                lam = float(x0 + w)
                fc = model(lam)
                level = math.copysign(2.0, np.real(fc))
                if abs(fc**2 - 4.0) < DOUBLE_TOL and level in levels:
                    hits.append((mi, LocatedRoot(lam, level, 2)))
        for level in levels:
            roots = model.roots_at_level(level)
            for w in np.real(roots[np.abs(np.imag(roots)) <= IMAG_TOL]):
                hits.append((mi, LocatedRoot(float(x0 + w), level, 1)))

    # each hit is kept only by the model whose center is nearest to it
    owned = [r for mi, r in hits if np.argmin(np.abs(centers - r.value)) == mi]
    doubles = [r for r in owned if r.multiplicity == 2]

    def is_edge(r: LocatedRoot) -> bool:
        return r.multiplicity == 1 and any(
            dp.level == r.level and abs(dp.value - r.value) < MERGE_WINDOW for dp in doubles
        )

    return sorted((r for r in owned if not is_edge(r)), key=lambda r: r.value)


# ---------------------------------------------------------------------------
# Contour sums
# ---------------------------------------------------------------------------

# Trapezoid nodes on each contour circle.  The integrand has poles near the
# circle, so it needs more than a ring; evaluating models costs no RK4 work.
CONTOUR_NODES = 64


def contour_sum(
    models: list[DiskModel], g, kernel: str, radius: float
) -> tuple[float, list[float]]:
    """Sum of (1/2 pi i) * contour integrals of g times a logarithmic kernel.

    kernel 'critical' uses Delta''/Delta' (zeros of Delta'), 'plus' uses
    Delta'/(Delta - 2) and 'minus' uses Delta'/(Delta + 2).  Each circle is
    centered at its model's center with the given radius and integrated by
    the trapezoid rule on CONTOUR_NODES nodes.  The enclosed root count
    (the same integral with g = 1) must be within 0.1 of an integer or the
    placement is rejected.
    """
    if kernel not in ("critical", "plus", "minus"):
        raise ValueError("kernel must be 'critical', 'plus' or 'minus'")
    theta = 2.0 * np.pi * np.arange(CONTOUR_NODES) / CONTOUR_NODES
    phase = np.exp(1j * theta)
    weight = radius / CONTOUR_NODES
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
        count = weight * np.sum(ratio * phase)
        if abs(count - round(count.real)) > 0.1:
            raise ContourPlacementError(
                f"root count {count:.4f} at center {model.center:.6g} "
                "is not close to an integer; adjust the circles"
            )
        counts.append(float(count.real))
        gz = np.asarray(g(z), dtype=complex)
        total += weight * np.sum(gz * ratio * phase)
    return float(np.real(total)), counts
