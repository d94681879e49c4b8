"""Shared machinery for periodic 2x2 spectral problems.

Four layers, all pure functions over immutable inputs:

* a fixed-step order-8 Taylor propagator (TAYLOR_ORDER) for the
  trace-free system Psi' = (B(x) + lambda C) Psi with real B and C,
  vectorized over a batch of spectral parameters and over a block of
  members (fields), whose step polynomials lie side by side along the
  step axis, each member with its own row of lambda.  A real lambda runs
  in real arithmetic, since Psi is then real.  The Dirac and
  Hill modules supply only B's Taylor coefficients at the step starts,
  exact from the field's Fourier modes, and the constant C.  On a linear
  system a Taylor step is Psi -> Psi + Q_n(lambda) Psi with Q_n a matrix
  polynomial of degree at most 8 (4 for Hill, whose C^2 = 0), so the
  Taylor recursion runs once per field on polynomials (step_polynomials,
  real coefficients), and each step of the lambda loop is one real matrix
  product of Q_n's coefficients with the powers of lambda plus four array
  operations into buffers made once per call.  The loop costs about the
  same whatever the degree, so the order of the step is almost free: an
  order-8 step reaches below the error of RK4 with a fourth to an eighth
  of the steps.  A small batch also fills the arrays along x: segments of
  the period run side by side and are multiplied in a pairwise tree that
  stops at each member's boundary, so the step loop's fixed cost per array
  operation is paid over fewer steps (segments of at least
  MIN_SEGMENT_STEPS steps);
* local analytic "disk models": Taylor expansions of an entire function
  (the discriminant) recovered from samples on a circle, giving cheap and
  spectrally accurate access to values, derivatives and roots near the
  center.  A set of models is one complex array, a row of coefficients
  per center.  The discriminant is entire of exponential type pi (Dirac)
  or of lower growth (Hill), so the circle's node count follows from the
  growth bound (pi r)^n / n! <= 1e-16 (see build_models).  It is real on
  the real axis, Delta(conj z) = conj Delta(z), and the centers are real,
  so only the upper half of each circle is evaluated;
* a window scan for the real zeros of the discriminant's derivative (the
  critical points): a model at each discrete extremum of a grid, and one
  batched Newton solve of their derivative rows, each root checked to lie
  between its extremum's grid neighbours; a block of members runs the
  grid, the models and the solve once for the block, and checks each
  member alone;
* periodic spectra by Hill's method: eigenvalues of the operator's
  Fourier mode matrices, each with a truncation bound.  The matrices are
  real symmetric: both operators commute with an antiunitary R conj, R the
  mode reversal, which makes V^H H V real for a unitary V that keeps the
  truncation's inner modes apart from the outer ones.  A block of members
  is grouped by truncation width, and each series of a group is one
  stacked ``eigh`` call.

Contour sums for linear statistics are evaluated on the models, every
circle at once as one product of the coefficient rows with a table of the
powers of the circle's nodes, so the integrand stays an analytic object and
the calculus-of-residues identities hold to model accuracy.

A function ending in ``_block`` takes a block of members and returns, for
each, its result or the numerical failure (NUMERICAL_FAILURES) that failed
that member alone; the one-member function is its block of one
(one_member), so a field alone and a field in a block take one path.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "TAYLOR_ORDER",
    "step_polynomials",
    "rk4_transfer",
    "transfer_discriminant",
    "pad_members",
    "one_member",
    "member_result",
    "check_finite",
    "build_models",
    "locate_spectral_points",
    "locate_spectral_points_block",
    "mode_coefficients",
    "mode_spectrum",
    "check_residuals",
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

# What a non-finite transfer matrix reports
OVERFLOW = "transfer matrix overflowed; spectral parameter too large for the step budget"


# ---------------------------------------------------------------------------
# Batched transfer matrices
# ---------------------------------------------------------------------------

# Most lanes (segments x spectral parameters) a small batch is spread over.
# Below this size each array operation costs mostly its fixed Python overhead,
# so filling the lanes along x is almost free; above it that overhead no
# longer dominates.
SEGMENT_LANES = 4096

# Fewest steps a segment is cut to.  Shorter segments make the per-call
# arrays (and the pairwise tree) larger for no saving in the step loop: at
# 128 steps a batch of 64 spread over 64 two-step segments took 258-366
# page faults per call; 16 steps per segment was the fastest of 1 to 64.
MIN_SEGMENT_STEPS = 16


def _segment_count(steps: int, batch: int) -> int:
    """Largest power of two k dividing ``steps`` with k * batch <= SEGMENT_LANES
    and steps / k >= MIN_SEGMENT_STEPS (k = 1 when steps itself is shorter)."""
    k = 1
    while (
        steps % (2 * k) == 0
        and 2 * k * batch <= SEGMENT_LANES
        and steps // (2 * k) >= MIN_SEGMENT_STEPS
    ):
        k *= 2
    return k


# Order of the Taylor step: the step error is O(h^(TAYLOR_ORDER + 1)).
TAYLOR_ORDER = 8

# Steps of a degree-4 (Hill) polynomial build done at once; a build of
# degree deg takes STEP_BLOCK * 5 // (deg + 1) (568 for Dirac), so that a
# block's Taylor coefficients stay about 1.4 MiB whatever the step budget,
# within a core's 2 MiB L2 cache on the reference machine: a block of 14
# Dirac members (1,792 steps) took 2.9 ms in blocks of 512 or 640 steps
# against 4.9 ms in blocks of 1,024 (2.7 MiB).
STEP_BLOCK = 1024


def _mat_prod(x, y):
    """2x2 matrix products x @ y over the first two axes, broadcast over the rest."""
    return x[:, 0, None] * y[None, 0] + x[:, 1, None] * y[None, 1]


def step_polynomials(b_taylor, c, length: float, steps: int) -> np.ndarray:
    """Order-TAYLOR_ORDER Taylor steps of Psi' = (B(x) + lam C) Psi as polynomials in lam.

    ``b_taylor`` holds the four entries (b11, b12, b21, b22) of B, each a
    (TAYLOR_ORDER, steps) array whose [j, n] entry is B^(j)(x_n) / j! at
    the step start x_n = n * length / steps; ``c`` holds the four constant
    entries of C.  With h = length / steps and b_j = B^(j)(x_n) / j!, the
    Taylor coefficients phi_k of Psi(x_n + h) Psi(x_n)^-1, scaled by h^k,
    follow from phi_0 = I and

        (k + 1) phi_{k+1} = sum_{j <= k} h^(j+1) b_j phi_{k-j} + h lam C phi_k,

    and step n is Psi -> Psi + Q_n(lam) Psi with Q_n = phi_1 + ... + phi_K,
    K = TAYLOR_ORDER.  phi_k is a matrix polynomial in lam of degree at most
    k, or (k + 1) // 2 when C^2 = 0 (two factors C need a factor of B
    between them); each recursion step is one contraction over j and the
    inner matrix index, cut to those degrees, for a block of steps at once
    (STEP_BLOCK, scaled down for degree 8).

    Returns a (deg + 1, 4, steps) array: [m, :, n] holds the entries (11,
    12, 21, 22) of the coefficient of lam^m in Q_n, with deg the degree
    bound of phi_K: 8 for Dirac and 4 for Hill.  B and C must be real (both
    front ends' are), so the coefficients are real; a complex B or C raises
    ValueError.
    """
    b_taylor = [np.asarray(b) for b in b_taylor]
    if any(b.shape != (TAYLOR_ORDER, steps) for b in b_taylor):
        raise ValueError("each entry of B needs TAYLOR_ORDER rows of steps samples")
    if any(np.iscomplexobj(v) for v in (*b_taylor, *c)):
        raise ValueError("B and C must be real")
    h = length / steps
    order = TAYLOR_ORDER
    # h^(j+1) b_j as (2, 2, order, steps)
    hb = np.array(b_taylor, dtype=float).reshape(2, 2, order, steps)
    hb *= (h ** np.arange(1, order + 1))[:, None]
    hc = h * np.array(c, dtype=float).reshape(2, 2)
    nilpotent = not (hc @ hc).any()
    deg = [(k + 1) // 2 if nilpotent else k for k in range(order + 1)]
    c_entries = [(r, t, hc[r, t]) for r in range(2) for t in range(2) if hc[r, t] != 0.0]
    out = np.empty((deg[order] + 1, 4, steps))
    block = max(1, STEP_BLOCK * 5 // (deg[order] + 1))
    for s in range(0, steps, block):
        e = min(s + block, steps)
        # phi_k of the block's steps in phi[k] as (degree, row, column,
        # step), zero past deg[k]
        phi = np.zeros((order + 1, deg[order] + 1, 2, 2, e - s))
        phi[0, 0, 0, 0] = phi[0, 0, 1, 1] = 1.0
        for k in range(order):
            low, top = deg[k] + 1, deg[k + 1] + 1
            nxt = phi[k + 1]
            np.einsum(
                "rtjn,jmtsn->mrsn", hb[:, :, : k + 1, s:e], phi[k::-1, :low], out=nxt[:low]
            )
            # lam C phi_k raises the degree by one; past top it vanishes (C^2 = 0)
            for r, t, v in c_entries:
                nxt[1:top, r] += v * phi[k, : top - 1, t]
            nxt[:top] *= 1.0 / (k + 1)
        out[..., s:e] = phi[1:].sum(axis=0).reshape(deg[order] + 1, 4, e - s)
    return out


def rk4_transfer(step_poly: np.ndarray, steps: int, lam: np.ndarray):
    """Transfer matrices Psi(length) of Psi' = (B(x) + lam C) Psi, Psi(0) = I, of a block.

    ``step_poly`` is :func:`step_polynomials` of B members' systems, each
    over ``steps`` steps, concatenated along the step axis (the build of
    their concatenated Taylor samples, with length and steps B times a
    member's), so B = step_poly.shape[2] // steps.  ``lam`` holds one row
    of spectral parameters per member, shape (B, L); one member's may have
    any shape.  Returns four arrays shaped like ``lam`` holding the entries
    of Psi(length).

    Each step forms Q(lam) = sum_m lam^m Q^(m) for every lane as one real
    matrix product per member, of its coefficients, rows in (entry,
    segment) order, with the powers of its lam, computed once per call.  A
    complex lam enters as interleaved real and imaginary parts; a real lam
    runs in real arithmetic, since B and C are real and so is Psi.
    Psi + Q(lam) Psi is applied in four array operations over the whole
    block.  Adding Psi last keeps the rounding of a staged loop; a product
    with I + Q would lose the low bits of the increment.

    The loop applies any one-step method that is a polynomial in lam; the
    steps are Taylor steps (step_polynomials), and tests drive it with RK4
    steps too.  It keeps the name it had when the steps were RK4 steps
    because the benchmark's tracer reads this function, and its ``steps``
    and ``lam`` arguments, by name; lam.size is then the call's lanes.

    A small batch is spread along x: each member's [0, length] is split
    into k equal segments (k the largest power of two dividing ``steps``
    with k * lam.size <= SEGMENT_LANES and at least MIN_SEGMENT_STEPS steps
    per segment), every segment is propagated from the identity at once on
    (2, 2, B, k, L) arrays, and each member's k segment matrices are
    multiplied in log2(k) pairwise levels, later segment on the left, the
    tree stopping at the member's boundary.  The steps are the same as for
    k = 1, so results agree with the unsegmented loop to rounding.

    A member with a non-finite lane keeps its lanes as computed, for the
    caller to fail that member alone; when every member of the block has
    one, FloatingPointError.
    """
    if steps < 64:
        raise ValueError("steps must be >= 64")
    step_poly = np.asarray(step_poly)
    if step_poly.ndim != 3 or step_poly.shape[1] != 4 or step_poly.shape[2] % steps:
        raise ValueError("step polynomials must have shape (deg + 1, 4, steps * members)")
    members = step_poly.shape[2] // steps
    lam = np.asarray(lam)
    if members > 1 and (lam.ndim != 2 or lam.shape[0] != members):
        raise ValueError(f"a block of {members} members needs lam of shape ({members}, L)")
    dtype = complex if np.iscomplexobj(lam) else float
    shape = lam.shape
    lam = lam.astype(dtype, copy=False).reshape(members, -1)
    width = lam.shape[1]
    k = _segment_count(steps, lam.size)
    seg = steps // k
    deg = step_poly.shape[0] - 1
    # the coefficients of step j of every segment as a (B, 4 * k, deg + 1)
    # array, rows in (entry, segment) order, and lam^m in row m of each
    # member's powers
    cols = np.ascontiguousarray(
        step_poly.reshape(deg + 1, 4, members, k, seg).transpose(4, 2, 1, 3, 0)
    ).reshape(seg, members, 4 * k, deg + 1)
    powers = np.empty((members, deg + 1, width), dtype=dtype)
    powers[:, 0] = 1.0
    rhs = powers.view(float)
    lanes = (2, 2, members, k, width)
    psi = np.zeros(lanes, dtype=dtype)
    psi[0, 0] = psi[1, 1] = 1.0
    # the step loop writes into buffers made once: a fresh temporary of this
    # size per operation costs page faults that outweigh the arithmetic
    q_out = np.empty((members, 4 * k, rhs.shape[-1]))
    q = q_out.view(dtype).reshape(members, 2, 2, k, width).transpose(1, 2, 0, 3, 4)
    dpsi, term = np.empty(lanes, dtype=dtype), np.empty(lanes, dtype=dtype)
    # an overflow is reported by member, below
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, deg + 1):
            powers[:, m] = powers[:, m - 1] * lam
        for col in cols:
            np.matmul(col, rhs, out=q_out)
            # psi + Q psi, with the product summed before psi is added
            np.multiply(q[:, 0, None], psi[None, 0], out=dpsi)
            np.multiply(q[:, 1, None], psi[None, 1], out=term)
            dpsi += term
            psi += dpsi
        while psi.shape[3] > 1:
            psi = _mat_prod(psi[:, :, :, 1::2], psi[:, :, :, 0::2])
    if not np.isfinite(psi).all(axis=(0, 1, 3, 4)).any():
        raise FloatingPointError(OVERFLOW)
    return tuple(p.reshape(shape) for p in psi.reshape(4, -1))


def transfer_discriminant(b_taylor, c, length: float, steps: int):
    """Closure evaluating Delta = trace Psi_lambda(length) of a block of members.

    ``b_taylor`` holds each member's Taylor samples of B, as
    :func:`step_polynomials` takes them; ``c``, ``length`` and ``steps``
    are shared.  The step polynomials of the whole block are built once,
    here, from the samples concatenated along the step axis (length and
    steps B times a member's), and shared by every call; the closure takes
    lambda as :func:`rk4_transfer` does, a row per member of a block.
    """
    members = len(b_taylor)
    joined = [np.concatenate(entry, axis=1) for entry in zip(*b_taylor)]
    step_poly = step_polynomials(joined, c, length * members, steps * members)

    def disc(lams):
        m = rk4_transfer(step_poly, steps, lams)
        # a failed member's non-finite lanes may sum to nan
        with np.errstate(invalid="ignore"):
            return m[0] + m[3]

    return disc


def pad_members(rows) -> np.ndarray | None:
    """Ragged member rows as one (B, P) array, P the longest row's length.

    Each row repeats its last value up to P; a member without values
    (None or an empty row) takes the first row that has some.  None when
    no member has a value.
    """
    fill = next((r for r in rows if r is not None and len(r)), None)
    if fill is None:
        return None
    rows = [fill if r is None or not len(r) else r for r in rows]
    lengths = np.array([len(r) for r in rows])
    starts = np.cumsum(lengths) - lengths
    last = np.minimum(np.arange(lengths.max()), lengths[:, None] - 1)
    return np.concatenate(rows)[starts[:, None] + last]


def one_member(results: list):
    """The result of a block of one member, or the failure it holds raised."""
    (result,) = results
    if isinstance(result, BaseException):
        raise result
    return result


def member_result(fn, *args):
    """``fn(*args)``, or the NUMERICAL_FAILURES exception it raised: one member's
    result in a block, whose failure fails that member alone."""
    try:
        return fn(*args)
    except NUMERICAL_FAILURES as exc:
        return exc


def check_finite(values) -> None:
    """FloatingPointError(OVERFLOW) unless every one of ``values`` (one member's) is finite."""
    if not np.isfinite(values).all():
        raise FloatingPointError(OVERFLOW)


# ---------------------------------------------------------------------------
# Disk models
# ---------------------------------------------------------------------------

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


def build_models(f_batch, centers: np.ndarray, trust: float) -> np.ndarray:
    """Fit disk models at the given centers with one batched evaluation.

    Returns the models as one complex array of shape centers.shape + (n,):
    row i holds the Taylor coefficients of f(centers[i] + w) = sum_k
    coefs[i, k] w^k, trusted for |w| <= trust.  Centers of shape (B, P)
    are those of a block of B members: ``f_batch`` (a block's
    :func:`transfer_discriminant` closure) then gets one row of points per
    member.

    ``f_batch`` maps an array of complex points to function values and must
    be entire of exponential type at most pi, so that its Taylor
    coefficients on a circle of radius r fall like (pi r)^k / k!.  Each
    circle has radius r = 2 * trust and the least multiple of 8 nodes n
    with (pi r)^n / n! <= 1e-16, so the trapezoid rule recovers every
    coefficient kept (one per node) to 1e-16 of the function's size on the
    circle; the coefficients follow from one FFT per circle.  Hill's
    discriminant, 2 cos(pi sqrt(lambda)) in the free case, is of order 1/2
    in lambda: its high coefficients fall faster than those of type pi, so
    the rule holds for it too.

    ``f_batch`` must also satisfy f(conj z) = conj f(z), as every
    :func:`transfer_discriminant` closure does (B and C are real), and the
    centers must be real (ValueError otherwise): each circle is its own
    mirror image, so ``f_batch`` sees only the nodes 0 .. n/2 of the upper
    half, and node n - j takes the conjugate of node j's value.
    """
    if np.any(np.imag(centers) != 0.0):
        raise ValueError("disk model centers must be real")
    centers = np.real(centers)
    radius = 2.0 * trust
    nodes = _ring_nodes(radius)
    half = nodes // 2
    theta = 2.0 * np.pi * np.arange(half + 1) / nodes
    ring = radius * np.exp(1j * theta)
    pts = (centers[..., None] + ring).reshape(*centers.shape[:-1], -1)
    upper = np.asarray(f_batch(pts), dtype=complex).reshape(*centers.shape, half + 1)
    vals = np.concatenate([upper, upper[..., half - 1 : 0 : -1].conj()], axis=-1)
    # r^-k underflows quietly to 0 where r^k would overflow on a wide
    # circle; a failed member's non-finite values give non-finite rows
    with np.errstate(invalid="ignore"):
        return np.fft.fft(vals, axis=-1) * (radius ** -np.arange(nodes) / nodes)


# ---------------------------------------------------------------------------
# Critical points on a real window
# ---------------------------------------------------------------------------

# Disk models of the discriminant are trusted within TRUST of their centers.
# Newton steps of the critical-point solve, and the size of the last step
# that counts as converged.
TRUST = 0.25
NEWTON_STEPS = 10
NEWTON_TOL = 1e-13


def locate_spectral_points(f_batch, grid: np.ndarray) -> np.ndarray:
    """Real zeros of f' on a window, one for each discrete extremum of f on the grid.

    Each zero must be simple and lie between the grid neighbours of its
    extremum x_i, alone there, as the critical points of the Dirac
    discriminant do (one in each gap; Grebert & Kappeler, The Defocusing
    NLS Equation and Its Normal Form, EMS 2014).  A disk model is centered
    at every x_i and the f' rows of all models are solved at once by
    NEWTON_STEPS Newton steps from w = 0.  A root that is not finite, whose
    last step exceeds NEWTON_TOL or that lies outside (x_{i-1}, x_{i+1}),
    or two extrema that resolve to one root, raise FloatingPointError.
    Returns the zeros sorted.  This is :func:`locate_spectral_points_block`
    on a block of one member.
    """
    return one_member(locate_spectral_points_block(f_batch, np.asarray(grid)[None]))


def locate_spectral_points_block(f_batch, grids: np.ndarray) -> list:
    """:func:`locate_spectral_points` for each member of a block.

    ``f_batch`` is the :func:`transfer_discriminant` closure of a block of
    members, or any function of one, and ``grids`` holds each member's
    grid as a row.  The grids are one call for the block, the scan models
    one :func:`build_models` call at every member's extrema (padded by
    :func:`pad_members`) and the Newton solve one over all their rows; each
    member's roots are then checked alone.  Returns, for each member, its
    zeros sorted or the FloatingPointError that failed it.
    """
    grids = np.asarray(grids, dtype=float)
    d = np.real(np.asarray(f_batch(grids)))
    ext = [member_result(_grid_extrema, row) for row in d]
    live = [i for i, e in enumerate(ext) if isinstance(e, np.ndarray) and e.size]
    results = [e if isinstance(e, BaseException) else np.empty(0) for e in ext]
    if not live:
        return results
    centers = pad_members([grids[i, e] if i in live else None for i, e in enumerate(ext)])
    models = build_models(f_batch, centers, TRUST)
    coefs = models.real
    k = np.arange(1, coefs.shape[-1])
    deriv = coefs[..., 1:] * k  # f'
    second = deriv[..., 1:] * k[:-1]  # f''
    w = np.zeros(centers.shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(NEWTON_STEPS):
            powers = np.vander(w.ravel(), k.size, increasing=True).reshape(*w.shape, k.size)
            step = np.einsum("...j,...j->...", deriv, powers) / np.einsum(
                "...j,...j->...", second, powers[..., :-1]
            )
            w = w - step
    points = centers + w
    for i in live:
        n = ext[i].size
        results[i] = member_result(
            _checked_zeros, grids[i], ext[i], points[i, :n], step[i, :n], models[i, :n]
        )
    return results


def _grid_extrema(row: np.ndarray) -> np.ndarray:
    """Indices of the discrete extrema of one member's grid samples, or FloatingPointError."""
    check_finite(row)
    slope = np.diff(row)
    return np.flatnonzero(slope[:-1] * slope[1:] < 0) + 1


def _checked_zeros(grid, ext, points, step, models) -> np.ndarray:
    """The Newton roots of one member's extrema, sorted, or FloatingPointError."""
    check_finite(models)
    centers = grid[ext]
    # a nan fails every comparison
    ok = (np.abs(step) <= NEWTON_TOL) & (grid[ext - 1] < points) & (points < grid[ext + 1])
    if not ok.all():
        raise FloatingPointError(
            f"no converged zero of f' between the grid neighbours of the extremum at "
            f"{centers[np.argmin(ok)]:.8f}"
        )
    order = np.argsort(points)
    # two models agree on a root to far below 1e3 NEWTON_TOL
    same = np.flatnonzero(np.diff(points[order]) <= 1e3 * NEWTON_TOL)
    if same.size:
        i, j = np.sort(centers[order[same[0] : same[0] + 2]])
        raise FloatingPointError(f"the extrema at {i:.8f} and {j:.8f} resolve to one zero")
    return points[order]


# ---------------------------------------------------------------------------
# Periodic spectra from Fourier mode matrices
# ---------------------------------------------------------------------------

# mode_spectrum's first frequency cutoff lies START_BANDS coupling bandwidths
# past the window's edge; each further pass, MAX_PASSES in all, adds one
START_BANDS = 3
MAX_PASSES = 8
# eigh is exact for a perturbation of about this times the matrix norm
EIGH_ROUNDING = 4.0 * np.finfo(float).eps


def mode_coefficients(coeffs: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The Fourier coefficients c_k of a stack of fields, zero past the cutoff.

    ``coeffs`` holds one field per row, each as ``PeriodicField.coeffs``
    (modes -m .. m); ``k`` is an integer array.  Returns an array of shape
    coeffs.shape[:-1] + k.shape, with the dtype of ``coeffs``.
    """
    m = (coeffs.shape[-1] - 1) // 2
    zero = np.zeros((*coeffs.shape[:-1], 1), dtype=coeffs.dtype)
    return np.concatenate([coeffs, zero], axis=-1)[..., np.where(np.abs(k) <= m, k + m, -1)]


def _kato_temple(r2: np.ndarray, gap: np.ndarray) -> np.ndarray:
    r = np.sqrt(r2)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(gap > r, r2 / (gap - r), np.inf)


def _truncation_bounds(theta: np.ndarray, v: np.ndarray, coupling: np.ndarray) -> np.ndarray:
    """For each eigenpair (theta, v) of H[in, in], a distance to an eigenvalue of H.

    With ``coupling`` = H[out, in], r = ||H[out, in] v|| is the residual of
    the zero-padded v in H, so an eigenvalue lies within r of theta (Parlett,
    The Symmetric Eigenvalue Problem, Thm 4.5.1) and within r^2 / (gap - r),
    gap the distance to the rest of theta (Kato-Temple).  As the edges of a
    narrow gap are close, the same holds for each eigenvalue and its nearer
    neighbour as a pair, r^2 the sum of theirs; the least bound is taken.
    Works on stacks: theta (g, k), v (g, k, k) and coupling (g, o, k).
    """
    y = coupling @ v
    r2 = np.einsum("...ij,...ij->...j", y, y)
    n = theta.shape[-1]
    inf = np.full((*theta.shape[:-1], 1), np.inf)
    pad = np.concatenate([-inf, theta, inf], axis=-1)
    below, above = theta - pad[..., :-2], pad[..., 2:] - theta
    i = np.arange(n)
    j = np.where(below <= above, i - 1, i + 1).clip(0, n - 1)
    lo, hi = np.minimum(i, j), np.maximum(i, j)

    def at(a, idx):
        return np.take_along_axis(a, idx, axis=-1)

    gap = np.minimum(at(theta, lo) - at(pad, lo), at(pad, hi + 2) - at(theta, hi))
    pair = _kato_temple(r2 + at(r2, j), gap)
    return np.minimum(np.sqrt(r2), np.minimum(_kato_temple(r2, np.minimum(below, above)), pair))


def mode_spectrum(matrix, spacing: float, bandwidths, edges, window, tol: float) -> list:
    """Periodic and antiperiodic eigenvalues in ``window`` by Hill's method, for a block.

    Member i couples modes e^(iwx) at most ``bandwidths[i]`` apart, and its
    diagonal reaches the window's edge at |w| = ``edges[i]`` (Deconinck &
    Kutz, J. Comput. Phys. 219 (2006) 296-321; Curtis & Deconinck, Math.
    Comp. 79 (2010) 169-187).  Its periodic (antiperiodic) series is solved
    on w = spacing * j (j + 1/2), |w| <= W, with W growing by a bandwidth
    until every truncation bound in the window, from the modes
    W < |w| <= W + bandwidth, is at most ``tol``.

    The matrices are real: both operators served (Dirac, Hill) commute with
    an antiunitary T = R conj, R the mode reversal w -> -w (for Dirac with
    the two components swapped), so with the unitary V = ((1 + i) I +
    (1 - i) R) / 2, V^H H V = Re H + Im H R is real symmetric with H's
    spectrum; as R maps |w| <= W onto itself, V keeps the inner modes apart
    from the outer ones and the truncation bounds are H's.
    ``matrix(freqs, members)`` returns that form for the listed members
    (indices into the block) on the modes w in ``freqs``, a real (g, n, n)
    stack (a complex one raises ValueError), and each row's w.

    Members are grouped by their own (W, bandwidth), so each gets exactly
    the matrices it would get alone, and each series of a group is one
    ``eigh`` call per pass.  Returns, for each member, (values,
    antiperiodic, bounds) sorted by value, or FloatingPointError when a
    bound is still above ``tol`` after MAX_PASSES passes.
    """
    steps = [max(b, 1) for b in bandwidths]
    widths = [math.ceil(e) + START_BANDS * s for e, s in zip(edges, steps)]
    results: list = [None] * len(widths)
    live = range(len(widths))
    for _ in range(MAX_PASSES):
        groups: dict = {}
        for i in live:
            groups.setdefault((widths[i], bandwidths[i]), []).append(i)
        found: dict = {i: [] for i in live}
        for anti in (False, True):
            for (width, band), members in groups.items():
                n = math.ceil((width + band) / spacing)
                freqs = spacing * (np.arange(-n - 1, n + 1) + 0.5 * anti)
                h, rows = matrix(freqs[np.abs(freqs) <= width + band], members)
                if np.iscomplexobj(h):
                    raise ValueError("mode matrices must be real")
                inner = np.abs(rows) <= width
                theta, v = np.linalg.eigh(h[:, inner][:, :, inner])
                bounds = _truncation_bounds(theta, v, h[:, ~inner][:, :, inner])
                floors = EIGH_ROUNDING * np.max(np.abs(theta), axis=-1)
                for i, t, b, floor in zip(members, theta, bounds, floors):
                    keep = (window[0] <= t) & (t <= window[1])
                    bound = np.maximum(b[keep], floor)
                    found[i].append((t[keep], np.full(bound.size, anti), bound))
        for i, parts in found.items():
            values, series, bounds = map(np.concatenate, zip(*parts))
            if np.any(bounds > tol):
                message = f"truncation bound {bounds.max():.2e} above {tol:.1e}"
                results[i] = FloatingPointError(message)
            else:
                order = np.argsort(values, kind="stable")
                results[i] = (values[order], series[order], bounds[order])
        live = [i for i in live if isinstance(results[i], FloatingPointError)]
        for i in live:
            widths[i] += steps[i]
    return results


def check_residuals(resid: np.ndarray, points, tol: float) -> np.ndarray:
    """``resid`` at ``points``, or FloatingPointError naming the first one above
    max(100 tol, 1e-6) and that bound."""
    bound = max(100.0 * tol, 1e-6)
    bad = np.flatnonzero(resid > bound)
    if bad.size:
        i = bad[0]
        raise FloatingPointError(
            f"residual {resid[i]:.2e} at {points[i]:.8f} above max(100 tol, 1e-6) = {bound:.1e}"
        )
    return resid


# ---------------------------------------------------------------------------
# Contour sums
# ---------------------------------------------------------------------------

# Trapezoid nodes on each contour circle.  The integrand has poles near the
# circle, so it needs more than a ring; evaluating models costs no
# transfer-matrix work.
CONTOUR_NODES = 64


def contour_sum(
    models: np.ndarray, centers, trust: float, g, kernel: str, radius: float
) -> tuple:
    """Sum of (1/2 pi i) * contour integrals of g times a logarithmic kernel.

    ``models`` are the :func:`build_models` rows at ``centers``, trusted
    within ``trust``.  kernel 'critical' uses Delta''/Delta' (zeros of
    Delta'), 'plus' uses Delta'/(Delta - 2) and 'minus' uses
    Delta'/(Delta + 2).  Each circle is centered at its model's center x
    with the given radius and integrated by the trapezoid rule on
    CONTOUR_NODES nodes z_j = x + w_j, w_j = radius e^(i theta_j).

    All circles are evaluated at once.  With f = sum_k c_k w^k the model
    ('plus', 'minus') or its derivative ('critical'), f(z_j) and
    w_j f'(z_j) = sum_k k c_k w_j^k are one product of the rows
    c_k radius^k and k c_k radius^k with the table e^(i k theta_j), exact
    for any number of coefficients, and the kernel times w_j is their ratio
    w_j f' / (f - level).  A circle's integral is the mean of g(z_j) times
    that ratio over its nodes.

    The enclosed root count (the same integral with g = 1) of every circle
    must be within 0.1 of an integer; the first circle in center order
    that fails raises ContourPlacementError.  Returns the real part of the
    sum and the circles' root counts.

    ``models`` of shape (B, C, n), with (B, C) centers, are the circles of
    a block of B members: then each member's circles are summed and tested
    alone, and the result is a list with each member's sum or the
    ContourPlacementError that failed it, and the (B, C) root counts.
    """
    if kernel not in ("critical", "plus", "minus"):
        raise ValueError("kernel must be 'critical', 'plus' or 'minus'")
    if not 0.0 < radius <= trust:
        raise ValueError(f"contour radius {radius} is not in (0, trust = {trust}]")
    block = np.ndim(models) == 3
    models = np.asarray(models) if block else np.asarray(models)[None]
    centers = np.asarray(centers, dtype=complex).reshape(models.shape[:2])
    if kernel == "critical":
        base, level = models[..., 1:] * np.arange(1, models.shape[-1]), 0.0
    else:
        base, level = models, (2.0 if kernel == "plus" else -2.0)
    # columns past the last nonzero coefficient, which underflowed to 0 in
    # build_models on a wide ring, are dropped: radius^k may overflow there
    used = base.reshape(-1, base.shape[-1]).any(axis=0)
    base = base[..., : np.max(np.flatnonzero(used), initial=-1) + 1]
    k = np.arange(base.shape[-1])
    j = np.arange(CONTOUR_NODES)
    phase = np.exp(2j * np.pi * j / CONTOUR_NODES)
    # w_j^k / radius^k = e^(i k theta_j), the angle reduced exactly mod 2 pi
    table = phase[np.outer(k, j) % CONTOUR_NODES]
    scaled = base * radius**k
    # the kernel times w_j, one row per circle
    ratio = (scaled * k) @ table / (scaled @ table - level)
    counts = ratio.mean(axis=-1)
    z = centers[..., None] + radius * phase
    totals = np.real(np.sum(np.mean(np.asarray(g(z), dtype=complex) * ratio, axis=-1), axis=-1))
    sums = [
        member_result(_counted_sum, total, c, x) for total, c, x in zip(totals, counts, centers)
    ]
    if block:
        return sums, counts.real
    return one_member(sums), counts[0].real.tolist()


def _counted_sum(total: float, counts: np.ndarray, centers: np.ndarray) -> float:
    """One member's contour sum, or ContourPlacementError at its first circle whose
    root count is not within 0.1 of an integer."""
    # a nan count fails too
    bad = np.flatnonzero(~(np.abs(counts - np.round(counts.real)) <= 0.1))
    if bad.size:
        i = bad[0]
        raise ContourPlacementError(
            f"root count {counts[i]:.4f} at center {complex(centers[i]):.6g} "
            "is not close to an integer; adjust the circles"
        )
    return float(total)
