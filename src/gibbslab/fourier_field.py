"""Truncated Fourier representation of periodic fields on the circle.

A field is stored by its complex coefficients c_n = a_n + i*b_n for
|n| <= M, meaning phi(x) = sum_n c_n exp(inx).  All integrals over the
circle use the normalized measure dx/2pi, so Parseval reads
int |phi|^2 dx/2pi = sum |c_n|^2.

Fields are immutable values and every operation here is a pure function,
safe to call concurrently.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PeriodicField",
    "GridTooSmallError",
    "zero_field",
    "field_from_modes",
    "is_real_valued",
    "default_grid_size",
    "evaluate",
    "taylor_samples",
    "l2_norm_sq",
    "sobolev_norm_sq",
    "sup_norm",
    "lp_integral",
    "cubic_integral",
    "hamiltonian",
    "kdv_hamiltonian",
    "field_to_json",
    "field_from_json",
    "result_to_json",
    "save_field",
    "load_field",
]


class GridTooSmallError(ValueError):
    """Raised when a sampling grid cannot resolve the requested cutoff."""


@dataclass(frozen=True, eq=False)
class PeriodicField:
    """Truncated periodic field phi(x) = sum_{|n|<=cutoff} c_n e^{inx}.

    ``coeffs`` has length 2*cutoff+1; entry j holds the coefficient of
    mode n = j - cutoff.  Coefficients outside |n| <= cutoff are zero by
    construction.
    """

    cutoff: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (2 * self.cutoff + 1,):
            raise ValueError(
                f"expected {2 * self.cutoff + 1} coefficients, got shape {c.shape}"
            )
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def modes(self) -> np.ndarray:
        return np.arange(-self.cutoff, self.cutoff + 1)

    def mode(self, n: int) -> complex:
        if abs(n) > self.cutoff:
            return 0.0 + 0.0j
        return complex(self.coeffs[n + self.cutoff])

    def with_cutoff(self, cutoff: int) -> "PeriodicField":
        """Re-embed into a larger (or truncate to a smaller) mode range."""
        c = np.zeros(2 * cutoff + 1, dtype=complex)
        lo = min(cutoff, self.cutoff)
        c[cutoff - lo : cutoff + lo + 1] = self.coeffs[
            self.cutoff - lo : self.cutoff + lo + 1
        ]
        return PeriodicField(cutoff, c)

    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(str(self.cutoff).encode())
        h.update(np.ascontiguousarray(self.coeffs).tobytes())
        return h.hexdigest()[:16]

    # small arithmetic helpers used by perturbation and probe code
    def __add__(self, other: "PeriodicField") -> "PeriodicField":
        m = max(self.cutoff, other.cutoff)
        return PeriodicField(m, self.with_cutoff(m).coeffs + other.with_cutoff(m).coeffs)

    def __sub__(self, other: "PeriodicField") -> "PeriodicField":
        m = max(self.cutoff, other.cutoff)
        return PeriodicField(m, self.with_cutoff(m).coeffs - other.with_cutoff(m).coeffs)

    def __mul__(self, scalar: complex) -> "PeriodicField":
        return PeriodicField(self.cutoff, self.coeffs * scalar)

    __rmul__ = __mul__


def zero_field(cutoff: int) -> PeriodicField:
    return PeriodicField(cutoff, np.zeros(2 * cutoff + 1, dtype=complex))


def field_from_modes(cutoff: int, modes: dict[int, complex]) -> PeriodicField:
    c = np.zeros(2 * cutoff + 1, dtype=complex)
    for n, v in modes.items():
        if abs(n) > cutoff:
            raise ValueError(f"mode {n} outside cutoff {cutoff}")
        c[n + cutoff] = v
    return PeriodicField(cutoff, c)


def is_real_valued(field: PeriodicField, tol: float = 1e-12) -> bool:
    """True iff a_{-n} = a_n and b_{-n} = -b_n, i.e. c_{-n} = conj(c_n)."""
    c = field.coeffs
    return bool(np.max(np.abs(c[::-1] - np.conj(c))) <= tol)


def default_grid_size(cutoff: int) -> int:
    """Quadrature grid: next power of two >= max(256, 8*(cutoff+1))."""
    g, target = 1, max(256, 8 * (cutoff + 1))
    while g < target:
        g *= 2
    return g


def evaluate(field: PeriodicField, grid_size: int) -> np.ndarray:
    """The field's complex samples on the uniform grid x_k = 2 pi k / grid_size.

    Requires grid_size > 2*cutoff + 1 so the modes are unaliased and the
    coefficient -> grid -> coefficient round trip is exact.
    """
    if grid_size <= 2 * field.cutoff + 1:
        raise GridTooSmallError(
            f"grid_size {grid_size} too small for cutoff {field.cutoff}"
        )
    spec = np.zeros(grid_size, dtype=complex)
    spec[field.modes % grid_size] = field.coeffs
    return np.fft.ifft(spec) * grid_size


def taylor_samples(field: PeriodicField, orders: int, points: int) -> np.ndarray:
    """Taylor coefficients phi^(j)(x_k) / j! at x_k = 2 pi k / points.

    Returns a complex (orders, points) array, j = 0..orders-1.  Every order
    comes from one inverse FFT of c_n (in)^j / j! on a grid of r * points
    nodes, r the least with r * points >= 2*cutoff + 1, so the samples are
    exact to rounding.
    """
    r = -(-(2 * field.cutoff + 1) // points)
    grid = r * points
    scaled = np.empty((orders, field.coeffs.size), dtype=complex)
    scaled[0] = field.coeffs
    for j in range(1, orders):
        scaled[j] = scaled[j - 1] * (1j * field.modes / j)
    spec = np.zeros((orders, grid), dtype=complex)
    spec[:, field.modes % grid] = scaled
    return (np.fft.ifft(spec, axis=1) * grid)[:, ::r]


def l2_norm_sq(field: PeriodicField) -> float:
    return float(np.sum(np.abs(field.coeffs) ** 2))


def sobolev_norm_sq(field: PeriodicField, gamma: float) -> float:
    """|phi_0|^2 + sum_{n != 0} |n|^{2 gamma} |phi_n|^2.

    The n = 0 term of the weighted sum is taken as zero for every gamma,
    and the zero mode enters only through the separate |phi_0|^2 term.
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    ns = field.modes
    w = np.zeros_like(ns, dtype=float)
    nz = ns != 0
    w[nz] = np.abs(ns[nz]) ** (2.0 * gamma)
    mag2 = np.abs(field.coeffs) ** 2
    return float(mag2[field.cutoff] + np.sum(w * mag2))


def sup_norm(field: PeriodicField) -> float:
    return float(np.max(np.abs(evaluate(field, default_grid_size(field.cutoff)))))


def lp_integral(field: PeriodicField, p: float, grid_size: int | None = None) -> float:
    """int |phi(x)|^p dx/2pi by uniform-grid quadrature.

    The trapezoid rule on a periodic integrand is spectrally accurate, and
    exact whenever |phi|^p is a trigonometric polynomial resolved by the
    grid (e.g. even integer p with grid_size > p*cutoff).
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    g = grid_size or default_grid_size(field.cutoff)
    vals = evaluate(field, g)
    return float(np.mean(np.abs(vals) ** p))


def cubic_integral(field: PeriodicField, grid_size: int | None = None) -> float:
    """Signed integral int q(x)^3 dx/2pi for a real-valued field."""
    if not is_real_valued(field, tol=1e-10):
        raise ValueError("cubic_integral requires a real-valued field")
    g = grid_size or default_grid_size(field.cutoff)
    vals = np.real(evaluate(field, g))
    return float(np.mean(vals**3))


def kinetic_energy(field: PeriodicField) -> float:
    """(1/2) sum n^2 |c_n|^2 = (1/2) int |phi'|^2 dx/2pi."""
    ns = field.modes
    return float(0.5 * np.sum(ns.astype(float) ** 2 * np.abs(field.coeffs) ** 2))


def hamiltonian(field: PeriodicField, p: float, beta: float) -> float:
    """Kinetic term plus (beta/p) * int |phi|^p dx/2pi."""
    return kinetic_energy(field) + (beta / p) * lp_integral(field, p)


def kdv_hamiltonian(field: PeriodicField, beta: float) -> float:
    """(1/2) int (q')^2 dx/2pi - (beta/6) int q^3 dx/2pi for real q."""
    if not is_real_valued(field, tol=1e-10):
        raise ValueError("kdv_hamiltonian requires a real-valued field")
    return kinetic_energy(field) - (beta / 6.0) * cubic_integral(field)


# ---------------------------------------------------------------------------
# JSON wire format: {"cutoff": M, "coeffs": [[n, a, b], ...]} with n ascending.
# ---------------------------------------------------------------------------

def field_to_json(field: PeriodicField) -> dict:
    coeffs = [
        [int(n), float(c.real), float(c.imag)]
        for n, c in zip(field.modes, field.coeffs)
    ]
    return {"cutoff": int(field.cutoff), "coeffs": coeffs}


def result_to_json(result) -> dict:
    """A result in JSON values: a dataclass is the dict of its fields.

    Applied recursively: tuples and arrays become lists, numpy scalars plain
    values, and fields declared with ``metadata={"wire": False}`` are left
    out.  Every result dataclass reaches its file through here.
    """
    return _wire(result)


_PLAIN = frozenset({str, int, float, bool, type(None)})


def _wire(obj):
    # private, so bench/tracer.py, which wraps the public functions, sees one call per result
    if type(obj) in _PLAIN:
        return obj
    if isinstance(obj, (list, tuple)):
        return [_wire(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _wire(v) for k, v in obj.items()}
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    # anything else must be a dataclass: fields() raises TypeError otherwise
    return {
        f.name: _wire(getattr(obj, f.name))
        for f in dataclasses.fields(obj)
        if f.metadata.get("wire", True)
    }


def field_from_json(obj: dict) -> PeriodicField:
    if not isinstance(obj, dict) or not {"cutoff", "coeffs"} <= obj.keys():
        raise ValueError("a field must be an object with keys 'cutoff' and 'coeffs'")
    cutoff = int(obj["cutoff"])
    c = np.zeros(2 * cutoff + 1, dtype=complex)
    prev = None
    for n, a, b in obj["coeffs"]:
        n = int(n)
        if prev is not None and n <= prev:
            raise ValueError("coefficient modes must be strictly ascending")
        prev = n
        if abs(n) > cutoff:
            raise ValueError(f"mode {n} outside cutoff {cutoff}")
        c[n + cutoff] = a + 1j * b
    return PeriodicField(cutoff, c)


def save_field(field: PeriodicField, path) -> None:
    with open(path, "w") as fh:
        json.dump(field_to_json(field), fh, sort_keys=True)
        fh.write("\n")


def load_field(path) -> PeriodicField:
    with open(path) as fh:
        return field_from_json(json.load(fh))
