"""Tests of the benchmark's oracles against closed forms.

Run with ``python3 -m pytest bench/test_oracles.py``.  They import nothing
from gibbslab.
"""

import numpy as np
import pytest

import oracles


def field(cutoff: int, modes: dict[int, complex]) -> dict:
    return {
        "cutoff": cutoff,
        "coeffs": [[n, complex(modes.get(n, 0)).real, complex(modes.get(n, 0)).imag]
                   for n in range(-cutoff, cutoff + 1)],
    }


def random_field(cutoff: int, seed: int, real_even: bool = False) -> dict:
    rng = np.random.default_rng(seed)
    modes = {}
    for n in range(1, cutoff + 1):
        if real_even and n % 2:
            continue
        z = complex(rng.standard_normal(), rng.standard_normal()) / (2 * n)
        modes[n] = z
        modes[-n] = z.conjugate() if real_even else complex(rng.standard_normal(), rng.standard_normal()) / (2 * n)
    return field(cutoff, modes)


def test_free_dirac_spectrum_is_the_integers():
    per, anti = oracles.dirac_eigenvalues(field(4, {}), K=20)
    inner = lambda x: x[np.abs(x) < 10]  # noqa: E731
    # Delta = 2 cos(pi lam): +2 on the even integers, -2 on the odd ones, each twice
    assert np.allclose(inner(per), np.repeat(np.arange(-8, 9, 2), 2), atol=1e-12)
    assert np.allclose(inner(anti), np.repeat(np.arange(-9, 10, 2), 2), atol=1e-12)


def test_free_hill_spectrum():
    lam = oracles.hill_eigenvalues(field(4, {}), 100.0, K=16)
    want = [0.0] + [v for n in range(1, 11) for v in (n * n, n * n)]
    assert np.allclose(lam, want, atol=1e-12)
    # 4n^2 (periodic) and (2n-1)^2 (antiperiodic) each come twice
    assert np.allclose(oracles.hill_midpoints(lam, 10), np.arange(1, 11))


@pytest.mark.parametrize("antiperiodic", [False, True])
def test_operators_are_hermitian(antiperiodic):
    d = oracles.dirac_operator(random_field(6, 1), 12, antiperiodic)
    h = oracles.hill_operator(random_field(6, 2, real_even=True), 12, antiperiodic)
    assert np.allclose(d, d.conj().T, atol=0)
    assert np.allclose(h, h.conj().T, atol=0)


def test_constant_potential_shifts_hill_spectrum():
    lam = oracles.hill_eigenvalues(field(2, {0: 0.3}), 30.0, K=12)
    assert np.allclose(lam, 0.3 + np.array([0, 1, 1, 4, 4, 9, 9, 16, 16, 25, 25]), atol=1e-12)


def test_lp_integral_closed_form():
    # |a e^{ix} + b e^{-2ix}|^4 averages to a^4 + b^4 + 4 a^2 b^2
    a, b = 0.7, 0.4
    f = field(3, {1: a, -2: b})
    assert oracles.lp_integral(f, 4) == pytest.approx(a**4 + b**4 + 4 * a**2 * b**2, rel=1e-13)
    assert oracles.mass(f) == pytest.approx(a * a + b * b, rel=1e-15)
    assert oracles.nls_gibbs_weight(f, 4, -1.0) == pytest.approx(
        np.exp(0.25 * (a**4 + b**4 + 4 * a**2 * b**2)), rel=1e-13)


def test_cubic_integral_closed_form():
    # q = 2c cos 2x + 2d cos 4x: the mean of q^3 is 6 c^2 d, from the mode
    # triples (2, 2, -4) and (-2, -2, 4) in three orders each
    c, d = 0.3, 0.2
    f = field(4, {2: c, -2: c, 4: d, -4: d})
    assert oracles.cubic_integral(f) == pytest.approx(6 * c * c * d, rel=1e-13)
