import math

import numpy as np
import pytest

from gibbslab import dirac_spectrum as ds
from gibbslab.fourier_field import PeriodicField, field_from_modes, zero_field
from gibbslab.gibbs_sampler import importance_ensemble, GibbsParams
from conftest import picard_monodromy, random_field


def small_field(seed: int, cutoff: int = 3, scale: float = 0.05) -> PeriodicField:
    return random_field(cutoff, seed, scale=scale)


class TestMonodromy:
    def test_free_rotation(self):
        for lam in (0.0, 0.5, 1.0, -2.3):
            m = ds.monodromy(zero_field(1), lam)
            assert m.trace == pytest.approx(2 * math.cos(math.pi * lam), abs=1e-9)
            c, s = math.cos(math.pi * lam), math.sin(math.pi * lam)
            expect = np.array([[c, -s], [s, c]])
            assert np.abs(m.matrix - expect).max() < 1e-9

    def test_determinant_one(self):
        f = small_field(1, scale=0.4)
        for lam in (0.3, 1.7 + 0.8j, -2.0 - 0.5j):
            m = ds.monodromy(f, lam)
            assert abs(m.determinant - 1.0) < 1e-8

    def test_step_refinement(self):
        f = small_field(2, scale=0.2)
        lam = 1.3 + 0.4j
        m1 = ds.monodromy(f, lam, steps=2048).matrix
        m4 = ds.monodromy(f, lam, steps=8192).matrix
        assert np.abs(m1 - m4).max() < 1e-8

    def test_order_of_convergence(self):
        f = small_field(3, scale=0.2)
        lam = 2.1
        ref = ds.monodromy(f, lam, steps=4096).matrix
        e1 = np.abs(ds.monodromy(f, lam, steps=128).matrix - ref).max()
        e2 = np.abs(ds.monodromy(f, lam, steps=256).matrix - ref).max()
        assert e1 / e2 >= 8.0  # order >= 3 observed

    def test_picard_oracle(self):
        f = small_field(4, scale=0.3)
        lam = 0.7
        rk = ds.monodromy(f, lam, steps=2048).matrix
        pic = picard_monodromy(f, lam, grid=8192)
        assert np.abs(rk - pic).max() < 1e-6

    def test_reality_for_real_lambda(self):
        f = small_field(5, scale=0.8)
        lams = np.linspace(-3, 3, 11).astype(complex)
        vals = ds.discriminant_batch(f)(lams)
        assert np.abs(vals.imag).max() < 1e-9


class TestDiscriminant:
    def test_free_values(self):
        z = zero_field(1)
        assert ds.discriminant(z, 0.0) == pytest.approx(2.0, abs=1e-10)
        assert abs(ds.discriminant(z, 0.5)) < 1e-9

    def test_mean_value_property(self):
        # analyticity: the circle average reproduces the center value
        f = small_field(6, scale=0.4)
        lam = 0.9 + 0.2j
        theta = 2 * np.pi * np.arange(64) / 64
        ring = lam + 0.3 * np.exp(1j * theta)
        vals = ds.discriminant_batch(f)(ring)
        center = ds.discriminant(f, lam)
        assert abs(vals.mean() - center) < 1e-7

    def test_derivative_free_closed_form(self):
        z = zero_field(1)
        got = ds.discriminant_derivative(z, 0.5, order=1)
        assert got == pytest.approx(-2 * math.pi, abs=1e-8)

    def test_derivative_order_zero(self):
        f = small_field(7)
        assert ds.discriminant_derivative(f, 0.3, order=0) == pytest.approx(
            ds.discriminant(f, 0.3)
        )

    def test_derivative_fd_oracle(self):
        f = small_field(8, scale=0.3)
        lam, h = 1.1, 1e-5
        disc = ds.discriminant_batch(f)
        fd = (disc(np.array([lam + h]))[0] - disc(np.array([lam - h]))[0]) / (2 * h)
        got = ds.discriminant_derivative(f, lam, order=1)
        assert abs(got - fd) < 1e-6


class TestSpectralData:
    def test_free_periodic_points(self):
        data = ds.periodic_eigenvalues(zero_field(1), (-5.5, 5.5))
        values = [(p.value, p.series, p.multiplicity) for p in data.periodic_points]
        assert len(values) == 11
        for k, (v, series, mult) in enumerate(values):
            n = k - 5
            assert v == pytest.approx(n, abs=1e-7)
            assert mult == 2
            assert series == ("principal" if n % 2 == 0 else "complementary")

    def test_constant_potential_oracle(self):
        # constant phi = c: Delta = 2 cos(pi sqrt(lambda^2 - 4|c|^2)) with
        # doubly degenerate points at +-sqrt(n^2 + 4 |c|^2)
        c = 0.2
        f = field_from_modes(1, {0: c})
        data = ds.periodic_eigenvalues(f, (-3.5, 3.5))
        expect = sorted(
            s * math.sqrt(n * n + 4 * c * c) for n in (1, 2, 3) for s in (+1, -1)
        ) + [math.sqrt(4 * c * c)] + [-math.sqrt(4 * c * c)]
        got = sorted(p.value for p in data.periodic_points)
        assert np.abs(np.array(got) - np.array(sorted(expect))).max() < 1e-7

    def test_random_residuals(self):
        f = small_field(9)
        data = ds.periodic_eigenvalues(f, (-3.5, 3.5))
        assert data.periodic_points
        for p in data.periodic_points:
            assert p.residual < 1e-6

    def test_free_critical_points(self):
        data = ds.critical_points(zero_field(1), (-3.5, 3.5))
        assert np.abs(np.array(data.critical_points) - np.arange(-3, 4)).max() < 1e-8

    def test_critical_residuals_and_interlacing(self):
        f = small_field(10)
        crit = ds.critical_points(f, (-3.5, 3.5))
        for v in crit.critical_points:
            assert abs(ds.discriminant_derivative(f, v, 1)) < 1e-6
        per = ds.periodic_eigenvalues(f, (-3.5, 3.5))
        pv = per.periodic_values(with_multiplicity=False)
        # each critical point sits inside the matching eigenvalue cluster
        for v in crit.critical_points:
            assert np.min(np.abs(pv - v)) < 0.5

    def test_two_sided_slice(self):
        pts = np.arange(-4, 5) + 0.01
        sel = ds.two_sided_slice(pts, 2)
        assert np.allclose(sel, np.arange(-2, 3) + 0.01)
        with pytest.raises(ds.InsufficientPointsError):
            ds.two_sided_slice(np.array([0.0, 1.0]), 2)


class TestTestFunctions:
    def test_builtins_validate(self):
        for g in (ds.lorentzian(3.0), ds.cos_gauss(1.0), ds.poly_lorentzian(3.0)):
            g.validate()

    def test_symmetry_violation_detected(self):
        bad = ds.TestFunction(lambda z: 1j * np.asarray(z), 1.0, "bad")
        with pytest.raises(ValueError):
            bad.validate()

    def test_parser(self):
        g = ds.parse_test_function("builtin:lorentzian:c=3")
        assert g(0.0) == pytest.approx(1.0 / 9.0)
        with pytest.raises(ValueError):
            ds.parse_test_function("builtin:unknown")


class TestLinearStatistics:
    def test_direct_free_lorentzian(self):
        g = ds.lorentzian(3.0)
        pts = np.arange(-5, 6).astype(float)
        val = ds.linear_statistic_direct(pts, g, 1)
        assert val == pytest.approx(1.0 / 9.0 + 2.0 / 10.0, abs=1e-12)

    def test_direct_constant(self):
        g = ds.TestFunction(lambda z: 0.7 * np.ones_like(np.asarray(z)), 1.0, "const")
        pts = np.arange(-5, 6).astype(float)
        for M in (1, 3, 5):
            assert ds.linear_statistic_direct(pts, g, M) == pytest.approx(
                (2 * M + 1) * 0.7
            )

    def test_contour_free_square(self):
        g = ds.TestFunction(lambda z: np.asarray(z) ** 2, 1.0, "square")
        val = ds.linear_statistic_contour(
            zero_field(1), g, np.array([-1.0, 0.0, 1.0], dtype=complex)
        )
        assert val == pytest.approx(2.0, abs=1e-8)

    def test_contour_counts_roots(self):
        one = ds.TestFunction(lambda z: np.ones_like(np.asarray(z)), 1.0, "one")
        val = ds.linear_statistic_contour(
            zero_field(1), one, np.arange(-2, 3).astype(complex)
        )
        assert val == pytest.approx(5.0, abs=0.01)

    def test_cross_method(self):
        g = ds.lorentzian(3.0)
        for seed in range(4):
            f = small_field(20 + seed)
            crit = ds.critical_points(f, (-3.6, 3.6))
            direct = ds.linear_statistic_direct(np.array(crit.critical_points), g, 3)
            contour = ds.linear_statistic_contour(
                f, g, np.arange(-3, 4).astype(complex)
            )
            assert abs(direct - contour) < 1e-6

    def test_radius_cap(self):
        g = ds.lorentzian(3.0)
        with pytest.raises(ValueError):
            ds.linear_statistic_contour(
                zero_field(1), g, np.array([0.0], dtype=complex), radius=0.3
            )


class TestLipschitzProbe:
    def test_scaled_copies(self):
        f = small_field(30, scale=0.4)
        ratio = ds.lipschitz_probe_delta(f, 0.5 * f, np.linspace(-3, 3, 7))
        assert np.isfinite(ratio) and ratio > 0

    def test_identical_fields_rejected(self):
        f = small_field(31)
        with pytest.raises(ValueError):
            ds.lipschitz_probe_delta(f, f, [0.0])

    def test_bounded_over_ball_pairs(self):
        params = GibbsParams(p=4.0, beta=0.0, ball_radius=1.0, cutoff=4)
        ens = importance_ensemble(12, params, seed=5)
        lams = np.linspace(-3, 3, 7)
        ratios = [
            ds.lipschitz_probe_delta(ens.samples[i], ens.samples[i + 1], lams, steps=512)
            for i in range(0, 10, 2)
        ]
        # recorded empirical baseline on the unit ball: observed max ~56
        assert max(ratios) < 200.0

    def test_ratio_grows_with_strip_height(self):
        f1 = small_field(32, scale=0.3)
        f2 = small_field(33, scale=0.3)
        low = ds.lipschitz_probe_delta(f1, f2, np.array([1.0 + 0.0j]), steps=512)
        high = ds.lipschitz_probe_delta(f1, f2, np.array([1.0 + 1.5j]), steps=512)
        assert high > low
