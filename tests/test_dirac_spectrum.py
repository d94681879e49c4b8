import dataclasses
import json
import math

import numpy as np
import pytest

from gibbslab import dirac_spectrum as ds
from gibbslab import floquet
from gibbslab.floquet import _ring_nodes, build_models
from gibbslab.fourier_field import (
    PeriodicField,
    field_from_modes,
    l2_norm_sq,
    result_to_json,
    zero_field,
)
from gibbslab.gibbs_sampler import sample_wiener_loop
from conftest import dirac_oracle, picard_monodromy, random_field, transfer


def small_field(seed: int, cutoff: int = 3, scale: float = 0.05) -> PeriodicField:
    return random_field(cutoff, seed, scale=scale)


def monodromy(field: PeriodicField, lam: complex, steps: int = ds.DEFAULT_STEPS) -> np.ndarray:
    """Psi_lambda(2 pi) as a 2x2 matrix."""
    return np.array(transfer("dirac", field, steps, np.array([lam], dtype=complex))).reshape(2, 2)


def discriminant(field: PeriodicField, lam: complex) -> complex:
    return complex(ds.discriminant_batch(field)(np.array([lam], dtype=complex))[0])


class TestMonodromy:
    def test_free_rotation(self):
        for lam in (0.0, 0.5, 1.0, -2.3):
            m = monodromy(zero_field(1), lam)
            assert np.trace(m) == pytest.approx(2 * math.cos(math.pi * lam), abs=1e-9)
            c, s = math.cos(math.pi * lam), math.sin(math.pi * lam)
            expect = np.array([[c, -s], [s, c]])
            assert np.abs(m - expect).max() < 1e-9

    def test_determinant_one(self):
        f = small_field(1, scale=0.4)
        for lam in (0.3, 1.7 + 0.8j, -2.0 - 0.5j):
            m = monodromy(f, lam)
            assert abs(np.linalg.det(m) - 1.0) < 1e-8

    def test_step_refinement(self):
        f = small_field(2, scale=0.2)
        lam = 1.3 + 0.4j
        m1 = monodromy(f, lam, steps=2048)
        m4 = monodromy(f, lam, steps=8192)
        assert np.abs(m1 - m4).max() < 1e-8

    def test_order_of_convergence(self):
        # at lam = 8 both errors sit far above the rounding floor (about
        # 3e-8 and 1e-10); order 8 divides the error by 2^8 per halving
        f = small_field(3, scale=0.2)
        lam = 8.0
        ref = monodromy(f, lam, steps=1024)
        e1 = np.abs(monodromy(f, lam, steps=64) - ref).max()
        e2 = np.abs(monodromy(f, lam, steps=128) - ref).max()
        assert e2 > 1e-12
        assert np.log2(e1 / e2) >= 7.0  # order >= 7 observed

    def test_picard_oracle(self):
        f = small_field(4, scale=0.3)
        lam = 0.7
        rk = monodromy(f, lam, steps=2048)
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
        assert discriminant(z, 0.0) == pytest.approx(2.0, abs=1e-10)
        assert abs(discriminant(z, 0.5)) < 1e-9

    def test_mean_value_property(self):
        # analyticity: the circle average reproduces the center value
        f = small_field(6, scale=0.4)
        lam = 0.9 + 0.2j
        theta = 2 * np.pi * np.arange(64) / 64
        ring = lam + 0.3 * np.exp(1j * theta)
        vals = ds.discriminant_batch(f)(ring)
        center = discriminant(f, lam)
        assert abs(vals.mean() - center) < 1e-7

    def test_derivative_free_closed_form(self):
        disc = ds.discriminant_batch(zero_field(1))
        got = build_models(disc, np.array([0.5]), 0.25)[0, 1]
        assert got == pytest.approx(-2 * math.pi, abs=1e-8)

    def test_derivative_order_zero(self):
        f = small_field(7)
        got = build_models(ds.discriminant_batch(f), np.array([0.3]), 0.25)[0, 0]
        assert got == pytest.approx(discriminant(f, 0.3))

    def test_derivative_fd_oracle(self):
        f = small_field(8, scale=0.3)
        lam, h = 1.1, 1e-5
        disc = ds.discriminant_batch(f)
        fd = (disc(np.array([lam + h]))[0] - disc(np.array([lam - h]))[0]) / (2 * h)
        got = build_models(disc, np.array([lam]), 0.25)[0, 1]
        assert abs(got - fd) < 1e-6

    def test_ring_rule_free_taylor(self):
        # the zero field's discriminant is 2 cos(pi lambda), entire of type
        # pi; its closed form is sampled, so only the ring's aliasing is seen
        # (the transfer matrix's step error would add to it)
        disc = lambda z: 2.0 * np.cos(np.pi * np.asarray(z))
        centers = np.array([0.0, 0.5, -1.3, 2.2])
        assert [_ring_nodes(2.0 * t) for t in (0.25, 0.35, 0.5)] == [24, 32, 32]
        for trust in (0.25, 0.35, 0.5, 1.5):
            r = 2.0 * trust
            for center, coef in zip(centers, build_models(disc, centers, trust)):
                k = np.arange(coef.size)
                fact = np.array([math.factorial(j) for j in k], dtype=float)
                exact = 2.0 * np.pi**k / fact * np.cos(np.pi * center + k * np.pi / 2)
                ring = center + r * np.exp(2j * np.pi * np.linspace(0.0, 1.0, 256))
                scale = np.max(np.abs(disc(ring)))
                assert np.max(np.abs(coef - exact) * r**k) < 1e-13 * scale
        # a radius far past any ring in use: the log form of the bound
        # still stops at the least multiple of 8
        n = _ring_nodes(400.0)
        bound = lambda n: n * math.log(400.0 * math.pi) - math.lgamma(n + 1)
        assert n % 8 == 0 and bound(n) <= math.log(1e-16) < bound(n - 8)


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
        # a central difference of the direct solver, independent of the models
        disc, h = ds.discriminant_batch(f), 1e-5
        for v in crit.critical_points:
            fd = (disc(np.array([v + h]))[0] - disc(np.array([v - h]))[0]) / (2 * h)
            assert abs(fd) < 1e-6
        per = ds.periodic_eigenvalues(f, (-3.5, 3.5))
        pv = per.periodic_values(with_multiplicity=False)
        # each critical point sits inside the matching eigenvalue cluster
        for v in crit.critical_points:
            assert np.min(np.abs(pv - v)) < 0.5

    def test_spectral_data_builds_once(self, monkeypatch):
        # one closure, so one set of step polynomials, serves both passes,
        # and the result is the two passes' at the same steps
        f = random_field(8, 12, scale=0.3)
        window = (-4.8, 4.8)
        separate = dataclasses.replace(
            ds.critical_points(f, window, steps=512),
            periodic_points=ds.periodic_eigenvalues(f, window, steps=512).periodic_points,
        )
        built = []
        original = floquet.step_polynomials

        def counting(*args):
            built.append(args[-1])
            return original(*args)

        monkeypatch.setattr(floquet, "step_polynomials", counting)
        shared = ds.spectral_data(f, window, steps=512)
        assert built == [512]
        assert shared.periodic_points and shared.critical_points
        assert json.dumps(result_to_json(shared)) == json.dumps(result_to_json(separate))

    @staticmethod
    def unit_mass_member():
        f = sample_wiener_loop(8, 9001)
        return f * math.sqrt(1.0 / l2_norm_sq(f))

    def test_a_missed_critical_point_raises(self, monkeypatch):
        # Delta' has one zero in each gap between the first and the last
        # periodic point, so a scan that loses one fails spectral_data
        f, window = self.unit_mass_member(), (-4.8, 4.8)
        assert len(ds.spectral_data(f, window, steps=128).critical_points) == 9
        located = ds.locate_spectral_points_block
        monkeypatch.setattr(
            ds, "locate_spectral_points_block", lambda *a: [np.delete(located(*a)[0], 4)]
        )
        with pytest.raises(FloatingPointError, match="8 critical points in 9 gaps"):
            ds.spectral_data(f, window, steps=128)
        # critical_points alone has no periodic points to count gaps on
        assert len(ds.critical_points(f, window, steps=128).critical_points) == 8

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda pts: np.sort(np.append(pts, pts[4] + 0.01)), "10 critical points in 9"),
            # 0.104 to -0.046, in the band between the gaps at -1.26 and 0.104
            (lambda pts: pts - 0.15 * (np.arange(pts.size) == 4), "outside its gap"),
        ],
        ids=["doubled", "in-a-band"],
    )
    def test_gap_check_rejects(self, edit, message):
        # points the |Delta'| residual check would reject first
        data = ds.spectral_data(self.unit_mass_member(), (-4.8, 4.8), steps=128)
        with pytest.raises(FloatingPointError, match=message):
            ds._check_gaps(data.periodic_points, edit(np.array(data.critical_points)))

    def test_closed_gaps_hold_their_double_points(self):
        data = ds.spectral_data(zero_field(8), (-3.5, 3.5))
        assert [p.multiplicity for p in data.periodic_points] == [2] * 7
        assert np.allclose(data.critical_points, np.arange(-3, 4), rtol=0.0, atol=1e-12)

    def test_two_sided_slice(self):
        pts = np.arange(-4, 5) + 0.01
        sel = ds.two_sided_slice(pts, 2)
        assert np.allclose(sel, np.arange(-2, 3) + 0.01)
        with pytest.raises(ds.InsufficientPointsError):
            ds.two_sided_slice(np.array([0.0, 1.0]), 2)


class TestOracle:
    """Periodic points against the Fourier-matrix oracle at K = 64."""

    # eigvalsh is exact for a perturbation of a few eps times the matrix
    # norm, so the oracle itself is off by up to about 8 eps (2K + 1)
    ORACLE_ROUNDING = 8 * np.finfo(float).eps * 129

    def test_unit_mass_members(self):
        # the gaps of these members are open down to widths of a few 1e-6,
        # which a discriminant scan read as closed up to about 1.5e-4 wide;
        # the zero field's points are all double, off the window's edges
        cases = [(zero_field(8), (-20.5, 20.5))]
        for i in range(12):
            f = sample_wiener_loop(8, 9001 + i)
            cases.append((f * math.sqrt(1.0 / l2_norm_sq(f)), (-20.0, 20.0)))
        for f, window in cases:
            pts = ds.periodic_eigenvalues(f, window, steps=256).periodic_points
            ref = dirac_oracle(f, window)
            assert [(p.series, p.multiplicity) for p in pts] == [(s, m) for _, s, m in ref]
            err = np.abs(np.array([p.value for p in pts]) - np.array([v for v, _, _ in ref]))
            bounds = np.array([p.truncation_bound for p in pts])
            assert err.max() < 1e-9
            assert np.all(bounds <= 1e-8)
            assert np.all(err <= bounds + self.ORACLE_ROUNDING)


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
        for radius in (0.3, 0.0, -0.3):
            with pytest.raises(ValueError, match="radius must lie in"):
                ds.linear_statistic_contour(
                    zero_field(1), g, np.array([0.0], dtype=complex), radius=radius
                )
