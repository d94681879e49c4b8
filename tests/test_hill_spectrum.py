import math

import numpy as np
import pytest

from gibbslab import concentration_harness as ch
from gibbslab import hill_spectrum as hs
from gibbslab.floquet import InsufficientPointsError
from gibbslab.fourier_field import (
    PeriodicField,
    default_grid_size,
    evaluate,
    field_from_modes,
    l2_norm_sq,
    zero_field,
)
from gibbslab.gibbs_sampler import (
    GibbsEnsemble,
    GibbsParams,
    importance_ensemble,
    sample_kdv_loop,
)
from conftest import determinant, hill_oracle, transfer


def mathieu(eps: float) -> PeriodicField:
    return field_from_modes(2, {2: eps, -2: eps})  # 2*eps*cos(2x)


def hill_discriminant(q: PeriodicField, lam: float) -> float:
    return float(hs.hill_discriminant_batch(q)(np.array([lam], dtype=complex))[0].real)


def rescale_l1(q: PeriodicField, target: float) -> PeriodicField:
    vals = np.real(evaluate(q, default_grid_size(q.cutoff)))
    return q * (target / np.mean(np.abs(vals)))


class TestMonodromy:
    def test_free_values(self):
        assert hill_discriminant(zero_field(1), 1.0) == pytest.approx(-2.0, abs=1e-9)
        assert hill_discriminant(zero_field(1), 4.0) == pytest.approx(2.0, abs=1e-9)

    def test_constant_shift_closed_form(self):
        c = 0.4
        q = field_from_modes(0, {0: c}).with_cutoff(2)
        for lam in (0.7, 2.0, 9.3):
            expect = 2 * np.cos(np.pi * np.sqrt(complex(lam - c)))
            assert hill_discriminant(q, lam) == pytest.approx(
                float(expect.real), abs=1e-8
            )

    def test_rejects_odd_modes(self):
        q = field_from_modes(1, {1: 0.1, -1: 0.1})
        with pytest.raises(hs.OddModeError):
            hs.hill_discriminant_batch(q)

    def test_rejects_complex_potential(self):
        q = field_from_modes(2, {2: 0.1})
        with pytest.raises(ValueError, match="real valued"):
            hs.hill_discriminant_batch(q)

    def test_wronskian(self):
        m = transfer("hill", mathieu(0.3), hs.DEFAULT_STEPS, np.array([2.2 + 0j]))
        assert abs(determinant(m)[0] - 1.0) < 1e-9


class TestSpectrum:
    def test_free_spectrum(self):
        data = hs.hill_periodic_spectrum(zero_field(1), 30.0)
        expect = [0, 1, 1, 4, 4, 9, 9, 16, 16, 25, 25]
        assert data.eigenvalues.size == len(expect)
        assert np.abs(data.eigenvalues - np.array(expect, float)).max() < 1e-7
        assert np.abs(data.midpoints - np.arange(6.0)).max() < 1e-7
        assert all(g[2] == pytest.approx(0.0, abs=1e-7) for g in data.gaps)
        assert data.period_convention == "pi"
        assert data.ordering_ok

    def test_series_labels_free(self):
        data = hs.hill_periodic_spectrum(zero_field(1), 20.0)
        assert data.series[0] == "periodic"
        assert data.series[1] == data.series[2] == "antiperiodic"
        assert data.series[3] == data.series[4] == "periodic"

    def test_mathieu_first_gap(self):
        eps = 0.1
        data = hs.hill_periodic_spectrum(mathieu(eps), 12.0)
        lo, hi, length = data.gaps[0]
        assert 0.8 < lo < 1.0 < hi < 1.2
        assert length == pytest.approx(2 * eps, abs=0.01)  # classical leading term

    def test_residuals(self):
        data = hs.hill_periodic_spectrum(mathieu(0.1), 40.0)
        assert np.max(data.residuals) < 1e-6

    def test_constant_shift_covariance(self):
        eps, c = 0.1, 0.35
        base = hs.hill_periodic_spectrum(mathieu(eps), 26.0)
        shifted_q = PeriodicField(
            2, mathieu(eps).coeffs + np.array([0, 0, c, 0, 0], dtype=complex)
        )
        shifted = hs.hill_periodic_spectrum(shifted_q, 26.0 + c)
        n = min(base.eigenvalues.size, shifted.eigenvalues.size)
        assert np.abs(shifted.eigenvalues[:n] - base.eigenvalues[:n] - c).max() < 1e-7

    @pytest.mark.parametrize("lambda_0", [0.5, -3.0])
    def test_constant_shift_moves_lambda_0_anywhere(self, lambda_0):
        # the shift c puts the shifted lambda_0 at 0.5, where an earlier
        # lambda-plane scan met the sqrt(lambda) scan, or well below zero
        eps = 0.1
        base = hs.hill_periodic_spectrum(mathieu(eps), 26.0)
        c = lambda_0 - base.eigenvalues[0]
        shifted_q = PeriodicField(
            2, mathieu(eps).coeffs + np.array([0, 0, c, 0, 0], dtype=complex)
        )
        shifted = hs.hill_periodic_spectrum(shifted_q, 26.0 + c)
        assert shifted.eigenvalues.size == base.eigenvalues.size
        assert shifted.series == base.series
        assert np.abs(shifted.eigenvalues - base.eigenvalues - c).max() < 1e-7
        assert shifted.eigenvalues[0] == pytest.approx(lambda_0, abs=1e-7)

    def test_midpoints_structure(self):
        data = hs.hill_periodic_spectrum(mathieu(0.2), 40.0)
        t = data.two_sided_t(4)
        assert t[4] == 0.0
        assert np.all(np.diff(t) > 0)
        assert np.allclose(t, -t[::-1])


# eigvalsh is exact for a perturbation of a few eps times the matrix norm,
# so the K = 64 oracle itself is off by up to about 8 eps (2K + 1)^2
ORACLE_ROUNDING = 8 * np.finfo(float).eps * 129**2


def scaled_kdv_member(seed: int, mass: float) -> PeriodicField:
    q = sample_kdv_loop(8, seed, pi_periodic=True)
    return q * math.sqrt(mass / l2_norm_sq(q))


class TestOracle:
    """Spectra of pi-periodic KdV members against the Fourier-matrix oracle at K = 64."""

    @staticmethod
    def assert_matches_oracle(data: hs.HillSpectralData, ref: np.ndarray) -> None:
        eig = data.eigenvalues
        assert eig.size == ref.size
        err = np.abs(eig - ref)
        assert err.max() < 1e-9
        assert np.all(data.truncation_bounds <= 1e-8)
        assert np.all(err <= data.truncation_bounds + ORACLE_ROUNDING)

    @pytest.mark.parametrize("mass", [1.0, 10.0, 100.0])
    @pytest.mark.parametrize("seed", [1000, 1001, 1002, 1003])
    def test_members_match_oracle(self, mass, seed):
        q = scaled_kdv_member(seed, mass)  # sup|q| from about 1.4 to 18
        self.assert_matches_oracle(hs.hill_periodic_spectrum(q, 40.0), hill_oracle(q, 40.0, K=64))

    def test_unit_mass_members_to_112(self):
        # every unit-mass member has gaps too narrow for a discriminant scan
        # to tell from closed ones in this range; each gap edge is its own
        # eigenvalue here
        for i in range(40):
            q = scaled_kdv_member(9002 + i, 1.0)
            data = hs.hill_periodic_spectrum(q, 112.0, steps=256)
            self.assert_matches_oracle(data, hill_oracle(q, 112.0, K=64))

    @pytest.mark.parametrize("member", [0, 3, 4])
    def test_high_mass_members_return_every_eigenvalue_or_raise(self, member):
        # at mass 3,000 the residual check at 512 steps fails on most
        # members, which then raise; a returned list is never short
        q = scaled_kdv_member(1000 + member, 3000.0)
        ref = hill_oracle(q, 12.96, K=64)
        try:
            data = hs.hill_periodic_spectrum(q, 12.96, steps=512)
        except FloatingPointError:
            assert member != 4
            return
        self.assert_matches_oracle(data, ref)
        if member == 4:
            # its two bands [-25.787, -25.779] and [-25.595, -25.587]
            bands = data.eigenvalues[(data.eigenvalues > -25.8) & (data.eigenvalues < -25.5)]
            assert bands.size == 4


class TestMidpointRange:
    """Constant mode -10 puts the low gap midpoints below zero, so only t_0 is computed."""

    DEEP = field_from_modes(2, {0: -10.0})

    def test_missing_midpoints_raise_typed_error(self):
        data = hs.hill_periodic_spectrum(self.DEEP, 12.96, steps=1024)
        assert data.n_max == 0 and data.t(0) == 0.0
        with pytest.raises(InsufficientPointsError):
            data.two_sided_t(3)

    def test_no_eigenvalue_below_lambda_max(self):
        # constant mode 10 puts lambda_0 at 10, past lambda_max = 5: no residual
        # lanes, alone or beside a member that has some
        high, free = field_from_modes(2, {0: 10.0}), zero_field(2)
        alone = hs.hill_periodic_spectrum(high, 5.0)
        assert alone.eigenvalues.size == 0 and not alone.ordering_ok
        block = hs.hill_periodic_spectrum_block([high, free], 5.0)
        assert block[0].eigenvalues.size == 0
        free_alone = hs.hill_periodic_spectrum(free, 5.0)
        assert np.array_equal(block[1].eigenvalues, free_alone.eigenvalues)

    def test_collect_statistic_counts_the_member_as_failed(self):
        params = GibbsParams(p=4.0, beta=0.0, ball_radius=1e3, cutoff=2, kind="kdv")
        fields = (mathieu(0.1), self.DEEP, zero_field(2))
        ens = GibbsEnsemble(params, fields, np.ones(3), 0, "importance")
        sample = ch.collect_statistic(ens, "hill:midpoints:lorentzian:c=3:J=3", failure_cap=0.5)
        assert sample.failed == 1
        assert list(sample.members) == [0, 2]


class TestBorg:
    def test_free_margins_maximal(self):
        data = hs.hill_periodic_spectrum(zero_field(1), 40.0)
        rep = hs.borg_check(zero_field(1), data, 4)
        assert rep.passed and rep.hypotheses_ok
        assert rep.max_center_offset < 1e-7
        assert rep.max_square_offset < 1e-6

    def test_mathieu_passes(self):
        eps = 0.1  # int |q|/2pi = 4 eps / pi ~ 0.127 < 1/2
        q = mathieu(eps)
        data = hs.hill_periodic_spectrum(q, 40.0)
        rep = hs.borg_check(q, data, 5)
        assert rep.hypotheses_ok
        # |cos| has kinks, so the quadrature is second order here
        assert rep.mean_abs == pytest.approx(4 * eps / math.pi, abs=1e-3)
        assert rep.passed

    def test_gibbs_samples_pass(self):
        params = GibbsParams(
            p=4.0, beta=-1.0, ball_radius=1.0, cutoff=8, kind="kdv", pi_periodic=True
        )
        ens = importance_ensemble(6, params, seed=3)
        for f in ens.samples:
            q = rescale_l1(f, 0.45)
            data = hs.hill_periodic_spectrum(q, 40.0, steps=1024)
            rep = hs.borg_check(q, data, 5)
            assert rep.hypotheses_ok and rep.passed

    def test_violated_hypotheses_reported(self):
        q = rescale_l1(mathieu(0.1), 0.9)  # L1 mean above 1/2
        data = hs.hill_periodic_spectrum(q, 40.0)
        rep = hs.borg_check(q, data, 4)
        assert not rep.hypotheses_ok and not rep.passed


class TestFrameBounds:
    def test_family_norm_oracle(self):
        # closed-form norms against brute-force quadrature on a long interval
        x = np.linspace(-3000, 3000, 2_400_001)
        dx = x[1] - x[0]
        for g in hs.default_test_family(8):
            num = np.sum(g(x) ** 2) * dx
            assert num == pytest.approx(g.norm_sq(), rel=2e-3)

    def test_free_ratio_direct_summation(self):
        g = hs.default_test_family(1)[0]  # pure sinc of band 2
        t = np.arange(-10, 11).astype(float)
        expected = np.sum(g(t) ** 2) / g.norm_sq()
        est = hs.frame_bounds_estimate(t, 10, family_size=1)
        assert est.lower == pytest.approx(expected, rel=1e-12)
        assert est.upper == pytest.approx(expected, rel=1e-12)

    def test_scaling_invariance(self):
        g = hs.default_test_family(16)[7]
        t = np.arange(-8, 9).astype(float) + 0.1
        base = hs.sampling_ratio(g, t)
        for c in (1e-3, 2.0, 57.0):
            vals = c * g(t)
            ratio = np.sum(np.abs(vals) ** 2) / (c * c * g.norm_sq())
            assert abs(ratio - base) <= 1e-10 * max(1.0, abs(base))

    def test_perturbed_sequences_keep_positive_lower_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            ns = np.arange(-10, 11).astype(float)
            t = ns + rng.uniform(-0.24, 0.24, ns.size)
            t[10] = 0.0
            t = np.sort(t)
            est = hs.frame_bounds_estimate(t, 10)
            assert est.lower > 0
            assert est.lower <= est.upper

    def test_family_size(self):
        fam = hs.default_test_family(64)
        assert len(fam) == 64
        with pytest.raises(ValueError):
            hs.default_test_family(100)


class TestPwStatistic:
    def test_free_even_indices(self):
        recs = hs.pw_statistic_contour(zero_field(1), [2, 4])
        assert recs[0]["t_sq"] == pytest.approx(4.0, abs=1e-7)
        assert recs[1]["t_sq"] == pytest.approx(16.0, abs=1e-7)
        for r in recs:
            assert abs(r["count"] - 2.0) <= 0.1

    def test_mathieu_cross_method(self):
        q = mathieu(0.05)
        data = hs.hill_periodic_spectrum(q, 80.0)
        recs = hs.pw_statistic_contour(q, [1, 2, 3, 4])
        for r in recs:
            direct = data.t(r["index"]) ** 2
            assert abs(r["t_sq"] - direct) < 1e-6

    def test_unit_mass_members_match_oracle(self):
        # circles of radius 1/4 at m^2 raised on 57 of these 240 (member,
        # index) pairs, and missed the oracle by up to 0.45 on 31 more
        for seed in range(2000, 2040):
            q = scaled_kdv_member(seed, 1.0)
            recs = hs.pw_statistic_contour(q, range(1, 7), steps=1024)
            ref = hill_oracle(q, 60.0, K=64)
            assert [sorted(r) for r in recs] == [["count", "index", "radius", "t_sq"]] * 6
            assert [r["index"] for r in recs] == [1, 2, 3, 4, 5, 6]
            err = np.array([r["t_sq"] for r in recs]) - 0.5 * (ref[1:12:2] + ref[2:13:2])
            assert np.max(np.abs(err)) < 1e-7, seed

    @pytest.mark.parametrize("c", [0.5, -3.0])
    def test_shift_covariance(self, c):
        # adding c to q adds c to every eigenvalue; circles at m^2 lost index 1
        q = mathieu(0.1)
        base = [r["t_sq"] for r in hs.pw_statistic_contour(q, [1, 2, 3, 4])]
        moved = hs.pw_statistic_contour(q + field_from_modes(2, {0: c}), [1, 2, 3, 4])
        assert np.allclose([r["t_sq"] - c for r in moved], base, rtol=0.0, atol=1e-7)

    def test_models_built_once(self, monkeypatch):
        built = []
        original = hs.build_models

        def counting(f_batch, centers, trust):
            built.append(len(centers))
            return original(f_batch, centers, trust)

        monkeypatch.setattr(hs, "build_models", counting)
        hs.pw_statistic_contour(mathieu(0.05), [1, 2, 3, 4])
        assert built == [4]

    def test_each_check_raises(self, monkeypatch):
        q = mathieu(0.05)
        contour_sum, mode_eigenvalues = hs.contour_sum, hs._mode_eigenvalues

        def shifted(shift, count):
            def fake(*args):
                value, _ = contour_sum(*args)
                return value + 2.0 * shift, [count]
            return fake

        # a root count of 1, then a t^2 1e-5 off the gap midpoint
        for fake, match in ((shifted(0.0, 1.0), "1.00 roots"), (shifted(1e-5, 2.0), "residual")):
            monkeypatch.setattr(hs, "contour_sum", fake)
            with pytest.raises(FloatingPointError, match=match):
                hs.pw_statistic_contour(q, [1, 2])
        monkeypatch.setattr(hs, "contour_sum", contour_sum)

        def relabelled(*args):  # gap edges of the other series
            values, anti, bounds = mode_eigenvalues(*args)
            return values, ~anti, bounds

        monkeypatch.setattr(hs, "_mode_eigenvalues", relabelled)
        with pytest.raises(FloatingPointError, match="series"):
            hs.pw_statistic_contour(q, [1, 2])
        with pytest.raises(ValueError, match="positive"):
            hs.pw_statistic_contour(q, [0, 1])


class TestGapSummability:
    def test_free_all_zero(self):
        data = hs.hill_periodic_spectrum(zero_field(1), 30.0)
        rep = hs.gap_summability_report(data)
        assert rep["l2_total"] == pytest.approx(0.0, abs=1e-12)

    def test_mathieu_decay(self):
        data = hs.hill_periodic_spectrum(mathieu(0.2), 110.0)
        rep = hs.gap_summability_report(data)
        assert rep["tail_l2"] < rep["head_l2"]
        assert np.isfinite(rep["l2_total"])
