import math

import numpy as np
import pytest

from gibbslab import flow_lab as fl
from gibbslab.fourier_field import (
    PeriodicField,
    field_from_modes,
    l2_norm_sq,
    lp_integral,
)
from gibbslab.gibbs_sampler import GibbsEnsemble, GibbsParams, importance_ensemble
from conftest import random_field


def unit_mass_field(cutoff: int, seed: int) -> PeriodicField:
    f = random_field(cutoff, seed)
    return f * (1.0 / math.sqrt(l2_norm_sq(f)))


class TestSplitStep:
    def test_plane_wave_exact(self):
        a, n, beta = 0.7, 2, -1.0
        f = field_from_modes(4, {n: a})
        params = fl.FlowParams(4.0, beta, 1e-4, 5000, 4)
        out = fl.split_step_evolve(f, params)
        omega = -(n**2) - beta * abs(a) ** 2
        expect = a * np.exp(-1j * omega * params.total_time)
        assert abs(out.mode(n) - expect) < 1e-10
        others = np.abs(out.coeffs).sum() - abs(out.mode(n))
        assert others < 1e-12

    def test_linear_flow_exact(self):
        f = unit_mass_field(6, 1)
        params = fl.FlowParams(4.0, 0.0, 1e-3, 137, 6)
        out = fl.split_step_evolve(f, params)
        T = params.total_time
        for n in f.modes:
            expect = f.mode(n) * np.exp(1j * n * n * T)
            assert abs(out.mode(n) - expect) < 1e-12

    def test_strang_second_order(self):
        f = unit_mass_field(8, 2)
        T = 0.05
        errs = []
        for dt in (4e-4, 2e-4, 1e-4):
            out = fl.split_step_evolve(f, fl.FlowParams(4.0, -1.0, dt, int(T / dt), 8))
            ref = fl.split_step_evolve(
                f, fl.FlowParams(4.0, -1.0, dt / 16, int(T / (dt / 16)), 8)
            )
            errs.append(np.abs(out.coeffs - ref.coeffs).max())
        for a, b in zip(errs, errs[1:]):
            assert 3.0 < a / b < 5.0

    def test_time_reversal(self):
        f = unit_mass_field(6, 3)
        fwd = fl.split_step_evolve(f, fl.FlowParams(4.0, -1.0, 1e-3, 250, 6))
        back = fl.split_step_evolve(fwd, fl.FlowParams(4.0, -1.0, -1e-3, 250, 6))
        assert np.abs(back.with_cutoff(6).coeffs - f.coeffs).max() < 1e-7

    def test_dt_guard(self):
        with pytest.raises(ValueError):
            fl.FlowParams(4.0, -1.0, 1e-2, 10, 16)

    def test_odd_power_flagged(self):
        f = unit_mass_field(4, 4)
        with pytest.warns(UserWarning):
            fl.split_step_evolve(f, fl.FlowParams(3.0, -1.0, 1e-3, 5, 4))


class TestConservation:
    def test_linear_machine_level(self):
        f = unit_mass_field(8, 5)
        traj = fl.evolve_trajectory(f, fl.FlowParams(4.0, 0.0, 1e-3, 400, 8), 4)
        drift = fl.conservation_check(traj, 4.0, 0.0)
        assert drift["l2_drift"] < 1e-12
        assert drift["hamiltonian_drift"] < 1e-11

    def test_plane_wave_machine_level(self):
        f = field_from_modes(4, {1: 0.5})
        traj = fl.evolve_trajectory(f, fl.FlowParams(4.0, -1.0, 1e-3, 400, 4), 4)
        drift = fl.conservation_check(traj, 4.0, -1.0)
        assert drift["l2_drift"] < 1e-12
        assert drift["hamiltonian_drift"] < 1e-10

    def test_drift_ratio_under_dt_refinement(self):
        f = unit_mass_field(8, 6)
        drifts = []
        for dt in (1e-3, 5e-4):
            traj = fl.evolve_trajectory(
                f, fl.FlowParams(4.0, -1.0, dt, int(0.2 / dt), 8), 4
            )
            drifts.append(fl.conservation_check(traj, 4.0, -1.0)["hamiltonian_drift"])
        assert 2.5 < drifts[0] / drifts[1] < 6.0


class TestIsospectrality:
    def test_plane_wave_drift_small(self):
        f = field_from_modes(2, {1: 0.4})
        params = fl.FlowParams(4.0, 2.0, 1e-3, 100, 8)
        rep = fl.isospectrality_check(f, params, window=(-2.5, 2.5), dirac_steps=512)
        assert rep["matched"]
        assert rep["drift"] < 1e-5

    def test_linear_flow_small_field_drift(self):
        # at beta = 0 eigenvalue motion is second order in the amplitude;
        # threshold recorded from a refinement study at this resolution
        f = random_field(3, 7, scale=0.1)
        params = fl.FlowParams(4.0, 0.0, 5e-4, 400, 8)
        rep = fl.isospectrality_check(f, params, window=(-2.5, 2.5), dirac_steps=512)
        assert rep["drift"] < 1e-3

    def test_refinement_trend(self):
        f = random_field(4, 8, scale=0.25)
        reports = fl.isospectrality_refinement(
            f, 2.0, 0.2, [(1.6e-3, 8), (4e-4, 16), (1e-4, 32)],
            window=(-2.5, 2.5), dirac_steps=512,
        )
        drifts = [r["drift"] for r in reports]
        assert drifts[0] > drifts[1] > drifts[2]

    def test_requires_quartic(self):
        f = random_field(2, 9, scale=0.1)
        with pytest.raises(ValueError):
            fl.isospectrality_check(f, fl.FlowParams(3.0, 0.0, 1e-3, 10, 4))


class TestWeightedKs:
    def test_identical_samples(self):
        x = np.array([1.0, 2.0, 3.0])
        w = np.ones(3)
        assert fl.weighted_ks_distance(x, w, x, w) == 0.0

    def test_disjoint_samples(self):
        a = np.array([0.0, 1.0])
        b = np.array([10.0, 11.0])
        assert fl.weighted_ks_distance(a, np.ones(2), b, np.ones(2)) == 1.0

    def test_weights_matter(self):
        x = np.array([0.0, 1.0])
        d = fl.weighted_ks_distance(x, np.array([1.0, 0.0]), x, np.array([0.0, 1.0]))
        assert d == pytest.approx(1.0)


class TestInvariance:
    def _ensemble(self, beta=0.0, count=64, N=50.0, seed=2):
        params = GibbsParams(p=4.0, beta=beta, ball_radius=N, cutoff=6)
        return importance_ensemble(count, params, seed)

    def test_time_zero_distance_zero(self):
        ens = self._ensemble()
        params = fl.FlowParams(4.0, 0.0, 1e-3, 1, 6)
        # evolve for one tiny step ~ identity up to 1e-9: distances small
        rep = fl.invariance_check(ens, params, {"l2": l2_norm_sq}, seed=1, permutations=50)
        assert rep.distances["l2"] <= rep.null_bands["l2"]

    def test_linear_flow_within_band(self):
        ens = self._ensemble()
        params = fl.FlowParams(4.0, 0.0, 1e-3, 300, 6)
        rep = fl.invariance_check(ens, params, {"l2": l2_norm_sq}, seed=3, permutations=100)
        assert rep.all_within_band
        assert rep.excluded_blowups == 0


@pytest.mark.filterwarnings(  # numpy reports the deliberate overflow of member BAD
    "ignore:overflow encountered:RuntimeWarning", "ignore:invalid value encountered:RuntimeWarning"
)
class TestBlockedInvariance:
    """The ensemble flow runs in blocks of rows; each member keeps its own bits."""

    COUNT, BAD = 150, 75  # three blocks of 64 rows at cutoff 8; BAD sits in the second

    def _ensemble(self):
        rng = np.random.default_rng(17)
        samples = [unit_mass_field(8, 100 + i) for i in range(self.COUNT)]
        samples[self.BAD] = PeriodicField(8, np.full(17, 1e200 + 0j))
        return GibbsEnsemble(
            GibbsParams(p=4.0, beta=-1.0, ball_radius=1.0, cutoff=8),
            samples, rng.uniform(0.5, 1.5, self.COUNT), seed=0, method="importance",
        )

    def test_rows_match_single_member_runs(self):
        ens = self._ensemble()
        params = fl.FlowParams(4.0, -1.0, 1e-3, 40, 8)
        assert self.COUNT > 2 * fl.BLOCK_LANES // fl._padded_size(8)
        seen = []  # the observable sees every kept member before and after the flow
        rep = fl.invariance_check(
            ens, params, {"seen": lambda f: seen.append(f) or 0.0}, seed=5, permutations=20
        )
        assert rep.excluded_blowups == 1
        evolved = [f for f in seen if f.cutoff == 31]  # the full 64-point grid
        assert len(seen) == 2 * len(evolved) == 2 * (self.COUNT - 1)
        with pytest.raises(fl.BlowUpError):
            fl.split_step_evolve(ens.samples[self.BAD], params)
        keep = [i for i in range(self.COUNT) if i != self.BAD]
        for f, i in zip(evolved, keep):
            assert np.array_equal(f.coeffs, fl.split_step_evolve(ens.samples[i], params).coeffs)

    def test_report_matches_single_member_runs(self):
        ens = self._ensemble()
        params = fl.FlowParams(4.0, -1.0, 1e-3, 40, 8)
        observables = {"l2": l2_norm_sq, "V": lambda f: lp_integral(f, 4.0)}
        seed, permutations = 5, 30
        rep = fl.invariance_check(ens, params, observables, seed=seed, permutations=permutations)
        assert rep.excluded_blowups == 1

        keep = [i for i in range(self.COUNT) if i != self.BAD]
        evolved = [fl.split_step_evolve(ens.samples[i], params) for i in keep]
        w = ens.weights[keep]
        rng = np.random.default_rng(np.random.SeedSequence((seed, fl._INVARIANCE_TAG)))
        for name, fn in observables.items():
            before = np.array([fn(ens.samples[i]) for i in keep])
            after = np.array([fn(f) for f in evolved])
            assert rep.distances[name] == fl.weighted_ks_distance(before, w, after, w)
            vals, ws = np.concatenate([before, after]), np.concatenate([w, w])
            null = []
            for _ in range(permutations):
                idx = rng.permutation(vals.size)
                a, b = idx[: vals.size // 2], idx[vals.size // 2 :]
                null.append(fl.weighted_ks_distance(vals[a], ws[a], vals[b], ws[b]))
            assert rep.null_bands[name] == float(np.quantile(null, 0.99))
