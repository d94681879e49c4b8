import math
import tracemalloc

import numpy as np
import pytest

from gibbslab import concentration_harness as ch
from gibbslab.floquet import NUMERICAL_FAILURES
from gibbslab.fourier_field import l2_norm_sq, result_to_json
from gibbslab.gibbs_sampler import (
    GibbsEnsemble,
    GibbsParams,
    importance_ensemble,
    sample_kdv_loop,
    sample_wiener_loop,
)


def gaussian_ensemble(count=4000, cutoff=6, seed=1):
    params = GibbsParams(p=4.0, beta=0.0, ball_radius=1e9, cutoff=cutoff)
    return importance_ensemble(count, params, seed)


def coordinate_failing_on(ens, member: int):
    """Re c_1, raising FloatingPointError on one member of ``ens``."""
    target = ens.samples[member]

    def one_bad(f):
        if f is target:
            raise FloatingPointError("overflow")
        return float(np.real(f.mode(1)))

    return one_bad


class TestCollect:
    def test_constant_statistic(self):
        ens = gaussian_ensemble(count=50)
        sample = ch.collect_statistic(ens, lambda f: 3.5, name="const")
        assert np.all(sample.values == 3.5)

    def test_gaussian_coordinate(self):
        ens = gaussian_ensemble(count=20000)
        sample = ch.collect_statistic(ens, "coord:a1")
        n = sample.values.size
        assert abs(sample.weighted_mean()) < 4.0 / math.sqrt(n)
        assert abs(sample.weighted_variance() - 1.0) < 5.0 * math.sqrt(2.0 / n)

    def test_failure_cap(self):
        ens = gaussian_ensemble(count=50)

        def flaky(f):
            if abs(f.mode(1)) > 0.1:  # fails on most members
                raise RuntimeError("boom")
            return 0.0

        with pytest.raises(RuntimeError):
            ch.collect_statistic(ens, flaky, name="flaky")

    def test_few_failures_excluded(self):
        ens = gaussian_ensemble(count=300)
        bad = {7, 80}

        def mostly(f):
            idx = [i for i, s in enumerate(ens.samples) if s is f]
            if idx and idx[0] in bad:
                raise RuntimeError("boom")
            return float(np.real(f.mode(1)))

        sample = ch.collect_statistic(ens, mostly, name="mostly", failure_cap=0.01)
        assert sample.values.size == 298

    def test_type_error_propagates(self):
        ens = gaussian_ensemble(count=50)

        def wrong_type(f):
            return "1.0" + f.mode(1)

        with pytest.raises(TypeError):
            ch.collect_statistic(ens, wrong_type, name="wrong_type")

    def test_failure_counted_in_report(self):
        ens = gaussian_ensemble(count=200)
        sample = ch.collect_statistic(ens, coordinate_failing_on(ens, 17), name="one_bad")
        assert sample.values.size == 199 and sample.failed == 1
        assert list(sample.members) == [i for i in range(200) if i != 17]
        report = result_to_json(ch.concentration_report(sample, bootstrap=20))
        assert report["members_evaluated"] == 200
        assert report["members_failed"] == 1
        scaled = sample.scaled(2.0)
        assert np.array_equal(scaled.members, sample.members)
        assert ch.concentration_report(scaled, bootstrap=20).members_failed == 1


    def test_weight_ess_over_members_with_a_value(self):
        base = gaussian_ensemble(count=12, seed=3)
        w = np.arange(1.0, 13.0)
        ens = GibbsEnsemble(base.params, base.samples, w, base.seed, base.method)
        sample = ch.collect_statistic(
            ens, coordinate_failing_on(ens, 11), name="one_bad", failure_cap=0.1
        )
        assert sample.failed == 1
        report = result_to_json(ch.concentration_report(sample, bootstrap=20))
        kept = w[:11]  # member 11, the heaviest, failed
        assert report["weight_ess"] == pytest.approx(kept.sum() ** 2 / (kept**2).sum(), rel=1e-14)
        assert report["weight_ess"] == pytest.approx(66.0**2 / 506.0, rel=1e-14)
        unweighted = GibbsEnsemble(base.params, base.samples, np.ones(12), base.seed, base.method)
        sample = ch.collect_statistic(
            unweighted, coordinate_failing_on(unweighted, 11), name="one_bad", failure_cap=0.1
        )
        assert ch.concentration_report(sample, bootstrap=20).weight_ess == pytest.approx(11.0)


def rescaled(field, mass: float):
    return field * math.sqrt(mass / l2_norm_sq(field))


def uniform_ensemble(fields, kind: str = "nls") -> GibbsEnsemble:
    params = GibbsParams(p=4.0, beta=-1.0, ball_radius=1e3, cutoff=8, kind=kind,
                         pi_periodic=kind == "kdv")
    return GibbsEnsemble(params, tuple(fields), np.ones(len(fields)), 0, "importance")


DIRAC = "dirac:critical:lorentzian:c=3:M=3"
HILL = "hill:midpoints:lorentzian:c=3:J=3"
# 40 unit-mass members of each kind
MEMBERS = {
    DIRAC: [rescaled(sample_wiener_loop(8, 7000 + i), 1.0) for i in range(40)],
    HILL: [rescaled(sample_kdv_loop(8, 7000 + i, pi_periodic=True), 1.0) for i in range(40)],
}


class TestBlockedStatistics:
    """The spectral statistics run a block of members at a time; every member's
    value is its value as a block of one, and a failing member fails alone."""

    @pytest.mark.parametrize("spec", [DIRAC, HILL])
    def test_blocks_equal_one_member_blocks(self, spec):
        name, fn = ch.make_statistic(spec)
        kind = "kdv" if spec == HILL else "nls"
        sample = ch.collect_statistic(uniform_ensemble(MEMBERS[spec], kind), fn, name=name)
        assert sample.failed == 0 and sample.values.size == 40
        alone = np.array([fn(f) for f in MEMBERS[spec]])
        assert np.max(np.abs(sample.values - alone) / np.abs(alone)) < 1e-13
        # the descriptor runs the same blocks as the callable
        by_name = ch.collect_statistic(uniform_ensemble(MEMBERS[spec], kind), spec)
        assert np.array_equal(by_name.values, sample.values)

    def test_block_membership_follows_the_count(self):
        _, fn = ch.make_statistic(DIRAC)
        assert fn.block_members == 14
        sizes = []
        ens = uniform_ensemble(MEMBERS[DIRAC])
        fn.block = lambda fields, block=fn.block: sizes.append(len(fields)) or block(fields)
        ch.collect_statistic(ens, fn)
        assert sizes == [14, 13, 13]

    @pytest.mark.parametrize(
        "mass, message",
        [(30.0, "residual .* above"), (1e5, "transfer matrix overflowed")],
        ids=["residual", "non-finite-lanes"],
    )
    def test_a_failing_member_fails_alone(self, mass, message):
        name, fn = ch.make_statistic(DIRAC)
        fields = list(MEMBERS[DIRAC][:12])
        fields[5] = rescaled(fields[5], mass)
        with pytest.raises(NUMERICAL_FAILURES, match=message):
            fn(fields[5])
        assert fn.block_members >= len(fields)  # one block
        sample = ch.collect_statistic(uniform_ensemble(fields), fn, name=name, failure_cap=0.1)
        assert sample.failed == 1
        assert list(sample.members) == [i for i in range(12) if i != 5]
        alone = np.array([fn(f) for i, f in enumerate(fields) if i != 5])
        assert np.max(np.abs(sample.values - alone) / np.abs(alone)) < 1e-13


class TestLogMgf:
    def test_zero_at_origin_and_convex(self):
        ens = gaussian_ensemble(count=3000)
        sample = ch.collect_statistic(ens, "coord:a1")
        curve = ch.empirical_log_mgf(sample, bootstrap=50)
        i0 = np.argmin(np.abs(curve.t))
        assert curve.t[i0] == 0.0
        assert curve.value[i0] == 0.0
        second = np.diff(curve.value, 2)
        assert second.min() > -1e-10

    def test_gaussian_curve_shape(self):
        ens = gaussian_ensemble(count=30000)
        sample = ch.collect_statistic(ens, "coord:a1")
        curve = ch.empirical_log_mgf(sample, bootstrap=80, seed=3)
        mask = np.abs(curve.t) > 0.2
        resid = np.abs(curve.value[mask] - 0.5 * curve.t[mask] ** 2)
        band = 4.0 * curve.stderr[mask] + 0.02
        assert np.all(resid < band)

    def test_constant_statistic_flat(self):
        ens = gaussian_ensemble(count=100)
        sample = ch.collect_statistic(ens, lambda f: 2.0, name="const")
        curve = ch.empirical_log_mgf(sample, np.linspace(-1, 1, 11), bootstrap=20)
        assert np.abs(curve.value).max() == 0.0

    def test_asymmetric_grid_rejected(self):
        ens = gaussian_ensemble(count=50)
        sample = ch.collect_statistic(ens, "coord:a1")
        with pytest.raises(ValueError):
            ch.empirical_log_mgf(sample, np.linspace(-1, 2, 7))

    def test_overflow_trimmed(self):
        ens = gaussian_ensemble(count=50)
        sample = ch.collect_statistic(ens, lambda f: 100.0 * np.real(f.mode(1)), name="big")
        curve = ch.empirical_log_mgf(sample, np.linspace(-50, 50, 21), bootstrap=10)
        assert curve.trimmed > 0

    @staticmethod
    def bootstrap_reference(sample, t, bootstrap, seed):
        """Bootstrap stderr one replicate at a time: a draw of n indices and a
        (T, n) log-mean-exp each, in the replicates' order."""
        centered = sample.values - sample.weighted_mean()
        w, n = sample.weights, sample.values.size
        rng = np.random.default_rng(np.random.SeedSequence((seed, ch._BOOTSTRAP_TAG)))
        boots = np.empty((bootstrap, t.size))
        for b in range(bootstrap):
            idx = rng.integers(0, n, n)
            a = t[:, None] * centered[idx]
            peak = np.max(a, axis=1)
            total = np.sum(w[idx] * np.exp(a - peak[:, None]), axis=1)
            boots[b] = peak + np.log(total / np.sum(w[idx]))
        return boots.std(axis=0)

    # blocks of 133 replicates at T = 41, n = 12, and of 3 under the small cap;
    # 1,000 replicates is a multiple of neither
    @pytest.mark.parametrize("cap", [ch.BOOTSTRAP_BLOCK_ELEMENTS, 3 * 41 * 12])
    def test_blocked_bootstrap_matches_per_replicate_loop(self, cap, monkeypatch):
        monkeypatch.setattr(ch, "BOOTSTRAP_BLOCK_ELEMENTS", cap)
        rng = np.random.default_rng(4)
        values, weights = rng.normal(size=12), rng.uniform(0.5, 2.0, 12)
        sample = ch.StatisticSample(values, weights, "x", "synthetic")
        curve = ch.empirical_log_mgf(sample, bootstrap=1000, seed=9)
        assert curve.t.size == 41
        want = self.bootstrap_reference(sample, curve.t, 1000, 9)
        assert np.array_equal(curve.stderr, want)

    def test_bootstrap_memory_is_capped(self):
        # unblocked, 100 replicates of 5,000 members on the 41-point grid
        # would be 164 MB per temporary
        rng = np.random.default_rng(5)
        sample = ch.StatisticSample(rng.normal(size=5000), rng.uniform(size=5000), "x", "synthetic")
        tracemalloc.start()
        try:
            ch.empirical_log_mgf(sample, bootstrap=100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestSubgaussianFit:
    def test_exact_quadratic(self):
        t = np.linspace(-2, 2, 41)
        curve = ch.LogMgfCurve(t=t, value=0.5 * t**2, stderr=np.zeros_like(t), trimmed=0)
        fit = ch.subgaussian_fit(curve)
        assert fit.fitted_eta == pytest.approx(0.5, abs=1e-12)
        assert fit.envelope_eta == pytest.approx(0.5, abs=1e-12)

    def test_constant_is_zero(self):
        t = np.linspace(-1, 1, 11)
        curve = ch.LogMgfCurve(t=t, value=np.zeros_like(t), stderr=np.zeros_like(t), trimmed=0)
        fit = ch.subgaussian_fit(curve)
        assert fit.fitted_eta == 0.0
        assert fit.envelope_eta == 0.0

    def test_homogeneity(self):
        ens = gaussian_ensemble(count=2000)
        sample = ch.collect_statistic(ens, "coord:a1")
        c = 3.7
        rep1 = ch.concentration_report(sample, bootstrap=40, seed=5)
        rep2 = ch.concentration_report(sample.scaled(c), bootstrap=40, seed=5)
        assert rep2.fit.fitted_eta == pytest.approx(
            c * c * rep1.fit.fitted_eta, rel=1e-6
        )

    def test_bound_check(self):
        t = np.linspace(-1, 1, 11)
        curve = ch.LogMgfCurve(t=t, value=0.5 * t**2, stderr=np.zeros_like(t), trimmed=0)
        assert ch.subgaussian_fit(curve, eta_bound=0.6).passed
        assert not ch.subgaussian_fit(curve, eta_bound=0.4).passed

    def test_zero_sum_and_negative_weights_rejected(self):
        values = np.linspace(0.0, 1.0, 5)
        for weights in (np.zeros(5), np.array([1.0, -0.5, 1.0, 1.0, 1.0])):
            with pytest.raises(ch.DegenerateWeightsError):
                ch.StatisticSample(values, weights, "degenerate", "synthetic")

    def test_degenerate_weights_raise_typed_error(self):
        # one member carries all but 1e-11 of the weight: the trusted range
        # 2 / std is so wide that every nonzero t overflows and is trimmed
        values = np.linspace(0.0, 1.0, 30)
        weights = np.full(30, 1e-12)
        weights[0] = 1.0
        sample = ch.StatisticSample(values, weights, "degenerate", "synthetic")
        curve = ch.empirical_log_mgf(sample, bootstrap=10)
        assert curve.t.tolist() == [0.0] and curve.trimmed == 40
        with pytest.raises(ch.DegenerateWeightsError, match="no nonzero t survived"):
            ch.subgaussian_fit(curve)


class TestLipschitzProbe:
    def test_norm_statistic(self):
        ens = gaussian_ensemble(count=200)
        probe = ch.lipschitz_probe("l2norm", ens, pair_count=150, seed=1)
        assert probe["lipschitz"] <= 1.0 + 1e-9

    def test_coordinate_statistic(self):
        ens = gaussian_ensemble(count=200)
        probe = ch.lipschitz_probe("coord:a1", ens, pair_count=150, seed=2)
        assert probe["lipschitz"] <= 1.0 + 1e-9

    def test_failed_member_keeps_values_aligned(self):
        # a failure drops member 17 from the sample; every other member must
        # still be paired with its own value, and pairs with 17 are skipped
        ens = gaussian_ensemble(count=200)
        one_bad = coordinate_failing_on(ens, 17)
        sample = ch.collect_statistic(ens, one_bad, name="one_bad")
        probe = ch.lipschitz_probe(one_bad, ens, pair_count=400, seed=3, sample=sample)
        assert 17 not in probe["pair"]
        # Re c_1 is 1-Lipschitz in L^2; a neighbour's value breaks the bound
        assert 0.0 < probe["lipschitz"] <= 1.0 + 1e-9
        i, j = probe["pair"]
        own = abs(one_bad(ens.samples[i]) - one_bad(ens.samples[j]))
        dist = np.sqrt(l2_norm_sq(ens.samples[i] - ens.samples[j]))
        assert probe["lipschitz"] == own / dist
        # only the pairs actually compared are counted: no i = j, no member 17
        rng = np.random.default_rng(np.random.SeedSequence((3, ch._LIPSCHITZ_TAG)))
        drawn = [tuple(int(x) for x in rng.integers(0, 200, 2)) for _ in range(400)]
        compared = sum(i != j and 17 not in (i, j) for i, j in drawn)
        assert probe["pairs_tested"] == compared < 400

    def test_stability_under_doubling(self):
        params = GibbsParams(p=4.0, beta=-1.0, ball_radius=1.0, cutoff=4)
        ens = importance_ensemble(60, params, seed=7)
        name, fn = ch.make_statistic("dirac:critical:lorentzian:c=3:M=2")
        sample = ch.collect_statistic(ens, fn, name=name)
        p1 = ch.lipschitz_probe(fn, ens, pair_count=80, seed=3, sample=sample)
        p2 = ch.lipschitz_probe(fn, ens, pair_count=160, seed=3, sample=sample)
        assert p1["lipschitz"] <= p2["lipschitz"] <= 3.0 * p1["lipschitz"] + 1e-12


class TestTrustedRange:
    def test_definition(self):
        ens = gaussian_ensemble(count=2000)
        sample = ch.collect_statistic(ens, "coord:a1")
        r = ch.trusted_t_range(sample)
        assert r == pytest.approx(2.0 / math.sqrt(sample.weighted_variance()))
