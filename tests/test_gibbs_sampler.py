import math

import numpy as np
import pytest

from gibbslab.fourier_field import field_from_modes, l2_norm_sq, lp_integral, zero_field
from gibbslab.gibbs_sampler import (
    _HASH_ROUNDS,
    DivergentWeightError,
    GibbsEnsemble,
    GibbsParams,
    RejectionBudgetError,
    _batch_in_omega,
    _coeffs_from_normals,
    _mass_on_normals,
    _normals_shape,
    _round_states,
    _screen,
    effective_sample_size,
    gibbs_weight,
    importance_ensemble,
    in_omega,
    load_ensemble_jsonl,
    mcmc_ensemble,
    sample_kdv_loop,
    sample_wiener_loop,
    save_ensemble_jsonl,
)

from conftest import rejection_oracle


def nls_params(**kw):
    base = dict(p=4.0, beta=-1.0, ball_radius=1.0, cutoff=8, kind="nls")
    base.update(kw)
    return GibbsParams(**base)


class TestWienerLoop:
    def test_zero_mode_absent(self):
        f = sample_wiener_loop(5, 1)
        assert f.mode(0) == 0.0

    def test_per_mode_variance(self):
        draws = np.array(
            [sample_wiener_loop(3, seed).coeffs for seed in range(400)]
        )
        for j, n in enumerate(range(-3, 4)):
            if n == 0:
                continue
            var = np.var(draws[:, j].real)
            se = (1.0 / n**2) * math.sqrt(2.0 / 400)
            assert abs(var - 1.0 / n**2) < 5 * se

    def test_mean_mass_partial_sum_oracle(self):
        # E ||phi||^2 = 4 * sum_{j<=M} 1/j^2
        count, M = 20000, 10
        params = nls_params(cutoff=M, beta=0.0, ball_radius=1e9)
        ens = importance_ensemble(count, params, seed=7)
        masses = np.array([l2_norm_sq(f) for f in ens.samples])
        target = 4.0 * np.sum(1.0 / np.arange(1.0, M + 1) ** 2)
        assert target == pytest.approx(6.19907, abs=5e-5)
        se = masses.std() / math.sqrt(count)
        assert abs(masses.mean() - target) < 4 * se

    def test_large_cutoff_approaches_limit(self):
        M = 400
        target = 4.0 * np.sum(1.0 / np.arange(1.0, M + 1) ** 2)
        assert abs(target - 2.0 * np.pi**2 / 3.0) < 0.01
        masses = np.array(
            [l2_norm_sq(sample_wiener_loop(M, s)) for s in range(300)]
        )
        se = masses.std() / math.sqrt(300)
        assert abs(masses.mean() - 2.0 * np.pi**2 / 3.0) < 4 * se + 0.01

    def test_kdv_loop_real(self):
        q = sample_kdv_loop(6, 3)
        assert np.abs(q.coeffs[::-1] - np.conj(q.coeffs)).max() < 1e-15

    def test_kdv_pi_periodic(self):
        q = sample_kdv_loop(6, 3, pi_periodic=True)
        ns = q.modes
        assert np.abs(q.coeffs[ns % 2 != 0]).max() == 0.0


class TestParams:
    @pytest.mark.parametrize(
        "kw",
        [dict(ball_radius=math.nan), dict(beta=math.nan), dict(beta=math.inf),
         dict(holder_gamma=0.3, holder_bound=math.nan), dict(kind="kdv", p=math.nan),
         dict(ball_radius=math.inf), dict(holder_gamma=0.3, holder_bound=math.inf)],
    )
    def test_nan_and_infinite_parameters_rejected(self, kw):
        with pytest.raises(ValueError):
            nls_params(**kw)


class TestWeightAndMembership:
    def test_beta_zero_weight(self):
        assert gibbs_weight(sample_wiener_loop(4, 0), nls_params(beta=0.0)) == 1.0

    def test_single_mode_weight(self):
        f = field_from_modes(1, {1: 1.0})
        w = gibbs_weight(f, nls_params(p=4.0, beta=-1.0, cutoff=1))
        assert w == pytest.approx(math.exp(0.25), rel=1e-12)

    def test_weight_recomputation_oracle(self):
        f = sample_wiener_loop(5, 11)
        params = nls_params(p=3.0, beta=0.6, cutoff=5, ball_radius=100.0)
        expect = math.exp(-(0.6 / 3.0) * lp_integral(f, 3.0))
        assert gibbs_weight(f, params) == pytest.approx(expect, rel=1e-12)

    def test_kdv_weight_sign(self):
        q = sample_kdv_loop(4, 5)
        params = GibbsParams(p=4.0, beta=2.0, ball_radius=100.0, cutoff=4, kind="kdv")
        from gibbslab.fourier_field import cubic_integral

        assert gibbs_weight(q, params) == pytest.approx(
            math.exp((2.0 / 6.0) * cubic_integral(q)), rel=1e-12
        )

    def test_divergent_weight_flagged(self):
        f = field_from_modes(0, {0: 5.0})
        params = GibbsParams(p=6.0, beta=-1.0, ball_radius=100.0, cutoff=1, kind="nls")
        big = f.with_cutoff(1)
        with pytest.raises(DivergentWeightError):
            gibbs_weight(big, params)

    def test_omega_membership(self):
        params = nls_params(ball_radius=1.0, holder_gamma=0.3, holder_bound=10.0)
        rep = in_omega(zero_field(8), params)
        assert rep.in_ball and rep.in_holder_ball
        outside = field_from_modes(1, {1: math.sqrt(1.0) + 0.1}).with_cutoff(8)
        assert not in_omega(outside, params).in_ball
        boundary = field_from_modes(1, {1: 1.0}).with_cutoff(8)
        assert in_omega(boundary, params).in_ball  # closed ball

    def test_omega_without_holder(self):
        rep = in_omega(zero_field(2), nls_params(cutoff=2))
        assert rep.in_holder_ball is None


class TestImportanceEnsemble:
    def test_trivial_acceptance(self):
        params = nls_params(beta=0.0, ball_radius=1e9)
        ens = importance_ensemble(200, params, seed=1)
        assert np.all(ens.weights == 1.0)
        assert ens.diagnostics["acceptance_rate"] == 1.0

    def test_acceptance_matches_direct_mc(self):
        params = nls_params(beta=0.0, ball_radius=1.0, cutoff=10)
        ens = importance_ensemble(400, params, seed=2)
        rate = ens.diagnostics["acceptance_rate"]
        # independent Monte Carlo estimate of P(||phi||^2 <= 1)
        rng = np.random.default_rng(123)
        trials = 120_000
        ns = np.arange(1, 11)
        z = rng.standard_normal((trials, 10, 4))
        mass = np.sum((z**2).sum(axis=2) / ns[None, :] ** 2, axis=1)
        p_hat = np.mean(mass <= 1.0)
        se = math.sqrt(p_hat * (1 - p_hat) / trials) + math.sqrt(
            rate * (1 - rate) / ens.diagnostics["attempts"]
        )
        assert abs(rate - p_hat) < 4 * se

    def test_membership_and_weights(self):
        params = nls_params(ball_radius=1.0, holder_gamma=0.3, holder_bound=8.0)
        ens = importance_ensemble(100, params, seed=3)
        for f in ens.samples:
            rep = in_omega(f, params)
            assert rep.in_ball and rep.in_holder_ball
        assert np.all(ens.weights > 0)

    def test_seed_determinism(self):
        params = nls_params()
        a = importance_ensemble(50, params, seed=9)
        b = importance_ensemble(50, params, seed=9)
        assert np.array_equal(a.weights, b.weights)
        for fa, fb in zip(a.samples, b.samples):
            assert np.array_equal(fa.coeffs, fb.coeffs)

    def test_weighted_mean_reproducible_across_seeds(self):
        params = nls_params(ball_radius=1.0, cutoff=6)
        outs = []
        for seed in (5, 6):
            ens = importance_ensemble(1500, params, seed=seed)
            v = np.array([lp_integral(f, 4.0) for f in ens.samples])
            mean = np.average(v, weights=ens.weights)
            var = np.average((v - mean) ** 2, weights=ens.weights)
            ess = effective_sample_size(ens)
            outs.append((mean, math.sqrt(var / ess)))
        (m1, s1), (m2, s2) = outs
        assert np.isfinite(m1) and np.isfinite(m2)
        assert abs(m1 - m2) < 4 * math.hypot(s1, s2)


class TestScreenedRounds:
    """The mass screen on the raw normals changes no draw of the rejection rounds."""

    @pytest.mark.parametrize(
        "kw,count,seed",
        [
            (dict(), 12, 3),
            (dict(), 600, 2026),
            (dict(ball_radius=2.0, holder_gamma=0.3, holder_bound=1.6), 200, 4),
            (dict(kind="kdv", ball_radius=2.0), 300, 5),
            (dict(kind="kdv", pi_periodic=True), 300, 6),
            (dict(ball_radius=3.0, cutoff=5), 5000, 7),  # round 0 spans five chunks
            (dict(), 1, 9),
            (dict(), 12, 2**32 + 5),  # a two-word seed
            (dict(kind="kdv", pi_periodic=True), 40, 8),  # about 80 % accepted
        ],
    )
    def test_bit_identical_to_building_every_row(self, kw, count, seed):
        params = nls_params(**kw)
        ens = importance_ensemble(count, params, seed)
        coeffs, weights, attempts = rejection_oracle(count, params, seed)
        got = np.array([f.coeffs for f in ens.samples])
        assert got.tobytes() == coeffs.tobytes()
        assert ens.weights.tobytes() == weights.tobytes()
        assert ens.diagnostics["attempts"] == attempts
        assert ens.diagnostics["acceptance_rate"] == count / attempts

    def test_budget_message_unchanged(self):
        params = nls_params()
        with pytest.raises(RejectionBudgetError) as expected:
            rejection_oracle(10_000, params, 0, max_attempts=200_000)
        with pytest.raises(RejectionBudgetError) as got:
            importance_ensemble(10_000, params, 0, max_attempts=200_000)
        assert str(got.value) == str(expected.value)
        assert "(9979 of 10000 still pending)" in str(got.value)

    def test_budget_runs_out_inside_a_block(self):
        # the 12-member draw runs out of budget in its block of rounds
        # 2908-3020, with 9 samples still pending
        params = nls_params()
        with pytest.raises(RejectionBudgetError) as expected:
            rejection_oracle(12, params, 3, max_attempts=30_000)
        with pytest.raises(RejectionBudgetError) as got:
            importance_ensemble(12, params, 3, max_attempts=30_000)
        assert str(got.value) == str(expected.value)
        assert str(got.value) == "no full acceptance after 30003 attempts (9 of 12 still pending)"

    def test_negative_seed_raises_as_seed_sequence_does(self):
        with pytest.raises(ValueError) as expected:
            np.random.SeedSequence((-1, 0))
        with pytest.raises(ValueError) as got:
            importance_ensemble(3, nls_params(), -1)
        assert str(got.value) == str(expected.value) == "expected non-negative integer"

    @pytest.mark.parametrize(
        "kw",
        [dict(), dict(holder_gamma=0.3, holder_bound=1.2), dict(kind="kdv"),
         dict(kind="kdv", pi_periodic=True)],
    )
    def test_screen_passes_every_exactly_accepted_row(self, kw):
        probe = nls_params(**kw)
        rng = np.random.default_rng(11)
        z = rng.standard_normal((400, *_normals_shape(probe)))
        mass = np.sum(np.abs(_coeffs_from_normals(z, probe)) ** 2, axis=1)
        # exact masses at 1 + t for |t| <= 1e-12, both sides of the bound and on it
        rel = np.linspace(-1e-12, 1e-12, 9)
        scale = np.sqrt((1.0 + rel)[:, None] / mass)[:, :, None, None]
        rows = (z[None] * scale).reshape(-1, *z.shape[1:])
        coeffs = _coeffs_from_normals(rows, probe)
        exact = np.sum(np.abs(coeffs) ** 2, axis=1)
        for radius in (1.0, *exact[:50]):  # the unit ball and balls with a row exactly on the bound
            params = nls_params(**kw, ball_radius=float(radius))
            accepted = np.flatnonzero(_batch_in_omega(coeffs, params))
            screened = _screen(rows.reshape(rows.shape[0], -1), _mass_on_normals(params), radius)
            assert accepted.size > 0
            assert np.isin(accepted, screened).all()


class TestRoundStates:
    """The block hash gives the words numpy's SeedSequence((seed, r)) gives PCG64."""

    @pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**64 + 3])
    def test_matches_seed_sequence(self, seed):
        # rounds 0 and 1, each side of a hash block and of 2**32, and 2**20
        for first, count in [(0, 2), (_HASH_ROUNDS - 2, 4), (2**32 - 2, 4), (2**20, 1)]:
            got = _round_states(seed, first, count)
            want = np.array([
                np.random.SeedSequence((seed, r)).generate_state(4, np.uint64)
                for r in range(first, first + count)
            ])
            assert got.dtype == np.uint64
            assert got.tobytes() == want.tobytes()


class TestMcmcEnsemble:
    def test_gaussian_marginals(self):
        params = nls_params(beta=0.0, ball_radius=1e9, cutoff=4)
        ens = mcmc_ensemble(6000, 0.7, params, seed=4)
        draws = np.array([f.coeffs for f in ens.samples])
        ess = effective_sample_size(ens)
        for j, n in enumerate(range(-4, 5)):
            if n == 0:
                continue
            var = np.var(draws[:, j].real)
            se = (1.0 / n**2) * math.sqrt(2.0 / ess)
            assert abs(var - 1.0 / n**2) < 6 * se

    def test_cross_method_mean(self):
        params = nls_params(p=4.0, beta=-0.5, ball_radius=2.0, cutoff=5)
        imp = importance_ensemble(3000, params, seed=5)
        mc = mcmc_ensemble(6000, 0.4, params, seed=6)
        v_imp = np.array([l2_norm_sq(f) for f in imp.samples])
        m_imp = np.average(v_imp, weights=imp.weights)
        var_imp = np.average((v_imp - m_imp) ** 2, weights=imp.weights)
        s_imp = math.sqrt(var_imp / effective_sample_size(imp))
        v_mc = np.array([l2_norm_sq(f) for f in mc.samples])
        m_mc = v_mc.mean()
        s_mc = v_mc.std() / math.sqrt(effective_sample_size(mc))
        assert abs(m_imp - m_mc) < 5 * math.hypot(s_imp, s_mc)

    def test_small_step_acceptance(self):
        params = nls_params(ball_radius=5.0, cutoff=4)
        ens = mcmc_ensemble(400, 0.01, params, seed=7, burn_in=0)
        assert ens.diagnostics["accept_fraction"] > 0.97

    def test_unit_weights(self):
        params = nls_params(beta=0.0, ball_radius=10.0, cutoff=3)
        ens = mcmc_ensemble(50, 0.3, params, seed=8)
        assert np.all(ens.weights == 1.0)

    def test_kdv_chain_stays_real(self):
        params = GibbsParams(p=4.0, beta=-1.0, ball_radius=5.0, cutoff=4, kind="kdv")
        ens = mcmc_ensemble(100, 0.3, params, seed=9)
        for f in ens.samples:
            assert np.abs(f.coeffs[::-1] - np.conj(f.coeffs)).max() < 1e-12


class TestEffectiveSampleSize:
    def _ens(self, weights):
        params = nls_params(beta=0.0, ball_radius=1e9, cutoff=1)
        fields = tuple(zero_field(1) for _ in weights)
        return GibbsEnsemble(params, fields, np.array(weights), 0, "importance")

    def test_uniform(self):
        assert effective_sample_size(self._ens([2.0] * 10)) == pytest.approx(10.0)

    def test_single_mass(self):
        assert effective_sample_size(self._ens([0, 0, 3.0, 0])) == pytest.approx(1.0)

    def test_geometric_closed_form(self):
        r, n = 0.8, 25
        w = r ** np.arange(n)
        expect = w.sum() ** 2 / np.sum(w**2)
        assert effective_sample_size(self._ens(list(w))) == pytest.approx(expect)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            effective_sample_size(self._ens([]))


class TestSerialization:
    def test_jsonl_round_trip(self, tmp_path):
        params = nls_params(cutoff=3, holder_gamma=0.3, holder_bound=4.0)
        ens = importance_ensemble(20, params, seed=10)
        path = tmp_path / "ens.jsonl"
        save_ensemble_jsonl(ens, path)
        back = load_ensemble_jsonl(path)
        assert back.params == ens.params
        assert back.method == ens.method
        assert np.array_equal(back.weights, ens.weights)
        for fa, fb in zip(back.samples, ens.samples):
            assert np.abs(fa.coeffs - fb.coeffs).max() < 1e-15

    def test_record_count_must_match_header(self, tmp_path):
        ens = importance_ensemble(5, nls_params(cutoff=3), seed=10)
        path = tmp_path / "ens.jsonl"
        save_ensemble_jsonl(ens, path)
        lines = path.read_text().splitlines(keepends=True)
        for kept in (lines[:3], lines + lines[-1:]):
            path.write_text("".join(kept))
            with pytest.raises(ValueError, match="header count 5"):
                load_ensemble_jsonl(path)
