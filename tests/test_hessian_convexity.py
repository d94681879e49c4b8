import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbslab.fourier_field import (
    field_from_modes,
    kinetic_energy,
    l2_norm_sq,
    zero_field,
)
from gibbslab.gibbs_sampler import GibbsParams, importance_ensemble
from gibbslab.hessian_convexity import (
    ConvexityParams,
    Direction,
    certify_convexity,
    estimate_embedding_constants,
    hessian_form_V,
    hessian_matrix_V,
    lsi_lower_bound,
    perturbed_hamiltonians,
    w_k_perturbation,
    w_k_sup_bound,
    y_n_perturbation,
)
from conftest import bounded_below_field, hessian_fd_oracle, random_field


def random_direction(cutoff: int, seed: int) -> Direction:
    rng = np.random.default_rng(seed)
    return Direction(
        rng.standard_normal(2 * cutoff + 1), rng.standard_normal(2 * cutoff + 1)
    )


PARAMS = ConvexityParams(holder_bound=5.0)


class TestHessianForm:
    def test_p2_closed_form(self):
        f = random_field(3, 0)
        d = random_direction(3, 1)
        expect = 2.0 * d.l2_norm_sq()
        assert hessian_form_V(f, d, 2.0) == pytest.approx(expect, abs=1e-10)

    def test_zero_field_p4(self):
        d = random_direction(3, 2)
        assert hessian_form_V(zero_field(3), d, 4.0) == 0.0

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 5.0])
    def test_fd_oracle_agreement(self, p):
        for seed in range(8):
            f = bounded_below_field(4, 100 + seed)
            d = random_direction(4, 200 + seed)
            form = hessian_form_V(f, d, p)
            fd = hessian_fd_oracle(f, d, p)
            assert abs(form - fd) / (1.0 + abs(fd)) < 1e-4

    @pytest.mark.parametrize("p", [4.0, 5.0])
    def test_fd_agreement_at_field_zeros(self, p):
        # phi = 1 + e^{ix} vanishes at x = pi
        f = field_from_modes(2, {0: 1.0, 1: 1.0})
        d = random_direction(2, 3)
        form = hessian_form_V(f, d, p)
        fd = hessian_fd_oracle(f, d, p)
        assert abs(form - fd) / (1.0 + abs(fd)) < 1e-4

    def test_fd_second_order_convergence(self):
        f = bounded_below_field(3, 4)
        d = random_direction(3, 5)
        exact = hessian_form_V(f, d, 4.0)
        e1 = abs(hessian_fd_oracle(f, d, 4.0, h=2e-3) - exact)
        e2 = abs(hessian_fd_oracle(f, d, 4.0, h=1e-3) - exact)
        assert e1 / max(e2, 1e-16) > 2.0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([2.0, 3.0, 4.0, 5.0]))
    def test_nonnegative(self, seed, p):
        f = bounded_below_field(3, seed)
        d = random_direction(3, seed + 1)
        assert hessian_form_V(f, d, p) >= -1e-9

    @settings(max_examples=20, deadline=None)
    @given(st.floats(-4.0, 4.0).filter(lambda c: abs(c) > 1e-3))
    def test_bilinearity(self, c):
        f = bounded_below_field(3, 6)
        d = random_direction(3, 7)
        base = hessian_form_V(f, d, 4.0)
        scaled = hessian_form_V(f, d.scaled(c), 4.0)
        assert scaled == pytest.approx(c * c * base, rel=1e-10, abs=1e-10)

    def test_matrix_matches_form(self):
        # every entry against the polarised finite-difference oracle
        f = bounded_below_field(2, 8)
        d = 2 * (2 * f.cutoff + 1)
        basis = np.eye(d)

        def fd(v, p):
            return hessian_fd_oracle(f, Direction(v[: d // 2], v[d // 2 :]), p)

        for p in (3.0, 4.0):
            H = hessian_matrix_V(f, p)
            assert np.abs(H - H.T).max() < 1e-12
            for i in range(d):
                for j in range(i, d):
                    e_i, e_j = basis[i], basis[j]
                    polar = (fd(e_i + e_j, p) - fd(e_i - e_j, p)) / 4.0
                    assert H[i, j] == pytest.approx(polar, abs=1e-5 * np.abs(H).max())


class TestPerturbations:
    def test_wk_zero_field(self):
        assert w_k_perturbation(zero_field(4), -1.0, 4.0, PARAMS) == 0.0

    def test_wk_beta_zero_level_one(self):
        f = random_field(4, 9)
        assert PARAMS.truncation_level(0.0) == 1
        low = np.sum(np.abs(f.coeffs[3:6]) ** 2)  # modes -1, 0, 1
        assert w_k_perturbation(f, 0.0, 4.0, PARAMS) == pytest.approx(low, rel=1e-12)

    def test_wk_sup_bound_on_ball_samples(self):
        params = GibbsParams(p=4.0, beta=-1.0, ball_radius=1.0, cutoff=6)
        ens = importance_ensemble(40, params, seed=10)
        bound = w_k_sup_bound(-1.0, 1.0, PARAMS)
        for f in ens.samples:
            assert w_k_perturbation(f, -1.0, 4.0, PARAMS) <= bound + 1e-9

    def test_yn_zero_cases(self):
        assert y_n_perturbation(zero_field(3), -1.0, 1.0, PARAMS) == 0.0
        f = random_field(3, 11)
        assert y_n_perturbation(f, 0.0, 1.0, PARAMS) == 0.0

    def test_yn_recomputation(self):
        f = random_field(3, 12)
        beta, N = -0.7, 1.3
        d = PARAMS.delta
        rate = (1 - d) * (abs(beta) * PARAMS.c_delta * N) ** (1.0 / (1 - d))
        assert y_n_perturbation(f, beta, N, PARAMS) == pytest.approx(
            rate * l2_norm_sq(f), rel=1e-12
        )

    def test_perturbed_hamiltonians_beta_zero(self):
        f = random_field(4, 13)
        vals = perturbed_hamiltonians(f, 0.0, 4.0, 1.0, PARAMS)
        kin = kinetic_energy(f)
        for key in ("H", "H_K", "G_N"):
            assert vals[key] == pytest.approx(kin, rel=1e-12)

    def test_perturbed_hamiltonians_zero_field(self):
        vals = perturbed_hamiltonians(zero_field(3), -1.0, 4.0, 1.0, PARAMS)
        assert vals == {"H": 0.0, "H_K": 0.0, "G_N": 0.0}

    def test_hk_minus_h_is_wk(self):
        f = random_field(4, 14)
        beta = -0.9
        vals = perturbed_hamiltonians(f, beta, 4.0, 1.0, PARAMS)
        assert vals["H_K"] - vals["H"] == pytest.approx(
            w_k_perturbation(f, beta, 4.0, PARAMS), rel=1e-12
        )


class TestCertification:
    def test_kinetic_case_exact(self):
        rep = certify_convexity(
            "H", zero_field(6), 0.0, 4.0, 1.0, PARAMS, weight="h1", paper_bound=1.0
        )
        assert rep.certified
        assert rep.min_eigenvalue == pytest.approx(1.0, abs=1e-12)

    def test_gn_on_ball_samples(self):
        params = GibbsParams(p=4.0, beta=-1.0, ball_radius=1.0, cutoff=8)
        ens = importance_ensemble(5, params, seed=15)
        for f in ens.samples:
            rep = certify_convexity("G_N", f, -1.0, 4.0, 1.0, PARAMS, weight="h1")
            assert rep.paper_bound == pytest.approx(0.5 * (1 - PARAMS.delta))
            assert rep.certified

    def test_p2_quadratic_energy(self):
        # V is quadratic for p = 2, so HessV is PSD and H is uniformly
        # convex in the defocusing direction
        f = random_field(4, 16)
        H = hessian_matrix_V(f, 2.0)
        assert np.linalg.eigvalsh(H)[0] >= -1e-10
        rep = certify_convexity(
            "H", f, 1.0, 2.0, 1.0, PARAMS, weight="l2", paper_bound=0.0
        )
        assert rep.min_eigenvalue > 0

    def test_hk_certification(self):
        params = GibbsParams(
            p=4.0, beta=-0.05, ball_radius=0.5, cutoff=4,
            holder_gamma=0.3, holder_bound=2.0,
        )
        cp = ConvexityParams(holder_bound=2.0)
        ens = importance_ensemble(3, params, seed=17)
        for f in ens.samples:
            rep = certify_convexity("H_K", f, -0.05, 4.0, 0.5, cp, weight="h_delta")
            assert rep.certified

    def test_cutoff_limit(self):
        with pytest.raises(ValueError):
            certify_convexity("H", zero_field(17), 0.0, 4.0, 1.0, PARAMS)


class TestLsiBound:
    def test_beta_zero_is_eta(self):
        assert lsi_lower_bound(0.0, 4.0, 1.0, PARAMS, eta=0.25) == 0.25

    def test_monotone_in_mass(self):
        a1 = lsi_lower_bound(-1.0, 4.0, 1.0, PARAMS, eta=0.25, route="ball")
        a2 = lsi_lower_bound(-1.0, 4.0, 2.0, PARAMS, eta=0.25, route="ball")
        assert 0 < a2 < a1

    def test_hand_evaluation(self):
        # ball route: alpha = eta * exp(-2 (1-d) (|b| C_d)^{1/(1-d)} N^{(2-d)/(1-d)})
        d, cd, beta, N, eta = PARAMS.delta, PARAMS.c_delta, -0.5, 0.8, 0.25
        sup = (1 - d) * (abs(beta) * cd) ** (1 / (1 - d)) * N ** ((2 - d) / (1 - d))
        expect = eta * math.exp(-2 * sup)
        got = lsi_lower_bound(beta, 4.0, N, PARAMS, eta=eta, route="ball")
        assert got == pytest.approx(expect, rel=1e-12)

    def test_holder_route_hand_evaluation(self):
        beta, N, eta = -0.01, 0.05, 0.25
        level = PARAMS.truncation_level(beta)
        growth = PARAMS.growth_factor(beta)
        expect = eta * math.exp(-2 * growth * level ** (2 * PARAMS.delta) * N)
        got = lsi_lower_bound(beta, 4.0, N, PARAMS, eta=eta, route="holder")
        assert got == pytest.approx(expect, rel=1e-12)


class TestEmbeddingEstimates:
    def test_estimates_reasonable(self):
        est = estimate_embedding_constants(trials=200, seed=1)
        # lower-bound estimates of the true constants, which are 1 and
        # sqrt(1 + 2 zeta(1.5)) ~ 2.495 for these exponents
        assert 0.5 < est["c_gamma"] <= 1.000001
        assert 1.0 < est["c_delta"] < 2.5
        assert est["kappa"] == pytest.approx(24.0)
