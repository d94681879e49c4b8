import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbslab.fourier_field import (
    PeriodicField,
    field_from_modes,
    kinetic_energy,
    l2_norm_sq,
    lp_integral,
    sobolev_norm_sq,
    sup_norm,
    zero_field,
)
from gibbslab.gibbs_sampler import GibbsParams, importance_ensemble
from gibbslab.hessian_convexity import (
    ConvexityParams,
    _functional_hessian,
    certify_convexity,
    embedding_constants,
    hessian_matrix_V,
    lsi_lower_bound,
    perturbed_hamiltonians,
    w_k_perturbation,
    w_k_sup_bound,
    y_n_perturbation,
)
from conftest import bounded_below_field, hessian_fd_oracle, random_field


def random_direction(cutoff: int, seed: int) -> np.ndarray:
    """Random coordinate vector (xi, eta) of the fields of the given cutoff."""
    return np.random.default_rng(seed).standard_normal(2 * (2 * cutoff + 1))


def form(f, v, p):
    return v @ hessian_matrix_V(f, p) @ v


PARAMS = ConvexityParams(holder_bound=5.0)


class TestHessianForm:
    def test_p2_closed_form(self):
        f = random_field(3, 0)
        d = random_direction(3, 1)
        assert form(f, d, 2.0) == pytest.approx(2.0 * d @ d, abs=1e-10)

    def test_zero_field_p4(self):
        d = random_direction(3, 2)
        assert form(zero_field(3), d, 4.0) == 0.0

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 5.0])
    def test_fd_oracle_agreement(self, p):
        for seed in range(8):
            f = bounded_below_field(4, 100 + seed)
            d = random_direction(4, 200 + seed)
            fd = hessian_fd_oracle(f, d, p)
            assert abs(form(f, d, p) - fd) / (1.0 + abs(fd)) < 1e-4

    @pytest.mark.parametrize("p", [4.0, 5.0])
    def test_fd_agreement_at_field_zeros(self, p):
        # phi = 1 + e^{ix} vanishes at x = pi
        f = field_from_modes(2, {0: 1.0, 1: 1.0})
        d = random_direction(2, 3)
        fd = hessian_fd_oracle(f, d, p)
        assert abs(form(f, d, p) - fd) / (1.0 + abs(fd)) < 1e-4

    def test_fd_second_order_convergence(self):
        f = bounded_below_field(3, 4)
        d = random_direction(3, 5)
        exact = form(f, d, 4.0)
        e1 = abs(hessian_fd_oracle(f, d, 4.0, h=2e-3) - exact)
        e2 = abs(hessian_fd_oracle(f, d, 4.0, h=1e-3) - exact)
        assert e1 / max(e2, 1e-16) > 2.0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([2.0, 3.0, 4.0, 5.0]))
    def test_nonnegative(self, seed, p):
        f = bounded_below_field(3, seed)
        d = random_direction(3, seed + 1)
        assert form(f, d, p) >= -1e-9

    def test_matrix_matches_form(self):
        # every entry against the polarised finite-difference oracle
        f = bounded_below_field(2, 8)
        d = 2 * (2 * f.cutoff + 1)
        basis = np.eye(d)

        for p in (3.0, 4.0):
            H = hessian_matrix_V(f, p)
            assert np.abs(H - H.T).max() < 1e-12
            for i in range(d):
                for j in range(i, d):
                    e_i, e_j = basis[i], basis[j]
                    polar = (
                        hessian_fd_oracle(f, e_i + e_j, p) - hessian_fd_oracle(f, e_i - e_j, p)
                    ) / 4.0
                    assert H[i, j] == pytest.approx(polar, abs=1e-5 * np.abs(H).max())


class TestParams:
    def test_kappa_p_follows_c_delta(self):
        assert PARAMS.kappa_p == 150.0
        cp = ConvexityParams(c_delta=2.0, holder_bound=5.0)
        assert cp.kappa_p == 96.0
        assert cp.growth_factor(-1.0) == 1.0 + 96.0 * 25.0


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

    def test_functional_hessians_are_fd_hessians_of_the_values(self):
        # the certificate's matrices against the polarised second differences
        # of the functionals themselves, in the coordinates (a_n, b_n)
        f, beta, N, h = random_field(3, 18), -1.0, 1.0, 1e-3
        d = 2 * (2 * f.cutoff + 1)
        basis = np.eye(d)

        def values(v):
            xi, eta = np.split(v, 2)
            shifted = PeriodicField(f.cutoff, f.coeffs + xi + 1j * eta)
            return perturbed_hamiltonians(shifted, beta, 4.0, N, PARAMS)

        def even_part(u):  # F(hu) + F(-hu), whose F(0) terms cancel below
            vp, vm = values(h * u), values(-h * u)
            return {k: vp[k] + vm[k] for k in vp}

        fd = {k: np.zeros((d, d)) for k in ("H", "H_K", "G_N")}
        for i in range(d):
            for j in range(i, d):
                plus = even_part(basis[i] + basis[j])
                minus = even_part(basis[i] - basis[j])
                for k in fd:
                    fd[k][i, j] = fd[k][j, i] = (plus[k] - minus[k]) / (4.0 * h * h)
        for k, approx in fd.items():
            exact = _functional_hessian(k, f, beta, 4.0, N, PARAMS)
            assert np.abs(exact - approx).max() <= 1e-5 * np.abs(exact).max()

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


class TestEmbeddingConstants:
    def test_c_delta_is_attained_and_never_exceeded(self):
        rng = np.random.default_rng(1)
        for delta in (0.6, 0.75, 0.9):
            for cutoff in (4, 12):
                est = embedding_constants(delta, cutoff)
                assert (est["c_gamma"], est["kappa"]) == (1.0, 24.0)
                assert est["kappa_p"] == pytest.approx(24.0 * est["c_delta"] ** 2, rel=1e-15)
                ns = np.abs(np.arange(-cutoff, cutoff + 1))
                weights = np.where(ns > 0, ns ** (2.0 * delta), 1.0)
                best = PeriodicField(cutoff, 1.0 / weights)  # peaks at x = 0
                ratio = sup_norm(best) / math.sqrt(sobolev_norm_sq(best, delta))
                assert ratio == pytest.approx(est["c_delta"], rel=1e-12)
                for _ in range(100):
                    mag = (1.0 + ns) ** (-rng.uniform(0.3, 2.0))
                    f = PeriodicField(
                        cutoff, mag * (rng.standard_normal(ns.size) + 1j * rng.standard_normal(ns.size))
                    )
                    hd = math.sqrt(sobolev_norm_sq(f, delta))
                    assert sup_norm(f) <= est["c_delta"] * hd * (1.0 + 1e-12)
                    # c_gamma = 1: the L^2 norm never exceeds the H^gamma norm
                    assert math.sqrt(lp_integral(f, 2.0)) <= math.sqrt(sobolev_norm_sq(f, 0.3)) * (1.0 + 1e-12)

    def test_default_c_delta_bounds_every_cutoff_at_delta_075(self):
        # the full-space constant is sqrt(1 + 2 zeta(3/2)), zeta(3/2) = 2.6123753486854883
        full = math.sqrt(1.0 + 2.0 * 2.6123753486854883)
        assert embedding_constants(0.75, 10**6)["c_delta"] < full < PARAMS.c_delta
