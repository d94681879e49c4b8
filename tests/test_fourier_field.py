import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbslab.fourier_field import (
    GridTooSmallError,
    PeriodicField,
    default_grid_size,
    evaluate,
    field_from_json,
    field_from_modes,
    field_to_json,
    hamiltonian,
    is_real_valued,
    kdv_hamiltonian,
    kinetic_energy,
    l2_norm_sq,
    lp_integral,
    sobolev_norm_sq,
    zero_field,
)
from conftest import coefficients_from_grid, random_field


class TestEvaluate:
    def test_zero_field_grid(self):
        sig = evaluate(zero_field(2), 8)
        assert np.all(sig.values == 0)

    def test_single_mode(self):
        f = field_from_modes(1, {1: 1.0})
        sig = evaluate(f, 8)
        expect = np.exp(1j * 2 * np.pi * np.arange(8) / 8)
        assert np.abs(sig.values - expect).max() < 1e-14

    def test_round_trip(self):
        f = random_field(4, 1)
        back = coefficients_from_grid(evaluate(f, 16), 4)
        assert np.abs(back.coeffs - f.coeffs).max() < 1e-12

    def test_grid_too_small(self):
        with pytest.raises(GridTooSmallError):
            evaluate(random_field(4, 2), 9)


class TestNorms:
    def test_l2_single_mode(self):
        assert l2_norm_sq(field_from_modes(1, {1: 1.0})) == 1.0

    def test_l2_two_modes(self):
        # a_1 = 1 and b_{-2} = 2, i.e. coefficient 2i at n = -2
        f = field_from_modes(2, {1: 1.0, -2: 2.0j})
        assert l2_norm_sq(f) == pytest.approx(5.0, abs=1e-14)

    def test_l2_quadrature_oracle(self):
        f = random_field(6, 3)
        g = default_grid_size(6)
        quad = np.mean(np.abs(evaluate(f, g).values) ** 2)
        assert abs(l2_norm_sq(f) - quad) < 1e-10

    def test_sobolev_constant_mode(self):
        f = field_from_modes(0, {0: 3.0})
        for gamma in (0.0, 0.3, 1.0):
            assert sobolev_norm_sq(f, gamma) == pytest.approx(9.0)

    def test_sobolev_weight(self):
        f = field_from_modes(2, {2: 1.0})
        assert sobolev_norm_sq(f, 0.5) == pytest.approx(2.0)

    def test_sobolev_gamma_zero_matches_l2(self):
        f = random_field(5, 4)
        assert sobolev_norm_sq(f, 0.0) == pytest.approx(l2_norm_sq(f), abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.floats(0.0, 2.0), st.floats(0.0, 2.0))
    def test_sobolev_monotone_in_gamma(self, seed, g1, g2):
        f = random_field(6, seed)
        c = np.array(f.coeffs)
        c[6] = 0.0  # zero-mean field
        f = PeriodicField(6, c)
        lo, hi = min(g1, g2), max(g1, g2)
        assert sobolev_norm_sq(f, lo) <= sobolev_norm_sq(f, hi) + 1e-12

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 64))
    def test_parseval_invariant(self, seed, cutoff):
        f = random_field(cutoff, seed)
        g = max(default_grid_size(cutoff), 4 * (cutoff + 1))
        quad = np.mean(np.abs(evaluate(f, g).values) ** 2)
        assert abs(l2_norm_sq(f) - quad) < 1e-9


class TestLpIntegral:
    def test_unimodular_field(self):
        f = field_from_modes(1, {1: 1.0})
        for p in (2.0, 3.0, 4.0, 5.5):
            assert lp_integral(f, p) == pytest.approx(1.0, abs=1e-12)

    def test_constant_field(self):
        f = field_from_modes(0, {0: -1.5 + 0.5j})
        c = abs(-1.5 + 0.5j)
        assert lp_integral(f, 3.0) == pytest.approx(c**3, rel=1e-12)

    def test_grid_refinement(self):
        f = random_field(4, 5)
        assert abs(lp_integral(f, 4.0, 64) - lp_integral(f, 4.0, 4096)) < 1e-9

    def test_p2_matches_l2(self):
        f = random_field(7, 6)
        assert abs(lp_integral(f, 2.0) - l2_norm_sq(f)) < 1e-10

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            lp_integral(random_field(2, 7), 1.5)


class TestHamiltonians:
    def test_single_mode_closed_form(self):
        f = field_from_modes(1, {1: 1.0})
        assert hamiltonian(f, 4.0, -1.0) == pytest.approx(0.25, abs=1e-12)

    def test_zero_field(self):
        assert hamiltonian(zero_field(3), 4.0, 2.0) == 0.0

    def test_term_by_term_recomputation(self):
        f = random_field(5, 8)
        p, beta = 3.5, 0.7
        ns = f.modes
        kin = 0.5 * np.sum(ns.astype(float) ** 2 * np.abs(f.coeffs) ** 2)
        pot = (beta / p) * np.mean(
            np.abs(evaluate(f, default_grid_size(5)).values) ** p
        )
        assert hamiltonian(f, p, beta) == pytest.approx(kin + pot, abs=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6))
    def test_beta_zero_is_kinetic(self, seed):
        f = random_field(4, seed)
        assert hamiltonian(f, 4.0, 0.0) == pytest.approx(kinetic_energy(f), abs=1e-13)

    def test_kdv_cosine(self):
        q = field_from_modes(1, {1: 1.0, -1: 1.0})  # 2 cos x
        assert kdv_hamiltonian(q, -3.0) == pytest.approx(1.0, abs=1e-12)

    def test_kdv_zero(self):
        assert kdv_hamiltonian(zero_field(2), 1.0) == 0.0

    def test_kdv_constant(self):
        beta, c = 0.8, -1.2
        q = field_from_modes(0, {0: c})
        assert kdv_hamiltonian(q, beta) == pytest.approx(-(beta / 6.0) * c**3, rel=1e-12)

    def test_kdv_rejects_complex(self):
        with pytest.raises(ValueError):
            kdv_hamiltonian(field_from_modes(1, {1: 1.0}), 1.0)


class TestSerialization:
    def test_wire_format(self):
        f = field_from_modes(1, {-1: 0.5 - 2.0j, 1: 1.0})
        obj = field_to_json(f)
        assert obj == {
            "cutoff": 1,
            "coeffs": [[-1, 0.5, -2.0], [0, 0.0, 0.0], [1, 1.0, 0.0]],
        }
        assert json.dumps(obj)  # serializable

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 12))
    def test_round_trip(self, seed, cutoff):
        f = random_field(cutoff, seed)
        back = field_from_json(field_to_json(f))
        assert back.cutoff == f.cutoff
        assert np.abs(back.coeffs - f.coeffs).max() < 1e-15

    def test_rejects_unsorted_modes(self):
        with pytest.raises(ValueError):
            field_from_json({"cutoff": 1, "coeffs": [[1, 0, 0], [-1, 0, 0]]})

    def test_real_valued_predicate(self):
        q = field_from_modes(2, {2: 1 + 1j, -2: 1 - 1j})
        assert is_real_valued(q)
        assert not is_real_valued(field_from_modes(1, {1: 1.0}))


class TestImmutability:
    def test_coeffs_read_only(self):
        f = random_field(2, 9)
        with pytest.raises(ValueError):
            f.coeffs[0] = 1.0
