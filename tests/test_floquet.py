import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbslab import dirac_spectrum as ds
from gibbslab import hill_spectrum as hs
from gibbslab.floquet import locate_spectral_points, rk4_transfer
from gibbslab.fourier_field import PeriodicField

STEPS = 1024
TOL = 1e-9

small = st.complex_numbers(max_magnitude=0.25, allow_nan=False, allow_infinity=False)
dirac_fields = st.lists(small, min_size=7, max_size=7).map(lambda c: PeriodicField(3, c))
real_lams = st.floats(min_value=-3.0, max_value=3.0)
lams = st.builds(complex, real_lams, st.floats(min_value=-1.0, max_value=1.0))


@st.composite
def hill_potentials(draw):
    """Real pi-periodic potentials with modes 0, +-2, +-4."""
    c0 = draw(st.floats(min_value=-0.3, max_value=0.3))
    z2, z4 = draw(small), draw(small)
    c = np.zeros(9, dtype=complex)
    c[4] = c0
    c[6], c[2] = z2, np.conj(z2)
    c[8], c[0] = z4, np.conj(z4)
    return PeriodicField(4, c)


class TestNearDoublePoint:
    def test_conjugate_pair_reported_once(self):
        # f reaches 2 - delta at z0, so f = 2 has a conjugate pair of roots
        # within imag_tol of the real axis and a dip 4 delta < double_tol
        for z0 in np.linspace(-0.9, 0.9, 7):
            for delta in (1e-8, 4e-8, 1e-7):

                def f(z):
                    w = np.pi * (np.asarray(z, dtype=complex) - z0)
                    return (2.0 - delta) * np.cos(w) + 0.01 * np.sin(w) ** 3

                roots, _ = locate_spectral_points(f, np.arange(-2.0, 2.05, 0.1))
                near = [r for r in roots if abs(r.value - z0) < 0.1]
                assert len(near) == 1, (z0, delta, near)
                assert near[0].multiplicity == 2 and near[0].level == 2.0
                assert abs(near[0].value - z0) < 1e-6


class TestEngineProperties:
    @settings(max_examples=20, deadline=None)
    @given(dirac_fields, lams)
    def test_dirac_unimodular(self, f, lam):
        assert abs(ds.monodromy(f, lam, steps=STEPS).determinant - 1.0) < TOL

    @settings(max_examples=20, deadline=None)
    @given(hill_potentials(), lams)
    def test_hill_unimodular(self, q, lam):
        assert abs(hs.hill_monodromy(q, lam, steps=STEPS).determinant - 1.0) < TOL

    @settings(max_examples=20, deadline=None)
    @given(dirac_fields, st.lists(real_lams, min_size=1, max_size=5))
    def test_dirac_real_on_real_axis(self, f, lam):
        vals = ds.discriminant_batch(f, STEPS)(np.array(lam))
        assert np.max(np.abs(vals.imag)) < TOL

    @settings(max_examples=20, deadline=None)
    @given(hill_potentials(), st.lists(real_lams, min_size=1, max_size=5))
    def test_hill_real_on_real_axis(self, q, lam):
        vals = hs.hill_discriminant_batch(q, STEPS)(np.array(lam))
        assert np.max(np.abs(vals.imag)) < TOL

    @settings(max_examples=20, deadline=None)
    @given(
        dirac_fields,
        st.floats(min_value=0.0, max_value=2 * np.pi),
        st.floats(min_value=0.0, max_value=2 * np.pi),
        st.lists(lams, min_size=1, max_size=5),
    )
    def test_dirac_translation_and_phase(self, f, shift, phase, lam):
        lam = np.array(lam)
        base = ds.discriminant_batch(f, STEPS)(lam)
        moved = PeriodicField(f.cutoff, f.coeffs * np.exp(1j * f.modes * shift))
        rotated = f * np.exp(1j * phase)
        for g in (moved, rotated):
            assert np.max(np.abs(ds.discriminant_batch(g, STEPS)(lam) - base)) < TOL


def test_engine_rejects_wrong_node_count():
    nodes = (np.zeros(128), np.ones(128), np.zeros(128), np.zeros(128))
    with pytest.raises(ValueError):
        rk4_transfer(nodes, (0.0, 0.0, -1.0, 0.0), np.pi, 64, np.array([1.0]))
