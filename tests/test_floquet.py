import inspect
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbslab import concentration_harness as ch
from gibbslab import dirac_spectrum as ds
from gibbslab import floquet
from gibbslab import hill_spectrum as hs
from gibbslab.floquet import (
    DOUBLE_TOL,
    SEGMENT_LANES,
    TAYLOR_ORDER,
    _segment_count,
    locate_spectral_points,
    rk4_transfer,
    step_polynomials,
)
from gibbslab.fourier_field import PeriodicField
from conftest import (
    dirac_rk4_nodes,
    hill_rk4_nodes,
    picard_monodromy,
    random_field,
    real_even_field,
    rk4_staged_oracle,
    rk4_step_polynomials,
)

STEPS = 1024
TOL = 1e-9
# 101 steps always run unsegmented; the others reach the largest segment
# count the batch allows
STEP_COUNTS = (64, 96, 101, 512, 1024)


def step_tol(steps: int) -> float:
    """TOL at 1,024 steps, grown like h^5 as RK4's det Psi - 1 over a period;
    the Taylor steps of order TAYLOR_ORDER stay far below it."""
    return TOL * (STEPS / steps) ** 5


def system_args(system: str, field: PeriodicField, steps: int):
    """(B's Taylor coefficients at the step starts, C, period) of the Dirac or Hill system."""
    if system == "dirac":
        return ds._dirac_nodes(field, steps), ds._DIRAC_C, 2 * np.pi
    return hs._hill_nodes(field, steps), hs._HILL_C, np.pi


def rk4_args(system: str, field: PeriodicField, steps: int):
    """(B at the RK4 nodes, C, period) of the Dirac or Hill system."""
    if system == "dirac":
        return dirac_rk4_nodes(field, steps), ds._DIRAC_C, 2 * np.pi
    return hill_rk4_nodes(field, steps), hs._HILL_C, np.pi


def transfer(system: str, field: PeriodicField, steps: int, lam):
    """The four monodromy entries of the Dirac or Hill system on a batch."""
    step_poly = step_polynomials(*system_args(system, field, steps), steps)
    return rk4_transfer(step_poly, steps, lam)


def unsegmented(system: str, field: PeriodicField, steps: int, lam: np.ndarray) -> np.ndarray:
    """Entries at ``lam`` from a batch padded past SEGMENT_LANES / 2, so k = 1."""
    padded = np.concatenate([lam, np.zeros(SEGMENT_LANES + 1 - lam.size)])
    return np.array(transfer(system, field, steps, padded))[:, : lam.size]


small = st.complex_numbers(max_magnitude=0.25, allow_nan=False, allow_infinity=False)
dirac_fields = st.lists(small, min_size=7, max_size=7).map(lambda c: PeriodicField(3, c))
real_lams = st.floats(min_value=-3.0, max_value=3.0)
lams = st.builds(complex, real_lams, st.floats(min_value=-1.0, max_value=1.0))
step_counts = st.sampled_from(STEP_COUNTS)


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


@st.composite
def lam_batches(draw, real: bool = False):
    """1 to 600 spectral parameters in the box |Re| <= 3, |Im| <= 1."""
    n = draw(st.integers(min_value=1, max_value=600))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    lam = rng.uniform(-3.0, 3.0, n)
    return lam if real else lam + 1j * rng.uniform(-1.0, 1.0, n)


CENTERS = np.linspace(-0.9, 0.9, 7)


def near_double_roots(z0: float, peak: float) -> list:
    """Located points within 0.1 of z0 for f = peak cos(pi(z - z0)) + 0.01 sin^3."""

    def f(z):
        w = np.pi * (np.asarray(z, dtype=complex) - z0)
        return peak * np.cos(w) + 0.01 * np.sin(w) ** 3

    roots = locate_spectral_points(f, np.arange(-2.0, 2.05, 0.1))
    return [r for r in roots if abs(r.value - z0) < 0.1]


class TestNearDoublePoint:
    """A dip 4 delta below DOUBLE_TOL is one double point at the critical point z0."""

    def test_conjugate_pair_reported_once(self):
        # f reaches 2 - delta at z0: f = 2 has a conjugate pair just off the axis
        for z0, delta in itertools.product(CENTERS, (1e-8, 4e-8, 1e-7)):
            near = near_double_roots(z0, 2.0 - delta)
            assert len(near) == 1, (z0, delta, near)
            assert near[0].multiplicity == 2 and near[0].level == 2.0
            assert abs(near[0].value - z0) < 1e-6

    def test_real_pair_reported_once(self):
        # f reaches 2 + delta at z0: f = 2 has two real roots about
        # 2 sqrt(delta) / pi apart, with the critical point between them
        for z0, delta in itertools.product(CENTERS, (1e-8, 4e-8, 1e-7)):
            near = near_double_roots(z0, 2.0 + delta)
            assert len(near) == 1, (z0, delta, near)
            assert near[0].multiplicity == 2 and near[0].level == 2.0
            assert abs(near[0].value - z0) < 1e-6

    def test_dip_above_double_tol(self):
        # delta = 1e-5: the dip 4e-5 exceeds DOUBLE_TOL, so the real pair
        # stays two simple roots about 1.0e-3 from z0 and the conjugate pair,
        # 1.0e-3 off the axis (beyond IMAG_TOL), gives no root
        delta = 1e-5
        assert 4.0 * delta > DOUBLE_TOL
        for z0 in CENTERS:
            near = near_double_roots(z0, 2.0 + delta)
            assert [(r.multiplicity, r.level) for r in near] == [(1, 2.0), (1, 2.0)], (z0, near)
            for r, side in zip(near, (-1.0, 1.0)):
                assert abs((r.value - z0) * side - 1.0066e-3) < 1e-6
            assert near_double_roots(z0, 2.0 - delta) == []


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
    @given(dirac_fields, hill_potentials(), lam_batches(), step_counts)
    def test_batch_unimodular(self, f, q, lam, steps):
        for system, field in (("dirac", f), ("hill", q)):
            m = transfer(system, field, steps, lam)
            assert np.max(np.abs(m[0] * m[3] - m[1] * m[2] - 1.0)) < step_tol(steps)

    @settings(max_examples=20, deadline=None)
    @given(dirac_fields, lam_batches(real=True), step_counts)
    def test_dirac_real_on_real_axis(self, f, lam, steps):
        vals = ds.discriminant_batch(f, steps)(lam)
        assert np.max(np.abs(vals.imag)) < TOL

    @settings(max_examples=20, deadline=None)
    @given(hill_potentials(), lam_batches(real=True), step_counts)
    def test_hill_real_on_real_axis(self, q, lam, steps):
        vals = hs.hill_discriminant_batch(q, steps)(lam)
        assert np.max(np.abs(vals.imag)) < TOL

    @settings(max_examples=20, deadline=None)
    @given(
        dirac_fields,
        st.floats(min_value=0.0, max_value=2 * np.pi),
        st.floats(min_value=0.0, max_value=2 * np.pi),
        lam_batches(),
        step_counts,
    )
    def test_dirac_translation_and_phase(self, f, shift, phase, lam, steps):
        base = ds.discriminant_batch(f, steps)(lam)
        moved = PeriodicField(f.cutoff, f.coeffs * np.exp(1j * f.modes * shift))
        rotated = f * np.exp(1j * phase)
        for g in (moved, rotated):
            diff = ds.discriminant_batch(g, steps)(lam) - base
            assert np.max(np.abs(diff)) < step_tol(steps)


class TestSegmentation:
    """Small batches run as k segments along x; results match k = 1 to rounding."""

    FIELDS = {
        "dirac": random_field(6, 11, scale=0.4),
        "hill": real_even_field(8, 12, scale=1.0),
    }
    # Dirac: a strip around the real axis; Hill: past lambda = 112 on the
    # right and into the growing region on the left
    BOXES = {"dirac": ((-8.0, 8.0), (-1.0, 1.0)), "hill": ((-6.0, 120.0), (-2.0, 2.0))}

    def test_segment_count(self):
        assert _segment_count(512, 1) == 512
        assert _segment_count(512, 32) == 128
        assert _segment_count(1024, 300) == 8
        assert _segment_count(96, 1) == 32
        assert _segment_count(100, 1) == 4
        assert _segment_count(101, 1) == 1
        assert _segment_count(4096, 2048) == 2
        assert _segment_count(4096, 2049) == 1

    @pytest.mark.parametrize("system", ["dirac", "hill"])
    @pytest.mark.parametrize("steps", [512, 1024])
    def test_matches_unsegmented(self, system, steps):
        field = self.FIELDS[system]
        (re_lo, re_hi), (im_lo, im_hi) = self.BOXES[system]
        rng = np.random.default_rng(steps)
        sizes = (1, 7, 32, 300)
        lam = rng.uniform(re_lo, re_hi, sum(sizes)) + 1j * rng.uniform(im_lo, im_hi, sum(sizes))
        ref = unsegmented(system, field, steps, lam)
        scale = np.max(np.abs(ref), axis=0)
        start = 0
        for n in sizes:
            assert _segment_count(steps, n) > 1
            got = np.array(transfer(system, field, steps, lam[start : start + n]))
            err = np.abs(got - ref[:, start : start + n]) / scale[start : start + n]
            assert np.max(err) < 1e-12, (n, np.max(err))
            start += n

    @pytest.mark.parametrize("steps", [96, 100, 101])
    def test_steps_not_a_power_of_two(self, steps):
        f = random_field(3, 4, scale=0.3)
        lam = np.array([0.7, -1.3 + 0.4j, 2.1 - 0.2j])
        got = np.array(transfer("dirac", f, steps, lam))
        assert np.max(np.abs(got - unsegmented("dirac", f, steps, lam))) < 1e-12
        for i, mu in enumerate(lam):
            # 3-6e-7 against the oracle at h = 2 pi / 96, the oracle's own
            # quadrature error; the Taylor steps' error is far smaller
            ref = picard_monodromy(f, mu, grid=8192)
            assert np.max(np.abs(got[:, i].reshape(2, 2) - ref)) < 1e-5

    def test_lam_shape_preserved(self):
        f = self.FIELDS["dirac"]
        grid = np.linspace(-3.0, 3.0, 12).reshape(3, 4) + 0.25j
        flat = np.array(transfer("dirac", f, 512, grid.ravel()))
        for lam, ref in ((grid, flat), (grid[0], flat[:, :4]), (grid[1, 2], flat[:, 6])):
            out = transfer("dirac", f, 512, lam)
            assert all(entry.shape == np.shape(lam) for entry in out)
            got = np.array(out).reshape(4, -1)
            assert np.allclose(got, ref.reshape(4, -1), rtol=1e-12, atol=1e-12)

    def test_overflow_raises(self):
        # deep in the growing region of Hill: the entries pass 1e308
        # and it raises the typed error alone, without numpy warnings first
        with pytest.raises(FloatingPointError), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            transfer("hill", self.FIELDS["hill"], 512, np.array([-1e6, 1.0]))


class TestStepPolynomials:
    """One step is Psi -> Psi + Q(lam) Psi, Q built once per field."""

    FIELDS = TestSegmentation.FIELDS
    BOXES = TestSegmentation.BOXES

    @pytest.mark.parametrize("system", ["dirac", "hill"])
    @pytest.mark.parametrize("steps", STEP_COUNTS)
    def test_matches_staged_oracle(self, system, steps):
        # the loop on RK4 step polynomials reproduces the staged RK4 loop
        args = rk4_args(system, self.FIELDS[system], steps)
        step_poly = rk4_step_polynomials(*args, steps)
        (re_lo, re_hi), (im_lo, im_hi) = self.BOXES[system]
        rng = np.random.default_rng(steps)
        for n in (1, 7, 32, 300, SEGMENT_LANES + 1):
            lam = rng.uniform(re_lo, re_hi, n) + 1j * rng.uniform(im_lo, im_hi, n)
            ref = np.array(rk4_staged_oracle(*args, steps, lam))
            got = np.array(rk4_transfer(step_poly, steps, lam))
            err = np.abs(got - ref) / np.max(np.abs(ref), axis=0)
            assert np.max(err) < 1e-13, (n, np.max(err))

    @pytest.mark.parametrize(
        "system, degree", [("dirac", TAYLOR_ORDER), ("hill", TAYLOR_ORDER // 2)]
    )
    def test_degree_and_dtype(self, system, degree):
        step_poly = step_polynomials(*system_args(system, self.FIELDS[system], 512), 512)
        assert step_poly.shape == (degree + 1, 4, 512)
        assert step_poly.dtype == np.float64
        assert np.all(np.any(step_poly[degree] != 0.0, axis=0))

    @pytest.mark.parametrize("system", ["dirac", "hill"])
    def test_blocks_do_not_change_the_build(self, system, monkeypatch):
        # every step's polynomial depends on its own samples alone
        args = system_args(system, self.FIELDS[system], 200)
        whole = step_polynomials(*args, 200)
        monkeypatch.setattr(floquet, "STEP_BLOCK", 64)
        assert np.array_equal(step_polynomials(*args, 200), whole)

    def test_complex_b_or_c_rejected(self):
        nodes, c, length = system_args("dirac", self.FIELDS["dirac"], 64)
        with pytest.raises(ValueError, match="real"):
            step_polynomials((nodes[0] + 0.1j, *nodes[1:]), c, length, 64)
        with pytest.raises(ValueError, match="real"):
            step_polynomials(nodes, (0.0, -0.5j, 0.5, 0.0), length, 64)

    def test_closure_builds_once(self, monkeypatch):
        built = []
        original = floquet.step_polynomials

        def counting(*args):
            built.append(args[-1])
            return original(*args)

        monkeypatch.setattr(floquet, "step_polynomials", counting)
        disc = ds.discriminant_batch(self.FIELDS["dirac"], 512)
        for lam in (np.array([0.5]), np.linspace(-3.0, 3.0, 40), np.array([1.0 + 0.2j])):
            disc(lam)
        assert built == [512]
        hs.hill_periodic_spectrum(self.FIELDS["hill"], 30.0, steps=1024)
        assert built == [512, 1024]


def unit_mass(field: PeriodicField) -> PeriodicField:
    return field * (1.0 / np.sqrt(np.sum(np.abs(field.coeffs) ** 2)))


class TestTaylorSteps:
    """Order-TAYLOR_ORDER steps against closed forms and against RK4's budgets."""

    ZERO = PeriodicField(8, np.zeros(17))
    # unit-mass members at the benchmark's cutoff
    DIRAC_MEMBERS = [unit_mass(random_field(8, seed)) for seed in (31, 32, 33)]
    HILL_MEMBERS = [unit_mass(real_even_field(8, seed)) for seed in (41, 42, 43)]

    @pytest.mark.parametrize("steps", [64, 128, 256])
    def test_free_fields_match_closed_forms(self, steps):
        rng = np.random.default_rng(steps)
        re_d, re_h = rng.uniform(-2.0, 2.0, 50), rng.uniform(-1.0, 4.0, 50)
        lam_d = np.concatenate([re_d, re_d + 1j * rng.uniform(-0.5, 0.5, 50)])
        lam_h = np.concatenate([re_h, re_h + 1j * rng.uniform(-1.0, 1.0, 50)])
        dirac = ds.discriminant_batch(self.ZERO, steps)(lam_d)
        assert np.max(np.abs(dirac - 2.0 * np.cos(np.pi * lam_d))) < 1e-12
        hill = hs.hill_discriminant_batch(self.ZERO, steps)(lam_h)
        assert np.max(np.abs(hill - 2.0 * np.cos(np.pi * np.sqrt(lam_h)))) < 1e-12

    @staticmethod
    def budget_errors(system, field, lam, new_steps, old_steps, ref_steps):
        """Error in Delta over max(1, |Delta|) of the Taylor steps at ``new_steps``
        and of RK4 at ``old_steps``, against the Taylor steps at ``ref_steps``."""
        ref = np.array(transfer(system, field, ref_steps, lam))
        new = np.array(transfer(system, field, new_steps, lam))
        args = rk4_args(system, field, old_steps)
        old = np.array(rk4_transfer(rk4_step_polynomials(*args, old_steps), old_steps, lam))
        scale = np.maximum(1.0, np.abs(ref[0] + ref[3]))
        return [np.max(np.abs(m[0] + m[3] - ref[0] - ref[3]) / scale) for m in (new, old)]

    @pytest.mark.parametrize(
        "system, new_steps, old_steps, window",
        [
            # the built-in statistics: RK4 ran them at 512 (Dirac) and 1,024 (Hill)
            ("dirac", ch.DIRAC_STEPS, 512, (-4.8, 4.8)),
            ("hill", ch.HILL_STEPS, 1024, (-2.0, 3.6**2 + 1.0)),
            # the spectrum commands' defaults: RK4 ran them at 2,048 and 4,096
            ("dirac", ds.DEFAULT_STEPS, 2048, (-20.0, 20.0)),
            ("hill", hs.DEFAULT_STEPS, 4096, (-2.0, 112.0)),
        ],
    )
    def test_default_steps_no_worse_than_rk4(self, system, new_steps, old_steps, window):
        members = self.DIRAC_MEMBERS if system == "dirac" else self.HILL_MEMBERS
        lam = np.linspace(*window, 401).astype(complex)
        for field in members:
            new, old = self.budget_errors(system, field, lam, new_steps, old_steps, 8 * new_steps)
            assert new <= old, (new, old)


def test_engine_rejects_wrong_node_count():
    nodes = (np.zeros(128), np.ones(128), np.zeros(128), np.zeros(128))
    with pytest.raises(ValueError):
        step_polynomials(nodes, (0.0, 0.0, -1.0, 0.0), np.pi, 64)


def test_engine_rejects_mismatched_step_polynomials():
    step_poly = step_polynomials(system_args("hill", TestSegmentation.FIELDS["hill"], 64)[0],
                                 (0.0, 0.0, -1.0, 0.0), np.pi, 64)
    with pytest.raises(ValueError):
        rk4_transfer(step_poly, 128, np.array([1.0]))


def test_traced_argument_names_bind():
    # the benchmark's tracer reads these arguments by name from each call;
    # renaming one would break every traced run
    from gibbslab import concentration_harness, floquet, flow_lab

    read = {
        floquet.rk4_transfer: ("lam", "steps"),
        floquet.build_models: ("centers",),
        floquet.contour_sum: ("models",),
        flow_lab.split_step_evolve: ("params",),
        concentration_harness.collect_statistic: ("ensemble",),
    }
    for fn, names in read.items():
        bound = inspect.signature(fn).bind_partial(**dict.fromkeys(names)).arguments
        assert set(bound) == set(names), fn.__name__
