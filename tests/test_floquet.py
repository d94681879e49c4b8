import ast
import importlib
import inspect
import pkgutil
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import polynomial as P
from hypothesis import given, settings
from hypothesis import strategies as st

import gibbslab
from gibbslab import concentration_harness as ch
from gibbslab import dirac_spectrum as ds
from gibbslab import floquet
from gibbslab import hill_spectrum as hs
from gibbslab.floquet import (
    SEGMENT_LANES,
    TAYLOR_ORDER,
    _segment_count,
    rk4_transfer,
    step_polynomials,
)
from gibbslab.fourier_field import PeriodicField
from conftest import (
    determinant,
    dirac_rk4_nodes,
    hill_rk4_nodes,
    picard_monodromy,
    random_field,
    real_even_field,
    rk4_staged_oracle,
    rk4_step_polynomials,
    system_args,
    transfer,
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


def rk4_args(system: str, field: PeriodicField, steps: int):
    """(B at the RK4 nodes, C, period) of the Dirac or Hill system."""
    if system == "dirac":
        return dirac_rk4_nodes(field, steps), ds._DIRAC_C, 2 * np.pi
    return hill_rk4_nodes(field, steps), hs._HILL_C, np.pi


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


class TestEngineProperties:
    @settings(max_examples=20, deadline=None)
    @given(dirac_fields, lams)
    def test_dirac_unimodular(self, f, lam):
        assert abs(determinant(transfer("dirac", f, STEPS, np.array([lam])))[0] - 1.0) < TOL

    @settings(max_examples=20, deadline=None)
    @given(hill_potentials(), lams)
    def test_hill_unimodular(self, q, lam):
        assert abs(determinant(transfer("hill", q, STEPS, np.array([lam])))[0] - 1.0) < TOL

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
        # segments of at least MIN_SEGMENT_STEPS = 16 steps
        assert _segment_count(512, 1) == 32
        assert _segment_count(512, 32) == 32
        assert _segment_count(128, 64) == 8
        assert _segment_count(1024, 300) == 8
        assert _segment_count(96, 1) == 4
        assert _segment_count(100, 1) == 4
        assert _segment_count(101, 1) == 1
        assert _segment_count(4096, 2048) == 2
        assert _segment_count(4096, 2049) == 1
        assert _segment_count(64, 1) == 4
        assert _segment_count(16, 1) == 1

    @pytest.mark.parametrize("system", ["dirac", "hill"])
    @pytest.mark.parametrize("steps", [128, 512, 1024])
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


def full_ring_models(f_batch, centers: np.ndarray, trust: float) -> np.ndarray:
    """Disk models from f sampled on every node of each circle, one FFT per circle."""
    radius = 2.0 * trust
    nodes = floquet._ring_nodes(radius)
    ring = radius * np.exp(2j * np.pi * np.arange(nodes) / nodes)
    vals = np.asarray(f_batch((centers[:, None] + ring).ravel())).reshape(centers.size, nodes)
    return np.fft.fft(vals, axis=1) * (radius ** -np.arange(nodes) / nodes)


class TestHalfRing:
    """build_models samples the upper half of each circle and mirrors the rest."""

    @pytest.mark.parametrize("trust", [0.25, 0.35, 1.5])
    def test_upper_half_nodes_only(self, trust):
        seen = []

        def counting(z):
            seen.append(np.asarray(z))
            return 2.0 * np.cos(np.pi * np.asarray(z))

        centers = np.array([0.0, 0.5, -1.3, 2.2])
        models = floquet.build_models(counting, centers, trust)
        nodes = floquet._ring_nodes(2.0 * trust)
        assert models.shape == (centers.size, nodes)
        assert len(seen) == 1 and seen[0].size == centers.size * (nodes // 2 + 1)
        offsets = seen[0].reshape(centers.size, -1) - centers[:, None]
        assert np.all(offsets.imag >= 0.0)
        assert np.allclose(np.abs(offsets), 2.0 * trust, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize(
        "disc, centers",
        [
            (ds.discriminant_batch(TestTaylorSteps.DIRAC_MEMBERS[0], 128), [-3.1, -0.4, 0.9, 2.5]),
            (hs.hill_discriminant_batch(TestTaylorSteps.HILL_MEMBERS[0], 128), [0.3, 4.0, 9.2]),
        ],
        ids=["dirac", "hill"],
    )
    @pytest.mark.parametrize("trust", [0.25, 0.35])
    def test_matches_full_ring(self, disc, centers, trust):
        centers = np.array(centers)
        got = floquet.build_models(disc, centers, trust)
        want = full_ring_models(disc, centers, trust)
        scaled = (2.0 * trust) ** np.arange(want.shape[1])
        size = np.max(np.abs(want) * scaled, axis=1)
        assert np.all(np.max(np.abs(got - want) * scaled, axis=1) <= 1e-14 * size)

    def test_non_real_center_rejected(self):
        disc = lambda z: 2.0 * np.cos(np.pi * np.asarray(z))
        with pytest.raises(ValueError, match="real"):
            floquet.build_models(disc, np.array([0.0, 2.2 + 0.3j]), 0.25)
        # a complex array on the real axis is real
        real = floquet.build_models(disc, np.array([0.0, 2.2]), 0.25)
        assert np.array_equal(floquet.build_models(disc, np.array([0.0, 2.2 + 0j]), 0.25), real)

    def test_dirac_statistic_member_lanes(self, monkeypatch):
        # one member of the Dirac statistic evaluates Delta on the 97-point
        # scan grid of (-4.8, 4.8), then on the upper halves of the scan
        # models' and of the check models' circles, all of trust
        # floquet.TRUST: 24 nodes, 13 of them evaluated
        lanes, centers = [], []
        original_transfer, original_models = floquet.rk4_transfer, floquet.build_models

        def counting_transfer(step_poly, steps, lam):
            lanes.append(np.size(lam))
            return original_transfer(step_poly, steps, lam)

        def counting_models(f_batch, centers_, trust):
            centers.append(np.size(centers_))
            return original_models(f_batch, centers_, trust)

        monkeypatch.setattr(floquet, "rk4_transfer", counting_transfer)
        monkeypatch.setattr(floquet, "build_models", counting_models)
        monkeypatch.setattr(ds, "build_models", counting_models)
        _, stat = ch.make_statistic("dirac:critical:lorentzian:c=3:M=3")
        assert np.isfinite(stat(TestTaylorSteps.DIRAC_MEMBERS[0]))
        assert len(centers) == 2 and min(centers) > 0
        assert lanes == [97, 13 * centers[0], 13 * centers[1]]


class TestMemberBlocks:
    """rk4_transfer on the step polynomials of several members, concatenated
    along the step axis; a real lam runs in real arithmetic."""

    FIELDS = [random_field(6, seed, scale=0.4) for seed in (51, 52, 53)]

    @staticmethod
    def block_polynomials(fields, steps: int) -> np.ndarray:
        nodes = [system_args("dirac", f, steps)[0] for f in fields]
        joined = [np.concatenate(entry, axis=1) for entry in zip(*nodes)]
        b = len(fields)
        return step_polynomials(joined, ds._DIRAC_C, 2 * np.pi * b, steps * b)

    @pytest.mark.parametrize("steps", [128, 512])
    def test_real_lambda_matches_complex(self, steps):
        lam = np.random.default_rng(steps).uniform(-8.0, 8.0, 300)
        for system, field in TestSegmentation.FIELDS.items():
            step_poly = step_polynomials(*system_args(system, field, steps), steps)
            real = np.array(rk4_transfer(step_poly, steps, lam))
            ref = np.array(rk4_transfer(step_poly, steps, lam.astype(complex)))
            assert real.dtype == np.float64 and not ref.imag.any()
            assert np.max(np.abs(real - ref.real) / np.max(np.abs(ref), axis=0)) < 1e-13

    @pytest.mark.parametrize("steps", [128, 512])
    def test_block_matches_each_member(self, steps):
        block = self.block_polynomials(self.FIELDS, steps)
        rng = np.random.default_rng(steps)
        real = np.broadcast_to(rng.uniform(-5.0, 5.0, 97), (3, 97))
        lam = rng.uniform(-5.0, 5.0, (3, 40)) + 1j * rng.uniform(-0.5, 0.5, (3, 40))
        for rows in (real, lam):
            got = np.array(rk4_transfer(block, steps, rows))
            assert got.shape == (4, *rows.shape)
            for i, f in enumerate(self.FIELDS):
                ref = np.array(transfer("dirac", f, steps, rows[i]))
                err = np.abs(got[:, i] - ref) / np.max(np.abs(ref), axis=0)
                assert np.max(err) < 1e-13, (i, np.max(err))
        with pytest.raises(ValueError, match=r"\(3, L\)"):
            rk4_transfer(block, steps, real[0])

    def test_a_non_finite_member_keeps_its_lanes(self):
        # the middle member overflows; the others are as computed alone, and
        # a block of overflowing members raises
        fields = [self.FIELDS[0], self.FIELDS[1] * 400.0, self.FIELDS[2]]
        lam = np.linspace(-3.0, 3.0, 31)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = np.array(rk4_transfer(self.block_polynomials(fields, 128), 128, [lam] * 3))
            with pytest.raises(FloatingPointError, match="overflowed"):
                rk4_transfer(self.block_polynomials(fields[1:2] * 2, 128), 128, [lam] * 2)
        assert not np.isfinite(got[:, 1]).all()
        for i in (0, 2):
            assert np.max(np.abs(got[:, i] - transfer("dirac", fields[i], 128, lam))) < 1e-12

    def test_statistic_block_lanes(self, monkeypatch):
        # a block of the Dirac statistic makes three engine calls: the 97
        # grid points of every member, then each member's scan models and
        # check models, 13 upper half-ring nodes per center
        calls, centers = [], []
        original_transfer, original_models = floquet.rk4_transfer, floquet.build_models

        def counting_transfer(step_poly, steps, lam):
            members = step_poly.shape[2] // steps
            calls.append((members, np.shape(lam)))
            return original_transfer(step_poly, steps, lam)

        def counting_models(f_batch, centers_, trust):
            centers.append(np.shape(centers_))
            return original_models(f_batch, centers_, trust)

        monkeypatch.setattr(floquet, "rk4_transfer", counting_transfer)
        monkeypatch.setattr(floquet, "build_models", counting_models)
        monkeypatch.setattr(ds, "build_models", counting_models)
        _, stat = ch.make_statistic("dirac:critical:lorentzian:c=3:M=3")
        fields = [unit_mass(random_field(8, seed)) for seed in range(61, 73)]
        values = stat.block(fields)
        assert all(np.isfinite(v) for v in values)
        assert [c[0] for c in centers] == [12, 12]
        models = [(12, (12, 13 * n)) for _, n in centers]
        assert calls == [(12, (12, 97)), *models]

    def test_residual_message_names_the_bound(self):
        resid = np.array([1e-7, 3.7e-5])
        with pytest.raises(
            FloatingPointError,
            match=r"^residual 3\.70e-05 at 1\.23456789 above max\(100 tol, 1e-6\) = 1\.0e-06$",
        ):
            floquet.check_residuals(resid, np.array([0.5, 1.23456789]), 1e-9)
        with pytest.raises(FloatingPointError, match=r"= 1\.0e-05$"):
            floquet.check_residuals(resid, np.array([0.5, 1.23456789]), 1e-7)


def companion_roots(coef: np.ndarray, trust: float) -> np.ndarray:
    """In-disk roots of np.roots on the row, trimmed past its last coefficient
    whose size |c_k| trust^k exceeds 1e-14 of the largest."""
    scale = np.abs(coef) * trust ** np.arange(coef.size)
    if scale.max() == 0.0:
        return np.empty(0, dtype=complex)
    coef = coef[: np.nonzero(scale > 1e-14 * scale.max())[0][-1] + 1]
    if coef.size < 2:
        return np.empty(0, dtype=complex)
    roots = np.roots(coef[::-1])
    return roots[np.abs(roots) <= trust]


def grid_extrema(f_batch, grid: np.ndarray) -> np.ndarray:
    """The grid points where the samples of f change direction."""
    slope = np.diff(np.real(f_batch(grid.astype(complex))))
    return grid[1:-1][slope[:-1] * slope[1:] < 0]


def polynomial_with_critical_points(roots):
    """f with f' = prod (z - r), held exactly by a disk model."""
    coef = P.polyint(P.polyfromroots(roots))
    return lambda z: P.polyval(np.asarray(z), coef)


class TestCriticalSolve:
    """locate_spectral_points: one Newton solve per grid extremum, each root in its bracket."""

    @pytest.mark.parametrize("member", range(len(TestTaylorSteps.DIRAC_MEMBERS)))
    def test_members_match_companion_roots(self, member):
        disc = ds.discriminant_batch(TestTaylorSteps.DIRAC_MEMBERS[member], 128)
        grid = ds._scan_grid((-4.8, 4.8))
        got = floquet.locate_spectral_points(disc, grid)
        centers = grid_extrema(disc, grid)
        models = floquet.build_models(disc, centers, floquet.TRUST)
        want = []
        for x, row in zip(centers, models):
            # Delta' of the self-adjoint Dirac operator has real zeros only,
            # one per gap, so each disk holds exactly one
            roots = companion_roots(row[1:] * np.arange(1, row.size), floquet.TRUST)
            assert roots.size == 1 and abs(roots[0].imag) < 1e-12
            want.append(x + roots[0].real)
        assert got.size == len(want) >= 8
        assert np.max(np.abs(got - np.sort(want))) < 1e-12

    def test_root_outside_its_bracket_raises(self):
        # f' = (z^2 - 0.02^2)(z - 0.15): f'(0) / f''(0) = -0.15, so Newton
        # from the grid maximum at 0 lands on the root 0.15, past 0.12
        f = polynomial_with_critical_points([-0.02, 0.02, 0.15])
        grid = np.array([-0.2, -0.01, 0.0, 0.12, 0.3])
        assert np.allclose(grid_extrema(f, grid), [-0.01, 0.0, 0.12])
        with pytest.raises(FloatingPointError, match=r"extremum at 0\.00000000$"):
            floquet.locate_spectral_points(f, grid)

    def test_two_extrema_on_one_root_raise(self):
        # the same with 0.17 in place of 0.12: the grid maximum at 0 and the
        # minimum at 0.17 both find 0.15, inside both brackets, and 0.02 is missed
        f = polynomial_with_critical_points([-0.02, 0.02, 0.15])
        grid = np.array([-0.2, -0.01, 0.0, 0.17, 0.3])
        with pytest.raises(FloatingPointError, match=r"at 0\.00000000 and 0\.17000000 resolve"):
            floquet.locate_spectral_points(f, grid)
        # a grid of spacing 0.01 finds all three
        got = floquet.locate_spectral_points(f, np.linspace(-0.2, 0.3, 51))
        assert np.allclose(got, [-0.02, 0.02, 0.15], rtol=0.0, atol=1e-14)


def contour_sum_reference(models, centers, g, kernel: str, radius: float):
    """contour_sum one circle at a time, each model evaluated by np.polyval."""
    w = radius * np.exp(2j * np.pi * np.arange(floquet.CONTOUR_NODES) / floquet.CONTOUR_NODES)
    total, counts = 0.0, []
    for coef, x in zip(models, centers):
        deriv = coef[1:] * np.arange(1, coef.size)
        if kernel == "critical":
            num = np.polyval((deriv[1:] * np.arange(1, deriv.size))[::-1], w)
            den = np.polyval(deriv[::-1], w)
        else:
            num = np.polyval(deriv[::-1], w)
            den = np.polyval(coef[::-1], w) - (2.0 if kernel == "plus" else -2.0)
        ratio = num / den * w
        counts.append(np.mean(ratio).real)
        total += np.mean(g(x + w) * ratio)
    return total.real, counts


class TestContourSum:
    """Every circle in one batched evaluation, against the per-circle sum."""

    MEMBER = TestTaylorSteps.DIRAC_MEMBERS[0]
    G = ds.lorentzian(3.0)

    @pytest.mark.parametrize(
        "kernel, trust, radius, nodes",
        [
            ("critical", floquet.TRUST, 0.2, 24),
            ("plus", floquet.TRUST, 0.2, 24),
            ("minus", floquet.TRUST, 0.2, 24),
            # more coefficients than the circle has nodes, on radii whose
            # circles pass no root of the kernel's target closely
            ("critical", 2.5, 2.4, 72),
            ("plus", 2.5, 2.4, 72),
            ("minus", 2.5, 2.3, 72),
        ],
    )
    def test_matches_per_circle_polyval(self, kernel, trust, radius, nodes):
        disc = ds.discriminant_batch(self.MEMBER, 128)
        centers = np.array(ds.critical_points(self.MEMBER, (-4.8, 4.8), steps=128).critical_points)
        models = floquet.build_models(disc, centers, trust)
        assert models.shape == (centers.size, nodes)
        got, counts = floquet.contour_sum(models, centers, trust, self.G, kernel, radius)
        want, want_counts = contour_sum_reference(models, centers, self.G, kernel, radius)
        assert abs(got - want) <= 1e-13 * abs(want)
        # counts are near integers, some near 0
        assert np.allclose(counts, want_counts, rtol=1e-13, atol=1e-13)

    def test_first_failing_circle_is_named(self):
        # only the second circle passes next to a critical point of
        # 2 cos(pi z): the zero at 1 lies 1e-3 inside its rim
        disc = lambda z: 2.0 * np.cos(np.pi * np.asarray(z))
        centers = np.array([0.0, 0.801, 2.0])
        models = floquet.build_models(disc, centers, 0.25)
        with pytest.raises(floquet.ContourPlacementError, match=r"at center 0\.801\+0j "):
            floquet.contour_sum(models, centers, 0.25, self.G, "critical", 0.2)
        keep = [0, 2]
        _, counts = floquet.contour_sum(models[keep], centers[keep], 0.25, self.G, "critical", 0.2)
        assert np.allclose(counts, [1.0, 1.0], atol=1e-12)
        # with a later circle failing too, the first one in center order is named
        centers[2] = 1.801
        models = floquet.build_models(disc, centers, 0.25)
        with pytest.raises(floquet.ContourPlacementError, match=r"at center 0\.801\+0j "):
            floquet.contour_sum(models, centers, 0.25, self.G, "critical", 0.2)

    def test_radius_past_trust_rejected(self):
        # a negative radius integrates the circle of radius |radius|, past the
        # trust at -0.3; radius 0 gives every count 0, an integer
        disc = lambda z: 2.0 * np.cos(np.pi * np.asarray(z))
        models = floquet.build_models(disc, np.array([0.0]), 0.25)
        for radius in (0.3, 0.0, -0.3):
            with pytest.raises(ValueError, match="trust"):
                floquet.contour_sum(models, [0.0], 0.25, self.G, "critical", radius)

    @staticmethod
    def pw_circles(q, indices, radius):
        """t_m^2 and root counts on circles of one radius at m^2, one model each."""
        disc = hs.hill_discriminant_batch(q)
        t_sq, counts = [], []
        for m in indices:
            center = np.array([float(m * m)])
            models = floquet.build_models(disc, center, radius + 0.1)
            kernel = "plus" if m % 2 == 0 else "minus"
            value, count = floquet.contour_sum(
                models, center, radius + 0.1, lambda z: z, kernel, radius
            )
            t_sq.append(0.5 * value)
            counts += count
        return np.array(t_sq), np.array(counts)

    def test_pw_statistic_at_radius_three(self):
        # models of 88 coefficients; t^2 pinned from the per-circle np.polyval sum
        q = unit_mass(real_even_field(8, 41))
        t_sq, counts = self.pw_circles(q, [2, 3, 4, 5], 3.0)
        want = [4.053913768904666, 9.022272777777403, 16.018235946202594, 25.012141049595]
        assert np.allclose(counts, 2.0, atol=1e-8)
        assert np.allclose(t_sq, want, rtol=0.0, atol=1e-10)

    def test_pw_statistic_on_a_wide_ring(self):
        # at radius 14 the models carry 280 coefficients, the last of them
        # underflowed to 0, and radius^k overflows past k = 268
        q = PeriodicField(2, [0.1, 0.0, 0.0, 0.0, 0.1])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            t_sq, _ = self.pw_circles(q, [6, 8], 14.0)
        want = [36.00014285561523, 64.0000793651504]
        assert np.allclose(t_sq, want, rtol=0.0, atol=1e-10)


def test_engine_rejects_wrong_node_count():
    nodes = (np.zeros(128), np.ones(128), np.zeros(128), np.zeros(128))
    with pytest.raises(ValueError):
        step_polynomials(nodes, (0.0, 0.0, -1.0, 0.0), np.pi, 64)


def test_engine_rejects_mismatched_step_polynomials():
    step_poly = step_polynomials(system_args("hill", TestSegmentation.FIELDS["hill"], 64)[0],
                                 (0.0, 0.0, -1.0, 0.0), np.pi, 64)
    with pytest.raises(ValueError):
        rk4_transfer(step_poly, 128, np.array([1.0]))


@pytest.mark.parametrize(
    "name", sorted(m.name for m in pkgutil.iter_modules(gibbslab.__path__))
)
def test_every_export_resolves(name):
    # the benchmark's tracer skips a name of __all__ that does not resolve,
    # so a stale export would go unseen there
    module = importlib.import_module(f"gibbslab.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


@pytest.mark.parametrize(
    "name", sorted(p.name for p in Path(gibbslab.__file__).parent.glob("*.py"))
)
def test_no_unused_import(name):
    # a name bound by an import must be read somewhere in the module or be
    # re-exported through __all__; statements marked "noqa: F401" are
    # re-exports by convention, and __future__ imports bind nothing read
    source = (Path(gibbslab.__file__).parent / name).read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            if "noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    assert sorted(n for n in imported if n not in used) == []


def test_bench_metric_functions_exist():
    # the benchmark's per-layer metrics read these functions' self times by
    # name; a renamed one would read 0 there without any error
    read = {
        floquet: ("rk4_transfer", "build_models", "locate_spectral_points", "contour_sum"),
        ds: ("discriminant_batch", "critical_points"),
        hs: ("hill_discriminant_batch", "hill_periodic_spectrum", "pw_statistic_contour"),
    }
    for module, names in read.items():
        for name in names:
            assert name in module.__all__, name
            assert inspect.isfunction(getattr(module, name)), name


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
