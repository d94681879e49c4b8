"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from gibbslab import concentration_harness as ch
from gibbslab import dirac_spectrum as ds
from gibbslab import flow_lab as fl
from gibbslab import hessian_convexity as hc
from gibbslab import hill_spectrum as hs
from gibbslab.cli import main as cli_main
from gibbslab.fourier_field import (
    PeriodicField,
    default_grid_size,
    evaluate,
    l2_norm_sq,
    zero_field,
)
from gibbslab.gibbs_sampler import GibbsParams, importance_ensemble
from conftest import bounded_below_field, hessian_fd_oracle, random_field


def _report(num: int, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:02d}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {num}: {detail}"


def rescale_l1(q: PeriodicField, target: float) -> PeriodicField:
    vals = np.real(evaluate(q, default_grid_size(q.cutoff)).values)
    return q * (target / np.mean(np.abs(vals)))


@pytest.fixture(scope="module")
def borg_spectra():
    """50 rescaled Gibbs potentials with Hill spectra up to index 10."""
    params = GibbsParams(
        p=4.0, beta=-1.0, ball_radius=1.0, cutoff=16, kind="kdv", pi_periodic=True
    )
    ens = importance_ensemble(50, params, seed=20240817)
    out = []
    for f in ens.samples:
        q = rescale_l1(f, 0.45)
        data = hs.hill_periodic_spectrum(q, 112.0, steps=1024)
        out.append((q, data))
    return out


def test_criterion_01_free_dirac_discriminant():
    t0 = time.perf_counter()
    lam_real = np.linspace(-6.0, 6.0, 241).astype(complex)
    rng = np.random.default_rng(1)
    lam_strip = rng.uniform(-6, 6, 200) + 1j * rng.uniform(-1, 1, 200)
    lams = np.concatenate([lam_real, lam_strip])
    vals = ds.discriminant_batch(zero_field(1))(lams)
    err = float(np.abs(vals - 2.0 * np.cos(np.pi * lams)).max())
    elapsed = time.perf_counter() - t0
    ok = err < 1e-7 and elapsed < 5.0
    _report(1, ok, f"free Dirac max |Delta - 2cos(pi lam)| = {err:.2e}, {elapsed:.2f}s")


def test_criterion_02_free_hill_spectrum():
    t0 = time.perf_counter()
    data = hs.hill_periodic_spectrum(zero_field(1), 112.0)
    expect = np.sort(np.array([0.0] + [float(n * n) for n in range(1, 11) for _ in range(2)]))
    eig_err = float(np.abs(data.eigenvalues[: expect.size] - expect).max())
    t_err = float(np.abs(data.midpoints[:11] - np.arange(11.0)).max())
    elapsed = time.perf_counter() - t0
    ok = (
        data.eigenvalues.size >= expect.size
        and eig_err < 1e-7
        and t_err < 1e-7
        and elapsed < 10.0
    )
    _report(2, ok, f"free Hill eig err {eig_err:.2e}, t err {t_err:.2e}, {elapsed:.2f}s")


def test_criterion_03_hessian_formula():
    worst = 0.0
    cases = 0
    for p in (2.0, 3.0, 4.0, 5.0):
        for k in range(25):
            cutoff = 2 + (k % 3)  # M <= 4
            f = bounded_below_field(cutoff, 1000 * int(p) + k)
            v = np.random.default_rng(2000 * int(p) + k).standard_normal(2 * (2 * cutoff + 1))
            form = v @ hc.hessian_matrix_V(f, p) @ v
            fd = hessian_fd_oracle(f, v, p)
            worst = max(worst, abs(form - fd) / (1.0 + abs(fd)))
            cases += 1
    # p = 2 closed form
    f = random_field(4, 9)
    v = np.random.default_rng(99).standard_normal(18)
    closed = abs(v @ hc.hessian_matrix_V(f, 2.0) @ v - 2.0 * v @ v)
    ok = worst < 1e-4 and closed < 1e-10 and cases == 100
    _report(3, ok, f"Hessian vs FD worst rel err {worst:.2e} over {cases} cases, p=2 err {closed:.2e}")


def test_criterion_04_contour_vs_direct():
    g = ds.lorentzian(3.0)
    worst_dirac = 0.0
    for seed in range(20):
        f = random_field(3, 300 + seed, scale=0.05)
        crit = ds.critical_points(f, (-3.6, 3.6), steps=1024)
        direct = ds.linear_statistic_direct(np.array(crit.critical_points), g, 3)
        contour = ds.linear_statistic_contour(
            f, g, np.arange(-3, 4).astype(complex), steps=1024
        )
        worst_dirac = max(worst_dirac, abs(direct - contour))
    from gibbslab.fourier_field import field_from_modes

    q = field_from_modes(2, {2: 0.05, -2: 0.05})
    data = hs.hill_periodic_spectrum(q, 80.0)
    recs = hs.pw_statistic_contour(q, [1, 2, 3, 4])
    worst_hill = max(abs(r["t_sq"] - data.t(r["index"]) ** 2) for r in recs)
    counts_ok = all(abs(r["count"] - round(r["count"])) <= 0.1 for r in recs)
    ok = worst_dirac < 1e-5 and worst_hill < 1e-5 and counts_ok
    _report(
        4,
        ok,
        f"contour vs direct: Dirac {worst_dirac:.2e} (20 fields), "
        f"Hill t^2 {worst_hill:.2e}, counts integral {counts_ok}",
    )


def test_criterion_05_borg_property(borg_spectra):
    n_max = 10
    failures = 0
    worst_offset = 0.0
    worst_spacing_hi = 0.0
    worst_spacing_lo = math.inf
    for q, data in borg_spectra:
        rep = hs.borg_check(q, data, n_max)
        if not (rep.hypotheses_ok and rep.passed):
            failures += 1
        worst_offset = max(worst_offset, rep.max_center_offset)
        worst_spacing_hi = max(worst_spacing_hi, rep.max_consecutive_spacing)
        worst_spacing_lo = min(worst_spacing_lo, rep.min_pair_spacing)
    ok = failures == 0 and worst_offset < 0.25 and worst_spacing_hi < 1.5 and worst_spacing_lo > 0.5
    _report(
        5,
        ok,
        f"Borg margins on 50 samples (n<=10): max|t_n - n| = {worst_offset:.4f}, "
        f"spacing in ({worst_spacing_lo:.3f}, {worst_spacing_hi:.3f}), failures {failures}",
    )


def test_criterion_06_frame_bounds(borg_spectra):
    J = 10
    lowers, uppers = [], []
    for _, data in borg_spectra:
        est = hs.frame_bounds_estimate(data.two_sided_t(J), J, family_size=64)
        lowers.append(est.lower)
        uppers.append(est.upper)
    frame_ok = min(lowers) > 0 and all(a <= b for a, b in zip(lowers, uppers))
    # scaling invariance of the ratio
    g = hs.default_test_family(64)[17]
    t = borg_spectra[0][1].two_sided_t(J)
    base = hs.sampling_ratio(g, t)
    inv_err = 0.0
    for c in (1e-4, 3.0, 1e4):
        ratio = np.sum(np.abs(c * g(t)) ** 2) / (c * c * g.norm_sq())
        inv_err = max(inv_err, abs(ratio - base) / max(1.0, abs(base)))
    ok = frame_ok and inv_err < 1e-10
    _report(
        6,
        ok,
        f"frames on 50 sequences: A in [{min(lowers):.3f}, {max(lowers):.3f}], "
        f"B max {max(uppers):.3f}, scaling err {inv_err:.1e}",
    )


def test_criterion_07_sampler_calibration():
    count, M = 100_000, 10
    params = GibbsParams(p=4.0, beta=0.0, ball_radius=1e12, cutoff=M)
    ens = importance_ensemble(count, params, seed=7)
    coeffs = np.array([f.coeffs for f in ens.samples])
    var_ok = True
    worst_sigma = 0.0
    for j, n in enumerate(range(-M, M + 1)):
        if n == 0:
            continue
        for part in (coeffs[:, j].real, coeffs[:, j].imag):
            v = part.var()
            se = (1.0 / n**2) * math.sqrt(2.0 / count)
            sig = abs(v - 1.0 / n**2) / se
            worst_sigma = max(worst_sigma, sig)
            if sig > 4.0:
                var_ok = False
    masses = np.sum(np.abs(coeffs) ** 2, axis=(1,))
    target = 4.0 * np.sum(1.0 / np.arange(1.0, M + 1.0) ** 2)
    se_mass = masses.std() / math.sqrt(count)
    mass_sig = abs(masses.mean() - target) / se_mass
    ok = var_ok and mass_sig < 3.0
    _report(
        7,
        ok,
        f"calibration at 1e5: worst per-mode deviation {worst_sigma:.2f} se (<4), "
        f"mean mass {masses.mean():.5f} vs {target:.5f} ({mass_sig:.2f} se < 3)",
    )


@pytest.fixture(scope="module")
def focusing_ensembles():
    nls = importance_ensemble(
        300, GibbsParams(p=4.0, beta=-1.0, ball_radius=1.0, cutoff=8), seed=81
    )
    kdv = importance_ensemble(
        200,
        GibbsParams(
            p=4.0, beta=-1.0, ball_radius=1.0, cutoff=8, kind="kdv", pi_periodic=True
        ),
        seed=82,
    )
    return nls, kdv


def test_criterion_08_concentration(focusing_ensembles):
    # Gaussian coordinate statistic at 1e5 samples
    big = importance_ensemble(
        100_000, GibbsParams(p=4.0, beta=0.0, ball_radius=1e12, cutoff=10), seed=8
    )
    sample = ch.collect_statistic(big, "coord:a1")
    rep = ch.concentration_report(sample, bootstrap=100, seed=1)
    eta = rep.fit.fitted_eta
    gauss_ok = 0.4 <= eta <= 0.6

    # homogeneity under scaling
    c = 2.3
    rep_scaled = ch.concentration_report(sample.scaled(c), bootstrap=100, seed=1)
    hom_err = abs(rep_scaled.fit.fitted_eta - c * c * eta) / (c * c * eta)
    hom_ok = hom_err < 1e-6

    # every spectral statistic on the focusing ensembles passes its fit
    nls, kdv = focusing_ensembles
    cparams = hc.ConvexityParams(holder_bound=5.0)
    alpha = hc.lsi_lower_bound(-1.0, 4.0, 1.0, cparams, eta=0.25, route="ball")
    spectral_ok = True
    details = []
    for ens, stat in (
        (nls, "dirac:critical:lorentzian:c=3:M=3"),
        (kdv, "hill:midpoints:lorentzian:c=3:J=3"),
    ):
        name, fn = ch.make_statistic(stat)
        sample_s = ch.collect_statistic(ens, fn, name=name)
        probe = ch.lipschitz_probe(fn, ens, pair_count=150, seed=2, sample=sample_s)
        bound = probe["lipschitz"] ** 2 / alpha
        rep_s = ch.concentration_report(sample_s, eta_bound=bound, bootstrap=100, seed=2)
        details.append(f"{name}: eta {rep_s.fit.envelope_eta:.3g} <= {bound:.3g}")
        if not rep_s.subgaussian_pass:
            spectral_ok = False
    ok = gauss_ok and hom_ok and spectral_ok
    _report(
        8,
        ok,
        f"gaussian fitted_eta {eta:.4f} in [0.4,0.6]; homogeneity err {hom_err:.1e}; "
        + "; ".join(details),
    )


def test_criterion_09_flow():
    # conservation over unit time at the reference resolution
    f32 = random_field(32, 5)
    f32 = f32 * (1.0 / math.sqrt(l2_norm_sq(f32)))
    traj = fl.evolve_trajectory(f32, fl.FlowParams(4.0, -1.0, 1e-4, 10_000, 32), 5)
    drift = fl.conservation_check(traj, 4.0, -1.0)
    cons_ok = drift["l2_drift"] < 1e-8 and drift["hamiltonian_drift"] < 1e-6

    # Strang order across a decade of dt
    f8 = random_field(8, 6)
    f8 = f8 * (1.0 / math.sqrt(l2_norm_sq(f8)))
    T = 0.05
    errs = []
    for dt in (1e-3, 5e-4, 2.5e-4, 1.25e-4):  # each divides T exactly
        out = fl.split_step_evolve(f8, fl.FlowParams(4.0, -1.0, dt, round(T / dt), 8))
        ref = fl.split_step_evolve(
            f8, fl.FlowParams(4.0, -1.0, dt / 16, round(T / (dt / 16)), 8)
        )
        errs.append(np.abs(out.coeffs - ref.coeffs).max())
    ratios = [errs[i] / errs[i + 1] for i in range(3)]
    order_ok = all(3.5 <= r <= 4.5 for r in ratios)

    # time reversal
    fwd = fl.split_step_evolve(f8, fl.FlowParams(4.0, -1.0, 1e-3, 500, 8))
    back = fl.split_step_evolve(fwd, fl.FlowParams(4.0, -1.0, -1e-3, 500, 8))
    rev_err = float(np.abs(back.with_cutoff(8).coeffs - f8.coeffs).max())
    rev_ok = rev_err < 1e-7

    # isospectral drift decreases monotonically under refinement
    f4 = random_field(4, 7, scale=0.25)
    reports = fl.isospectrality_refinement(
        f4, 2.0, 0.2, [(1.6e-3, 8), (4e-4, 16), (1e-4, 32)],
        window=(-2.5, 2.5), dirac_steps=512,
    )
    drifts = [r["drift"] for r in reports]
    iso_ok = drifts[0] > drifts[1] > drifts[2]

    # invariance at reference resolution
    ens = importance_ensemble(
        150, GibbsParams(p=4.0, beta=-1.0, ball_radius=1.0, cutoff=8), seed=91
    )
    params = fl.FlowParams(4.0, -1.0, 1e-3, 300, 8)
    name, stat = ch.make_statistic("dirac:critical:lorentzian:c=3:M=2")
    observables = {
        "l2": l2_norm_sq,
        "V": ch.make_statistic("V:p=4")[1],
        name: stat,
    }
    inv = fl.invariance_check(ens, params, observables, seed=9, permutations=200)
    inv_ok = inv.all_within_band and inv.excluded_blowups == 0

    ok = cons_ok and order_ok and rev_ok and iso_ok and inv_ok
    _report(
        9,
        ok,
        f"drift l2 {drift['l2_drift']:.1e} H {drift['hamiltonian_drift']:.1e}; "
        f"Strang ratios {[f'{r:.2f}' for r in ratios]}; reversal {rev_err:.1e}; "
        f"iso drifts {[f'{d:.1e}' for d in drifts]}; "
        f"invariance D vs band " + str({k: f"{v:.3f}<={inv.null_bands[k]:.3f}" for k, v in inv.distances.items()}),
    )


def test_criterion_10_convexity_certification():
    params = GibbsParams(p=4.0, beta=-1.0, ball_radius=1.0, cutoff=8)
    ens = importance_ensemble(50, params, seed=10)
    cparams = hc.ConvexityParams(delta=0.75, holder_bound=5.0)
    min_eig = math.inf
    all_ok = True
    for f in ens.samples:
        rep = hc.certify_convexity("G_N", f, -1.0, 4.0, 1.0, cparams, weight="h1")
        min_eig = min(min_eig, rep.min_eigenvalue)
        if not rep.certified:
            all_ok = False
    kin = hc.certify_convexity(
        "H", zero_field(8), 0.0, 4.0, 1.0, cparams, weight="h1", paper_bound=1.0
    )
    kin_ok = kin.certified and abs(kin.min_eigenvalue - 1.0) < 1e-12
    bound = 0.5 * (1.0 - 0.75)
    ok = all_ok and min_eig >= bound - 1e-9 and kin_ok
    _report(
        10,
        ok,
        f"G_N certified on 50 samples: min weighted eigenvalue {min_eig:.4f} >= {bound}; "
        f"kinetic case exact ({kin.min_eigenvalue:.1f})",
    )


def test_criterion_11_determinism(tmp_path):
    ens_path = tmp_path / "ens.jsonl"
    code = cli_main(
        ["sample", "--beta", "-1", "--ball", "1.0", "--cutoff", "6",
         "--count", "60", "--seed", "11", "--out", str(ens_path)]
    )
    assert code == 0
    results = {}
    for cmd, args in {
        "concentration": [
            "concentration", "--ensemble", str(ens_path), "--statistic", "l2",
            "--bootstrap", "50", "--seed", "3",
        ],
        "invariance": [
            "invariance", "--ensemble", str(ens_path), "--time", "0.05",
            "--dt", "1e-3", "--observables", "l2,V", "--permutations", "50",
            "--seed", "3",
        ],
        "convexity": [
            "convexity", "--p", "4", "--beta", "-1", "--ball", "1",
            "--holder-k", "5", "--cutoff", "6", "--samples", "6", "--seed", "4",
        ],
    }.items():
        blobs = []
        for workers in (1, 8):
            out = tmp_path / f"{cmd}-{workers}.json"
            code = cli_main(args + ["--workers", str(workers), "--out", str(out)])
            assert code == 0
            blobs.append(out.read_bytes())
        results[cmd] = blobs[0] == blobs[1]
    ok = all(results.values())
    _report(11, ok, f"worker-count 1 vs 8 byte-identical results: {results}")
